"""Goal/critical configuration specifications, traces, and compliance.

A specification is a set of pairs (pattern multiset, constraint set).  A
configuration satisfies the specification when some pair has a grounding
substitution embedding its pattern into the configuration with the
constraints satisfied.  Recognition is a brute-force enumeration over at most
m^eta substitutions, which is why the checker tracks the eta measure.  Each
pair is compiled once into a `rules.MatchPlan` that keeps the pattern's
declaration order and the configuration's canonical order and stops at the
first complete binding, so the substitution reported for a match is the
first in that order.  The enumeration skips a partial binding as soon as a
later pattern it fully determines has no fact (the plan's forward checks).
Such a binding has no completion, so the first substitution found is
unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

from .kernel import TIME_PREDICATE, Configuration
from .rules import (
    TICK_STEP,
    Binding,
    FactPattern,
    MatchPlan,
    RuleInstance,
    TimeConstraint,
    apply_instance,
    pattern_lags,
    reapply,
    tick,
)


class SpecError(ValueError):
    pass


class SpecKind(enum.Enum):
    GOAL = "goal"
    CRITICAL = "critical"


@dataclass(frozen=True)
class SpecPair:
    """One (pattern, constraints) alternative of a specification."""

    pattern: tuple[FactPattern, ...]
    constraints: tuple[TimeConstraint, ...] = ()

    def __post_init__(self) -> None:
        tvars = {p.tvar for p in self.pattern}
        for c in self.constraints:
            for v in c.variables():
                if v not in tvars:
                    raise SpecError(
                        f"constraint variable {v} does not occur in the pair's pattern"
                    )

    @cached_property
    def plan(self) -> MatchPlan:
        """The compiled matcher, built on first use and kept with the pair:
        declaration order, several patterns may share one fact."""
        return MatchPlan(self.pattern, self.constraints)

    @cached_property
    def lags(self) -> tuple[tuple[str, float], ...]:
        """`rules.pattern_lags` of the non-`Time` patterns under the
        constraints, with the global time named by the first `Time@T`
        pattern's T (every lag is inf when the pair reads no clock)."""
        clock = [p.tvar for p in self.pattern if p.atom.pred == TIME_PREDICATE]
        return pattern_lags(
            [p for p in self.pattern if p.atom.pred != TIME_PREDICATE],
            self.constraints,
            clock[0] if clock else None,
        )

    def variables(self) -> set[str]:
        out = {p.tvar for p in self.pattern}
        for p in self.pattern:
            out |= p.atom.variables()
        return out

    def __str__(self) -> str:
        pats = ", ".join(str(p) for p in self.pattern)
        if self.constraints:
            return pats + " | " + ", ".join(str(c) for c in self.constraints)
        return pats


@dataclass(frozen=True)
class ConfigSpec:
    kind: SpecKind
    pairs: tuple[SpecPair, ...] = ()

    @cached_property
    def clocked(self) -> Optional["ConfigSpec"]:
        """The specification of the pairs that mention `Time`, the only ones
        whose match a change of the clock alone can alter; None when no
        pair does."""
        pairs = tuple(
            pair for pair in self.pairs
            if any(p.atom.pred == TIME_PREDICATE for p in pair.pattern)
        )
        return ConfigSpec(self.kind, pairs) if pairs else None


def eta_measure(spec: ConfigSpec) -> int:
    """Max over pairs of the total (first-order plus time) variable count.

    A scenario is eta-simple iff eta_measure of its critical specification is
    strictly below eta.
    """
    if not spec.pairs:
        return 0
    return max(len(pair.variables()) for pair in spec.pairs)


def match_spec(
    spec: ConfigSpec, config: Configuration
) -> Optional[tuple[int, Binding]]:
    """First (pair index, substitution) witnessing the specification, if any.

    A pair's plan keeps declaration order and walks candidates in the
    canonical order of the configuration, stopping at the first complete
    binding, so the witness substitution is deterministic.  Distinct pattern
    entries may map onto the same fact: the match requires only that every
    substituted pattern occurs in the configuration.  Each plan runs on the
    tier it chose (`MatchPlan.bindings`).
    """
    for i, pair in enumerate(spec.pairs):
        found = pair.plan.bindings(config)
        if found:
            return (i, found[0])
    return None


def interpret_spec(
    spec: ConfigSpec, config: Configuration
) -> Optional[tuple[int, Binding]]:
    """`match_spec` on the plans' interpreter alone, which never runs
    generated code: the entry of the witness verifier."""
    for i, pair in enumerate(spec.pairs):
        found = pair.plan.interpret(config)
        if found:
            return (i, found[0])
    return None


class TraceStep:
    """One step annotation plus the configuration it produced.

    A step made with `after`, the step before it or the configuration it
    starts from, in place of `result` holds no configuration until `result`
    is first read.  That read replays the trusted `apply_instance` or `tick`
    from the last configuration known along the `after` links, in a loop, and
    fills in every step it passes.  `search.Checker.trace` defers the steps
    past the deadline that it takes from entries recorded at other states.
    Equality and hashing read `result`, so a deferred step equals the step
    built with its configuration in place."""

    __slots__ = ("instance", "_result", "_after")

    def __init__(
        self,
        instance: Union[RuleInstance, str],  # a RuleInstance or the Tick marker
        result: Optional[Configuration] = None,
        *,
        after: Union["TraceStep", Configuration, None] = None,
    ):
        if (result is None) == (after is None):
            raise ValueError("a trace step takes its result or the step it follows")
        self.instance = instance
        self._result = result
        self._after = after

    @property
    def result(self) -> Configuration:
        if self._result is None:
            chain, source = [], self
            while isinstance(source, TraceStep):
                if source._result is None:
                    chain.append(source)
                    source = source._after
                else:
                    source = source._result
            for step in reversed(chain):
                if step.is_tick:
                    source = tick(source)
                else:
                    source = apply_instance(source, step.instance, trusted=True)
                step._result, step._after = source, None
        return self._result

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceStep:
            return NotImplemented
        return self.instance == other.instance and self.result == other.result

    def __hash__(self) -> int:
        return hash((self.instance, self.result))

    def __repr__(self) -> str:
        return f"TraceStep(instance={self.instance!r}, result={self.result!r})"

    @property
    def is_tick(self) -> bool:
        return isinstance(self.instance, str)

    @property
    def label(self) -> str:
        if self.is_tick:
            return TICK_STEP
        return self.instance.rule.name

    def __str__(self) -> str:
        """``name σ={...} ⇒ |S|=size t=time``; a tick renders as ``Tick σ={}``."""
        move = f"{TICK_STEP} σ={{}}" if self.is_tick else str(self.instance)
        return f"{move} ⇒ |S|={len(self.result)} t={self.result.global_time}"


@dataclass(frozen=True)
class Trace:
    """An annotated sequence of rule applications from an initial configuration."""

    initial: Configuration
    steps: tuple[TraceStep, ...] = ()

    def configurations(self) -> Iterator[Configuration]:
        yield self.initial
        for step in self.steps:
            yield step.result

    def config_at(self, index: int) -> Configuration:
        if index == 0:
            return self.initial
        return self.steps[index - 1].result

    @property
    def final(self) -> Configuration:
        return self.steps[-1].result if self.steps else self.initial

    def tick_count(self) -> int:
        return sum(1 for s in self.steps if s.is_tick)

    def __len__(self) -> int:
        return len(self.steps)

    def format_lines(self) -> list[str]:
        return [f"{k}: {step}" for k, step in enumerate(self.steps, start=1)]


def replay_errors(trace: Trace) -> list[str]:
    """Check that every step's configuration is the exact result of its
    annotation, rebuilt from the step's substitution alone: facts an engine
    instance carries are never read."""
    errors = []
    current = trace.initial
    for i, step in enumerate(trace.steps):
        if step.is_tick:
            expected = tick(current)
        else:
            expected = reapply(step.instance, current)
            if expected is None:
                errors.append(f"step {i + 1}: instance {step.instance.key()} not applicable")
                current = step.result
                continue
        if expected != step.result:
            errors.append(f"step {i + 1}: recorded configuration does not match replay")
        current = step.result
    return errors


@dataclass(frozen=True)
class Violation:
    step_index: int  # configuration index within the trace (0 = initial)
    pair_index: int
    substitution: tuple[tuple[str, object], ...]

    def __str__(self) -> str:
        binds = ", ".join(f"{v}={t}" for v, t in self.substitution)
        return (
            f"critical configuration at step {self.step_index} "
            f"(pair {self.pair_index}, σ={{{binds}}})"
        )


@dataclass(frozen=True)
class ComplianceResult:
    ok: bool
    violation: Optional[Violation] = None


def check_compliance(trace: Trace, critical: ConfigSpec) -> ComplianceResult:
    """OK iff no configuration in the trace (including the initial one) is
    critical.  A checker of traces, it matches on the interpreter alone."""
    if critical.kind is not SpecKind.CRITICAL:
        raise SpecError("compliance is checked against a critical specification")
    for index, config in enumerate(trace.configurations()):
        hit = interpret_spec(critical, config)
        if hit is not None:
            pair_index, sigma = hit
            return ComplianceResult(
                ok=False,
                violation=Violation(
                    step_index=index,
                    pair_index=pair_index,
                    substitution=tuple(sorted(sigma.items())),
                ),
            )
    return ComplianceResult(ok=True)
