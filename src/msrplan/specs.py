"""Goal/critical configuration specifications, traces, and compliance.

A specification is a set of pairs (pattern multiset, constraint set).  A
configuration satisfies the specification when some pair has a grounding
substitution embedding its pattern into the configuration with the
constraints satisfied.  Recognition is a join: each pair is compiled once
into a `rules.MatchPlan` that keeps the pattern's declaration order and the
configuration's canonical order and stops at the first complete binding, so
the substitution reported for a match is the first in that order.  The plan
binds the `Time` patterns' variables (`SpecPair.clock`) to the global time,
as a rule's ``T`` is, and joins the rest (`SpecPair.joined`), so it binds
each of the pair's variables; the eta measure is the most any pair has, and
the resilience checker caps it for the critical specification.  The join
skips a partial binding as soon as a later pattern it fully determines has
no fact (the plan's forward checks).  Such a binding has no completion, so
the first substitution found is unchanged.  A pair computes `clock` and
`joined` when it is built, in the one walk over its pattern that checks its
sorts; its plan is compiled on first use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

from .kernel import TIME_PREDICATE, Configuration, Variable
from .rules import (
    TICK_STEP,
    Binding,
    FactPattern,
    MatchPlan,
    RuleInstance,
    TimeConstraint,
    _Dbm,
    apply_instance,
    tick,
)


class SpecError(ValueError):
    pass


class SpecKind(enum.Enum):
    GOAL = "goal"
    CRITICAL = "critical"


@dataclass(frozen=True)
class SpecPair:
    """One (pattern, constraints) alternative of a specification.

    Building a pair walks its pattern once.  That walk checks that every
    constraint variable is a time variable of the pattern and that no name
    is both a time and a term variable, and it sets two plain attributes:
    `clock`, the `Time` patterns' time variables in declaration order, each
    once, and `joined`, the other patterns in declaration order.  The graph
    reduction builds a pair per query, so both are computed when the pair is
    built rather than on first read.  `plan` and `closure` are built on
    first use and kept with the pair."""

    pattern: tuple[FactPattern, ...]
    constraints: tuple[TimeConstraint, ...] = ()

    def __post_init__(self) -> None:
        tvars: set[str] = set()
        terms: set[str] = set()
        clock: dict[str, None] = {}
        joined = []
        for p in self.pattern:
            tvars.add(p.tvar)
            atom = p.atom
            if atom.pred == TIME_PREDICATE:
                clock[p.tvar] = None
            else:
                joined.append(p)
            for a in atom.args:
                if a.__class__ is Variable:
                    terms.add(a.name)
        for c in self.constraints:
            for v in (c.left, c.right):
                if v not in tvars:
                    raise SpecError(
                        f"constraint variable {v} does not occur in the pair's pattern"
                    )
        # a name has one sort: a timestamp never equals a term
        clash = tvars & terms
        if clash:
            raise SpecError(f"{min(clash)} is both a time variable and a term variable")
        object.__setattr__(self, "clock", tuple(clock))
        object.__setattr__(self, "joined", tuple(joined))

    @cached_property
    def plan(self) -> MatchPlan:
        """The compiled matcher, built on first use and kept with the pair:
        `clock` bound first, then `joined`, several patterns may share one fact."""
        return MatchPlan(self.joined, self.constraints, clock=self.clock)

    @cached_property
    def closure(self) -> _Dbm:
        """The constraints' closure over every time variable of the pattern,
        built on first use and kept with the pair, as `rules.Rule.closure`
        is with a rule."""
        return _Dbm(self.constraints, {p.tvar for p in self.pattern})

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
        pairs = tuple(pair for pair in self.pairs if pair.clock)
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

    A pair's plan binds its clock variables, keeps declaration order and
    walks candidates in the canonical order of the configuration, stopping
    at the first complete binding, so the witness substitution is
    deterministic.  Distinct pattern entries may map onto the same fact: the
    match requires only that every substituted pattern occurs in the
    configuration.  Each plan runs on the
    tier it chose (`MatchPlan.bindings`).
    """
    for i, pair in enumerate(spec.pairs):
        found = pair.plan.bindings(config)
        if found:
            return (i, found[0])
    return None


class TraceStep:
    """One step annotation plus the configuration it produced.

    A step made with `after`, the step before it or the configuration it
    starts from, in place of `result` holds no configuration until `result`
    is first read.  That read replays `apply_instance` or `tick` from the
    last configuration known along the `after` links, in a loop, and
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
                    source = apply_instance(source, step.instance)
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
    instance carries are never read.  A step whose instance does not apply
    to the configuration before it, or whose substitution does not bind
    exactly its rule's variables with values of their sorts, is reported as
    not applicable; a step whose recorded configuration differs from the
    replay's, as a mismatch.  Each step is replayed from the configuration
    recorded before it.  The replay is the witness checker's
    (`certify.trace_errors`), on its own state, so it shares no code path
    with the engine whose traces it checks."""
    from .certify import trace_errors  # certify imports this module

    return trace_errors(trace)


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
    critical.  It matches each configuration with `match_spec` and reports
    the first pair matched at the first critical configuration."""
    if critical.kind is not SpecKind.CRITICAL:
        raise SpecError("compliance is checked against a critical specification")
    for index, config in enumerate(trace.configurations()):
        found = match_spec(critical, config)
        if found is not None:
            pair_index, sigma = found
            return ComplianceResult(
                ok=False,
                violation=Violation(
                    step_index=index,
                    pair_index=pair_index,
                    substitution=tuple(sorted(sigma.items())),
                ),
            )
    return ComplianceResult(ok=True)
