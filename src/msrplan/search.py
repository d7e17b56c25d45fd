"""Move enumeration and the one search engine.

`iter_successors` is the only move enumerator (`successors` is its list
form): instantaneous rule instances in canonical order, then the time
advance (system moves), or the update instances (update moves).  The engine
consumes it lazily, so moves after the first good one are never built.

`Checker` is the only search engine.  `decide(config, n, w)` asks whether a
compliant goal trace from `config` survives up to n adversarial update
applications while the disruption window w is open, with b further time
advances allowed after it closes.  A state is good when it is non-critical,
every applicable update at it (while the window is open) leads to a state
that is good one update level down, and either the goal is matched or some
successor is good.  The search is iterative within a level and recursive
across levels, so the Python stack depth is bounded by n.  When it proves a
state good it records the move that proved it, and `trace` follows those
recorded moves to rebuild the leftmost certified trace.

The scenario configures the engine.  In a progressing scenario a state is
keyed on (canonical fact tuple, n, w).  Within one `Checker` the window fixes
the clock (global time + w is the same for every key), so the time
abstraction of `delta` could never merge two such keys and the search does
not compute it.  These keys omit the remaining path length, so they are sound
only when no cutoff can fire, which holds in progressing scenarios; a cutoff
there raises `EngineError`.  In any other scenario the remaining path length
is appended to the key, which is exact for the bounded search even when
instantaneous rules form a cycle.

A compliant goal trace within a tick budget is the n=0, b=0 case:
`find_compliant_goal_trace` runs the engine there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Optional, Union

from .kernel import Configuration
from .rules import EngineError, RuleInstance, apply_instance, find_matches, tick
from .scenario import PlanningScenario
from .specs import TICK_STEP, Trace, TraceStep, match_spec

Which = Literal["system", "updates", "both"]
Move = tuple[Union[RuleInstance, str], Configuration, int]


def successors(
    scenario: PlanningScenario, config: Configuration, which: Which = "system"
) -> list[tuple[Union[RuleInstance, str], Configuration]]:
    """All canonical one-step moves from `config`, in deterministic order.

    Instantaneous instances come first (rules in declaration order, instances
    in canonical order), then the time advance when system moves are included.
    """
    return list(iter_successors(scenario, config, which))


def iter_successors(
    scenario: PlanningScenario,
    config: Configuration,
    which: Which = "system",
    *,
    advance: bool = True,
) -> Iterator[tuple[Union[RuleInstance, str], Configuration]]:
    """`successors`, computed one move at a time as they are consumed.

    With `advance` False the time advance is left out and never built.
    """
    if which == "system":
        rules = scenario.system_rules
    elif which == "updates":
        rules = scenario.update_rules
    elif which == "both":
        rules = scenario.system_rules + scenario.update_rules
    else:
        raise EngineError(f"unknown successor selector {which!r}")
    for rule in rules:
        for inst in find_matches(rule, config, scenario.signature):
            yield inst, apply_instance(config, inst, trusted=True)
    if advance and which != "updates":
        yield TICK_STEP, tick(config)


@dataclass
class SearchStats:
    visited: int = 0  # states the search decided


class Checker:
    """Memoized decision procedure that records the move proving each good
    state, plus the walk that follows those moves."""

    def __init__(self, scenario: PlanningScenario, b: int):
        """Paths from a root with window w are bounded by (w + b + 1) * m
        steps, m the configuration size.  In a progressing scenario every
        instantaneous step lowers the number of non-`Time` facts timestamped
        at or before the global time, so at most m - 1 such steps occur per
        instant; with at most w + b time advances a path has at most
        (w + b) + (w + b + 1) * (m - 1) < (w + b + 1) * m steps."""
        self.scenario = scenario
        self.b = b
        self.m = len(scenario.initial)
        self.progressing = scenario.progressing
        # key -> False, True (a goal state), or the winning move as
        # (annotation, successor, successor key)
        self.memo: dict[tuple, Union[bool, tuple]] = {}
        self.refutation: tuple[str, ...] = ()

    def _depth_limit(self, w: int) -> int:
        return (w + self.b + 1) * self.m

    def _key(self, config: Configuration, n: int, w: int, remaining: int) -> tuple:
        # the fact tuple, not the Configuration: refuted states are not kept alive
        if self.progressing:
            return (config.canonical_order(), n, w)
        return (config.canonical_order(), n, w, remaining)

    def _cutoff(self, reason: str) -> None:
        """A successor the bounded search cannot expand.  Exact keys carry the
        remaining path length, so there it just counts as bad; memo keys do
        not, so there it is an error (unreachable in progressing scenarios)."""
        if self.progressing:
            raise EngineError(f"memoized search {reason}")

    def _moves(self, config: Configuration, w: int) -> Iterator[Move]:
        """System moves with the window after them; the time advance only
        while ticks remain (w + b >= 1)."""
        for annotation, nxt in iter_successors(
            self.scenario, config, advance=w + self.b >= 1
        ):
            yield annotation, nxt, w - 1 if isinstance(annotation, str) else w

    def _covered(self, config: Configuration, n: int, w: int) -> bool:
        """Every applicable update must lead to an (n-1, w, b)-resilient state."""
        if n == 0 or w < 0:
            return True
        for inst, updated in iter_successors(self.scenario, config, "updates"):
            if not self.decide(updated, n - 1, w):
                chain = (
                    f"update {inst.key()} at t={config.global_time} admits no "
                    f"({n - 1},{w},{self.b})-resilient reaction",
                )
                self.refutation = chain + self.refutation[:8]
                return False
        return True

    def _goal_verdict(self, config: Configuration, n: int, w: int) -> Optional[bool]:
        """The verdict of a goal state, None for any other state.

        Update coverage is evaluated lazily: only states that otherwise lie on
        a compliant goal trace pay for it (a state that cannot reach the goal
        is refuted without running any reaction searches).
        """
        if match_spec(self.scenario.goal_spec, config) is None:
            return None
        return self._covered(config, n, w)

    def decide(self, config: Configuration, n: int, w: int) -> bool:
        """Does an (n, w, b)-resilient trace from `config` exist?

        Critical states are refuted before their key is computed.  A successor
        deeper than the path bound, or one whose key is on the stack, is a
        cutoff (see `_cutoff`); neither occurs in a progressing scenario.
        """
        critical = self.scenario.critical_spec
        if match_spec(critical, config) is not None:
            return False
        limit = self._depth_limit(w)
        key = self._key(config, n, w, limit)
        verdict = self.memo.get(key)
        if verdict is not None:
            return bool(verdict)
        verdict = self._goal_verdict(config, n, w)
        if verdict is not None:
            self.memo[key] = verdict
            return verdict

        # frames: (annotation leading here, configuration, window, key, moves)
        stack = [(None, config, w, key, self._moves(config, w))]
        onstack = {key}
        pending: Union[None, bool, tuple] = None  # verdict of the last successor
        last: tuple = ()  # that successor as (annotation, configuration, key)
        while stack:
            frame = stack[-1]
            _, cfg, fw, fkey, moves = frame
            if pending:
                # a good successor proves the state iff its update points are covered
                verdict = last if self._covered(cfg, n, fw) else False
            elif (move := next(moves, None)) is not None:
                annotation, cfg2, w2 = move
                if match_spec(critical, cfg2) is not None:
                    continue
                key2 = self._key(cfg2, n, w2, limit - len(stack))
                last = (annotation, cfg2, key2)
                pending = self.memo.get(key2)
                if pending is not None:
                    continue
                if key2 in onstack:
                    self._cutoff("revisited a state on its stack")
                    continue
                pending = self._goal_verdict(cfg2, n, w2)
                if pending is not None:
                    self.memo[key2] = pending
                elif len(stack) < limit:
                    stack.append((annotation, cfg2, w2, key2, self._moves(cfg2, w2)))
                    onstack.add(key2)
                else:
                    self._cutoff("reached its path bound")
                continue
            else:
                verdict = False
            self.memo[fkey] = verdict
            onstack.discard(fkey)
            stack.pop()
            last = (frame[0], cfg, fkey)
            pending = verdict
        return bool(self.memo[key])

    def trace(self, config: Configuration, n: int, w: int) -> Trace:
        """The trace certified by `decide(config, n, w)`, which must hold.

        Follows the recorded winning moves, which are the leftmost
        decide-approved moves in the search order, to a goal state.
        """
        key = self._key(config, n, w, self._depth_limit(w))
        steps: list[TraceStep] = []
        while (entry := self.memo.get(key)) is not True:
            if not isinstance(entry, tuple):
                raise EngineError("witness reconstruction lost the certified path")
            annotation, nxt, key = entry
            steps.append(TraceStep(annotation, nxt))
        return Trace(config, tuple(steps))


def find_compliant_goal_trace(
    scenario: PlanningScenario,
    tick_budget: int,
    *,
    stats: Optional[SearchStats] = None,
) -> Optional[Trace]:
    """A compliant trace of system rules from the initial configuration to a
    goal configuration using at most `tick_budget` time advances, or None.

    The engine at n=0, b=0: the leftmost such trace in the search order, with
    length bounded by (tick_budget + 1) * m, the trace-length bound for
    progressing scenarios.
    """
    if tick_budget < 0:
        raise EngineError("tick budget must be a natural number")
    checker = Checker(scenario, 0)
    found = checker.decide(scenario.initial, 0, tick_budget)
    if stats is not None:
        stats.visited += len(checker.memo)
    if not found:
        return None
    trace = checker.trace(scenario.initial, 0, tick_budget)
    if checker.progressing:
        _assert_progressing_shape(trace, len(scenario.initial))
    return trace


def _assert_progressing_shape(trace: Trace, m: int) -> None:
    """Between consecutive time advances at most m instantaneous steps occur."""
    run = 0
    for step in trace.steps:
        if step.is_tick:
            run = 0
        else:
            run += 1
            if run > m:
                raise EngineError(
                    "progressing bound violated: more than m instantaneous "
                    "steps between consecutive time advances"
                )


def instantaneous_run_lengths(trace: Trace) -> list[int]:
    """Lengths of the instantaneous-step runs between time advances."""
    runs = [0]
    for step in trace.steps:
        if step.is_tick:
            runs.append(0)
        else:
            runs[-1] += 1
    return runs
