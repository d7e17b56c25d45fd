"""Move enumeration and the one search engine.

`successors(config, rules)` is the only move enumerator: the instances of
the given rules in canonical order, then the time advance.  It reads only
the rules and the configuration.  The engine passes the system rules for
system moves and the update rules without the time advance for update
moves, and consumes the moves lazily, so moves after the first good one are
never built.

`Checker` is the only search engine.  It is built for one query: updates
are admitted until `deadline`, a ticks after the initial configuration, and
time advances until `horizon`, b ticks after that.  `decide(config, n)` asks
whether a compliant goal trace from `config` survives up to n adversarial
update applications.  The window left at a state is the deadline minus its
global time, which its `Time` fact carries, so no window is passed along.  A
state is good when it is non-critical, every update applicable at it (while
its clock is at or before the deadline) leads to a state that is good one
update level down, and either the goal is matched or some successor is good.
The search is iterative within a level and recursive across levels, so the
Python stack depth is bounded by n.  When it proves a state good it records
the move that proved it, and `trace` follows those recorded moves to rebuild
the leftmost certified trace.  A tick changes only the clock of a state that
is neither critical nor a goal, so its result is checked against the
specification pairs that mention `Time` alone.

The scenario configures the engine.  In a progressing scenario a state is
keyed on (non-`Time` fact tuple, clock, n).  The clock fixes the window
left, so the time abstraction of `delta` could never merge two such keys
and the search does not compute it.  These keys omit the remaining path
length, so they are sound only when the search's one cutoff, its path
bound, cannot fire, which holds in progressing scenarios; the cutoff there
raises `EngineError`.  In any other scenario the remaining path length is
added to the key, which is exact for the bounded search even when
instantaneous rules form a cycle: a state revisited along a path is
expanded again with less length left, until the path bound refutes it.
A key (`StateKey`) is hashed once, from the configuration's multiset hash,
which each move updates from the facts it changes; a memo probe then costs
one Python call instead of one per fact.

Before it expands a state the engine asks the scenario's timed relaxation
(`relax.Relaxation`) whether a compliant goal trace from it can reach the
goal by the horizon.  It asks at decision roots (the query root and each
update's result) and at the results of system moves whose rule creates or
consumes a predicate the relaxation reads; never after a tick or a move
that leaves those predicates alone, such as the clock rule, and only while
at least two ticks are left, where a call costs less than the search it can
save.  A refuted root is memoized as bad; a refuted successor is a bad move
without a memo entry.  The relaxation is sound, so a refuted state reaches
no goal state: its subtree holds no good state and calls no update coverage
check.  The recorded moves, witnesses and refutation chains are therefore
the same as those of the search without it.  Each checker also stores the
relaxation's refutations, keyed on the time-free signature of
`Relaxation.project`, and a stored one answers for every state it
dominates: one with its signature, a clock no earlier and no earliest
timestamp earlier.  The relaxation is monotone in those (see `relax`), so
the store says dead only where the relaxation would, and outputs do not
change.  The store serves one query and one horizon; nothing is kept
across queries.

A compliant goal trace within a tick budget is the n=0, b=0 case:
`find_compliant_goal_trace` runs the engine there.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable, Iterator, Optional, Union

from .kernel import MAX_TIMESTAMP, Configuration
from .rules import EngineError, Rule, RuleInstance, apply_instance, find_matches, tick
from .scenario import PlanningScenario
from .specs import TICK_STEP, ConfigSpec, Trace, TraceStep, match_spec


def successors(
    config: Configuration, rules: Iterable[Rule], *, advance: bool = True
) -> Iterator[tuple[Union[RuleInstance, str], Configuration]]:
    """The one-step moves from `config`, built one at a time as they are
    consumed: each rule's instances in canonical order, rules in the order
    given, then the time advance unless `advance` is False."""
    for rule in rules:
        for inst in find_matches(rule, config):
            yield inst, apply_instance(config, inst, trusted=True)
    if advance:
        yield TICK_STEP, tick(config)


class StateKey:
    """A memo key: a configuration's non-`Time` fact tuple and global time,
    the update level n, and the remaining path length (None where keys omit
    it), hashed once.

    It holds the configuration's parts, read from their slots, not the
    `Configuration`, so refuted states are not kept alive; a tick successor
    shares its parent's tuple.  Its hash mixes the configuration's multiset
    hash with n and the remaining length, so a probe makes one Python call
    however many facts the tuple holds."""

    __slots__ = ("facts", "time", "n", "remaining", "_hash")

    def __init__(self, config: Configuration, n: int, remaining: Optional[int]):
        self.facts = config._facts
        self.time = config._clock.ts
        self.n = n
        self.remaining = remaining
        self._hash = hash((config._hash, n, remaining))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StateKey)
            and self._hash == other._hash
            and self.n == other.n
            and self.remaining == other.remaining
            and self.time == other.time
            and self.facts == other.facts
        )


@dataclass
class SearchStats:
    visited: int = 0  # states the search decided


class Checker:
    """Memoized decision procedure for one (a, b) query that records the move
    proving each good state, plus the walk that follows those moves."""

    def __init__(self, scenario: PlanningScenario, a: int, b: int):
        """Paths from a root at time t are bounded by (horizon - t + 1) * m
        steps, m the configuration size.  In a progressing scenario every
        instantaneous step lowers the number of non-`Time` facts timestamped
        at or before the global time, so at most m - 1 such steps occur per
        instant; with k = horizon - t time advances a path has at most
        k + (k + 1) * (m - 1) < (k + 1) * m steps."""
        self.scenario = scenario
        self.b = b
        self.deadline = scenario.initial.global_time + a
        self.horizon = self.deadline + b
        self.m = len(scenario.initial)
        self.progressing = scenario.progressing
        # key -> False, True (a goal state), or the winning move as
        # (annotation, successor, successor key)
        self.memo: dict[StateKey, Union[bool, tuple]] = {}
        self.refutation: tuple[str, ...] = ()
        # relaxation signature -> (clock, earliest times) of refuted states
        self.refuted: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}

    def _depth_limit(self, config: Configuration) -> int:
        return (self.horizon - config.global_time + 1) * self.m

    def _key(self, config: Configuration, n: int, remaining: int) -> StateKey:
        return StateKey(config, n, None if self.progressing else remaining)

    def admits_updates(self, config: Configuration, n: int) -> bool:
        """Updates are admitted while some are left and the clock is at or
        before the deadline."""
        return n > 0 and config.global_time <= self.deadline

    def _covered(self, config: Configuration, n: int) -> bool:
        """Every update applicable at an admitting state must lead to a state
        that is resilient one update level down.  On failure `refutation` is
        one chain: the defeating update, then what the inner decision left."""
        if not self.admits_updates(config, n):
            return True
        updates = successors(config, self.scenario.update_rules, advance=False)
        for inst, updated in updates:
            self.refutation = ()
            if not self.decide(updated, n - 1):
                window = self.deadline - config.global_time
                chain = (
                    f"update {inst.key()} at t={config.global_time} admits no "
                    f"({n - 1},{window},{self.b})-resilient reaction",
                )
                self.refutation = chain + self.refutation
                return False
        return True

    def _goal_verdict(
        self, config: Configuration, n: int, goal: Optional[ConfigSpec]
    ) -> Optional[bool]:
        """The verdict of a state that matches `goal`, None for any other
        state and when `goal` is None.

        Update coverage is evaluated lazily: only states that otherwise lie on
        a compliant goal trace pay for it (a state that cannot reach the goal
        is refuted without running any reaction searches).
        """
        if goal is None or match_spec(goal, config) is None:
            return None
        return self._covered(config, n)

    def _dead(self, config: Configuration, rule: Optional[Rule] = None) -> bool:
        """Does the scenario's relaxation prove that no goal state is
        reachable from `config` by the horizon?  Asked only while at least
        two ticks are left, where the search it saves outweighs its cost,
        and, for the result of a move by `rule`, only if that rule changes
        a predicate the relaxation reads.  A stored refutation that
        dominates `config` answers without a relaxation call; otherwise the
        relaxation runs and its refutation is stored.  It answers True only
        where the relaxation would refute, so memo entries and recorded
        moves are those of the search that asks the relaxation every time."""
        if config.global_time + 2 > self.horizon:
            return False
        relaxation = self.scenario.relaxation
        if relaxation.trivial or (rule is not None and rule.name not in relaxation.touching):
            return False
        t = config.global_time
        signature, earliest = relaxation.project(config)
        for t0, earliest0 in self.refuted.get(signature, ()):
            if t0 <= t and all(map(le, earliest0, earliest)):
                return True
        if relaxation.possible(config, self.horizon):
            return False
        self.refuted.setdefault(signature, []).append((t, earliest))
        return True

    def decide(self, config: Configuration, n: int) -> bool:
        """Does a resilient trace from `config` with n updates left exist?

        Critical states are refuted before their key is computed.  The one
        cutoff is the path bound: a successor that would lie deeper than it
        is not expanded.  Exact keys carry the remaining path length, so
        there the successor just counts as bad; memo keys do not, so there
        the cutoff raises `EngineError`, and it never fires in a progressing
        scenario.  No check for a successor already on the stack stands
        beside it.  With exact keys a successor's key holds less remaining
        length than every key on the stack, so it never equals one.  With
        memo keys a revisit cannot happen in a progressing scenario; were it
        to happen, the search would repeat the same moves until the path
        bound raised.

        Every frame on the stack is neither critical nor a goal, and a tick
        changes only the clock, so a specification pair that does not read
        the clock cannot start matching after a tick: a frame's tick
        successor is checked against the pairs that mention `Time` alone
        (`ConfigSpec.clocked`).  The root and the results of updates and
        system moves are checked against every pair.

        A non-goal state that `_dead` refutes is bad without a search: the
        root is memoized as bad, a successor is a bad move without a memo
        entry.
        """
        critical = self.scenario.critical_spec
        goal = self.scenario.goal_spec
        if match_spec(critical, config) is not None:
            return False
        limit = self._depth_limit(config)
        key = self._key(config, n, limit)
        verdict = self.memo.get(key)
        if verdict is not None:
            return bool(verdict)
        verdict = self._goal_verdict(config, n, goal)
        if verdict is None and self._dead(config):
            verdict = False
        if verdict is not None:
            self.memo[key] = verdict
            return verdict

        # frames: (annotation leading here, configuration, key, moves); the
        # time advance is offered while the clock is short of the horizon
        horizon = self.horizon
        rules = self.scenario.system_rules
        every, after_tick = (critical, goal), (critical.clocked, goal.clocked)
        moves = successors(config, rules, advance=config.global_time < horizon)
        stack = [(None, config, key, moves)]
        pending: Union[None, bool, tuple] = None  # verdict of the last successor
        last: tuple = ()  # that successor as (annotation, configuration, key)
        while stack:
            frame = stack[-1]
            _, cfg, fkey, moves = frame
            if pending:
                # a good successor proves the state iff its update points are covered
                verdict = last if self._covered(cfg, n) else False
            elif (move := next(moves, None)) is not None:
                annotation, cfg2 = move
                critical2, goal2 = after_tick if annotation is TICK_STEP else every
                if critical2 is not None and match_spec(critical2, cfg2) is not None:
                    continue
                key2 = self._key(cfg2, n, limit - len(stack))
                last = (annotation, cfg2, key2)
                pending = self.memo.get(key2)
                if pending is not None:
                    continue
                pending = self._goal_verdict(cfg2, n, goal2)
                if pending is not None:
                    self.memo[key2] = pending
                elif annotation is not TICK_STEP and self._dead(cfg2, annotation.rule):
                    pending = False  # a bad move, decided without a memo entry
                elif len(stack) < limit:
                    moves = successors(cfg2, rules, advance=cfg2.global_time < horizon)
                    stack.append((annotation, cfg2, key2, moves))
                elif self.progressing:
                    raise EngineError("memoized search reached its path bound")
                continue
            else:
                verdict = False
            self.memo[fkey] = verdict
            stack.pop()
            last = (frame[0], cfg, fkey)
            pending = verdict
        return bool(self.memo[key])

    def trace(self, config: Configuration, n: int) -> Trace:
        """The trace certified by `decide(config, n)`, which must hold.

        Follows the recorded winning moves, which are the leftmost
        decide-approved moves in the search order, to a goal state.
        """
        key = self._key(config, n, self._depth_limit(config))
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
    if scenario.initial.global_time + tick_budget > MAX_TIMESTAMP:
        raise EngineError("tick budget overflows the timestamp range")
    checker = Checker(scenario, tick_budget, 0)
    found = checker.decide(scenario.initial, 0)
    if stats is not None:
        stats.visited += len(checker.memo)
    if not found:
        return None
    trace = checker.trace(scenario.initial, 0)
    if checker.progressing:
        _assert_progressing_shape(trace, len(scenario.initial))
    return trace


def _assert_progressing_shape(trace: Trace, m: int) -> None:
    """Between consecutive time advances at most m instantaneous steps occur."""
    if max(instantaneous_run_lengths(trace)) > m:
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
