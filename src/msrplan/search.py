"""Move enumeration and the one search engine.

`successors(config, rules)` is the only move enumerator: the instances of
the given rules in canonical order, then the time advance.  It reads only
the rules and the configuration.  The engine passes the system rules, or
the update rules without the time advance, and consumes the moves lazily,
so moves after the first good one are never built.

`Checker` is the only search engine.  It is built for one query: updates
are admitted until `deadline`, a ticks after the initial configuration, and
time advances until `horizon`, b ticks after that.  `decide(config, n)` asks
whether a compliant goal trace from `config` survives up to n adversarial
update applications.  The window left at a state is the deadline minus its
global time, which its `Time` fact carries, so no window is passed along.  A
state is good when it is non-critical, every update applicable at it (while
its clock is at or before the deadline) leads to a state that is good one
update level down, and either the goal is matched or some successor is good.
The search is iterative within a level and recursive across levels, two
Python frames per update round, so `resilience.MAX_UPDATE_ROUNDS` bounds its
stack depth.  When it proves a state good it records the move that proved
it, and `trace` follows those recorded moves to rebuild the leftmost
certified trace.

The scenario configures the engine.  In a progressing scenario the search
is depth first and its memo is keyed on (configuration, n); the clock fixes
the window left, so a key holds no window.  Past the deadline no update is
admitted, and a fact P@ts with ts < t - c_P, c_P from the scenario's expiry
table (`PlanningScenario.expiry`), is read by no rule or specification at
the global time t or later.  So once the checker applies its first update,
if states past the deadline lie ahead (b > 0), it keys each such state on
(the state without its expired facts, 0), and moves the entries already
made there to their live keys once.  States with one such live key have
the same verdict and the same moves, up to expired facts, so a reaction
whose walk differs from the one it replaces only in expired facts shares
that walk's entries and the outputs are those of exact keys.  Before that
update every key is exact and the table is not built: queries whose window
holds no update, and every query with b = 0.  A winning entry links the
successor's entry and keeps the state it was recorded at, so keys serve
lookups alone and no entry changes when keys turn live.  `trace` looks up
its root's entry once and follows the links.  From the first entry it
follows that was recorded at a different state, each step is the recorded
move from the trace's own state, and its configuration is replayed when the
step's result is first read (`specs.TraceStep`).  Those states lie past the
deadline, where a witness reads no configuration, so a witness replays
none of them; any reader that asks gets the real one.  A key omits the
remaining path length, which is sound because the search's one cutoff, its
path bound, cannot fire in a progressing scenario; reaching it raises
`EngineError`.  A configuration's hash is its multiset hash, which each move
updates from the facts it changes, so a memo probe costs one Python call
however many facts the configuration holds.

Any other scenario is decided at n = 0 alone: goal reachability within the
path bound L, where instantaneous moves may revisit a state.  A state is
good with r steps left exactly when its goal distance, the fewest moves to
a goal state, is at most r, so the engine computes goal distances over the
states within L, each explored once, breadth first, with no memo entry.

Before it expands a state the engine asks the scenario's timed relaxation
(`relax.Relaxation`) whether a goal state is reachable from it by the
horizon: at decision roots (the query root and each update's result) and,
depth first, at the results of system moves whose rule changes a predicate
the relaxation reads, and only while at least two ticks are left, where a
call costs less than the search it can save.  The relaxation is sound, so a
refuted state reaches no goal state and calls no update coverage check: the
recorded moves, witnesses and refutation chains are those of the search
without it.  A checker stores the refutations, keyed on the time-free
signature of `Relaxation.project`, and one answers for every state it
dominates: same signature, clock and earliest timestamps no earlier.  The
relaxation is monotone in those (see `relax`), so outputs do not change.
The store serves one query and one horizon; nothing is kept across queries.

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
            yield inst, apply_instance(config, inst)
    if advance:
        yield TICK_STEP, tick(config)


def horizon_at(start: int, budget: int) -> int:
    """The global time `budget` ticks after `start`: the last one a query
    from `start` reaches.  A budget past the timestamp range is refused."""
    if start + budget > MAX_TIMESTAMP:
        raise EngineError("tick budget overflows the timestamp range")
    return start + budget


@dataclass
class SearchStats:
    visited: int = 0  # states decided depth first or explored breadth first


class Checker:
    """Decision procedure for one (a, b) query, plus the walk that rebuilds
    the trace certifying a good state: memoized depth-first search that
    records the move proving each good state in a progressing scenario,
    goal distances in any other."""

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
        self.horizon = horizon_at(scenario.initial.global_time, a + b)
        self.m = len(scenario.initial)
        self.progressing = scenario.progressing
        # (configuration, n) -> False, True (a goal state), or the winning
        # move as (annotation, successor, the successor's entry, the state it
        # was recorded at); keys serve lookups alone
        self.memo: dict[tuple[Configuration, int], Union[bool, tuple]] = {}
        # the scenario's expiry table once the first update is applied with
        # states past the deadline ahead; None before
        self.expiry: Optional[dict[str, int]] = None
        # otherwise each explored state's kept moves, and goal distances
        self.moves: dict[Configuration, list[tuple]] = {}
        self.distance: dict[Configuration, int] = {}
        self.refutation: tuple[str, ...] = ()
        # relaxation signature -> (clock, earliest times) of refuted states
        self.refuted: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}

    def _depth_limit(self, config: Configuration) -> int:
        return (self.horizon - config.global_time + 1) * self.m

    def admits_updates(self, config: Configuration, n: int) -> bool:
        """Updates are admitted while some are left and the clock is at or
        before the deadline."""
        return n > 0 and config.global_time <= self.deadline

    def _key(self, config: Configuration, n: int) -> tuple[Configuration, int]:
        """The memo key of `config` with n updates left: (config, n), or,
        once keys are live, (config without its expired facts, 0) past the
        deadline, where no update is admitted and no move or specification
        reads those facts (`PlanningScenario.expiry`)."""
        if self.expiry is None or config.global_time <= self.deadline:
            return (config, n)
        return (config.without_older(self.expiry), 0)

    def _go_live(self) -> None:
        """Key states past the deadline on their live facts from now on, and
        move the entries already made there to their live keys.  No value
        holds a key, so no value is read or rebuilt; where two entries share
        a live key the first one made keeps it."""
        self.expiry = expiry = self.scenario.expiry
        memo, deadline = self.memo, self.deadline
        for key in [key for key in memo if key[0].global_time > deadline]:
            memo.setdefault((key[0].without_older(expiry), 0), memo.pop(key))

    def _covered(self, config: Configuration, n: int) -> bool:
        """Every update applicable at an admitting state must lead to a state
        that is resilient one update level down.  On failure `refutation` is
        one chain: the defeating update, then what the inner decision left.
        The first update switches keys to live ones when some state can lie
        past the deadline (b > 0)."""
        if not self.admits_updates(config, n):
            return True
        updates = successors(config, self.scenario.update_rules, advance=False)
        for inst, updated in updates:
            if self.expiry is None and self.b:
                self._go_live()
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
        state and when `goal` is None.  Only goal states pay for update
        coverage: a state that cannot reach the goal runs no reaction search."""
        if goal is None or match_spec(goal, config) is None:
            return None
        return self._covered(config, n)

    def _dead(self, config: Configuration, rule: Optional[Rule] = None) -> bool:
        """Does the scenario's relaxation prove that no goal state is
        reachable from `config` by the horizon?  Asked while at least two
        ticks are left and, after a move by `rule`, only if that rule changes
        a predicate the relaxation reads.  A stored refutation dominating
        `config` answers without a call; a new refutation is stored."""
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

        Critical states are refuted before the memo is probed.  A scenario
        that is not progressing is decided at n = 0 alone, by goal distance
        (`_reaches_goal`).  Otherwise the search is depth first, and reaching
        its path bound raises `EngineError`.  No progressing path revisits a
        state, so that never happens and no on-stack check is needed.

        Every frame on the stack is neither critical nor a goal, and a tick
        changes only the clock, so a specification pair that does not read
        the clock cannot start matching after a tick: a frame's tick
        successor is checked against the pairs that mention `Time` alone
        (`ConfigSpec.clocked`).  The root and the results of updates and
        system moves are checked against every pair.

        A non-goal state that `_dead` refutes is bad without a search: the
        root is memoized as bad, a successor is a bad move without an entry.

        Precondition: n = 0 unless the scenario is progressing;
        `ResilienceQuery.check_root` refuses the queries that break it.
        """
        assert not n or self.progressing
        critical, goal = self.scenario.critical_spec, self.scenario.goal_spec
        if match_spec(critical, config) is not None:
            return False
        if not self.progressing:
            return self._reaches_goal(config)
        memo = self.memo
        key = self._key(config, n)
        verdict = memo.get(key)
        if verdict is not None:
            return bool(verdict)
        verdict = self._goal_verdict(config, n, goal)
        if verdict is None and self._dead(config):
            verdict = False
        if verdict is not None:
            memo[key] = verdict
            return verdict

        # frames: (annotation leading here, configuration, moves, memo key);
        # the time advance is offered while the clock is short of the horizon.
        # A frame's key is taken when it is pushed and stays its key: keys
        # turn live at an update, which is at or before the deadline, and so
        # is every frame below it on the stack.
        horizon, limit, deadline = self.horizon, self._depth_limit(config), self.deadline
        rules = self.scenario.system_rules
        every, after_tick = (critical, goal), (critical.clocked, goal.clocked)
        moves = successors(config, rules, advance=config.global_time < horizon)
        stack = [(None, config, moves, key)]
        pending: Union[None, bool, tuple] = None  # the last successor's entry
        last: tuple = ()  # that successor as (annotation, configuration)
        while stack:
            frame = stack[-1]
            _, cfg, moves, key = frame
            if pending:
                # a good successor proves the state iff its update points are covered
                verdict = self._covered(cfg, n) and (*last, pending, cfg)
            elif (move := next(moves, None)) is not None:
                annotation, cfg2 = last = move
                critical2, goal2 = after_tick if annotation is TICK_STEP else every
                if critical2 is not None and match_spec(critical2, cfg2) is not None:
                    continue
                if self.expiry is None or cfg2.global_time <= deadline:
                    key2 = (cfg2, n)
                else:
                    key2 = (cfg2.without_older(self.expiry), 0)
                pending = memo.get(key2)
                if pending is not None:
                    continue
                pending = self._goal_verdict(cfg2, n, goal2)
                if pending is not None:
                    memo[key2] = pending
                elif annotation is not TICK_STEP and self._dead(cfg2, annotation.rule):
                    pending = False  # a bad move, decided without a memo entry
                elif len(stack) == limit:
                    raise EngineError("memoized search reached its path bound")
                else:
                    moves = successors(cfg2, rules, advance=cfg2.global_time < horizon)
                    stack.append((annotation, cfg2, moves, key2))
                continue
            else:
                verdict = False
            memo[key] = verdict
            stack.pop()
            last, pending = frame[:2], verdict
        return bool(verdict)

    def _reaches_goal(self, root: Configuration) -> bool:
        """Is a goal state within the path bound L of `root`, a non-critical
        state of a non-progressing scenario, through non-critical states?

        Explores the states within L breadth first, each once, keeping each
        expanded state's non-critical moves in `successors` order (checked
        as in `decide`); goal states are not expanded.  Goal distances then
        run backward from the goal states.  A path of k <= L - d steps from
        a state at depth d stays within L, so a distance is exact up to the
        steps left, and the root's is the depth of the nearest goal state."""
        critical, goal = self.scenario.critical_spec, self.scenario.goal_spec
        every, after_tick = (critical, goal), (critical.clocked, goal.clocked)
        horizon, rules = self.horizon, self.scenario.system_rules
        self.moves = moves = {root: []}
        self.distance = distance = {}
        if match_spec(goal, root) is not None:
            distance[root] = 0
            return True
        if self._dead(root):
            return False
        before: dict[Configuration, list[Configuration]] = {}
        level, depth, limit = [root], 0, self._depth_limit(root)
        while level and depth < limit:
            reached, depth = [], depth + 1
            for cfg in level:
                for move in successors(cfg, rules, advance=cfg.global_time < horizon):
                    annotation, cfg2 = move
                    critical2, goal2 = after_tick if annotation is TICK_STEP else every
                    if critical2 is not None and match_spec(critical2, cfg2) is not None:
                        continue
                    moves[cfg].append(move)
                    before.setdefault(cfg2, []).append(cfg)
                    if cfg2 in moves:
                        continue
                    moves[cfg2] = []
                    if goal2 is not None and match_spec(goal2, cfg2) is not None:
                        distance[cfg2] = 0
                    else:
                        reached.append(cfg2)
            level = reached
        level, depth = list(distance), 0
        while level:
            reached, depth = [], depth + 1
            for cfg2 in level:
                for cfg in before.get(cfg2, ()):
                    if cfg not in distance:
                        distance[cfg] = depth
                        reached.append(cfg)
            level = reached
        return root in distance

    def trace(self, config: Configuration, n: int) -> Trace:
        """The trace certified by `decide(config, n)`, which must hold: from
        the memo entry of `config`, the recorded winning moves, the leftmost
        decide-approved ones in search order, each entry followed by the
        successor's entry it links.  From the first entry recorded at
        another state with the same live key on, a step does not take the
        recorded successor: it holds the recorded move, and its result is
        replayed from this trace's own state when first read
        (`specs.TraceStep`).  Without a memo it takes, with r steps left, the
        leftmost kept move to a state at goal distance below r, the move a
        search keyed on (state, steps left) records."""
        steps: list[TraceStep] = []
        state, left, distance = config, self._depth_limit(config), self.distance
        progressing = self.progressing
        after: Union[None, Configuration, TraceStep] = None  # a deferred tail's last link
        entry = self.memo.get(self._key(config, n)) if progressing else None
        while True:
            if not progressing:
                # True at a goal state; a state without a distance reaches none
                kept = self.moves.get(state, ())
                entry = distance.get(state) == 0 or next(
                    (m for m in kept if distance.get(m[1], left) < left), None
                )
            if entry is True:
                return Trace(config, tuple(steps))
            if not isinstance(entry, tuple):
                raise EngineError("witness reconstruction lost the certified path")
            annotation, result = entry[0], entry[1]
            if progressing:
                recorded, entry = entry[3], entry[2]
                if after is None and recorded is not state and recorded != state:
                    # recorded at a state with other expired facts: from here
                    # on each step is the recorded move from this trace's
                    # state, replayed when its result is first read
                    after = state
                if after is not None:
                    after = TraceStep(annotation, after=after)
                    steps.append(after)
                    continue
            steps.append(TraceStep(annotation, result))
            state, left = result, left - 1


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
    checker = Checker(scenario, tick_budget, 0)
    found = checker.decide(scenario.initial, 0)
    if stats is not None:
        stats.visited += len(checker.memo) + len(checker.moves)
    if not found:
        return None
    trace = checker.trace(scenario.initial, 0)
    # between consecutive time advances at most m instantaneous steps occur
    if checker.progressing and max(instantaneous_run_lengths(trace)) > checker.m:
        raise EngineError(
            "progressing bound violated: more than m instantaneous "
            "steps between consecutive time advances"
        )
    return trace


def instantaneous_run_lengths(trace: Trace) -> list[int]:
    """Lengths of the instantaneous-step runs between time advances."""
    runs = [0]
    for step in trace.steps:
        if step.is_tick:
            runs.append(0)
        else:
            runs[-1] += 1
    return runs
