from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace

import pytest

from conftest import (
    explored_states,
    random_scenario,
    random_spec,
    reference_goal_trace,
    trace_annotations,
    travel_with_start,
)
from msrplan import specs
from msrplan.kernel import Configuration, TimedFact
from msrplan.reductions import Qbf, qbf_to_scenario
from msrplan.relax import Relaxation
from msrplan.resilience import (
    ResilienceQuery,
    _build_witness,
    check_resilience,
    verify_witness,
    witness_to_json,
)
from msrplan.rules import EngineError, tick
from msrplan.scenario import AT_ONCE, PlanningScenario, parse_scenario
from msrplan.search import (
    Checker,
    SearchStats,
    find_compliant_goal_trace,
    instantaneous_run_lengths,
    successors,
)
from msrplan.specs import (
    ConfigSpec,
    SpecKind,
    Trace,
    TraceStep,
    check_compliance,
    match_spec,
    replay_errors,
)
from reference import reapply
from test_resilience import PERIODIC, PERIODIC_CASES, TRAVEL_STARTS


class TestSuccessors:
    def test_blocked_departure_leaves_only_tick(self, worked_example):
        moves = list(successors(worked_example.initial, worked_example.system_rules))
        assert [m[0] for m in moves] == ["Tick"]

    def test_departure_moment_offers_instance_then_tick(self, worked_example):
        config = worked_example.initial
        for _ in range(43):
            config = tick(config)
        moves = list(successors(config, worked_example.system_rules))
        labels = [m[0] if isinstance(m[0], str) else m[0].rule.name for m in moves]
        assert labels == ["board", "Tick"]

    def test_generated_initial_state_offers_one_rule_family(self):
        q = Qbf((("e", (1, 2)), ("a", (3,)), ("e", (4,))), ((1, 3, 4),))
        scenario = qbf_to_scenario(q)
        moves = list(successors(scenario.initial, scenario.system_rules))
        labels = [m[0] if isinstance(m[0], str) else m[0].rule.name for m in moves]
        # one instance per assignment to the first block, then the time advance
        assert labels == ["assign_e_1"] * 4 + ["Tick"]

    def test_updates_exclude_tick(self, travel):
        moves = list(successors(travel.initial, travel.update_rules, advance=False))
        assert all(not isinstance(m[0], str) for m in moves)

    def test_deterministic_order(self, travel):
        first = list(successors(travel.initial, travel.rules()))
        second = list(successors(travel.initial, travel.rules()))
        keys = lambda ms: [
            m[0] if isinstance(m[0], str) else m[0].key() for m in ms
        ]
        assert keys(first) == keys(second)


class TestGoalSearch:
    def test_satisfiable_instance_two_steps_no_ticks(self):
        q = Qbf((("e", (1,)),), ((1, 1, 1),))
        trace = find_compliant_goal_trace(qbf_to_scenario(q), 0)
        assert trace is not None
        assert len(trace) == 2
        assert trace.tick_count() == 0
        assert [s.instance.rule.name for s in trace.steps] == ["assign_e_1", "pos_elim_1_1"]

    def test_unsatisfiable_core_has_no_trace(self):
        q = Qbf((("e", (1,)),), ((1, 1, 1), (-1, -1, -1)))
        scenario = qbf_to_scenario(q)
        for budget in (0, 2, 5):
            assert find_compliant_goal_trace(scenario, budget) is None

    def test_late_start_has_no_trace(self, travel):
        # past the last boardable flight
        late = travel_with_start(travel, 121)
        assert find_compliant_goal_trace(late, 232) is None

    def test_budget_is_enforced(self, minimal):
        assert find_compliant_goal_trace(minimal, 0) is None
        trace = find_compliant_goal_trace(minimal, 1)
        assert trace is not None and trace.tick_count() == 1

    def test_negative_budget_rejected(self, minimal):
        with pytest.raises(EngineError):
            find_compliant_goal_trace(minimal, -1)

    def test_memo_requires_progressing(self):
        scenario = random_scenario(3, progressing=False)
        assert not scenario.progressing
        checker = Checker(scenario, 2, 0)
        checker.decide(scenario.initial, 0)
        # decided by goal distance over the explored states, without a memo
        assert not checker.memo and checker.moves
        trace = find_compliant_goal_trace(scenario, 2)
        assert trace_annotations(trace) == reference_goal_trace(scenario, 2)

    # the leftmost traces of seeds 448 and 533 revisit a configuration, which
    # the walk along goal distances must reproduce
    @pytest.mark.parametrize("seed", [*range(40), 448, 533])
    def test_exact_keys_match_unmemoized_reference(self, seed):
        scenario = random_scenario(seed, progressing=False)
        assert not scenario.progressing
        for budget in range(3):
            trace = find_compliant_goal_trace(scenario, budget)
            assert trace_annotations(trace) == reference_goal_trace(scenario, budget)
            if trace is None:
                continue
            assert trace.initial == scenario.initial
            assert not replay_errors(trace)
            assert check_compliance(trace, scenario.critical_spec).ok
            assert match_spec(scenario.goal_spec, trace.final) is not None
            assert trace.tick_count() <= budget

    def test_returned_traces_satisfy_invariants(self, travel):
        trace = find_compliant_goal_trace(travel, 280)
        assert trace is not None
        assert not replay_errors(trace)
        assert check_compliance(trace, travel.critical_spec).ok
        assert match_spec(travel.goal_spec, trace.final) is not None
        m = len(travel.initial)
        assert all(run <= m for run in instantaneous_run_lengths(trace))
        assert len(trace) <= (280 + 1) * m

    def test_memoization_agreement_sample(self):
        for seed in range(30):
            scenario = random_scenario(seed, progressing=True)
            trace = find_compliant_goal_trace(scenario, 3)
            assert trace_annotations(trace) == reference_goal_trace(scenario, 3), seed

    def test_stats_reported(self, minimal):
        stats = SearchStats()
        find_compliant_goal_trace(minimal, 1, stats=stats)
        assert stats.visited > 0
        # a non-progressing search counts the states it explored breadth first
        scenario = random_scenario(533, progressing=False)
        stats = SearchStats()
        assert find_compliant_goal_trace(scenario, 3, stats=stats) is not None
        checker = Checker(scenario, 3, 0)
        assert checker.decide(scenario.initial, 0)
        assert stats.visited == len(checker.moves) > 1


# Two instantaneous rules that undo each other: the search returns to the
# initial configuration without a time advance, so the scenario is not
# progressing.
CYCLE = """
predicates P: system, Q: system, Done: goal, Halt: critical;
init { Time@0, P@0, Halt@0 }
rule system fwd { consume: P@T1; create: Q@T; guard: T1 <= T; }
rule system back { consume: Q@T1; create: P@T; guard: T1 <= T; }
goal { Done@T1 }
critical { Time@T, Halt@T1 | T < T1 }
"""

# A -> B -> C -> D within one instant, m = 3: at a = 0, b = 0 the path bound
# (a + b + 1) * m = 3 holds the configurations A, B and C on the search stack,
# so the fourth one, D, lies past it.
CHAIN = """
predicates A: system, B: system, C: system, D: system, Done: goal,
           Halt: critical;
init { Time@0, A@0, Halt@0 }
rule system ab { consume: A@T1; create: B@T; guard: T1 <= T; }
rule system bc { consume: B@T1; create: C@T; guard: T1 <= T; }
rule system cd { consume: C@T1; create: D@T; guard: T1 <= T; }
goal { Done@T1 }
critical { Time@T, Halt@T1 | T < T1 }
"""


class TestCutoffs:
    """The path bound is the search's one cutoff.  A cycle of instantaneous
    moves revisits a state on the stack; the depth-first search keeps
    expanding it until the path bound, which raises.  Goal distances decide
    the same scenarios, since each state is explored once."""

    @pytest.mark.parametrize("text, a", [(CYCLE, 1), (CHAIN, 0)], ids=["cycle", "path bound"])
    def test_memo_cutoff_is_an_error(self, monkeypatch, text, a):
        scenario = parse_scenario(text, "cutoff")
        assert not scenario.progressing
        # goal distances: no goal state within the path bound
        assert Checker(scenario, a, 0).decide(scenario.initial, 0) is False
        # the depth-first search memoizes without the remaining path length,
        # so there the same cutoff is an error
        monkeypatch.setattr(PlanningScenario, "progressing", True)
        with pytest.raises(EngineError, match="reached its path bound"):
            Checker(scenario, a, 0).decide(scenario.initial, 0)


class TestStateKey:
    """A memo key is (configuration, n).  A configuration's hash and equality
    read its clock, so a state and its tick successor, which share their
    non-`Time` fact tuple, never share a key or a memo entry."""

    def test_the_clock_tells_keys_apart(self, travel):
        for config in explored_states(travel, 40):
            later = tick(config)
            assert later._facts is config._facts
            assert later.global_time == config.global_time + 1
            key, later_key = (config, 1), (later, 1)
            assert later_key != key
            Configuration._hash.__set__(later, config._hash)  # a hash collision
            assert hash(later_key) == hash(key)
            assert later_key != key and len({key: 1, later_key: 2}) == 2

    def test_tick_successors_get_their_own_entries(self, travel):
        checker = Checker(travel_with_start(travel, 60), 12, 220)
        assert checker.decide(checker.scenario.initial, 1)
        times: dict[tuple, set] = {}
        for config, n in checker.memo:
            times.setdefault((config._facts, n), set()).add(config.global_time)
        assert sum(len(t) for t in times.values()) == len(checker.memo)
        assert sum(len(t) > 1 for t in times.values()) > 100


class TestGoalDistance:
    """A non-progressing scenario is decided by goal distance over the states
    within the path bound, each explored once."""

    def test_traces_equal_the_exact_key_search(self):
        """Taken from the depth-first search that keyed states on the
        remaining path length too: the annotations of 620 goal searches."""
        lines = []
        for seed in [*range(60), 448, 533]:
            for updates in (False, True):
                scenario = random_scenario(seed, progressing=False, with_updates=updates)
                assert not scenario.progressing
                for budget in range(5):
                    trace = find_compliant_goal_trace(scenario, budget)
                    lines.append(json.dumps(trace_annotations(trace)))
        assert sum(line != "null" for line in lines) == 295
        text = "\n".join(lines) + "\n"
        assert len(text) == 12820
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "c7f14098ac882f729b41b45f12f9ccf74618e7fc2da3caf764687dea048d8364"
        )

    def test_each_state_is_explored_once(self, monkeypatch):
        """Seed 14 with a random goal and no critical specification, the
        relaxation answering "possible": 160 decisions over 40 roots and
        horizons t+2..t+5.  Their states number 5,055; the search keyed on
        the remaining path length made 141,888 memo entries."""
        monkeypatch.setattr(Relaxation, "possible", lambda self, config, horizon: True)
        scenario = random_scenario(14, progressing=False, with_updates=True)
        free = replace(
            scenario,
            goal_spec=random_spec(random.Random(14), SpecKind.GOAL),
            critical_spec=ConfigSpec(SpecKind.CRITICAL, ()),
        )
        assert not free.progressing
        stats = SearchStats()
        verdicts = [
            find_compliant_goal_trace(free.with_initial(config), budget, stats=stats)
            for config in explored_states(scenario, 40)
            for budget in range(2, 6)
        ]
        assert verdicts == [None] * 160
        assert stats.visited <= 5_055


# `P` is read by the system rule `go` at the global time, and by the update
# `bump` up to five ticks later.
LATE_READER = """
predicates P: system, Q: system, Done: goal, Halt: critical;
init { Time@0, P@0, Halt@9 }
rule system go { consume: P@T1; create: Q@T+1; guard: T1 = T; }
rule system_update bump { consume: P@T1; create: P@T+1; guard: T1 + 5 >= T, T1 <= T; }
goal { Done@T1 }
critical { Time@T, Halt@T }
"""

# `mint` creates `Token(k)` for a fresh constant k.
FRESH = """
types key;
predicates Seed: system, Token(key): system, Done: goal, Halt: critical;
init { Time@0, Seed@0, Halt@9 }
rule system mint { consume: Seed@T1; create: Token(k)@T+1; guard: T1 = T; }
goal { Done@T1 }
critical { Time@T, Halt@T }
"""


class TestExpiryTable:
    """`PlanningScenario.expiry`: the most each predicate's facts can lag
    behind the global time and still be read."""

    def test_travel(self, travel):
        # boarding and delaying read a flight at its departure, the deadline
        # is critical only at its instant; every other predicate is read
        # without a lower bound or by a goal pair without a clock
        assert travel.expiry == {"Flight1": 0, "Flight2": 0, "Deadline": 0}

    def test_periodic(self):
        # `Halt@T1 | T < T1` reads a fact only before its time, and `spend`
        # creates `Used`, which nothing reads
        scenario = parse_scenario(PERIODIC, "periodic")
        assert scenario.expiry == {"Halt": -1, "Used": AT_ONCE}

    def test_update_rules_read_too(self):
        scenario = parse_scenario(LATE_READER, "late")
        assert scenario.expiry == {"P": 5, "Q": AT_ONCE, "Halt": 0}

    def test_fresh_variables_empty_the_table(self):
        scenario = parse_scenario(FRESH, "fresh")
        assert scenario.system_rules[0].fresh
        assert scenario.expiry == {}

    def test_built_only_when_needed(self, travel):
        """Only a query whose window holds an update with states past the
        deadline ahead builds the table."""
        for t0, n, a, b, built in [
            (60, 2, 12, 220, False),  # no flight departs in the window
            (42, 0, 12, 220, False),
            (42, 1, 12, 0, False),  # b = 0: nothing lies past the deadline
            (42, 1, 12, 220, True),
        ]:
            scenario = travel_with_start(travel, t0)
            checker = Checker(scenario, a, b)
            checker.decide(scenario.initial, n)
            assert ("expiry" in scenario.__dict__) is built, (t0, n, a, b)
            assert (checker.expiry is not None) is built


def _outcome(scenario: PlanningScenario, query: ResilienceQuery) -> tuple:
    """A query's verdict, witness JSON and refutation lines."""
    result = check_resilience(scenario, query)
    witness = witness_to_json(result.witness) if result.resilient else None
    return result.resilient, witness, result.refutation


def _nodes(witness):
    yield witness
    for _, _, sub in witness.children:
        yield from _nodes(sub)


@pytest.fixture
def full_keys(monkeypatch):
    """Empties every scenario's expiry table, once called: states past the
    deadline are then keyed on all their facts."""
    return lambda: monkeypatch.setattr(PlanningScenario, "expiry", property(lambda self: {}))


class TestLiveKeys:
    """Past the deadline, after the first update, states are keyed on their
    live facts with n read as 0.  Equal keys have the same verdicts and the
    same moves, so every output equals that of keys on all facts."""

    def test_travel_outputs_equal_full_keys(self, travel, full_keys):
        cases = [
            (travel_with_start(travel, t0), ResilienceQuery(n, a, b))
            for t0 in TRAVEL_STARTS
            for n in (0, 1, 2)
            for a, b in ((12, 220), (30, 200), (5, 240))
        ]
        merged = [_outcome(scenario, query) for scenario, query in cases]
        assert {verdict for verdict, _, _ in merged} == {True, False}
        full_keys()
        assert [_outcome(scenario, query) for scenario, query in cases] == merged

    def test_random_outputs_equal_full_keys(self, full_keys):
        """The queries of seeded random scenarios that apply an update with
        states past the deadline ahead."""
        cases = []
        for seed in range(150):
            scenario = random_scenario(seed, progressing=True, with_updates=True)
            for n, a, b in itertools.product((1, 2), (1, 2, 3), (1, 2, 3)):
                checker = Checker(scenario, a, b)
                checker.decide(scenario.initial, n)
                if checker.expiry is not None:
                    cases.append((scenario, ResilienceQuery(n, a, b)))
        assert len(cases) >= 150
        merged = [_outcome(scenario, query) for scenario, query in cases]
        full_keys()
        assert [_outcome(scenario, query) for scenario, query in cases] == merged

    def test_traces_hold_the_real_configurations(self, travel):
        """Reactions at start 42 follow entries recorded at other states; the
        trace rebuilds each move there, so every step replays."""
        scenario = travel_with_start(travel, 42)
        query = ResilienceQuery(2, 12, 220)
        checker = Checker(scenario, query.a, query.b)
        assert checker.decide(scenario.initial, query.n)
        recorded = [
            key
            for key, entry in checker.memo.items()
            if isinstance(entry, tuple) and entry[3] is not key[0]
        ]
        assert len(recorded) > 100
        result = check_resilience(scenario, query)
        nodes = list(_nodes(result.witness))
        assert len(nodes) == 13
        for node in nodes:
            assert not replay_errors(node.trace)
            configs = list(node.trace.configurations())
            for index, inst, sub in node.children:
                assert sub.trace.initial == reapply(inst, configs[index])
        assert verify_witness(scenario, query, result.witness) == (True, [])

    def test_entries_certify_every_state_they_share(self, travel):
        """A good entry past the deadline answers for every state with its
        key: from the state it was recorded at and from the key's own
        configuration, which holds no expired fact, the trace replays and
        ends in a goal state."""
        periodic = parse_scenario(PERIODIC, "periodic")
        cases = [(periodic, 1, 4, 3, 1), (periodic, 2, 4, 3, 1)]
        cases.append((travel_with_start(travel, 108), 1, 12, 220, 8))
        traced = recorded = 0
        for scenario, n, a, b, every in cases:
            checker = Checker(scenario, a, b)
            checker.decide(scenario.initial, n)
            good = [
                (key[0], entry)
                for key, entry in checker.memo.items()
                if key[0].global_time > checker.deadline and isinstance(entry, tuple)
            ]
            for live, entry in good[::every]:
                assert live.without_older(checker.expiry) is live
                recorded += entry[3] is not live
                for config in (live,) if entry[3] is live else (live, entry[3]):
                    trace = checker.trace(config, 0)
                    assert trace.initial is config
                    assert not replay_errors(trace)
                    assert match_spec(scenario.goal_spec, trace.final) is not None
                    traced += 1
        assert recorded > 40 and traced > 80

    def test_switch_rekeys_successor_keys(self, full_keys):
        """Regression: an entry made before the first update held its
        successor's key from before the switch, and the trace of PERIODIC at
        (1,3,3) lost the certified path."""
        scenario = parse_scenario(PERIODIC, "periodic")
        query = ResilienceQuery(1, 3, 3)
        merged = _outcome(scenario, query)
        assert merged[0]
        assert verify_witness(scenario, query, json.loads(merged[1])) == (True, [])
        full_keys()
        assert _outcome(scenario, query) == merged


class _CountingMemo(dict):
    """A memo that counts its `get` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class TestLinkedMemo:
    """A winning entry is (move, successor, the successor's entry, the state
    it was recorded at): it links the entry that proved its successor, so no
    entry holds a memo key, switching keys live moves entries without
    touching one, and `trace` probes the memo once."""

    def test_winning_entries_link_winning_entries(self, travel):
        winning = 0
        for t0 in TRAVEL_STARTS:
            scenario = travel_with_start(travel, t0)
            for n in (0, 1, 2):
                checker = Checker(scenario, 12, 220)
                checker.decide(scenario.initial, n)
                for entry in checker.memo.values():
                    if entry is True or entry is False:
                        continue
                    winning += 1
                    assert type(entry) is tuple and len(entry) == 4
                    link = entry[2]
                    assert link is True or (type(link) is tuple and len(link) == 4)
        assert winning > 1000

    def test_switch_moves_entries_untouched(self, travel, monkeypatch):
        """Each entry before the switch is the value at its live key after
        it, unless an earlier entry took that key; nothing else is stored."""
        switches = []
        go_live = Checker._go_live

        def checked(self):
            before = list(self.memo.items())
            go_live(self)
            kept = {}
            for key, entry in before:
                kept.setdefault(self._key(*key), entry)
            assert len(self.memo) == len(kept)
            assert all(self.memo[key] is entry for key, entry in kept.items())
            switches.append(len(before))

        monkeypatch.setattr(Checker, "_go_live", checked)
        for t0 in TRAVEL_STARTS:
            scenario = travel_with_start(travel, t0)
            for n in (1, 2):
                Checker(scenario, 12, 220).decide(scenario.initial, n)
        periodic = parse_scenario(PERIODIC, "periodic")
        for n, a, b in PERIODIC_CASES:
            Checker(periodic, a, b).decide(periodic.initial, n)
        assert len(switches) >= 6 and sum(switches) > 1000

    def test_trace_probes_the_memo_once(self, travel):
        scenario = travel_with_start(travel, 42)
        checker = Checker(scenario, 12, 220)
        assert checker.decide(scenario.initial, 2)
        checker.memo = memo = _CountingMemo(checker.memo)
        trace = checker.trace(scenario.initial, 2)
        assert memo.gets == 1 and len(trace.steps) > 100
        # one trace per distinct (state, n): 11 of the witness's 13 nodes,
        # two subtrees being shared
        memo.gets, built = 0, {}
        witness = _build_witness(checker, scenario.initial, 2, built)
        assert len(list(_nodes(witness))) == 13
        assert memo.gets == len(built) == 11


def _deferred(trace: Trace) -> int:
    """The steps of `trace` whose configuration has not been replayed yet."""
    return sum(step._result is None for step in trace.steps)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDeferredTail:
    """From the first entry recorded at another state, a trace's steps hold
    their moves, and each step's configuration is replayed when it is first
    read.  A witness reads none of them."""

    def _witness(self, travel, n: int):
        scenario = travel_with_start(travel, 42)
        return check_resilience(scenario, ResilienceQuery(n, 12, 220)).witness

    def test_witness_replays_no_tail(self, travel, monkeypatch):
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(specs, "tick", counted(specs.tick))
        monkeypatch.setattr(specs, "apply_instance", counted(specs.apply_instance))
        witness = self._witness(travel, 2)
        witness_to_json(witness)
        traces = list({id(node.trace): node.trace for node in _nodes(witness)}.values())
        deferred = sum(map(_deferred, traces))
        assert calls[0] == 0 and deferred >= 3000
        for trace in traces:
            for step in trace.steps:
                step.result
        assert calls[0] == deferred and not any(map(_deferred, traces))
        for node in _nodes(witness):
            assert not replay_errors(node.trace)

    @pytest.mark.parametrize("n", [1, 2])
    def test_deferred_traces_equal_eager_ones(self, travel, n):
        """Each reader, the first to read a fresh witness, gets what it gets
        from the same traces built with every configuration in place."""
        eager = [
            Trace(trace.initial, tuple(TraceStep(s.instance, s.result) for s in trace.steps))
            for trace in (node.trace for node in _nodes(self._witness(travel, n)))
        ]
        assert all(not replay_errors(trace) for trace in eager)
        readers = (
            lambda trace: trace,
            hash,
            Trace.format_lines,
            lambda trace: trace.final,
            Trace.tick_count,
            lambda trace: [s.result for s in reversed(trace.steps)] + [trace.initial],
        )
        for read in readers:
            deferred = [node.trace for node in _nodes(self._witness(travel, n))]
            assert sum(map(_deferred, deferred)) > 1000
            assert [read(trace) for trace in deferred] == [read(trace) for trace in eager]

    def test_last_step_first_without_recursion(self, travel):
        traces = [node.trace for node in _nodes(self._witness(travel, 2))]
        longest = max(traces, key=_deferred)
        tail = _deferred(longest)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            assert sys.getrecursionlimit() < tail
            final = longest.steps[-1].result
        finally:
            sys.setrecursionlimit(limit)
        assert not _deferred(longest) and final is longest.final
        assert not replay_errors(longest)


class TestUnmatchableFacts:
    """A metamorphic relation: a fact no pattern can ever match changes no
    verdict, witness byte or refutation line, and every configuration of a
    witness holds it."""

    def _check(self, base: PlanningScenario, extra: TimedFact, query: ResilienceQuery):
        more = base.with_initial(Configuration([*base.initial, extra]))
        want, got = _outcome(base, query), _outcome(more, query)
        assert got == want, query
        if got[0]:
            witness = check_resilience(more, query).witness
            assert verify_witness(more, query, witness) == (True, [])
            for node in _nodes(witness):
                assert all(config.counts().get(extra) == 1 for config in node.trace.configurations())
        return got[0]

    def test_departed_flight(self, travel):
        verdicts = set()
        for t0 in TRAVEL_STARTS:
            base = travel_with_start(travel, t0)
            flight = next(f for f in base.initial if f.pred == "Flight2")
            for n in (0, 1, 2):
                verdicts.add(self._check(base, flight.at(1), ResilienceQuery(n, 12, 220)))
        assert verdicts == {True, False}

    def test_unread_fact(self):
        base = parse_scenario(PERIODIC, "periodic")
        verdicts = {
            self._check(base, TimedFact("Used", (), 0), ResilienceQuery(*nab))
            for nab in PERIODIC_CASES
        }
        assert verdicts == {True, False}
