from __future__ import annotations

import pytest

from conftest import (
    explored_states,
    random_scenario,
    reference_goal_trace,
    trace_annotations,
    travel_with_start,
)
from msrplan.reductions import Qbf, qbf_to_scenario
from msrplan.rules import EngineError, tick
from msrplan.scenario import PlanningScenario, parse_scenario
from msrplan.search import (
    Checker,
    SearchStats,
    StateKey,
    find_compliant_goal_trace,
    instantaneous_run_lengths,
    successors,
)
from msrplan.specs import check_compliance, match_spec, replay_errors


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
        assert [s.label for s in trace.steps] == ["assign_e_1", "pos_elim_1_1"]

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
        # keys carry the remaining path length
        assert all(key.remaining is not None for key in checker.memo)
        trace = find_compliant_goal_trace(scenario, 2)
        assert trace_annotations(trace) == reference_goal_trace(scenario, 2)

    # the leftmost traces of seeds 448 and 533 revisit a configuration; a key
    # without the remaining path length would cut the revisit as a cycle
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
    moves revisits a state on the stack; the search keeps expanding it until
    the path bound, which refutes it with exact keys and raises with memo
    keys."""

    @pytest.mark.parametrize("text, a", [(CYCLE, 1), (CHAIN, 0)], ids=["cycle", "path bound"])
    def test_memo_cutoff_is_an_error(self, monkeypatch, text, a):
        scenario = parse_scenario(text, "cutoff")
        assert not scenario.progressing
        # exact keys carry the remaining path length: the cutoff is a verdict
        assert Checker(scenario, a, 0).decide(scenario.initial, 0) is False
        # memo keys do not, so there the same cutoff is an error
        monkeypatch.setattr(PlanningScenario, "progressing", True)
        with pytest.raises(EngineError, match="reached its path bound"):
            Checker(scenario, a, 0).decide(scenario.initial, 0)


class TestStateKey:
    """A memo key holds a configuration's non-`Time` tuple and its clock, so
    configurations that differ only in their clock, such as a state and its
    tick successor, never share a key or a memo entry."""

    def test_the_clock_tells_keys_apart(self, travel):
        for config in explored_states(travel, 40):
            key, later = StateKey(config, 1, None), StateKey(tick(config), 1, None)
            assert later.facts is key.facts and later.time == key.time + 1
            assert later != key
            later._hash = key._hash  # a hash collision: equality decides
            assert later != key and len({key: 1, later: 2}) == 2

    def test_tick_successors_get_their_own_entries(self, travel):
        checker = Checker(travel_with_start(travel, 60), 12, 220)
        assert checker.decide(checker.scenario.initial, 1)
        times: dict[tuple, set] = {}
        for key in checker.memo:
            times.setdefault((key.facts, key.n), set()).add(key.time)
        assert sum(len(t) for t in times.values()) == len(checker.memo)
        assert sum(len(t) > 1 for t in times.values()) > 100
