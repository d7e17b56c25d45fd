from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import importlib
import itertools
import random
import re
import runpy
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_spec_match,
    qbf_mix,
    random_scenario,
    reference_goal_trace,
    trace_annotations,
    travel_with_start,
)
from msrplan import certify, resilience, rules, search, specs
from msrplan.certify import parse_ground_term, witness_from_json, witness_to_dict
from msrplan.delta import abstract, delta_key
from msrplan.kernel import (
    MAX_TIMESTAMP, TIME_PREDICATE, Configuration, Constant, FreshConstant, TimedFact,
)
from msrplan.reductions import (
    Graph, Qbf, evaluate_qbf, graph_to_goal_instance, qbf_to_msr_text, qbf_to_scenario,
)
from msrplan.resilience import (
    ResilienceQuery,
    check_resilience,
    enumerate_update_points,
    verify_witness,
    witness_to_json,
)
from msrplan.rules import EngineError, MatchPlan, apply_instance
from msrplan.scenario import bundled_text, infer_dmax, parse_scenario
from msrplan.search import find_compliant_goal_trace
from msrplan.specs import TICK_STEP, Trace, TraceStep, match_spec, replay_errors

Q_GAME = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((1, 2, 3), (-1, -2, -3)))
Q_FALSE = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((2, 2, 2),))


class TestQueryValidation:
    def test_parameters_must_be_natural(self):
        with pytest.raises(EngineError):
            ResilienceQuery(-1, 1, 0)
        with pytest.raises(EngineError):
            ResilienceQuery(0, 1, -1)

    @pytest.mark.parametrize("nab", [(True, 12, 220), (0, 12.0, 220), (0, 12, False)])
    def test_parameters_must_be_exactly_integers(self, nab):
        """A bool or a float would reach the witness as `true` or `12.0`,
        which its own checker rejects: such a query is refused."""
        with pytest.raises(EngineError, match="resilience parameters must be natural numbers"):
            ResilienceQuery(*nab)
        with pytest.raises(EngineError, match="resilience parameters must be natural numbers"):
            dataclasses.replace(ResilienceQuery(1, 12, 220), n=nab[0], a=nab[1], b=nab[2])

    def test_top_level_window_must_be_positive(self, minimal):
        with pytest.raises(EngineError):
            check_resilience(minimal, ResilienceQuery(0, 0, 5))

    def test_verifier_refuses_a_root_window_below_one(self, minimal):
        """`verify_witness` refuses the root queries `check_resilience`
        refuses, and still reports the node's own query check."""
        witness = check_resilience(minimal, ResilienceQuery(0, 1, 5)).witness
        refused = "root: the disruption window a must be positive"
        for form in (witness, witness_to_dict(witness)):
            ok, violations = verify_witness(minimal, ResilienceQuery(0, 0, 5), form)
            assert not ok and violations[0] == refused
            assert violations[1].startswith("root: query mismatch: node says (0,1,5)")
        data = witness_to_dict(witness)
        data["query"]["a"] = 0
        ok, violations = verify_witness(minimal, ResilienceQuery(0, 0, 5), data)
        assert not ok and violations[0] == refused
        assert not any(v.startswith("root: query mismatch") for v in violations)

    def test_eta_cap_refusal(self):
        def with_critical_variables(count):
            pattern = ", ".join(f"Fuse@T{i}" for i in range(1, count + 1))
            text = bundled_text("minimal.msr").replace(
                "critical { Time@T, Fuse@T }", f"critical {{ {pattern} }}"
            )
            scenario = parse_scenario(text, "minimal")
            assert scenario.eta() == count
            return scenario

        # the cap is 6: six variables per pair are decided, seven refused
        check_resilience(with_critical_variables(6), ResilienceQuery(0, 1, 0))
        with pytest.raises(EngineError, match="7 variables per pair; cap is 6"):
            check_resilience(with_critical_variables(7), ResilienceQuery(0, 1, 0))

    def test_non_progressing_refused_for_positive_n(self):
        scenario = random_scenario(1, progressing=False)
        if scenario.progressing:
            pytest.skip("generator produced a progressing scenario")
        with pytest.raises(EngineError):
            check_resilience(scenario, ResilienceQuery(1, 1, 0))

    def test_non_progressing_base_case_falls_back(self):
        scenario = random_scenario(1, progressing=False)
        result = check_resilience(scenario, ResilienceQuery(0, 2, 1))
        expected = find_compliant_goal_trace(scenario, 3)
        assert result.resilient == (expected is not None)


class TestUpdatePoints:
    def test_generated_game_has_one_update_position(self):
        scenario = qbf_to_scenario(Q_GAME)
        result = check_resilience(scenario, ResilienceQuery(1, 1, 0))
        trace = result.witness.trace
        points = enumerate_update_points(scenario, trace, 1)
        # both universal assignments, exactly at the position after the first
        # existential move
        assert {(i, inst.rule.name) for i, inst, _ in points} == {
            (1, "assign_a_2"),
        } | {(1, "assign_a_2")}
        assert len(points) == 2
        assert sorted(str(inst.sigma["y1"]) for _, inst, _ in points) == [
            "false",
            "true",
        ]

    def test_no_points_when_guards_fail(self, minimal):
        trace = find_compliant_goal_trace(minimal, 1)
        assert enumerate_update_points(minimal, trace, 5) == []

    def test_travel_delay_points_within_window(self, travel):
        early = travel_with_start(travel, 45)
        result = check_resilience(early, ResilienceQuery(1, 12, 220))
        points = enumerate_update_points(early, result.witness.trace, 12)
        names = {inst.rule.name for _, inst, _ in points}
        assert names == {"delay_flight1", "delay_flight2"}
        t0 = early.initial.global_time
        configs = list(result.witness.trace.configurations())
        for i, inst, _ in points:
            assert configs[i].global_time - t0 <= 12

    def test_points_cover_initial_and_final_configurations(self):
        scenario = qbf_to_scenario(Q_GAME)
        result = check_resilience(scenario, ResilienceQuery(1, 1, 0))
        trace = result.witness.trace
        indices = {i for i, _, _ in enumerate_update_points(scenario, trace, 1)}
        assert indices <= set(range(len(trace.steps) + 1))


class TestCheckResilience:
    def test_true_formula_is_resilient(self):
        assert evaluate_qbf(Q_GAME) is True
        result = check_resilience(qbf_to_scenario(Q_GAME), ResilienceQuery(1, 1, 0))
        assert result.resilient
        assert result.witness is not None
        assert result.witness.query == ResilienceQuery(1, 1, 0)

    def test_false_formula_is_not_resilient(self):
        assert evaluate_qbf(Q_FALSE) is False
        result = check_resilience(qbf_to_scenario(Q_FALSE), ResilienceQuery(1, 1, 0))
        assert not result.resilient
        assert result.refutation
        assert "assign_a_2" in result.refutation[0]

    def test_refutation_names_the_window_left(self, travel):
        # the delay at t=120 falls on the deadline 108 + 12: no window is left
        late = travel_with_start(travel, 108)
        result = check_resilience(late, ResilienceQuery(1, 12, 220))
        assert not result.resilient
        assert result.refutation[0].endswith(
            "at t=120 admits no (0,0,220)-resilient reaction"
        )

    def test_refutation_is_one_chain(self):
        # one line per update level on the failing path: no stale lines left
        # by other failed branches, none repeated
        refuted = 0
        for q in qbf_mix():
            result = check_resilience(qbf_to_scenario(q), ResilienceQuery(q.n, 1, 0))
            if result.resilient or q.n == 0:
                continue
            refuted += 1
            lines = result.refutation
            assert 1 <= len(lines) <= q.n
            assert len(set(lines)) == len(lines)
        assert refuted >= 5

    def test_base_case_equals_goal_search(self, travel, minimal):
        cases = [minimal, travel_with_start(travel, 45), travel_with_start(travel, 121)]
        cases += [random_scenario(s, progressing=True) for s in range(8)]
        for scenario in cases:
            for a, b in [(1, 0), (2, 3)]:
                verdict = check_resilience(scenario, ResilienceQuery(0, a, b)).resilient
                trace = find_compliant_goal_trace(scenario, a + b)
                assert verdict == (trace is not None)

    def test_goal_spoiled_after_the_fact(self):
        # an update applicable at the final (goal) configuration must still be
        # covered: here the reaction exists, so the verdict stays positive
        scenario = qbf_to_scenario(Q_GAME)
        result = check_resilience(scenario, ResilienceQuery(1, 1, 0))
        final_index = len(result.witness.trace.steps)
        points = enumerate_update_points(scenario, result.witness.trace, 1)
        assert all(i <= final_index for i, _, _ in points)


class TestMonotonicity:
    def test_in_updates_and_recovery(self, travel):
        rng = random.Random(4)
        corpus = [travel_with_start(travel, 45), travel_with_start(travel, 110)]
        for _ in range(6):
            blocks = (("e", (1,)), ("a", (2,)), ("e", (3,)))
            clauses = tuple(
                tuple(rng.choice([1, 2, 3]) * rng.choice((1, -1)) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            )
            corpus.append(qbf_to_scenario(Qbf(blocks, clauses)))
        for scenario in corpus:
            if scenario.initial.global_time > 200:
                a, b = 12, 220
            else:
                a, b = 1, 0
            if check_resilience(scenario, ResilienceQuery(1, a, b)).resilient:
                assert check_resilience(scenario, ResilienceQuery(0, a, b)).resilient
                assert check_resilience(scenario, ResilienceQuery(1, a, b + 5)).resilient


class TestWitnesses:
    def test_emitted_witnesses_verify(self, minimal, travel):
        cases = [
            (minimal, ResilienceQuery(2, 3, 1)),
            (travel_with_start(travel, 45), ResilienceQuery(1, 12, 220)),
            (qbf_to_scenario(Q_GAME), ResilienceQuery(1, 1, 0)),
        ]
        for scenario, query in cases:
            result = check_resilience(scenario, query)
            assert result.resilient
            ok, violations = verify_witness(scenario, query, result.witness)
            assert ok, violations

    def test_json_round_trip_is_bit_exact(self):
        scenario = qbf_to_scenario(Q_GAME)
        result = check_resilience(scenario, ResilienceQuery(1, 1, 0))
        text = witness_to_json(result.witness)
        assert witness_to_json(witness_from_json(text)) == text
        ok, violations = verify_witness(
            scenario, ResilienceQuery(1, 1, 0), witness_from_json(text)
        )
        assert ok, violations

    def test_dropped_child_is_uncovered(self):
        scenario = qbf_to_scenario(Q_GAME)
        result = check_resilience(scenario, ResilienceQuery(1, 1, 0))
        data = witness_to_dict(result.witness)
        assert data["children"]
        mutated = copy.deepcopy(data)
        del mutated["children"][0]
        ok, violations = verify_witness(scenario, ResilienceQuery(1, 1, 0), mutated)
        assert not ok
        assert any("uncovered update point" in v for v in violations)

    def test_inflated_tick_count_is_rejected(self):
        scenario = qbf_to_scenario(Q_GAME)
        query = ResilienceQuery(1, 1, 0)
        result = check_resilience(scenario, query)
        mutated = witness_to_dict(result.witness)
        mutated = copy.deepcopy(mutated)
        # pad the root trace with time advances beyond the a+b budget; the
        # goal facts persist so the trace still ends in a goal configuration
        mutated["trace"] = mutated["trace"] + [{"rule": TICK_STEP}] * 2
        ok, violations = verify_witness(scenario, query, mutated)
        assert not ok
        assert any("tick budget" in v for v in violations)

    def test_wrong_instance_is_rejected(self):
        scenario = qbf_to_scenario(Q_GAME)
        query = ResilienceQuery(1, 1, 0)
        result = check_resilience(scenario, query)
        mutated = copy.deepcopy(witness_to_dict(result.witness))
        child = mutated["children"][0]
        child["instance"]["sigma"]["T1"] = 99  # no such update instance
        ok, violations = verify_witness(scenario, query, mutated)
        assert not ok
        assert any("unknown update point" in v for v in violations)
        assert any("uncovered update point" in v for v in violations)

    def test_query_mismatch_reported(self):
        scenario = qbf_to_scenario(Q_GAME)
        result = check_resilience(scenario, ResilienceQuery(1, 1, 0))
        ok, violations = verify_witness(
            scenario, ResilienceQuery(1, 2, 0), result.witness
        )
        assert not ok
        assert any("query mismatch" in v for v in violations)

    def test_goal_deadline_inside_budget(self, travel):
        early = travel_with_start(travel, 45)
        query = ResilienceQuery(1, 12, 220)
        result = check_resilience(early, query)
        t0 = early.initial.global_time

        def walk(node):
            yield node
            for _, _, sub in node.children:
                yield from walk(sub)

        for node in walk(result.witness):
            goal_time = node.trace.final.global_time
            start_time = node.trace.initial.global_time
            assert goal_time - start_time <= node.query.a + node.query.b
            # every goal is reached within a+b units of the original start
            assert goal_time - t0 <= 12 + 220

    def test_children_at_n_zero_rejected(self, minimal):
        result = check_resilience(minimal, ResilienceQuery(0, 1, 0))
        data = copy.deepcopy(witness_to_dict(result.witness))
        data["children"] = [
            {"step": 0, "instance": {"rule": "hop", "sigma": {}}, "subtree": {}}
        ]
        ok, violations = verify_witness(minimal, ResilienceQuery(0, 1, 0), data)
        assert not ok
        assert any("children present at n=0" in v for v in violations)


_DROP = object()


def _put(*path_and_value):
    """A witness mutation that sets (or, with _DROP, deletes) one entry."""
    *path, value = path_and_value

    def mutate(data: dict) -> None:
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)

    return mutate


def _use_update_in_trace(data: dict) -> None:
    data["trace"][0] = copy.deepcopy(data["children"][0]["instance"])


def _repeat_child(data: dict) -> None:
    data["children"].append(copy.deepcopy(data["children"][0]))


def _land_before_tick(data: dict) -> None:
    # land at T=0 finds Mid@1, but its implicit guard T1 <= T fails
    hop, _, land = data["trace"]
    land["sigma"]["T"] = 0
    data["trace"] = [hop, land]


def _tick_into_fuse(data: dict) -> None:
    data["trace"] += [{"rule": TICK_STEP}] * 5  # Fuse@6 turns critical at t=6


# One rule whose created fact holds a fresh variable, beside a declared
# constant already in the configuration.
FRESH = """
types t;
consts a: t;
predicates N: system, P(t): system, G(t): goal, K: critical;
init { Time@0, N@0, P(a)@0 }
rule system make { consume: N@T1; create: G(w)@T+1; }
goal { G(x)@T1 }
critical { K@T1 }
"""


# One unit below the top of the timestamp range: the goal rule creates at
# T+1, so it applies only now, and the update rule at T+2, so it never does.
TOP = f"""
predicates A: system, U: system, Done: goal;
init {{ Time@{MAX_TIMESTAMP - 1}, A@{MAX_TIMESTAMP - 1}, U@{MAX_TIMESTAMP - 1} }}
rule system finish {{ consume: A@T1; create: Done@T+1; }}
rule system_update bump {{ consume: U@T1; create: U@T+2; }}
goal {{ Done@T1 }}
"""


def _finish_at_the_top(data: dict) -> None:
    # the goal rule one tick later, at T = MAX_TIMESTAMP: Done@T+1 is out of range
    finish = data["trace"][0]
    finish["sigma"]["T"] += 1
    data["trace"] = [{"rule": TICK_STEP}, finish]


# (scenario, mutation, start of the expected violation); "game" is Q_GAME at
# (1,1,0), whose root has two children, "minimal" the bundled file at (1,2,1),
# "fresh" the FRESH scenario at (0,1,0), whose trace binds w to #t:0, "top"
# the TOP scenario at (0,1,0)
REJECTIONS = [
    ("game", _put("query", []), "root: malformed query"),
    ("game", _put("trace", {}), "root: malformed trace"),
    ("game", _put("trace", 0, "Tick?"), "root.trace[0]: malformed step"),
    ("game", _put("trace", 0, "rule", "fly"), "root.trace[0]: unknown rule 'fly'"),
    ("game", _put("trace", 0, "sigma", [0]), "root.trace[0]: malformed substitution"),
    ("game", _put("trace", 0, "sigma", "T1", True),
     "root.trace[0]: binding T1 is neither timestamp nor term"),
    ("game", _put("trace", 0, "sigma", "T1", 0.5),
     "root.trace[0]: binding T1 is neither timestamp nor term"),
    ("game", _put("trace", 0, "sigma", "y1", _DROP),
     "root.trace[0]: substitution misses ['y1']"),
    ("game", _put("trace", 0, "sigma", "y1", "maybe"),
     "root.trace[0]: unknown constant 'maybe' in witness"),
    ("game", _put("trace", 0, "sigma", "y1", "true$"),
     "root.trace[0]: unparseable term 'true$'"),
    ("game", _put("trace", 0, "sigma", "y1", "true false"),
     "root.trace[0]: unparseable term 'true false'"),
    ("game", _put("trace", 0, "sigma", "y1", "f(true"),
     "root.trace[0]: unparseable term 'f(true'"),
    ("game", _put("trace", 0, "sigma", "y1", "f("),
     "root.trace[0]: unparseable term 'f('"),
    ("game", _put("trace", 0, "sigma", "y1", "#bool:0"),
     "root.trace[0]: instance does not re-apply"),
    ("game", _put("trace", 0, "sigma", "y1", "f(true, false)"),
     "root.trace[0]: unparseable term 'f(true, false)'"),
    ("game", _use_update_in_trace,
     "root.trace[0]: trace uses non-system rule assign_a_2"),
    ("minimal", _land_before_tick, "root.trace[1]: instance does not re-apply"),
    ("minimal", _tick_into_fuse, "root: not compliant at step 8"),
    ("game", _put("trace", []), "root: trace does not end in a goal configuration"),
    ("game", _put("children", {}), "root: malformed children"),
    ("game", _put("children", 0, "instance", "assign_a_2"),
     "root.children[0]: malformed update point"),
    ("game", _put("children", 0, "instance", "rule", "fly"),
     "root.children[0]: unknown rule 'fly'"),
    ("game", _repeat_child, "root.children[2]: duplicate update point"),
    ("game", _put("children", 0, "subtree", _DROP),
     "root.children[0]: missing subtree"),
    ("game", _put("children", 0, "subtree", "trace", 0, "rule", "fly"),
     "root.children[0].trace[0]: unknown rule 'fly'"),
    ("game", _put("children", 0, "step", [0]),
     "root.children[0]: malformed update point"),
    ("game", _put("children", 0, "step", True),
     "root.children[0]: malformed update point"),
    ("game", _put("children", 0, "instance", "rule", {"a": 1}),
     "root.children[0]: unknown rule {'a': 1}"),
    ("minimal", _put("trace", 0, "rule", ["hop"]),
     "root.trace[0]: unknown rule ['hop']"),
    ("fresh", _put("trace", 0, "sigma", "w", "a"),
     "root.trace[0]: instance does not re-apply"),
    ("fresh", _put("trace", 0, "sigma", "w", "#u:0"),
     "root.trace[0]: instance does not re-apply"),
    # a substitution binds exactly the rule's variables, each of its kind
    ("minimal", _put("trace", 0, "sigma", "zz", "here"),
     "root.trace[0]: binding zz names no variable of rule hop"),
    ("minimal", _put("trace", 0, "sigma", "T9", 5),
     "root.trace[0]: binding T9 names no variable of rule hop"),
    ("minimal", _put("trace", 0, "sigma", "T1", "here"),
     "root.trace[0]: binding T1 must be a timestamp"),
    ("game", _put("trace", 0, "sigma", "y1", 1),
     "root.trace[0]: binding y1 must be a term"),
    # a step at another time than the clock's, although its guard holds there
    ("minimal", _put("trace", 0, "sigma", "T", 1),
     "root.trace[0]: instance does not re-apply"),
    # time bindings outside the timestamp range, in a trace and in an update
    ("minimal", _put("trace", 0, "sigma", "T1", -1),
     "root.trace[0]: binding T1: timestamp -1 out of range"),
    ("minimal", _put("trace", 0, "sigma", "T1", 10**20),
     "root.trace[0]: binding T1: timestamp 100000000000000000000 out of range"),
    ("game", _put("children", 0, "instance", "sigma", "T", 2**63),
     f"root.children[0]: binding T: timestamp {2**63} out of range"),
    # a clock or a created timestamp past the range
    ("top", _put("trace", [{"rule": TICK_STEP}] * 2), "root.trace[1]: global time overflow"),
    ("top", _finish_at_the_top, "root.trace[1]: created timestamp overflow"),
]


class TestWitnessRejections:
    @pytest.fixture(scope="class")
    def emitted(self, minimal):
        cases = {
            "game": (qbf_to_scenario(Q_GAME), ResilienceQuery(1, 1, 0)),
            "minimal": (minimal, ResilienceQuery(1, 2, 1)),
            "fresh": (parse_scenario(FRESH, "fresh"), ResilienceQuery(0, 1, 0)),
            "top": (parse_scenario(TOP, "top"), ResilienceQuery(0, 1, 0)),
        }
        out = {}
        for name, (scenario, query) in cases.items():
            result = check_resilience(scenario, query)
            out[name] = (scenario, query, witness_to_dict(result.witness))
        return out

    @pytest.mark.parametrize(
        "name, mutate, expected", REJECTIONS,
        ids=[f"{i}-{e.split(': ', 1)[1][:24]}" for i, (_, _, e) in enumerate(REJECTIONS)],
    )
    def test_mutated_witness_names_its_violation(self, emitted, name, mutate, expected):
        scenario, query, data = emitted[name]
        assert verify_witness(scenario, query, data) == (True, [])
        mutated = copy.deepcopy(data)
        mutate(mutated)
        ok, violations = verify_witness(scenario, query, mutated)
        assert not ok
        assert any(v.startswith(expected) for v in violations), violations

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("field", ["n", "a", "b"])
    def test_query_fields_are_integers_not_booleans(self, emitted, field, flag):
        """JSON true and false equal 1 and 0 in Python: a node that says
        `true` where its query has 1 is still a mismatch."""
        scenario, query, data = emitted["game"]
        query = dataclasses.replace(query, **{field: int(flag)})
        mutated = copy.deepcopy(data)
        mismatch = "root: query mismatch"
        mutated["query"][field] = int(flag)
        _, violations = verify_witness(scenario, query, mutated)
        assert not any(v.startswith(mismatch) for v in violations)
        mutated["query"][field] = flag
        _, violations = verify_witness(scenario, query, mutated)
        assert any(v.startswith(mismatch) for v in violations), violations

    def test_update_past_the_range_fails_its_child(self, emitted):
        """An admissible update whose created fact is out of the timestamp
        range is a violation of its child, not an error of the check."""
        scenario, _, data = emitted["top"]
        top = MAX_TIMESTAMP - 1
        mutated = copy.deepcopy(data)
        mutated["query"]["n"] = 1
        bump = {"rule": "bump", "sigma": {"T": top, "T1": top}}
        # bump matches before and after the goal step
        mutated["children"] = [
            {"step": step, "instance": bump, "subtree": data} for step in (0, 1)
        ]
        assert verify_witness(scenario, ResilienceQuery(1, 1, 0), mutated) == (False, [
            "root.children[0]: created timestamp overflow",
            "root.children[1]: created timestamp overflow",
        ])

    def test_witness_file_must_hold_an_object(self):
        with pytest.raises(EngineError, match="must contain a JSON object"):
            witness_from_json("[]")

    def test_term_texts_are_read_against_each_signature(self):
        """Two scenarios spell one witness alike, with `a` of another type in
        each: each verifies under its own signature, in either order."""
        text = """
        types {ty};
        consts a: {ty};
        predicates P({ty}): system, G({ty}): goal, K: critical;
        init {{ Time@0, P(a)@0 }}
        rule system go {{ consume: P(x)@T1; create: G(x)@T+1; }}
        goal {{ G(x)@T1 }}
        critical {{ K@T1 }}
        """
        query = ResilienceQuery(0, 1, 0)
        scenarios = [parse_scenario(text.format(ty=ty), ty) for ty in ("t", "u")]
        witnesses = [witness_to_dict(check_resilience(s, query).witness) for s in scenarios]
        assert witnesses[0] == witnesses[1]
        for scenario in (*scenarios, *reversed(scenarios)):
            assert verify_witness(scenario, query, witnesses[0]) == (True, [])


class TestTermReader:
    """The witness reader reads back every term the engine writes: each
    term bound in the witnesses of the benchmark's travel grid, of QBF
    encodings and of a scenario whose rule mints a fresh constant."""

    def test_round_trip(self, travel):
        cases = [
            (travel_with_start(travel, t0), ResilienceQuery(n, 12, 220))
            for t0 in TRAVEL_STARTS
            for n in (0, 1, 2)
        ]
        cases += [(qbf_to_scenario(q), ResilienceQuery(q.n, 1, 0)) for q in qbf_mix()[:40]]
        cases.append((parse_scenario(FRESH, "fresh"), ResilienceQuery(0, 1, 0)))
        kinds = set()
        for scenario, query in cases:
            result = check_resilience(scenario, query)
            if not result.resilient:
                continue
            for node in _walk(result.witness):
                instances = [s.instance for s in node.trace.steps if not s.is_tick]
                instances += [inst for _, inst, _ in node.children]
                for inst in instances:
                    for _, term in inst.bindings:
                        if not isinstance(term, int):
                            assert parse_ground_term(str(term), scenario.signature) == term
                            kinds.add(type(term))
        assert kinds == {Constant, FreshConstant}


# A staged walk s0 -> s5 beside a Beat fact refreshed to T+1, with no clock
# fact forcing the refresh.  Dmax is 1, so a spent token's timestamp drops out
# of the abstraction two units later: the reactions to `spend` at different
# moments reach distinct configurations that share an abstraction key.
PERIODIC = """
types stage;
consts s0: stage, s1: stage, s2: stage, s3: stage, s4: stage, s5: stage;
predicates Beat: system, At(stage): system, Next(stage, stage): system,
           Token: system, Used: system, Last(stage): goal, Halt: critical;
init { Time@0, Beat@0, Token@0, At(s0)@0, Last(s5)@0, Halt@0,
       Next(s0, s1)@0, Next(s1, s2)@0, Next(s2, s3)@0, Next(s3, s4)@0,
       Next(s4, s5)@0 }
rule system beat { consume: Beat@T1; create: Beat@T+1; guard: T1 <= T; }
rule system step {
  pre: Next(x, y)@T2;
  consume: At(x)@T1;
  create: At(y)@T+1;
  guard: T1 <= T;
}
rule system_update spend { consume: Token@T1; create: Used@T+1; guard: T1 <= T; }
goal { Last(x)@T1, At(x)@T2, Time@T | T2 < T }
critical { Time@T, Halt@T1 | T < T1 }
"""


# The 18 values a fuzzed witness field may be replaced by.
FUZZ_VALUES = (
    None, True, False, 0, 1, -1, 2, 2**62, -(2**62), 0.5,
    "", "Tick", "a", "#t:0", [], [None], {}, {"rule": "Tick"},
)


def _fuzz(rng: random.Random, data: dict) -> dict:
    """A copy of a witness with one or two edits: a value replaced by one of
    `FUZZ_VALUES`, an integer shifted by 1 or 2**62 either way, a key
    deleted, or a list item duplicated."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 2)):
        spots = []  # (container, key or index, value) below the root
        todo = [data]
        while todo:
            node = todo.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                spots.append((node, key, value))
                if isinstance(value, (dict, list)):
                    todo.append(value)
        if not spots:
            break
        node, key, value = rng.choice(spots)
        edits = ["replace", "delete" if isinstance(node, dict) else "duplicate"]
        if type(value) is int:
            edits.append("shift")
        edit = rng.choice(edits)
        if edit == "replace":
            node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
        elif edit == "shift":
            node[key] = value + rng.choice((1, -1, 2**62, -(2**62)))
        elif edit == "delete":
            del node[key]
        else:
            node.insert(key, copy.deepcopy(value))
    return data


class TestVerifierFuzz:
    """The verifier reads untrusted files, so it must answer every JSON
    object with a verdict and its violations, never raise.  Seeded mutants of
    three witnesses: nearly all are rejected.  One that verifies may be a
    no-op edit (an empty `children` deleted) or another valid witness (a time
    advance duplicated within the budget), so only their share is bounded."""

    def test_every_mutant_gets_a_verdict(self, minimal, travel):
        q = qbf_mix()[25]
        assert q.n == 2
        cases = [
            (minimal, ResilienceQuery(1, 2, 1), 600),
            (travel, ResilienceQuery(1, 12, 220), 8),
            (qbf_to_scenario(q), ResilienceQuery(2, 1, 0), 300),
        ]
        rng = random.Random(2024)
        for scenario, query, count in cases:
            result = check_resilience(scenario, query)
            data = witness_to_dict(result.witness)
            assert verify_witness(scenario, query, data) == (True, [])
            accepted = 0
            for _ in range(count):
                mutant = _fuzz(rng, data)
                ok, violations = verify_witness(scenario, query, mutant)
                assert type(ok) is bool and type(violations) is list, query
                assert ok == (not violations), query
                accepted += ok
            assert accepted <= count // 10, query


def _certified_match(spec, state) -> bool:
    return certify._holds(certify._spec_code(spec), state)


def _reference_resilient(scenario, query, matches=_certified_match) -> bool:
    """(n,a,b)-resilience by plain recursion over the definition in the
    search module's docstring: a state is good when it is non-critical,
    every update applicable while the window is open leads to a state good
    one level down, and either the goal is matched or some system move
    leads to a good state.  Time advances close the window and are allowed
    while w + b >= 1; each level's paths are bounded by
    (max(w, 0) + b + 2) * m steps.  `good` is a pure function, cached on
    all of its arguments, the steps left included, which the engine's memo
    key omits; without the cache the recursion is exponential in the path
    bound.  States, moves and rule matching are the witness checker's
    (`msrplan.certify`), which shares no code path with the engine.
    `matches(spec, state)` recognizes a specification."""
    critical, goal = scenario.critical_spec, scenario.goal_spec
    m = len(scenario.initial)
    b = query.b

    def results(state, rules):
        out = []
        for rule in rules:
            code = certify._rule_code(rule)
            for sigma in certify._matches(code, state):
                nxt = state.copy()
                certify._apply(code, sigma, nxt)
                out.append(nxt)
        return out

    def later(state):
        nxt = state.copy()
        nxt.advance()
        return nxt

    def covered(state, n, w):
        if n == 0 or w < 0:
            return True
        steps = (max(w, 0) + b + 2) * m
        return all(
            good(updated, n - 1, w, steps)
            for updated in results(state, scenario.update_rules)
        )

    memo: dict[tuple, bool] = {}

    def good(state, n, w, steps):
        groups = state.groups
        facts = tuple((pred, tuple(sorted(groups[pred].items()))) for pred in sorted(groups))
        key = (state.clock, facts, n, w, steps)
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = decide(state, n, w, steps)
        return verdict

    def decide(state, n, w, steps):
        if matches(critical, state):
            return False
        if not covered(state, n, w):
            return False
        if matches(goal, state):
            return True
        if steps == 0:
            return False
        moves = [(nxt, w) for nxt in results(state, scenario.system_rules)]
        if w + b >= 1:
            moves.append((later(state), w - 1))
        return any(good(nxt, n, w2, steps - 1) for nxt, w2 in moves)

    initial = certify._State.of(scenario.initial)
    return good(initial, query.n, query.a, (query.a + b + 2) * m)


class TestDifferentialOracle:
    # A draw that runs away fails with its arguments at the deadline, about
    # 12 times the slowest of the explicit examples, which took 0.1-2.5 s
    # on a 2-CPU host; each of them took the reference without its cache
    # past 5 s.
    @settings(max_examples=400, deadline=timedelta(seconds=30))
    @given(
        st.integers(0, 10_000),
        st.booleans(),
        st.integers(0, 2),
        st.integers(1, 2),
        st.integers(0, 3),
    )
    @example(109, False, 2, 2, 3)
    @example(161, False, 2, 2, 3)
    @example(175, True, 2, 2, 3)
    @example(266, True, 2, 2, 3)
    @example(387, True, 2, 2, 3)
    def test_checker_matches_reference(self, seed, updates, n, a, b):
        scenario = random_scenario(seed, progressing=True, with_updates=updates)
        query = ResilienceQuery(n, a, b)
        result = check_resilience(scenario, query)
        assert result.resilient == _reference_resilient(scenario, query)
        if result.resilient:
            assert verify_witness(scenario, query, result.witness) == (True, [])


# A goal pair and a critical pair that read the clock, next to pairs that do
# not.  `Grown(x)` matches the first goal pair only two ticks after it was
# created and the fuse burns at time 4, so both change their match on tick
# successors alone, which the checker re-checks against these pairs only.
CLOCKED = """
types token;
consts here: token, there: token;
predicates Seed(token): system, Grown(token): goal, Fuse: critical;
init { Time@0, Seed(here)@0, Seed(there)@1, Fuse@4 }
rule system plant { consume: Seed(x)@T1; create: Grown(x)@T+1; guard: T1 <= T; }
rule system_update blight { consume: Grown(x)@T1; create: Seed(x)@T+1; guard: T1 <= T; }
goal { Grown(x)@T1, Time@T | T >= T1 + 2 }
goal { Grown(here)@T1, Grown(there)@T2 | T1 > T2 }
critical { Time@T, Fuse@T1 | T >= T1 }
critical { Fuse@T1, Grown(there)@T2, Seed(here)@T3 | T2 < T3 }
"""


class TestClockedPairs:
    """After a tick the checker re-checks only the specification pairs that
    mention `Time`; where a goal pair does, it must still decide as the
    definition does with brute-force recognition."""

    def test_decides_as_the_brute_force_reference(self):
        scenario = parse_scenario(CLOCKED, "clocked")
        assert scenario.goal_spec.clocked.pairs == scenario.goal_spec.pairs[:1]
        assert scenario.critical_spec.clocked.pairs == scenario.critical_spec.pairs[:1]
        verdicts = set()
        for n, a, b in itertools.product((0, 1, 2), (1, 2, 3), (0, 1, 2)):
            query = ResilienceQuery(n, a, b)
            result = check_resilience(scenario, query)
            assert result.resilient == _reference_resilient(
                scenario, query, lambda spec, state: brute_spec_match(spec, state.configuration())
            ), query
            verdicts.add(result.resilient)
        assert verdicts == {True, False}
        traces = [
            trace_annotations(find_compliant_goal_trace(scenario, budget))
            for budget in range(6)
        ]
        assert traces == [
            reference_goal_trace(scenario, budget, brute_spec_match) for budget in range(6)
        ]
        assert traces[0] is None and traces[-1] is not None


class TestAbstractionSharing:
    """The checker keys its memo on concrete configurations.  On a scenario
    where the time abstraction would merge states, its witnesses must still
    equal those of exact keys: the digest below was taken from witnesses
    built on keys that also carried the remaining path length."""

    def test_memo_agrees_with_exact_keys(self):
        scenario = parse_scenario(PERIODIC, "periodic")
        assert scenario.progressing and infer_dmax(scenario) == 1
        verdicts = set()
        outputs = []
        for n, a, b in itertools.product((1, 2), (2, 3, 4), (1, 3)):
            query = ResilienceQuery(n, a, b)
            memo = check_resilience(scenario, query)
            verdicts.add(memo.resilient)
            if not memo.resilient:
                outputs.append("not resilient\n")
                continue
            outputs.append(witness_to_json(memo.witness))
            assert verify_witness(scenario, query, memo.witness) == (True, [])
            nodes = list(_walk(memo.witness))
            for node in nodes:
                assert not replay_errors(node.trace)
                configs = list(node.trace.configurations())
                for index, inst, sub in node.children:
                    assert sub.trace.initial == apply_instance(configs[index], inst)
            # the abstraction would merge distinct configurations on the witness
            by_key: dict[tuple, set] = {}
            for node in nodes:
                for config in node.trace.configurations():
                    dkey = delta_key(abstract(config, 1))
                    key = (node.query.n, config.global_time, dkey)
                    by_key.setdefault(key, set()).add(config)
            assert any(len(configs) > 1 for configs in by_key.values()), query
        assert verdicts == {True, False}
        text = "".join(outputs)
        assert len(text) == 93132
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "037ca5b7c68ceacd2a237ba25eb1acc434617143e9bd7f915862e196c33e6c52"
        )


PERIODIC_CASES = [(1, 2, 1), (1, 4, 3), (2, 3, 1), (2, 4, 3)]


class TestMemoKeyClock:
    """A checker is built for one query and reads the window left at a state
    off its clock: memo keys hold no window, and every witness node's window
    plus its start time is the query's deadline."""

    def test_time_plus_window_is_fixed(self, monkeypatch, travel):
        checkers = []

        class Recording(resilience.Checker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                checkers.append(self)

        monkeypatch.setattr(resilience, "Checker", Recording)
        periodic = parse_scenario(PERIODIC, "periodic")
        cases = [(periodic, ResilienceQuery(*nab)) for nab in PERIODIC_CASES]
        cases.append((travel, ResilienceQuery(1, 12, 220)))
        for scenario, query in cases:
            result = check_resilience(scenario, query)
            t0 = scenario.initial.global_time
            starts = set()
            for node in _walk(result.witness) if result.resilient else ():
                start = node.trace.initial.global_time
                assert node.query.a == t0 + query.a - start, query
                starts.add(start)
            # a resilient witness holds updates later than its root's time
            assert len(starts) != 1, query
            assert len(checkers) == 1
            checker = checkers.pop()
            assert checker.memo
            for config, n in checker.memo:
                assert 0 <= n <= query.n, query
                assert t0 <= config.global_time <= t0 + query.a + query.b, query


def _walk(node):
    yield node
    for _, _, sub in node.children:
        yield from _walk(sub)


class TestBudgetOverflow:
    def test_overflow_is_checked(self, minimal):
        from msrplan.kernel import MAX_TIMESTAMP

        with pytest.raises(EngineError):
            check_resilience(minimal, ResilienceQuery(0, MAX_TIMESTAMP, 1))


# `lose` consumes Key, and `open` needs Key as a side condition afterwards, so
# no compliant goal trace exists.  An engine that consumed some other fact in
# place of Key would find one.  `open` creates at T, so the scenario is not
# progressing and its search keys are exact: a tampered engine revisits
# states, which there count as bad instead of raising.
CARRIED_TRAP = """
types token;
consts here: token;
predicates
  Key: system, Spare: system, Moved: system,
  Reached(token): system, Target(token): goal, Fuse: critical;
init { Time@0, Key@0, Spare@0, Target(here)@0, Fuse@9 }
rule system lose {
  consume: Key@T1;
  create: Moved@T+1;
}
rule system open {
  pre: Key@T1;
  consume: Moved@T2;
  create: Reached(here)@T;
}
goal { Target(x)@T1, Reached(x)@T2 }
critical { Time@T, Fuse@T }
"""


class TestTamperedCarriedFacts:
    """The facts a `find_matches` instance carries are read only when the
    engine applies it; trace replay and the witness verifier rebuild each
    step from its substitution, so carried facts swapped for another fact of
    the configuration cannot pass them."""

    @pytest.fixture
    def tampered(self, monkeypatch):
        """The engine's move enumerator, with each carried fact swapped for
        the first other non-`Time` fact of the configuration."""
        real = search.find_matches

        def swapped(rule, config):
            out = []
            for inst in real(rule, config):
                facts = tuple(
                    next(g for g in config if g.pred != TIME_PREDICATE and g != f)
                    for f in inst.facts
                )
                out.append(dataclasses.replace(inst, facts=facts))
            return out

        monkeypatch.setattr(search, "find_matches", swapped)

    def test_untampered_engine_finds_no_trace(self):
        scenario = parse_scenario(CARRIED_TRAP, "trap")
        assert find_compliant_goal_trace(scenario, 3) is None
        assert not check_resilience(scenario, ResilienceQuery(0, 3, 0)).resilient

    def test_replay_rejects_the_tampered_trace(self, tampered):
        scenario = parse_scenario(CARRIED_TRAP, "trap")
        trace = find_compliant_goal_trace(scenario, 3)
        assert trace is not None
        assert replay_errors(trace) == [
            "step 1: recorded configuration does not match replay",
            "step 3: recorded configuration does not match replay",
        ]

    def test_verifier_rejects_the_tampered_witness(self, tampered):
        scenario = parse_scenario(CARRIED_TRAP, "trap")
        query = ResilienceQuery(0, 3, 0)
        result = check_resilience(scenario, query)
        assert result.resilient
        ok, violations = verify_witness(scenario, query, result.witness)
        assert not ok
        assert violations == ["root.trace[2]: instance does not re-apply"]


def _drop_first_step(data: dict) -> None:
    # [hop, Tick, land] becomes [Tick, land]: land consumes Mid@1, which
    # only hop creates
    del data["trace"][0]


def _repeat_last_step(data: dict) -> None:
    # land again: its Mid@1 is gone, but goal and guard would still hold
    data["trace"].append(copy.deepcopy(data["trace"][-1]))


def _drop_first_child(data: dict) -> None:
    del data["children"][0]


class TestEngineDefects:
    """The verifier shares no code path with the engine: with one engine
    defect in place, it still rejects a tampered witness that it rejects
    without the defect.  The witness is built before the defect goes in."""

    # (scenario, engine defect, mutation, expected violation); "minimal" is
    # the bundled file at (1,2,1), whose trace is [hop, Tick, land], "game"
    # is Q_GAME at (1,1,0), whose root has two children
    CASES = [
        ("minimal", "find_matches", _drop_first_step,
         "root.trace[1]: instance does not re-apply"),
        ("game", "interpret", _drop_first_child, "root: uncovered update point"),
        ("minimal", "replace", _repeat_last_step,
         "root.trace[3]: instance does not re-apply"),
    ]

    @staticmethod
    def defect(monkeypatch, name: str) -> None:
        moves = {
            "find_matches": lambda rule, config: [],  # no rule matches
            "apply_instance": lambda config, inst: config,  # a move changes nothing
        }
        if name in moves:  # at every import site
            original = getattr(rules, name)
            for module in (rules, search, specs):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, moves[name])
        elif name == "interpret":  # no plan matches
            monkeypatch.setattr(MatchPlan, "interpret", lambda self, config: [])
        elif name == "at":  # the clock stays
            monkeypatch.setattr(Configuration, "at", lambda self, time: self)
        else:  # a rewrite takes nothing out
            replace = Configuration.replace
            monkeypatch.setattr(
                Configuration, "replace", lambda self, removed, added: replace(self, (), added)
            )

    @pytest.mark.parametrize("name, defect, mutate, expected", CASES, ids=[c[1] for c in CASES])
    def test_tampered_witness_stays_rejected(self, monkeypatch, minimal, name, defect, mutate, expected):
        scenario, query = {
            "minimal": (minimal, ResilienceQuery(1, 2, 1)),
            "game": (qbf_to_scenario(Q_GAME), ResilienceQuery(1, 1, 0)),
        }[name]
        data = witness_to_dict(check_resilience(scenario, query).witness)
        assert verify_witness(scenario, query, data) == (True, [])
        mutate(data)
        for broken in (False, True):
            if broken:
                self.defect(monkeypatch, defect)
            ok, violations = verify_witness(scenario, query, data)
            assert not ok, (defect, broken)
            assert any(v.startswith(expected) for v in violations), (defect, broken, violations)

    @pytest.mark.parametrize("defect", ["find_matches", "replace", "at", "apply_instance"])
    def test_tampered_trace_stays_rejected(self, monkeypatch, travel, defect):
        """Trace replay too: the travel goal trace and its tamperings, all
        built and read before the defect goes in, are judged the same with
        it in place."""
        trace = find_compliant_goal_trace(travel, 232)
        steps = trace.steps
        first_move = next(k for k, s in enumerate(steps) if not s.is_tick)
        first_tick = next(k for k, s in enumerate(steps) if s.is_tick)
        ticked = steps[first_tick].result
        late = Configuration([*ticked.others, ticked.clock.at(ticked.global_time + 1)])
        tampered = {
            "dropped step": steps[:first_move] + steps[first_move + 1:],
            "repeated last step": steps + steps[-1:],
            "clock one off": (
                steps[:first_tick]
                + (TraceStep(TICK_STEP, late),)
                + steps[first_tick + 1:]
            ),
        }
        traces = {name: Trace(trace.initial, s) for name, s in tampered.items()}
        for each in (trace, *traces.values()):
            list(each.configurations())
        expected = {name: replay_errors(t) for name, t in traces.items()}
        assert expected == {
            "dropped step": [
                f"step {first_move + 1}: recorded configuration does not match replay"
            ],
            "repeated last step": [
                f"step {len(steps) + 1}: instance {steps[-1].instance.key()} not applicable"
            ],
            "clock one off": [
                f"step {first_tick + 1}: recorded configuration does not match replay",
                f"step {first_tick + 2}: instance {steps[first_tick + 1].instance.key()} "
                "not applicable",
            ],
        }
        self.defect(monkeypatch, defect)
        assert replay_errors(trace) == []
        assert {name: replay_errors(t) for name, t in traces.items()} == expected


TRAVEL_STARTS = (42, 60, 107, 108, 120, 121)  # the benchmark's travel grid


def _shift_sigmas(node, delta: int):
    """`node`, a witness dict, with every integer binding moved by `delta`."""
    if isinstance(node, list):
        return [_shift_sigmas(item, delta) for item in node]
    if not isinstance(node, dict):
        return node
    return {
        key: (
            {v: t + delta if isinstance(t, int) else t for v, t in value.items()}
            if key == "sigma"
            else _shift_sigmas(value, delta)
        )
        for key, value in node.items()
    }


class TestTimeShift:
    """A metamorphic relation where no oracle reaches: shifting every initial
    timestamp of travel by Δ keeps each verdict and moves every time in a
    witness or refutation by exactly Δ.  Guards compare times with each
    other, never with a constant, so nothing else may change."""

    @pytest.mark.parametrize("delta", [1, 37, 1000])
    def test_travel_grid(self, travel, delta):
        times = re.compile(r"\b(T\w*=|t=)(\d+)")
        verdicts = set()
        for t0 in TRAVEL_STARTS:
            base = travel_with_start(travel, t0)
            shifted = base.with_initial(
                Configuration([TimedFact(f.pred, f.args, f.ts + delta) for f in base.initial])
            )
            for n in (0, 1, 2):
                query = ResilienceQuery(n, 12, 220)
                want, got = check_resilience(base, query), check_resilience(shifted, query)
                assert got.resilient == want.resilient, (t0, n)
                verdicts.add(want.resilient)
                if want.resilient:
                    moved = _shift_sigmas(witness_to_dict(want.witness), delta)
                    assert witness_to_json(got.witness) == witness_to_json(moved), (t0, n)
                else:
                    moved = tuple(
                        times.sub(lambda m: f"{m[1]}{int(m[2]) + delta}", line)
                        for line in want.refutation
                    )
                    assert got.refutation == moved, (t0, n)
        assert verdicts == {True, False}


@pytest.fixture(scope="module")
def bench_table() -> dict:
    """The globals of the benchmark's workload module, for its frozen
    travel table."""
    return runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))


class TestBenchmarkCalls:
    """The benchmark under `bench/` is frozen, so what it calls in the
    package must stay: every layer its tracer wraps resolves, and a first
    pass of each workload reports no problem."""

    def test_wrapped_names_resolve(self):
        spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))
        for module, attr, _ in spans["WRAPPED"]:
            target = importlib.import_module(f"msrplan.{module}")
            for part in attr.split("."):
                target = getattr(target, part)

    def test_first_pass_of_every_workload(self, bench_table):
        """Pass 0 at seed 1, query by query as `bench/run.py` runs it:
        decide, certify a positive verdict, output, check."""
        assert bench_table["table_problems"]() == []
        for name, wl in bench_table["WORKLOADS"].items():
            wl.prepare(bench_table["parse_sources"](name))
            verdicts = set()
            for q in wl.make_pass(1, 0):
                result = wl.decide(q)
                positive = wl.verdict(result)
                verdicts.add(positive)
                problems = wl.certify(q, result) if positive else []
                assert isinstance(wl.output(result), str)
                problems += wl.check(q, result)
                assert problems == [], (name, q.key)
            assert True in verdicts, name


class TestRuleOrder:
    """A metamorphic relation where no oracle reaches: declaring travel's
    system and update rules in another order changes the move order, and
    so the witnesses, but no verdict.  Each verdict of the benchmark's
    travel grid equals its frozen table, and each witness verifies on the
    shuffled scenario and on the original."""

    @pytest.fixture(scope="class")
    def declared(self, travel, bench_table) -> dict[int, str]:
        """Witness JSON of the declared order at n = 0, by start: the cheap
        queries, enough to show that a new order moves the witnesses."""
        query = ResilienceQuery(0, bench_table["TRAVEL_A"], bench_table["TRAVEL_B"])
        out = {}
        for t0 in bench_table["TRAVEL_STARTS"]:
            result = check_resilience(travel_with_start(travel, t0), query)
            if result.resilient:
                out[t0] = witness_to_json(result.witness)
        return out

    @pytest.mark.parametrize("seed", [3, 8])
    def test_travel_grid(self, travel, bench_table, declared, seed):
        rng = random.Random(seed)
        system, update = list(travel.system_rules), list(travel.update_rules)
        rng.shuffle(system)
        rng.shuffle(update)
        assert system != list(travel.system_rules) and update != list(travel.update_rules)
        shuffled = dataclasses.replace(travel, system_rules=tuple(system), update_rules=tuple(update))
        verdicts, moved = set(), 0
        for t0 in bench_table["TRAVEL_STARTS"]:
            original = travel_with_start(travel, t0)
            scenario = shuffled.with_initial(original.initial)
            for n in bench_table["TRAVEL_N"]:
                query = ResilienceQuery(n, bench_table["TRAVEL_A"], bench_table["TRAVEL_B"])
                result = check_resilience(scenario, query)
                assert result.resilient == bench_table["travel_expected"](t0, n), (t0, n)
                verdicts.add(result.resilient)
                if result.resilient:
                    for host in (scenario, original):
                        ok, violations = verify_witness(host, query, result.witness)
                        assert ok, (t0, n, violations[:3])
                    if n == 0:
                        moved += witness_to_json(result.witness) != declared[t0]
        assert verdicts == {True, False}
        assert moved > 0


class TestRenaming:
    """A metamorphic relation where no oracle reaches: renaming the QBF
    encoding's constants so that their order reverses changes sort keys, and
    so the search order and the witnesses, but no verdict, and each witness
    verifies on the renamed scenario.  Travel is no use here: reversing its
    constants' order moved no witness."""

    def test_reversed_boolean_constants(self):
        names = {"true": "aa_true", "false": "zz_false"}
        back = {new: old for old, new in names.items()}
        word = re.compile(r"\b(true|false)\b")
        renamed_word = re.compile(r"\b(aa_true|zz_false)\b")
        verdicts, positive, moved = set(), 0, 0
        for q in qbf_mix()[:20]:
            text = qbf_to_msr_text(q)
            assert not renamed_word.search(text)
            original = parse_scenario(text, "original")
            renamed = parse_scenario(word.sub(lambda m: names[m[1]], text), "renamed")
            query = ResilienceQuery(q.n, 1, 0)
            want, got = check_resilience(original, query), check_resilience(renamed, query)
            assert got.resilient == want.resilient, q
            verdicts.add(got.resilient)
            if got.resilient:
                assert verify_witness(renamed, query, got.witness) == (True, []), q
                mapped = renamed_word.sub(lambda m: back[m[1]], witness_to_json(got.witness))
                positive += 1
                moved += mapped != witness_to_json(want.witness)
        assert verdicts == {True, False}
        assert 2 * moved >= positive > 0


def _without_update(scenario, k: int):
    """`scenario` without its k-th update rule."""
    rules = scenario.update_rules
    return dataclasses.replace(scenario, update_rules=rules[:k] + rules[k + 1:])


class TestDroppedUpdateRule:
    """A metamorphic relation where no oracle reaches, monotonicity beyond
    criterion 5: dropping an update rule leaves the adversary fewer update
    points, so a resilient verdict stays resilient, and each witness of the
    smaller scenario verifies on it.  A not-resilient verdict may turn
    resilient, and some do, so the relation is not vacuous."""

    def _check(self, scenario, query, resilient: bool) -> int:
        """Assert the relation for each update rule of `scenario` dropped in
        turn; return how many drops turned the verdict resilient."""
        gained = 0
        for k in range(len(scenario.update_rules)):
            smaller = _without_update(scenario, k)
            result = check_resilience(smaller, query)
            if resilient:
                assert result.resilient, (scenario.update_rules[k].name, query)
            elif result.resilient:
                gained += 1
            if result.resilient:
                assert verify_witness(smaller, query, result.witness) == (True, [])
        return gained

    def test_travel_grid(self, travel, bench_table):
        gained = kept = 0
        for t0 in bench_table["TRAVEL_STARTS"]:
            base = travel_with_start(travel, t0)
            for n in bench_table["TRAVEL_N"]:
                query = ResilienceQuery(n, bench_table["TRAVEL_A"], bench_table["TRAVEL_B"])
                resilient = bench_table["travel_expected"](t0, n)
                assert check_resilience(base, query).resilient == resilient
                gained += self._check(base, query, resilient)
                kept += resilient * len(base.update_rules)
        assert kept > 0 and gained > 0

    def test_qbf_mix(self):
        gained = kept = 0
        for q in qbf_mix()[:20]:
            scenario = qbf_to_scenario(q)
            query = ResilienceQuery(q.n, 1, 0)
            resilient = check_resilience(scenario, query).resilient
            assert resilient == evaluate_qbf(q), q
            gained += self._check(scenario, query, resilient)
            kept += resilient * len(scenario.update_rules)
        assert kept > 0 and gained > 0


class TestRandomTimeShift:
    """`TestTimeShift`'s relation on random progressing scenarios with
    updates: shifting every initial timestamp, the clock's included, by k
    keeps each verdict; each witness verifies on its own scenario and is
    the original's with every time binding moved by k, and each refutation
    line moves its times by k.  Few draws of this family reach an update,
    so the test counts the witnesses with children and the refutations that
    name an update, and asks for some of each."""

    @pytest.mark.parametrize("k", [1, 7])
    def test_random_progressing_scenarios(self, k):
        times = re.compile(r"\b(T\w*=|t=)(\d+)")
        verdicts, positive, children, updates = set(), 0, 0, 0
        for seed in range(200):
            base = random_scenario(seed, progressing=True, with_updates=True)
            shifted = base.with_initial(
                Configuration([TimedFact(f.pred, f.args, f.ts + k) for f in base.initial])
            )
            for nab in ((0, 1, 1), (1, 2, 2), (2, 3, 3)):
                query = ResilienceQuery(*nab)
                want, got = check_resilience(base, query), check_resilience(shifted, query)
                assert got.resilient == want.resilient, (seed, nab)
                verdicts.add(got.resilient)
                if got.resilient:
                    positive += 1
                    children += bool(got.witness.children)
                    assert verify_witness(shifted, query, got.witness) == (True, [])
                    moved = _shift_sigmas(witness_to_dict(want.witness), k)
                    assert witness_to_json(got.witness) == witness_to_json(moved), (seed, nab)
                else:
                    updates += any(line.lstrip().startswith("update") for line in want.refutation)
                    moved = tuple(
                        times.sub(lambda m: f"{m[1]}{int(m[2]) + k}", line)
                        for line in want.refutation
                    )
                    assert got.refutation == moved, (seed, nab)
        assert verdicts == {True, False}
        assert positive > 200 and children >= 10 and updates >= 5


class TestNoCyclicGarbage:
    """The engine and the checker free what they build by reference
    counting alone (`rules.MatchPlan` claims no reference cycle): with the
    cyclic collector paused over a travel resilience query with its
    witness checked and written, a QBF formula, a graph-goal pair and a goal
    search, run cold and then warm, the next collection finds nothing."""

    def test_queries_leave_no_cycles(self, travel):
        scenario = travel_with_start(travel, 42)
        formula = qbf_mix()[0]
        triangle = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
        edge = Graph(("a", "b"), (("a", "b"),))
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                query = ResilienceQuery(1, 12, 220)
                result = check_resilience(scenario, query)
                assert verify_witness(scenario, query, result.witness) == (True, [])
                assert witness_to_json(result.witness)
                check_resilience(qbf_to_scenario(formula), ResilienceQuery(formula.n, 1, 0))
                goal, config = graph_to_goal_instance(edge, triangle)
                assert match_spec(goal.goal_spec, config) is not None
                assert find_compliant_goal_trace(scenario, 232) is not None
        finally:
            gc.enable()
        assert gc.collect() == 0
