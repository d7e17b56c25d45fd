from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_spec_match,
    qbf_mix,
    random_scenario,
    reference_goal_trace,
    trace_annotations,
    travel_with_start,
)
from msrplan import resilience, search
from msrplan.delta import abstract, delta_key
from msrplan.kernel import TIME_PREDICATE
from msrplan.reductions import Qbf, evaluate_qbf, qbf_to_scenario
from msrplan.resilience import (
    ResilienceQuery,
    check_resilience,
    enumerate_update_points,
    verify_witness,
    witness_from_json,
    witness_to_dict,
    witness_to_json,
)
from msrplan.rules import EngineError, apply_instance, find_matches, tick
from msrplan.scenario import bundled_text, infer_dmax, parse_scenario
from msrplan.search import find_compliant_goal_trace
from msrplan.specs import TICK_STEP, match_spec, replay_errors

Q_GAME = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((1, 2, 3), (-1, -2, -3)))
Q_FALSE = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((2, 2, 2),))


class TestQueryValidation:
    def test_parameters_must_be_natural(self):
        with pytest.raises(EngineError):
            ResilienceQuery(-1, 1, 0)
        with pytest.raises(EngineError):
            ResilienceQuery(0, 1, -1)

    def test_top_level_window_must_be_positive(self, minimal):
        with pytest.raises(EngineError):
            check_resilience(minimal, ResilienceQuery(0, 0, 5))

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
        for i, inst, _ in points:
            assert result.witness.trace.config_at(i).global_time - t0 <= 12

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


# (scenario, mutation, start of the expected violation); "game" is Q_GAME at
# (1,1,0), whose root has two children, "minimal" the bundled file at (1,2,1),
# "fresh" the FRESH scenario at (0,1,0), whose trace binds w to #t:0
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
     "root.trace[0]: instance does not re-apply"),
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
]


class TestWitnessRejections:
    @pytest.fixture(scope="class")
    def emitted(self, minimal):
        cases = {
            "game": (qbf_to_scenario(Q_GAME), ResilienceQuery(1, 1, 0)),
            "minimal": (minimal, ResilienceQuery(1, 2, 1)),
            "fresh": (parse_scenario(FRESH, "fresh"), ResilienceQuery(0, 1, 0)),
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


def _reference_resilient(scenario, query, matches=match_spec) -> bool:
    """(n,a,b)-resilience by plain recursion over the definition in the
    search module's docstring, without memoization: a state is good when it
    is non-critical, every update applicable while the window is open leads
    to a state good one level down, and either the goal is matched or some
    system move leads to a good state.  Time advances close the window and
    are allowed while w + b >= 1; each level's paths are bounded by
    (max(w, 0) + b + 2) * m steps.  `matches(spec, config)` recognizes a
    specification, None for no match."""
    critical, goal = scenario.critical_spec, scenario.goal_spec
    m = len(scenario.initial)
    b = query.b

    def results(config, rules):
        return [
            apply_instance(config, inst)
            for rule in rules
            for inst in find_matches(rule, config)
        ]

    def covered(config, n, w):
        if n == 0 or w < 0:
            return True
        steps = (max(w, 0) + b + 2) * m
        return all(
            good(updated, n - 1, w, steps)
            for updated in results(config, scenario.update_rules)
        )

    def good(config, n, w, steps):
        if matches(critical, config) is not None:
            return False
        if not covered(config, n, w):
            return False
        if matches(goal, config) is not None:
            return True
        if steps == 0:
            return False
        moves = [(nxt, w) for nxt in results(config, scenario.system_rules)]
        if w + b >= 1:
            moves.append((tick(config), w - 1))
        return any(good(nxt, n, w2, steps - 1) for nxt, w2 in moves)

    return good(scenario.initial, query.n, query.a, (query.a + b + 2) * m)


class TestDifferentialOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.booleans(),
        st.integers(0, 2),
        st.integers(1, 2),
        st.integers(0, 3),
    )
    def test_checker_matches_unmemoized_reference(self, seed, updates, n, a, b):
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
                scenario, query, brute_spec_match
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
                for index, inst, sub in node.children:
                    start = node.trace.config_at(index)
                    assert sub.trace.initial == apply_instance(start, inst)
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
