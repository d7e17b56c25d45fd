from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_find_matches,
    explored_states,
    random_guarded_rule,
    random_scenario,
)
from msrplan.kernel import Configuration, Constant, Role, TimedFact, Variable, make_signature
from msrplan.rules import (
    Atom,
    CreatedFact,
    EngineError,
    FactPattern,
    Rule,
    RuleError,
    RuleRole,
    TimeConstraint,
    apply_instance,
    classify_rule,
    find_matches,
    tick,
)
from msrplan.search import successors


def fact(pred: str, ts: int, *args) -> TimedFact:
    return TimedFact(pred, tuple(args), ts)


class TestWorkedExample:
    def test_blocked_before_departure(self, worked_example):
        board = worked_example.system_rules[0]
        assert find_matches(board, worked_example.initial) == []

    def test_unique_instance_after_43_ticks(self, worked_example):
        board = worked_example.system_rules[0]
        config = worked_example.initial
        for _ in range(43):
            config = tick(config)
        assert config.global_time == 5245
        insts = find_matches(board, config)
        assert len(insts) == 1
        sigma = insts[0].sigma
        assert str(sigma["a"]) == "id14"
        assert str(sigma["x"]) == "FRA"
        assert str(sigma["y"]) == "DBV"
        assert sigma["T"] == 5245 and sigma["T1"] == 5245 and sigma["T2"] == 5165

    def test_application_reaches_expected_configuration(self, worked_example):
        board = worked_example.system_rules[0]
        config = worked_example.initial
        for _ in range(43):
            config = tick(config)
        [inst] = find_matches(board, config)
        result = apply_instance(config, inst)
        assert str(result) == (
            "{ Attended(main,no)@0, Time@5245, Flight2(id14,FRA,DBV)@5245, "
            "At(DBV,airport)@5365, Event(main,id215)@7920 }"
        )


class TestTick:
    def test_advances_only_global_time(self, worked_example):
        config = worked_example.initial
        assert config.global_time == 5202
        bumped = tick(config)
        assert bumped.global_time == 5203
        others = lambda c: sorted(
            str(f) for f in c if f.pred != "Time"
        )
        assert others(bumped) == others(config)

    def test_trivial(self):
        assert tick(Configuration([fact("Time", 0)])).global_time == 1

    def test_overflow_checked(self):
        from msrplan.kernel import MAX_TIMESTAMP

        with pytest.raises(EngineError):
            tick(Configuration([fact("Time", MAX_TIMESTAMP)]))


def simple_sig():
    return make_signature(
        ["t"],
        {"a": "t", "b": "t"},
        {"P": ("t",), "Q": ("t",), "N": (), "M": ()},
        {"P": Role.SYSTEM, "Q": Role.SYSTEM, "N": Role.SYSTEM, "M": Role.SYSTEM},
    )


class TestMatching:
    def test_multiset_multiplicity(self):
        rule = Rule(
            "two",
            (),
            (
                FactPattern(Atom("P", (Variable("x", "t"),)), "T1"),
                FactPattern(Atom("P", (Variable("y", "t"),)), "T1"),
            ),
            (CreatedFact(Atom("N"), 1), CreatedFact(Atom("M"), 1)),
            (),
        )
        one_p = Configuration([fact("Time", 0), fact("P", 0, Constant("a", "t"))])
        assert find_matches(rule, one_p) == []
        two_p = Configuration(
            [fact("Time", 0), fact("P", 0, Constant("a", "t")), fact("P", 0, Constant("a", "t"))]
        )
        assert len(find_matches(rule, two_p)) == 1

    def test_each_binding_once_over_constants_that_share_a_name(self):
        a, a2 = Constant("a", "obj"), Constant("a", "obj2")
        config = Configuration(
            [fact("Time", 0), fact("G0", 0, a), fact("G0", 0, a2), fact("G0", 0, a)]
        )
        # an untyped variable binds either constant; the two bindings render
        # alike but are distinct instances
        for btype, expected in (("obj", [a]), ("", [a, a2])):
            rule = Rule(
                "take",
                (),
                (FactPattern(Atom("G0", (Variable("x", btype),)), "T1"),),
                (CreatedFact(Atom("N"), 1),),
                (),
            )
            assert [i.sigma["x"] for i in find_matches(rule, config)] == expected

    def test_fresh_constants_are_injective_and_deterministic(self):
        rule = Rule(
            "mint",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("P", (Variable("w", "t"),)), 1),),
            (),
        ).with_past_consumption()
        config = Configuration([fact("Time", 0), fact("N", 0), fact("N", 0)])
        [inst] = find_matches(rule, config)
        assert str(inst.fresh_assignment["w"]) == "#t:0"
        after = apply_instance(config, inst)
        [inst2] = find_matches(rule, after)
        assert str(inst2.fresh_assignment["w"]) == "#t:1"
        final = apply_instance(after, inst2)
        names = sorted(str(f) for f in final if f.pred == "P")
        assert names == ["P(#t:0)@1", "P(#t:1)@1"]

    def test_fresh_never_collides_with_configuration_values(self):
        from msrplan.kernel import FreshConstant

        rule = Rule(
            "mint",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("P", (Variable("w", "t"),)), 1),),
            (),
        ).with_past_consumption()
        config = Configuration(
            [fact("Time", 0), fact("N", 0), fact("P", 0, FreshConstant("t", 0))]
        )
        [inst] = find_matches(rule, config)
        assert inst.fresh_assignment["w"] == FreshConstant("t", 1)

    def test_applicable_only_with_distinct_unused_fresh_constants_of_their_type(self):
        from msrplan.kernel import FreshConstant
        from msrplan.rules import RuleInstance, is_applicable

        rule = Rule(
            "mint2",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("P", (Variable("v", "t"),)), 1),
             CreatedFact(Atom("P", (Variable("w", "t"),)), 1)),
            (),
        ).with_past_consumption()
        a, used = Constant("a", "t"), FreshConstant("t", 0)
        config = Configuration(
            [fact("Time", 0), fact("N", 0), fact("P", 0, a), fact("P", 0, used)]
        )
        [inst] = find_matches(rule, config)
        assert inst.fresh_assignment == {
            "v": FreshConstant("t", 1), "w": FreshConstant("t", 2)
        }
        assert is_applicable(inst, config)

        def rebound(**terms) -> RuleInstance:
            sigma = {**inst.sigma, **terms}
            return RuleInstance(rule, tuple(sorted(sigma.items())))

        assert is_applicable(rebound(w=FreshConstant("t", 7)), config)
        for bad in (
            rebound(w=a),  # a declared constant already in the configuration
            rebound(w=Constant("b", "t")),  # a declared constant, even if absent
            rebound(w=FreshConstant("u", 2)),  # a fresh constant of another type
            rebound(w=FreshConstant("t", 1)),  # the same constant as v
            rebound(w=used),  # a fresh constant already in the configuration
        ):
            assert not is_applicable(bad, config)
        missing = RuleInstance(rule, tuple(b for b in inst.bindings if b[0] != "w"))
        assert not is_applicable(missing, config)

    def test_stale_instance_rejected(self):
        rule = Rule(
            "eat",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1),),
            (),
        ).with_past_consumption()
        config = Configuration([fact("Time", 0), fact("N", 0)])
        [inst] = find_matches(rule, config)
        after = apply_instance(config, inst)
        with pytest.raises(EngineError):
            apply_instance(after, inst)

    def test_apply_is_pure(self):
        rule = Rule(
            "eat",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1),),
            (),
        ).with_past_consumption()
        config = Configuration([fact("Time", 0), fact("N", 0)])
        [inst] = find_matches(rule, config)
        assert apply_instance(config, inst) == apply_instance(config, inst)
        assert config.count(fact("N", 0)) == 1  # input untouched

    def test_function_terms_unify(self):
        from msrplan.kernel import FuncApp

        rule = Rule(
            "peel",
            (),
            (FactPattern(Atom("P", (FuncApp("f", (Variable("x", "t"),)),)), "T1"),),
            (CreatedFact(Atom("P", (Variable("x", "t"),)), 1),),
            (),
        ).with_past_consumption()
        wrapped = FuncApp("f", (Constant("a", "t"),))
        config = Configuration([fact("Time", 0), fact("P", 0, wrapped)])
        [inst] = find_matches(rule, config)
        assert inst.sigma["x"] == Constant("a", "t")
        result = apply_instance(config, inst)
        assert fact("P", 1, Constant("a", "t")) in result.counts()


class TestRuleWellFormedness:
    def test_time_predicate_banned(self):
        with pytest.raises(RuleError):
            Rule(
                "bad",
                (),
                (FactPattern(Atom("Time"), "T1"),),
                (CreatedFact(Atom("N"), 1),),
                (),
            )
        with pytest.raises(RuleError):
            Rule("bad", (), (), (CreatedFact(Atom("Time"), 1),), ())

    def test_tick_is_reserved(self):
        # a witness step naming such a rule would replay as a time advance
        with pytest.raises(RuleError, match="^rule name Tick is reserved for the time advance$"):
            Rule("Tick", (), (FactPattern(Atom("N"), "T1"),), (CreatedFact(Atom("M"), 1),), ())

    def test_guard_variables_must_occur_in_precondition(self):
        with pytest.raises(RuleError):
            Rule(
                "bad",
                (),
                (FactPattern(Atom("N"), "T1"),),
                (CreatedFact(Atom("M"), 1),),
                (TimeConstraint("T9", ">", "T"),),
            )

    def test_fresh_variables_must_be_typed(self):
        from msrplan.kernel import FuncApp

        with pytest.raises(RuleError, match="rule mint: fresh variable w has no type"):
            Rule(
                "mint",
                (),
                (FactPattern(Atom("N"), "T1"),),
                (CreatedFact(Atom("P", (Variable("w", ""),)), 1),),
                (),
            )
        # a fresh variable nested in a function term is typed where it occurs
        nested = Rule(
            "wrap",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("P", (FuncApp("f", (Variable("w", "t"),)),)), 1),),
            (),
        )
        assert nested.fresh == (("w", "t"),)

    def test_noop_rewrites_banned(self):
        # consuming and recreating the same formula at the current instant
        with pytest.raises(RuleError):
            Rule(
                "noop",
                (),
                (FactPattern(Atom("N"), "T"),),
                (CreatedFact(Atom("N"), 0),),
                (),
            )
        # fine when the recreated copy lies in the future
        Rule(
            "delayed",
            (),
            (FactPattern(Atom("N"), "T"),),
            (CreatedFact(Atom("N"), 1),),
            (),
        )


class TestGuardNormalization:
    @given(
        st.sampled_from([">", ">=", "=", "<=", "<"]),
        st.integers(-5, 5),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    def test_normalized_equivalent_over_naturals(self, rel, off, t1, t2):
        c = TimeConstraint("A", rel, "B", off)
        n = c.normalized()
        assert n.rel in (">", "=")
        binding = {"A": t1, "B": t2}
        assert c.satisfied(binding) == n.satisfied(binding)


class TestClassification:
    def test_flight_rule_progressing(self, worked_example):
        board = worked_example.system_rules[0]
        c = classify_rule(board, worked_example.signature)
        assert c.balanced and c.progressing and c.role_valid
        assert c.violations == ()

    def test_flight_delay_update_is_valid_sur(self, travel):
        delay = next(r for r in travel.update_rules if r.name == "delay_flight2")
        c = classify_rule(delay, travel.signature)
        assert c.balanced and c.progressing and c.role_valid

    def test_future_consumption_fails_clause_two(self):
        sig = simple_sig()
        rule = Rule(
            "early",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1),),
            (TimeConstraint("T", "<", "T1"),),
        )
        c = classify_rule(rule, sig)
        assert c.balanced and not c.progressing
        assert any("progressing(ii)" in v for v in c.violations)

    def test_unbalanced_rule(self):
        sig = simple_sig()
        rule = Rule(
            "grow",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1), CreatedFact(Atom("N"), 2)),
            (),
        ).with_past_consumption()
        c = classify_rule(rule, sig)
        assert not c.balanced and not c.progressing
        assert any("progressing(i)" in v for v in c.violations)

    def test_no_future_creation_fails_clause_three(self):
        sig = simple_sig()
        rule = Rule(
            "flat",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 0),),
            (),
        ).with_past_consumption()
        c = classify_rule(rule, sig)
        assert not c.progressing
        assert any("progressing(iii)" in v for v in c.violations)

    def test_entailed_past_consumption_counts(self):
        # T2 + 30 <= T entails T >= T2 without the implicit constraint
        sig = simple_sig()
        rule = Rule(
            "entailed",
            (),
            (FactPattern(Atom("N"), "T2"),),
            (CreatedFact(Atom("M"), 1),),
            (TimeConstraint("T2", "<=", "T", -30),),
        )
        assert classify_rule(rule, sig).progressing

    def test_goal_update_must_touch_goal_facts(self, travel):
        shift = next(r for r in travel.update_rules if r.name == "shift_event")
        assert classify_rule(shift, travel.signature).role_valid
        sig = simple_sig()
        bogus = Rule(
            "gur",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1),),
            (),
            RuleRole.GOAL_UPDATE,
        ).with_past_consumption()
        c = classify_rule(bogus, sig)
        assert not c.role_valid
        assert any("goal-update" in v for v in c.violations)

    def test_roles_are_checked_per_signature(self):
        # the same rule object under two signatures: the rule-only half of the
        # classification is kept on the rule, the role half must not be
        rule = Rule(
            "grow",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1), CreatedFact(Atom("N"), 2)),
            (),
        ).with_past_consumption()
        goal_n = make_signature(
            ["t"], {}, {"N": (), "M": ()}, {"N": Role.GOAL, "M": Role.SYSTEM}
        )
        for _ in range(2):
            plain = classify_rule(rule, simple_sig())
            assert plain.role_valid
            assert plain.violations == (
                "progressing(i)/balanced: 1 consumed vs 2 created",
            )
            goal = classify_rule(rule, goal_n)
            assert not goal.role_valid
            assert goal.violations == (
                "progressing(i)/balanced: 1 consumed vs 2 created",
                "role(system): consumes N, a planning fact",
                "role(system): creates N, a planning fact",
            )


class TestBruteForceAgreement:
    def test_matches_equal_brute_enumeration(self):
        mismatches = []
        for seed in range(40):
            scenario = random_scenario(seed, progressing=(seed % 2 == 0))
            config = scenario.initial
            for rule in scenario.system_rules:
                engine = {i.key() for i in find_matches(rule, config)}
                brute = brute_find_matches(rule, config, scenario.signature)
                if engine != brute:
                    mismatches.append((seed, rule.name, engine, brute))
        assert not mismatches, mismatches[:3]

    def test_matches_equal_brute_on_explored_states(self):
        scenario = random_scenario(7, progressing=True)
        frontier = [scenario.initial]
        seen = 0
        while frontier and seen < 25:
            config = frontier.pop()
            seen += 1
            for rule in scenario.system_rules:
                engine = {i.key() for i in find_matches(rule, config)}
                assert engine == brute_find_matches(rule, config, scenario.signature)
            for _, nxt in list(successors(config, scenario.system_rules))[:2]:
                frontier.append(nxt)

    def test_guarded_rules_equal_brute_enumeration(self):
        """Anchored guards, offsets, equality chains, side conditions,
        repeated predicates and fresh variables, on initial and explored
        states (including states holding fresh constants)."""
        rng = random.Random(11)
        mismatches = []
        matched = 0
        for seed in range(30):
            scenario = random_scenario(seed, progressing=False, with_updates=True)
            rules = [random_guarded_rule(rng, f"g{i}") for i in range(10)]
            configs = explored_states(scenario, 8)
            for rule in rules:
                for inst in find_matches(rule, scenario.initial)[:1]:
                    configs.append(apply_instance(scenario.initial, inst))
            for config in configs:
                for rule in rules:
                    engine = {i.key() for i in find_matches(rule, config)}
                    brute = brute_find_matches(rule, config, scenario.signature)
                    matched += bool(engine)
                    if engine != brute:
                        mismatches.append((seed, str(rule), str(config), engine, brute))
        assert not mismatches, mismatches[:3]
        assert matched > 100  # the generator must reach the matching paths


class TestBalancePreservation:
    def test_every_explored_configuration_keeps_m_facts(self):
        for seed in range(15):
            scenario = random_scenario(seed, progressing=False)
            m = len(scenario.initial)
            frontier = [scenario.initial]
            visited = 0
            while frontier and visited < 60:
                config = frontier.pop()
                visited += 1
                assert len(config) == m
                for _, nxt in successors(config, scenario.rules()):
                    if visited + len(frontier) < 60:
                        frontier.append(nxt)
