from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import sys
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_find_matches,
    brute_match_spec,
    explored_states,
    qbf_mix,
    random_guarded_rule,
    random_scenario,
    random_spec,
)
from msrplan import rules
from msrplan.kernel import (
    Configuration,
    Constant,
    FreshConstant,
    KernelError,
    Role,
    TimedFact,
    Variable,
    make_signature,
)
from msrplan.reductions import (
    Graph,
    brute_force_homomorphism,
    graph_goal_spec,
    graph_host,
    qbf_to_scenario,
)
from msrplan.resilience import ResilienceQuery, check_resilience, verify_witness
from msrplan.rules import (
    HOT_CALLS,
    MAX_LOOPS,
    Atom,
    CreatedFact,
    EngineError,
    FactPattern,
    MatchPlan,
    Rule,
    RuleError,
    RuleInstance,
    RuleRole,
    TimeConstraint,
    _emit,
    apply_instance,
    classify_rule,
    find_matches,
    tick,
)
from msrplan.scenario import load_bundled
from msrplan.search import find_compliant_goal_trace, successors
from msrplan.specs import (
    ConfigSpec,
    SpecKind,
    SpecPair,
    Trace,
    TraceStep,
    match_spec,
    replay_errors,
)
from reference import ground, interpret_matches, reapply, satisfied


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
        # no tier tests a type, so a typed variable binds either constant as
        # an untyped one does; the two bindings render alike but are
        # distinct instances
        for btype in ("obj", ""):
            rule = Rule(
                "take",
                (),
                (FactPattern(Atom("G0", (Variable("x", btype),)), "T1"),),
                (CreatedFact(Atom("N"), 1),),
                (),
            )
            assert [i.sigma["x"] for i in find_matches(rule, config)] == [a, a2]
            rule.plan.generate()
            assert [i.sigma["x"] for i in find_matches(rule, config)] == [a, a2]

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
        assert str(inst.sigma["w"]) == "#t:0"
        after = apply_instance(config, inst)
        [inst2] = find_matches(rule, after)
        assert str(inst2.sigma["w"]) == "#t:1"
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
        assert inst.sigma["w"] == FreshConstant("t", 1)

    def test_applicable_only_with_distinct_unused_fresh_constants_of_their_type(self):
        """Trace replay and the reference check apply a minting step only
        when its fresh variables hold distinct fresh constants of their type
        that no fact holds; replay reports any other step as not
        applicable."""
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
        assert (inst.sigma["v"], inst.sigma["w"]) == (FreshConstant("t", 1), FreshConstant("t", 2))

        def rebound(**terms) -> RuleInstance:
            sigma = {**inst.sigma, **terms}
            return RuleInstance(rule, tuple(sorted(sigma.items())))

        def replayed(step: RuleInstance, result: Configuration = config) -> list[str]:
            return replay_errors(Trace(config, (TraceStep(step, result),)))

        assert reapply(inst, config) == apply_instance(config, inst)
        for good in (inst, rebound(w=FreshConstant("t", 7))):
            after = reapply(good, config)
            assert after is not None and replayed(good, after) == []
        missing = RuleInstance(rule, tuple(b for b in inst.bindings if b[0] != "w"))
        for bad in (
            rebound(w=a),  # a declared constant already in the configuration
            rebound(w=Constant("b", "t")),  # a declared constant, even if absent
            rebound(w=FreshConstant("u", 2)),  # a fresh constant of another type
            rebound(w=FreshConstant("t", 1)),  # the same constant as v
            rebound(w=used),  # a fresh constant already in the configuration
            missing,  # no binding for w
        ):
            assert replayed(bad) == [f"step 1: instance {bad.key()} not applicable"]
            assert reapply(bad, config) is None

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
        with pytest.raises(KernelError, match=r"^cannot remove absent fact N@0$"):
            apply_instance(after, inst)

    def test_instance_without_matched_facts_is_refused(self):
        """Only an instance `find_matches` returned applies: one built from
        the same bindings carries no facts and raises."""
        rule = Rule(
            "eat",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (CreatedFact(Atom("M"), 1),),
            (),
        ).with_past_consumption()
        config = Configuration([fact("Time", 0), fact("N", 0)])
        [inst] = find_matches(rule, config)
        plain = RuleInstance(rule, inst.bindings)
        message = (
            r"^instance eat\{T=0,T1=0\} carries no matched facts: only an instance "
            r"find_matches returned can be applied$"
        )
        with pytest.raises(EngineError, match=message):
            apply_instance(config, plain)

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
        assert config.counts()[fact("N", 0)] == 1  # input untouched

    def test_created_template(self):
        """Created atoms fill variables and constants into the rule's
        template."""
        x, a, b = Variable("x", "t"), Constant("a", "t"), Constant("b", "t")
        rule = Rule(
            "copy",
            (),
            (FactPattern(Atom("P", (x,)), "T1"),),
            (CreatedFact(Atom("R", (b, x, a)), 1),),
            (),
        ).with_past_consumption()
        assert rule.creation == (("R", ((None, b), ("x", None), (None, a)), 1),)
        config = Configuration([fact("Time", 0), fact("P", 0, a)])
        [inst] = find_matches(rule, config)
        want = [fact("R", 1, b, a, a)]
        assert apply_instance(config, inst) == Configuration([fact("Time", 0), *want])


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
        with pytest.raises(RuleError, match="rule mint: fresh variable w has no type"):
            Rule(
                "mint",
                (),
                (FactPattern(Atom("N"), "T1"),),
                (CreatedFact(Atom("P", (Variable("w", ""),)), 1),),
                (),
            )
        # a fresh variable is typed by its first created occurrence
        typed = Rule(
            "mint",
            (),
            (FactPattern(Atom("N"), "T1"),),
            (
                CreatedFact(Atom("P", (Variable("w", "t"),)), 1),
                CreatedFact(Atom("Q", (Variable("w", "u"), Variable("v", "u"))), 1),
            ),
            (),
        )
        assert typed.fresh == (("v", "u"), ("w", "t"))

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
        assert satisfied(c, binding) == satisfied(n, binding)


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
            for rule in rules:  # a plan binds in declaration order
                assert rule.plan.patterns == (*rule.side, *rule.consumed), str(rule)
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


def _rule_plan(rule: Rule) -> MatchPlan:
    """A new plan for `rule`'s precondition, built as `Rule.plan` builds it."""
    return MatchPlan(
        (*rule.side, *rule.consumed), rule.guard, clock=("T",),
        precondition=True, consumed=len(rule.consumed),
    )


def _pair_plan(pattern, constraints=()) -> MatchPlan:
    """A new plan for the pair of `pattern` and `constraints`, built by
    `SpecPair.plan`, which binds the variables of `Time` patterns to the
    global time."""
    return SpecPair(tuple(pattern), tuple(constraints)).plan


def _fresh_plans(scenario) -> list[MatchPlan]:
    """New plans for every rule and specification pair of `scenario`, so no
    test sees a tier that another one brought about."""
    plans = [_rule_plan(r) for r in scenario.rules()]
    for spec in (scenario.goal_spec, scenario.critical_spec):
        plans += [_pair_plan(pair.pattern, pair.constraints) for pair in spec.pairs]
    return plans


def _same_tiers(plans: list[MatchPlan], configs: list[Configuration]) -> int:
    """Assert that each generated plan returns what its interpreter returns,
    list and key order included, and for a precondition the same fact
    objects, each one of the configuration's distinct facts (`by_pred`); the
    number of bindings compared."""
    found = 0
    for plan in plans:
        if not plan.generable:  # stays interpreted
            continue
        generated = plan.generate()
        for config in configs:
            want = plan.interpret(config)
            got = generated(config)
            if plan.precondition:
                assert [(list(b.items()), f) for b, f in got] == [
                    (list(b.items()), f) for b, f in want
                ], plan.source
                present = {id(f) for group in config.by_pred().values() for f in group}
                for (_, held), (_, expected) in zip(got, want):
                    assert len(held) == plan.consumed
                    for f, g in zip(held, expected):
                        assert f is g and id(f) in present, plan.source
            else:
                assert [list(b.items()) for b in got] == [list(b.items()) for b in want], (
                    plan.source
                )
            found += len(want)
    return found


class TestGeneratedTier:
    """The generated tier of `MatchPlan` against its interpreter."""

    def test_scenario_plans(self, travel, minimal):
        scenarios = [travel, minimal]
        scenarios += [
            random_scenario(seed, progressing=seed % 2 == 0, with_updates=True)
            for seed in range(40)
        ]
        found = 0
        for scenario in scenarios:
            found += _same_tiers(_fresh_plans(scenario), explored_states(scenario, 60))
        assert found > 1000

    def test_qbf_plans(self):
        found = 0
        for formula in qbf_mix()[:40]:
            scenario = qbf_to_scenario(formula)
            found += _same_tiers(_fresh_plans(scenario), explored_states(scenario, 30))
        assert found > 1000

    def test_random_rule_and_spec_plans(self):
        rng = random.Random(12)
        found = 0
        for seed in range(60):
            scenario = random_scenario(seed, progressing=seed % 3 == 0, with_updates=True)
            states = explored_states(scenario, 40)
            plans = []
            for k in range(4):
                rule = random_guarded_rule(rng, f"g{k}")
                plans.append(_rule_plan(rule))
                pair = random_spec(rng, SpecKind.GOAL).pairs[0]
                plans.append(MatchPlan(pair.pattern, pair.constraints))
            found += _same_tiers(plans, states)
        assert found > 1000

    def test_time_pattern_plans(self, travel):
        """Specification pairs that mention `Time` anywhere: the pair's plan
        binds a `Time` pattern's variable to the global time on both tiers,
        also when the pattern is not first, when there are two, and when an
        earlier pattern's variable constrains it."""
        clock = lambda tvar: FactPattern(Atom("Time"), tvar)
        beat = FactPattern(Atom("ClockBeat"), "T1")
        deadline = FactPattern(Atom("Deadline", (Variable("e", "eid"),)), "T2")
        pairs = [
            ((beat, clock("T")), (TimeConstraint("T1", "<", "T"),)),
            ((clock("T"), beat, clock("T3")), (TimeConstraint("T3", "<", "T1"),)),
            ((beat, clock("T")), (TimeConstraint("T", "=", "T1", -1),)),
            (
                (deadline, beat, clock("T")),
                (TimeConstraint("T", "<=", "T2", -60), TimeConstraint("T", ">=", "T1", -1)),
            ),
        ]
        plans = [_pair_plan(pattern, constraints) for pattern, constraints in pairs]
        assert _same_tiers(plans, explored_states(travel, 80)) > 100
        rng = random.Random(16)
        found = 0
        for seed in range(60):
            scenario = random_scenario(seed, progressing=seed % 2 == 0, with_updates=True)
            plans = []
            for _ in range(4):
                pair = random_spec(rng, SpecKind.GOAL).pairs[0]
                pattern = list(pair.pattern)
                others = [p.tvar for p in pattern]
                for tvar in ("T", "T9")[: rng.randint(1, 2)]:
                    pattern.insert(rng.randint(0, len(pattern)), clock(tvar))
                link = TimeConstraint(
                    "T", rng.choice(("<", "<=", "=", ">=", ">")), rng.choice(others),
                    rng.randint(-2, 2),
                )
                plans.append(_pair_plan(pattern, (*pair.constraints, link)))
            found += _same_tiers(plans, explored_states(scenario, 30))
        assert found > 200

    def test_type_twins_on_both_tiers(self):
        """Constants that share a name but not a type are different terms on
        both tiers: the generated tier compares argument keys, which hold the
        type, where the interpreter compares terms."""
        a, a2, b = Constant("a", "obj"), Constant("a", "obj2"), Constant("b", "obj")
        x, y = Variable("x", ""), Variable("y", "")
        patterns = [
            (FactPattern(Atom("Q", (a, y)), "T1"),),
            (FactPattern(Atom("Q", (a, b)), "T1"),),
            (FactPattern(Atom("P", (x,)), "T1"), FactPattern(Atom("Q", (x, y)), "T2")),
            (FactPattern(Atom("P", (x,)), "T1"), FactPattern(Atom("Q", (b, x)), "T2")),
            (FactPattern(Atom("Q", (x, x)), "T1"),),
        ]
        pool = [fact("P", 0, a), fact("P", 0, a2), fact("Q", 0, a, b), fact("Q", 0, a2, b),
                fact("Q", 0, b, a2), fact("Q", 0, a, a2), fact("Q", 0, a2, a2)]
        configs = [
            Configuration([fact("Time", 0), *facts])
            for k in (1, 2, 3) for facts in itertools.combinations(pool, k)
        ]
        plans = [MatchPlan(pattern, ()) for pattern in patterns]
        plans += [
            MatchPlan(pattern, (), clock=("T",), precondition=True, consumed=len(pattern))
            for pattern in patterns
        ]
        assert _same_tiers(plans, configs) > 100
        for pattern, plan in zip(patterns, plans):
            spec = ConfigSpec(SpecKind.GOAL, (SpecPair(pattern),))
            hits = [bool(plan.bindings(c)) for c in configs]
            assert hits == [brute_match_spec(spec, c) for c in configs]
            assert 0 < sum(hits) < len(configs)

    def test_interpreter_compares_keys_not_terms(self, travel, monkeypatch):
        """The interpreter decides argument equality on sort keys, as the
        generated tier does: matching explored travel states and graph pairs
        on it calls no constant's ``__eq__``."""
        calls = Counter()
        for cls in (Constant, FreshConstant):
            def counted(self, other, eq=cls.__eq__, name=cls.__name__):
                calls[name] += 1
                return eq(self, other)
            monkeypatch.setattr(cls, "__eq__", counted)
        found = 0
        for config in explored_states(travel, 60):
            for rule in travel.rules():
                found += len(interpret_matches(rule, config))
            for spec in (travel.goal_spec, travel.critical_spec):
                found += any(p.plan.interpret(config) for p in spec.pairs)
        names = tuple("abc")
        graphs = [
            Graph(names, edges)
            for edges in itertools.combinations([(u, v) for u in names for v in names], 3)
        ][::7]
        for g in graphs:
            spec = graph_goal_spec(g)
            for k in graphs:
                host = graph_host(k)
                found += any(p.plan.interpret(host) for p in spec.pairs)
        assert found > 100
        assert not calls, calls

    def test_loop_limit_boundary(self):
        """A graph specification of `MAX_LOOPS` edges turns hot as one
        function; with one edge more its function would not compile, so that
        plan stays interpreted however often it is called.  Both plans agree
        with the brute-force oracle."""
        rng = random.Random(21)
        names = tuple("abcde")
        every = tuple((u, v) for u in names for v in names)
        hosts = [Graph(("u",), (("u", "u"),)), Graph(names, every)]
        for _ in range(20):
            vertices = tuple("uvwxyz"[: rng.randint(2, 6)])
            hosts.append(
                Graph(vertices, tuple((u, v) for u in vertices for v in vertices if rng.random() < 0.6))
            )
        configs = [graph_host(k) for k in hosts]
        for size in (MAX_LOOPS, MAX_LOOPS + 1):
            g = Graph(names, every[:size])
            [pair] = graph_goal_spec(g).pairs
            assert len(pair.pattern) == size
            plan = MatchPlan(pair.pattern, pair.constraints)
            want = [brute_force_homomorphism(g, k) is not None for k in hosts]
            assert 0 < sum(want) < len(hosts)
            for _ in range(HOT_CALLS // len(configs) + 1):
                assert [bool(plan.bindings(c)) for c in configs] == want
            if size == MAX_LOOPS:
                assert plan.source is not None
                assert plan.source.count("def ") == 1
                assert _same_tiers([MatchPlan(pair.pattern, pair.constraints)], configs) >= 2
            else:
                assert plan.source is None
                with pytest.raises(SyntaxError):
                    compile(_emit(plan)[0], "<too deep>", "exec")

    def test_travel_system_plans_turn_hot(self):
        scenario = load_bundled("travel.msr")
        assert all(r.plan.source is None for r in scenario.rules())
        assert check_resilience(scenario, ResilienceQuery(1, 12, 220)).resilient
        assert all(r.plan.source is not None for r in scenario.system_rules)

    def test_hot_plans_have_their_own_file_names(self):
        """Profiles label generated code by file name; each plan's lists its
        patterns in step order."""
        scenario = load_bundled("travel.msr")
        assert check_resilience(scenario, ResilienceQuery(1, 12, 220)).resilient
        plans = [r.plan for r in scenario.system_rules if r.plan.source is not None]
        names = [plan.bindings.__code__.co_filename for plan in plans]
        assert len(plans) >= 2 and len(set(names)) == len(names)
        first = plans[0]
        assert names[0] == f"<match plan {', '.join(map(str, first.patterns))}>"

    def test_a_cold_plan_turns_hot_through_its_one_entry(self, travel):
        """`find_matches` reaches a rule's plan through `bindings` alone:
        the method counts and interprets up to `HOT_CALLS` calls, then the
        generated function takes its name and counts nothing."""
        rule = dataclasses.replace(travel.system_rules[0])  # a plan of its own
        plan = rule.plan
        states = explored_states(travel, 40)

        def agree(config: Configuration) -> None:
            got = [i.key() for i in find_matches(rule, config)]
            assert got == [i.key() for i in interpret_matches(rule, config)]

        for k in range(HOT_CALLS):
            assert plan.source is None and "bindings" not in vars(plan)
            agree(states[k % len(states)])
        assert plan.calls == HOT_CALLS and plan.source is not None
        hot = vars(plan)["bindings"]
        assert hot.__code__.co_filename.startswith("<match plan ")
        for config in states:
            agree(config)
        assert plan.calls == HOT_CALLS and vars(plan)["bindings"] is hot

    def test_callers_test_no_tier(self, travel):
        """`find_matches` and `match_spec` call a plan's `bindings`, cold
        or hot, once per rule or pair and nothing else of the plan."""
        rule = dataclasses.replace(travel.system_rules[0])
        spec = ConfigSpec(SpecKind.GOAL, tuple(map(dataclasses.replace, travel.goal_spec.pairs)))
        plans = [rule.plan] + [pair.plan for pair in spec.pairs]
        for hot in (False, True):
            calls = []
            for plan in plans:
                if hot:
                    plan.generate()
                plan.bindings = lambda config, plan=plan: calls.append(plan) or []
            assert find_matches(rule, travel.initial) == []
            assert match_spec(spec, travel.initial) is None
            assert calls == plans
            assert all(plan.calls == 0 for plan in plans)

    def test_plans_are_no_reference_cycles(self, travel):
        """A plan, cold, hot or never generable, and a hot plan's function
        are freed by their last reference, without the cycle collector: the
        graph reduction builds one plan per query."""
        states = explored_states(travel, 10)
        never = (FactPattern(Atom("ClockBeat"), "T1"),), (TimeConstraint("T1", ">", "T1"),)
        gc.disable()
        try:
            for tier in ("cold", "hot", "never"):
                if tier == "never":
                    plan = MatchPlan(*never)
                    assert not plan.generable
                else:
                    plan = _rule_plan(travel.system_rules[0])
                refs = [weakref.ref(plan)]
                if tier == "hot":
                    refs.append(weakref.ref(plan.generate()))
                for config in states:
                    plan.bindings(config)
                del plan
                assert [ref() for ref in refs] == [None] * len(refs), tier
        finally:
            gc.enable()

    def test_verifier_runs_no_generated_code(self):
        """Every plan the check used, hot or not, is made to raise on its
        one entry; the verifier still accepts the witness."""
        scenario = load_bundled("travel.msr")
        query = ResilienceQuery(1, 12, 220)
        result = check_resilience(scenario, query)

        def broken(config):
            raise AssertionError("generated code ran")

        plans = [r.plan for r in scenario.rules()] + [
            pair.plan
            for spec in (scenario.goal_spec, scenario.critical_spec)
            for pair in spec.pairs
        ]
        for plan in plans:
            plan.bindings = broken
        with pytest.raises(AssertionError, match="generated code ran"):
            find_matches(scenario.system_rules[0], scenario.initial)
        assert verify_witness(scenario, query, result.witness) == (True, [])

    def test_shared_plan_under_threads(self, travel):
        """Threads share one cold plan past `HOT_CALLS`: every call returns
        the interpreter's bindings, and the plan ends generated however its
        counter's increments interleave."""
        plan = _rule_plan(travel.system_rules[0])
        states = explored_states(travel, 40)
        want = [plan.interpret(c) for c in states]
        wrong: list[int] = []

        def work() -> None:
            for _ in range(HOT_CALLS // len(states) + 2):
                for c, expected in zip(states, want):
                    if plan.bindings(c) != expected:
                        wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert plan.source is not None

    def test_plans_compute_groups_never_computed(self, travel):
        """A generated plan reads the configuration's groups from their slot;
        on a configuration whose groups were never computed it computes
        them, and finds what it finds once they are."""
        scenarios = [travel] + [qbf_to_scenario(formula) for formula in qbf_mix()[:10]]
        found = 0
        for scenario in scenarios:
            plans = [plan for plan in _fresh_plans(scenario) if plan.generable]
            for plan in plans:
                plan.generate()
            for config in explored_states(scenario, 30):
                for plan in plans:
                    bare = Configuration(config.canonical_order())
                    assert bare._by_pred is None
                    got = plan.bindings(bare)
                    assert bare._by_pred is not None
                    assert got == plan.bindings(bare) == plan.bindings(config)
                    assert got == plan.interpret(config)
                    found += len(got)
        assert found > 500

    def test_generated_source_is_pinned(self, worked_example, travel):
        """The code generated for a rule and for a specification pair, so a
        change to either shows in review."""
        text = "Time@T, ClockBeat@T1 | T1 < T"
        beat = next(p for p in travel.critical_spec.pairs if str(p) == text)
        pins = [
            (_rule_plan(worked_example.system_rules[0]),
             "1ad453e631a5c8284d61a0685db6f1be1ebbfa3b4aa057f871c44319f665564b"),
            (_pair_plan(beat.pattern, beat.constraints),
             "8ce168a86cd06775120f81a51da89b432a108d7d8fad7923a458f4d2499636b0"),
        ]
        for plan, digest in pins:
            plan.generate()
            assert hashlib.sha256(plan.source.encode()).hexdigest() == digest, plan.source


def _criterion6_patterns() -> list[Graph]:
    """The 500 random pattern graphs of criterion 6, drawn as it draws them
    (seed 66, each followed by its host graph's draws)."""
    rng = random.Random(66)
    graphs = []
    for _ in range(500):
        nv_g, nv_k = rng.randint(1, 5), rng.randint(1, 5)
        names = "abcde"[:nv_g]
        edges = tuple((u, v) for u in names for v in names if rng.random() < 0.35)
        for _ in range(nv_k * nv_k):
            rng.random()
        graphs.append(Graph(tuple(names), edges))
    return graphs


class TestCompiledSteps:
    def test_steps_are_pinned(self, travel, minimal):
        """Every compiled step, forward checks included, of the plans of
        the bundled scenarios, `qbf_mix()`, criterion 6's pattern graphs and
        random rules and pairs, so a change to how a step is compiled shows
        here even when no match changes."""
        scenarios = [travel, minimal] + [qbf_to_scenario(q) for q in qbf_mix()]
        plans = [r.plan for s in scenarios for r in s.rules()]
        plans += [
            p.plan for s in scenarios for p in (*s.goal_spec.pairs, *s.critical_spec.pairs)
        ]
        plans += [graph_goal_spec(g).pairs[0].plan for g in _criterion6_patterns()]
        rng = random.Random(40)
        for k in range(200):
            plans += [pair.plan for pair in random_spec(rng, SpecKind.GOAL).pairs]
            plans.append(random_guarded_rule(rng, f"g{k}").plan)
        digest = hashlib.sha256()
        for plan in plans:
            digest.update(repr((plan.steps, plan.never, plan.preds, plan.claims)).encode())
        assert sum(len(step.checks) for plan in plans for step in plan.steps) > 100
        assert digest.hexdigest() == (
            "5b7f0c6dc1223b159c966778f2aa3e58e9e2efb9c4c557578238aa62be18357d"
        )


class TestClockVariables:
    """A plan binds the variables that read the global time, a rule's ``T``
    and a pair's `SpecPair.clock`, before its join: no step matches `Time`."""

    @staticmethod
    def _clocked_pairs(rng: random.Random, count: int, names=("T", "T9")) -> list[SpecPair]:
        """`random_spec` pairs with ``Time@T``, and sometimes ``Time`` at the
        other `names`, inserted anywhere, and ``T`` linked to a pattern's
        variable."""
        pairs = []
        for _ in range(count):
            pair = random_spec(rng, SpecKind.GOAL).pairs[0]
            pattern = list(pair.pattern)
            others = [p.tvar for p in pattern]
            for tvar in names[: rng.randint(1, len(names))]:
                pattern.insert(rng.randint(0, len(pattern)), FactPattern(Atom("Time"), tvar))
            link = TimeConstraint(
                "T", rng.choice(("<", "<=", "=", ">=", ">")), rng.choice(others),
                rng.randint(-2, 2),
            )
            pairs.append(SpecPair(tuple(pattern), (*pair.constraints, link)))
        return pairs

    def test_no_plan_has_a_time_step(self, travel, minimal, worked_example):
        scenarios = [travel, minimal, worked_example] + [qbf_to_scenario(q) for q in qbf_mix()]
        plans = [r.plan for s in scenarios for r in s.rules()]
        assert all(plan.clock == ("T",) for plan in plans)
        pairs = [p for s in scenarios for p in (*s.goal_spec.pairs, *s.critical_spec.pairs)]
        pairs += self._clocked_pairs(random.Random(41), 60)
        for pair in pairs:
            assert pair.plan.clock == pair.clock and pair.plan.patterns == pair.joined
            plans.append(pair.plan)
        assert sum(len(pair.clock) for pair in pairs) > 90
        assert all(step.pred != "Time" for plan in plans for step in plan.steps)

    def test_two_clock_patterns(self, travel):
        """A further `Time` pattern, at ``U``, reads the global time again.
        Linked by ``U = T + 1`` the pair never matches; linked by ``U >= T``
        it matches where the pair without it matches, with the same binding
        and ``U`` bound to the global time: on both tiers and as brute force
        decides."""
        rng = random.Random(43)
        cases = [(pair, explored_states(travel, 40)) for pair in travel.critical_spec.pairs]
        cases += [(pair, _dense_configs(rng, 4)) for pair in self._clocked_pairs(rng, 30, ("T",))]
        clock = FactPattern(Atom("Time"), "U")
        matched = total = 0
        for base, configs in cases:
            assert "T" in base.clock
            step, link = TimeConstraint("U", "=", "T", 1), TimeConstraint("U", ">=", "T")
            never = SpecPair((*base.pattern, clock), (*base.constraints, step))
            later = SpecPair((clock, *base.pattern), (*base.constraints, link))
            assert never.plan.never and later.clock == ("U", *base.clock)
            hot = later.plan.generate() if later.plan.generable else later.plan.interpret
            for config in configs:
                want = [{**b, "U": config.global_time} for b in base.plan.interpret(config)]
                assert later.plan.interpret(config) == want == hot(config), str(later)
                assert never.plan.interpret(config) == []
                for pair, hit in ((later, bool(want)), (never, False)):
                    assert brute_match_spec(ConfigSpec(SpecKind.GOAL, (pair,)), config) == hit
                matched += bool(want)
                total += 1
        assert 30 < matched < total

    def test_clock_only_pairs(self, travel):
        """A pair of `Time` patterns alone has no step: it matches every
        configuration, binding its clock variables to the global time, or
        none, as its constraints decide."""
        clock = lambda tvar: FactPattern(Atom("Time"), tvar)
        cases = [
            (SpecPair((clock("T"),)), True),
            (SpecPair((clock("T"), clock("T"))), True),
            (SpecPair((clock("U"), clock("T")), (TimeConstraint("U", "<=", "T"),)), True),
            (SpecPair((clock("T"), clock("U")), (TimeConstraint("U", ">", "T"),)), False),
        ]
        for pair, hit in cases:
            spec = ConfigSpec(SpecKind.GOAL, (pair,))
            assert pair.joined == () and pair.plan.steps == () and spec.clocked == spec
            for config in explored_states(travel, 10):
                want = (0, dict.fromkeys(pair.clock, config.global_time)) if hit else None
                assert match_spec(spec, config) == want
                assert brute_match_spec(spec, config) == hit

    def test_a_plan_refuses_a_time_pattern(self):
        """A caller that hands a plan a `Time` pattern, instead of its
        variable as a clock name, fails instead of matching nothing."""
        with pytest.raises(RuleError, match="Time"):
            MatchPlan((FactPattern(Atom("P", ()), "T1"), FactPattern(Atom("Time"), "T")), ())


def _long_rule() -> tuple[Rule, Configuration]:
    """A rule of 12 patterns at ``T``, 4 side and 8 consumed, and a
    configuration holding 8 of its matches."""
    patterns = [FactPattern(Atom(f"P{k}", (Variable(f"x{k}", "obj"),)), "T") for k in range(12)]
    rule = Rule(
        "long", tuple(patterns[:4]), tuple(patterns[4:]), (CreatedFact(Atom("Done"), 1),), ()
    )
    a, b = Constant("a", "obj"), Constant("b", "obj")
    facts = [fact("Time", 0)] + [fact(f"P{k}", 0, a) for k in range(12)]
    facts += [fact(f"P{k}", 0, b) for k in (0, 5, 11)]
    return rule, Configuration(facts)


def _unchecked(plan: MatchPlan) -> MatchPlan:
    """`plan` with every forward check taken out of its steps."""
    plan.steps = tuple(step._replace(checks=()) for step in plan.steps)
    return plan


def _items(found: list) -> list:
    """A plan's result with each binding's key order and each precondition
    binding's facts made comparable."""
    return [
        list(b.items()) if isinstance(b, dict) else (list(b[0].items()), b[1]) for b in found
    ]


def _dense_configs(rng: random.Random, count: int) -> list[Configuration]:
    """Configurations at global time 2 that hold each ground atom of the
    random-scenario predicates at times 0-2, up to twice, each with one of
    three densities."""
    pool = [("R", ())]
    pool += [(p, (Constant(x, "obj"),)) for p in ("P", "S0") for x in "abc"]
    pool += [("Q", (Constant(x, "obj"), Constant(y, "obj"))) for x in "abc" for y in "abc"]
    configs = []
    for _ in range(count):
        density = rng.choice((0.2, 0.35, 0.5))
        facts = [fact(p, ts, *args) for p, args in pool for ts in (0, 1, 2, 2)]
        configs.append(
            Configuration([fact("Time", 2)] + [f for f in facts if rng.random() < density])
        )
    return configs


def _digraph(rng: random.Random) -> Graph:
    """A digraph drawn as the graph-goal benchmark draws its pairs."""
    names = tuple("abcdef"[: rng.randint(4, 6)])
    return Graph(names, tuple((u, v) for u in names for v in names if rng.random() < 0.35))


class TestForwardChecks:
    """The interpreter's forward checks (`MatchPlan`) drop only candidates
    that no complete binding extends: every tier, with and without checks,
    returns the same list, and brute force agrees on whether it is empty."""

    @pytest.fixture()
    def outcomes(self, monkeypatch) -> Counter:
        """Counts of forward checks run and of candidates they dropped."""
        seen = Counter()
        possible = rules._possible

        def counted(*args):
            ok = possible(*args)
            seen["run"] += 1
            seen["dropped"] += not ok
            return ok

        monkeypatch.setattr(rules, "_possible", counted)
        return seen

    def test_random_specs(self, outcomes):
        """Pairs of three to five patterns with checks, matched as
        specification pairs and as preconditions, where patterns of one
        predicate claim distinct facts, over configurations that hold each
        ground atom of the random-scenario predicates at times 0-2, up to
        twice, with one of three densities."""
        rng = random.Random(23)
        checked = found = matched = 0
        for _ in range(150):
            configs = _dense_configs(rng, 8)
            for pair in random_spec(rng, SpecKind.GOAL, sizes=(3, 5)).pairs:
                spec = ConfigSpec(SpecKind.GOAL, (pair,))
                rule = {"clock": ("T",), "precondition": True, "consumed": len(pair.pattern)}
                for kind in ({}, rule):
                    build = lambda: MatchPlan(pair.pattern, pair.constraints, **kind)
                    plan, bare, hot = build(), _unchecked(build()), build()
                    if not any(step.checks for step in plan.steps):
                        continue
                    checked += 1
                    generated = hot.generate() if hot.generable else bare.interpret
                    for config in configs:
                        want = plan.interpret(config)
                        for got in (bare.interpret(config), generated(config)):
                            assert _items(got) == _items(want), (str(pair), kind)
                        if not kind:
                            assert bool(want) == brute_match_spec(spec, config), str(pair)
                            matched += bool(want)
                        found += len(want)
        assert checked > 60 and matched > 80 and found > 1000
        assert outcomes["dropped"] > 150 and outcomes["run"] > outcomes["dropped"]

    def test_digraph_pairs(self, outcomes):
        """Graph goal specifications against hosts, as the benchmark draws
        them: the same first homomorphism on every tier, and one exactly
        when brute force finds one."""
        rng = random.Random(31)
        hits = 0
        for _ in range(150):
            g, k = _digraph(rng), _digraph(rng)
            [pair] = graph_goal_spec(g).pairs
            host = graph_host(k)
            plan, bare, hot = (MatchPlan(pair.pattern, ()) for _ in range(3))
            want = plan.interpret(host)
            assert _items(_unchecked(bare).interpret(host)) == _items(want)
            if hot.generable:
                assert _items(hot.generate()(host)) == _items(want)
            assert bool(want) == (brute_force_homomorphism(g, k) is not None)
            hits += bool(want)
        assert 50 < hits < 140  # both verdicts occur
        assert outcomes["dropped"] > 200

    def test_checks_halve_the_join_on_digraph_pairs(self, monkeypatch):
        """An effort pin by count, not time: over 300 seeded digraph pairs
        the checked join makes at most half the `_extend` calls of the join
        without checks."""
        rng = random.Random(66)
        instances = []
        for _ in range(300):
            g, k = _digraph(rng), _digraph(rng)
            instances.append((graph_goal_spec(g).pairs[0].pattern, graph_host(k)))
        calls = Counter()
        extend = rules._extend

        def counted(*args):
            calls[mode] += 1
            return extend(*args)

        monkeypatch.setattr(rules, "_extend", counted)
        for mode in ("checked", "bare"):
            for pattern, host in instances:
                plan = MatchPlan(pattern, ())
                if mode == "bare":
                    _unchecked(plan)
                plan.interpret(host)
        assert calls["checked"] * 2 <= calls["bare"], calls

    def test_engine_plans_with_checks(self, travel, minimal):
        """Among the bundled scenarios' and QBF encodings' rules and pairs
        only travel's ``attend`` gets a check: its consumed ``Done(e, no)``
        is checked by the anchored ``Event(e, r)`` before ``At(DBV,
        center)`` is matched."""
        scenarios = [travel, minimal] + [qbf_to_scenario(q) for q in qbf_mix()[:40]]
        owners = set()
        for scenario in scenarios:
            plans = [(r.name, r.plan) for r in scenario.rules()]
            for spec in (scenario.goal_spec, scenario.critical_spec):
                plans += [(str(pair), pair.plan) for pair in spec.pairs]
            owners |= {name for name, plan in plans if any(s.checks for s in plan.steps)}
        assert owners == {"attend"}
        attend = next(r for r in travel.rules() if r.name == "attend")
        [step] = [s for s in attend.plan.steps if s.checks]
        assert step.pred == "Event" and [p for p, _ in step.checks] == ["Done"]


class TestCarriedFacts:
    """What a precondition's plan returns next to each binding: the facts it
    matched for the consumed patterns, which `find_matches` instances carry."""

    def _check(self, scenario, configs: list[Configuration], checked: Counter) -> None:
        """Carried facts equal the ones the reference grounds from the
        substitution, and the configuration built from them equals the one
        the reference builds from grounded facts; counts the instances
        checked by tier, "generated" or "interpreted"."""
        for config in configs:
            present = {id(f) for group in config.by_pred().values() for f in group}
            for rule in scenario.rules():
                found = find_matches(rule, config)
                assert [i.key() for i in found] == [
                    i.key() for i in interpret_matches(rule, config)
                ]
                for inst in found:
                    plain = RuleInstance(inst.rule, inst.bindings)
                    assert plain == inst and plain.facts is None
                    assert list(inst.facts) == ground(rule.consumed, inst.sigma)
                    assert all(id(f) in present for f in inst.facts)
                    carried = apply_instance(config, inst)
                    grounded = reapply(plain, config)
                    assert carried == grounded
                    assert carried.canonical_order() == grounded.canonical_order()
                    assert hash(carried) == hash(grounded)
                    checked["interpreted" if rule.plan.source is None else "generated"] += 1

    def test_explored_states(self, travel):
        checked: Counter = Counter()
        self._check(travel, explored_states(travel, 60), checked)
        for formula in qbf_mix()[:40]:
            scenario = qbf_to_scenario(formula)
            self._check(scenario, explored_states(scenario, 30), checked)
        for seed in range(40):
            scenario = random_scenario(seed, progressing=seed % 2 == 0, with_updates=True)
            self._check(scenario, explored_states(scenario, 40), checked)
        # which plans are hot depends on the tests run before; both tiers occur
        assert checked["generated"] > 200 and checked["interpreted"] > 500, checked
        assert sum(checked.values()) > 4000

    def test_verifier_instances_carry_nothing(self, travel):
        for config in explored_states(travel, 20):
            for rule in travel.rules():
                assert all(i.facts is None for i in interpret_matches(rule, config))

    def test_long_plan_carries_every_fact(self):
        """A 12-step plan is generated as one function whose bindings carry
        the facts of all 8 consumed steps."""
        rule, config = _long_rule()
        plan = rule.plan
        plan.generate()
        assert plan.source.count("def ") == 1
        assert _same_tiers([_rule_plan(rule)], [config]) == 8
        found = find_matches(rule, config)
        assert len(found) == 8
        for inst in found:
            assert [f.pred for f in inst.facts] == [f"P{k}" for k in range(4, 12)]
            assert list(inst.facts) == ground(rule.consumed, inst.sigma)
            after = apply_instance(config, inst)
            assert after == reapply(RuleInstance(rule, inst.bindings), config)
            assert len(after) == len(config) - 8 + 1


def _variants(inst: RuleInstance, constants: list[Constant]) -> list[RuleInstance]:
    """`inst` with one binding changed: a timestamp shifted by -1 or +1, a
    term swapped for the next declared constant or the next fresh one."""
    out = []
    for k, (var, value) in enumerate(inst.bindings):
        if isinstance(value, int):
            others = [t for t in (value - 1, value + 1) if t >= 0]
        elif isinstance(value, FreshConstant):
            others = [FreshConstant(value.base_type, value.index + 1)]
        else:
            others = [constants[(constants.index(value) + 1) % len(constants)]]
        for other in others:
            bindings = (*inst.bindings[:k], (var, other), *inst.bindings[k + 1:])
            out.append(RuleInstance(inst.rule, bindings))
    return out


class TestReapply:
    """The reference check (`reference.reapply`) agrees with the engine: on
    every match and on every match with one binding changed that the
    matcher finds too, it builds what `apply_instance` builds from the
    found instance, and a changed instance with the canonical fresh
    constants applies exactly when the matcher finds it."""

    def _check(self, scenario, configs: list[Configuration]) -> Counter:
        constants = sorted(
            (Constant(n, t) for n, t in scenario.signature.constants.items()),
            key=lambda c: c.name,
        )
        seen: Counter = Counter()
        for config in configs:
            for rule in scenario.rules():
                found = find_matches(rule, config)
                for inst in found:
                    assert reapply(inst, config) == apply_instance(config, inst)
                    for variant in [inst, *_variants(inst, constants)]:
                        got = reapply(variant, config)
                        if got is not None and variant in found:
                            match = found[found.index(variant)]
                            applied = apply_instance(config, match)
                            assert got.canonical_order() == applied.canonical_order()
                            assert got == applied and hash(got) == hash(applied)
                        # the matcher finds every applicable instance with
                        # the canonical fresh constants
                        if all(variant.sigma[v] == inst.sigma[v] for v, _ in rule.fresh):
                            assert (got is not None) == (variant in found)
                        seen["applies" if got is not None else "rejected"] += 1
        return seen

    def test_travel_and_qbf_states(self, travel):
        # the states near the start, and those a goal trace passes through,
        # where `ride_to_airport`'s guard T1 <= T also holds one unit later
        trace = find_compliant_goal_trace(travel, 232)
        states = [*explored_states(travel, 400), *trace.configurations()]
        seen = self._check(travel, states)
        assert seen["applies"] > 300 and seen["rejected"] > 1500, seen
        for formula in qbf_mix():
            scenario = qbf_to_scenario(formula)
            seen += self._check(scenario, explored_states(scenario, 3))
        assert seen["applies"] > 3000 and seen["rejected"] > 8000, seen
