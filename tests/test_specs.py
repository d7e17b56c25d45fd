from __future__ import annotations

import pytest

from conftest import brute_match_spec, random_scenario
from msrplan.kernel import Configuration, Constant, TimedFact, Variable
from msrplan.rules import Atom, FactPattern, TimeConstraint, tick
from msrplan.search import find_compliant_goal_trace, successors
from msrplan.specs import (
    ConfigSpec,
    SpecError,
    SpecKind,
    SpecPair,
    Trace,
    TraceStep,
    check_compliance,
    eta_measure,
    match_spec,
    replay_errors,
)


def fact(pred: str, ts: int, *args) -> TimedFact:
    return TimedFact(pred, tuple(args), ts)


def const(name: str, btype: str = "t") -> Constant:
    return Constant(name, btype)


def goal_spec() -> ConfigSpec:
    return ConfigSpec(
        SpecKind.GOAL,
        (
            SpecPair(
                (
                    FactPattern(
                        Atom("Attended", (const("main"), const("done"))), "T1"
                    ),
                    FactPattern(
                        Atom("Event", (const("main"), Variable("x", "t"))), "T2"
                    ),
                )
            ),
        ),
    )


def critical_spec() -> ConfigSpec:
    return ConfigSpec(
        SpecKind.CRITICAL,
        (
            SpecPair(
                (
                    FactPattern(Atom("Time"), "T"),
                    FactPattern(
                        Atom("Attended", (const("main"), const("no"))), "T1"
                    ),
                    FactPattern(
                        Atom("Event", (const("main"), Variable("x", "t"))), "T2"
                    ),
                ),
                (TimeConstraint("T", ">", "T2"),),
            ),
        ),
    )


class TestMatchSpec:
    def test_goal_match_binds_witness(self):
        config = Configuration(
            [
                fact("Time", 8000),
                fact("Attended", 0, const("main"), const("done")),
                fact("Event", 7920, const("main"), const("id215")),
            ]
        )
        hit = match_spec(goal_spec(), config)
        assert hit is not None
        index, sigma = hit
        assert index == 0
        assert sigma["x"] == const("id215")

    def test_critical_guard_satisfied(self):
        config = Configuration(
            [
                fact("Time", 8000),
                fact("Event", 7920, const("main"), const("id215")),
                fact("Attended", 0, const("main"), const("no")),
            ]
        )
        assert match_spec(critical_spec(), config) is not None

    def test_critical_guard_fails_before_event(self):
        config = Configuration(
            [
                fact("Time", 7900),
                fact("Event", 7920, const("main"), const("id215")),
                fact("Attended", 0, const("main"), const("no")),
            ]
        )
        assert match_spec(critical_spec(), config) is None

    def test_repeated_time_variables_force_equality(self):
        pair = SpecPair(
            (FactPattern(Atom("Time"), "T"), FactPattern(Atom("P"), "T"))
        )
        spec = ConfigSpec(SpecKind.CRITICAL, (pair,))
        assert match_spec(spec, Configuration([fact("Time", 3), fact("P", 3)]))
        assert match_spec(spec, Configuration([fact("Time", 3), fact("P", 2)])) is None

    def test_deterministic_first_witness(self):
        pair = SpecPair((FactPattern(Atom("P", (Variable("x", "t"),)), "T1"),))
        spec = ConfigSpec(SpecKind.GOAL, (pair,))
        config = Configuration(
            [fact("Time", 0), fact("P", 1, const("b")), fact("P", 1, const("a"))]
        )
        _, sigma = match_spec(spec, config)
        # canonical order places P(a) first
        assert sigma["x"] == const("a")

    def test_constraint_variables_must_be_in_pattern(self):
        with pytest.raises(SpecError):
            SpecPair(
                (FactPattern(Atom("P"), "T1"),),
                (TimeConstraint("T1", ">", "T9"),),
            )


class TestTraceStep:
    def test_deferred_steps_replay_on_first_read(self):
        c0 = Configuration([fact("Time", 0), fact("K", 2)])
        c1, c2 = tick(c0), tick(tick(c0))
        first = TraceStep("Tick", after=c0)
        second = TraceStep("Tick", after=first)
        assert second.result == c2 and first._result == c1
        assert (first, second) == (TraceStep("Tick", c1), TraceStep("Tick", c2))
        assert hash(second) == hash(TraceStep("Tick", c2))
        assert repr(second) == repr(TraceStep("Tick", c2))

    def test_result_or_the_step_before(self):
        c0 = Configuration([fact("Time", 0)])
        with pytest.raises(ValueError):
            TraceStep("Tick")
        with pytest.raises(ValueError):
            TraceStep("Tick", tick(c0), after=c0)


class TestCompliance:
    def test_empty_critical_spec_is_vacuous(self):
        empty = ConfigSpec(SpecKind.CRITICAL, ())
        trace = Trace(Configuration([fact("Time", 0)]))
        assert check_compliance(trace, empty).ok

    def test_earliest_violation_reported(self):
        crit = ConfigSpec(
            SpecKind.CRITICAL,
            (SpecPair((FactPattern(Atom("Time"), "T"), FactPattern(Atom("K"), "T")),),),
        )
        c0 = Configuration([fact("Time", 0), fact("K", 2)])
        c1 = Configuration([fact("Time", 1), fact("K", 2)])
        c2 = Configuration([fact("Time", 2), fact("K", 2)])
        trace = Trace(c0, (TraceStep("Tick", c1), TraceStep("Tick", c2)))
        result = check_compliance(trace, crit)
        assert not result.ok
        assert result.violation.step_index == 2
        assert result.violation.pair_index == 0
        assert "critical configuration at step 2" in str(result.violation)

    def test_kind_checked(self):
        with pytest.raises(SpecError):
            check_compliance(
                Trace(Configuration([fact("Time", 0)])),
                ConfigSpec(SpecKind.GOAL, ()),
            )

    def test_prefix_of_compliant_trace_is_compliant(self):
        for seed in range(12):
            scenario = random_scenario(seed, progressing=True)
            trace = find_compliant_goal_trace(scenario, 3)
            if trace is None:
                continue
            assert check_compliance(trace, scenario.critical_spec).ok
            for cut in range(len(trace.steps)):
                prefix = Trace(trace.initial, trace.steps[:cut])
                assert check_compliance(prefix, scenario.critical_spec).ok

    def test_travel_goal_trace_is_compliant(self, travel):
        trace = find_compliant_goal_trace(travel, 280)
        assert trace is not None
        assert check_compliance(trace, travel.critical_spec).ok
        assert match_spec(travel.goal_spec, trace.final) is not None
        assert not replay_errors(trace)


class TestEtaMeasure:
    def test_travel_is_three_simple(self, travel):
        assert eta_measure(travel.critical_spec) == 2
        assert travel.is_eta_simple(3)
        assert not travel.is_eta_simple(2)

    def test_empty_spec(self):
        assert eta_measure(ConfigSpec(SpecKind.CRITICAL, ())) == 0

    def test_generated_scenario_is_one_simple(self):
        from msrplan.reductions import Qbf, qbf_to_scenario

        q = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((1, 2, 3),))
        scenario = qbf_to_scenario(q)
        assert eta_measure(scenario.critical_spec) == 0
        assert scenario.is_eta_simple(1)

    def test_counts_first_order_and_time_variables(self):
        pair = SpecPair(
            (
                FactPattern(Atom("P", (Variable("x", "t"), Variable("y", "t"))), "T1"),
                FactPattern(Atom("Q", (Variable("x", "t"),)), "T2"),
            )
        )
        assert eta_measure(ConfigSpec(SpecKind.GOAL, (pair,))) == 4


class TestBruteAgreement:
    def test_recognition_matches_exhaustive_enumeration(self):
        for seed in range(25):
            scenario = random_scenario(seed, progressing=(seed % 2 == 0))
            configs = [scenario.initial]
            for _, nxt in list(successors(scenario.initial, scenario.system_rules))[:3]:
                configs.append(nxt)
            for config in configs:
                if len(config) > 8:
                    continue
                for spec in (scenario.goal_spec, scenario.critical_spec):
                    engine = match_spec(spec, config) is not None
                    assert engine == brute_match_spec(spec, config), (seed, spec.kind)

    def test_graph_recognition_matches_homomorphism_search(self):
        from msrplan.reductions import (
            Graph,
            brute_force_homomorphism,
            graph_to_goal_instance,
        )

        triangle = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
        k2 = Graph(("u", "v"), (("u", "v"), ("v", "u")))
        for g, k in [(triangle, triangle), (triangle, k2), (k2, triangle)]:
            scenario, config = graph_to_goal_instance(g, k)
            engine = match_spec(scenario.goal_spec, config) is not None
            assert engine == (brute_force_homomorphism(g, k) is not None)


def _substitution_corpus():
    """(label, spec, configuration) triples: random multi-pair specs and the
    random scenarios' own specs over explored random-scenario states, travel's
    specs over explored travel states, and criterion-6-style graph pairs."""
    import random

    from conftest import explored_states, random_spec
    from msrplan.reductions import Graph, graph_to_goal_instance
    from msrplan.scenario import load_bundled

    rng = random.Random(2024)
    for seed in range(30):
        scenario = random_scenario(seed, progressing=seed % 2 == 0, with_updates=True)
        specs = [scenario.goal_spec, scenario.critical_spec]
        specs += [random_spec(rng, SpecKind.GOAL) for _ in range(3)]
        for i, config in enumerate(explored_states(scenario, 12)):
            for j, spec in enumerate(specs):
                yield f"random {seed} state {i} spec {j}", spec, config
    travel = load_bundled("travel.msr")
    for i, config in enumerate(explored_states(travel, 40)):
        for j, spec in enumerate((travel.goal_spec, travel.critical_spec)):
            yield f"travel state {i} spec {j}", spec, config
    rng = random.Random(66)
    for i in range(300):
        nv_g, nv_k = rng.randint(1, 5), rng.randint(1, 5)
        graphs = []
        for nv in (nv_g, nv_k):
            names = "abcde"[:nv]
            edges = tuple((u, v) for u in names for v in names if rng.random() < 0.35)
            graphs.append(Graph(tuple(names), edges))
        scenario, config = graph_to_goal_instance(*graphs)
        yield f"graph {i}", scenario.goal_spec, config
        [pair] = scenario.goal_spec.pairs
        if len(pair.pattern) > 2:
            # every edge fact has timestamp 0, so linking the last edge to the
            # first keeps the matches but would let a reordering matcher
            # visit that edge second and report another homomorphism
            link = TimeConstraint(pair.pattern[-1].tvar, "=", pair.pattern[0].tvar)
            linked = ConfigSpec(SpecKind.GOAL, (SpecPair(pair.pattern, (link,)),))
            yield f"graph {i} linked", linked, config


class TestSubstitutionPin:
    def test_first_substitution_digest(self):
        """Which (pair index, substitution) `match_spec` returns is the
        graph-goal output and the `Violation` payload; the digest was taken
        from the matcher that enumerated every binding before keeping the
        first, and a first-binding matcher must reproduce it."""
        import hashlib

        lines = []
        hits = 0
        for label, spec, config in _substitution_corpus():
            hit = match_spec(spec, config)
            if hit is None:
                lines.append(f"{label}\tNone")
            else:
                hits += 1
                lines.append(f"{label}\t{hit[0]}\t{sorted(hit[1].items())!r}")
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert (len(lines), hits) == (2344, 851)
        assert digest == (
            "6e0b9b5a8b20433328631a9913a9239752bac6eda6fed0b15fe539682e0e435c"
        )
