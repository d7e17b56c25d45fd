"""The witness checker, `msrplan.certify`: it shares no code path with the
engine, it enumerates update points as the engine does, and it writes
witness files byte for byte as `json` does."""

from __future__ import annotations

import ast
import dataclasses
import copy
import json
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (
    explored_states,
    qbf_mix,
    random_guarded_rule,
    random_scenario,
    random_spec,
    travel_with_start,
)
from msrplan import certify, specs
from msrplan.kernel import (
    MAX_TIMESTAMP, Configuration, Constant, FreshConstant, TimedFact, Variable,
)
from msrplan.reductions import Graph, graph_to_goal_instance, qbf_to_scenario
from msrplan.certify import witness_to_dict
from msrplan.resilience import (
    ResilienceQuery,
    check_resilience,
    enumerate_update_points,
    verify_witness,
    witness_to_json,
)
from msrplan.rules import (
    MAX_JOIN_STEPS,
    RELATIONS,
    Atom,
    CreatedFact,
    FactPattern,
    Rule,
    RuleError,
    RuleInstance,
    TimeConstraint,
    apply_instance,
    find_matches,
)
from msrplan.scenario import ScenarioError, parse_scenario
from msrplan.search import find_compliant_goal_trace, successors
from msrplan.specs import (
    TICK_STEP, ConfigSpec, SpecError, SpecKind, SpecPair, Trace, TraceStep, match_spec,
    replay_errors,
)
from reference import engine_replay_errors
from test_resilience import TOP, TRAVEL_STARTS

# The engine's matching and replay entries
ENGINE_NAMES = {
    "apply_instance", "tick", "MatchPlan", "interpret_matches", "check_compliance",
    "match_spec", "find_matches", "successors", "Checker",
}
# and its methods: Configuration.replace and .at, MatchPlan.interpret and
# .generate, Rule.plan and SpecPair.plan
ENGINE_METHODS = {"replace", "at", "interpret", "generate", "plan"}


def _named(tree: ast.AST) -> tuple[set[str], set[str], set[str]]:
    """The names `tree` imports or reads, the attributes it reads, and the
    modules it imports from."""
    nodes = list(ast.walk(tree))
    imported = {
        alias.asname or alias.name
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    return imported | names, attributes, modules


class TestIndependence:
    def test_no_engine_matching_or_replay(self):
        names, attributes, modules = _named(
            ast.parse(Path(certify.__file__).read_text(encoding="utf-8"))
        )
        assert not names & ENGINE_NAMES
        assert not attributes & ENGINE_METHODS
        assert not modules & {"search", "resilience", "delta", "relax"}

    def test_trace_replay_is_the_checkers(self):
        """`specs.replay_errors` names no engine entry either: it hands the
        trace to `certify.trace_errors`."""
        tree = ast.parse(Path(specs.__file__).read_text(encoding="utf-8"))
        [replay] = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "replay_errors"
        ]
        names, attributes, modules = _named(replay)
        assert not names & ENGINE_NAMES
        assert not attributes & ENGINE_METHODS
        assert "trace_errors" in names and modules == {"certify"}


def _private_imports(tree: ast.AST) -> set[str]:
    """The underscore-prefixed names `tree` imports from `msrplan`."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "msrplan"
        for alias in node.names
        if alias.name.startswith("_")
    }


class TestOracleIndependence:
    @pytest.mark.parametrize("name", ["reference.py", "conftest.py"])
    def test_no_private_engine_names(self, name):
        """The test oracles ground patterns and decide guards on their own:
        they import no private name of the package."""
        path = Path(__file__).with_name(name)
        assert _private_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


class TestWitnessJson:
    def test_bytes_equal_json_dumps(self, travel):
        cases = [
            (travel_with_start(travel, t0), ResilienceQuery(n, 12, 220))
            for t0 in TRAVEL_STARTS
            for n in (0, 1, 2)
        ]
        cases += [(qbf_to_scenario(q), ResilienceQuery(q.n, 1, 0)) for q in qbf_mix()]
        written = 0
        for scenario, query in cases:
            result = check_resilience(scenario, query)
            if result.resilient:
                data = witness_to_dict(result.witness)
                expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
                assert witness_to_json(result.witness) == expected, query
                assert witness_to_json(data) == expected, query
                written += 1
        assert written >= 100

    def test_other_values(self):
        data = {
            "z": [],
            "b": {},
            "a": [True, False, None, 0.5, -3, 2**70, "é\n\"\\", [[]], {"": {"k": []}}],
        }
        assert witness_to_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


# Two rules that undo each other at one instant, so the trace [ab, ba]
# returns to its initial configuration, and an update that fits all three.
REVISIT = """
predicates A: system, B: system, U: system, Done: goal;
init { Time@0, A@0, U@0, Done@0 }
rule system ab { consume: A@T1; create: B@T; guard: T1 <= T; }
rule system ba { consume: B@T1; create: A@T; guard: T1 <= T; }
rule system_update poke { consume: U@T1; create: U@T; guard: T1 <= T; }
goal { Done@T1, A@T2 }
"""


def _step(rule: str) -> dict:
    return {"rule": rule, "sigma": {"T": 0, "T1": 0}}


# A witness at (1, 1, 0) over the trace [ab, ba], with a child for `poke`
# at each configuration
_LEAF = {"query": {"n": 0, "a": 1, "b": 0}, "children": []}
REVISIT_WITNESS = {
    "query": {"n": 1, "a": 1, "b": 0},
    "trace": [_step("ab"), _step("ba")],
    "children": [
        {"step": i, "instance": _step("poke"), "subtree": dict(_LEAF, trace=trace)}
        for i, trace in enumerate([[], [_step("ba")], []])
    ],
}


class TestUpdatePoints:
    """Update points where the matcher's lack of a type test, a clash of
    variable kinds or a revisited configuration decide them."""

    def test_points_over_constants_that_share_a_name(self):
        """Neither matcher tests a type, so a variable binds each constant its
        position holds, also in a configuration no scenario admits, where
        two constants share a name; the checker then keeps both points that
        share a key, as the engine keeps both instances."""
        a, a2, b2 = Constant("a", "obj"), Constant("a", "obj2"), Constant("b", "obj2")
        facts = (("Time", ()), ("G", (a,)), ("G", (a2,)), ("G", (b2,)), ("G", (a,)))
        config = Configuration([TimedFact(p, args, 0) for p, args in facts])
        for btype in ("obj", ""):
            rule = Rule(
                "take", (), (FactPattern(Atom("G", (Variable("x", btype),)), "T1"),),
                (CreatedFact(Atom("N"), 1),), (),
            )
            engine = [inst.sigma["x"] for inst in find_matches(rule, config)]
            assert engine == [a, a2, b2]
            points = enumerate_update_points(
                SimpleNamespace(update_rules=(rule,)), Trace(config), 0
            )
            assert [inst.sigma["x"] for _, inst, _ in points] == engine

    def test_time_and_term_variable_rejected(self):
        """A timestamp never equals a term, so a name that is both a time and
        a term variable is refused when the rule or pair is built, and the
        parser reports it at the rule's name or the pair's head."""
        head = (
            "types t; consts c: t; predicates P(t): system, G(t): goal;\n"
            "init { Time@0, P(c)@0 }\n"
        )
        cases = (
            ("rule system_update u { consume: P(x)@x; create: P(x)@T+1; }",
             "clash:3:20: rule u: x is both a time variable and a term variable"),
            ("goal { G(x)@x }", "clash:3:1: x is both a time variable and a term variable"),
        )
        for text, diagnostic in cases:
            with pytest.raises(ScenarioError) as caught:
                parse_scenario(head + text, "clash")
            assert str(caught.value) == diagnostic
        x, big_t = Variable("x", "t"), Variable("T", "t")
        made = (CreatedFact(Atom("P", (x,)), 1),)
        with pytest.raises(RuleError, match="rule u: x is both"):
            Rule("u", (), (FactPattern(Atom("P", (x,)), "x"),), made, ())
        # `T` is the global time in every rule, also as a fresh variable
        with pytest.raises(RuleError, match="rule u: T is both"):
            Rule("u", (), (FactPattern(Atom("P", (big_t,)), "T1"),), made, ())
        minted = (CreatedFact(Atom("P", (big_t,)), 1),)
        with pytest.raises(RuleError, match="rule u: T is both"):
            Rule("u", (), (FactPattern(Atom("G", (x,)), "T1"),), minted, ())
        with pytest.raises(SpecError, match="^x is both"):
            SpecPair((FactPattern(Atom("G", (x,)), "x"),))
        # in a pair `T` is a name like any other
        SpecPair((FactPattern(Atom("Time"), "T1"), FactPattern(Atom("G", (big_t,)), "T2")))

    def test_repeated_configuration_gives_its_points_at_each_index(self):
        """A configuration that repeats gives its points again, as the
        engine's witness lists them.  Only a non-progressing trace repeats
        one, and an update round on a non-progressing scenario is refused
        by the root check, as checking refuses it."""
        scenario = parse_scenario(REVISIT, "revisit")
        assert not scenario.progressing
        config = scenario.initial
        steps = []
        for name in ("ab", "ba"):
            [rule] = [r for r in scenario.system_rules if r.name == name]
            [inst] = find_matches(rule, config)
            config = apply_instance(config, inst)
            steps.append(TraceStep(inst, config))
        trace = Trace(scenario.initial, tuple(steps))
        assert trace.final == trace.initial
        points = enumerate_update_points(scenario, trace, 1)
        assert [(i, inst.key()) for i, inst, _ in points] == [
            (0, "poke{T=0,T1=0}"), (1, "poke{T=0,T1=0}"), (2, "poke{T=0,T1=0}"),
        ]

        # the witness covers each point, so the refusal is its one violation
        assert verify_witness(scenario, ResilienceQuery(1, 1, 0), REVISIT_WITNESS) == (
            False, ["root: resilience checking requires a progressing planning scenario"],
        )


class TestMatcher:
    """The checker's matcher decides as the engine's (update points as
    `search.successors` finds them without the time advance), on the random
    generators' anchored guards, offsets, equality chains, side conditions,
    repeated predicates and fresh variables, and on specification pairs
    with `Time` patterns and constraints between clock variables."""

    def test_rules(self):
        """Each random scenario's own update rules and ten random guarded
        rules, as update points of explored states."""
        rng = random.Random(29)
        matched = fresh = 0
        for seed in range(30):
            scenario = random_scenario(seed, progressing=False, with_updates=True)
            rules = [*scenario.update_rules, *(random_guarded_rule(rng, f"g{i}") for i in range(10))]
            for config in explored_states(scenario, 8):
                for rule in rules:
                    got = enumerate_update_points(
                        SimpleNamespace(update_rules=(rule,)), Trace(config), 0
                    )
                    want = list(successors(config, (rule,), advance=False))
                    assert [(inst, result) for _, inst, result in got] == want, (seed, str(rule))
                    matched += bool(want)
                    fresh += sum(bool(inst.rule.fresh) for _, inst, _ in got)
        assert matched > 100
        assert fresh > 100  # fresh variables got the engine's canonical constants

    def test_clocked_specs(self):
        rng = random.Random(29)
        hits = 0
        for seed in range(30):
            scenario = random_scenario(seed, progressing=False, with_updates=True)
            pairs = []
            for pair in random_spec(rng, SpecKind.GOAL).pairs:
                names = sorted({p.tvar for p in pair.pattern} | {"T", "U"})
                extra = [TimeConstraint("T", rng.choice(sorted(RELATIONS)), "U", rng.randint(-1, 1))]
                extra.append(TimeConstraint(
                    rng.choice(names), rng.choice(sorted(RELATIONS)), rng.choice(names),
                    rng.randint(-2, 2),
                ))
                clock = [FactPattern(Atom("Time"), "T"), FactPattern(Atom("Time"), "U")]
                pairs += [pair, SpecPair((clock[0], *pair.pattern, clock[1]), (*pair.constraints, *extra))]
            for config in explored_states(scenario, 8):
                state = certify._State.of(config)
                for pair in pairs:
                    spec = ConfigSpec(SpecKind.GOAL, (pair,))
                    want = match_spec(spec, config) is not None
                    assert certify._holds(certify._spec_code(spec), state) == want, (seed, str(pair))
                    hits += want
        assert hits > 100

    def test_join_limit(self):
        """The checker's join recurses once per step, as the engine's does,
        and refuses the same joins: a path of `MAX_JOIN_STEPS` edges still
        maps onto a self-loop, one edge more is an error."""
        loop = Graph(("a",), (("a", "a"),))
        for length in (MAX_JOIN_STEPS, MAX_JOIN_STEPS + 1):
            names = tuple(f"v{i}" for i in range(length + 1))
            path = Graph(names, tuple(zip(names, names[1:])))
            scenario, config = graph_to_goal_instance(path, loop)
            codes = lambda: certify._spec_code(scenario.goal_spec)
            if length == MAX_JOIN_STEPS:
                assert certify._holds(codes(), certify._State.of(config))
                assert match_spec(scenario.goal_spec, config) is not None
                continue
            message = f"^a join of {length} patterns exceeds the limit of {MAX_JOIN_STEPS} steps"
            with pytest.raises(RuleError, match=message):
                codes()
            with pytest.raises(RuleError, match=message):
                match_spec(scenario.goal_spec, config)


def _goal_trace(travel, budget: int = 232) -> Trace:
    """The travel goal trace within `budget` ticks, every configuration read."""
    trace = find_compliant_goal_trace(travel, budget)
    list(trace.configurations())
    return trace


def _with_step(trace: Trace, index: int, instance) -> Trace:
    """`trace` with step `index` annotated by `instance`, its configuration
    kept."""
    steps = list(trace.steps)
    steps[index] = TraceStep(instance, steps[index].result)
    return Trace(trace.initial, tuple(steps))


def _shifted(signature, inst: RuleInstance, rng: random.Random) -> RuleInstance:
    """`inst` with one binding moved: a timestamp by one, a declared constant
    to another of its type, a fresh constant to the next index."""
    bindings = list(inst.bindings)
    k = rng.randrange(len(bindings))
    var, value = bindings[k]
    if isinstance(value, int):
        value += rng.choice((-1, 1)) if value else 1
    elif isinstance(value, FreshConstant):
        value = FreshConstant(value.base_type, value.index + 1)
    else:
        others = sorted(
            n for n, t in signature.constants.items() if t == value.base_type and n != value.name
        )
        value = Constant(rng.choice(others), value.base_type) if others else value
    bindings[k] = (var, value)
    return RuleInstance(inst.rule, tuple(bindings))


def _tamperings(signature, trace: Trace, rng: random.Random) -> list[Trace]:
    """Seeded tamperings of a nonempty trace: a dropped, a duplicated and
    (for two steps or more) a swapped step, a shifted binding of a rule
    step, and a configuration recorded as its neighbour's."""
    steps = list(trace.steps)
    n = len(steps)

    def recorded(k: int, instance, result) -> list:
        return steps[:k] + [TraceStep(instance, result)] + steps[k + 1:]

    out = []
    i = rng.randrange(n)
    out.append(steps[:i] + steps[i + 1:])
    out.append(steps[:i + 1] + [steps[i]] + steps[i + 1:])
    if n > 1:
        j = rng.randrange(n - 1)
        out.append(steps[:j] + [steps[j + 1], steps[j]] + steps[j + 2:])
        k = rng.randrange(n)
        neighbour = steps[k + 1 if k + 1 < n else k - 1]
        out.append(recorded(k, steps[k].instance, neighbour.result))
    moves = [k for k, s in enumerate(steps) if not s.is_tick]
    if moves:
        k = rng.choice(moves)
        out.append(recorded(k, _shifted(signature, steps[k].instance, rng), steps[k].result))
    return [Trace(trace.initial, tuple(s)) for s in out]


class TestTraceReplay:
    """`replay_errors` runs the checker's own replay, `certify.trace_errors`,
    on its own state: it reports as the engine's replay did, and reports a
    malformed substitution instead of raising on it."""

    # the steps annotated: index 1 is step 2, index 3 step 4
    STEPS = {1: "advance_clock{T=46,T1=46}", 3: "board1{T=47,T1=47,T2=0,a=id16,x=FRA,y=ZAG}"}
    BOARD1 = {
        "T": 47, "T1": 47, "T2": 0, "a": Constant("id16", "fid"),
        "x": Constant("FRA", "city"), "y": Constant("ZAG", "city"),
    }
    # a malformed annotation of one of them, as (step index, bindings)
    MALFORMED = {
        "missing T": (1, {"T1": 46}),
        "T1 a constant": (1, {"T": 46, "T1": Constant("FRA", "city")}),
        "extra binding": (1, {"T": 46, "T1": 46, "zz": 5}),
        "T1 a bool": (3, {**BOARD1, "T1": True}),
        "T1 a float": (3, {**BOARD1, "T1": 47.0}),
        "T1 negative": (3, {**BOARD1, "T1": -1}),
        "T1 past the range": (3, {**BOARD1, "T1": 2**63}),
        "x an int": (3, {**BOARD1, "x": 5}),
        "x a str": (3, {**BOARD1, "x": "FRA"}),
        "x a variable": (3, {**BOARD1, "x": Variable("x", "city")}),
    }

    @pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
    def test_malformed_substitution_is_not_applicable(self, travel, case):
        """Only the substitution's read maps to "not applicable": it is the
        read a witness gets, and whatever it refuses applies nowhere."""
        index, bindings = self.MALFORMED[case]
        trace = _goal_trace(travel)
        step = trace.steps[index]
        assert step.instance.key() == self.STEPS[index]
        inst = RuleInstance(step.instance.rule, tuple(bindings.items()))
        assert replay_errors(_with_step(trace, index, inst)) == [
            f"step {index + 1}: instance {inst.key()} not applicable"
        ]

    def test_timestamp_overflow_is_reported_at_its_step(self):
        """From one unit below the top of the timestamp range: a tick, the
        goal rule at the top, whose created fact is out of range, and a
        tick from the top; the replay goes on from each recorded step."""
        scenario = parse_scenario(TOP, "top")
        finish = next(r for r in scenario.rules() if r.name == "finish")
        top = MAX_TIMESTAMP
        at_top = Configuration([
            TimedFact("Time", (), top), TimedFact("A", (), top - 1), TimedFact("U", (), top - 1),
        ])
        late = RuleInstance(finish, (("T", top), ("T1", top - 1)))
        steps = tuple(TraceStep(inst, at_top) for inst in (TICK_STEP, late, TICK_STEP))
        assert replay_errors(Trace(scenario.initial, steps)) == [
            "step 2: created timestamp overflow", "step 3: global time overflow",
        ]

    def test_sort_key_layout(self):
        """The replay builds the sort keys of the facts it expects itself."""
        a = Constant("a", "obj")
        assert TimedFact("P", (a,), 3).sort_key == (3, 1, "P", ((0, "a", "obj"),))
        config = Configuration([TimedFact("Time", (), 2), TimedFact("P", (a,), 3)])
        assert config.others == (TimedFact("P", (a,), 3),)

    def test_matches_the_engine_replay(self, travel):
        """Byte for byte the messages of the engine's replay, on goal traces
        of random progressing scenarios and of travel, each tampered with in
        seeded ways."""
        cases = []
        for seed in range(1000):
            scenario = random_scenario(seed, progressing=True)
            trace = find_compliant_goal_trace(scenario, 5)
            if trace is not None and trace.steps:
                cases.append((scenario.signature, trace, random.Random(seed)))
        for budget in (232, 260, 280):
            cases.append((travel.signature, _goal_trace(travel, budget), random.Random(budget)))
        kinds: Counter = Counter()
        compared = 0
        for signature, trace, rng in cases:
            assert replay_errors(trace) == engine_replay_errors(trace) == []
            for _ in range(3):
                for tampered in _tamperings(signature, trace, rng):
                    got = replay_errors(tampered)
                    assert got == engine_replay_errors(tampered), [str(s) for s in tampered.steps]
                    kinds.update(m.split(": ", 1)[1].split(" ", 1)[0] for m in got)
                    compared += 1
        assert len(cases) >= 40 and compared >= 500, (len(cases), compared)
        # both kinds of message occur: "instance ... not applicable" and
        # "recorded configuration does not match replay"
        assert kinds["instance"] >= 200 and kinds["recorded"] >= 150, kinds

    def test_builds_no_configuration(self, travel, monkeypatch):
        """A replay builds no `Configuration` or `TimedFact`."""
        trace = _goal_trace(travel)
        built: Counter = Counter()
        for cls in (Configuration, TimedFact):
            def counted(self, *args, init=cls.__init__, name=cls.__name__):
                built[name] += 1
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        assert certify.trace_errors(trace) == []
        assert not built


# Each critical fact is created by a system rule: `spoil` makes the pair
# without a `Time` pattern match, `stall` the pair with one.
SPOILED = """
predicates A: system, B: system, Bad: critical, Late: critical, Done: goal;
init { Time@0, A@0, B@0, Done@0 }
rule system spoil { consume: A@T1; create: Bad@T; guard: T1 <= T; }
rule system stall { consume: B@T1; create: Late@T; guard: T1 <= T; }
goal { Done@T1 }
critical { Bad@T1 }
critical { Time@T, Late@T1 | T1 <= T }
"""


class TestCriticalRecheck:
    """A trace step re-checks only the critical pairs it can make match:
    after a tick those with a `Time` pattern, after a rule step those that
    join a predicate the rule creates."""

    def test_travel_tables(self, travel):
        deadline, beat = certify._spec_code(travel.critical_spec)
        assert [str(pair) for pair in travel.critical_spec.pairs] == [
            "Time@T, Deadline(main)@T", "Time@T, ClockBeat@T1 | T1 < T",
        ]
        recheck = certify._Verifier(travel).recheck
        assert recheck[TICK_STEP] == (deadline, beat)
        assert recheck["advance_clock"] == (beat,)
        for name in ("board1", "board2", "ride_to_airport", "ride_to_center", "attend"):
            assert recheck[name] == (), name

    def test_tables_of_rules_that_create_critical_facts(self):
        scenario = parse_scenario(SPOILED, "spoiled")
        bad, late = certify._spec_code(scenario.critical_spec)
        recheck = certify._Verifier(scenario).recheck
        assert (recheck[TICK_STEP], recheck["spoil"], recheck["stall"]) == ((late,), (bad,), (late,))

    @pytest.mark.parametrize("rule", ["spoil", "stall"])
    def test_critical_fact_of_a_rule_step_is_caught_at_its_step(self, rule):
        """The step that creates the critical fact is reported, not the tick
        after it."""
        scenario = parse_scenario(SPOILED, "spoiled")
        witness = {
            "query": {"n": 0, "a": 1, "b": 2},
            "trace": [
                {"rule": TICK_STEP},
                {"rule": rule, "sigma": {"T": 1, "T1": 0}},
                {"rule": TICK_STEP},
            ],
            "children": [],
        }
        assert verify_witness(scenario, ResilienceQuery(0, 1, 2), witness) == (
            False, ["root: not compliant at step 2"],
        )
        witness["trace"][1:] = []
        assert verify_witness(scenario, ResilienceQuery(0, 1, 2), witness) == (True, [])


class TestSubstitutionReader:
    """A witness substitution is read in one pass in its own key order; a
    verdict and its message do not depend on that order."""

    @pytest.fixture(scope="class")
    def emitted(self, travel):
        query = ResilienceQuery(1, 12, 220)
        data = witness_to_dict(check_resilience(travel, query).witness)
        assert data["trace"][1] == {"rule": "advance_clock", "sigma": {"T": 46, "T1": 46}}
        return travel, query, data

    def verdict(self, emitted, sigma: dict) -> tuple[bool, list[str]]:
        """The verdict on the witness with trace step 1 bound by `sigma`."""
        travel, query, data = emitted
        mutated = copy.deepcopy(data)
        mutated["trace"][1]["sigma"] = sigma
        return verify_witness(travel, query, mutated)

    def test_two_bad_bindings_name_the_first_variable(self, emitted):
        expected = (False, ["root.trace[1]: binding T must be a timestamp"])
        for text in ('{"T1": true, "T": "FRA"}', '{"T": "FRA", "T1": true}'):
            assert self.verdict(emitted, json.loads(text)) == expected, text

    def test_kinds_of_values(self, emitted):
        class Stamp(int):
            pass

        neither = (False, ["root.trace[1]: binding T1 is neither timestamp nor term"])
        assert self.verdict(emitted, {"T": 46, "T1": True}) == neither
        assert self.verdict(emitted, {"T": 46, "T1": 46.0}) == neither
        assert self.verdict(emitted, {"T": 46, "T1": Stamp(46)}) == (True, [])

    def test_child_labels(self, emitted):
        travel, query, data = emitted
        mutated = copy.deepcopy(data)
        child = mutated["children"][0]["subtree"]
        k = next(k for k, step in enumerate(child["trace"]) if step["rule"] != TICK_STEP)
        child["trace"][k]["sigma"]["T1"] = True
        assert verify_witness(travel, query, mutated) == (False, [
            f"root.children[0].trace[{k}]: binding T1 is neither timestamp nor term",
        ])


def _nodes(tree):
    yield tree
    for _, _, sub in tree.children:
        yield from _nodes(sub)


def _with_trace_step(tree, k: int, instance):
    """`tree` with trace step k annotated by `instance`, or with a tick
    appended when k is the trace's length.  The verifier reads no recorded
    configuration, so the step records the trace's first."""
    trace = tree.trace
    steps = list(trace.steps)
    steps[k:k + 1] = [TraceStep(instance, trace.initial)]
    return dataclasses.replace(tree, trace=Trace(trace.initial, tuple(steps)))


def _rebound(inst: RuleInstance, var: str, value) -> RuleInstance:
    return RuleInstance(inst.rule, tuple((v, value if v == var else t) for v, t in inst.bindings))


class TestTreeReader:
    """`verify_witness` reads an engine tree in place, with the walker and
    the messages of the tree's JSON object."""

    @pytest.fixture(scope="class")
    def deep(self, travel):
        """Travel from start 42 at n = 2: a tree with children and
        grandchildren."""
        scenario = travel_with_start(travel, 42)
        query = ResilienceQuery(2, 12, 220)
        witness = check_resilience(scenario, query).witness
        assert witness.children and any(sub.children for _, _, sub in witness.children)
        return scenario, query, witness

    @staticmethod
    def both(scenario, query, tree) -> tuple[bool, list[str]]:
        """The verdict on `tree`, once it equals the verdict on its JSON
        object."""
        verdict = verify_witness(scenario, query, tree)
        assert verdict == verify_witness(scenario, query, witness_to_dict(tree))
        return verdict

    def test_engine_witnesses(self, travel, minimal):
        cases = [
            (travel_with_start(travel, t0), ResilienceQuery(n, 12, 220))
            for t0 in (42, 60)
            for n in (0, 1, 2)
        ]
        cases.append((minimal, ResilienceQuery(1, 2, 1)))
        cases += [(qbf_to_scenario(q), ResilienceQuery(q.n, 1, 0)) for q in qbf_mix()[:20]]
        verified = 0
        for scenario, query in cases:
            result = check_resilience(scenario, query)
            if result.resilient:
                assert self.both(scenario, query, result.witness) == (True, [])
                verified += 1
        assert verified >= 12

    def test_tree_mutations(self, deep, travel):
        scenario, query, tree = deep
        k = next(k for k, s in enumerate(tree.trace.steps) if not s.is_tick)
        inst = tree.trace.steps[k].instance
        first, *rest = tree.children
        step, update, sub = first
        ticks = len(tree.trace.steps)
        mutants = {
            "dropped child": dataclasses.replace(tree, children=tuple(rest)),
            "moved child": dataclasses.replace(tree, children=((step + 1, update, sub), *rest)),
            "wrong binding": _with_trace_step(tree, k, _rebound(inst, "T", inst.sigma["T"] + 1)),
            "update rule in the trace": _with_trace_step(tree, k, update),
            "extra tick": _with_trace_step(tree, ticks, TICK_STEP),
            "wrong query": dataclasses.replace(
                tree, query=ResilienceQuery(query.n, query.a + 1, query.b)
            ),
            "child's wrong binding": dataclasses.replace(tree, children=(
                (step, update, _with_trace_step(sub, 0, _rebound(inst, "T", 0))), *rest,
            )),
            "timestamp out of range": _with_trace_step(
                tree, k, _rebound(inst, "T", MAX_TIMESTAMP + 1)
            ),
            "boolean timestamp": _with_trace_step(tree, k, _rebound(inst, "T", True)),
            "term for a timestamp": _with_trace_step(
                tree, k, _rebound(inst, "T", Constant("FRA", "city"))
            ),
            "missing variable": _with_trace_step(
                tree, k, RuleInstance(inst.rule, inst.bindings[1:])
            ),
            "extra variable": _with_trace_step(
                tree, k, RuleInstance(inst.rule, (*inst.bindings, ("Z", 0)))
            ),
        }
        for what, mutant in mutants.items():
            ok, violations = self.both(scenario, query, mutant)
            assert not ok and violations, what
        assert self.both(scenario, query, mutants["update rule in the trace"])[1] == [
            f"root.trace[{k}]: trace uses non-system rule {update.rule.name}",
        ]
        # the tree's substitutions are read by the JSON reader's loop
        for what, message in {
            "timestamp out of range": f"binding T: timestamp {MAX_TIMESTAMP + 1} out of range",
            "boolean timestamp": "binding T is neither timestamp nor term",
            "term for a timestamp": "binding T must be a timestamp",
            "missing variable": "substitution misses ['T']",
            "extra variable": f"binding Z names no variable of rule {inst.rule.name}",
        }.items():
            assert verify_witness(scenario, query, mutants[what])[1] == [
                f"root.trace[{k}]: {message}",
            ], what

    def test_terms(self, deep):
        """A term the JSON form can write gets that form's message; a
        declared constant of the wrong type has no JSON form, and only the
        tree can be rejected for it."""
        scenario, query, tree = deep
        k, inst, var, term = next(
            (k, s.instance, v, t)
            for k, s in enumerate(tree.trace.steps) if not s.is_tick
            for v, t in s.instance.bindings if isinstance(t, Constant)
        )
        where = f"root.trace[{k}]"
        for bad, message in (
            (Constant("Nowhere", term.base_type), "unknown constant 'Nowhere' in witness"),
            (Constant("no where", term.base_type), "unparseable term 'no where'"),
            (FreshConstant(term.base_type, -1), f"unparseable term '#{term.base_type}:-1'"),
            (FreshConstant("a b", 0), "unparseable term '#a b:0'"),
        ):
            mutant = _with_trace_step(tree, k, _rebound(inst, var, bad))
            assert self.both(scenario, query, mutant) == (False, [f"{where}: {message}"])
        other = next(t for t in scenario.signature.base_types if t != term.base_type)
        mutant = _with_trace_step(tree, k, _rebound(inst, var, Constant(term.name, other)))
        assert verify_witness(scenario, query, mutant) == (False, [
            f"{where}: constant {term.name} is of type {term.base_type}, not {other}",
        ])
        assert verify_witness(scenario, query, witness_to_dict(mutant)) == (True, [])

    def test_reads_no_json_no_text_no_recorded_configuration(self, deep, monkeypatch):
        """The tree is checked without its JSON object, without term text,
        and without replaying a step the engine deferred."""
        scenario, query, tree = deep

        def refuse(*_args, **_kwargs):
            raise AssertionError("the tree reader must not call this")

        monkeypatch.setattr(certify, "witness_to_dict", refuse)
        monkeypatch.setattr(certify, "parse_ground_term", refuse)
        monkeypatch.setattr(specs.TraceStep, "result", property(refuse))
        assert verify_witness(scenario, query, tree) == (True, [])

    def test_children_in_file_order(self, deep):
        """Children are visited as the file lists them, by step and then
        instance key, whatever order the tree holds them in: each child
        below says the root's query, and its violation names the query
        its step reduces to."""
        scenario, query, tree = deep
        children = [
            (i, inst, dataclasses.replace(sub, query=tree.query)) for i, inst, sub in tree.children
        ]
        assert len({i for i, _, _ in children}) > 1
        reordered = dataclasses.replace(tree, children=tuple(reversed(children)))
        ok, violations = self.both(scenario, query, reordered)
        assert not ok and len(violations) == len(children)
