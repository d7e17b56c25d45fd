from __future__ import annotations

import hashlib
import random
import re

import pytest

from conftest import (
    WORKED_EXAMPLE,
    explored_states,
    qbf_mix,
    random_scenario,
    travel_with_start,
)
from msrplan.kernel import Configuration, Constant, KernelError, TimedFact
from msrplan.reductions import qbf_to_scenario
from msrplan.resilience import ResilienceQuery, check_resilience
from msrplan.scenario import (
    ScenarioError,
    bundled_text,
    infer_dmax,
    parse_scenario,
    pretty_print,
    validate_scenario,
)


class TestParseBundled:
    def test_travel_is_progressing_and_three_simple(self, travel):
        report = validate_scenario(travel)
        assert report.progressing
        assert report.eta == 2
        assert report.eta < 3
        assert not report.fact_size_failures
        # the clock-forcing idiom needs one system rule touching the beat fact
        flagged = {n for n, c in report.classifications.items() if not c.role_valid}
        assert flagged == {"advance_clock"}
        violations = report.classifications["advance_clock"].violations
        assert any(v.startswith("role(") for v in violations)

    def test_minimal_smoke(self, minimal):
        report = validate_scenario(minimal)
        assert report.progressing
        assert report.eta == 1
        assert len(minimal.system_rules) == 2
        assert minimal.update_rules == ()

    def test_progressing_agrees_with_classify(self, travel, minimal):
        """`progressing` reads each rule's kept checks; it must give the
        verdict of the full classification, role checks aside."""
        scenarios = [travel, minimal]
        scenarios += [qbf_to_scenario(formula) for formula in qbf_mix()]
        scenarios += [
            random_scenario(seed, progressing=seed % 2 == 0, with_updates=True)
            for seed in range(40)
        ]
        verdicts = []
        for scenario in scenarios:
            want = all(c.progressing for c in scenario.classify().values())
            assert scenario.progressing == want
            verdicts.append(want)
        assert verdicts.count(True) > 40 and verdicts.count(False) > 5

    def test_rule_classification_table(self, travel):
        report = validate_scenario(travel)
        assert set(report.classifications) == {r.name for r in travel.rules()}
        assert all(c.balanced for c in report.classifications.values())
        rendered = report.render()
        assert "scenario progressing: yes" in rendered
        assert "eta measure: 2 (3-simple)" in rendered


class TestDiagnostics:
    def parse_error(self, text: str) -> ScenarioError:
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text, "bad.msr")
        return exc.value

    def test_consuming_the_time_fact_is_an_error(self):
        err = self.parse_error(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            init { Time@0, P(a)@0 }
            rule system bad { consume: Time@T1; create: P(a)@T+1; }
            goal { G@T1 }
            """
        )
        assert any("global-time fact" in d.message for d in err.diagnostics)

    def test_guard_variable_scope_error(self):
        err = self.parse_error(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            init { Time@0, P(a)@0 }
            rule system bad { consume: P(x)@T1; create: P(a)@T+1; guard: T2 <= T; }
            goal { G@T1 }
            """
        )
        assert any(
            "T2 does not occur in the rule's precondition" in d.message
            for d in err.diagnostics
        )

    def test_locations_are_reported(self):
        err = self.parse_error("types t;\nconsts a: u;\ninit { Time@0 }\n")
        d = err.diagnostics[0]
        assert (d.line, d.col) == (2, 11)
        assert d.render("bad.msr") == "bad.msr:2:11: unknown type u"

    def test_unknown_predicate_and_arity(self):
        err = self.parse_error(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            init { Time@0, Q(a)@0, P(a, a)@0 }
            goal { G@T1 }
            """
        )
        messages = " | ".join(d.message for d in err.diagnostics)
        assert "undeclared predicate Q" in messages
        assert "expects 1 arguments" in messages

    def test_type_errors_in_patterns(self):
        err = self.parse_error(
            """
            types t u; consts a: t;
            predicates P(t): system, Q(u): system, G: goal;
            init { Time@0 }
            rule system bad { consume: P(x)@T1, Q(x)@T2; create: P(a)@T+1, Q(x)@T+1; }
            goal { G@T1 }
            """
        )
        assert any("used at type" in d.message for d in err.diagnostics)

    def test_missing_init(self):
        err = self.parse_error("types t;\n")
        assert any("missing init" in d.message for d in err.diagnostics)

    def test_duplicate_time_fact(self):
        err = self.parse_error("types t;\ninit { Time@0, Time@1 }\n")
        assert any("exactly one" in d.message for d in err.diagnostics)

    def test_duplicate_bound_is_located_at_its_keyword(self):
        err = self.parse_error(
            "types t;\nbound facts 2;\n  bound facts 5;\ninit { Time@0 }\n"
        )
        assert [(d.line, d.col, d.message) for d in err.diagnostics] == [
            (3, 3, "duplicate bound declaration")
        ]

    def test_noop_rule_rejected(self):
        err = self.parse_error(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            init { Time@0, P(a)@0 }
            rule system noop { consume: P(x)@T; create: P(x)@T; }
            goal { G@T1 }
            """
        )
        assert any("side condition" in d.message for d in err.diagnostics)

    def test_spec_pair_role_requirement(self):
        err = self.parse_error(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            init { Time@0 }
            critical { P(x)@T1 }
            goal { G@T1 }
            """
        )
        assert any("critical" in d.message for d in err.diagnostics)

    def test_clock_sugar_out_of_range(self):
        err = self.parse_error(
            "types t;\ninit { Time@0d25:00 }\n"
        )
        assert any("hours out of range" in d.message for d in err.diagnostics)

    def test_init_timestamp_out_of_range_is_located(self):
        err = self.parse_error(
            "types t;\npredicates Fuse: system;\n"
            "init { Time@0, Fuse@99999999999999999999999 }\nrule\n"
        )
        assert [d.render("bad.msr") for d in err.diagnostics] == [
            "bad.msr:3:21: timestamp 99999999999999999999999 out of range",
            "bad.msr:5:1: expected a rule role, found 'end of file'",
        ]

    def test_tick_rule_name_is_located(self):
        text = bundled_text("minimal.msr").replace("rule system hop", "rule system Tick")
        err = self.parse_error(text)
        assert [d.render("bad.msr") for d in err.diagnostics] == [
            "bad.msr:21:13: rule name Tick is reserved for the time advance",
        ]

    def test_function_terms_rejected_in_files(self):
        err = self.parse_error(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            init { Time@0, P(f(a))@0 }
            goal { G@T1 }
            """
        )
        assert any("function terms" in d.message for d in err.diagnostics)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["travel", "minimal", "worked"])
    def test_parse_pretty_parse_is_identity(self, name, travel, minimal):
        scenario = {
            "travel": travel,
            "minimal": minimal,
            "worked": parse_scenario(WORKED_EXAMPLE),
        }[name]
        assert parse_scenario(pretty_print(scenario)) == scenario

    def test_generated_scenario_round_trips(self):
        from msrplan.reductions import Qbf, qbf_to_scenario

        q = Qbf((("e", (1, 2)), ("a", (3,)), ("e", (4,))), ((1, -3, 4), (-2, 3, 4)))
        scenario = qbf_to_scenario(q)
        assert parse_scenario(pretty_print(scenario)) == scenario

    def test_directives_round_trip(self):
        """Travel with a declared fact bound and without implicit past
        constraints: both directives are printed and read back."""
        text = bundled_text("travel.msr")
        at = text.index("init")
        text = text[:at] + "bound facts 7;\noption explicit_constraints;\n\n" + text[at:]
        scenario = parse_scenario(text)
        assert (scenario.declared_bound, scenario.inject_past) == (True, False)
        printed = pretty_print(scenario)
        assert "\nbound facts 7;\noption explicit_constraints;\n" in printed
        back = parse_scenario(printed)
        assert back == scenario
        assert (back.declared_bound, back.inject_past, back.fact_size_bound) == (True, False, 7)
        assert pretty_print(back) == printed

    def test_option_after_a_rule_covers_that_rule(self):
        """`option explicit_constraints;` holds for the whole file: a rule
        written before it gets no implicit `T >= T1` either, and the
        printed form, which puts the option first, reads back equal."""
        head = "predicates A: system, B: system, Done: goal;\ninit { Time@0, A@0 }\n"
        ab = "rule system ab { consume: A@T1; create: B@T; }\n"
        fin = "rule system fin { consume: B@T1; create: Done@T; }\ngoal { Done@T1 }\n"
        before = parse_scenario(head + ab + "option explicit_constraints;\n" + fin)
        first = parse_scenario(head + "option explicit_constraints;\n" + ab + fin)
        assert before == first
        assert [r.guard for r in before.system_rules] == [(), ()]
        assert parse_scenario(pretty_print(before)) == before
        implicit = parse_scenario(head + ab + fin)
        assert all(len(r.guard) == 1 for r in implicit.system_rules)

    def test_pretty_is_idempotent(self, travel):
        once = pretty_print(travel)
        assert pretty_print(parse_scenario(once)) == once


class TestInferDmax:
    def test_max_over_delays_and_offsets(self):
        scenario = parse_scenario(
            """
            types t; consts a: t;
            predicates P(t): system, G(t): goal;
            init { Time@0, P(a)@0, G(a)@0 }
            rule system r { consume: P(x)@T1; create: P(x)@T+120; guard: T1 + 30 <= T; }
            goal { G(x)@T1 }
            """
        )
        assert infer_dmax(scenario) == 120

    def test_floor_of_one(self):
        scenario = parse_scenario(
            """
            types t;
            predicates G: goal;
            init { Time@0, G@0 }
            goal { G@T1 }
            """
        )
        assert infer_dmax(scenario) == 1

    def test_travel_dominated_by_latest_event_timestamp(self, travel):
        latest = max(f.ts for f in travel.initial)
        assert infer_dmax(travel) == latest == 275


class TestBounds:
    def test_declared_bound_audited(self):
        scenario = parse_scenario(
            """
            types t; consts a: t;
            predicates P(t, t, t): system, G: goal;
            bound facts 2;
            init { Time@0, P(a, a, a)@0, G@0 }
            goal { G@T1 }
            """
        )
        report = validate_scenario(scenario)
        assert report.fact_size_failures
        assert "size 4" in report.fact_size_failures[0]

    def test_inferred_bound_covers_everything(self, travel):
        assert validate_scenario(travel).fact_size_failures == ()

    def test_explicit_constraints_option(self):
        scenario = parse_scenario(
            """
            types t; consts a: t;
            predicates P(t): system, G: goal;
            option explicit_constraints;
            init { Time@0, P(a)@3, G@0 }
            rule system r { consume: P(x)@T1; create: P(x)@T+1; }
            goal { G@T1 }
            """
        )
        assert not scenario.inject_past
        # without implicit past-consumption the rule may consume future facts
        assert not validate_scenario(scenario).progressing


# ---------------------------------------------------------------------------
# Diagnostics digest
# ---------------------------------------------------------------------------

# whitespace and comments are kept as pieces so mutants keep their layout
_PIECE = re.compile(r"\s+|#[^\n]*|\d+d\d+:\d+|\w+|<=|>=|.", re.S)
_EXTRA_PIECES = (
    "Time", "T", "x", "rule", "init", "pre", "consume", "create", "guard",
    "system", "goal", "critical", "(", ")", ",", ";", ":", "@", "+", "-", "|",
    "{", "}", "<", "=", "0", "7", "3d25:00", "$",
)

# diagnostics the token mutations rarely or never produce
_HANDWRITTEN = (
    "types t t;\ninit { Time@0 }\n",
    "types t;\nconsts a: t, a: t;\ninit { Time@0 }\n",
    "types t;\npredicates P: system, P: goal;\ninit { Time@0 }\n",
    "types t;\npredicates Time: system;\ninit { Time@0 }\n",
    "types t;\npredicates P: system;\ninit { Time@0, P@0 }\n"
    "rule system r { consume: P@T1; create: P@T+1; }\n"
    "rule system r { consume: P@T1; create: P@T+2; }\n",
    "types t;\npredicates P: system;\ninit { Time@0, P@0 }\n"
    "rule system r { pre: Time@T1; consume: P@T2; create: P@T+1; }\n",
    "types t;\npredicates P: system;\ninit { Time@0, P@0 }\n"
    "rule system r { consume: Time@T1, P@T2; create: P@T+1; }\n",
    "types t;\npredicates P: system;\ninit { Time@0, P@0 }\n"
    "rule system r { consume: P@T1; create: P@T+1, Time@T+1; }\n",
    "types t;\ninit { Time@0d24:00 }\n",
    "types t;\ninit { Time@1d00:60 }\n",
    "types t;\npredicates P: system;\ninit { Time@0, P@0 }\n"
    "rule system r { consume: P@T1; create: P@T+0d25:00; }\n",
    "types t;\ninit { Time@0 }\n$\n",
    "types t;\ninit { Time@0 ~ }\n",
    "types t; consts a: t;\npredicates P(t): system;\n"
    "init { Time@0, P(b)@0, P(a, a)@0, P@0 }\n",
    "types t u; consts a: t;\npredicates P(u): system;\ninit { Time@0, P(a)@0 }\n",
    "types t; consts a: t;\npredicates P(t): system, G: goal;\ninit { Time@0 }\n"
    "rule system r { consume: P(f(x))@T1; create: P(a)@T+1; }\n",
    "types t; consts a: t;\npredicates P(t): system, G: goal;\ninit { Time@0 }\n"
    "goal { G@T1 | T2 < T1 }\n",
    "types t;\npredicates P: system, G: goal;\ninit { Time@0 }\n"
    "rule system r { consume: P@T1; create: P@T+1; guard: T1 ~ T; }\n",
    "types t;\npredicates P: system;\ninit { Time@0 }\n"
    "rule system r { consume: P@T1; create: P@T1; }\n",
    "types t;\npredicates P: system;\ninit { Time@0 }\n"
    "rule update r { consume: P@T1; create: P@T+1; when: T1 <= T; }\n",
    "types t;\noption fast;\nbound facts x;\ninit { Time@0 }\n",
    "types t;\npredicates P: boss;\ninit { Time@0, Time@1 }\n",
    "types t;\npredicates P: system;\ninit { Time@0 }\ngoal { P@T1 }\n",
    "types t; consts a: t;\npredicates P(t): system;\ninit { Time@0, P(f(a))@0 }\n",
    "types t;\ninit { Time@0, Time@1 }\n",
    "types t;\n",
)


def _diagnostics_corpus() -> list[str]:
    """Seeded one- and two-token deletes, replaces and inserts of the bundled
    scenarios and the worked example, then the handwritten cases."""
    corpus = []
    sources = (
        ("travel", bundled_text("travel.msr"), 500),
        ("minimal", bundled_text("minimal.msr"), 800),
        ("worked", WORKED_EXAMPLE, 700),
    )
    for seed, (_, text, count) in enumerate(sources):
        rng = random.Random(seed)
        pieces = _PIECE.findall(text)
        slots = [
            i for i, p in enumerate(pieces)
            if not p.isspace() and not p.startswith("#")
        ]
        vocab = sorted({pieces[i] for i in slots} | set(_EXTRA_PIECES))
        for _ in range(count):
            out = list(pieces)
            for _ in range(rng.randint(1, 2)):
                i = rng.choice(slots)
                op = rng.randrange(3)
                if op == 0:
                    out[i] = ""
                elif op == 1:
                    out[i] = rng.choice(vocab)
                else:
                    out[i] = out[i] + " " + rng.choice(vocab)
            corpus.append("".join(out))
    corpus.extend(_HANDWRITTEN)
    return corpus


def _render_diagnostics(text: str) -> str:
    try:
        parse_scenario(text, "m.msr")
    except ScenarioError as exc:
        return str(exc)
    return "OK"


def test_diagnostics_digest():
    # taken with the parser that had separate atom parsers for init facts and
    # patterns, a hand-written loop per list, and its own global-time checks;
    # text, line, column and order of every diagnostic must stay the same;
    # since a name used as both a time and a term variable is rejected where
    # its rule or pair is built, three mutants carry that diagnostic too
    rendered = [_render_diagnostics(text) for text in _diagnostics_corpus()]
    assert len(rendered) == 2000 + len(_HANDWRITTEN)
    digest = hashlib.sha256("\n\x00".join(rendered).encode("utf-8")).hexdigest()
    assert digest == (
        "5708d2d015a13c76b3e3860ddfff2de22fd4c48027ec1a211f257ed6e3bd6593"
    )


# ---------------------------------------------------------------------------
# Typed configurations
# ---------------------------------------------------------------------------

def _witness_configurations(witness):
    """Every configuration of a witness tree's traces, children included."""
    yield from witness.trace.configurations()
    for _, _, sub in witness.children:
        yield from _witness_configurations(sub)


class TestTypedConfigurations:
    """Sorts are checked once, at the scenario boundary: every initial
    configuration is checked against the signature, and moves keep
    configurations typed, which is why no matcher tests a type."""

    def test_initial_configuration_is_checked(self, travel):
        clock = TimedFact("Time", (), 45)
        fra = Constant("FRA", "city")
        ill_typed = TimedFact("At", (fra, fra), 0)
        for fact, message in (
            (ill_typed, "At: argument FRA is not of type place"),
            (TimedFact("Nowhere", (), 0), "undeclared predicate Nowhere"),
            (TimedFact("At", (fra,), 0), "predicate At expects 2 arguments, got 1"),
        ):
            with pytest.raises(KernelError, match=message):
                travel.with_initial(Configuration([clock, fact]))
        assert travel.with_initial(travel.initial).initial == travel.initial

    def test_copies_of_an_ill_typed_fact_raise_its_message(self, travel):
        """Facts are checked in canonical order, a run of copies of one fact
        object once: copies of an ill-typed fact still raise its message,
        before a later bad fact's."""
        clock = TimedFact("Time", (), 45)
        fra = Constant("FRA", "city")
        ill_typed = TimedFact("At", (fra, fra), 0)
        later = TimedFact("Nowhere", (), 1)
        for facts in ([later, ill_typed, ill_typed], [ill_typed, later, ill_typed, ill_typed]):
            with pytest.raises(KernelError, match="At: argument FRA is not of type place"):
                travel.with_initial(Configuration([clock, *facts]))
        with pytest.raises(KernelError, match="undeclared predicate Nowhere"):
            travel.with_initial(Configuration([clock, later, later, *travel.initial.others]))

    def test_explored_and_witness_configurations_are_typed(self, travel):
        """Configurations reached by system and update moves, and those of
        the witnesses' traces, hold only facts their signature admits: on
        the travel starts, the first 20 `qbf_mix` formulas and 20 random
        progressing scenarios with updates."""
        cases = [
            (travel_with_start(travel, t0), 120, ResilienceQuery(n, 12, 220))
            for t0, n in ((42, 2), (60, 1), (107, 2), (108, 0), (120, 0), (121, 0))
        ]
        cases += [
            (qbf_to_scenario(q), 60, ResilienceQuery(q.n, 1, 0)) for q in qbf_mix()[:20]
        ]
        cases += [
            (random_scenario(seed, progressing=True, with_updates=True), 60,
             ResilienceQuery(1, 2, 2))
            for seed in range(20)
        ]
        facts = witnesses = 0
        for scenario, limit, query in cases:
            configs = explored_states(scenario, limit)
            result = check_resilience(scenario, query)
            if result.resilient:
                witnesses += 1
                configs += list(_witness_configurations(result.witness))
            check = scenario.signature.check_fact_args
            for config in configs:
                for f in config:
                    check(f.pred, f.args)
                    facts += 1
        assert witnesses > 20
        assert facts > 50_000
