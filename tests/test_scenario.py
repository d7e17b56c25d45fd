from __future__ import annotations

import hashlib
import random
import re

import pytest

from conftest import WORKED_EXAMPLE
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
        assert report.is_eta_simple(3)
        assert not report.fact_size_failures
        # the clock-forcing idiom needs one system rule touching the beat fact
        assert all("advance_clock" in w for w in report.role_warnings)
        assert report.role_warnings

    def test_minimal_smoke(self, minimal):
        report = validate_scenario(minimal)
        assert report.progressing
        assert report.eta == 1
        assert len(minimal.system_rules) == 2
        assert minimal.update_rules == ()

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
    # text, line, column and order of every diagnostic must stay the same
    rendered = [_render_diagnostics(text) for text in _diagnostics_corpus()]
    assert len(rendered) == 2000 + len(_HANDWRITTEN)
    digest = hashlib.sha256("\n\x00".join(rendered).encode("utf-8")).hexdigest()
    assert digest == (
        "d6423d68cda37173d967843d49e7e41ab90dd0d04c677df07ae6a7c215639e8c"
    )
