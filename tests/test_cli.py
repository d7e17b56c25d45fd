from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msrplan
from conftest import run
from msrplan.certify import verify_witness, witness_to_dict, witness_to_json
from msrplan.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, cli_dispatch
from msrplan.kernel import MAX_TIMESTAMP
from msrplan.reductions import parse_graph
from msrplan.resilience import MAX_UPDATE_ROUNDS, ResilienceQuery, check_resilience
from msrplan.rules import MAX_JOIN_STEPS, EngineError
from msrplan.scenario import bundled_text, parse_scenario
from test_certify import REVISIT, REVISIT_WITNESS
from test_resilience import TOP

QDIMACS_TRUE = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n-1 -2 -3 0\n"
QDIMACS_FALSE = "p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n2 2 2 0\n"


CLASSIFY = """\
types t;
consts a: t;
predicates P(t): system, N: system, G: goal, K: critical;
bound facts 1;
init { Time@0, N@0, G@0, K@0 }
rule system never { consume: N@T1; create: P(a)@T+1; guard: T1 > T + 2, T > T1; }
rule system_update u { consume: G@T1; create: G@T+1; }
rule goal_update v { consume: K@T1; create: G@T+1; }
goal { G@T1 }
critical { K@T1 }
"""

CLASSIFY_REPORT = """\
rule never: balanced, NOT-PROGRESSING, role-ok
  - progressing(ii): guard is unsatisfiable
rule u: balanced, progressing, role-warnings
  - role(system-update): consumes G; planning facts may only occur in the side condition
  - role(system-update): creates G; planning facts may only occur in the side condition
rule v: balanced, progressing, role-warnings
  - role(goal-update): consumes K; critical facts may only occur in the side condition
scenario progressing: no
eta measure: 1 (2-simple)
inferred Dmax: 2
fact size bound: 1
fact size violation: rule never creates P(a) of size 2
"""


# the option holds for the whole file: rule ab, written before it, gets no
# implicit T >= T1 and so may consume a future fact
OPTION_AFTER_RULE = """\
predicates A: system, B: system, Done: goal;
init { Time@0, A@0 }
rule system ab { consume: A@T1; create: B@T+1; }
option explicit_constraints;
rule system fin { consume: B@T1; create: Done@T+1; guard: T1 <= T; }
goal { Done@T1 }
"""

# four instantaneous rules from A to Done, m = 2: not progressing, so the
# goal search is bounded by path length (budget + 1) * m, not by ticks
CHAIN = """\
predicates A: system, B: system, C: system, D: system, Done: goal;
init { Time@0, A@0 }
rule system ab { consume: A@T1; create: B@T; guard: T1 <= T; }
rule system bc { consume: B@T1; create: C@T; guard: T1 <= T; }
rule system cd { consume: C@T1; create: D@T; guard: T1 <= T; }
rule system finish { consume: D@T1; create: Done@T; guard: T1 <= T; }
goal { Done@T1 }
"""

QUERIES = {
    "minimal.msr": ("-n", "1", "-a", "2", "-b", "1"),
    "travel.msr": ("-n", "1", "-a", "12", "-b", "220"),
}

NO_GOAL = "no compliant goal trace within budget\n"

# minimal.msr with a critical pair of eight variables, above `ETA_CAP`
WIDE = bundled_text("minimal.msr").replace(
    "critical { Time@T, Fuse@T }",
    "critical { Time@T, Fuse@T1, Target(a)@T2, Target(b)@T3, Reached(c)@T4 | T1 > T + 100 }",
)

# One update is applicable at every instant, and the goal holds only
# `offset` ticks after `finish`, so a query at n = a nests n update rounds.
LATE = """\
types token; consts here: token;
predicates Ticker: system, Start: system, Done(token): goal, Want(token): goal, Never: critical;
init {{ Time@0, Ticker@0, Start@0, Want(here)@0, Never@0 }}
rule system finish {{ consume: Start@T1; create: Done(here)@T+1; }}
rule system_update bump {{ consume: Ticker@T1; create: Ticker@T+1; guard: T1 = T; }}
goal {{ Time@T, Want(x)@T1, Done(x)@T2 | T > T2 + {offset} }}
critical {{ Time@T, Never@T1 | T1 > T + 1000000 }}
"""


@pytest.fixture()
def minimal_file(bundled_file) -> str:
    return bundled_file("minimal.msr")


def verify_tampered(capsys, scenario: str, query: tuple, tamper) -> tuple[int, str]:
    """`--verify`'s exit code and output on the scenario's witness at `query`
    after `tamper` edits its JSON in place."""
    witness = Path(scenario).with_suffix(".json")
    assert run(capsys, "resilience", scenario, *query, "--witness", str(witness))[0] == EXIT_YES
    data = json.loads(witness.read_text(encoding="utf-8"))
    tamper(data)
    witness.write_text(json.dumps(data), encoding="utf-8")
    return run(capsys, "resilience", scenario, *query, "--verify", str(witness))


class TestValidate:
    def test_travel_report(self, capsys, bundled_file):
        code, out = run(capsys, "validate", bundled_file("travel.msr"))
        assert code == EXIT_YES
        assert "scenario progressing: yes" in out
        assert "eta measure: 2 (3-simple)" in out

    def test_classification_messages(self, capsys, tmp_path):
        """An unsatisfiable guard, an update rule that consumes a goal fact,
        a goal update that consumes a critical fact, and a created fact over
        the declared bound: each is reported, and the file still validates."""
        path = tmp_path / "classify.msr"
        path.write_text(CLASSIFY, encoding="utf-8")
        code, out = run(capsys, "validate", str(path))
        assert (code, out) == (EXIT_YES, CLASSIFY_REPORT)

    def test_option_holds_for_rules_written_before_it(self, capsys, tmp_path):
        path = tmp_path / "option.msr"
        path.write_text(OPTION_AFTER_RULE, encoding="utf-8")
        code, out = run(capsys, "validate", str(path))
        assert code == EXIT_YES
        assert out.splitlines()[:2] == [
            "rule ab: balanced, NOT-PROGRESSING, role-ok",
            "  - progressing(ii): consumed fact A@T1 may lie in the future",
        ]

    def test_unreadable_file(self, capsys):
        code, out = run(capsys, "validate", "/nonexistent.msr")
        assert code == EXIT_ERROR

    def test_parse_error_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.msr"
        bad.write_text("types t;\nconsts a: u;\ninit { Time@0 }\n", encoding="utf-8")
        code, out = run(capsys, "validate", str(bad))
        assert code == EXIT_ERROR
        assert f"{bad}:2:11: unknown type u" in out

    def test_second_bound_declaration_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bound.msr"
        bad.write_text(
            "types t;\nbound facts 2;\nbound facts 5;\ninit { Time@0 }\n", encoding="utf-8"
        )
        code = cli_dispatch(["validate", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == f"{bad}:3:1: duplicate bound declaration\n"

    @pytest.mark.parametrize(
        "block, where",
        [
            ("rule system_update u { consume: P(x)@x; create: P(x)@T+1; }", "3:20: rule u: "),
            ("goal { G(x)@x }", "3:1: "),
        ],
    )
    def test_time_and_term_variable_is_a_located_diagnostic(
        self, capsys, tmp_path, block, where
    ):
        bad = tmp_path / "clash.msr"
        head = "types t; consts c: t; predicates P(t): system, G(t): goal;\ninit { Time@0 }\n"
        bad.write_text(head + block + "\n", encoding="utf-8")
        code = cli_dispatch(["validate", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        message = "x is both a time variable and a term variable"
        assert captured.err == f"{bad}:{where}{message}\n"


class TestTraceAndGoal:
    def test_seeded_walk_is_reproducible(self, capsys, minimal_file):
        code1, out1 = run(capsys, "trace", minimal_file, "--ticks", "4", "--seed", "9")
        code2, out2 = run(capsys, "trace", minimal_file, "--ticks", "4", "--seed", "9")
        assert code1 == code2 == EXIT_YES
        assert out1 == out2
        assert "seed: 9" in out1

    def test_negative_tick_count_is_an_error(self, capsys, minimal_file):
        code = cli_dispatch(["trace", minimal_file, "--ticks", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: tick count must be a natural number\n"

    def test_zero_ticks_prints_the_seed_alone(self, capsys, minimal_file):
        code, out = run(capsys, "trace", minimal_file, "--ticks", "0")
        assert code == EXIT_YES
        assert out == "seed: 0\n"

    def test_goal_found(self, capsys, minimal_file):
        code, out = run(capsys, "goal", minimal_file, "--budget", "2")
        assert code == EXIT_YES
        assert "goal reached at t=1" in out

    def test_goal_not_found(self, capsys, bundled_file):
        # travel's goal takes 232 ticks (test_goal_travel_stdout)
        for name, budget in (("minimal.msr", "0"), ("travel.msr", "220")):
            code, out = run(capsys, "goal", bundled_file(name), "--budget", budget)
            assert (code, out) == (EXIT_NO, NO_GOAL)

    @pytest.mark.parametrize("command", [
        ("goal", "--budget", str(2**63)),
        ("resilience", "-n", "0", "-a", "1", "-b", str(2**63 - 1)),
    ], ids=["goal", "resilience"])
    def test_budget_overflow_is_an_error(self, capsys, minimal_file, command):
        code, out = run(capsys, command[0], minimal_file, *command[1:])
        assert code == EXIT_ERROR
        assert "error: tick budget overflows the timestamp range" in out


class TestResilience:
    def test_positive_with_witness(self, capsys, minimal_file, tmp_path):
        witness = tmp_path / "w.json"
        code, out = run(
            capsys, "resilience", minimal_file, *QUERIES["minimal.msr"], "--witness", str(witness)
        )
        assert code == EXIT_YES
        assert "resilient at (n=1, a=2, b=1)" in out
        data = json.loads(witness.read_text())
        assert data["query"] == {"n": 1, "a": 2, "b": 1}

    def test_verify_round_trip(self, capsys, bundled_file, tmp_path):
        witness = tmp_path / "w.json"
        for name, query in QUERIES.items():
            scenario = bundled_file(name)
            run(capsys, "resilience", scenario, *query, "--witness", str(witness))
            code, out = run(capsys, "resilience", scenario, *query, "--verify", str(witness))
            assert (code, out) == (EXIT_YES, "witness verified\n")

    def test_verify_mutated_witness_fails_with_clause(self, capsys, minimal_file):
        code, out = verify_tampered(
            capsys, minimal_file, ("-n", "0", "-a", "1", "-b", "0"),
            lambda w: w["trace"].extend([{"rule": "Tick"}] * 3),
        )
        assert code == EXIT_NO
        assert "tick budget" in out

    @pytest.mark.parametrize(
        "name, path, value, line",
        [
            ("minimal.msr", ("trace", 0, "sigma", "T1"), -1,
             "root.trace[0]: binding T1: timestamp -1 out of range"),
            ("minimal.msr", ("trace", 0, "sigma", "T1"), 10**20,
             "root.trace[0]: binding T1: timestamp 100000000000000000000 out of range"),
            ("minimal.msr", ("query", "b"), True,
             "root: query mismatch: node says (1,2,True), expected (1,2,1)"),
            # travel's first rule step is advance_clock at T = 46; its fourth
            # step, board1, binds x to FRA
            ("travel.msr", ("trace", 1, "sigma", "zz"), 5,
             "root.trace[1]: binding zz names no variable of rule advance_clock"),
            ("travel.msr", ("trace", 1, "sigma", "T"), 47,
             "root.trace[1]: instance does not re-apply"),
            ("travel.msr", ("trace", 3, "sigma", "x"), "f(FRA)",
             "root.trace[3]: unparseable term 'f(FRA)'"),
            # True == 1 in Python, so only the JSON type tells it from n = 1
            ("travel.msr", ("query", "n"), True,
             "root: query mismatch: node says (True,12,220), expected (1,12,220)"),
        ],
        ids=["T1=-1", "T1=10**20", "b=true", "zz", "T+1", "f(FRA)", "n=true"],
    )
    def test_verify_names_a_malformed_value_at_its_place(
        self, capsys, bundled_file, name, path, value, line
    ):
        """Exit 1 with the violation, not 2 with an unlocated error."""

        def tamper(node):
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value

        assert verify_tampered(capsys, bundled_file(name), QUERIES[name], tamper) == (
            EXIT_NO, line + "\n"
        )

    def test_refutation_names_the_update_at_the_deadline(self, capsys, bundled_file):
        """Rebased to start 108, delaying the last direct flight at the
        deadline defeats n = 2."""
        travel = bundled_file("travel.msr", 108)
        assert run(capsys, "resilience", travel, "-n", "2", "-a", "12", "-b", "220") == (
            EXIT_NO, "not resilient at (n=2, a=12, b=220)\n  update delay_flight1"
            "{T=120,T1=120,a=id15,x=FRA,y=DBV} at t=120 admits no (1,0,220)-resilient reaction\n"
        )

    @pytest.mark.parametrize(
        "tamper, code, out",
        [
            (lambda w: None, EXIT_YES, "witness verified\n"),
            (lambda w: w["children"][0]["instance"]["sigma"].update(T1=48), EXIT_NO,
             "root.children[0]: unknown update point "
             "(9, 'delay_flight1{T=47,T1=48,a=id16,x=FRA,y=ZAG}')\n"
             "root: uncovered update point (9, 'delay_flight1{T=47,T1=47,a=id16,x=FRA,y=ZAG}')\n"),
            (lambda w: w["children"].pop(0), EXIT_NO,
             "root: uncovered update point (9, 'delay_flight1{T=47,T1=47,a=id16,x=FRA,y=ZAG}')\n"),
        ],
        ids=["intact", "moved", "dropped"],
    )
    def test_start_42_witness_covers_each_update_point(
        self, capsys, bundled_file, tamper, code, out
    ):
        """The first child reacts to delaying flight id16 at t = 47; moved
        to T1 = 48 it answers no update point, and moved or dropped it leaves
        that point uncovered."""
        travel, query = bundled_file("travel.msr", 42), ("-n", "2", "-a", "12", "-b", "220")
        assert verify_tampered(capsys, travel, query, tamper) == (code, out)

    def test_negative_verdict_exit_code(self, capsys, tmp_path):
        scenario = tmp_path / "s.msr"
        scenario.write_text(
            """
            types t;
            predicates P: system, Win: system, G: goal;
            init { Time@0, P@0, G@0 }
            rule system step { consume: P@T1; create: P@T+3; }
            goal { G@T1, Win@T2 }
            """,
            encoding="utf-8",
        )
        # nothing ever creates Win, so no goal trace exists
        code, out = run(capsys, "resilience", str(scenario), "-n", "0", "-a", "2", "-b", "0")
        assert code == EXIT_NO
        assert "not resilient" in out

    def test_usage_error(self, capsys, minimal_file):
        code, _ = run(capsys, "resilience", minimal_file, "-n", "0")
        assert code == EXIT_ERROR

    def test_verify_excludes_witness(self, capsys, minimal_file, tmp_path):
        """`--verify` checks no query, so it has no witness to write: the
        pair is a usage error and no file is written."""
        witness = tmp_path / "w.json"
        argv = ("resilience", minimal_file, *QUERIES["minimal.msr"])
        assert run(capsys, *argv, "--witness", str(witness))[0] == EXIT_YES
        out = tmp_path / "out.json"
        code, text = run(capsys, *argv, "--verify", str(witness), "--witness", str(out))
        assert code == EXIT_ERROR
        assert "not allowed with argument" in text and "usage:" in text
        assert not out.exists()


class TestMalformedInput:
    """Each malformed input exits 2 with one `error:` line on stderr."""

    @staticmethod
    def error_line(capsys, *argv: str) -> str:
        code = cli_dispatch(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        return line

    def test_eta_cap_refusal_names_the_join(self, capsys, minimal_file):
        """A critical pair of more variables than the cap is refused with the
        cap worded as what it bounds."""
        text = Path(minimal_file).read_text(encoding="utf-8")
        pattern = ", ".join(f"Fuse@T{i}" for i in range(1, 8))
        Path(minimal_file).write_text(
            text.replace("critical { Time@T, Fuse@T }", f"critical {{ {pattern} }}"),
            encoding="utf-8",
        )
        line = self.error_line(
            capsys, "resilience", minimal_file, "-n", "0", "-a", "1", "-b", "0"
        )
        assert line == (
            "error: critical specification uses 7 variables per pair; cap is 6 "
            "variables bound by one critical pair's join"
        )

    def test_delta_rejects_dmax_zero(self, capsys, minimal_file):
        line = self.error_line(capsys, "delta", minimal_file, "--dmax", "0")
        assert line == "error: dmax must be at least 1"

    def test_verify_rejects_a_witness_that_is_not_json(
        self, capsys, minimal_file, tmp_path
    ):
        witness = tmp_path / "w.json"
        witness.write_text("{ not json", encoding="utf-8")
        line = self.error_line(
            capsys, "resilience", minimal_file, *QUERIES["minimal.msr"], "--verify", str(witness)
        )
        assert line.startswith("error: witness file is not JSON: ")

    def test_verify_refuses_a_root_window_of_zero(self, capsys, bundled_file, tmp_path):
        """A root query with a = 0 is refused with and without `--verify`,
        also for a witness whose root says (0, 0, 232), so the two paths
        share one check; only a child's window may be 0."""
        travel = bundled_file("travel.msr")
        witness = tmp_path / "w.json"
        written = ("-n", "0", "-a", "12", "-b", "220", "--witness", str(witness))
        assert run(capsys, "resilience", travel, *written)[0] == EXIT_YES
        data = json.loads(witness.read_text(encoding="utf-8"))
        data["query"] = {"n": 0, "a": 0, "b": 232}
        witness.write_text(json.dumps(data), encoding="utf-8")
        query = ("resilience", travel, "-n", "0", "-a", "0", "-b", "232")
        for argv in ([*query, "--verify", str(witness)], query):
            assert cli_dispatch(list(argv)) == EXIT_ERROR
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "error: the disruption window a must be positive\n"
            )

    def test_verify_refuses_an_update_round_without_progress(self, capsys, tmp_path):
        """n = 1 on a non-progressing scenario is refused with and without
        `--verify`, also for a witness that covers each update point."""
        scenario, witness = tmp_path / "revisit.msr", tmp_path / "w.json"
        scenario.write_text(REVISIT, encoding="utf-8")
        witness.write_text(json.dumps(REVISIT_WITNESS), encoding="utf-8")
        query = ("resilience", str(scenario), "-n", "1", "-a", "1", "-b", "0")
        for argv in ([*query, "--verify", str(witness)], query):
            assert self.error_line(capsys, *argv) == (
                "error: resilience checking requires a progressing planning scenario"
            )

    def test_failed_witness_write_prints_no_verdict(self, capsys, minimal_file, tmp_path):
        """The witness is written before the verdict is printed, so a write
        that fails leaves stdout empty, as exit 2 says."""
        witness = tmp_path / "missing" / "w.json"
        line = self.error_line(
            capsys, "resilience", minimal_file, "-n", "0", "-a", "1", "-b", "5",
            "--witness", str(witness),
        )
        assert line.startswith("error: [Errno 2] ")
        assert not witness.parent.exists()

    def test_undecodable_input_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.msr"
        bad.write_bytes(b"types t;\n# caf\xe9\n")
        line = self.error_line(capsys, "validate", str(bad))
        assert "can't decode byte 0xe9" in line

    def test_undecodable_scenario_is_named(self, capsys, minimal_file, tmp_path):
        bad = tmp_path / "bad.msr"
        bad.write_bytes(b"\xff\xfe")
        witness = tmp_path / "w.json"
        witness.write_text("{}", encoding="utf-8")
        line = self.error_line(
            capsys, "resilience", str(bad), *QUERIES["minimal.msr"], "--verify", str(witness)
        )
        assert line.startswith(f"error: {bad}: ")
        assert "can't decode byte 0xff" in line

    def test_undecodable_witness_is_named(self, capsys, minimal_file, tmp_path):
        witness = tmp_path / "w.json"
        witness.write_bytes(b"\xff\xfe")
        line = self.error_line(
            capsys, "resilience", minimal_file, *QUERIES["minimal.msr"], "--verify", str(witness)
        )
        assert line.startswith(f"error: {witness}: ")
        assert "can't decode byte 0xff" in line


    # `int` converts at most 4,300 digits (sys.get_int_max_str_digits)
    @pytest.mark.parametrize("stamp", ["9" * 5000, "9" * 5000 + "d1:00"], ids=["number", "clock"])
    def test_overlong_timestamp_is_a_located_diagnostic(
        self, capsys, minimal_file, tmp_path, stamp
    ):
        bad = tmp_path / "big.msr"
        text = Path(minimal_file).read_text(encoding="utf-8")
        bad.write_text(text.replace("Fuse@6", f"Fuse@{stamp}"), encoding="utf-8")
        code = cli_dispatch(["validate", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == f"{bad}:18:8: number of {len(stamp)} digits out of range\n"

    def test_overlong_problem_line_count(self, capsys, tmp_path):
        formula = tmp_path / "big.qdimacs"
        formula.write_text(f"p cnf {'9' * 5000} 1\ne 1 0\n1 1 1 0\n", encoding="utf-8")
        line = self.error_line(capsys, "qbf", "eval", str(formula))
        assert line == "error: line 1: number of 5000 digits out of range"

    def test_second_problem_line(self, capsys, tmp_path):
        """A second problem line is an error, not an override of the first."""
        formula = tmp_path / "twice.qdimacs"
        formula.write_text("p cnf 3 1\n" + QDIMACS_TRUE, encoding="utf-8")
        line = self.error_line(capsys, "qbf", "eval", str(formula))
        assert line == "error: line 2: second problem line"

    @pytest.mark.parametrize(
        "text",
        ['{"query": {"n": %s}}' % ("9" * 5000), "[" * 100_000 + "]" * 100_000],
        ids=["digits", "nesting"],
    )
    def test_verify_rejects_json_beyond_the_reader(
        self, capsys, minimal_file, tmp_path, text
    ):
        witness = tmp_path / "w.json"
        witness.write_text(text, encoding="utf-8")
        line = self.error_line(
            capsys, "resilience", minimal_file, *QUERIES["minimal.msr"], "--verify", str(witness)
        )
        assert line.startswith("error: witness file exceeds the JSON reader's limits: ")

    @pytest.mark.parametrize(
        "trace, line",
        [
            ("ticks", "root.trace[1]: global time overflow"),
            ("late", "root.trace[1]: created timestamp overflow"),
        ],
    )
    def test_verify_names_a_timestamp_overflow_at_its_step(
        self, capsys, tmp_path, trace, line
    ):
        """Two ticks from one unit below the top of the timestamp range, or
        the goal rule one tick later, whose created fact is out of range:
        exit 1 at the step, not 2 with an unlocated error."""
        scenario = tmp_path / "top.msr"
        scenario.write_text(TOP, encoding="utf-8")

        def tamper(data):
            finish = data["trace"][0]
            finish["sigma"]["T"] += 1
            data["trace"] = [{"rule": "Tick"}, finish if trace == "late" else {"rule": "Tick"}]

        query = ("-n", "0", "-a", "1", "-b", "0")
        assert verify_tampered(capsys, str(scenario), query, tamper) == (EXIT_NO, line + "\n")

    def test_verify_names_an_overlong_fresh_index(self, capsys, bundled_file):
        """A readable witness whose term does not parse: exit 1 at its step."""
        code, out = verify_tampered(
            capsys, bundled_file("travel.msr"), ("-n", "0", "-a", "12", "-b", "220"),
            lambda w: w["trace"][3]["sigma"].update(a="#loc:" + "9" * 5000),
        )
        assert (code, out) == (
            EXIT_NO, "root.trace[3]: fresh constant index of 5000 digits out of range\n"
        )


class TestRootRefusals:
    """Each refusal of a root query is decided and worded once, by
    `ResilienceQuery.check_root`: checking, the command line with and
    without `--verify`, and `verify_witness` on the engine's tree and on its
    JSON object refuse it with one message."""

    # refusal -> (scenario text, (n, a, b), message)
    CASES = {
        "window": (
            bundled_text("minimal.msr"), (0, 0, 5), "the disruption window a must be positive",
        ),
        "progress": (
            REVISIT, (1, 1, 0), "resilience checking requires a progressing planning scenario",
        ),
        "eta": (WIDE, (0, 5, 5), (
            "critical specification uses 8 variables per pair; cap is 6 variables "
            "bound by one critical pair's join"
        )),
        "overflow": (
            bundled_text("minimal.msr"), (0, MAX_TIMESTAMP - 2, 5),
            "tick budget overflows the timestamp range",
        ),
        "rounds": (LATE.format(offset=5), (MAX_UPDATE_ROUNDS + 1, 1, 5), (
            f"a query of {MAX_UPDATE_ROUNDS + 1} update rounds exceeds the limit of "
            f"{MAX_UPDATE_ROUNDS} rounds (MAX_UPDATE_ROUNDS)"
        )),
    }

    @pytest.mark.parametrize("entry", [
        "check_resilience", "resilience", "resilience --verify", "verify tree", "verify json",
    ])
    @pytest.mark.parametrize("refusal", list(CASES))
    def test_one_message_everywhere(self, capsys, tmp_path, minimal, refusal, entry):
        text, nab, message = self.CASES[refusal]
        scenario, query = parse_scenario(text, "refused"), ResilienceQuery(*nab)
        # a witness checking accepts, which the refusal must precede
        witness = check_resilience(minimal, ResilienceQuery(0, 5, 5)).witness
        if entry == "check_resilience":
            with pytest.raises(EngineError) as caught:
                check_resilience(scenario, query)
            assert str(caught.value) == message
        elif entry.startswith("resilience"):
            path, saved = tmp_path / "refused.msr", tmp_path / "w.json"
            path.write_text(text, encoding="utf-8")
            saved.write_text(witness_to_json(witness), encoding="utf-8")
            n, a, b = map(str, nab)
            argv = ["resilience", str(path), "-n", n, "-a", a, "-b", b]
            verify = ["--verify", str(saved)] if entry.endswith("--verify") else []
            code = cli_dispatch(argv + verify)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (EXIT_ERROR, "", f"error: {message}\n")
        else:
            form = witness if entry == "verify tree" else witness_to_dict(witness)
            ok, violations = verify_witness(scenario, query, form)
            assert not ok and violations[0] == f"root: {message}"


class TestUpdateRoundLimit:
    """Every path through a query nests Python frames per update round, so
    more than `MAX_UPDATE_ROUNDS` rounds are refused (exit 2) where they used
    to die with `RecursionError` (exit 1, read as "not resilient")."""

    def test_the_limit_decides_writes_reads_and_verifies(self, capsys, tmp_path):
        scenario, witness = tmp_path / "late.msr", tmp_path / "w.json"
        scenario.write_text(LATE.format(offset=MAX_UPDATE_ROUNDS + 5), encoding="utf-8")
        n = str(MAX_UPDATE_ROUNDS)
        query = ("resilience", str(scenario), "-n", n, "-a", n, "-b", "10")
        assert run(capsys, *query, "--witness", str(witness)) == (EXIT_YES, (
            f"resilient at (n={n}, a={n}, b=10)\nwitness written to {witness}\n"
        ))
        depth, node = 0, json.loads(witness.read_text(encoding="utf-8"))
        while node["children"]:
            depth, node = depth + 1, node["children"][0]["subtree"]
        assert depth == MAX_UPDATE_ROUNDS
        assert run(capsys, *query, "--verify", str(witness)) == (EXIT_YES, "witness verified\n")

    @pytest.mark.parametrize("argv", [
        ("-n", "1500", "-a", "1500", "-b", "3100"),
        ("-n", "340", "-a", "340", "-b", "10", "--witness", "w.json"),
    ], ids=["deep search", "deep witness"])
    def test_past_the_limit_is_refused(self, capsys, tmp_path, argv):
        """Queries that used to exhaust the stack while deciding and while
        writing the witness; `TestRootRefusals` refuses one round past the
        limit on every entry point."""
        scenario = tmp_path / "late.msr"
        scenario.write_text(LATE.format(offset=int(argv[1]) + 5), encoding="utf-8")
        args = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code = cli_dispatch(["resilience", str(scenario), *args])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_ERROR, "")
        assert captured.err == (
            f"error: a query of {argv[1]} update rounds exceeds the limit of "
            f"{MAX_UPDATE_ROUNDS} rounds (MAX_UPDATE_ROUNDS)\n"
        )
        assert not (tmp_path / "w.json").exists()


class TestQbfPipeline:
    def test_eval_exit_codes(self, capsys, tmp_path):
        f_true = tmp_path / "t.qdimacs"
        f_true.write_text(QDIMACS_TRUE, encoding="utf-8")
        f_false = tmp_path / "f.qdimacs"
        f_false.write_text(QDIMACS_FALSE, encoding="utf-8")
        code, out = run(capsys, "qbf", "eval", str(f_true))
        assert code == EXIT_YES and "true" in out
        code, out = run(capsys, "qbf", "eval", str(f_false))
        assert code == EXIT_NO and "false" in out

    def test_gen_then_resilience_matches_eval(self, capsys, tmp_path):
        for text, expected in [(QDIMACS_TRUE, EXIT_YES), (QDIMACS_FALSE, EXIT_NO)]:
            formula = tmp_path / "psi.qdimacs"
            formula.write_text(text, encoding="utf-8")
            out_msr = tmp_path / "psi.msr"
            code, _ = run(capsys, "qbf", "gen", str(formula), "-o", str(out_msr))
            assert code == EXIT_YES
            code, _ = run(
                capsys, "resilience", str(out_msr), "-n", "1", "-a", "1", "-b", "0"
            )
            assert code == expected

    def test_malformed_formula(self, capsys, tmp_path):
        bad = tmp_path / "bad.qdimacs"
        bad.write_text("p cnf 1 1\na 1 0\n1 1 1 0\n", encoding="utf-8")
        code, out = run(capsys, "qbf", "eval", str(bad))
        assert code == EXIT_ERROR


class TestGraphGoal:
    def test_homomorphism_exit_codes(self, capsys, tmp_path):
        tri = tmp_path / "tri.txt"
        tri.write_text("a b\nb c\nc a\n", encoding="utf-8")
        k2 = tmp_path / "k2.txt"
        k2.write_text("u v\nv u\n", encoding="utf-8")
        code, out = run(capsys, "graph-goal", str(tri), str(tri), "--brute")
        assert code == EXIT_YES and "homomorphism:" in out
        code, out = run(capsys, "graph-goal", str(tri), str(k2), "--brute")
        assert code == EXIT_NO and "no homomorphism" in out

    @pytest.mark.parametrize(
        "pattern, host, printed",
        [
            # an isolated vertex declared first maps to the host's first vertex
            ("node d\na b\n", "x y\ny x\n", "d->x, a->x, b->y"),
            ("node a b\n", "node z\n", "a->z, b->z"),  # no edge at all
            # twelve vertices, so x10 and x11 sort before x2 as strings
            ("".join(f"v{i} v{i + 1}\n" for i in range(11)) + "node w\n", "x y\ny x\n",
             ", ".join(f"v{i}->{'xy'[i % 2]}" for i in range(12)) + ", w->x"),
        ],
        ids=["isolated-first", "edgeless", "twelve-vertices"],
    )
    def test_homomorphism_is_total_in_pattern_order(
        self, capsys, tmp_path, pattern, host, printed
    ):
        """The printed map names every pattern vertex once, in the pattern's
        order, and sends every pattern edge onto a host edge."""
        g, k = tmp_path / "g.txt", tmp_path / "k.txt"
        g.write_text(pattern, encoding="utf-8")
        k.write_text(host, encoding="utf-8")
        code, out = run(capsys, "graph-goal", str(g), str(k), "--brute")
        assert code == EXIT_YES
        line = f"homomorphism: {printed}"
        assert out == f"oracle agreement: yes\n{line}\n"
        pairs = [item.split("->") for item in line.split(": ", 1)[1].split(", ")]
        g_graph, k_graph = parse_graph(pattern), parse_graph(host)
        assert [u for u, _ in pairs] == list(g_graph.vertices)
        image = dict(pairs)
        assert set(image.values()) <= set(k_graph.vertices)
        for u, v in g_graph.edges:
            assert (image[u], image[v]) in k_graph.edges

    def test_a_join_past_the_limit_is_an_error(self, capsys, tmp_path):
        """A complete digraph on 33 vertices is a pattern of 1,089 edges,
        more join steps than `MAX_JOIN_STEPS`: the CLI reports an error
        (exit 2) where the join used to die with `RecursionError`, whose
        exit 1 reads as "no homomorphism"."""
        names = [f"v{i}" for i in range(33)]
        g, k = tmp_path / "g.txt", tmp_path / "k.txt"
        g.write_text("".join(f"{u} {v}\n" for u in names for v in names), encoding="utf-8")
        k.write_text("a a\n", encoding="utf-8")
        code, out = run(capsys, "graph-goal", str(g), str(k))
        assert code == EXIT_ERROR
        assert out == (
            "error: a join of 1089 patterns exceeds the limit of 256 steps (MAX_JOIN_STEPS)\n"
        )

    def test_a_join_of_the_limit_matches(self, capsys, tmp_path):
        """A path of `MAX_JOIN_STEPS` edges maps onto a self-loop."""
        g, k = tmp_path / "g.txt", tmp_path / "k.txt"
        g.write_text("".join(f"v{i} v{i + 1}\n" for i in range(MAX_JOIN_STEPS)), encoding="utf-8")
        k.write_text("a a\n", encoding="utf-8")
        code, out = run(capsys, "graph-goal", str(g), str(k))
        assert code == EXIT_YES
        images = ", ".join(f"v{i}->a" for i in range(MAX_JOIN_STEPS + 1))
        assert out == f"homomorphism: {images}\n"


class TestDelta:
    def test_prints_abstraction(self, capsys, bundled_file):
        code, out = run(capsys, "delta", bundled_file("minimal.msr"))
        assert code == EXIT_YES
        assert out.strip() == "[Time |0| Start |0| Target(here) |6| Fuse]"
        assert run(capsys, "delta", bundled_file("travel.msr")) == (EXIT_YES, (
            "[At(FRA,airport) |0| Attended(main,no) |0| Done(main,no) |45| Time |1| ClockBeat "
            "|1| Flight1(id16,FRA,ZAG) |3| Flight2(id14,FRA,DBV) |70| Flight1(id15,FRA,DBV) "
            "|19| Flight1(id17,ZAG,DBV) |136| Deadline(main) |0| Event(main,id215)]\n"
        ))

    def test_explicit_dmax(self, capsys, minimal_file):
        code, out = run(capsys, "delta", minimal_file, "--dmax", "3")
        assert code == EXIT_YES
        assert out.strip() == "[Time |0| Start |0| Target(here) |inf| Fuse]"


class TestNonProgressingChain:
    @pytest.fixture()
    def chain(self, tmp_path) -> str:
        path = tmp_path / "chain.msr"
        path.write_text(CHAIN, encoding="utf-8")
        return str(path)

    def test_goal_within_the_path_bound(self, capsys, chain):
        # budget 0 allows (0 + 1) * 2 = 2 steps, short of the four
        assert run(capsys, "goal", chain, "--budget", "0") == (EXIT_NO, NO_GOAL)
        code, out = run(capsys, "goal", chain, "--budget", "1")
        assert code == EXIT_YES
        assert out.splitlines()[-2:] == [
            "4: finish σ={T=0, T1=0} ⇒ |S|=2 t=0",
            "goal reached at t=0 with 0 ticks",
        ]

    def test_base_case_witness_round_trip(self, capsys, chain, tmp_path):
        witness = tmp_path / "chain.json"
        query = ("-n", "0", "-a", "1", "-b", "0")
        assert run(capsys, "resilience", chain, *query, "--witness", str(witness)) == (
            EXIT_YES, f"resilient at (n=0, a=1, b=0)\nwitness written to {witness}\n"
        )
        assert run(capsys, "resilience", chain, *query, "--verify", str(witness)) == (
            EXIT_YES, "witness verified\n"
        )

    def test_an_update_round_needs_a_progressing_scenario(self, capsys, chain):
        assert run(capsys, "resilience", chain, "-n", "1", "-a", "1", "-b", "0") == (
            EXIT_ERROR, "error: resilience checking requires a progressing planning scenario\n"
        )


def test_module_entry_point_passes_each_exit_code(minimal_file):
    """`python -m msrplan.cli` exits with `cli_dispatch`'s code through
    `main`; the only test that starts a process."""
    src = str(Path(msrplan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for argv, code, out in [
        (("goal", minimal_file, "--budget", "0"), EXIT_NO, NO_GOAL),
        (("delta", minimal_file, "--dmax", "0"), EXIT_ERROR, ""),
        (("delta", minimal_file), EXIT_YES, "[Time |0| Start |0| Target(here) |6| Fuse]\n"),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "msrplan.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout) == (code, out)
