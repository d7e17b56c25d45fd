from __future__ import annotations

import json
from pathlib import Path

import pytest

from msrplan.cli import EXIT_ERROR, EXIT_NO, EXIT_YES, cli_dispatch
from msrplan.scenario import bundled_text

QDIMACS_TRUE = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n-1 -2 -3 0\n"
QDIMACS_FALSE = "p cnf 3 1\ne 1 0\na 2 0\ne 3 0\n2 2 2 0\n"


@pytest.fixture()
def travel_file(tmp_path: Path) -> str:
    path = tmp_path / "travel.msr"
    path.write_text(bundled_text("travel.msr"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def minimal_file(tmp_path: Path) -> str:
    path = tmp_path / "minimal.msr"
    path.write_text(bundled_text("minimal.msr"), encoding="utf-8")
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestValidate:
    def test_travel_report(self, capsys, travel_file):
        code, out = run(capsys, "validate", travel_file)
        assert code == EXIT_YES
        assert "scenario progressing: yes" in out
        assert "eta measure: 2 (3-simple)" in out

    def test_unreadable_file(self, capsys):
        code, out = run(capsys, "validate", "/nonexistent.msr")
        assert code == EXIT_ERROR

    def test_parse_error_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.msr"
        bad.write_text("types t;\nconsts a: u;\ninit { Time@0 }\n", encoding="utf-8")
        code, out = run(capsys, "validate", str(bad))
        assert code == EXIT_ERROR
        assert f"{bad}:2:11: unknown type u" in out


class TestTraceAndGoal:
    def test_seeded_walk_is_reproducible(self, capsys, minimal_file):
        code1, out1 = run(capsys, "trace", minimal_file, "--ticks", "4", "--seed", "9")
        code2, out2 = run(capsys, "trace", minimal_file, "--ticks", "4", "--seed", "9")
        assert code1 == code2 == EXIT_YES
        assert out1 == out2
        assert "seed: 9" in out1

    def test_goal_found(self, capsys, minimal_file):
        code, out = run(capsys, "goal", minimal_file, "--budget", "2")
        assert code == EXIT_YES
        assert "goal reached at t=1" in out

    def test_goal_not_found(self, capsys, minimal_file):
        code, out = run(capsys, "goal", minimal_file, "--budget", "0")
        assert code == EXIT_NO

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
            capsys,
            "resilience", minimal_file, "-n", "1", "-a", "2", "-b", "1",
            "--witness", str(witness),
        )
        assert code == EXIT_YES
        assert "resilient at (n=1, a=2, b=1)" in out
        data = json.loads(witness.read_text())
        assert data["query"] == {"n": 1, "a": 2, "b": 1}

    def test_verify_round_trip(self, capsys, minimal_file, tmp_path):
        witness = tmp_path / "w.json"
        run(
            capsys,
            "resilience", minimal_file, "-n", "1", "-a", "2", "-b", "1",
            "--witness", str(witness),
        )
        code, out = run(
            capsys,
            "resilience", minimal_file, "-n", "1", "-a", "2", "-b", "1",
            "--verify", str(witness),
        )
        assert code == EXIT_YES and "witness verified" in out

    def test_verify_mutated_witness_fails_with_clause(
        self, capsys, minimal_file, tmp_path
    ):
        witness = tmp_path / "w.json"
        run(
            capsys,
            "resilience", minimal_file, "-n", "0", "-a", "1", "-b", "0",
            "--witness", str(witness),
        )
        data = json.loads(witness.read_text())
        data["trace"] = data["trace"] + [{"rule": "Tick"}] * 3
        witness.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(
            capsys,
            "resilience", minimal_file, "-n", "0", "-a", "1", "-b", "0",
            "--verify", str(witness),
        )
        assert code == EXIT_NO
        assert "tick budget" in out

    @pytest.mark.parametrize(
        "path, value, clause",
        [
            (("trace", 0, "sigma", "T1"), -1, "binding T1: timestamp -1 out of range"),
            (("trace", 0, "sigma", "T1"), 10**20, "timestamp 100000000000000000000 out"),
            (("query", "b"), True, "root: query mismatch: node says (1,2,True)"),
        ],
        ids=["T1=-1", "T1=10**20", "b=true"],
    )
    def test_verify_names_a_malformed_value_at_its_place(
        self, capsys, minimal_file, tmp_path, path, value, clause
    ):
        """Exit 1 with the violation, not 2 with an unlocated error."""
        witness = tmp_path / "w.json"
        query = ("-n", "1", "-a", "2", "-b", "1")
        run(capsys, "resilience", minimal_file, *query, "--witness", str(witness))
        data = json.loads(witness.read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        witness.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "resilience", minimal_file, *query, "--verify", str(witness))
        assert code == EXIT_NO
        assert clause in out

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

    def test_delta_rejects_dmax_zero(self, capsys, minimal_file):
        line = self.error_line(capsys, "delta", minimal_file, "--dmax", "0")
        assert line == "error: dmax must be at least 1"

    def test_verify_rejects_a_witness_that_is_not_json(
        self, capsys, minimal_file, tmp_path
    ):
        witness = tmp_path / "w.json"
        witness.write_text("{ not json", encoding="utf-8")
        line = self.error_line(
            capsys,
            "resilience", minimal_file, "-n", "1", "-a", "2", "-b", "1",
            "--verify", str(witness),
        )
        assert line.startswith("error: witness file is not JSON: ")

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
            capsys,
            "resilience", str(bad), "-n", "1", "-a", "2", "-b", "1",
            "--verify", str(witness),
        )
        assert line.startswith(f"error: {bad}: ")
        assert "can't decode byte 0xff" in line

    def test_undecodable_witness_is_named(self, capsys, minimal_file, tmp_path):
        witness = tmp_path / "w.json"
        witness.write_bytes(b"\xff\xfe")
        line = self.error_line(
            capsys,
            "resilience", minimal_file, "-n", "1", "-a", "2", "-b", "1",
            "--verify", str(witness),
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
        assert line.startswith("error: line 1: ") and "5000 digits" in line

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
            capsys,
            "resilience", minimal_file, "-n", "1", "-a", "2", "-b", "1",
            "--verify", str(witness),
        )
        assert line.startswith("error: witness file exceeds the JSON reader's limits: ")

    def test_verify_names_an_overlong_fresh_index(self, capsys, travel_file, tmp_path):
        """A readable witness whose term does not parse: exit 1 at its step."""
        witness = tmp_path / "w.json"
        query = ("-n", "0", "-a", "12", "-b", "220")
        run(capsys, "resilience", travel_file, *query, "--witness", str(witness))
        data = json.loads(witness.read_text(encoding="utf-8"))
        data["trace"][3]["sigma"]["a"] = "#loc:" + "9" * 5000
        witness.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "resilience", travel_file, *query, "--verify", str(witness))
        assert (code, out) == (
            EXIT_NO, "root.trace[3]: fresh constant index of 5000 digits out of range\n"
        )


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


class TestDelta:
    def test_prints_abstraction(self, capsys, minimal_file):
        code, out = run(capsys, "delta", minimal_file)
        assert code == EXIT_YES
        assert out.strip() == "[Time |0| Start |0| Target(here) |6| Fuse]"

    def test_explicit_dmax(self, capsys, minimal_file):
        code, out = run(capsys, "delta", minimal_file, "--dmax", "3")
        assert code == EXIT_YES
        assert out.strip() == "[Time |0| Start |0| Target(here) |inf| Fuse]"

