"""Byte-level regression pins for CLI and QBF generator output.

Each CLI digest was taken from the output of the implementation that had a
separate goal search beside the resilience checker; the single-engine
implementation must reproduce those bytes exactly.  The travel witness is
about 261 KB, so digests are stored instead of golden files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from conftest import qbf_mix
from msrplan.cli import EXIT_YES, cli_dispatch
from msrplan.reductions import qbf_to_msr_text
from msrplan.scenario import bundled_text

# e1 a2 e3 a4 e5: two universal blocks, so the witness nests two update levels
QDIMACS_TWO_UPDATES = (
    "p cnf 5 3\ne 1 0\na 2 0\ne 3 0\na 4 0\ne 5 0\n"
    "2 3 5 0\n-2 -3 1 0\n4 5 -3 0\n"
)


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _travel(tmp_path: Path) -> str:
    path = tmp_path / "travel.msr"
    path.write_text(bundled_text("travel.msr"), encoding="utf-8")
    return str(path)


def test_goal_travel_stdout(capsys, tmp_path):
    code = cli_dispatch(["goal", _travel(tmp_path), "--budget", "232"])
    out = capsys.readouterr().out
    assert code == EXIT_YES
    assert len(out) == 18713
    assert _sha256(out) == (
        "6358e18d5c0f891c60100aa0c7cd0094a808b099fa90a0f5a95c8a6f7ab8faac"
    )


def test_travel_witness_json(capsys, tmp_path):
    witness = tmp_path / "w.json"
    code = cli_dispatch([
        "resilience", _travel(tmp_path), "-n", "1", "-a", "12", "-b", "220",
        "--witness", str(witness),
    ])
    capsys.readouterr()
    assert code == EXIT_YES
    data = witness.read_bytes()
    assert len(data) == 261338
    assert _sha256(data) == (
        "8148758845e2650d42d45d5d21b2533f2a580678ef4ab8eb6686070424bbde05"
    )


def test_qbf_witness_json(capsys, tmp_path):
    formula = tmp_path / "psi.qdimacs"
    formula.write_text(QDIMACS_TWO_UPDATES, encoding="utf-8")
    scenario = tmp_path / "psi.msr"
    witness = tmp_path / "w.json"
    assert cli_dispatch(["qbf", "gen", str(formula), "-o", str(scenario)]) == EXIT_YES
    code = cli_dispatch([
        "resilience", str(scenario), "-n", "2", "-a", "1", "-b", "0",
        "--witness", str(witness),
    ])
    capsys.readouterr()
    assert code == EXIT_YES
    data = witness.read_bytes()
    assert len(data) == 9422
    assert _sha256(data) == (
        "2fc179db23e487708580c2cd2e36a44ebc260a013ad845264eb17c405699d1f4"
    )


def test_qbf_generator_text_over_mix():
    # taken from the generator that built fresh rules for every formula; the
    # mix makes a piece shared on too small a key show up in another formula
    text = "".join(qbf_to_msr_text(q) for q in qbf_mix())
    assert len(text) == 271909
    assert _sha256(text) == (
        "292f33278d1ec53024446518fb0cd386453028f10c08ec814edbba5dc4a69043"
    )
