"""Byte identity of the command line against recorded outputs.

`golden/cases.json` lists command lines with their expected exit code and
the file holding their expected standard output; input tables sit beside
them, and command lines name them relative to that directory.  It is the
one list of cases: CI runs the same list through the installed entry point.
"""

import json
from pathlib import Path

import pytest

from cumulants.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"].removesuffix(".out") for c in CASES])
def test_stdout_and_exit_code_are_unchanged(case, monkeypatch, capsysbinary):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    assert code == case["exit"]
    captured = capsysbinary.readouterr()
    assert captured.out == (GOLDEN / case["stdout"]).read_bytes()
    if code == 0:
        assert captured.err == b""  # a case that succeeds writes no diagnostics


def test_every_golden_file_is_named_by_a_case():
    # A recorded output that no case names would go unchecked.
    named = {"cases.json"}
    for case in CASES:
        argv = case["argv"]
        named.add(case["stdout"])
        named.update(argv[i + 1] for i, arg in enumerate(argv) if arg in ("-i", "--input"))
    present = {path.name for path in GOLDEN.iterdir()}
    assert sorted(present - named) == []
    assert sorted(named - present) == []
