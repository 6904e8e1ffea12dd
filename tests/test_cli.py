"""Command line behavior, driven in-process through main()."""

import json
import subprocess
import sys

import pytest

from cumulants.cli import main
from cumulants.tablefile import parse_table, render_table

SEMI = """{
  "kind": "moment",
  "generators": ["a"],
  "max_degree": 6,
  "values": {
    "a": "0",
    "aa": "1",
    "aaa": "0",
    "aaaa": "2",
    "aaaaa": "0",
    "aaaaaa": "5"
  }
}
"""


@pytest.fixture
def semi_file(tmp_path):
    path = tmp_path / "semi.json"
    path.write_text(SEMI, encoding="utf-8")
    return path


def test_convert_to_stdout(semi_file, capsys):
    code = main(["convert", "-i", str(semi_file), "--to", "free"])
    out = capsys.readouterr().out
    assert code == 0
    table = parse_table(out)
    assert table.kind == "free"
    values = json.loads(out)["values"]
    assert values["aa"] == "1"
    assert values["aaaa"] == "0"
    assert values["aaaaaa"] == "0"


def test_convert_to_file_and_back(semi_file, tmp_path, capsys):
    free_path = tmp_path / "free.json"
    code = main(
        ["convert", "-i", str(semi_file), "--to", "free", "-o", str(free_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    back_path = tmp_path / "back.json"
    code = main(
        ["convert", "-i", str(free_path), "--to", "moments", "-o", str(back_path)]
    )
    assert code == 0
    original = parse_table(SEMI)
    assert parse_table(back_path.read_text(encoding="utf-8")).values == original.values


def test_convert_output_is_canonical(semi_file, capsys):
    main(["convert", "-i", str(semi_file), "--to", "boolean"])
    out = capsys.readouterr().out
    assert render_table(parse_table(out)) == out


def test_convert_respects_declared_kind(semi_file, capsys):
    code = main(["convert", "-i", str(semi_file), "--from", "free", "--to", "boolean"])
    assert code == 1
    assert "holds a moment table" in capsys.readouterr().err


def test_convert_max_degree_truncates(semi_file, capsys):
    code = main(
        ["convert", "-i", str(semi_file), "--to", "free", "--max-degree", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["max_degree"] == 2


def test_convert_max_degree_beyond_table_is_incomplete(semi_file, capsys):
    code = main(
        ["convert", "-i", str(semi_file), "--to", "free", "--max-degree", "9"]
    )
    assert code == 2
    assert "degree" in capsys.readouterr().err


def test_convert_same_kind_is_a_usage_error(semi_file, capsys):
    code = main(["convert", "-i", str(semi_file), "--to", "moment"])
    assert code == 1
    capsys.readouterr()


def test_convert_missing_file(tmp_path, capsys):
    code = main(["convert", "-i", str(tmp_path / "nope.json"), "--to", "free"])
    assert code == 1
    capsys.readouterr()


def test_convert_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code = main(["convert", "-i", str(path), "--to", "free"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[" * 100000, '{"a":' * 50000])
def test_convert_deeply_nested_json(text, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(text, encoding="utf-8")
    code = main(["convert", "-i", str(path), "--to", "free"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"aa": "1",', '"aa": "1", "aa": "5",', "aa"),
        ('"kind": "moment",', '"kind": "free", "kind": "moment",', "kind"),
    ],
    ids=["word", "top-level-key"],
)
def test_convert_refuses_a_key_given_twice(old, new, key, tmp_path, capsys):
    # Without the check the last value wins and the conversion exits 0.
    path = tmp_path / "twice.json"
    path.write_text(SEMI.replace(old, new), encoding="utf-8")
    code = main(["convert", "-i", str(path), "--to", "free"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: the key '{key}' appears twice in one object\n"


def test_convert_incomplete_table(tmp_path, capsys):
    doc = json.loads(SEMI)
    del doc["values"]["aaa"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["convert", "-i", str(path), "--to", "free"])
    assert code == 2
    capsys.readouterr()


def _convert_past_the_cap(source, target, tmp_path, capsys):
    # Refused up front, before either route or a moment solver runs: every
    # pair gives the same message, and nothing reaches standard output.
    doc = {
        "kind": source,
        "generators": ["a"],
        "max_degree": 13,
        "values": {"a" * n: str(n) for n in range(1, 14)},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["convert", "-i", str(path), "--to", target])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: degree 13 exceeds the cap 12\n"


@pytest.mark.parametrize("target", ["moment", "monotone"])
def test_convert_refuses_a_table_past_the_degree_cap(target, tmp_path, capsys):
    _convert_past_the_cap("free", target, tmp_path, capsys)


@pytest.mark.parametrize("target", ["free", "monotone"])
def test_convert_refuses_a_moment_table_past_the_degree_cap(target, tmp_path, capsys):
    _convert_past_the_cap("moment", target, tmp_path, capsys)


def test_unknown_target_kind(semi_file, capsys):
    code = main(["convert", "-i", str(semi_file), "--to", "classical"])
    assert code == 1
    capsys.readouterr()


def test_verify_text_output(capsys):
    code = main(["verify", "--degree", "3", "--generators", "1", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("identities:")
    assert sum(1 for line in lines if line.startswith("PASS")) >= 12
    assert not any(line.startswith("FAIL") for line in lines)


def test_verify_json_output(capsys):
    code = main(["verify", "--degree", "2", "--generators", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["max_degree"] == 2


def test_verify_rejects_silly_degrees(capsys):
    assert main(["verify", "--degree", "50"]) == 1
    assert main(["verify", "--generators", "12"]) == 1
    capsys.readouterr()


def test_partitions_listing(capsys):
    code = main(["partitions", "--n", "4", "--family", "nc"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 14"
    assert "{1,4}{2,3}" in lines


def test_partitions_stats(capsys):
    code = main(["partitions", "--n", "4", "--family", "irr-nc", "--stats"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 5"
    assert "{1,4}{2}{3}  tau!=3  m=2" in lines


def test_partitions_interval_family(capsys):
    code = main(["partitions", "--n", "5", "--family", "interval"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 16"


def test_partitions_monotone_family(capsys):
    code = main(["partitions", "--n", "3", "--family", "monotone"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 12"
    assert "{1,3} < {2}" in lines
    assert "{2} < {1,3}" not in lines


def test_partitions_monotone_rejects_stats(capsys):
    code = main(["partitions", "--n", "3", "--family", "monotone", "--stats"])
    assert code == 1
    capsys.readouterr()


def test_partitions_json(capsys):
    code = main(["partitions", "--n", "3", "--family", "nc", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 5
    assert len(doc["items"]) == 5


def test_partitions_bounds(capsys):
    assert main(["partitions", "--n", "0"]) == 1
    assert main(["partitions", "--n", "11"]) == 1
    assert main(["partitions", "--n", "9", "--family", "monotone"]) == 1
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["convert"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["convert", "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "cumulants", "partitions", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().splitlines()[-1] == "total: 2"
