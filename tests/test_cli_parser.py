"""The command line parser against argparse.

`cli` reads its options from one table with a small parser of its own.
`argparse_reference.build_parser` is the argparse parser it replaced; on
every command line drawn here both must agree on success or usage error
(with help and version counted as exit 0), and on every parsed value when
they succeed.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import build_parser
from cumulants import cli


def _reference(argv):
    """(exit code, None) when argparse stops, else (None, parsed values)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, None
    del args["command"]
    return None, args


def _ours(argv):
    try:
        run, args = cli._parse(argv)
    except cli._Stop as stop:
        return stop.code, None
    return None, {**vars(args), "run": run}


def _agree(argv):
    assert _ours(list(argv)) == _reference(list(argv)), argv


# Every spelling the package's documentation promises, and the errors
# around them, whatever the draws below happen to cover.
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gen", "2", "--deg=4"],
        ["verify", "--degree=3", "--seed", "-2", "--seed", "5", "--format=json"],
        ["convert", "-i", "t.json", "--to", "free"],
        ["convert", "-it.json", "--to=moments", "-o=out.json", "--max-d", "3"],
        ["convert", "-i=t.json", "--fr", "boolean", "--t", "monotone", "-i", "u.json"],
        ["convert", "--input=", "--to", "Free"],
        ["convert", "-i", "--to", "free"],
        ["convert", "--to", "free", "-i", "-x"],
        ["convert", "--to", "free", "-i", "-a b"],
        ["convert", "-i", "t.json", "--to"],
        ["convert", "-i", "t.json", "--to", "free", "stray"],
        ["convert", "-i", "t.json", "--to", "free", "--bogus"],
        ["convert", "-i", "t.json", "--to", "free", "--max-degree", "2.5"],
        ["convert", "-i", "t.json", "--to", "free", "--max-degree", "-1"],
        ["partitions", "--n", "4", "--f", "irr-nc"],
        ["partitions", "--n", "4", "--fam", "monotone", "--st", "--form", "json"],
        ["partitions", "--n", "4", "--stats=yes"],
        ["partitions", "--n", "4", "--family", "crossing"],
        ["partitions", "--family", "nc"],
        ["partitions", "-h", "--n", "x"],
        ["partitions", "--n", "x", "-h"],
        ["partitions", "--bogus", "--he"],
        ["verify", "--h"],
        ["verify", "--help=1"],
        ["--bogus", "verify"],
        ["--bogus", "--version"],
        ["--vers", "frobnicate"],
        ["--version=1"],
        ["-h", "frobnicate"],
        ["frobnicate", "-h"],
        ["verify", "--version"],
        ["-5"],
        [""],
        [],
    ],
)
def test_the_parser_agrees_with_argparse(argv):
    _agree(argv)


_OPTIONS = [
    # (command, flags, values it takes, values it refuses); None for a
    # flag, which takes no value
    ("convert", ("-i", "--input"), ["t.json", "-", "", "a b", "-a b", "x=y"], []),
    ("convert", ("-o", "--output"), ["out.json", "-"], []),
    ("convert", ("--to",), ["free", "moments", "monotone"], ["nope", "Free"]),
    ("convert", ("--from",), ["boolean", "moment"], ["classical"]),
    ("convert", ("--max-degree",), ["3", "-1", "0", " 4"], ["x", "2.5"]),
    ("verify", ("--degree",), ["4", "-2"], ["nine"]),
    ("verify", ("--generators",), ["1", "3", "+2"], ["x"]),
    ("verify", ("--seed",), ["7", "-7"], ["7.0"]),
    ("verify", ("--format",), ["text", "json"], ["xml"]),
    ("partitions", ("--n",), ["5", "-3"], ["5x"]),
    ("partitions", ("--family",), ["nc", "irr-nc", "interval", "monotone"], ["crossing"]),
    ("partitions", ("--stats",), None, None),
    ("partitions", ("--format",), ["text", "json"], ["xml"]),
    (None, ("-h", "--help"), None, None),
    (None, ("--version",), None, None),
]
_REQUIRED = {"convert": [["-i", "t.json"], ["--to", "free"]], "partitions": [["--n", "4"]]}
_VALUES = sorted({v for *_, good, bad in _OPTIONS for v in (good or []) + (bad or [])})
_UNKNOWN = ["--bogus", "--bogus=1", "-x", "-q5", "---to"]
_WORDS = ["stray", "", "-5", "-1.5", "-a b", "convert"]


@st.composite
def _option(draw, options):
    """One of `options` as the user may spell it, with or without its value."""
    _, flags, good, bad = draw(st.sampled_from(options))
    flag = draw(st.sampled_from(flags))
    if flag.startswith("--"):
        # the whole flag or a prefix: unique, or ambiguous (--f under partitions)
        flag = flag[: draw(st.sampled_from([len(flag), 3, *range(3, len(flag))]))]
    # mostly a value the option takes, now and then a refused or foreign one
    value = draw(st.sampled_from(good if good and draw(st.integers(0, 4)) else bad or _VALUES))
    if good is None:
        return draw(st.sampled_from([[flag]] * 4 + [[f"{flag}={value}"]]))
    spellings = [[flag, value]] * 3 + [[f"{flag}={value}"]] * 2 + [[flag]]  # the last lacks its value
    if not flag.startswith("--"):
        spellings.append([flag + value])
    return draw(st.sampled_from(spellings))


@st.composite
def _command_lines(draw):
    """A command line: mostly a known command with its required options
    among others of its own, with now and then an option of another command,
    an unknown option, a stray word or a top-level flag."""
    head = draw(st.sampled_from([[]] * 16 + [["--version"], ["--vers"], ["-h"], ["--bogus"]]))
    command = draw(st.sampled_from(["convert", "verify", "partitions"] * 3 + ["frobnicate"]))
    own = [o for o in _OPTIONS if o[0] == command]
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        pick = draw(st.integers(0, 5))
        if own and pick < 4:
            pieces.append(draw(_option(own)))
        elif pick < 5:
            pieces.append(draw(_option(_OPTIONS)))
        else:
            pieces.append([draw(st.sampled_from(_UNKNOWN + _WORDS))])
    if draw(st.integers(0, 4)):
        pieces += _REQUIRED.get(command, [])
    pieces = draw(st.permutations(pieces))
    return head + [command] + [arg for piece in pieces for arg in piece]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_command_lines())
def test_drawn_command_lines_parse_as_argparse_parsed_them(argv):
    _agree(argv)


def _shown_in_help():
    """For the top level (None) and each command, the strings its help
    must show: command names, flags and help strings, from argparse."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    helps = {a.dest: a.help for a in sub._choices_actions}

    def options(p):
        return [s for a in p._actions if a.option_strings for s in (*a.option_strings, a.help)]

    shown = {None: options(parser) + [f"  {name}  " for name in helps] + list(helps.values())}
    for name, command in sub.choices.items():
        shown[name] = [helps[name], *options(command)]
    return shown


@pytest.mark.parametrize("command", [None, "convert", "verify", "partitions"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_option_with_its_help_string(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: cumulants{'' if command is None else ' ' + command} ")
    assert [s for s in _shown_in_help()[command] if s not in out] == []


def test_a_usage_error_prints_the_usage_line_and_the_error(capsys):
    assert cli.main(["partitions", "--f", "nc", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: cumulants partitions [-h] --n N ")
    assert error == "cumulants: error: ambiguous option: --f could match --family, --format"
