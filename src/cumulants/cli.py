"""Command line interface.

Three commands:

  convert     read a table file, convert it to another kind, write it back
  verify      run the identity suite on seeded random tables
  partitions  list set partition families with optional statistics

Exit codes: 0 success, 1 usage or malformed input, 2 structurally valid
but incomplete input (missing words for the requested degree), 3 broken
internal invariant (route disagreement or a failed identity check).

The options live in one table, `_COMMANDS`, which also prints `-h`.  A
small parser reads the command line by argparse's rules, without paying
for argparse's import and parser construction on every call: `--opt value`,
`--opt=value`, a unique prefix of a long option, `-i x`, `-ix` and `-i=x`;
the last of a repeated option wins.
"""

from __future__ import annotations

import json
import re
import sys
from math import factorial
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import (
    IncompleteTableError,
    InvalidFormError,
    RouteDisagreementError,
    TableFormatError,
)
from .partitions import _FAMILIES, block_str, enumerate_nc, linear_extensions
from .tablefile import normalize_kind, parse_table, render_table
from .transforms import (
    KINDS,
    VERIFY_DEGREE_CAP,
    VERIFY_LETTERS_CAP,
    convert_table,
    default_max_degree,
    verify_suite,
)

_PARTITION_CAP = 10
_MONOTONE_CAP = 8


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_convert(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    table = parse_table(text)
    if args.source is not None and table.kind != args.source:
        return _fail(
            f"{args.input} holds a {table.kind} table, not {args.source} "
            "(kinds are declared, never inferred)"
        )
    if args.max_degree is not None:
        if args.max_degree < 1:
            return _fail("--max-degree must be at least 1")
        table = table.truncated(args.max_degree)
    result = convert_table(table, args.target)
    rendered = render_table(result)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_verify(args) -> int:
    degree = args.degree
    if degree is None:
        degree = default_max_degree(args.generators)
    report = verify_suite(degree, args.generators, args.seed)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print("\n".join(report.lines()))
    return 0 if report.ok else 3


def _cmd_partitions(args) -> int:
    n = args.n
    if args.family == "monotone":
        if args.stats:
            return _fail("--stats applies to partition families, not monotone pairs")
        if not 1 <= n <= _MONOTONE_CAP:
            return _fail(f"--n must be 1..{_MONOTONE_CAP} for the monotone family")
        # NC(n), enumerated once, with each partition's outer-first block
        # orders; fed in by block count, the sort mostly merges sorted runs
        by_count = sorted(enumerate_nc(n), key=lambda p: p.num_blocks)
        orders = sorted(
            (order for p in by_count for order in linear_extensions(p)),
            key=lambda order: (len(order), order),
        )
        lines = [" < ".join(map(block_str, order)) for order in orders]
        items: list = lines
    else:
        if not 1 <= n <= _PARTITION_CAP:
            return _fail(f"--n must be 1..{_PARTITION_CAP}")
        ps = sorted(_FAMILIES[args.family](n))
        if args.stats:
            # the enumerators record tau!; s!/tau! counts the labellings
            rows = [(str(p), p.tau, factorial(p.num_blocks) // p.tau) for p in ps]
            lines = [f"{p}  tau!={tau}  m={m}" for p, tau, m in rows]
            items = [
                {"partition": p, "tree_factorial": tau, "labellings": m}
                for p, tau, m in rows
            ]
        else:
            lines = [str(p) for p in ps]
            items = lines

    if args.format == "json":
        doc = {
            "n": n,
            "family": args.family,
            "total": len(lines),
            "items": items,
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"total: {len(lines)}")
    return 0


# The command line as one table: each command's run function, help line
# and options.  An option is (flags, dest, conv, default, required, help);
# conv reads its value and is a function (str, int, normalize_kind), a
# tuple of the allowed choices, or None for a flag, which takes no value.
_FORMAT = (("--format",), "format", ("text", "json"), "text", False, "output format")
_COMMANDS = {
    "convert": (
        _cmd_convert,
        "convert a table file between moment and cumulant kinds",
        (
            (("-i", "--input"), "input", str, None, True, "input table file"),
            (("-o", "--output"), "output", str, None, False,
             "output file (default: standard output)"),
            (("--to",), "target", normalize_kind, None, True, "kind to convert to"),
            (("--from",), "source", normalize_kind, None, False,
             "expected kind of the input file (checked, never inferred)"),
            (("--max-degree",), "max_degree", int, None, False,
             "truncate the input to this degree before converting"),
        ),
    ),
    "verify": (
        _cmd_verify,
        "run every identity family on seeded random tables",
        (
            (("--degree",), "degree", int, None, False,
             f"degree bound, 1..{VERIFY_DEGREE_CAP} "
             "(default depends on the generator count)"),
            (("--generators",), "generators", int, 2, False,
             f"number of generators, 1..{VERIFY_LETTERS_CAP} (default 2)"),
            (("--seed",), "seed", int, 1, False, "random seed (default 1)"),
            _FORMAT,
        ),
    ),
    "partitions": (
        _cmd_partitions,
        "list a partition family with optional statistics",
        (
            (("--n",), "n", int, None, True, "number of points"),
            (("--family",), "family", (*_FAMILIES, "monotone"), "nc", False,
             "partition family (default nc)"),
            (("--stats",), "stats", None, False, False,
             "append tree factorial and monotone labelling counts"),
            _FORMAT,
        ),
    ),
}
_HELP = (("-h", "--help"), "help", None, None, False, "show this help message and exit")
_TOP = (
    _HELP,
    (("--version",), "version", None, None, False, "show program's version number and exit"),
)

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """The command line cannot be read; exit code 1."""


class _Stop(Exception):
    """Parsing ends without running a command: `text` goes to standard
    output with exit code 0 (help, version), or to standard error with exit
    code 1 (a usage error)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _metavar(dest: str, conv) -> str:
    if isinstance(conv, tuple):
        return "{" + ",".join(conv) + "}"
    if conv is normalize_kind:
        return "{" + ",".join(KINDS) + "}"
    return dest.upper()


def _usage(prog: str, options, tail: str = "") -> str:
    parts = [prog]
    for flags, dest, conv, _, required, _ in options:
        part = flags[0] if conv is None else f"{flags[0]} {_metavar(dest, conv)}"
        parts.append(part if required else f"[{part}]")
    return f"usage: {' '.join(parts)}{tail}\n"


def _listing(title: str, rows) -> str:
    width = max(len(left) for left, _ in rows)
    return f"\n{title}:\n" + "".join(f"  {left:<{width}}  {text}\n" for left, text in rows)


def _option_rows(options) -> list:
    return [
        (", ".join(flags) + ("" if conv is None else f" {_metavar(dest, conv)}"), text)
        for flags, dest, conv, _, _, text in options
    ]


def _lookup(flags: dict, arg: str):
    """What `arg` is, read as argparse reads it: None for a word (a value, a
    command or a stray argument), else (option, attached value or None),
    with option None when no option matches.  Long flags may be abbreviated
    to a unique prefix; a short flag may carry its value (-ix, -i=x)."""
    if not arg.startswith("-") or len(arg) == 1:
        return None
    if arg in flags:
        return flags[arg], None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return flags[name], value
    if arg == "--":
        hits = []  # no command takes words after its options
    elif arg.startswith("--"):
        hits = [flag for flag in flags if flag.startswith(name)]
        value = value if eq else None
    else:
        hits = [flag for flag in flags if flag == arg[:2]]
        value = arg[2:]
    if len(hits) > 1:
        raise _UsageError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return flags[hits[0]], value
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _value(name: str, conv, text: str):
    if isinstance(conv, tuple):
        if text in conv:
            return text
        choices = ", ".join(map(repr, conv))
        raise _UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return conv(text)
    except TableFormatError as exc:
        raise _UsageError(f"argument {name}: {exc}") from None
    except ValueError:
        raise _UsageError(f"argument {name}: invalid {conv.__name__} value: {text!r}") from None


def _read(options, args: list) -> tuple[dict, list]:
    """The values given to `options` in `args`, by dest, and the arguments
    that name no option.  Reads left to right and stops at help or version,
    so an error before that flag wins over it; the last of repeated options
    wins; required options are checked at the end."""
    flags = {flag: option for option in options for flag in option[0]}
    # argparse classifies every argument before it reads any, so an
    # ambiguous prefix is an error wherever it stands
    kinds = [_lookup(flags, arg) for arg in args]
    values: dict = {}
    stray = []
    i = 0
    while i < len(args):
        kind = kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            stray.append(args[i - 1])
            continue
        (names, dest, conv, *_), value = kind
        name = "/".join(names)
        if conv is None:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if dest in ("help", "version"):
                return {dest: True}, stray
            value = True
        else:
            if value is None:
                if i == len(args) or kinds[i] is not None:
                    raise _UsageError(f"argument {name}: expected one argument")
                value = args[i]
                i += 1
            value = _value(name, conv, value)
        values[dest] = value
    missing = ["/".join(names) for names, dest, _, _, required, _ in options
               if required and dest not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return values, stray


def _parse(argv: list):
    """The run function of the command that `argv` names and its options,
    or _Stop for help, version and usage errors."""
    usage = _usage("cumulants", _TOP, " {" + ",".join(_COMMANDS) + "} ...")
    top_usage = usage
    try:
        top_flags = {flag: option for option in _TOP for flag in option[0]}
        kinds = [_lookup(top_flags, arg) for arg in argv]
        # the first word names the command; the rest belongs to it
        k = kinds.index(None) if None in kinds else len(argv)
        values, stray = _read(_TOP, argv[:k])
        if "help" in values:
            raise _Stop(0, f"{usage}\nExact conversions between moments and cumulants.\n"
                        + _listing("commands", [(n, c[1]) for n, c in _COMMANDS.items()])
                        + _listing("options", _option_rows(_TOP)))
        if "version" in values:
            raise _Stop(0, f"{__version__}\n")
        if k == len(argv):
            raise _UsageError("the following arguments are required: command")
        command = argv[k]
        if command not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            raise _UsageError(
                f"argument command: invalid choice: {command!r} (choose from {choices})"
            )
        run, summary, options = _COMMANDS[command]
        usage = _usage(f"cumulants {command}", (_HELP, *options))
        values, more = _read((_HELP, *options), argv[k + 1:])
        if "help" in values:
            raise _Stop(0, f"{usage}\n{summary}\n"
                        + _listing("options", _option_rows((_HELP, *options))))
        stray += more
        if stray:
            usage = top_usage
            raise _UsageError(f"unrecognized arguments: {' '.join(stray)}")
    except _UsageError as exc:
        raise _Stop(1, f"{usage}cumulants: error: {exc}\n") from None
    args = {dest: default for _, dest, _, default, _, _ in options}
    args.update(values)
    return run, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        run, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        (sys.stdout if stop.code == 0 else sys.stderr).write(stop.text)
        return stop.code
    # Exact values can outgrow the interpreter's limit on int <-> str
    # conversion (4300 digits by default), so the command runs with it
    # lifted and puts it back; interpreters without the limit lack the
    # setting
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return run(args)
    except IncompleteTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RouteDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TableFormatError, InvalidFormError, ValueError, OSError) as exc:
        return _fail(str(exc))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

if __name__ == "__main__":
    sys.exit(main())
