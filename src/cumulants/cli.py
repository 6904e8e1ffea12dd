"""Command line interface.

Three commands:

  convert     read a table file, convert it to another kind, write it back
  verify      run the identity suite on seeded random tables
  partitions  list set partition families with optional statistics

Exit codes: 0 success, 1 usage or malformed input, 2 structurally valid
but incomplete input (missing words for the requested degree), 3 broken
internal invariant (route disagreement or a failed identity check).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial
from pathlib import Path

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


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means incomplete data here,
    # so route usage problems to exit code 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _kind(raw: str) -> str:
    try:
        return normalize_kind(raw)
    except TableFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cumulants",
        description="Exact conversions between moments and cumulants.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert",
        help="convert a table file between moment and cumulant kinds",
    )
    convert.add_argument("-i", "--input", required=True, help="input table file")
    convert.add_argument(
        "-o", "--output", help="output file (default: standard output)"
    )
    convert.add_argument(
        "--to",
        dest="target",
        required=True,
        type=_kind,
        metavar="{" + ",".join(KINDS) + "}",
        help="kind to convert to",
    )
    convert.add_argument(
        "--from",
        dest="source",
        type=_kind,
        metavar="{" + ",".join(KINDS) + "}",
        help="expected kind of the input file (checked, never inferred)",
    )
    convert.add_argument(
        "--max-degree",
        type=int,
        help="truncate the input to this degree before converting",
    )
    convert.set_defaults(run=_cmd_convert)

    verify = sub.add_parser(
        "verify",
        help="run every identity family on seeded random tables",
    )
    verify.add_argument(
        "--degree",
        type=int,
        help=f"degree bound, 1..{VERIFY_DEGREE_CAP} "
        "(default depends on the generator count)",
    )
    verify.add_argument(
        "--generators",
        type=int,
        default=2,
        help=f"number of generators, 1..{VERIFY_LETTERS_CAP} (default 2)",
    )
    verify.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    verify.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    verify.set_defaults(run=_cmd_verify)

    parts = sub.add_parser(
        "partitions",
        help="list a partition family with optional statistics",
    )
    parts.add_argument("--n", type=int, required=True, help="number of points")
    parts.add_argument(
        "--family",
        choices=(*_FAMILIES, "monotone"),
        default="nc",
        help="partition family (default nc)",
    )
    parts.add_argument(
        "--stats",
        action="store_true",
        help="append tree factorial and monotone labelling counts",
    )
    parts.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parts.set_defaults(run=_cmd_partitions)

    return parser


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    try:
        return args.run(args)
    except IncompleteTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RouteDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TableFormatError, InvalidFormError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
