"""The command line parser the package used before it read its own option
table: argparse, with usage errors sent to exit code 1.  `build_parser` is
kept as it was, as the reference that tests/test_cli_parser.py compares the
package's parser with."""

from __future__ import annotations

import argparse
import sys

from cumulants import __version__
from cumulants.cli import _cmd_convert, _cmd_partitions, _cmd_verify
from cumulants.errors import TableFormatError
from cumulants.partitions import _FAMILIES
from cumulants.tablefile import normalize_kind
from cumulants.transforms import KINDS, VERIFY_DEGREE_CAP, VERIFY_LETTERS_CAP


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
