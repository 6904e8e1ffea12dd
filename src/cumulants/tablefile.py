"""Reading and writing tables as JSON documents.

The on-disk shape is a single JSON object:

    {
      "kind": "moment" | "free" | "boolean" | "monotone",
      "generators": ["a", "b"],
      "max_degree": 4,
      "values": {"a": "1", "ab": "-3/4", ...}
    }

Word keys concatenate single-character generator names; if any generator
name is longer, letters are joined with dots ("x1.x1.x2").  Values are
exact rationals written as strings; integer JSON literals are accepted on
input.  Rendering is canonical: fixed key order, words sorted by degree
then lexicographically, two-space indentation, trailing newline.  Parsing
then rendering a file reproduces it byte for byte.

Structural problems raise TableFormatError; a structurally valid file
that lacks some word raises IncompleteTableError from the table itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import TableFormatError
from .transforms import KINDS, CumulantTable
from .words import Word

_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z")

_KIND_ALIASES = {"moments": "moment"}

_TOP_KEYS = ("kind", "generators", "max_degree", "values")


def normalize_kind(raw) -> str:
    if not isinstance(raw, str):
        raise TableFormatError(f"kind must be a string, got {raw!r}")
    kind = _KIND_ALIASES.get(raw, raw)
    if kind not in KINDS:
        raise TableFormatError(f"unknown kind {raw!r} (expected one of {KINDS})")
    return kind


def parse_rational(raw) -> Fraction:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str) and _RATIONAL.match(raw):
        return Fraction(raw)
    raise TableFormatError(
        f"values must be exact rationals like \"-3/4\", got {raw!r}"
    )


def _word_reader(generators: tuple[str, ...]):
    """parse_word over fixed generators, with their index built once."""
    index = {name: i for i, name in enumerate(generators)}
    letter = index.__getitem__
    concatenated = all(len(name) == 1 for name in generators)

    def read(text: str) -> Word:
        if not isinstance(text, str) or not text:
            raise TableFormatError(f"word keys must be non-empty strings, got {text!r}")
        tokens = text.split(".")
        try:
            return Word(map(letter, tokens))
        except KeyError:
            pass
        if len(tokens) == 1 and concatenated:
            try:
                return Word(map(letter, text))
            except KeyError as exc:
                raise TableFormatError(
                    f"word {text!r} uses a letter outside the generators {generators}"
                ) from exc
        raise TableFormatError(
            f"cannot read the word {text!r} over the generators {generators}"
        )

    return read


def parse_word(text: str, generators: tuple[str, ...]) -> Word:
    """A word from its file spelling, against a fixed generator tuple."""
    return _word_reader(generators)(text)


def _unique_keys(pairs) -> dict:
    # json.loads would keep the last of two equal keys silently
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise TableFormatError(f"the key {key!r} appears twice in one object")
        doc[key] = value
    return doc


def parse_table(text: str) -> CumulantTable:
    """A table from JSON text; strict about shape, totality checked last."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise TableFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise TableFormatError("the top level must be a JSON object")
    unknown = sorted(set(doc) - set(_TOP_KEYS))
    if unknown:
        raise TableFormatError(f"unknown keys {unknown} (expected {list(_TOP_KEYS)})")
    missing = [k for k in _TOP_KEYS if k not in doc]
    if missing:
        raise TableFormatError(f"missing keys {missing}")

    kind = normalize_kind(doc["kind"])

    raw_generators = doc["generators"]
    if not isinstance(raw_generators, list) or not all(
        isinstance(g, str) for g in raw_generators
    ):
        raise TableFormatError("generators must be a list of strings")
    generators = tuple(raw_generators)

    max_degree = doc["max_degree"]
    if not isinstance(max_degree, int) or isinstance(max_degree, bool):
        raise TableFormatError(f"max_degree must be an integer, got {max_degree!r}")
    if max_degree < 1:
        raise TableFormatError(f"max_degree must be at least 1, got {max_degree}")

    raw_values = doc["values"]
    if not isinstance(raw_values, dict):
        raise TableFormatError("values must be an object mapping words to rationals")
    values: dict[Word, Fraction] = {}
    read_word = _word_reader(generators)
    for key, raw in raw_values.items():
        w = read_word(key)
        if w in values:
            raise TableFormatError(f"the word {key!r} appears twice")
        values[w] = parse_rational(raw)

    try:
        return CumulantTable(kind, generators, max_degree, values)
    except ValueError as exc:
        raise TableFormatError(str(exc)) from exc


def render_table(table: CumulantTable) -> str:
    """Canonical JSON text for a table."""
    # total_table built the values in all_words order, the canonical one;
    # every word is non-empty and over the generators, so word_str's
    # spelling comes down to one separator and one name lookup per letter
    names = table.generators
    sep = "" if all(len(name) == 1 for name in names) else "."
    values = {sep.join(map(names.__getitem__, w)): str(v) for w, v in table.values.items()}
    doc = {
        "kind": table.kind,
        "generators": list(table.generators),
        "max_degree": table.max_degree,
        "values": values,
    }
    return json.dumps(doc, indent=2) + "\n"
