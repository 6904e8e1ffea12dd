import contextlib
import io
import itertools
import json
import re
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants import cli
from cumulants.errors import IncompleteTableError, TableFormatError
from cumulants.tablefile import (
    normalize_kind,
    parse_rational,
    parse_table,
    parse_word,
    render_table,
)
from cumulants.transforms import KINDS, CumulantTable, convert_table, random_table
from cumulants.words import Word, word_str

GOOD = """{
  "kind": "moment",
  "generators": ["a", "b"],
  "max_degree": 2,
  "values": {
    "a": "1",
    "b": "0",
    "aa": "2",
    "ab": "-1/2",
    "ba": "1/2",
    "bb": "3"
  }
}
"""


def test_parse_good_file():
    t = parse_table(GOOD)
    assert t.kind == "moment"
    assert t.generators == ("a", "b")
    assert t.values[Word((0, 1))] == F(-1, 2)


def test_render_is_byte_stable():
    # canonical output is a fixed point of parse-then-render
    t = parse_table(GOOD)
    canon = render_table(t)
    assert canon.endswith("\n")
    assert parse_table(canon).values == t.values
    assert render_table(parse_table(canon)) == canon


def test_render_orders_words_canonically():
    t = random_table("free", 2, 3, seed=3)
    doc = json.loads(render_table(t))
    keys = list(doc["values"])
    assert keys[:6] == ["a", "b", "aa", "ab", "ba", "bb"]
    assert len(keys) == 2 + 4 + 8


def test_kind_alias():
    assert normalize_kind("moments") == "moment"
    assert normalize_kind("boolean") == "boolean"
    with pytest.raises(TableFormatError):
        normalize_kind("classical")


def test_rationals_are_strict():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(5) == F(5)
    for bad in ("1.5", "1/0", " 1", "1/-2", "03", True, 2.5, None, "a"):
        with pytest.raises(TableFormatError):
            parse_rational(bad)


def test_word_spellings():
    gens = ("a", "b")
    assert parse_word("aba", gens) == Word((0, 1, 0))
    assert parse_word("a.b.a", gens) == Word((0, 1, 0))
    long_gens = ("x1", "x2")
    assert parse_word("x1.x2", long_gens) == Word((0, 1))
    assert word_str(Word((0, 1, 0)), gens) == "aba"
    assert word_str(Word((0, 1)), long_gens) == "x1.x2"
    with pytest.raises(TableFormatError):
        parse_word("x1x2", long_gens)
    with pytest.raises(TableFormatError):
        parse_word("abc", gens)
    with pytest.raises(TableFormatError):
        parse_word("", gens)


def test_multi_character_generators_round_trip():
    values = {
        Word((0,)): F(1),
        Word((1,)): F(2),
        Word((0, 0)): F(3),
        Word((0, 1)): F(4),
        Word((1, 0)): F(5),
        Word((1, 1)): F(6),
    }
    t = CumulantTable("free", ("x1", "x2"), 2, values)
    text = render_table(t)
    assert '"x1.x2"' in text
    again = parse_table(text)
    assert again.values == t.values
    assert render_table(again) == text


def structurally(**overrides):
    doc = json.loads(GOOD)
    doc.update(overrides)
    return json.dumps(doc)


def test_schema_is_strict():
    with pytest.raises(TableFormatError):
        parse_table("not json")
    with pytest.raises(TableFormatError):
        parse_table("[1, 2]")
    with pytest.raises(TableFormatError):
        parse_table(structurally(extra=1))
    with pytest.raises(TableFormatError):
        parse_table(structurally(kind=3))
    with pytest.raises(TableFormatError):
        parse_table(structurally(generators="ab"))
    with pytest.raises(TableFormatError):
        parse_table(structurally(max_degree="2"))
    with pytest.raises(TableFormatError):
        parse_table(structurally(max_degree=0))
    with pytest.raises(TableFormatError):
        parse_table(structurally(values=[]))
    doc = json.loads(GOOD)
    del doc["values"]
    with pytest.raises(TableFormatError):
        parse_table(json.dumps(doc))


def test_duplicate_words_rejected():
    doc = json.loads(GOOD)
    doc["values"]["a.a"] = "9"  # same word as "aa"
    with pytest.raises(TableFormatError):
        parse_table(json.dumps(doc))


def test_missing_words_are_incomplete_not_malformed():
    doc = json.loads(GOOD)
    del doc["values"]["ab"]
    with pytest.raises(IncompleteTableError):
        parse_table(json.dumps(doc))


def test_bad_generator_names_are_format_errors():
    duplicated = {
        "kind": "free",
        "generators": ["a", "a"],
        "max_degree": 1,
        "values": {"a": "1"},
    }
    with pytest.raises(TableFormatError):
        parse_table(json.dumps(duplicated))
    doc = json.loads(GOOD)
    doc["generators"] = ["a", "b.c"]
    with pytest.raises(TableFormatError):
        parse_table(json.dumps(doc))


# --- properties over generated documents -------------------------------------

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

_NAMES = st.lists(
    st.text(alphabet="abxyz012", min_size=1, max_size=3),
    min_size=1,
    max_size=3,
    unique=True,
)


@st.composite
def canonical_documents(draw, max_degree=3):
    """Canonical table text, spelled here independently of render_table:
    words by degree then letter by letter, concatenated when every generator
    name is one character and dot-joined otherwise, values in lowest terms."""
    names = draw(_NAMES)
    degree = draw(st.integers(1, max_degree if len(names) < 3 else 2))
    joiner = "" if all(len(name) == 1 for name in names) else "."
    values = {}
    for n in range(1, degree + 1):
        for letters in itertools.product(names, repeat=n):
            value = draw(st.fractions(min_value=-9, max_value=9, max_denominator=6))
            values[joiner.join(letters)] = str(value)
    doc = {
        "kind": draw(st.sampled_from(KINDS)),
        "generators": names,
        "max_degree": degree,
        "values": values,
    }
    return json.dumps(doc, indent=2) + "\n"


@_PROPERTY
@given(canonical_documents())
def test_parse_then_render_reproduces_canonical_text(text):
    assert render_table(parse_table(text)) == text


@settings(_PROPERTY, max_examples=20)
@given(canonical_documents(max_degree=2), st.sampled_from(KINDS))
def test_convert_round_trips_reproduce_the_file(text, target):
    table = parse_table(text)
    if target != table.kind:
        there = convert_table(table, target)
        assert render_table(convert_table(there, table.kind)) == text


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z")


def _not_a_rational(raw) -> bool:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        return True
    return isinstance(raw, str) and not _RATIONAL.match(raw)


@st.composite
def malformed_documents(draw):
    """A valid two-generator table text with one fault that makes it
    malformed or incomplete."""
    doc = json.loads(GOOD)
    fault = draw(
        st.sampled_from(
            ["type", "drop-key", "stray-key", "spelling", "rational", "missing", "text"]
        )
    )
    if fault == "type":
        key = draw(st.sampled_from(sorted(doc)))
        valid = {
            "kind": [*KINDS, "moments"],
            "generators": [["a", "b"], ["b", "a"]],
        }.get(key, [doc[key]])
        doc[key] = draw(_JSON.filter(lambda v: v not in valid))
    elif fault == "drop-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "stray-key":
        doc[draw(st.text(max_size=6).filter(lambda k: k not in doc))] = draw(_JSON)
    elif fault == "spelling":
        # A new key spells a word again, a word past the degree bound, or no
        # word over the generators.
        spellings = st.text(alphabet="ab.c|", max_size=5)
        doc["values"][draw(spellings.filter(lambda k: k not in doc["values"]))] = "1"
    elif fault == "rational":
        word = draw(st.sampled_from(sorted(doc["values"])))
        doc["values"][word] = draw(_JSON.filter(_not_a_rational))
    elif fault == "missing":
        del doc["values"][draw(st.sampled_from(sorted(doc["values"])))]
    else:
        return draw(st.text(max_size=40))
    return json.dumps(doc)


@settings(_PROPERTY, max_examples=150)
@given(malformed_documents(), st.sampled_from(KINDS))
def test_malformed_documents_exit_one_or_two_without_a_traceback(text, target):
    with tempfile.TemporaryDirectory() as home:
        path = f"{home}/table.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["convert", "-i", path, "--to", target])
    assert code in (1, 2)
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
