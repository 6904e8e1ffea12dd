"""Seeded input tables for the benchmark.

The tables are written here, with the standard library only, and never
through `cumulants.random_table`: a change to the package must not be able
to change the benchmark's inputs.  Values are small rationals p/q with p in
[-6, 6] and q in [1, 4].  Words run over the generators a, b, c, ... and are
listed by degree, then lexicographically, which is the package's canonical
order, so a generated file is already in canonical form.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

GENERATOR_NAMES = "abcdefgh"


def table_words(n_letters: int, max_degree: int) -> list[str]:
    """Every word of degree 1..max_degree over the first n_letters generators."""
    letters = GENERATOR_NAMES[:n_letters]
    return [
        "".join(letters_)
        for degree in range(1, max_degree + 1)
        for letters_ in itertools.product(letters, repeat=degree)
    ]


def table_text(kind: str, n_letters: int, max_degree: int, label: str) -> str:
    """The JSON text of a total table; the same label gives the same bytes.

    A string seed makes `random.Random` hash the label with SHA-512, so the
    values do not depend on the interpreter's hash randomisation.
    """
    rng = random.Random(label)
    values = {
        w: str(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for w in table_words(n_letters, max_degree)
    }
    doc = {
        "kind": kind,
        "generators": list(GENERATOR_NAMES[:n_letters]),
        "max_degree": max_degree,
        "values": values,
    }
    return json.dumps(doc, indent=2) + "\n"


def derived_seed(label: str) -> int:
    """A positive integer seed for a program that takes one, from a label."""
    return random.Random(label).randint(1, 10**6)
