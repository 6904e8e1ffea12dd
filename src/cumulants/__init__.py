"""Exact moment/cumulant calculus on non-commutative words.

Moments are encoded as characters on a word Hopf algebra whose coproduct
extracts subwords; free, boolean, and monotone cumulants appear as three
logarithms of the same character (left half-shuffle, right half-shuffle,
and convolution).  Every conversion out of a cumulant table is computed
twice, through that shuffle calculus and through partition lattice sums,
and compared exactly; conversions out of moments run the shuffle calculus
alone.
"""

from .coproducts import iterated_reduced_left
from .errors import (
    CumulantsError,
    IncompleteTableError,
    InvalidFormError,
    RouteDisagreementError,
    TableFormatError,
)
from .forms import (
    COUNIT,
    CharacterFromWords,
    Counit,
    Form,
    InfinitesimalFromWords,
    char_inverse,
    conv,
    exp_left,
    exp_right,
    exp_star,
    half_left,
    half_right,
    log_left,
    log_right,
    log_star,
)
from .partitions import (
    SetPartition,
    enumerate_interval,
    enumerate_irreducible_nc,
    enumerate_monotone,
    enumerate_nc,
    linear_extensions,
    partition_sum,
    tree_factorial,
)
from .prelie import InfChar, bernoulli, magnus, triangle, w_map
from .tablefile import parse_table, parse_word, render_table
from .transforms import (
    CumulantTable,
    VerifyReport,
    convert,
    convert_table,
    cumulants_to_moments,
    default_max_degree,
    moments_to_cumulants,
    random_table,
    verify_suite,
)
from .words import (
    EMPTY_WORD,
    UNIT,
    BarWord,
    Word,
    all_barwords,
    all_words,
    bar_concat,
    barword_str,
    lift,
    word_str,
)

__version__ = "0.1.0"

__all__ = [
    "BarWord",
    "COUNIT",
    "CharacterFromWords",
    "Counit",
    "CumulantTable",
    "CumulantsError",
    "EMPTY_WORD",
    "Form",
    "IncompleteTableError",
    "InfChar",
    "InfinitesimalFromWords",
    "InvalidFormError",
    "RouteDisagreementError",
    "SetPartition",
    "TableFormatError",
    "UNIT",
    "VerifyReport",
    "Word",
    "all_barwords",
    "all_words",
    "bar_concat",
    "barword_str",
    "bernoulli",
    "char_inverse",
    "conv",
    "convert",
    "convert_table",
    "cumulants_to_moments",
    "default_max_degree",
    "enumerate_interval",
    "enumerate_irreducible_nc",
    "enumerate_monotone",
    "enumerate_nc",
    "exp_left",
    "exp_right",
    "exp_star",
    "half_left",
    "half_right",
    "iterated_reduced_left",
    "lift",
    "linear_extensions",
    "log_left",
    "log_right",
    "log_star",
    "magnus",
    "moments_to_cumulants",
    "partition_sum",
    "parse_table",
    "parse_word",
    "random_table",
    "render_table",
    "tree_factorial",
    "triangle",
    "verify_suite",
    "w_map",
    "word_str",
]
