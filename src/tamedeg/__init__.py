"""Exact classification of multidegrees of tame polynomial automorphisms.

Public surface, bottom up:

  ordgroup       the ordered group Z^k (lex), semigroup arithmetic, w_star
  poly           exact rational polynomials, weighted degrees, wedge degrees
  automorphisms  elementary steps, tame words, realization, witnesses
  classifier     exclusion certificates, wildness, corollaries, the table
  search         word generation, the search-vs-classifier oracle, records
  parse / cli    expression grammar and the command-line surface

The search names (SearchConfig, consistency_check, ..., word_fingerprint)
load on first read: ``import tamedeg``, the verdict commands and ``table``
leave search.py uncompiled; tamedeg.search sits in sys.modules all along.
"""

from .automorphisms import (
    ElementaryAut,
    Endo,
    TameWord,
    intro_family,
    mdeg,
    nagata,
    permutation_word,
    realize,
    semigroup_witness,
    shear,
    transposition_word,
)
from .classifier import (
    Certificate,
    ClassificationResult,
    Condition,
    DeltaBoundRegistry,
    Excluded,
    Realizable,
    Theorem,
    Unknown,
    builtin_registry,
    certify_wild,
    check_total_abc,
    check_weighted_conditions,
    classify_total,
    classify_weighted,
    corollary_names,
    delta_lower_bound,
    make_realizable,
    realizability_table,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    DegreeCapError,
    DomainError,
    HypothesisViolation,
    PolynomialSyntaxError,
    RankMismatchError,
    SchemaVersionError,
)
from .ordgroup import (
    GroupElem,
    Weight,
    as_group_elem,
    frobenius_number,
    ge,
    is_prime,
    least_combination_exceeding,
    rank_profile,
    semigroup_member,
    w_star,
)
from .parse import parse_polynomial, parse_vector, parse_vector_list
from .poly import (
    Budget,
    Polynomial,
    degree_w,
    jacobian_det,
    render,
    substitute,
    wedge2_degree,
)


def _lazy_module(name: str):
    """The module ``name``, put in sys.modules and returned unexecuted: its
    source is compiled and run when one of its attributes is first read
    (the importlib.util.LazyLoader recipe)."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Only the search and check commands run the harness, the costliest module
# to compile; every other module is imported eagerly above.
search = _lazy_module(f"{__name__}.search")

_SEARCH_NAMES = frozenset((
    "ConsistencyReport", "SearchConfig", "SearchRecord", "consistency_check", "generate",
    "load", "persist", "run_search", "word_fingerprint",
))


def __getattr__(name: str):
    # read from the module on every access, with no copy kept here, so a
    # patched tamedeg.search attribute shows through the package and its
    # restoration does too
    if name in _SEARCH_NAMES:
        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_SEARCH_NAMES})


__version__ = "0.1.0"
# without it a star import would take only the names bound here
__all__ = [name for name in __dir__() if not name.startswith("_")]
