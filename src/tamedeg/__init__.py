"""Exact classification of multidegrees of tame polynomial automorphisms.

Public surface, bottom up:

  ordgroup       the ordered group Z^k (lex), semigroup arithmetic, w_star
  poly           exact rational polynomials, weighted degrees, wedge degrees
  automorphisms  elementary steps, tame words, realization, witnesses
  classifier     exclusion certificates, wildness certification, corollaries
  search         bounded word generation and the search-vs-classifier oracle
  parse / cli    expression grammar and the command-line surface
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
    corollary_suite,
    delta_lower_bound,
    make_realizable,
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
    NEG_INF,
    DegreeValue,
    GroupElem,
    Weight,
    as_group_elem,
    dependent_pair,
    frobenius_number,
    gcd_lcm,
    ge,
    is_prime,
    least_combination_exceeding,
    multiple_of,
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
    partial,
    render,
    substitute,
    wedge2_degree,
)
from .search import (
    ConsistencyReport,
    SearchConfig,
    SearchRecord,
    consistency_check,
    generate,
    load,
    persist,
    realizability_table,
    run_search,
    word_fingerprint,
)

__version__ = "0.1.0"
