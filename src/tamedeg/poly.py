"""Exact multivariate polynomials over Q with weighted gradings.

A polynomial is a finite map from exponent tuples to nonzero rational
coefficients; the zero polynomial is the empty map, so representations are
canonical and equality is decidable.  Every stored coefficient is in
canonical form: an ``int`` when it is integral and a ``Fraction`` only when
it is not, so integral polynomials (every witness template and search word)
run on machine-friendly integer arithmetic.  ``Polynomial(...)`` validates
and normalizes input from outside the module; the ring operations build
their results with the private trusted constructor ``_trusted``, whose
precondition is that every coefficient is nonzero and canonical and every
exponent tuple has length nvars.

Degrees take values in Z^k under a vector of positive weights (one group
element per variable); the zero polynomial has no degree (None).  On top
of the ring operations this module computes weighted degrees, degrees of
wedge products of differentials and Jacobian determinants.  The 2x2
minors of two rows of partials, the components of df ^ dg, are formed in
one place, ``_minors``: ``wedge2_degree`` reads its degree from them, and
``_Jacobian``, the record a map in three variables keeps for its wildness
certificates, forms them once per component pair, expands the Jacobian
along the third row against the first pair's minors to screen it once,
and hands the minors back for deg_w(df1 ^ df2) under every weight; the
rows of partials under them are packed by ``_partials`` at a width it
sizes itself.  The public functions validate their input; the private
ones trust it.

Every product runs on one private packed kernel: each exponent tuple
becomes one int, with a field per variable and the total degree above
them, so a monomial product is one int addition and the keys are small
ints that the garbage collector does not track.  Each operation here packs
its operands once, at a field width from an exponent bound it proves
before multiplying anything, and unpacks its result once; the realization
fold of ``automorphisms`` keeps its components packed across steps.  A
product with a one-term operand (a component still a variable, or a
monomial power) is one shift of the other operand's keys; a one-term power
is closed form; any other power squares through a loop that forms each
cross product once; every other product, and each alternating sum of
products in a minor or a determinant, runs through one loop, ``_alternating``,
whose terms each path gives in its order, raising on the same term count.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul as _mul
from typing import Optional, Sequence, Union

from .errors import BudgetExceededError, DomainError, _entries, _show
from .ordgroup import GroupElem, coerce_weight_vector

Monomial = tuple[int, ...]
Coeff = Union[int, Fraction]
DEFAULT_TERM_BUDGET = 200_000  # the term cap of Budget() and of SearchConfig


def _canonical(value) -> Coeff:
    """The canonical form of a rational: an int when integral, else a
    Fraction; DomainError for a value that is no rational, a bool too."""
    if type(value) is int:
        return value
    if type(value) is bool:
        raise DomainError(f"expected a rational number, got {value}")
    try:
        value = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"expected a rational number, got {_show(value)}") from None
    return value.numerator if value.denominator == 1 else value


def _require_nvars(nvars) -> None:
    """DomainError unless nvars is an int (not a bool) of at least 1."""
    if type(nvars) is not int or nvars < 1:
        raise DomainError(f"polynomials need at least one variable, got nvars={_show(nvars)}")


def _require_polys(fs) -> None:
    """DomainError for an argument that is not a Polynomial."""
    for f in fs:
        if not isinstance(f, Polynomial):
            raise DomainError(f"expected a Polynomial, got {_show(f)}")


def _settle(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints, in place."""
    dead = []
    for mono, c in terms.items():
        if not c:
            dead.append(mono)
        elif type(c) is not int and c.denominator == 1:
            terms[mono] = c.numerator
    for mono in dead:
        del terms[mono]
    return terms


def _padd(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign*b (sign 1 or -1) for term maps with keys of any kind,
    exponent tuples or packed ints; a and b are left as they are."""
    if sign < 0:
        b = {k: -c for k, c in b.items()}
    out = dict(a)
    get = out.get
    for k, c in b.items():
        out[k] = get(k, 0) + c
    return _settle(out)


class Budget:
    """Caps on intermediate size during polynomial composition.

    term_cap bounds the number of stored terms of any single result;
    degree_cap, when set, bounds the total degree of every component that
    ``automorphisms.realize`` builds, checked on the predicted degree
    before a step is expanded.  ops_used only counts the coefficient
    multiplications performed across the lifetime of the budget (a square
    forms each cross product once, and a one-term power counts as one).
    """

    __slots__ = ("term_cap", "ops_used", "degree_cap")

    def __init__(
        self,
        term_cap: int = DEFAULT_TERM_BUDGET,
        degree_cap: Optional[int] = None,
    ):
        self.term_cap = term_cap
        self.ops_used = 0
        self.degree_cap = degree_cap

    def charge(self, terms: int, ops: int) -> None:
        self.ops_used += ops
        if terms > self.term_cap:
            raise BudgetExceededError(
                f"term budget exceeded: {terms} > {self.term_cap}"
            )


class Polynomial:
    """Canonical sparse polynomial over Q.

    Each coefficient is stored as an int when it is integral and as a
    Fraction only when it is not.  The constructor validates the exponent
    tuples and normalizes the coefficients; the ring operations bypass it
    through ``_trusted``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        _require_nvars(nvars)
        self.nvars = nvars
        clean: dict[Monomial, Coeff] = {}
        if terms is not None:
            try:
                terms = dict(terms)
            except (TypeError, ValueError):
                raise DomainError(
                    f"terms must map exponent tuples to coefficients, got {_show(terms)}"
                ) from None
            for mono, coeff in terms.items():
                if not (isinstance(mono, tuple) and len(mono) == nvars
                        and all(type(e) is int and e >= 0 for e in mono)):
                    raise DomainError(f"need {nvars} exponents, ints >= 0, got {_show(mono)}")
                c = _canonical(coeff)
                if c != 0:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int = 3) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, value, nvars: int = 3) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int = 3) -> "Polynomial":
        _require_nvars(nvars)
        if type(index) is not int or not 0 <= index < nvars:
            raise DomainError(f"variable index {_show(index)} out of range for n={nvars}")
        return _trusted(nvars, {tuple(int(i == index) for i in range(nvars)): 1})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff=1) -> "Polynomial":
        exponents = _entries(exponents, "exponents")
        return cls(len(exponents), {exponents: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise DomainError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            c = _canonical(other)
            return _trusted(self.nvars, {(0,) * self.nvars: c} if c else {})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _trusted(self.nvars, _padd(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return _trusted(self.nvars, _padd(self.terms, other.terms, -1))

    def __mul__(self, other):
        if type(other) in (int, Fraction) and other == 1:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power(self, exponent)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree_int(self) -> int:
        """Total degree as a plain int; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def render(self) -> str:
        return render(self)

    def __repr__(self):
        return f"<poly {render(self)}>"


def _trusted(nvars: int, terms: dict) -> Polynomial:
    """Wrap terms without validation.  Precondition: every coefficient is
    nonzero and canonical (int when integral) and every key is an exponent
    tuple of length nvars; the caller keeps no other reference to terms."""
    p = object.__new__(Polynomial)
    p.nvars = nvars
    p.terms = terms
    return p


def multiply(f: Polynomial, g: Polynomial, budget: Optional[Budget] = None) -> Polynomial:
    if f.nvars != g.nvars:
        raise DomainError("variable counts differ")
    width = _pack_width(max(f.total_degree_int(), 0) + max(g.total_degree_int(), 0))
    product = _pmul(_pack(f.terms, width), _pack(g.terms, width), budget)
    return _unpack(product, f.nvars, width)


def power(f: Polynomial, exponent: int, budget: Optional[Budget] = None) -> Polynomial:
    if type(exponent) is not int or exponent < 0:
        raise DomainError("exponent must be a nonnegative integer")
    if exponent == 0:
        return _trusted(f.nvars, {(0,) * f.nvars: 1})
    width = _pack_width(exponent * max(f.total_degree_int(), 0))
    base = _pack(f.terms, width)
    return _unpack(_ppow(base, exponent, {1: base}, budget), f.nvars, width)


# The packed kernel.  A packed polynomial in n variables is a dict from int
# keys to canonical coefficients: exponent e_i sits in bits
# [i*width, (i+1)*width) and the total degree above bit n*width, so the
# product of two monomials is the sum of their keys and the total degree of
# a packed polynomial is max(keys) >> (n*width).  The sum is exact as long
# as no exponent of any partial product reaches 2**width, so a caller sizes
# the width from an exponent bound proved before it multiplies anything.


def _pack_width(bound: int) -> int:
    """Bits per exponent field that hold every exponent up to bound."""
    return max(bound, 1).bit_length()


def _pack(terms: dict, width: int) -> dict:
    """Packed form of a tuple-keyed term map whose exponents fit width."""
    out = {}
    for mono, c in terms.items():
        key = sum(mono)
        for e in reversed(mono):
            key = key << width | e
        out[key] = c
    return out


def _unpack(packed: dict, nvars: int, width: int) -> Polynomial:
    mask = (1 << width) - 1
    fields = [[k >> s & mask for k in packed] for s in range(0, nvars * width, width)]
    return _trusted(nvars, dict(zip(zip(*fields), packed.values())))


def _pmul(a: dict, b: dict, budget: Optional[Budget]) -> dict:
    """Product of two packed polynomials; _alternating charges the budget
    once per term of a.  A one-term operand takes one comprehension and
    one charge, which names the size at which that loop would stop."""
    if not a or not b:
        return {}
    if len(a) == 1 or len(b) == 1:
        one, other = (a, b) if len(a) == 1 else (b, a)
        ((k, c),) = one.items()
        out = {k + ko: c * co for ko, co in other.items()}
        if budget is not None:
            # the pair loop stops at the first term of a past the term cap
            n = len(out)
            budget.charge(n if one is a else min(n, budget.term_cap + 1), n)
        return _settle(out)
    return _alternating(((a, b),), budget)


def _psquare(a: dict, budget: Optional[Budget]) -> dict:
    """_pmul(a, a, budget), forming each cross product once: after each
    term of a the result holds the same keys, in the same order, as the
    pair loop's, so the term cap is charged alike."""
    acc: dict[int, Coeff] = {}
    get = acc.get
    items = list(a.items())
    for i, (ka, ca) in enumerate(items):
        acc[ka + ka] = get(ka + ka, 0) + ca * ca
        twice = ca + ca
        for kb, cb in items[i + 1:]:
            key = ka + kb
            acc[key] = get(key, 0) + twice * cb
        if budget is not None:
            budget.charge(len(acc), len(items) - i)
    return _settle(acc)


def _ppow(base: dict, exponent: int, memo: dict, budget: Optional[Budget]) -> dict:
    """base**exponent (exponent >= 1): a one-term base in closed form,
    any other by binary powering, most significant bit first; memo maps
    exponents to powers of base already built and gains every power built
    here, so powers of one base share their squarings."""
    p = memo.get(exponent)
    if p is None:
        if len(base) == 1:
            # an int stays an int and a canonical Fraction stays nonintegral
            ((k, c),) = base.items()
            p = {k * exponent: c**exponent}
            if budget is not None:
                budget.charge(1, 1)
        else:
            p = _psquare(_ppow(base, exponent >> 1, memo, budget), budget)
            if exponent & 1:
                p = _pmul(p, base, budget)
        memo[exponent] = p
    return p


def _psubstitute(f: Polynomial, replacements: Sequence[dict], budget: Optional[Budget]) -> dict:
    """f evaluated at packed replacements, one per variable of f; the
    width of the replacements must hold every exponent of the result's
    partial products."""
    memos = [{1: r} for r in replacements]
    acc: dict[int, Coeff] = {}
    get = acc.get
    for mono, coeff in f.terms.items():
        term = _ONE
        for i, e in enumerate(mono):
            if e:
                p = _ppow(replacements[i], e, memos[i], budget)
                term = p if term is _ONE else _pmul(term, p, budget)
        # cancelled terms leave at once, so the budget charges live terms
        for key, c in term.items():
            total = get(key, 0) + c * coeff
            if total:
                acc[key] = total
            else:
                del acc[key]
        if budget is not None:
            budget.charge(len(acc), 0)
    return _settle(acc)


_ONE = {0: 1}


def substitute(
    f: Polynomial,
    replacements: Sequence[Polynomial],
    budget: Optional[Budget] = None,
) -> Polynomial:
    """Evaluate f at the given polynomials, one per variable of f."""
    if len(replacements) != f.nvars:
        raise DomainError(
            f"need {f.nvars} replacement polynomials, got {len(replacements)}"
        )
    if not replacements:
        raise DomainError("need at least one replacement")
    m = replacements[0].nvars
    for r in replacements:
        if r.nvars != m:
            raise DomainError("replacements must share one variable count")
    if f.is_zero:
        return _trusted(m, {})
    degs = [max(r.total_degree_int(), 0) for r in replacements]
    bound = max(degs + [sum(map(_mul, mono, degs)) for mono in f.terms])
    width = _pack_width(bound)
    packed = [_pack(r.terms, width) for r in replacements]
    return _unpack(_psubstitute(f, packed, budget), m, width)


def degree_w(f: Polynomial, weights=None) -> Optional[GroupElem]:
    """Maximal weighted degree over the terms of f; None for zero."""
    _require_polys((f,))
    return _degree_w(f, coerce_weight_vector(weights, f.nvars))


def _degree_w(f: Polynomial, ws: tuple[GroupElem, ...]) -> Optional[GroupElem]:
    """degree_w under weights already checked: f.nvars positive group
    elements of one rank."""
    if f.is_zero:
        return None
    if len(ws[0].coords) == 1:
        ints = [w.coords[0] for w in ws]
        top = max(sum(map(_mul, mono, ints)) for mono in f.terms)
        return GroupElem._trusted((top,))
    # coordinate tuples compare lexicographically, as GroupElems do
    columns = list(zip(*(w.coords for w in ws)))  # one weight per variable
    return GroupElem._trusted(
        max(tuple([sum(map(_mul, mono, col)) for col in columns]) for mono in f.terms)
    )


def _ppartial(a: dict, index: int, nvars: int, width: int) -> dict:
    """Partial derivative of a packed polynomial: each key loses one
    x_index and one total degree."""
    shift = index * width
    mask = (1 << width) - 1
    step = (1 << shift) + (1 << nvars * width)
    return _settle({k - step: c * e for k, c in a.items() if (e := k >> shift & mask)})


def wedge2_degree(f: Polynomial, g: Polynomial, weights=None) -> Optional[GroupElem]:
    """Weighted degree of df ^ dg: the maximum over variable pairs i < j of
    deg_w of the antisymmetrized minor times x_i*x_j.  None exactly when
    every minor vanishes (f and g algebraically dependent)."""
    _require_polys((f, g))
    if f.nvars != g.nvars:
        raise DomainError("variable counts differ")
    n = f.nvars
    ws = coerce_weight_vector(weights, n)
    (df, dg), width = _partials((f, g), n)
    return _wedge_degree(_minors(df, dg), n, width, ws)


def _wedge_degree(minors, nvars: int, width: int, ws) -> Optional[GroupElem]:
    """deg_w of df ^ dg from its components: minors holds ((i, j), minor)
    with the packed minor of the variable pair i < j, whose terms gain
    w_i + w_j; None when all vanish.  The degrees are compared as
    coordinate tuples, lexicographically, as GroupElems compare."""
    mask = (1 << width) - 1
    shifts = range(0, nvars * width, width)
    columns = list(zip(*(w.coords for w in ws)))  # one weight per variable
    best = None
    for (i, j), minor in minors:
        for key in minor:
            exps = [key >> s & mask for s in shifts]
            deg = tuple([sum(map(_mul, exps, col)) + col[i] + col[j] for col in columns])
            if best is None or deg > best:
                best = deg
    return None if best is None else GroupElem._trusted(best)


def _partials(components: Sequence[Polynomial], n: int) -> tuple[list[list[dict]], int]:
    """(rows, width): one row per component in n variables, its partial
    derivatives by each variable, packed once at width, which holds the
    sum of the component degrees, a bound on every exponent of a product
    of entries from distinct rows (a minor or a cofactor product)."""
    width = _pack_width(sum(max(c.total_degree_int(), 0) for c in components))
    return [
        [_ppartial(p, j, n, width) for j in range(n)]
        for p in (_pack(c.terms, width) for c in components)
    ], width


def _det(matrix: list[list[dict]]) -> dict:
    """Determinant of a square matrix of packed polynomials, by cofactors
    along the first row; a cofactor is formed only under a nonzero entry."""
    if len(matrix) == 1:
        return matrix[0][0]
    return _alternating(
        (entry, _det([row[:j] + row[j + 1 :] for row in matrix[1:]]) if entry else {})
        for j, entry in enumerate(matrix[0])
    )


def _alternating(products, budget: Optional[Budget] = None) -> dict:
    """The sum over j of (-1)**j * a_j * b_j for the packed pairs (a_j, b_j)
    of products, a cofactor expansion: all products go into one term map,
    whose zero coefficients are dropped once, at the end.  A budget, which
    only _pmul passes, is charged once per term of each a_j."""
    acc: dict[int, Coeff] = {}
    get = acc.get
    negate = False
    for a, b in products:
        if a and b:
            b_items = list(b.items())
            for ka, ca in a.items():
                if negate:
                    ca = -ca
                for kb, cb in b_items:
                    key = ka + kb
                    acc[key] = get(key, 0) + ca * cb
                if budget is not None:
                    budget.charge(len(acc), len(b_items))
        negate = not negate
    return _settle(acc)


def _minors(df: list, dg: list) -> list:
    """The 2x2 minors of two rows of packed partials, the components of
    df ^ dg: ((i, j), df_i*dg_j - df_j*dg_i) for each variable pair i < j."""
    n = len(df)
    return [
        ((i, j), _alternating(((df[i], dg[j]), (df[j], dg[i]))))
        for i in range(n)
        for j in range(i + 1, n)
    ]


class _Jacobian:
    """The weight-independent part of a wildness certificate for a map in
    three variables, kept with the map (``Endo._jacobian``): rows, the
    components' partials packed once at width (``_partials``); the 2x2
    minors of each unordered component pair, formed the first time the
    pair is asked for; and constant, whether the Jacobian is a nonzero
    constant, decided by the first ``screen`` and None before it."""

    __slots__ = ("rows", "width", "pairs", "constant")

    def __init__(self, components: Sequence[Polynomial]):
        self.rows, self.width = _partials(components, 3)
        self.pairs: dict[tuple[int, int], list] = {}
        self.constant: Optional[bool] = None

    def minors(self, i: int, j: int) -> list:
        """The components of dc_i ^ dc_j as _wedge_degree reads them, up to
        sign: one list per unordered pair, since swapping the pair negates
        every minor and _wedge_degree reads only exponents."""
        pair = (i, j) if i < j else (j, i)
        minors = self.pairs.get(pair)
        if minors is None:
            minors = self.pairs[pair] = _minors(self.rows[pair[0]], self.rows[pair[1]])
        return minors

    def determinant(self, i: int, j: int) -> dict:
        """The Jacobian determinant up to sign, packed at width: expanded
        along the row of the third component against the minors of i, j."""
        # the minor of the third row's entry k leaves out variable k
        minors = reversed([m for _, m in self.minors(i, j)])
        return _alternating(zip(self.rows[3 - i - j], minors))

    def screen(self, i: int, j: int) -> bool:
        """Whether the Jacobian is a nonzero constant: on the first call,
        the determinant against the minors of i, j has the one key of x^0."""
        if self.constant is None:
            self.constant = self.determinant(i, j).keys() == {0}
        return self.constant


def jacobian_det(components: Sequence[Polynomial]) -> Polynomial:
    """Determinant of the matrix of partials of the components."""
    n = len(components)
    if not n:
        raise DomainError("need at least one component")
    _require_polys(components)
    for c in components:
        if c.nvars != n:
            raise DomainError("need as many variables as components")
    rows, width = _partials(components, n)
    return _unpack(_det(rows), n, width)


def _render_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(parts)


def render(f: Polynomial) -> str:
    """Canonical text form, terms in graded lexicographic order (descending).

    Round-trips through the expression parser.
    """
    if f.is_zero:
        return "0"
    ordered = sorted(f.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    pieces = []
    for idx, (mono, coeff) in enumerate(ordered):
        mono_str = _render_monomial(mono)
        mag = str(abs(coeff))
        if not mono_str:
            body = mag
        elif abs(coeff) == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if idx == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)
