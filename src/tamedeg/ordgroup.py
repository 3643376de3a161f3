"""Arithmetic in the totally ordered group Z^k under lexicographic order.

All degrees and weights used by the grading machinery live in Z^k ordered
lexicographically (rank k = 1 recovers the integers with their usual order).
Besides the group operations this module provides the order-theoretic
primitives the exclusion conditions are built from: proportionality of
pairs, gcd/lcm of proportional pairs, membership in two-generator numerical
semigroups, Sylvester's Frobenius number, staircase minimization above a
threshold, and the derived invariant ``w_star``.

Everything here is an immutable value and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd as _int_gcd
from operator import add as _add, neg as _neg, sub as _sub
from typing import Iterable, Optional, Sequence, Union

from .errors import ConstructionError, DomainError, RankMismatchError


class NegInfinity:
    """Degree of the zero polynomial: below every group element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "-inf"


NEG_INF = NegInfinity()


class GroupElem:
    """Element of Z^k; comparisons are lexicographic on the coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        coords = tuple(coords)
        if not coords:
            raise DomainError("group element needs rank >= 1")
        for c in coords:
            if not isinstance(c, int):
                raise DomainError(f"coordinates must be integers, got {c!r}")
        self.coords = coords

    @staticmethod
    def _trusted(coords: tuple) -> "GroupElem":
        """Wrap coords without validation.  Precondition: a nonempty tuple
        of ints, as the group operations produce from valid operands."""
        e = object.__new__(GroupElem)
        e.coords = coords
        return e

    @property
    def rank(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, rank: int = 1) -> "GroupElem":
        return cls((0,) * rank)

    def _check(self, other: "GroupElem") -> None:
        """Raise for an operand that is not a GroupElem of this rank.  The
        operators test the common case inline and call this only when
        that test fails."""
        if not isinstance(other, GroupElem):
            raise TypeError(f"expected GroupElem, got {type(other).__name__}")
        if len(self.coords) != len(other.coords):
            raise RankMismatchError(
                f"rank mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other):
        if other is NEG_INF:
            return NEG_INF
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return GroupElem._trusted(tuple(map(_add, self.coords, other.coords)))

    def __sub__(self, other):
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return GroupElem._trusted(tuple(map(_sub, self.coords, other.coords)))

    def __neg__(self):
        return GroupElem._trusted(tuple(map(_neg, self.coords)))

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return GroupElem._trusted(tuple([n * a for a in self.coords]))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GroupElem) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        if other is NEG_INF:
            return False
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords < other.coords

    def __le__(self, other):
        if other is NEG_INF:
            return False
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        if other is NEG_INF:
            return True
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords > other.coords

    def __ge__(self, other):
        if other is NEG_INF:
            return True
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords >= other.coords

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_positive(self) -> bool:
        """First nonzero coordinate is positive (strictly above zero)."""
        for c in self.coords:
            if c != 0:
                return c > 0
        return False

    def render(self) -> str:
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"GroupElem{self.coords}"


DegreeValue = Union[GroupElem, NegInfinity]


def ge(*coords: int) -> GroupElem:
    """Shorthand constructor: ge(3) or ge(1, 0, 2)."""
    return GroupElem(coords)


def as_group_elem(value, rank: Optional[int] = None) -> GroupElem:
    """Coerce an int, coordinate sequence or GroupElem; check rank if given."""
    if isinstance(value, GroupElem):
        out = value
    elif isinstance(value, int):
        out = GroupElem((value,))
    elif isinstance(value, (tuple, list)):
        out = GroupElem(value)
    else:
        raise DomainError(f"cannot interpret {value!r} as a group element")
    if rank is not None and out.rank != rank:
        raise RankMismatchError(f"expected rank {rank}, got rank {out.rank}")
    return out


def _require_positive(*elems: GroupElem) -> None:
    for e in elems:
        if not e.is_positive:
            raise DomainError(f"expected a positive group element, got {e!r}")


def dependent_pair(
    d1: GroupElem, d2: GroupElem
) -> Optional[tuple[int, int, GroupElem]]:
    """Coprime (u1, u2) with u2*d1 == u1*d2, plus the common d with d_i == u_i*d.

    Returns None when d1 and d2 are linearly independent over Z.  The ratio
    u2/u1 is read off the first coordinate where the pair is nonzero, in
    lowest terms by an integer gcd, and every later coordinate is checked
    against it by cross-multiplication.  The common element d always has
    integer coordinates because u1 divides every coordinate of d1.
    """
    _require_positive(d1, d2)
    d1._check(d2)
    u1 = u2 = 0
    for a, b in zip(d1.coords, d2.coords):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        if u1 == 0:  # the leading coordinates, positive for positive d1, d2
            u1, u2, _ = _pair1(a, b)
        elif a * u2 != b * u1:
            return None
    if u1 <= 0 or u2 <= 0:
        raise ConstructionError(f"positive pair {d1!r}, {d2!r} has ratio {u2}/{u1}")
    d = GroupElem._trusted(tuple([c // u1 for c in d1.coords]))
    if u1 * d != d1 or u2 * d != d2:
        raise ConstructionError(f"{d!r} is not a common divisor of {d1!r}, {d2!r}")
    return u1, u2, d


def _pair1(a: int, b: int) -> tuple[int, int, int]:
    """dependent_pair of positive ints a, b: (a/g, b/g, g), g = gcd(a, b)."""
    g = _int_gcd(a, b)
    return a // g, b // g, g


def gcd_lcm(d1: GroupElem, d2: GroupElem) -> tuple[GroupElem, GroupElem]:
    """gcd and lcm of a Z-dependent positive pair; matches the integer
    notions at rank 1."""
    pair = dependent_pair(d1, d2)
    if pair is None:
        raise DomainError("gcd undefined for independent pair")
    u1, u2, d = pair
    return d, (u1 * u2) * d


def multiple_of(d: GroupElem, e: GroupElem) -> Optional[int]:
    """The positive integer m with d == m*e, or None."""
    d._check(e)
    for a, b in zip(d.coords, e.coords):
        if b != 0:
            m = _multiple1(a, b)
            return m if m is not None and m * e == d else None
    return None


def _multiple1(a: int, b: int) -> Optional[int]:
    """multiple_of for ints: the positive int m with a == m*b, or None."""
    if b == 0 or a % b:
        return None
    m = a // b
    return m if m >= 1 else None


def semigroup_member(
    d: GroupElem, e1: GroupElem, e2: GroupElem
) -> Optional[tuple[int, int]]:
    """Nonnegative (a, b) with a*e1 + b*e2 == d, or None.

    Independent generators give an exact 2-unknown linear solve (at most one
    rational solution); dependent generators reduce to a coin problem on the
    coprime multipliers, solved with the smallest a as tie-break.

    The input is validated on every call; the answer is then memoized on
    (d, e1, e2) in a bounded LRU cache, so a bad input raises each time and
    is never cached.
    """
    _require_positive(e1, e2)
    d._check(e1)
    d._check(e2)
    return _semigroup_solve(d, e1, e2)


@lru_cache(maxsize=1024)
def _semigroup_solve(
    d: GroupElem, e1: GroupElem, e2: GroupElem
) -> Optional[tuple[int, int]]:
    if len(d.coords) == 1:
        return _member1(d.coords[0], e1.coords[0], e2.coords[0])
    pair = dependent_pair(e1, e2)
    if pair is None:
        return _solve_independent(d, e1, e2)
    u1, u2, e = pair
    return _coin(0 if d.is_zero else multiple_of(d, e), u1, u2)


@lru_cache(maxsize=1024)
def _member1(d: int, e1: int, e2: int) -> Optional[tuple[int, int]]:
    """semigroup_member for ints, e1 and e2 positive; memoized in an LRU cache."""
    u1, u2, e = _pair1(e1, e2)
    return _coin(0 if d == 0 else _multiple1(d, e), u1, u2)


def _coin(m: Optional[int], u1: int, u2: int) -> Optional[tuple[int, int]]:
    """(a, b) >= 0 with a*u1 + b*u2 == m for coprime u1, u2 and the smallest
    a; None when there is none or m is None."""
    if m is None:
        return None
    a = (m % u2) * pow(u1, -1, u2) % u2 if u2 > 1 else 0
    rest = m - a * u1
    if rest < 0 or rest % u2 != 0:
        return None
    return a, rest // u2


def _solve_independent(
    d: GroupElem, e1: GroupElem, e2: GroupElem
) -> Optional[tuple[int, int]]:
    k = d.rank
    pivot = None
    for i in range(k):
        for j in range(i + 1, k):
            det = e1.coords[i] * e2.coords[j] - e1.coords[j] * e2.coords[i]
            if det != 0:
                pivot = (i, j, det)
                break
        if pivot:
            break
    if pivot is None:
        raise ConstructionError(
            f"independent pair {e1!r}, {e2!r} has no nonzero 2x2 minor"
        )
    i, j, det = pivot
    a, ra = divmod(d.coords[i] * e2.coords[j] - d.coords[j] * e2.coords[i], det)
    b, rb = divmod(e1.coords[i] * d.coords[j] - e1.coords[j] * d.coords[i], det)
    if ra or rb or a < 0 or b < 0:
        return None
    if a * e1 + b * e2 != d:
        return None
    return a, b


def frobenius_number(u1: int, u2: int) -> int:
    """Sylvester's u1*u2 - u1 - u2 for coprime generators u1, u2 >= 2.

    Every integer >= (u1-1)(u2-1) is representable over {u1, u2}.
    """
    if u1 < 2 or u2 < 2:
        raise DomainError("generators must be >= 2")
    if _int_gcd(u1, u2) != 1:
        raise DomainError(f"generators must be coprime, gcd is {_int_gcd(u1, u2)}")
    return u1 * u2 - u1 - u2


def least_multiple_exceeding(e: GroupElem, t: GroupElem) -> Optional[int]:
    """Smallest b >= 1 with b*e > t, or None when no multiple passes t.

    The multiples b*e increase strictly in b, so the answer is found by a
    monotone binary search once an upper bound is known.  At rank >= 2 the
    answer may not exist: t can carry a positive coordinate strictly before
    e's first nonzero coordinate.
    """
    _require_positive(e)
    e._check(t)
    lead = next(i for i, c in enumerate(e.coords) if c != 0)
    for j in range(lead):
        if t.coords[j] > 0:
            return None
        if t.coords[j] < 0:
            return 1
    hi = max(1, t.coords[lead] // e.coords[lead] + 1)
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * e > t:
            hi = mid
        else:
            lo = mid + 1
    return lo


def least_combination_exceeding(
    e1: GroupElem, e2: GroupElem, t: GroupElem
) -> Optional[GroupElem]:
    """min{a*e1 + b*e2 : a, b >= 1, a*e1 + b*e2 > t}, or None if empty.

    Staircase scan: for a = 1, 2, ... take the minimal b(a) with
    b(a)*e2 > t - a*e1.  b(a) is non-increasing in a, and once b(a) == 1
    every larger a only yields larger combinations, so the scan stops at the
    first a with b(a) == 1.  That stopping index is computed up front; when
    it does not exist for either role assignment the whole set is empty.
    """
    _require_positive(e1, e2)
    a_cap = least_multiple_exceeding(e1, t - e2)
    if a_cap is None:
        e1, e2 = e2, e1
        a_cap = least_multiple_exceeding(e1, t - e2)
        if a_cap is None:
            return None
    best: Optional[GroupElem] = None
    acc = GroupElem.zero(e1.rank)
    for a in range(1, a_cap + 1):
        acc = acc + e1
        b = least_multiple_exceeding(e2, t - acc)
        if b is None:
            continue
        cand = acc + b * e2
        if best is None or cand < best:
            best = cand
    return best


def w_star(weights: Sequence[GroupElem]) -> GroupElem:
    """Smallest element of {a*w_s1 + b*w_s2 : a, b >= 1} strictly above
    w_s1 + w_s3, capped by 2*w_s1 + w_s3, where s sorts the three weights
    ascending.  Equals 3 for unit weights on Z.

    The value depends on the sorted weight triple alone and is memoized on
    it in a bounded LRU cache; the input is validated on every call, so a
    bad triple raises each time and is never cached."""
    if len(weights) != 3:
        raise DomainError("w_star takes exactly three weights")
    s1, s2, s3 = sorted(weights)
    _require_positive(s1, s2, s3)
    return _w_star_sorted(s1, s2, s3)


@lru_cache(maxsize=1024)
def _w_star_sorted(s1: GroupElem, s2: GroupElem, s3: GroupElem) -> GroupElem:
    fallback = 2 * s1 + s3
    stair = least_combination_exceeding(s1, s2, s1 + s3)
    if stair is None or fallback < stair:
        return fallback
    return stair


@dataclass(frozen=True)
class RankProfile:
    """Z-linear dependence pattern of a degree triple."""

    pair_12_dependent: bool
    pair_13_dependent: bool
    pair_23_dependent: bool
    triple_dependent: bool

    @property
    def pairwise_independent(self) -> bool:
        return not (
            self.pair_12_dependent or self.pair_13_dependent or self.pair_23_dependent
        )


def independent_triple(
    u: Sequence[int], v: Sequence[int], w: Sequence[int]
) -> bool:
    """Whether three integer vectors of one length are linearly independent,
    that is, whether some 3x3 minor of the matrix with rows u, v, w is
    nonzero."""
    return any(
        u[i] * (v[j] * w[k] - v[k] * w[j])
        - u[j] * (v[i] * w[k] - v[k] * w[i])
        + u[k] * (v[i] * w[j] - v[j] * w[i])
        for i, j, k in combinations(range(len(u)), 3)
    )


def rank_profile(d1: GroupElem, d2: GroupElem, d3: GroupElem) -> RankProfile:
    """Exact integer linear algebra for positive elements: which pairs are
    proportional over Z and whether the triple spans rank <= 2."""
    d1._check(d2)
    d1._check(d3)
    return RankProfile(
        pair_12_dependent=dependent_pair(d1, d2) is not None,
        pair_13_dependent=dependent_pair(d1, d3) is not None,
        pair_23_dependent=dependent_pair(d2, d3) is not None,
        triple_dependent=not independent_triple(d1.coords, d2.coords, d3.coords),
    )


@dataclass(frozen=True)
class Weight:
    """Three strictly positive group elements of a common rank."""

    w1: GroupElem
    w2: GroupElem
    w3: GroupElem

    def __post_init__(self):
        self.w1._check(self.w2)
        self.w1._check(self.w3)
        _require_positive(self.w1, self.w2, self.w3)

    @classmethod
    def of(cls, a, b, c) -> "Weight":
        wa, wb, wc = as_group_elem(a), as_group_elem(b), as_group_elem(c)
        return cls(wa, wb, wc)

    @property
    def components(self) -> tuple[GroupElem, GroupElem, GroupElem]:
        return (self.w1, self.w2, self.w3)

    @property
    def rank(self) -> int:
        return self.w1.rank

    @property
    def total(self) -> GroupElem:
        return self.w1 + self.w2 + self.w3

    def render(self) -> str:
        return ",".join(w.render() for w in self.components)


def coerce_weight_vector(weights, nvars: int) -> tuple[GroupElem, ...]:
    """Normalize a weight specification to a tuple of nvars positive group
    elements of equal rank.  Accepts a Weight, ints, coordinate tuples or
    GroupElems; None means unit weights on Z (total degree).  A Weight
    checked its rank and positivity when it was built, so its components
    are returned as they are."""
    if weights is None:
        return tuple(GroupElem((1,)) for _ in range(nvars))
    trusted = isinstance(weights, Weight)
    items = weights.components if trusted else tuple(as_group_elem(w) for w in weights)
    if len(items) != nvars:
        raise DomainError(f"expected {nvars} weights, got {len(items)}")
    if trusted:
        return items
    rank = items[0].rank
    for w in items:
        if w.rank != rank:
            raise RankMismatchError("weights must share one rank")
        if not w.is_positive:
            raise DomainError(f"weights must be positive, got {w!r}")
    return items


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for any n below 3.3e24; inputs here are
    degree integers, far below that."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
