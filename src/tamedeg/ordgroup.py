"""Arithmetic in the totally ordered group Z^k under lexicographic order.

All degrees and weights used by the grading machinery live in Z^k ordered
lexicographically (rank k = 1 recovers the integers with their usual order).
Besides the group operations this module provides the order-theoretic
primitives the exclusion conditions are built from: proportionality of
pairs with their common divisor (from which the gcd and lcm of a
proportional pair are read), membership in two-generator numerical
semigroups, Sylvester's Frobenius number, staircase minimization above a
threshold, and the derived invariant ``w_star``.

Everything here is an immutable value and every function is pure; a Weight
keeps its |w|, its |w|* and whether it is Z-independent (Weight.total,
Weight.star, Weight.independent) once they are first read.  A value class
with no __init__ of its own gets one compiled when the class is created.

The public functions validate their input once per call, then call a
private kernel that trusts its input (_member, _combination_exceeding,
_stair and the rank-1 int kernels _member1, _lce1).  The kernels _pair,
_multiple, _multiple_exceeding, _pair1 and _multiple1 have no public
check: callers that have validated already, such as the classifier, call
them directly.  A group-element argument that is not a GroupElem raises
DomainError in every position, and one of another rank
RankMismatchError.

The staircase minimum behind w_star and least_combination_exceeding is
found at rank 1 (_lce1) by _extreme, the largest residue of a linear
function mod one generator, in O(log) Euclid rounds.  Above rank 1,
_stair scans coordinate tuples, one step per multiple of the first
generator up to the threshold at its lead, so its cost grows linearly
with that ratio.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd as _int_gcd
from operator import add as _add, sub as _sub
from typing import Iterable, Optional, Sequence

from .errors import ConstructionError, DomainError, RankMismatchError, _entries, _show


_set = object.__setattr__


class _Value:
    """Base of the value classes, from the field names in _fields: equality
    (NotImplemented across classes), the hash of the field tuple, a
    Name(field=value, ...) repr, pickling through __init__, and
    FrozenInstanceError on assignment or deletion, unless the subclass is
    declared frozen=False (mutable and unhashable).  Frozen subclasses set
    their fields with _set.  A subclass with no __init__ of its own gets the
    one a dataclass would write, compiled from its _fields when the class is
    created: one parameter per field, in order, each stored with _set."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True):
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
        if "__init__" not in cls.__dict__:
            stores = "".join(f"\n _set(self, {name!r}, {name})" for name in cls._fields)
            namespace = {"_set": _set, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(cls._fields)}):{stores}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return (self.__class__, self._key())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # an error path only

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GroupElem:
    """Element of Z^k; comparisons are lexicographic on the coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        coords = tuple(coords)
        if not coords:
            raise DomainError("group element needs rank >= 1")
        for c in coords:
            if type(c) is not int:
                raise DomainError(f"coordinates must be integers, got {_show(c)}")
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
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return GroupElem._trusted(tuple(map(_add, self.coords, other.coords)))

    def __sub__(self, other):
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return GroupElem._trusted(tuple(map(_sub, self.coords, other.coords)))

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
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords < other.coords

    def __le__(self, other):
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        if type(other) is not GroupElem or len(self.coords) != len(other.coords):
            self._check(other)
        return self.coords > other.coords

    def __ge__(self, other):
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
        return _render_coords(self.coords)

    def __repr__(self):
        return f"GroupElem{self.coords}"


def _render_coords(coords: tuple) -> str:
    """'5' at rank 1, '[1,0,2]' above: the text form of a group element."""
    if len(coords) == 1:
        return str(coords[0])
    return "[" + ",".join(str(c) for c in coords) + "]"


def ge(*coords: int) -> GroupElem:
    """Shorthand constructor: ge(3) or ge(1, 0, 2)."""
    return GroupElem(coords)


def as_group_elem(value, rank: Optional[int] = None) -> GroupElem:
    """Coerce an int, coordinate sequence or GroupElem; check rank if given."""
    if isinstance(value, GroupElem):
        out = value
    elif type(value) is int:
        out = GroupElem((value,))
    elif isinstance(value, (tuple, list)):
        out = GroupElem(value)
    else:
        raise DomainError(f"cannot interpret {_show(value)} as a group element")
    if rank is not None and out.rank != rank:
        raise RankMismatchError(f"expected rank {rank}, got rank {out.rank}")
    return out


def as_weight(value) -> "Weight":
    """A Weight as it is; anything else is read by coerce_weight_vector as
    three entries (None as unit weights), DomainError for any other count."""
    if isinstance(value, Weight):
        return value
    return Weight(*coerce_weight_vector(value, 3))


def _require_elems(*elems: GroupElem) -> None:
    """The check of every GroupElem argument of a public function:
    DomainError for one that is not a GroupElem, then RankMismatchError for
    one whose rank is not the first one's."""
    for e in elems:
        if type(e) is not GroupElem:
            raise DomainError(f"expected a group element, got {_show(e)}")
    for e in elems[1:]:
        elems[0]._check(e)


def _require_positive(*elems: GroupElem) -> None:
    """DomainError for an element, checked by _require_elems, that is not
    positive."""
    for e in elems:
        if not e.is_positive:
            raise DomainError(
                f"expected a positive group element, got GroupElem{_show(e.coords)}"
            )


def _pair(d1: GroupElem, d2: GroupElem) -> Optional[tuple[int, int, GroupElem]]:
    """Coprime (u1, u2) with u2*d1 == u1*d2, plus the common d with d_i == u_i*d,
    for positive elements d1, d2 of one rank (not checked).

    Returns None when d1 and d2 are linearly independent over Z.  The ratio
    u2/u1 is read off the first coordinate where the pair is nonzero, in
    lowest terms by an integer gcd, and every later coordinate is checked
    against it by cross-multiplication.  The common element d always has
    integer coordinates because u1 divides every coordinate of d1.
    """
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


def _swapped(pair: Optional[tuple[int, int, GroupElem]]):
    """_pair(d2, d1) from pair = _pair(d1, d2)."""
    return pair if pair is None else (pair[1], pair[0], pair[2])


def _pair1(a: int, b: int) -> tuple[int, int, int]:
    """_pair of positive ints a, b: (a/g, b/g, g), g = gcd(a, b)."""
    g = _int_gcd(a, b)
    return a // g, b // g, g


def _multiple(d: GroupElem, e: GroupElem) -> Optional[int]:
    """The positive integer m with d == m*e, or None; d and e share a rank."""
    for a, b in zip(d.coords, e.coords):
        if b != 0:
            m = _multiple1(a, b)
            return m if m is not None and m * e == d else None
    return None


def _multiple1(a: int, b: int) -> Optional[int]:
    """_multiple for ints: the positive int m with a == m*b, or None."""
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

    The input is validated on every call.  At rank 1 the answer is then
    memoized on the ints in a bounded LRU cache (_member1), so a bad input
    raises each time and is never cached; above it _member solves it.
    """
    _require_elems(d, e1, e2)
    _require_positive(e1, e2)
    if len(d.coords) == 1:
        return _member1(d.coords[0], e1.coords[0], e2.coords[0])
    return _member(d, e1, e2, _pair(e1, e2))


def _member(
    d: GroupElem, e1: GroupElem, e2: GroupElem, pair: Optional[tuple[int, int, GroupElem]]
) -> Optional[tuple[int, int]]:
    """semigroup_member on validated input, given pair = _pair(e1, e2)."""
    if pair is None:
        return _solve_independent(d, e1, e2)
    u1, u2, e = pair
    return _coin(0 if d.is_zero else _multiple(d, e), u1, u2)


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
    """semigroup_member for independent e1, e2: Cramer's rule on their
    first nonzero 2x2 minor, then a check of every coordinate."""
    p, q, c = e1.coords, e2.coords, d.coords
    for i, j in combinations(range(len(c)), 2):
        det = p[i] * q[j] - p[j] * q[i]
        if det:
            break
    else:
        raise ConstructionError(f"independent pair {e1!r}, {e2!r} has no nonzero 2x2 minor")
    a, ra = divmod(c[i] * q[j] - c[j] * q[i], det)
    b, rb = divmod(p[i] * c[j] - p[j] * c[i], det)
    if ra or rb or a < 0 or b < 0 or a * e1 + b * e2 != d:
        return None
    return a, b


def frobenius_number(u1: int, u2: int) -> int:
    """Sylvester's u1*u2 - u1 - u2 for coprime generators u1, u2 >= 2.

    Every integer >= (u1-1)(u2-1) is representable over {u1, u2}.
    """
    if type(u1) is not int or type(u2) is not int:
        raise DomainError("generators must be integers")
    if u1 < 2 or u2 < 2:
        raise DomainError("generators must be >= 2")
    if _int_gcd(u1, u2) != 1:
        raise DomainError(f"generators must be coprime, gcd is {_int_gcd(u1, u2)}")
    return u1 * u2 - u1 - u2


def _multiple_exceeding(e: tuple, t: tuple) -> Optional[int]:
    """Smallest b >= 1 with b*e > t, or None when no multiple passes t, for
    coordinate tuples e, t of one length with e positive (not checked).

    At rank >= 2 the answer may not exist: t can carry a positive
    coordinate strictly before e's first nonzero coordinate.  Otherwise,
    with q = t_lead // e_lead, every b > q passes, every b < q fails, and
    b = q passes when q*e > t (a tie at the lead, broken further on).
    """
    lead = 0
    while e[lead] == 0:
        lead += 1
    for c in t[:lead]:
        if c:
            return None if c > 0 else 1
    q = t[lead] // e[lead]
    if q >= 1 and tuple([q * c for c in e]) > t:
        return q
    return max(1, q + 1)


def least_combination_exceeding(
    e1: GroupElem, e2: GroupElem, t: GroupElem
) -> Optional[GroupElem]:
    """min{a*e1 + b*e2 : a, b >= 1, a*e1 + b*e2 > t}, or None if empty.

    The input is validated once, then solved by _combination_exceeding,
    at the cost the module docstring states.
    """
    _require_elems(e1, e2, t)
    _require_positive(e1, e2)
    best = _combination_exceeding(e1.coords, e2.coords, t.coords)
    return None if best is None else GroupElem._trusted(best)


def _combination_exceeding(e1: tuple, e2: tuple, t: tuple) -> Optional[tuple]:
    """least_combination_exceeding on coordinate tuples of one length, e1
    and e2 positive: by _lce1 at rank 1, by _stair above it."""
    if len(t) == 1:
        return (_lce1(e1[0], e2[0], t[0]),)
    return _stair(e1, e2, t)


def _lce1(u1: int, u2: int, t: int) -> int:
    """least_combination_exceeding for positive ints u1, u2 and any int t.

    Below t = u1 + u2 the answer is u1 + u2.  Otherwise, with
    n = (t - u1)//u2, each b <= n gives t + u1 - (t - b*u2) mod u1 (its
    least a*u1 above t - b*u2 has a >= 2), and b = n + 1 with a = 1 beats
    every larger b."""
    if t < u1 + u2:
        return u1 + u2
    n = (t - u1) // u2
    return min((n + 1) * u2 + u1, t + u1 - _extreme(n, u1, -u2, t - u2, True))


def _extreme(n: int, m: int, a: int, b: int, top: bool) -> int:
    """The largest (top) or least value of (a*x + b) mod m over 0 <= x < n,
    for ints n, m >= 1 and any a, b, in O(log m) Euclid rounds.

    With a, b reduced mod m the values wrap past a multiple of m
    w = (a*(n-1) + b)//m times.  With v_i = ((m mod a)*i + m - b - 1) mod a,
    the least is b or, just after the j-th wrap, a - 1 - v_(j-1); the
    largest is the last value or, just before that wrap, m - 1 - v_(j-1).
    So the opposite extreme of v over i < w, the same problem mod a,
    settles the round.  The rounds go on a list, not the stack:
    4,000-digit consecutive Fibonacci numbers take about 19,000."""
    rounds = []
    n = min(n, m)  # x -> (a*x + b) mod m has period m
    while True:
        a, b = a % m, b % m
        n, last = divmod(a * (n - 1) + b, m)
        value = last if top else b
        if n == 0:
            break
        rounds.append((top, value, m - 1 if top else a - 1))
        m, a, b, top = a, m, m - b - 1, not top
    for top, own, k in reversed(rounds):
        value = max(own, k - value) if top else min(own, k - value)
    return value


def _stair(e1: tuple, e2: tuple, t: tuple) -> Optional[tuple]:
    """least_combination_exceeding on coordinate tuples, e1 and e2
    positive, by a staircase scan: for a = 1, 2, ... take the minimal b(a)
    with b(a)*e2 > t - a*e1.  b(a) is non-increasing in a, and once
    b(a) == 1 every larger a only yields larger combinations, so the scan
    stops at the first a with b(a) == 1.  That stopping index is computed
    up front; when it does not exist for either role assignment the whole
    set is empty."""
    a_cap = _multiple_exceeding(e1, tuple(map(_sub, t, e2)))
    if a_cap is None:
        e1, e2 = e2, e1
        a_cap = _multiple_exceeding(e1, tuple(map(_sub, t, e2)))
        if a_cap is None:
            return None
    best = None
    acc = (0,) * len(t)
    for _ in range(a_cap):
        acc = tuple(map(_add, acc, e1))
        b = _multiple_exceeding(e2, tuple(map(_sub, t, acc)))
        if b is None:
            continue
        cand = tuple([a + b * c for a, c in zip(acc, e2)])
        if best is None or cand < best:
            best = cand
    return best


def w_star(weights: Sequence[GroupElem]) -> GroupElem:
    """Smallest element of {a*w_s1 + b*w_s2 : a, b >= 1} strictly above
    w_s1 + w_s3, capped by 2*w_s1 + w_s3, where s sorts the three weights
    ascending.  Equals 3 for unit weights on Z.

    The input is validated, then the value computed by
    _combination_exceeding, on every call; a Weight keeps it as
    Weight.star once read."""
    if len(weights) != 3:
        raise DomainError("w_star takes exactly three weights")
    _require_elems(*weights)
    _require_positive(*weights)
    s1, s2, s3 = sorted([w.coords for w in weights])
    fallback = tuple([2 * a + c for a, c in zip(s1, s3)])
    stair = _combination_exceeding(s1, s2, tuple(map(_add, s1, s3)))
    return GroupElem._trusted(fallback if stair is None or fallback < stair else stair)


class RankProfile(_Value):
    """Z-linear dependence pattern of a degree triple."""

    _fields = ("pair_12_dependent", "pair_13_dependent", "pair_23_dependent",
               "triple_dependent")


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
    _require_elems(d1, d2, d3)
    _require_positive(d1, d2, d3)
    return RankProfile(
        pair_12_dependent=_pair(d1, d2) is not None,
        pair_13_dependent=_pair(d1, d3) is not None,
        pair_23_dependent=_pair(d2, d3) is not None,
        triple_dependent=not independent_triple(d1.coords, d2.coords, d3.coords),
    )


class Weight(_Value):
    """Three strictly positive group elements of a common rank.  total
    (|w|), star (|w|*) and independent are kept once read, past the frozen
    __setattr__; equality and hash go by the fields alone.  Two threads
    reading one at once may both compute it, to the same value."""

    _fields = ("w1", "w2", "w3")

    def __init__(self, w1: GroupElem, w2: GroupElem, w3: GroupElem):
        _require_elems(w1, w2, w3)
        _require_positive(w1, w2, w3)
        _set(self, "w1", w1)
        _set(self, "w2", w2)
        _set(self, "w3", w3)

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

    @cached_property
    def total(self) -> GroupElem:
        return self.w1 + self.w2 + self.w3

    @cached_property
    def star(self) -> GroupElem:
        return w_star(self.components)

    @cached_property
    def independent(self) -> bool:
        """Whether w1, w2, w3 are linearly independent over Z (never at
        rank <= 2)."""
        return independent_triple(self.w1.coords, self.w2.coords, self.w3.coords)

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
    items = (weights.components if trusted
             else tuple(map(as_group_elem, _entries(weights, "weights"))))
    if len(items) != nvars:
        raise DomainError(f"expected {nvars} weights, got {len(items)}")
    if not trusted:
        _require_elems(*items)
        _require_positive(*items)
    return items


# The least strong pseudoprime to every prime base up to 41 (Sorenson and
# Webster, Math. Comp. 2017): below it those bases decide primality.
_PSI13 = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases up to 41, exact for
    every n below 3317044064679887385961981 (about 3.3e24); inputs here are
    degree integers, far below that.  DomainError at or above that bound,
    and for anything but an int."""
    if type(n) is not int:
        raise DomainError(f"expected an integer, got {_show(n)}")
    if n >= _PSI13:
        raise DomainError(f"primality is decided only below {_PSI13}, got {_show(n)}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in _BASES:
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
