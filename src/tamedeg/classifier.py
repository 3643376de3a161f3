"""Exclusion criteria for multidegrees of tame automorphisms.

The decision surface is three-valued.  A triple of positive degrees is

  * Realizable when a verified tame witness with that exact multidegree is
    constructed,
  * Excluded when a chain of certified conditions rules it out as a tame
    multidegree (the chain is recorded in a Certificate), or
  * Unknown otherwise; no completeness is claimed.

Condition names follow the classical labels embedded in reports: K1..K5 and
A1..A3, B1..B2 for the weighted criteria, a1..a2, b1..b2, c for the
total-degree criteria, and 1..2 for the independent-weights criterion.

Deciding comes before explaining.  Whether a condition holds is decided at
once, in exact integer arithmetic; the text of its clauses is built only
when its clauses are first read.  That holds inside a certificate too: an
Excluded verdict or a wildness certificate builds no text until its
clauses, describe() or to_json() are read.  An Unknown verdict, which keeps
only the names of the failed conditions, builds none at all.  Rank-1
weights, which every Karas-type corollary and the search harness use, are
decided on plain ints rather than GroupElems; reports and certificates are
the same as at any rank.

The quantity Delta(d, e) (minimal wedge degree over tame maps with two
prescribed component degrees) is never computed exactly; every use is
replaced by a certified lower bound, which keeps Excluded verdicts sound
because Delta only ever appears on the large side of a strict inequality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Callable, Optional, Sequence, Union

from .automorphisms import (
    Endo,
    TameWord,
    _verify_realization,
    _verify_witness,
    _witness_word,
    permutation_word,
)
from .errors import DomainError, HypothesisViolation
from .ordgroup import (
    GroupElem,
    NEG_INF,
    Weight,
    _member1,
    _multiple1,
    _pair1,
    as_group_elem,
    dependent_pair,
    gcd_lcm,
    independent_triple,
    is_prime,
    multiple_of,
    rank_profile,
    semigroup_member,
    w_star,
)
from .poly import jacobian_det, wedge2_degree, degree_w


class Theorem(str, Enum):
    TOTAL_DEGREE = "TotalDegree"
    MAIN_WEIGHTED = "MainWeighted"
    INDEPENDENT_WEIGHTS = "IndependentWeights"
    F_SPECIFIC = "FSpecific"


@dataclass(frozen=True)
class Clause:
    left: str
    relation: str
    right: str
    holds: bool

    def describe(self) -> str:
        mark = "yes" if self.holds else "NO"
        right = f" {self.right}" if self.right else ""
        return f"{self.left} {self.relation}{right} [{mark}]"


_set = object.__setattr__


class Condition:
    """A named condition, whether it holds, and the clauses that show why.

    A condition made by _deferred holds a builder of its clauses instead:
    the first read of .clauses runs it and keeps the clauses in its place.
    A Condition is immutable, and equality, hash and repr are those of the
    value (name, holds, clauses), so they read the clauses."""

    __slots__ = ("name", "holds", "_clauses")

    def __init__(self, name: str, holds: bool, clauses: tuple[Clause, ...]):
        _set(self, "name", name)
        _set(self, "holds", holds)
        _set(self, "_clauses", clauses)

    @classmethod
    def _deferred(
        cls, name: str, holds: bool, build: Callable[[], tuple[Clause, ...]]
    ) -> "Condition":
        cond = cls.__new__(cls)  # skips __init__: runs for every certified condition
        _set(cond, "name", name)
        _set(cond, "holds", holds)
        _set(cond, "_clauses", build)
        return cond

    @property
    def clauses(self) -> tuple[Clause, ...]:
        clauses = self._clauses
        if callable(clauses):  # one slot, swapped once: safe under threads
            clauses = tuple(clauses())
            _set(self, "_clauses", clauses)
        return clauses

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.name, self.holds, self.clauses)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Condition(name={self.name!r}, holds={self.holds!r}, clauses={self.clauses!r})"

    def __reduce__(self):
        return (Condition, self._key())

    def describe(self) -> str:
        mark = "+" if self.holds else "x"
        return f"{self.name} {mark} ({'; '.join(c.describe() for c in self.clauses)})"


@dataclass(frozen=True)
class DeltaBoundUse:
    weight: tuple
    pair: tuple
    bound: GroupElem

    def describe(self) -> str:
        d, e = self.pair
        return f"Delta({_render_coords(d)},{_render_coords(e)})>={self.bound.render()}"


def _render_coords(coords: tuple) -> str:
    if len(coords) == 1:
        return str(coords[0])
    return "[" + ",".join(str(c) for c in coords) + "]"


@dataclass(frozen=True)
class Certificate:
    theorem: Theorem
    conditions: tuple[Condition, ...]
    delta_bounds_used: tuple[DeltaBoundUse, ...] = ()

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "conditions": [
                {
                    "name": c.name,
                    "holds": c.holds,
                    "clauses": [
                        {
                            "left": cl.left,
                            "relation": cl.relation,
                            "right": cl.right,
                            "holds": cl.holds,
                        }
                        for cl in c.clauses
                    ],
                }
                for c in self.conditions
            ],
            "delta_bounds_used": [
                {
                    "weight": [list(w) for w in u.weight],
                    "pair": [list(p) for p in u.pair],
                    "bound": list(u.bound.coords),
                }
                for u in self.delta_bounds_used
            ],
        }


@dataclass(frozen=True)
class Excluded:
    certificate: Certificate

    kind = "excluded"


@dataclass(frozen=True)
class Realizable:
    witness: TameWord
    multidegree: tuple[int, ...]

    kind = "realizable"

    @cached_property
    def endo(self) -> Endo:
        """The witness expanded on first read, its multidegree and Jacobian
        checked again from the expansion (ConstructionError on a mismatch)."""
        endo, _ = _verify_realization(self.witness, self.multidegree)
        return endo


@dataclass(frozen=True)
class Unknown:
    reasons: tuple[str, ...]

    kind = "unknown"


ClassificationResult = Union[Excluded, Realizable, Unknown]


def make_realizable(word: TameWord, expected: Sequence[int]) -> Realizable:
    """Verdict constructor and the single verification point of a witness:
    proves that the word realizes the exact total-degree multidegree of the
    query with a nonzero constant Jacobian, raising ConstructionError
    otherwise.  The proof is the degree calculus of certified_mdeg plus the
    product of the step scales, or full expansion where the calculus falls
    back; the verdict's endo expands the word and checks it again when it
    is first read."""
    _verify_witness(word, expected)
    return Realizable(word, tuple(expected))


class DeltaBoundRegistry:
    """Certified lower bounds for Delta(d, e), keyed by weight and unordered
    degree pair.  Entries only ever assert 'Delta >= bound'; the built-in
    registry carries the single classical entry Delta(4, 6) >= 4 for unit
    weights on Z."""

    def __init__(self, entries: Optional[dict] = None):
        self._entries: dict = dict(entries or {})

    @staticmethod
    def _weight_key(w: Weight) -> tuple:
        return tuple(sorted(c.coords for c in w.components))

    @staticmethod
    def _pair_key(d: GroupElem, e: GroupElem) -> tuple:
        return tuple(sorted((d.coords, e.coords)))

    @classmethod
    def empty(cls) -> "DeltaBoundRegistry":
        return cls()

    def with_entry(
        self, w: Weight, d: GroupElem, e: GroupElem, bound: GroupElem
    ) -> "DeltaBoundRegistry":
        if not bound.is_positive:
            raise DomainError("registry bounds must be positive")
        entries = dict(self._entries)
        entries[(self._weight_key(w), self._pair_key(d, e))] = bound
        return DeltaBoundRegistry(entries)

    def lookup(self, w: Weight, d: GroupElem, e: GroupElem) -> Optional[GroupElem]:
        return self._entries.get((self._weight_key(w), self._pair_key(d, e)))

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other):
        return (
            isinstance(other, DeltaBoundRegistry) and self._entries == other._entries
        )

    def entries(self) -> list[tuple[tuple, tuple, GroupElem]]:
        return sorted(
            (wk, pk, bound) for (wk, pk), bound in self._entries.items()
        )

    def fingerprint(self) -> str:
        payload = json.dumps(
            [[list(map(list, wk)), list(map(list, pk)), list(b.coords)]
             for wk, pk, b in self.entries()],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_lines(self) -> list[str]:
        out = []
        for wk, pk, bound in self.entries():
            ws = ",".join(_render_coords(c) for c in wk)
            ps = ",".join(_render_coords(c) for c in pk)
            out.append(f"{ws} ; {ps} ; {_render_coords(bound.coords)}")
        return out

    @classmethod
    def from_lines(cls, lines) -> "DeltaBoundRegistry":
        from .parse import parse_vector_list

        reg = cls()
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(";")]
            if len(parts) != 3:
                raise DomainError(
                    f"registry line {lineno}: expected 'W1,W2,W3 ; D,E ; BOUND'"
                )
            ws = parse_vector_list(parts[0])
            ds = parse_vector_list(parts[1])
            bs = parse_vector_list(parts[2])
            if len(ws) != 3 or len(ds) != 2 or len(bs) != 1:
                raise DomainError(
                    f"registry line {lineno}: need 3 weights, 2 degrees, 1 bound"
                )
            reg = reg.with_entry(Weight.of(*ws), ds[0], ds[1], bs[0])
        return reg


_BUILTIN_REGISTRY = DeltaBoundRegistry().with_entry(
    Weight.of(1, 1, 1), as_group_elem(4), as_group_elem(6), as_group_elem(4)
)


def builtin_registry() -> DeltaBoundRegistry:
    """The registry with the single classical entry; one shared instance,
    since registries are immutable (with_entry returns a copy)."""
    return _BUILTIN_REGISTRY


@dataclass
class _DeltaTracker:
    """Collects which registry entries actually produced a selected bound."""

    uses: list = field(default_factory=list)

    def record(self, w: Weight, d: GroupElem, e: GroupElem, bound: GroupElem) -> None:
        entry = DeltaBoundUse(
            weight=tuple(c.coords for c in w.components),
            pair=tuple(sorted((d.coords, e.coords))),
            bound=bound,
        )
        if entry not in self.uses:
            self.uses.append(entry)


def delta_lower_bound(
    d: GroupElem,
    e: GroupElem,
    w: Weight,
    registry: Optional[DeltaBoundRegistry] = None,
    _tracker: Optional[_DeltaTracker] = None,
) -> GroupElem:
    """Largest certified lower bound for Delta(d, e) under the weight w.

    Candidates: the star invariant of w when neither degree is a multiple
    of the other and at least one lies outside the weight set; any registry
    entry for (w, {d, e}); and the unconditional floor min_{i<j}(w_i + w_j)
    coming from the x_i*x_j factor every wedge term carries.
    """
    if registry is None:
        registry = builtin_registry()
    if not (d.is_positive and e.is_positive):
        raise DomainError("degrees must be positive")
    ws = w.components
    best = min(ws[0] + ws[1], ws[0] + ws[2], ws[1] + ws[2])
    if multiple_of(d, e) is None and multiple_of(e, d) is None:
        if d not in ws or e not in ws:
            star = w_star(ws)
            if star > best:
                best = star
    reg = registry.lookup(w, d, e)
    if reg is not None and reg > best:
        best = reg
        if _tracker is not None:
            _tracker.record(w, d, e, reg)
    return best


def _odd_multiplier(s: Optional[int]) -> Optional[int]:
    """The odd s >= 3 with s*d1 == 2*d3, given s = multiple_of(2*d3, d1):
    s itself when it is odd and at least 3, else None."""
    return s if s is not None and s % 2 == 1 and s >= 3 else None


def _fmt(v) -> str:
    if isinstance(v, GroupElem):
        return v.render()
    return str(v)


def _cmp_clause(label_l: str, val_l, rel: str, label_r: str, val_r, holds: bool) -> Clause:
    return Clause(
        left=f"{label_l} = {_fmt(val_l)}",
        relation=rel,
        right=f"{label_r} = {_fmt(val_r)}" if label_r else _fmt(val_r),
        holds=holds,
    )


def _ratio_clause(d2, d3, relation: str, holds: bool) -> Clause:
    """The 3*d2 versus 2*d3 test of a1, K3, A1 and A2."""
    return _cmp_clause("3*d2", 3 * d2, relation, "2*d3", 2 * d3, holds)


def _odd_clause(s: Optional[int], holds: bool) -> Clause:
    """The odd s >= 3 with s*d1 = 2*d3 test of a1, K4, A1 and A3."""
    return Clause(
        left="odd s >= 3 with s*d1 = 2*d3",
        relation="exists" if s is not None else "none",
        right=f"s = {s}" if s is not None else "",
        holds=holds,
    )


def _member_clause(d3, member: Optional[tuple[int, int]]) -> Clause:
    """d3 outside the semigroup <d1,d2>, as in c and K2."""
    return Clause(
        left=f"d3 = {_fmt(d3)}",
        relation="not in",
        right="<d1,d2>" + (f" (d3 = {member[0]}*d1 + {member[1]}*d2)" if member else ""),
        holds=member is None,
    )


class ConditionReport:
    """Ordered set of named condition evaluations that decides first and
    explains on demand.

    put() stores whether a condition holds at once, together with a
    zero-argument builder of its clauses.  __getitem__ and conditions()
    return memoized Conditions that carry the builder; it runs when the
    condition's clauses are first read, which may be long after the report
    is gone, inside a certificate.  holds(), failed_names(), ``in`` and
    reading a Condition's name or holds never build clause text, so a
    verdict pays for formatting only when it is explained.
    """

    def __init__(self):
        self._holds: dict[str, bool] = {}
        self._builders: dict[str, Callable[[], tuple[Clause, ...]]] = {}
        self._built: dict[str, Condition] = {}

    def put(self, name: str, holds: bool, build: Callable[[], tuple[Clause, ...]]) -> None:
        self._holds[name] = holds
        self._builders[name] = build

    def __getitem__(self, name: str) -> Condition:
        cond = self._built.get(name)
        if cond is None:
            cond = self._built[name] = Condition._deferred(
                name, self._holds[name], self._builders[name]
            )
        return cond

    def __contains__(self, name: str) -> bool:
        return name in self._holds

    def holds(self, name: str) -> bool:
        return self._holds[name]

    def conditions(self) -> tuple[Condition, ...]:
        return tuple(self[name] for name in self._holds)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(n for n, h in self._holds.items() if not h)


def check_total_abc(d1: int, d2: int, d3: int) -> ConditionReport:
    """Evaluate the total-degree exclusion conditions a1, a2, b1, b2, c for a
    sorted positive triple, with the witnessing quantities recorded (the
    clauses are built when read, see ConditionReport)."""
    if not (0 < d1 <= d2 <= d3):
        raise DomainError("degrees must satisfy 0 < d1 <= d2 <= d3")
    if not all(isinstance(d, int) for d in (d1, d2, d3)):
        raise DomainError("degrees must be integers")
    rep = ConditionReport()
    s = _odd_multiplier(_multiple1(2 * d3, d1))
    ratio_ok = 3 * d2 != 2 * d3
    rep.put(
        "a1",
        ratio_ok and s is None,
        lambda: (_ratio_clause(d2, d3, "!=", ratio_ok), _odd_clause(s, s is None)),
    )
    a2 = d1 + d2 <= d3 + 2
    rep.put("a2", a2, lambda: (_cmp_clause("d1+d2", d1 + d2, "<=", "d3+2", d3 + 2, a2),))
    g = gcd(d1, d2)
    g_small, g_divides = g <= 3, d3 % g == 0
    rep.put(
        "b1",
        g_small and g_divides,
        lambda: (
            _cmp_clause("gcd(d1,d2)", g, "<=", "", 3, g_small),
            Clause(f"gcd(d1,d2) = {g}", "divides", f"d3 = {d3}", g_divides),
        ),
    )
    l = lcm(d1, d2)
    b2 = d1 + d2 + d3 <= l + 2
    rep.put(
        "b2",
        b2,
        lambda: (
            _cmp_clause("d1+d2+d3", d1 + d2 + d3, "<=", "lcm(d1,d2)+2", l + 2, b2),
        ),
    )
    divides = d2 % d1 == 0
    member = _member1(d3, d1, d2)
    rep.put(
        "c",
        not divides and member is None,
        lambda: (
            Clause(
                left=f"d1 = {d1}",
                relation="does not divide",
                right=f"d2 = {d2}" + (f" (d2 = {d2 // d1}*d1)" if divides else ""),
                holds=not divides,
            ),
            _member_clause(d3, member),
        ),
    )
    return rep


def _abc_combined(rep: ConditionReport) -> tuple[bool, bool, bool]:
    a = rep.holds("a1") or rep.holds("a2")
    b = rep.holds("b1") or rep.holds("b2")
    return a, b, rep.holds("c")


@lru_cache(maxsize=256)
def _weight_totals(w: Weight) -> tuple:
    """|w| and |w|* of a weight, memoized per weight; ints at rank 1."""
    wtotal, star = w.total, w_star(w.components)
    if w.rank == 1:
        return wtotal.coords[0], star.coords[0]
    return wtotal, star


def check_weighted_conditions(
    d1: GroupElem,
    d2: GroupElem,
    d3: GroupElem,
    w: Weight,
    registry: Optional[DeltaBoundRegistry] = None,
    _tracker: Optional[_DeltaTracker] = None,
) -> ConditionReport:
    """Evaluate K1..K5, A1..A3, B1..B2 for strictly ascending positive
    degrees.  Every Delta occurrence is replaced by delta_lower_bound, so a
    reported 'holds' is sound and a failed report only means 'not
    certified'.  Each condition is decided here; its clauses, and the
    quantities only they show, are built when it is read (see
    ConditionReport).  At rank 1 the degrees (which may be given as ints),
    |w| and |w|* are ints, decided by the int kernels of ordgroup."""
    if registry is None:
        registry = builtin_registry()
    wtotal, star = _weight_totals(w)
    rank1 = w.rank == 1
    if rank1:
        d1, d2, d3 = (
            d if type(d) is int else as_group_elem(d, 1).coords[0] for d in (d1, d2, d3)
        )
        pair_of, multiple, member_of = _pair1, _multiple1, _member1
    else:
        pair_of, multiple, member_of = dependent_pair, multiple_of, semigroup_member
    if not (d1 < d2 < d3):
        raise DomainError("degrees must be strictly ascending")
    if not (d1 > 0 if rank1 else d1.is_positive):
        raise DomainError("degrees must be positive")
    if _tracker is None:
        _tracker = _DeltaTracker()

    def delta(d, e):
        if rank1:  # the registry, the tracker and DeltaBoundUse keep GroupElems
            d, e = GroupElem._trusted((d,)), GroupElem._trusted((e,))
            return delta_lower_bound(d, e, w, registry, _tracker).coords[0]
        return delta_lower_bound(d, e, w, registry, _tracker)

    rep = ConditionReport()
    total = d1 + d2 + d3
    pair = pair_of(d1, d2)

    k1 = total > wtotal
    rep.put(
        "K1",
        k1,
        lambda: (
            _cmp_clause("d1", d1, "<", "d2", d2, True),
            _cmp_clause("d2", d2, "<", "d3", d3, True),
            _cmp_clause("d1+d2+d3", total, ">", "|w|", wtotal, k1),
        ),
    )

    # d2 is an integer multiple of d1 exactly when d2 = u2*d1, that is u1 = 1.
    m12 = pair[1] if pair is not None and pair[0] == 1 else None
    member = member_of(d3, d1, d2)
    rep.put(
        "K2",
        m12 is None and member is None,
        lambda: (
            Clause(
                left=f"d2 = {_fmt(d2)}",
                relation="not in",
                right="N*d1" + (f" (d2 = {m12}*d1)" if m12 is not None else ""),
                holds=m12 is None,
            ),
            _member_clause(d3, member),
        ),
    )

    def put_guarded(k_name, a_name, k_guard, a_guard, pair_label, bound):
        """K3/A2 and K4/A3 share one shape.  bound is the certified Delta
        bound for the pair when the guard (3*d2 = 2*d3, or an odd s >= 3
        with s*d1 = 2*d3) is met, None when it is not; k_guard and a_guard
        build the guard clause of K and of A.  An unmet guard makes K hold
        and A fail on the guard clause alone; a met guard makes each hold
        when d1+d2 < d3 + bound, where A raises the bound to |w|*."""
        if bound is None:
            rep.put(k_name, True, lambda: (k_guard(),))
            rep.put(a_name, False, lambda: (a_guard(),))
            return
        gap = d1 + d2 - d3
        a_bound = max(bound, star)
        k_holds, a_holds = gap < bound, gap < a_bound
        delta = f"Delta_lb({pair_label})"
        rep.put(k_name, k_holds, lambda: (
            k_guard(),
            _cmp_clause("d1+d2", d1 + d2, "<", f"d3+{delta}", d3 + bound, k_holds),
        ))
        rep.put(a_name, a_holds, lambda: (
            a_guard(),
            _cmp_clause(
                "d1+d2", d1 + d2, "<", f"d3+max({delta},|w|*)", d3 + a_bound, a_holds
            ),
        ))

    ratio32 = 3 * d2 == 2 * d3

    def k3_guard():
        return _ratio_clause(d2, d3, "!=", not ratio32)

    put_guarded(
        "K3",
        "A2",
        k3_guard,
        lambda: _ratio_clause(d2, d3, "!=" if ratio32 else "=", False),
        "d2,d3",
        delta(d2, d3) if ratio32 else None,
    )
    s = _odd_multiplier(multiple(2 * d3, d1))

    def k4_guard():
        return _odd_clause(s, s is None)

    put_guarded(
        "K4",
        "A3",
        k4_guard,
        lambda: _odd_clause(s, s is not None),
        "d1,d3",
        delta(d1, d3) if s is not None else None,
    )
    # No builder refers to rep: a report is then freed by reference
    # counting alone, without leaving garbage cycles for the collector.
    rep.put("A1", not ratio32 and s is None, lambda: (k3_guard(), k4_guard()))

    if 4 * d1 == 3 * d2:
        g = pair[2]
        bound43 = delta(2 * d1, d2)
        k5 = d3 < 5 * g + bound43
        rep.put(
            "K5",
            k5,
            lambda: (
                _cmp_clause("4*d1", 4 * d1, "!=", "3*d2", 3 * d2, False),
                _cmp_clause(
                    "d3", d3, "<", "5*gcd(d1,d2)+Delta_lb(2*d1,d2)", 5 * g + bound43, k5
                ),
            ),
        )
    else:
        rep.put("K5", True, lambda: (_cmp_clause("4*d1", 4 * d1, "!=", "3*d2", 3 * d2, True),))

    if pair is None:
        def indep():
            return (Clause("d1, d2", "linearly independent over Z ((B) holds)", "", True),)

        rep.put("B1", True, indep)
        rep.put("B2", True, indep)
    else:
        u1, u2, g = pair
        l = (u1 * u2) * g
        m3 = multiple(d3, g)
        g_small = g <= star
        rep.put(
            "B1",
            g_small and m3 is not None,
            lambda: (
                _cmp_clause("gcd(d1,d2)", g, "<=", "|w|*", star, g_small),
                Clause(
                    left=f"d3 = {_fmt(d3)}",
                    relation="in" if m3 is not None else "not in",
                    right="N*gcd(d1,d2)" + (f" (d3 = {m3}*gcd)" if m3 is not None else ""),
                    holds=m3 is not None,
                ),
            ),
        )
        b2 = total < l + star
        rep.put(
            "B2",
            b2,
            lambda: (
                _cmp_clause("d1+d2+d3", total, "<", "lcm(d1,d2)+|w|*", l + star, b2),
            ),
        )
    return rep


def _weighted_fires(rep: ConditionReport) -> bool:
    a = rep.holds("A1") or rep.holds("A2") or rep.holds("A3")
    b = rep.holds("B1") or rep.holds("B2")
    return rep.holds("K1") and rep.holds("K2") and a and b


def _independent_weights_report(
    d1: GroupElem, d2: GroupElem, d3: GroupElem
) -> ConditionReport:
    rep = ConditionReport()
    profile = rank_profile(d1, d2, d3)
    rep.put(
        "1",
        profile.pairwise_independent and profile.triple_dependent,
        lambda: (
            Clause("d1, d2", "linearly independent", "", not profile.pair_12_dependent),
            Clause("d1, d3", "linearly independent", "", not profile.pair_13_dependent),
            Clause("d2, d3", "linearly independent", "", not profile.pair_23_dependent),
            Clause("d1, d2, d3", "linearly dependent", "", profile.triple_dependent),
        ),
    )
    members = [
        (name, d, semigroup_member(d, e1, e2))
        for name, d, e1, e2 in (
            ("d1", d1, d2, d3),
            ("d2", d2, d3, d1),
            ("d3", d3, d1, d2),
        )
    ]
    rep.put(
        "2",
        all(m is None for _, _, m in members),
        lambda: tuple(
            Clause(
                left=f"{name} = {_fmt(d)}",
                relation="not in",
                right="<other two>" + (f" ({m[0]}, {m[1]})" if m else ""),
                holds=m is None,
            )
            for name, d, m in members
        ),
    )
    return rep


def classify_weighted(
    degrees: Sequence,
    weight,
    registry: Optional[DeltaBoundRegistry] = None,
) -> ClassificationResult:
    """Three-valued verdict for a weighted degree triple.

    Excluded fires through the independent-weights criterion (weights
    Z-independent, degrees pairwise independent but jointly dependent and
    mutually outside each other's two-generator semigroups) or through the
    certified chain K1, K2, A, B.  Weighted verdicts are never Realizable:
    constructive witnesses exist only for total degree; the search harness
    reports weighted realizations separately.
    """
    if registry is None:
        registry = builtin_registry()
    ds = [as_group_elem(d) for d in degrees]
    if len(ds) != 3:
        raise DomainError("expected a degree triple")
    w = weight if isinstance(weight, Weight) else Weight.of(*weight)
    rank = w.rank
    if any(d.rank != rank for d in ds):
        raise DomainError("degrees and weights must share one rank")
    if rank == 1:
        ds = [d.coords[0] for d in ds]
        if min(ds) < 1:
            raise DomainError("degrees must be positive")
    elif not all(d.is_positive for d in ds):
        raise DomainError("degrees must be positive")
    reasons: list[str] = []
    if rank > 2 and independent_triple(*(c.coords for c in w.components)):
        rep = _independent_weights_report(*ds)
        if rep.holds("1") and rep.holds("2"):
            return Excluded(
                Certificate(Theorem.INDEPENDENT_WEIGHTS, rep.conditions())
            )
        reasons.extend(rep.failed_names())
    d1, d2, d3 = sorted(ds)
    if d1 < d2 < d3:
        tracker = _DeltaTracker()
        rep = check_weighted_conditions(d1, d2, d3, w, registry, tracker)
        if _weighted_fires(rep):
            return Excluded(
                Certificate(
                    Theorem.MAIN_WEIGHTED, rep.conditions(), tuple(tracker.uses)
                )
            )
        reasons.extend(
            n for n in rep.failed_names() if n not in reasons
        )
    else:
        reasons.append("K1")
    return Unknown(tuple(reasons))


def _matching_permutation(asked: tuple[int, int, int]) -> tuple[int, ...]:
    """Indices into the sorted triple so that position i carries asked[i];
    equal degrees are consumed left to right."""
    ordered = sorted(asked)
    taken = [False, False, False]
    perm = []
    for value in asked:
        for j, v in enumerate(ordered):
            if v == value and not taken[j]:
                taken[j] = True
                perm.append(j)
                break
    return tuple(perm)


def classify_total(
    d1: int,
    d2: int,
    d3: int,
    registry: Optional[DeltaBoundRegistry] = None,
) -> ClassificationResult:
    """Three-valued verdict for a total-degree triple (any input order; the
    verdict concerns the sorted triple, and multidegree sets are closed
    under permutation).

    Order of attack: construct a verified witness; else certify exclusion
    through a1/a2, b1/b2, c; else run the weighted criteria at unit weights
    with the registry, which settles cases such as (4, 5, 6); else Unknown.
    """
    if registry is None:
        registry = builtin_registry()
    if min(d1, d2, d3) < 1:
        raise DomainError("degrees must be positive")
    asked = (d1, d2, d3)
    t1, t2, t3 = sorted(asked)
    word = _witness_word(t1, t2, t3)
    if word is not None:
        if asked != (t1, t2, t3):
            word = word + permutation_word(_matching_permutation(asked), 3)
        return make_realizable(word, asked)
    rep = check_total_abc(t1, t2, t3)
    a, b, c = _abc_combined(rep)
    if a and b and c:
        return Excluded(Certificate(Theorem.TOTAL_DEGREE, rep.conditions()))
    weighted = classify_weighted((t1, t2, t3), Weight.of(1, 1, 1), registry)
    if isinstance(weighted, Excluded):
        return weighted
    reasons = list(rep.failed_names())
    for name in weighted.reasons:
        if name not in reasons:
            reasons.append(name)
    return Unknown(tuple(reasons))


def certify_wild(
    endo: Endo,
    weight,
    registry: Optional[DeltaBoundRegistry] = None,
    assume_automorphism: bool = False,
) -> Union[Certificate, Unknown]:
    """Wildness certificate for a specific automorphism, or Unknown.

    The caller is responsible for the input being a genuine automorphism; a
    constant nonzero Jacobian is checked as a necessary screen unless
    assume_automorphism is set (the search harness sets it for maps it
    realized from tame words itself).  The certificate chain is K1..K4,
    then, for a Z-dependent pair of smallest degrees, K5 together with the
    strict inequality

        d1 + d2 + d3 < lcm(d1, d2) + deg_w df1 ^ df2

    evaluated with the exact engine-computed wedge degree of the two
    components of smallest degree; for an independent pair K1..K4 alone
    certify the triple impossible.
    """
    if registry is None:
        registry = builtin_registry()
    if endo.nvars != 3:
        raise DomainError("wildness certification works in three variables")
    w = weight if isinstance(weight, Weight) else Weight.of(*weight)
    if not assume_automorphism:
        jac = jacobian_det(endo.components)
        if jac.is_zero or not jac.is_constant:
            raise DomainError("rejected input: Jacobian is not a nonzero constant")
    scored = []
    for comp in endo.components:
        deg = degree_w(comp, w)
        if deg is NEG_INF:
            return Unknown(("K1",))
        scored.append((deg, comp))
    scored.sort(key=lambda t: t[0].coords)
    (d1, f1), (d2, f2), (d3, _) = scored
    if not (d1 < d2 < d3):
        return Unknown(("K1",))
    tracker = _DeltaTracker()
    rep = check_weighted_conditions(d1, d2, d3, w, registry, tracker)
    k_names = ("K1", "K2", "K3", "K4")
    if not all(rep.holds(n) for n in k_names):
        return Unknown(tuple(n for n in k_names if not rep.holds(n)))
    conditions = [rep[n] for n in k_names]
    if dependent_pair(d1, d2) is not None:
        if not rep.holds("K5"):
            return Unknown(("K5",))
        conditions.append(rep["K5"])
        _, l = gcd_lcm(d1, d2)
        wedge = wedge2_degree(f1, f2, w)
        total = d1 + d2 + d3
        ok = wedge is not NEG_INF and total < l + wedge
        if not ok:
            return Unknown(("prop:main",))
        conditions.append(Condition._deferred("prop:main", True, lambda: (
            Clause(
                left=f"d1+d2+d3 = {_fmt(total)}",
                relation="<",
                right=f"lcm(d1,d2)+deg_w(df1^df2) = {_fmt(l + wedge)}",
                holds=True,
            ),
        )))
    else:
        conditions.append(Condition._deferred("1", True, lambda: (
            Clause("d1, d2", "linearly independent over Z", "", True),
        )))
    return Certificate(Theorem.F_SPECIFIC, tuple(conditions), tuple(tracker.uses))


def _hyp(cond: bool, name: str):
    if not cond:
        raise HypothesisViolation(name)


def _corollary_karas_zygadlo(args):
    d1, d2, d3 = args
    _hyp(3 <= d1 <= d2 <= d3, "3 <= d1 <= d2 <= d3")
    _hyp(d1 % 2 == 1 and d2 % 2 == 1, "d1 and d2 odd")
    _hyp(gcd(d1, d2) == 1, "gcd(d1,d2) = 1")
    return (d1, d2, d3), None


def _corollary_karas_three(args):
    d2, d3 = args
    _hyp(3 <= d2 <= d3, "3 <= d2 <= d3")
    return (3, d2, d3), None


def _corollary_sun_chen(args):
    d1, d2, d3 = args
    _hyp(3 <= d1 <= d2 <= d3, "3 <= d1 <= d2 <= d3")
    _hyp(is_prime(d1), "d1 prime")
    g = gcd(d2, d3)
    _hyp(
        d2 // g != 2 or d3 // g != 3 or d2 >= 2 * d1 - 5,
        "d2/gcd(d2,d3) != 2 or d3/gcd(d2,d3) != 3 or d2 >= 2*d1-5",
    )
    return (d1, d2, d3), None


def _corollary_karas_four(args):
    d2, d3 = args
    _hyp(5 <= d2 <= d3, "5 <= d2 <= d3")
    _hyp(d2 % 2 == 1, "d2 odd")
    if d3 % 2 == 0:
        _hyp(d3 - d2 != 1, "d3 - d2 != 1 when d3 even")
    return (4, d2, d3), None


def _corollary_li_du_mid_prime(args):
    d1, d2, d3 = args
    _hyp(3 <= d1 <= d2 <= d3, "3 <= d1 <= d2 <= d3")
    _hyp(is_prime(d2), "d2 prime")
    _hyp(d1 // gcd(d1, d3) != 2, "d1/gcd(d1,d3) != 2")
    return (d1, d2, d3), None


def _corollary_li_du_top_prime(args):
    d1, d2, d3 = args
    _hyp(3 <= d1 <= d2 <= d3, "3 <= d1 <= d2 <= d3")
    _hyp(gcd(d1, d2) == 1, "gcd(d1,d2) = 1")
    _hyp(is_prime(d3), "d3 prime")
    return (d1, d2, d3), None


def _corollary_progression(args):
    a, d = args
    _hyp(a >= 3, "a >= 3")
    _hyp(d >= 1, "d >= 1")
    _hyp(
        not ((4 * d) % a == 0 and (4 * d // a) % 2 == 1),
        "4d != t*a for any odd t >= 1",
    )
    return (a, a + d, a + 2 * d), None


def _corollary_progression_ext(args):
    l, t = args
    _hyp(l >= 1, "l >= 1")
    _hyp(t >= 1 and t % 2 == 1, "t odd >= 1")
    _hyp((t - 4) * l + 2 >= 0, "(t-4)*l + 2 >= 0")
    a, d = 4 * l, t * l
    _hyp(a >= 3, "a >= 3")
    return (a, a + d, a + 2 * d), None


def _corollary_two_three(args):
    (d,) = args
    _hyp(d >= 5 and d not in (6, 8), "d >= 5 and d not in {6, 8}")
    return (d, 2 * (d - 2), 3 * (d - 2)), None


def _corollary_kanehira(args):
    d1, d2, d3, w1, w2, w3 = args
    _hyp(3 <= d1 < d2 <= d3, "3 <= d1 < d2 <= d3")
    _hyp(d1 % 2 == 1 and d2 % 2 == 1, "d1 and d2 odd")
    _hyp(gcd(d1, d2) == 1, "gcd(d1,d2) = 1")
    _hyp(min(w1, w2, w3) >= 1, "positive weights")
    _hyp(d1 + d2 + d3 > w1 + w2 + w3, "deg_w F > |w|")
    return (d1, d2, d3), Weight.of(w1, w2, w3)


_COROLLARIES: dict[str, tuple[int, Callable]] = {
    "karas-zygadlo": (3, _corollary_karas_zygadlo),
    "karas-three": (2, _corollary_karas_three),
    "sun-chen": (3, _corollary_sun_chen),
    "karas-four": (2, _corollary_karas_four),
    "li-du-mid-prime": (3, _corollary_li_du_mid_prime),
    "li-du-top-prime": (3, _corollary_li_du_top_prime),
    "progression": (2, _corollary_progression),
    "progression-ext": (2, _corollary_progression_ext),
    "two-three": (1, _corollary_two_three),
    "kanehira": (6, _corollary_kanehira),
}


def corollary_names() -> tuple[str, ...]:
    return tuple(_COROLLARIES)


def corollary_inputs(name: str, args: Sequence[int]) -> tuple[tuple[int, ...], Optional[Weight]]:
    """Validate the named corollary's hypotheses and return the degree triple
    (and weight, for the weighted corollary) it classifies."""
    if name not in _COROLLARIES:
        raise DomainError(
            f"unknown corollary {name!r}; known: {', '.join(sorted(_COROLLARIES))}"
        )
    arity, builder = _COROLLARIES[name]
    args = [int(a) for a in args]
    if len(args) != arity:
        raise DomainError(f"corollary {name} takes {arity} integers")
    return builder(args)


def corollary_suite(
    name: str,
    args: Sequence[int],
    registry: Optional[DeltaBoundRegistry] = None,
) -> ClassificationResult:
    """Verdict for a named corollary instance, always computed through
    classify_total / classify_weighted, never a separate code path."""
    if registry is None:
        registry = builtin_registry()
    triple, weight = corollary_inputs(name, args)
    if weight is not None:
        return classify_weighted(triple, weight, registry)
    return classify_total(*triple, registry=registry)
