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
when its clauses are first read.  Every certificate, Excluded or wild,
follows one rule: its theorem, its registry bounds and the decisions exist
as soon as the verdict does; its conditions are built on the first read
of .conditions (by to_json(), equality, hash, repr or pickling too); the
clause text is built on the first read of .clauses (by describe() or
to_json() too).  So a caller that reads only the verdict kind, such as
the table command, makes none.  An Unknown verdict, which keeps only the
names of the failed conditions, builds none at all.  Rank-1 weights, which
every Karas-type corollary and the search harness use, are decided on
plain ints rather than GroupElems; reports and certificates are the same
as at any rank.

The quantity Delta(d, e) (minimal wedge degree over tame maps with two
prescribed component degrees) is never computed exactly; every use is
replaced by a certified lower bound, which keeps Excluded verdicts sound
because Delta only ever appears on the large side of a strict inequality.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from typing import Callable, Optional, Sequence, Union

from .automorphisms import (
    Endo,
    TameWord,
    _verify_witness,
    _witness_word,
)
from .errors import DomainError, HypothesisViolation, _entries, _show
from .ordgroup import (
    GroupElem,
    Weight,
    _member,
    _member1,
    _multiple,
    _multiple1,
    _pair,
    _pair1,
    _render_coords,
    _require_elems,
    _set,
    _swapped,
    _Value,
    as_group_elem,
    as_weight,
    independent_triple,
    is_prime,
)
from .poly import _degree_w, _wedge_degree


class Theorem(str, Enum):
    TOTAL_DEGREE = "TotalDegree"
    MAIN_WEIGHTED = "MainWeighted"
    INDEPENDENT_WEIGHTS = "IndependentWeights"
    F_SPECIFIC = "FSpecific"


class Clause(_Value):
    _fields = ("left", "relation", "right", "holds")

    def __init__(self, left: str, relation: str, right: str, holds: bool):
        _set(self, "left", left)
        _set(self, "relation", relation)
        _set(self, "right", right)
        _set(self, "holds", holds)

    def describe(self) -> str:
        mark = "yes" if self.holds else "NO"
        right = f" {self.right}" if self.right else ""
        return f"{self.left} {self.relation}{right} [{mark}]"


class Condition(_Value):
    """A named condition, whether it holds, and the clauses that show why.

    The clauses are given as a sequence, stored as a tuple, or as a
    zero-argument builder of them: the first read of .clauses runs it and
    keeps the tuple in its place.  A Condition is immutable, and equality,
    hash and repr are those of the value (name, holds, clauses), so they
    read the clauses."""

    __slots__ = ("name", "holds", "_clauses")
    _fields = ("name", "holds", "clauses")

    def __init__(self, name: str, holds: bool,
                 clauses: Union[Sequence[Clause], Callable[[], Sequence[Clause]]]):
        _set_name(self, name)
        _set_holds(self, holds)
        _set_clauses(self, clauses if callable(clauses) else tuple(clauses))

    @property
    def clauses(self) -> tuple[Clause, ...]:
        clauses = self._clauses
        if callable(clauses):  # one slot, swapped once: safe under threads
            clauses = tuple(clauses())
            _set_clauses(self, clauses)
        return clauses

    def describe(self) -> str:
        mark = "+" if self.holds else "x"
        return f"{self.name} {mark} ({'; '.join(c.describe() for c in self.clauses)})"


# The setters of Condition's own slots, past its frozen __setattr__: a
# third of the cost of object.__setattr__, which looks each slot up again.
_set_name, _set_holds, _set_clauses = (
    Condition.__dict__[slot].__set__ for slot in Condition.__slots__
)


class DeltaBoundUse(_Value):
    _fields = ("weight", "pair", "bound")

    def __init__(self, weight: tuple, pair: tuple, bound: GroupElem):
        _set(self, "weight", weight)
        _set(self, "pair", pair)
        _set(self, "bound", bound)

    def describe(self) -> str:
        d, e = self.pair
        return f"Delta({_render_coords(d)},{_render_coords(e)})>={self.bound.render()}"


class Certificate(_Value):
    """The theorem that excludes a triple (or certifies a map wild), the
    chain of conditions it rests on, and the registry bounds it used.

    The conditions are given as a sequence, stored as a tuple, or as a
    zero-argument builder of them, as Condition takes its clauses: the
    first read of .conditions runs it and keeps the tuple in its place.
    Equality, hash, repr, pickling and to_json() read .conditions, so they
    see the built tuple."""

    __slots__ = ("theorem", "_conditions", "delta_bounds_used")
    _fields = ("theorem", "conditions", "delta_bounds_used")

    def __init__(self, theorem: Theorem,
                 conditions: Union[Sequence[Condition], Callable[[], Sequence[Condition]]],
                 delta_bounds_used: Sequence[DeltaBoundUse] = ()):
        _set_theorem(self, theorem)
        _set_conditions(self, conditions if callable(conditions) else tuple(conditions))
        _set_bounds(self, tuple(delta_bounds_used))

    @property
    def conditions(self) -> tuple[Condition, ...]:
        conditions = self._conditions
        if callable(conditions):  # one slot, swapped once: safe under threads
            conditions = tuple(conditions())
            _set_conditions(self, conditions)
        return conditions

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


_set_theorem, _set_conditions, _set_bounds = (
    Certificate.__dict__[slot].__set__ for slot in Certificate.__slots__
)


class Excluded(_Value):
    _fields = ("certificate",)
    kind = "excluded"

    def __init__(self, certificate: Certificate):
        _set(self, "certificate", certificate)


class Realizable(_Value):
    _fields = ("witness", "multidegree")
    kind = "realizable"

    def __init__(self, witness: TameWord, multidegree: tuple[int, ...]):
        _set(self, "witness", witness)
        _set(self, "multidegree", multidegree)


class Unknown(_Value):
    _fields = ("reasons",)
    kind = "unknown"

    def __init__(self, reasons: tuple[str, ...]):
        _set(self, "reasons", reasons)


ClassificationResult = Union[Excluded, Realizable, Unknown]


def make_realizable(
    word: TameWord, expected: Sequence[int], _perm: Optional[Sequence[int]] = None
) -> Realizable:
    """Verdict constructor and the single verification point of a witness:
    proves that the word realizes the exact total-degree multidegree of the
    query with a nonzero constant Jacobian, raising ConstructionError
    otherwise.  The proof is the degree calculus of certified_mdeg plus the
    product of the step scales, or full expansion where the calculus falls
    back.

    classify_total passes an unsorted query's sorted template as word and
    its permutation as _perm: the witness is then word followed by
    permutation_word(_perm), the template is proved by the calculus and
    the permutation by its action on the components, derived once per
    permutation (see automorphisms._verify_witness)."""
    return Realizable(_verify_witness(word, expected, perm=_perm), tuple(expected))


class DeltaBoundRegistry:
    """Certified lower bounds for Delta(d, e), keyed by weight and unordered
    degree pair.  Entries only ever assert 'Delta >= bound'; the built-in
    registry carries the single classical entry Delta(4, 6) >= 4 for unit
    weights on Z."""

    def __init__(self):
        self._entries: dict = {}

    @staticmethod
    def _weight_key(w: Weight) -> tuple:
        return tuple(sorted(c.coords for c in w.components))

    @staticmethod
    def _pair_key(d: GroupElem, e: GroupElem) -> tuple:
        return tuple(sorted((d.coords, e.coords)))

    def with_entry(
        self, w: Weight, d: GroupElem, e: GroupElem, bound: GroupElem
    ) -> "DeltaBoundRegistry":
        reg = DeltaBoundRegistry()
        reg._entries.update(self._entries)  # the one copy
        reg._add(w, d, e, bound)
        return reg

    def _add(self, w: Weight, d: GroupElem, e: GroupElem, bound: GroupElem) -> None:
        """Check one entry and store it in place, in a registry not yet shared."""
        w = as_weight(w)
        for x in (d, e, bound):  # one at a time: the rank test comes next
            _require_elems(x)
        if not d.rank == e.rank == bound.rank == w.rank:
            raise DomainError(f"degrees and bound need the weight's rank {w.rank}")
        if not (d.is_positive and e.is_positive):
            raise DomainError("registry degrees must be positive")
        if not bound.is_positive:
            raise DomainError("registry bounds must be positive")
        self._entries[(self._weight_key(w), self._pair_key(d, e))] = bound

    def lookup(self, w: Weight, d: GroupElem, e: GroupElem) -> Optional[GroupElem]:
        w = as_weight(w)
        _require_elems(d, e)
        return self._entries.get((self._weight_key(w), self._pair_key(d, e)))

    def __eq__(self, other):
        return (
            isinstance(other, DeltaBoundRegistry) and self._entries == other._entries
        )

    def fingerprint(self) -> str:
        import hashlib
        import json

        payload = json.dumps(
            [[list(map(list, wk)), list(map(list, pk)), list(b.coords)]
             for (wk, pk), b in sorted(self._entries.items())],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_lines(cls, lines) -> "DeltaBoundRegistry":
        from .parse import parse_vector_list

        reg = cls()
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(";")]
            try:
                if len(parts) != 3:
                    raise DomainError("expected 'W1,W2,W3 ; D,E ; BOUND'")
                ws, ds, bs = map(parse_vector_list, parts)
                if len(ws) != 3 or len(ds) != 2 or len(bs) != 1:
                    raise DomainError("need 3 weights, 2 degrees, 1 bound")
                reg._add(Weight(*ws), ds[0], ds[1], bs[0])  # not a copy per line
            except DomainError as exc:
                raise DomainError(f"registry line {lineno}: {exc}") from None
        return reg


_UNIT = Weight.of(1, 1, 1)  # one instance, so its |w|* is computed once
_BUILTIN_REGISTRY = DeltaBoundRegistry().with_entry(
    _UNIT, as_group_elem(4), as_group_elem(6), as_group_elem(4)
)


def builtin_registry() -> DeltaBoundRegistry:
    """The registry with the single classical entry; one shared instance,
    since registries are immutable (with_entry returns a copy)."""
    return _BUILTIN_REGISTRY


def delta_lower_bound(
    d: GroupElem,
    e: GroupElem,
    w: Weight,
    registry: Optional[DeltaBoundRegistry] = None,
    _uses: Optional[list] = None,
) -> GroupElem:
    """Largest certified lower bound for Delta(d, e) under the weight w.

    Candidates: the star invariant of w when neither degree is a multiple
    of the other and at least one lies outside the weight set; any registry
    entry for (w, {d, e}); and the unconditional floor min_{i<j}(w_i + w_j)
    coming from the x_i*x_j factor every wedge term carries.  A registry
    entry that gives the bound is appended to _uses once, as a DeltaBoundUse.
    registry None means builtin_registry(); this is the one place in the
    classifier that resolves it, and its callers pass None down unchanged.
    """
    if registry is None:
        registry = builtin_registry()
    w = as_weight(w)
    _require_elems(d, e, w.components[0])
    if not (d.is_positive and e.is_positive):
        raise DomainError("degrees must be positive")
    ws = w.components
    best = min(ws[0] + ws[1], ws[0] + ws[2], ws[1] + ws[2])
    if _multiple(d, e) is None and _multiple(e, d) is None:
        if (d not in ws or e not in ws) and w.star > best:
            best = w.star
    reg = registry.lookup(w, d, e)
    if reg is not None and reg > best:
        best = reg
        if _uses is not None:
            use = DeltaBoundUse(tuple(c.coords for c in ws), registry._pair_key(d, e), reg)
            if use not in _uses:
                _uses.append(use)
    return best


def _odd_multiplier(s: Optional[int]) -> Optional[int]:
    """The odd s >= 3 with s*d1 == 2*d3, given s = _multiple(2*d3, d1):
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
    zero-argument builder of its clauses, and nothing writes the report
    after that.  __getitem__ and conditions() make a new Condition on
    every call, and a certificate keeps the one list it takes; the
    Condition runs the builder when its clauses are first read, which may
    be long after the report is gone.  holds(),
    failed_names() and reading a Condition's name or holds never build
    clause text, so a verdict pays for formatting only when it is
    explained.  uses lists the registry entries that gave a Delta bound,
    once each, as DeltaBoundUses (see delta_lower_bound).
    """

    __slots__ = ("_holds", "_builders", "uses")

    def __init__(self):
        self._holds: dict[str, bool] = {}
        self._builders: dict[str, Callable[[], tuple[Clause, ...]]] = {}
        self.uses: list[DeltaBoundUse] = []

    def put(self, name: str, holds: bool, build: Callable[[], tuple[Clause, ...]]) -> None:
        self._holds[name] = holds
        self._builders[name] = build

    def __getitem__(self, name: str) -> Condition:
        return Condition(name, self._holds[name], self._builders[name])

    def holds(self, name: str) -> bool:
        return self._holds[name]

    def conditions(self) -> tuple[Condition, ...]:
        """Every condition in put() order, each made anew."""
        holds = self._holds
        return tuple(Condition(name, holds[name], build) for name, build in self._builders.items())

    def failed_names(self) -> tuple[str, ...]:
        return tuple(n for n, h in self._holds.items() if not h)


def check_total_abc(d1: int, d2: int, d3: int) -> ConditionReport:
    """Evaluate the total-degree exclusion conditions a1, a2, b1, b2, c for a
    sorted positive triple, with the witnessing quantities recorded (the
    clauses are built when read, see ConditionReport)."""
    if not all(type(d) is int for d in (d1, d2, d3)):
        raise DomainError("degrees must be integers")
    if not (0 < d1 <= d2 <= d3):
        raise DomainError("degrees must satisfy 0 < d1 <= d2 <= d3")
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


def _delta(d, e, w: Weight, registry, uses):
    """delta_lower_bound for check_weighted_conditions, whose rank-1
    degrees are ints: the registry and DeltaBoundUse keep GroupElems."""
    if type(d) is int:
        d, e = GroupElem._trusted((d,)), GroupElem._trusted((e,))
        return delta_lower_bound(d, e, w, registry, uses).coords[0]
    return delta_lower_bound(d, e, w, registry, uses)


_UNSET = object()  # check_weighted_conditions was given no pair


def check_weighted_conditions(
    d1: GroupElem,
    d2: GroupElem,
    d3: GroupElem,
    w: Weight,
    registry: Optional[DeltaBoundRegistry] = None,
    *,
    _pair12=_UNSET,
) -> ConditionReport:
    """Evaluate K1..K5, A1..A3, B1..B2 for strictly ascending positive
    degrees.  Every Delta occurrence is replaced by delta_lower_bound, so a
    reported 'holds' is sound and a failed report only means 'not
    certified'.  Each condition is decided here; its clauses, and the
    quantities only they show, are built when it is read (see
    ConditionReport).  Weight and degrees may be given by their entries.
    At rank 1 the degrees, |w| and |w|* are ints, decided by the int
    kernels of ordgroup; above it the GroupElem degrees go to the trusted
    kernels _pair and _member, and a caller that has solved _pair(d1, d2)
    already passes it as _pair12.  Registry entries that give a Delta bound
    go to the report's uses."""
    w = as_weight(w)
    wtotal, star = w.total, w.star
    rank1 = w.rank == 1
    if rank1:
        wtotal, star = wtotal.coords[0], star.coords[0]
        d1, d2, d3 = (
            d if type(d) is int else as_group_elem(d, 1).coords[0] for d in (d1, d2, d3)
        )
    elif not (type(d1) is GroupElem and type(d2) is GroupElem and type(d3) is GroupElem):
        d1, d2, d3 = (as_group_elem(d, w.rank) for d in (d1, d2, d3))
    if not (d1 < d2 < d3):
        raise DomainError("degrees must be strictly ascending")
    if not (d1 > 0 if rank1 else d1.is_positive):
        raise DomainError("degrees must be positive")
    if rank1:
        multiple = _multiple1
        pair = _pair1(d1, d2)
        member = _member1(d3, d1, d2)
    else:
        multiple = _multiple
        pair = _pair(d1, d2) if _pair12 is _UNSET else _pair12
        member = _member(d3, d1, d2, pair)

    rep = ConditionReport()
    total = d1 + d2 + d3

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
        _delta(d2, d3, w, registry, rep.uses) if ratio32 else None,
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
        _delta(d1, d3, w, registry, rep.uses) if s is not None else None,
    )
    # No builder refers to rep: a report is then freed by reference
    # counting alone, without leaving garbage cycles for the collector.
    rep.put("A1", not ratio32 and s is None, lambda: (k3_guard(), k4_guard()))

    if 4 * d1 == 3 * d2:
        g = pair[2]
        bound43 = _delta(2 * d1, d2, w, registry, rep.uses)
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


def _independent_weights_report(ds: Sequence[GroupElem], pairs: dict) -> ConditionReport:
    """Conditions 1 and 2 of the independent-weights criterion for validated
    degrees ds, read from pairs[i, j] = _pair(ds[i], ds[j])."""
    d1, d2, d3 = ds
    p12, p13, p23 = pairs[0, 1], pairs[0, 2], pairs[1, 2]
    triple_dependent = not independent_triple(d1.coords, d2.coords, d3.coords)
    rep = ConditionReport()
    rep.put(
        "1",
        p12 is None and p13 is None and p23 is None and triple_dependent,
        lambda: (
            Clause("d1, d2", "linearly independent", "", p12 is None),
            Clause("d1, d3", "linearly independent", "", p13 is None),
            Clause("d2, d3", "linearly independent", "", p23 is None),
            Clause("d1, d2, d3", "linearly dependent", "", triple_dependent),
        ),
    )
    members = [
        ("d1", d1, _member(d1, d2, d3, p23)),
        ("d2", d2, _member(d2, d3, d1, _swapped(p13))),
        ("d3", d3, _member(d3, d1, d2, p12)),
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

    The ranks and positivity of the input are validated once, here.  An
    int degree is a rank-1 degree as it is; every other degree is read by
    as_group_elem, and at rank 1 its one coordinate is taken, so rank-1
    triples are decided on ints.  Above rank 1 each degree pair's
    dependence is solved once, by the trusted kernel _pair, and read by
    both criteria.
    """
    ds = [d if type(d) is int else as_group_elem(d) for d in _entries(degrees, "degrees")]
    if len(ds) != 3:
        raise DomainError("expected a degree triple")
    w = as_weight(weight)
    rank = w.rank
    if any((1 if type(d) is int else d.rank) != rank for d in ds):
        raise DomainError("degrees and weights must share one rank")
    if rank == 1:
        ds = [d if type(d) is int else d.coords[0] for d in ds]
        if min(ds) < 1:
            raise DomainError("degrees must be positive")
    elif not all(d.is_positive for d in ds):
        raise DomainError("degrees must be positive")
    reasons: list[str] = []
    pairs: dict = {}
    if rank > 2 and w.independent:
        pairs = {(i, j): _pair(ds[i], ds[j]) for i, j in ((0, 1), (0, 2), (1, 2))}
        rep = _independent_weights_report(ds, pairs)
        if rep.holds("1") and rep.holds("2"):
            return Excluded(Certificate(Theorem.INDEPENDENT_WEIGHTS, rep.conditions))
        reasons.extend(rep.failed_names())
    d1, d2, d3 = sorted(ds)
    if d1 < d2 < d3:
        pair = _UNSET
        if pairs:  # the degrees are distinct: index finds each one
            i, j = ds.index(d1), ds.index(d2)
            pair = pairs[i, j] if i < j else _swapped(pairs[j, i])
        rep = check_weighted_conditions(d1, d2, d3, w, registry, _pair12=pair)
        h = rep._holds
        if h["K1"] and h["K2"] and (h["A1"] or h["A2"] or h["A3"]) and (h["B1"] or h["B2"]):
            return Excluded(Certificate(Theorem.MAIN_WEIGHTED, rep.conditions, rep.uses))
        reasons.extend(
            n for n in rep.failed_names() if n not in reasons
        )
    else:
        reasons.append("K1")
    return Unknown(tuple(reasons))


def _matching_permutation(asked: tuple[int, int, int]) -> tuple[int, ...]:
    """Indices into the sorted triple so that position i carries asked[i];
    equal degrees are consumed left to right.  order is the stable argsort
    of asked; the permutation asked for is its inverse."""
    order = sorted(range(3), key=asked.__getitem__)
    return tuple(sorted(range(3), key=order.__getitem__))


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
    if not all(type(d) is int for d in (d1, d2, d3)):
        raise DomainError("degrees must be integers")
    if min(d1, d2, d3) < 1:
        raise DomainError("degrees must be positive")
    asked = (d1, d2, d3)
    t1, t2, t3 = sorted(asked)
    word = _witness_word(t1, t2, t3)
    if word is not None:
        perm = None if asked == (t1, t2, t3) else _matching_permutation(asked)
        return make_realizable(word, asked, _perm=perm)
    rep = check_total_abc(t1, t2, t3)
    holds = rep.holds
    if (holds("a1") or holds("a2")) and (holds("b1") or holds("b2")) and holds("c"):
        return Excluded(Certificate(Theorem.TOTAL_DEGREE, rep.conditions))
    weighted = classify_weighted((t1, t2, t3), _UNIT, registry)
    if isinstance(weighted, Excluded):
        return weighted
    reasons = list(rep.failed_names())
    for name in weighted.reasons:
        if name not in reasons:
            reasons.append(name)
    return Unknown(tuple(reasons))


_NOT_AUTOMORPHISM = "rejected input: Jacobian is not a nonzero constant"


def certify_wild(
    endo: Endo,
    weight,
    registry: Optional[DeltaBoundRegistry] = None,
) -> Union[Certificate, Unknown]:
    """Wildness certificate for a specific automorphism, or Unknown.

    The caller is responsible for the input being a genuine automorphism;
    every call screens for a nonzero constant Jacobian and raises
    DomainError for a map without one, such as a map with a zero component.
    The certificate chain is K1..K4, then, for a Z-dependent pair of
    smallest degrees, K5 together with the strict inequality

        d1 + d2 + d3 < lcm(d1, d2) + deg_w df1 ^ df2

    evaluated with the exact engine-computed wedge degree of the two
    components of smallest degree; for an independent pair K1..K4 alone
    certify the triple impossible.

    Only the degrees depend on the weight.  The rest is built once per
    map and kept with it (Endo._jacobian): each component is packed and
    differentiated once; the first call expands the Jacobian along the
    top component's row against the 2x2 minors of the two lowest, the
    components of df1 ^ df2 (poly._minors), and every call reads the
    screen's result; deg_w(df1 ^ df2) is read from the minors of the
    lowest pair, formed the first time that pair is asked for.  The pair
    relation of d1, d2 is solved once, for K1..K5 and for lcm(d1, d2).
    """
    if not isinstance(endo, Endo):
        raise DomainError(f"expected an Endo, got {_show(endo)}")
    if endo.nvars != 3:
        raise DomainError("wildness certification works in three variables")
    w = as_weight(weight)
    comps = endo.components
    degs = [_degree_w(c, w.components) for c in comps]
    if None in degs:  # a zero component: the Jacobian vanishes
        raise DomainError(_NOT_AUTOMORPHISM)
    low, mid, top = sorted(range(3), key=lambda i: degs[i].coords)
    jacobian = endo._jacobian
    if not jacobian.screen(low, mid):
        raise DomainError(_NOT_AUTOMORPHISM)
    d1, d2, d3 = degs[low], degs[mid], degs[top]
    if not (d1 < d2 < d3):
        return Unknown(("K1",))
    pair = _pair(d1, d2)
    rep = check_weighted_conditions(d1, d2, d3, w, registry, _pair12=pair)
    h = rep._holds
    if not (h["K1"] and h["K2"] and h["K3"] and h["K4"]):
        return Unknown(tuple(n for n in ("K1", "K2", "K3", "K4") if not h[n]))
    names = ("K1", "K2", "K3", "K4")
    if pair is None:
        last = "1"

        def explain():
            return (Clause("d1, d2", "linearly independent over Z", "", True),)
    else:
        if not h["K5"]:
            return Unknown(("K5",))
        l = (pair[0] * pair[1]) * pair[2]  # lcm(d1, d2) = u1*u2*gcd
        wedge = _wedge_degree(jacobian.minors(low, mid), 3, jacobian.width, w.components)
        total = d1 + d2 + d3
        if wedge is None or not total < l + wedge:
            return Unknown(("prop:main",))
        names, last = names + ("K5",), "prop:main"

        def explain():
            return (Clause(
                left=f"d1+d2+d3 = {_fmt(total)}",
                relation="<",
                right=f"lcm(d1,d2)+deg_w(df1^df2) = {_fmt(l + wedge)}",
                holds=True,
            ),)
    return Certificate(Theorem.F_SPECIFIC, lambda: (
        *map(rep.__getitem__, names), Condition(last, True, explain)
    ), rep.uses)


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
            f"unknown corollary {_show(name)}; known: {', '.join(sorted(_COROLLARIES))}"
        )
    arity, builder = _COROLLARIES[name]
    args = list(args)
    if len(args) != arity or not all(type(a) is int for a in args):
        raise DomainError(f"corollary {name} takes {arity} integers")
    return builder(args)
