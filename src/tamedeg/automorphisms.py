"""Elementary automorphisms, tame words and multidegrees.

A tame word is a sequence of elementary steps; realizing it folds the steps
left to right into an endomorphism, each step rewriting one component as
scale * component + shift(components).  Realization is the only bridge from
words to polynomial maps.  The fold keeps its components in the packed form
of the poly kernel (one int per monomial) across all steps and unpacks each
component once at the end; the field width comes from the steps' degrees
predicted with cancellation ignored (and the degree cap, when set), before
anything is expanded.  The search harness runs this fold directly, and
its exhaustive walk extends a prefix's packed fold by one step per word.

Every constructive witness produced here is verified after the fact rather
than trusted from its construction, and without expanding it:
certified_mdeg derives the multidegree of the realization from the steps
alone, by total degrees and leading forms, and the Jacobian of a tame word
is the product of its step scales by the chain rule.  Where the degree
calculus cannot rule out a cancellation of top-degree terms, as in the
staircase of intro_family, the witness is realized under a budget and its
multidegree and Jacobian are recomputed from the expansion.

Because of that final check, the parts of a witness are built cheaply:
the template shears of _witness_word are made with the trusted
constructors once the degrees have been validated, and permutation words
are memoized and shared.  A permuted witness is proved in two parts: the
calculus over its template, and the permutation word's action on the
components, derived by the same calculus once per permutation and kept.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional, Sequence

from .errors import ConstructionError, DegreeCapError, DomainError, _entries, _show
from .ordgroup import _member1, _multiple1, _set, _Value, is_prime
from .parse import parse_polynomial
from .poly import (
    Budget,
    Polynomial,
    _canonical,
    _Jacobian,
    _pack,
    _pack_width,
    _padd,
    _psubstitute,
    _trusted,
    _unpack,
    jacobian_det,
    substitute,  # unused here; bench/test_bench.py traces this module's binding
)

_ONE = Fraction(1)  # the scale of every template shear
_SCALE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # a step's scale in to_json


class ElementaryAut(_Value):
    """x_target -> scale * x_target + shift, other variables fixed.

    The shift must not involve the target variable and the scale must be
    nonzero; indices are 0-based.
    """

    _fields = ("target", "scale", "shift")

    def __init__(self, target: int, scale: Fraction, shift: Polynomial):
        if type(scale) is not Fraction:
            scale = Fraction(_canonical(scale))
        if scale == 0:
            raise DomainError("elementary step needs a nonzero scale")
        if not isinstance(shift, Polynomial):
            raise DomainError(f"shift must be a Polynomial, got {_show(shift)}")
        n = shift.nvars
        if type(target) is not int or not 0 <= target < n:
            raise DomainError(f"target {_show(target)} out of range for n={n}")
        for mono in shift.terms:
            if mono[target] != 0:
                raise DomainError("shift must not involve the target variable")
        _set(self, "target", target)
        _set(self, "scale", scale)
        _set(self, "shift", shift)

    @classmethod
    def _trusted(cls, target: int, scale: Fraction, shift: Polynomial) -> "ElementaryAut":
        """Build a step without validation.  Precondition: scale is a
        nonzero Fraction, 0 <= target < shift.nvars, and no term of shift
        involves the target variable."""
        step = object.__new__(cls)
        _set(step, "target", target)
        _set(step, "scale", scale)
        _set(step, "shift", shift)
        return step

    @property
    def nvars(self) -> int:
        return self.shift.nvars

    def inverse(self) -> "ElementaryAut":
        inv = 1 / self.scale
        return ElementaryAut(self.target, inv, self.shift * -inv)

    def render(self) -> str:
        head = f"x{self.target + 1} <- "
        if self.scale == 1:
            head += f"x{self.target + 1}"
        else:
            head += f"{self.scale}*x{self.target + 1}"
        if not self.shift.is_zero:
            text = self.shift.render()
            head += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        return head


class TameWord(_Value):
    """Sequence of elementary steps, composed left to right."""

    _fields = ("steps", "nvars")

    def __init__(self, steps: tuple[ElementaryAut, ...], nvars: int = 3):
        steps = _entries(steps, "steps")
        if type(nvars) is not int or nvars < 1:
            raise DomainError(f"a word needs at least one variable, got nvars={_show(nvars)}")
        for s in steps:
            if not isinstance(s, ElementaryAut):
                raise DomainError(f"each step must be an ElementaryAut, got {_show(s)}")
            if s.nvars != nvars:
                raise DomainError("all steps must use the same variable count")
        _set(self, "steps", steps)
        _set(self, "nvars", nvars)

    def __len__(self) -> int:
        return len(self.steps)

    def __add__(self, other: "TameWord") -> "TameWord":
        if not isinstance(other, TameWord):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DomainError("variable counts differ")
        word = object.__new__(TameWord)  # each step was checked in its own word
        _set(word, "steps", self.steps + other.steps)
        _set(word, "nvars", self.nvars)
        return word

    def inverse(self) -> "TameWord":
        return TameWord(tuple(s.inverse() for s in reversed(self.steps)), self.nvars)

    def render(self) -> str:
        if not self.steps:
            return "(identity)"
        return "; ".join(s.render() for s in self.steps)

    def to_json(self) -> list:
        """The steps as [{"target": 1-based index, "scale": "num/den",
        "shift": rendered polynomial}, ...], the form of --json witnesses
        and search records."""
        return [
            {
                "target": s.target + 1,
                "scale": f"{s.scale.numerator}/{s.scale.denominator}",
                "shift": s.shift.render(),
            }
            for s in self.steps
        ]

    @classmethod
    def from_json(cls, steps: list) -> "TameWord":
        """Inverse of to_json for a word in three variables.  A step that is
        not an object with the keys target, scale and shift, a target that
        is not an int in 1..3, a shift that is not a string, or a scale
        that is not an integer or "num/den" with den > 0 raises DomainError
        naming its 1-based step, as does a shift that does not parse or that
        involves its target; a word that is not a list raises DomainError.

        Steps are memoized by their exact (target, scale, shift) values, up
        to 1,024 of them and shared between words, when the scale and shift
        texts are together at most 200 characters long and the shift has no
        parenthesis and no power of a number, so that no memoized step is
        large; every shift that to_json writes qualifies.  Errors are never
        memoized."""
        if not isinstance(steps, list):
            raise DomainError(f"word must be a list of steps, not {type(steps).__name__}")
        out = []
        for k, s in enumerate(steps, 1):
            if not isinstance(s, dict):
                raise DomainError(f"step {k}: expected an object, not {type(s).__name__}")
            try:
                target, text, shift = s["target"], s["scale"], s["shift"]
            except KeyError as exc:
                raise DomainError(f"step {k}: missing key {exc.args[0]!r}") from None
            if type(target) is not int or not 1 <= target <= 3:
                shown = _show(target) if type(target) is int else type(target).__name__
                raise DomainError(f"step {k}: target must be an int in 1..3, not {shown}")
            if not isinstance(shift, str):
                raise DomainError(f"step {k}: shift must be a string, not {type(shift).__name__}")
            memo = (type(text) is str and len(text) + len(shift) <= _MEMO_TEXT
                    and not _EXPANDS.search(shift))
            try:
                out.append((_memo_step if memo else _step)(target, text, shift))
            except DomainError as exc:
                raise DomainError(f"step {k}: {exc}") from None
        return cls(tuple(out), 3)


_MEMO_TEXT = 200  # longest scale and shift text of a memoized step
_EXPANDS = re.compile(r"\(|(?<![x0-9])[0-9]+\s*\^")  # a parenthesis or a power of a number


def _step(target: int, text, shift: str) -> ElementaryAut:
    """The step that from_json reads from a checked 1-based target, an
    unchecked scale and a shift string; a bad scale or shift raises
    DomainError without the step's number."""
    m = _SCALE.fullmatch(text) if isinstance(text, str) else None
    try:
        scale = Fraction(int(m[1]), int(m[2] or 1)) if m else None
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit; n/0
        scale = None
    if scale is None:
        raise DomainError(f"malformed scale {text!r}")
    return ElementaryAut(target - 1, scale, parse_polynomial(shift))


_memo_step = lru_cache(maxsize=1024)(_step)


class Endo(_Value):
    """Polynomial endomorphism given by its components.

    A map in three variables keeps, once it is first certified, the part
    of its wildness certificates that no weight changes (``_jacobian``, a
    ``poly._Jacobian``): its partials, its Jacobian screen and the minors
    of its component pairs.  Equality, hashing, repr and pickling read
    only the components.
    """

    _fields = ("components",)

    def __init__(self, components: tuple[Polynomial, ...]):
        components = _entries(components, "components")
        n = len(components)
        for c in components:
            if not isinstance(c, Polynomial):
                raise DomainError(f"each component must be a Polynomial, got {_show(c)}")
            if c.nvars != n:
                raise DomainError("each component must use n variables")
        _set(self, "components", components)

    @property
    def nvars(self) -> int:
        return len(self.components)

    @cached_property
    def _jacobian(self) -> _Jacobian:
        return _Jacobian(self.components)

    @classmethod
    def identity(cls, nvars: int = 3) -> "Endo":
        return cls(tuple(Polynomial.variable(i, nvars) for i in range(nvars)))

    def render(self) -> str:
        return "(" + ", ".join(c.render() for c in self.components) + ")"


def shear(target: int, shift: Polynomial, scale=1) -> ElementaryAut:
    return ElementaryAut(target, scale, shift)


def realize(word: TameWord, budget: Optional[Budget] = None) -> Endo:
    """Fold the word into an endomorphism, left to right.

    Each step rewrites its target component to
    scale * component + shift(current components).  Aborts with
    BudgetExceededError if an intermediate outgrows the budget (by
    default Budget(), capped at poly.DEFAULT_TERM_BUDGET terms).  When the
    budget carries a degree_cap, each step's total degree is first
    predicted from the degrees of the current components, and a step
    predicted above the cap raises DegreeCapError before it is expanded.
    """
    if not isinstance(word, TameWord):
        raise DomainError(f"expected a TameWord, got {_show(word)}")
    if budget is None:
        budget = Budget()
    return _Fold.identity(word.nvars).extend(word.steps, budget).endo()


class _Fold:
    """The realization of a word with its components kept packed: comps
    in fields of width bits (see poly._pack), degs their total degrees,
    and polys their unpacked forms, filled on first read and shared with
    the folds that extend this one where a component is unchanged;
    repacks holds comps repacked to wider fields, by width, for the
    extensions that need them.  Apart from those caches a fold is never
    modified, so folds can be extended again and again, as the exhaustive
    walk of search.generate does and as every randomized word extends the
    shared identity fold."""

    __slots__ = ("width", "comps", "degs", "polys", "repacks")

    def __init__(self, width: int, comps: tuple, degs: tuple, polys: list):
        self.width = width
        self.comps = comps
        self.degs = degs
        self.polys = polys
        self.repacks = {}

    @staticmethod
    @lru_cache(maxsize=8)
    def identity(nvars: int) -> "_Fold":
        """The fold of the empty word, shared: it has nothing to unpack."""
        variables = list(Endo.identity(nvars).components)
        return _Fold(
            1, tuple(_pack(v.terms, 1) for v in variables), (1,) * nvars, variables
        )

    def extend(self, steps: Sequence[ElementaryAut], budget: Budget) -> "_Fold":
        """This fold followed by steps, charging budget as realize does.

        The field width comes from an exponent bound proved before
        anything is expanded: each step's total degree predicted from the
        bounds of the components, with cancellation ignored, and never
        more than the degree cap, since a step predicted above the cap
        raises before it is expanded.  Every exponent of every partial
        product of a step is at most that step's total degree.
        """
        cap = budget.degree_cap
        bounds = list(self.degs)
        top = 0
        for step in steps:
            bounds[step.target] = _predicted(step, bounds)
            top = max(top, bounds[step.target])
        width = max(self.width, _pack_width(top if cap is None else min(top, cap)))
        n = len(self.comps)
        comps = self.comps
        if width != self.width:
            comps = self.repacks.get(width)
            if comps is None:
                comps = self.repacks[width] = [_pack(p.terms, width) for p in self._unpacked()]
        comps = list(comps)
        degs = list(self.degs)
        polys = list(self.polys)
        for step in steps:
            t = step.target
            if cap is not None:
                degree = _predicted(step, degs)
                if degree > cap:
                    raise DegreeCapError(
                        f"step would reach total degree {degree} > cap {cap}"
                    )
            shifted = _psubstitute(step.shift, comps, budget)
            scale, old = step.scale, comps[t]
            if scale != 1:
                scale = scale.numerator if scale.denominator == 1 else scale
                old = {k: c * scale for k, c in old.items()}
            new = _padd(old, shifted)
            budget.charge(len(new), 0)
            comps[t] = new
            degs[t] = max(new) >> n * width if new else 0
            polys[t] = None
        return _Fold(width, tuple(comps), tuple(degs), polys)

    def _unpacked(self) -> list:
        """The components as polynomials, each unpacked once."""
        polys = self.polys
        for i, p in enumerate(polys):
            if p is None:
                polys[i] = _unpack(self.comps[i], len(polys), self.width)
        return polys

    def endo(self) -> Endo:
        """The realization, each component unpacked once."""
        return Endo(tuple(self._unpacked()))


def _predicted(step: ElementaryAut, degs: Sequence[int]) -> int:
    """Total degree of step's new component when the components have total
    degrees degs, with cancellation ignored: an upper bound."""
    degree = degs[step.target]
    for mono in step.shift.terms:
        degree = max(degree, sum(map(mul, mono, degs)))
    return degree


def mdeg(endo: Endo) -> tuple[int, ...]:
    """Total-degree multidegree as plain ints (zero components excluded)."""
    out = []
    for c in endo.components:
        d = c.total_degree_int()
        if d < 0:
            raise DomainError("zero component has no total degree")
        out.append(d)
    return tuple(out)


# Leading forms are tracked by their values at a fixed point modulo this
# (Mersenne) prime; see certified_mdeg.
_P = (1 << 61) - 1


@lru_cache(maxsize=8)
def _point(nvars: int) -> tuple[int, ...]:
    """A fixed pseudo-random point mod _P, one coordinate per variable, so
    that a small relation such as x2 - 2*x1 or x1*x3 - x2^2 is unlikely to
    vanish on it and force a fallback."""
    rng = random.Random(f"certified_mdeg/{nvars}")
    return tuple(rng.randrange(1, _P) for _ in range(nvars))


def _top(combo: dict, atoms: list) -> Optional[tuple[int, int]]:
    """(degree, leading-form value) of the linear combination combo of
    atoms, or None when its top-degree atoms may cancel."""
    best, value = -1, 0  # value None: a top coefficient has no residue
    for a, c in combo.items():
        degree, lead = atoms[a]
        if degree > best:
            best, value = degree, 0
        elif degree < best or value is None:
            continue
        if type(c) is not int:
            if c.denominator % _P == 0:
                value = None
                continue
            c = c.numerator * pow(c.denominator, -1, _P)
        value += c * lead
    if value:
        value %= _P
    return (best, value) if value else None


def certified_mdeg(word: TameWord) -> Optional[tuple[int, ...]]:
    """Total-degree multidegree of realize(word), derived from the steps
    without expanding them, or None when the derivation cannot decide.

    Each component is kept as an exact linear combination of atoms: the
    variables, and one atom per nonlinear shift term of each step (the
    term's monomial in the components of that moment), so linear shift
    terms, such as the transposition tails of permuted witnesses, combine
    and cancel exactly.  An atom carries its total degree and its leading
    form, and Q[x] is a domain: the leading form of a product is the
    product of the leading forms and degrees add.  A leading form is kept
    only as its value at a fixed point modulo the prime _P, which expands
    nothing.  Where top-degree atoms tie, their sum is a nonzero form of
    that degree when the tied values do not sum to 0 mod _P, since a form
    with a nonzero value is nonzero; when they do (a true cancellation,
    such as the staircase of intro_family, or a rare coincidence mod _P)
    the answer is None.
    """
    n = word.nvars
    atoms = [(1, v) for v in _point(n)]  # (degree, leading-form value) per atom
    combos = [{i: 1} for i in range(n)]  # component -> {atom: coefficient}
    tops = list(atoms)  # (degree, leading-form value) per component
    for step in word.steps:
        combo = _combine(step, combos, atoms, tops)
        top = _top(combo, atoms)
        if top is None:
            return None
        combos[step.target] = combo
        tops[step.target] = top
    return tuple(d for d, _ in tops)


def _combine(step: ElementaryAut, combos: list, atoms: list, tops: Sequence) -> dict:
    """The combination of step's new target component: scale times the
    old one plus the shift, whose linear terms merge exactly with the
    combinations of their variables and whose nonlinear terms each append
    an atom to atoms, its degree and leading-form value taken from tops,
    the components' (degree, leading-form value).  A constant shift term
    is dropped: it never reaches the top of a component."""
    scale = step.scale
    if scale.denominator == 1:
        scale = scale.numerator
    old = combos[step.target]
    combo = dict(old) if scale == 1 else {a: c * scale for a, c in old.items()}
    for mono, c in step.shift.terms.items():
        total = sum(mono)
        if total == 1:
            for a, k in combos[mono.index(1)].items():
                merged = combo.get(a, 0) + c * k
                if merged:
                    combo[a] = merged
                else:
                    del combo[a]
        elif total:
            degree, lead = 0, 1
            for j, e in enumerate(mono):
                if e:
                    d, v = tops[j]
                    degree += e * d
                    lead = lead * pow(v, e, _P) % _P
            combo[len(atoms)] = c
            atoms.append((degree, lead))
    return combo


def _check_mdeg(got: tuple[int, ...], expected: Sequence[int]) -> None:
    if got != tuple(expected):
        raise ConstructionError(
            f"witness realizes multidegree {got}, expected {tuple(expected)}"
        )


def _verify_realization(
    word: TameWord, expected: Sequence[int], budget: Optional[Budget] = None
) -> tuple[Endo, Polynomial]:
    """Expand word and check the multidegree and Jacobian of the expansion;
    returns the expansion and its Jacobian determinant."""
    endo = realize(word, budget)
    _check_mdeg(mdeg(endo), expected)
    jac = jacobian_det(endo.components)
    if not jac.is_constant or jac.is_zero:
        raise ConstructionError("witness Jacobian is not a nonzero constant")
    return endo, jac


def _verify_witness(
    word: TameWord,
    expected: Sequence[int],
    budget: Optional[Budget] = None,
    perm: Optional[Sequence[int]] = None,
) -> TameWord:
    """Prove that the witness, word followed by permutation_word(perm)
    when perm is given, realizes the multidegree expected with a nonzero
    constant Jacobian, or raise ConstructionError; returns the witness.

    The multidegree comes from certified_mdeg over word alone.  The
    permutation word's steps are linear in the components, so it sends
    the components F of word to (+-F[pi[0]], ..., +-F[pi[n-1]]), with pi
    from _permutation_action, derived once per permutation; the witness's
    multidegree is then got[pi[i]] at position i.  The Jacobian is the
    product of the step scales by the chain rule, and ElementaryAut
    rejects a zero scale.  Only when certified_mdeg falls back is the
    whole witness expanded, under budget, by _verify_realization.
    """
    witness = word if perm is None else word + permutation_word(perm, word.nvars)
    got = certified_mdeg(word)
    if got is None:
        _verify_realization(witness, expected, budget)
        return witness
    if perm is not None:
        got = tuple(got[i] for i in _permutation_action(tuple(perm), word.nvars))
    _check_mdeg(got, expected)
    return witness


def _witness_word(d1: int, d2: int, d3: int) -> Optional[TameWord]:
    """Unverified tame word for the sorted triple (d1, d2, d3) from the two
    shear templates of semigroup_witness, or None when neither applies."""
    if not all(type(d) is int for d in (d1, d2, d3)):
        raise DomainError("degrees must be integers")
    if not (1 <= d1 <= d2 <= d3):
        raise DomainError("degrees must satisfy 1 <= d1 <= d2 <= d3")
    member = _member1(d3, d1, d2)
    # d1, d2, d3 are positive ints and a, b are nonnegative ints, so each
    # shift below is a valid monomial that avoids its step's target
    if member is not None:
        a, b = member
        shears = ((0, (0, 0, d1)), (1, (0, 0, d2)), (2, (a, b, 0)))
    elif d2 % d1 == 0:
        shears = ((2, (d3, 0, 0)), (0, (0, d1, 0)), (1, (d2 // d1, 0, 0)))
    else:
        return None
    return TameWord(
        tuple(ElementaryAut._trusted(t, _ONE, _trusted(3, {e: 1})) for t, e in shears),
        3,
    )


def semigroup_witness(
    d1: int, d2: int, d3: int, budget: Optional[Budget] = None
) -> Optional[TameWord]:
    """Tame word with total-degree multidegree (d1, d2, d3), built when
    d3 = a*d1 + b*d2 has a nonnegative solution or d1 divides d2.

    Two shear templates cover the cases:
      (i)  d3 = a*d1 + b*d2: components (x1+x3^d1, x2+x3^d2, x3+f1^a*f2^b);
      (ii) d2 = m*d1: components (x1+x2^d1, x2+f1^m, x3+x1^d3).
    The multidegree and constant Jacobian of the word are verified by
    _verify_witness and a mismatch raises ConstructionError.  Returns None
    when neither membership holds.
    """
    word = _witness_word(d1, d2, d3)
    if word is not None:
        _verify_witness(word, (d1, d2, d3), budget)
    return word


def intro_family(
    primes: Sequence[int], budget: Optional[Budget] = None
) -> tuple[tuple[int, ...], TameWord]:
    """Degrees and a verified tame word for the staircase family built from
    strictly increasing primes p_1 < ... < p_{n-1} (n = len + 1 >= 3):

      d_i = p_i^i * p_{i+1} * ... * p_{n-1}   for i < n,
      d_n = (d_{n-1} - 1) * d_{n-2} + 1,

    realized by shearing each x_i by x_n^{d_i} and then x_n by
    x_{n-2}^{d_{n-1}} - x_{n-1}^{d_{n-2}}.  No degree is a nonnegative
    combination of the earlier ones.
    """
    primes = tuple(primes)
    if len(primes) < 2:
        raise DomainError("need at least two primes (n >= 3)")
    if not all(type(p) is int for p in primes):
        raise DomainError("primes must be integers")
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
    if any(a >= b for a, b in zip(primes, primes[1:])):
        raise DomainError("primes must be strictly increasing")
    n = len(primes) + 1
    degrees = []
    for i in range(1, n):
        d = primes[i - 1] ** i
        for p in primes[i:]:
            d *= p
        degrees.append(d)
    degrees.append((degrees[-1] - 1) * degrees[-2] + 1)
    degrees = tuple(degrees)

    def mono(var: int, exp: int) -> Polynomial:
        e = [0] * n
        e[var] = exp
        return Polynomial.monomial(e)

    steps = [shear(i, mono(n - 1, degrees[i])) for i in range(n - 1)]
    steps.append(
        shear(n - 1, mono(n - 3, degrees[n - 2]) - mono(n - 2, degrees[n - 3]))
    )
    word = TameWord(tuple(steps), n)
    _verify_witness(word, degrees, budget)
    if _multiple1(degrees[1], degrees[0]) is not None:
        raise ConstructionError("second degree is a multiple of the first")
    if _member1(degrees[2], degrees[0], degrees[1]):
        raise ConstructionError("third degree lies in the semigroup of the first two")
    return degrees, word


def nagata() -> Endo:
    """The classical candidate wild map in three variables; constant Jacobian
    and total multidegree (5, 3, 1)."""
    x1, x2, x3 = (Polynomial.variable(i, 3) for i in range(3))
    q = x2 * x2 + x1 * x3
    return Endo(
        (
            x1 - 2 * x2 * q - x3 * q * q,
            x2 + x3 * q,
            x3,
        )
    )


def transposition_word(i: int, j: int, nvars: int = 3) -> TameWord:
    """Swap of x_i and x_j expanded into three unit shears and one scaling."""
    if i == j:
        return TameWord((), nvars)
    xi = Polynomial.variable(i, nvars)
    xj = Polynomial.variable(j, nvars)
    return TameWord(
        (
            shear(i, xj),
            shear(j, -xi),
            shear(i, xj),
            ElementaryAut(j, Fraction(-1), Polynomial.zero(nvars)),
        ),
        nvars,
    )


def permutation_word(perm: Sequence[int], nvars: int = 3) -> TameWord:
    """Expand a permutation of the variables into transposition words.

    perm is validated on every call; the word is then memoized on
    (tuple(perm), nvars), so a bad perm raises each time and is never
    cached.  Equal permutations get the same word object, with steps
    shared among the words: like every TameWord, ElementaryAut and
    Polynomial, they must never be mutated."""
    entries = _entries(perm, "perm")
    if any(type(p) is not int for p in entries) or sorted(entries) != list(range(nvars)):
        raise DomainError(f"{perm} is not a permutation of 0..{nvars - 1}")
    return _permutation_word(entries, nvars)


@lru_cache(maxsize=64)
def _permutation_word(perm: tuple[int, ...], nvars: int) -> TameWord:
    current = list(range(nvars))
    word = TameWord((), nvars)
    for pos in range(nvars):
        want = perm[pos]
        at = current.index(want)
        if at != pos:
            word = word + transposition_word(pos, at, nvars)
            current[pos], current[at] = current[at], current[pos]
    return word


@lru_cache(maxsize=64)
def _permutation_action(perm: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    """The pi for which permutation_word(perm, nvars) sends every tuple of
    components F to (+-F[pi[0]], ..., +-F[pi[nvars-1]]), derived from the
    word's steps by the exact linear combinations of certified_mdeg, with
    the components of F as its atoms; nothing is expanded.  Raises
    ConstructionError unless each final combination is one component of F
    with coefficient 1 or -1."""
    atoms = [(1, v) for v in _point(nvars)]  # their degrees and values are never read here
    combos = [{i: 1} for i in range(nvars)]
    for step in _permutation_word(perm, nvars).steps:
        combos[step.target] = _combine(step, combos, atoms, atoms)
    pi = []
    for i, combo in enumerate(combos, 1):
        a, c = next(iter(combo.items()), (nvars, 0))
        if len(combo) != 1 or a >= nvars or abs(c) != 1:
            raise ConstructionError(
                f"permutation word {perm} leaves component {i} as the combination {combo}"
            )
        pi.append(a)
    return tuple(pi)
