"""Brute-force reference implementations the fast paths are checked against.

Everything here is deliberately naive: plain enumeration, dynamic
programming and schoolbook polynomial arithmetic on plain dicts with
Fraction coefficients, independent of the library's algorithms.  Three
exceptions are earlier, simpler versions of library code kept as
references for their faster replacements: ``frac_dependent_pair`` finds the
ratio of a pair with Fraction, ``eager_weighted_conditions`` evaluates
K1..K5, A1..A3, B1..B2 and formats every clause at once, and
``factor_parse_polynomial`` parses an expression through one Polynomial
per factor.

Helpers moved out of the library.  The last section holds code that only
the invariant suites call, built on the library's public kernel:
``compose`` (substitution of one map into another), ``mdeg_w`` and
``deg_w_total`` (componentwise and summed weighted degrees of a map),
``wedge3_degree`` (degree of df1 ^ df2 ^ df3 through the Jacobian),
``leading_form`` (the terms of top weighted degree), ``constant_value``,
``power_dependence`` (whether h1 == c * h2**l), and
``lemma_a_conditions`` with its ``LemmaAReport`` (arithmetic screens that
imply condition (a) of the total-degree criterion).  ``public_witness_word``
builds the total-degree witness of ``classify_total`` through the public,
validating constructors only.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Optional

from tamedeg.automorphisms import Endo, TameWord, shear, transposition_word
from tamedeg.classifier import Clause, Condition, check_total_abc, delta_lower_bound
from tamedeg.errors import DomainError, PolynomialSyntaxError
from tamedeg.ordgroup import (
    NEG_INF,
    GroupElem,
    coerce_weight_vector,
    is_prime,
    multiple_of,
    semigroup_member,
    w_star,
)
from tamedeg.poly import Budget, Polynomial, degree_w, jacobian_det, power, substitute


def dp_representable(target: int, e1: int, e2: int):
    """All (a, b) with a*e1 + b*e2 == target, by exhaustive scan."""
    out = []
    for a in range(target // e1 + 1):
        rest = target - a * e1
        if rest % e2 == 0:
            out.append((a, rest // e2))
    return out


def dp_frobenius(u1: int, u2: int) -> int:
    """Largest non-representable integer, by DP over 0 .. u1*u2."""
    limit = u1 * u2 + 1
    reachable = [False] * (limit + max(u1, u2) + 1)
    reachable[0] = True
    for v in range(1, len(reachable)):
        if v >= u1 and reachable[v - u1]:
            reachable[v] = True
        if v >= u2 and reachable[v - u2]:
            reachable[v] = True
    worst = -1
    for v in range(limit):
        if not reachable[v]:
            worst = v
    return worst


def enum_least_combination(e1, e2, t, bound: int = 64):
    """min{a*e1 + b*e2 > t : 1 <= a, b <= bound} over tuples under lex order,
    or None.  e1, e2, t are coordinate tuples of equal length."""

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    def smul(c, u):
        return tuple(c * x for x in u)

    best = None
    for a, b in product(range(1, bound + 1), repeat=2):
        cand = add(smul(a, e1), smul(b, e2))
        if cand > t and (best is None or cand < best):
            best = cand
    return best


def enum_w_star(w1, w2, w3, bound: int = 64):
    """Direct evaluation of the defining minimum for a weight triple of
    coordinate tuples."""
    s1, s2, s3 = sorted([w1, w2, w3])

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    def smul(c, u):
        return tuple(c * x for x in u)

    threshold = add(s1, s3)
    fallback = add(smul(2, s1), s3)
    stair = enum_least_combination(s1, s2, threshold, bound)
    if stair is None or fallback < stair:
        return fallback
    return stair


def triple_semigroup_member(d: int, gens) -> bool:
    """Membership in a nonnegative integer combination of up to three
    generators, by exhaustive scan."""
    gens = [g for g in gens if g > 0]
    if not gens:
        return d == 0
    g0 = gens[0]
    if len(gens) == 1:
        return d % g0 == 0
    for a in range(d // g0 + 1):
        if triple_semigroup_member(d - a * g0, gens[1:]):
            return True
    return False


def fraction_rank(rows) -> int:
    """Rank of an integer matrix by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[rank])]
        rank += 1
    return rank


def frac_terms(terms) -> dict:
    """A term map {exponent tuple: coefficient} with every coefficient a
    Fraction and no zero terms."""
    out = {}
    for mono, c in terms.items():
        c = Fraction(c)
        if c != 0:
            out[tuple(mono)] = c
    return out


def frac_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for mono, c in g.items():
        out[mono] = out.get(mono, Fraction(0)) + c
    return frac_terms(out)


def frac_scale(f: dict, c) -> dict:
    return frac_terms({mono: v * Fraction(c) for mono, v in f.items()})


def frac_multiply(f: dict, g: dict) -> dict:
    """Schoolbook product of two term maps over Fraction coefficients."""
    out = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return frac_terms(out)


def frac_power(f: dict, exponent: int, nvars: int) -> dict:
    """f**exponent by repeated multiplication into the constant 1."""
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(exponent):
        out = frac_multiply(out, f)
    return out


def frac_substitute(f: dict, replacements, nvars: int) -> dict:
    """f evaluated at the given term maps: the sum over the terms of f of
    the coefficient times the product of replacement powers."""
    out = {}
    for mono, c in f.items():
        term = {(0,) * nvars: c}
        for r, e in zip(replacements, mono):
            term = frac_multiply(term, frac_power(r, e, nvars))
        out = frac_add(out, term)
    return out


def frac_partial(f: dict, index: int) -> dict:
    out = {}
    for mono, c in f.items():
        e = mono[index]
        if e:
            key = mono[:index] + (e - 1,) + mono[index + 1:]
            out[key] = out.get(key, Fraction(0)) + c * e
    return frac_terms(out)


def frac_dependent_pair(d1: GroupElem, d2: GroupElem):
    """(u1, u2, d) with coprime u1, u2, u2*d1 == u1*d2 and d_i == u_i*d for
    a positive pair, or None when it is independent; the ratio d2/d1 is
    taken as one Fraction per coordinate."""
    ratio = None
    for a, b in zip(d1.coords, d2.coords):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        r = Fraction(b, a)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    u1, u2 = ratio.denominator, ratio.numerator
    return u1, u2, GroupElem(c // u1 for c in d1.coords)


def _fmt(v) -> str:
    return v.render() if isinstance(v, GroupElem) else str(v)


def _cmp(label_l, val_l, rel, label_r, val_r, holds) -> Clause:
    return Clause(
        left=f"{label_l} = {_fmt(val_l)}",
        relation=rel,
        right=f"{label_r} = {_fmt(val_r)}" if label_r else _fmt(val_r),
        holds=holds,
    )


def eager_weighted_conditions(d1, d2, d3, w, registry, tracker) -> list:
    """The Conditions K1, K2, K3, A2, K4, A3, A1, K5, B1, B2 of strictly
    ascending positive degrees, each clause formatted as it is decided."""
    out = []

    def put(name, holds, clauses):
        out.append(Condition(name, holds, tuple(clauses)))

    def delta(a, b):
        return delta_lower_bound(a, b, w, registry, tracker)

    def gcd_lcm(a, b):
        u1, u2, d = frac_dependent_pair(a, b)
        return d, (u1 * u2) * d

    total = d1 + d2 + d3
    wtotal = w.total
    star = w_star(w.components)
    put("K1", total > wtotal, (
        _cmp("d1", d1, "<", "d2", d2, True),
        _cmp("d2", d2, "<", "d3", d3, True),
        _cmp("d1+d2+d3", total, ">", "|w|", wtotal, total > wtotal),
    ))
    m12 = multiple_of(d2, d1)
    member = semigroup_member(d3, d1, d2)
    k2a = Clause(f"d2 = {_fmt(d2)}", "not in",
                 "N*d1" + (f" (d2 = {m12}*d1)" if m12 is not None else ""), m12 is None)
    k2b = Clause(f"d3 = {_fmt(d3)}", "not in",
                 "<d1,d2>" + (f" (d3 = {member[0]}*d1 + {member[1]}*d2)" if member else ""),
                 member is None)
    put("K2", k2a.holds and k2b.holds, (k2a, k2b))

    ratio32 = 3 * d2 == 2 * d3
    k3_first = _cmp("3*d2", 3 * d2, "!=", "2*d3", 2 * d3, not ratio32)
    if ratio32:
        bound = delta(d2, d3)
        k3_second = _cmp("d1+d2", d1 + d2, "<", "d3+Delta_lb(d2,d3)", d3 + bound,
                         d1 + d2 < d3 + bound)
        put("K3", k3_second.holds, (k3_first, k3_second))
        a2_bound = max(bound, star)
        a2_second = _cmp("d1+d2", d1 + d2, "<", "d3+max(Delta_lb(d2,d3),|w|*)",
                         d3 + a2_bound, d1 + d2 < d3 + a2_bound)
        put("A2", a2_second.holds, (k3_first, a2_second))
    else:
        put("K3", True, (k3_first,))
        put("A2", False, (Clause(f"3*d2 = {_fmt(3 * d2)}", "=",
                                 f"2*d3 = {_fmt(2 * d3)}", False),))

    s = multiple_of(2 * d3, d1)
    if s is not None and (s % 2 == 0 or s < 3):
        s = None
    odd = "odd s >= 3 with s*d1 = 2*d3"
    k4_first = Clause(odd, "exists" if s is not None else "none",
                      f"s = {s}" if s is not None else "", s is None)
    if s is not None:
        bound = delta(d1, d3)
        k4_second = _cmp("d1+d2", d1 + d2, "<", "d3+Delta_lb(d1,d3)", d3 + bound,
                         d1 + d2 < d3 + bound)
        put("K4", k4_second.holds, (k4_first, k4_second))
        a3_bound = max(bound, star)
        a3_second = _cmp("d1+d2", d1 + d2, "<", "d3+max(Delta_lb(d1,d3),|w|*)",
                         d3 + a3_bound, d1 + d2 < d3 + a3_bound)
        put("A3", a3_second.holds, (Clause(odd, "exists", f"s = {s}", True), a3_second))
    else:
        put("K4", True, (k4_first,))
        put("A3", False, (Clause(odd, "none", "", False),))

    put("A1", not ratio32 and s is None, (k3_first, k4_first))

    ratio43 = 4 * d1 == 3 * d2
    k5_first = _cmp("4*d1", 4 * d1, "!=", "3*d2", 3 * d2, not ratio43)
    if ratio43:
        g, _ = gcd_lcm(d1, d2)
        bound = delta(2 * d1, d2)
        k5_second = _cmp("d3", d3, "<", "5*gcd(d1,d2)+Delta_lb(2*d1,d2)", 5 * g + bound,
                         d3 < 5 * g + bound)
        put("K5", k5_second.holds, (k5_first, k5_second))
    else:
        put("K5", True, (k5_first,))

    if frac_dependent_pair(d1, d2) is None:
        indep = Clause("d1, d2", "linearly independent over Z ((B) holds)", "", True)
        put("B1", True, (indep,))
        put("B2", True, (indep,))
    else:
        g, l = gcd_lcm(d1, d2)
        m3 = multiple_of(d3, g)
        b1a = _cmp("gcd(d1,d2)", g, "<=", "|w|*", star, g <= star)
        b1b = Clause(f"d3 = {_fmt(d3)}", "in" if m3 is not None else "not in",
                     "N*gcd(d1,d2)" + (f" (d3 = {m3}*gcd)" if m3 is not None else ""),
                     m3 is not None)
        put("B1", b1a.holds and b1b.holds, (b1a, b1b))
        put("B2", total < l + star,
            (_cmp("d1+d2+d3", total, "<", "lcm(d1,d2)+|w|*", l + star, total < l + star),))
    return out


class _FactorToken:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _factor_tokenize(text: str) -> list[_FactorToken]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_FactorToken("num", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolynomialSyntaxError("variable needs an index, like x1", i)
            tokens.append(_FactorToken("var", int(text[i + 1 : j]), i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(_FactorToken(ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_FactorToken("end", None, n))
    return tokens


class _FactorParser:
    def __init__(self, tokens: list[_FactorToken], nvars: int, exponent_cap: int):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars
        self.exponent_cap = exponent_cap

    def peek(self) -> _FactorToken:
        return self.tokens[self.i]

    def take(self) -> _FactorToken:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _FactorToken:
        tok = self.peek()
        if tok.kind != kind:
            raise PolynomialSyntaxError(
                f"expected {kind!r}, found {tok.kind!r}", tok.pos
            )
        return self.take()

    def parse_expr(self) -> Polynomial:
        if self.peek().kind == "-":
            self.take()
            value = -self.parse_term()
        else:
            value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            value = value + term if op.kind == "+" else value - term
        return value

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek().kind == "^":
            self.take()
            tok = self.expect("num")
            if tok.value > self.exponent_cap:
                raise PolynomialSyntaxError(
                    f"exponent {tok.value} exceeds cap {self.exponent_cap}",
                    tok.pos,
                )
            return base ** tok.value
        return base

    def parse_base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.take()
                den = self.expect("num")
                if den.value == 0:
                    raise PolynomialSyntaxError("division by zero", den.pos)
                value = Fraction(tok.value, den.value)
            return Polynomial.constant(value, self.nvars)
        if tok.kind == "var":
            self.take()
            if not 1 <= tok.value <= self.nvars:
                raise PolynomialSyntaxError(
                    f"variable x{tok.value} out of range (n = {self.nvars})",
                    tok.pos,
                )
            return Polynomial.variable(tok.value - 1, self.nvars)
        if tok.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise PolynomialSyntaxError(
            f"expected a number, variable or '(', found {tok.kind!r}", tok.pos
        )


def factor_parse_polynomial(
    text: str, nvars: int = 3, exponent_cap: int = 10_000
) -> Polynomial:
    """The expression parser as it was before terms were built straight
    from the text: every factor becomes a Polynomial and every operator a
    ring operation.  Reference for ASCII input only (it reads digits with
    str.isdigit, so it takes non-ASCII digits that the library rejects)."""
    tokens = _factor_tokenize(text)
    parser = _FactorParser(tokens, nvars, exponent_cap)
    value = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise PolynomialSyntaxError(
            f"trailing input starting with {tail.kind!r}"
            + (" (implicit multiplication is not allowed)" if tail.kind in ("num", "var", "(") else ""),
            tail.pos,
        )
    return value


# Helpers moved out of the library: only the invariant suites call them.


def compose(first: Endo, second: Endo, budget: Optional[Budget] = None) -> Endo:
    """Substitute the first map's components into the second map's."""
    if first.nvars != second.nvars:
        raise DomainError("variable counts differ")
    return Endo(
        tuple(substitute(g, first.components, budget) for g in second.components)
    )


def mdeg_w(endo: Endo, weights=None) -> tuple:
    """Componentwise weighted degrees; None weights mean total degree."""
    return tuple(degree_w(c, weights) for c in endo.components)


def deg_w_total(endo: Endo, weights=None):
    degs = mdeg_w(endo, weights)
    total = None
    for d in degs:
        if d is NEG_INF:
            return NEG_INF
        total = d if total is None else total + d
    return total


def wedge3_degree(f1: Polynomial, f2: Polynomial, f3: Polynomial, weights=None):
    """Weighted degree of df1 ^ df2 ^ df3 in three variables: degree of the
    Jacobian determinant times x1*x2*x3, NEG_INF for vanishing Jacobian."""
    if not (f1.nvars == f2.nvars == f3.nvars == 3):
        raise DomainError("wedge3_degree needs three trivariate polynomials")
    ws = coerce_weight_vector(weights, 3)
    jac = jacobian_det([f1, f2, f3])
    if jac.is_zero:
        return NEG_INF
    return degree_w(jac, ws) + ws[0] + ws[1] + ws[2]


def leading_form(f: Polynomial, weights=None) -> Polynomial:
    """Sum of the terms of maximal weighted degree; zero for zero input."""
    ws = coerce_weight_vector(weights, f.nvars)
    scored = [(degree_w(Polynomial.monomial(mono, 1, f.nvars), ws), mono) for mono in f.terms]
    top = max((val for val, _ in scored), default=None)
    return Polynomial(f.nvars, {mono: f.terms[mono] for val, mono in scored if val == top})


def constant_value(f: Polynomial) -> Fraction:
    """The value of a constant polynomial as a Fraction (0 for zero)."""
    if not f.is_constant:
        raise DomainError("polynomial is not constant")
    return Fraction(next(iter(f.terms.values()), 0))


def power_dependence(h1: Polynomial, h2: Polynomial) -> Optional[tuple[int, Fraction]]:
    """(l, c) with h1 == c * h2**l for a positive integer l and nonzero
    rational c, or None.  The only candidate l is the total-degree ratio."""
    if h1.is_zero or h2.is_zero:
        raise DomainError("power_dependence needs nonzero polynomials")
    if h1.nvars != h2.nvars:
        raise DomainError("variable counts differ")
    deg1 = h1.total_degree_int()
    deg2 = h2.total_degree_int()
    if deg2 == 0:
        if deg1 != 0:
            return None
        return (1, constant_value(h1) / constant_value(h2))
    if deg1 == 0 or deg1 % deg2 != 0:
        return None
    l = deg1 // deg2
    p = power(h2, l)
    mono = next(iter(p.terms))
    if mono not in h1.terms:
        return None
    c = Fraction(h1.terms[mono], p.terms[mono])
    return (l, c) if h1 == c * p else None


@dataclass(frozen=True)
class LemmaAReport:
    """Arithmetic screens, any of which certifies condition (a) for a sorted
    triple satisfying (c): the reduced degrees d_i' = d_i / gcd(d1,d2,d3)
    drive parity and congruence tests, plus primality of d3 and two gap
    inequalities."""

    conditions: tuple
    c_holds: bool

    def holds(self, name: str) -> bool:
        for c in self.conditions:
            if c.name == name:
                return c.holds
        raise KeyError(name)

    @property
    def implies_a(self) -> bool:
        return self.c_holds and any(c.holds for c in self.conditions)


def lemma_a_conditions(d1: int, d2: int, d3: int) -> LemmaAReport:
    if not (0 < d1 <= d2 <= d3):
        raise DomainError("degrees must satisfy 0 < d1 <= d2 <= d3")
    g = gcd(gcd(d1, d2), d3)
    r1, r2, r3 = d1 // g, d2 // g, d3 // g
    odd1, odd2, odd3 = r1 % 2 == 1, r2 % 2 == 1, r3 % 2 == 1
    conds = []

    def put(name, holds, text):
        conds.append(Condition(name, holds, (Clause(text, "", "", holds),)))

    put("1", odd1 and (odd2 or r3 % 3 != 0),
        f"d1'={r1} odd and (d2'={r2} odd or d3'={r3} not divisible by 3)")
    put("2", d1 != 2 * gcd(d1, d3) and odd2,
        f"d1={d1} != 2*gcd(d1,d3)={2 * gcd(d1, d3)} and d2'={r2} odd")
    put("3", r1 % 4 == 0 and odd2 and odd3,
        f"d1'={r1} divisible by 4 and d2'={r2}, d3'={r3} odd")
    put("4", is_prime(d3), f"d3={d3} prime")
    put("5", d3 - d2 >= d1 - 2, f"d3-d2={d3 - d2} >= d1-2={d1 - 2}")
    put("6", odd1 and (3 * d2 != 2 * d3 or 2 * d1 <= d2 + 5),
        f"d1'={r1} odd and (3*d2={3 * d2} != 2*d3={2 * d3} or 2*d1={2 * d1} <= d2+5={d2 + 5})")
    return LemmaAReport(tuple(conds), check_total_abc(d1, d2, d3).holds("c"))


def public_witness_word(asked) -> Optional[TameWord]:
    """The witness classify_total returns for the triple asked (any order),
    or None when neither semigroup template applies: the template of the
    sorted triple built through public shear and Polynomial.monomial, then
    the permutation that carries the sorted triple to asked, expanded into
    transposition words on every call."""
    ordered = sorted(asked)
    d1, d2, d3 = ordered
    member = semigroup_member(GroupElem((d3,)), GroupElem((d1,)), GroupElem((d2,)))
    if member is not None:
        a, b = member
        shears = ((0, (0, 0, d1)), (1, (0, 0, d2)), (2, (a, b, 0)))
    elif d2 % d1 == 0:
        shears = ((2, (d3, 0, 0)), (0, (0, d1, 0)), (1, (d2 // d1, 0, 0)))
    else:
        return None
    word = TameWord(tuple(shear(t, Polynomial.monomial(e)) for t, e in shears), 3)
    # perm[i] indexes the sorted triple: a stable sort takes equal degrees
    # left to right
    perm = [0, 0, 0]
    for k, i in enumerate(sorted(range(3), key=lambda i: asked[i])):
        perm[i] = k
    current = [0, 1, 2]
    for pos in range(3):
        at = current.index(perm[pos])
        if at != pos:
            word = word + transposition_word(pos, at, 3)
            current[pos], current[at] = current[at], current[pos]
    return word
