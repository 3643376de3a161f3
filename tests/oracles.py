"""Brute-force reference implementations the fast paths are checked against.

Everything here is deliberately naive: plain enumeration, dynamic
programming and schoolbook polynomial arithmetic on plain dicts with
Fraction coefficients, independent of the library's algorithms.
"""

from fractions import Fraction
from itertools import product


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
