"""Recursive-descent parser for polynomial expressions and degree vectors.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | var | '(' expr ')'
    rational := nat ('/' nat)?
    var    := 'x' nat          one-based variable index
    nat    := [0-9]+           ASCII digits only

The optional leading minus makes the canonical renderer's output for
polynomials with a negative leading coefficient parse back; apart from that
the grammar is exactly the one the renderer targets, so parse(render(f)) is
the identity.  Any other character, a non-ASCII digit included, is a
syntax error at its position.

Degree and weight vectors ('5', '[1,0,2]') hold integers: an optional sign, then nat.

Text becomes terms directly: a term's numbers and variable powers multiply
into one coefficient and one exponent list, and an expression adds its
terms into one term map, settled once.  Only a parenthesized factor such
as ``(x2^2+x1*x3)^2`` runs polynomial products and powers.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import add as _add
from typing import Optional

from .errors import DomainError, PolynomialSyntaxError, _show
from .ordgroup import GroupElem
from .poly import Polynomial, _require_nvars, _settle, _trusted

DEFAULT_EXPONENT_CAP = 10_000

# [0-9], not \d: in a str pattern \d also matches non-ASCII digits.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(x[0-9]*)|([-+*^/()])|(\S))")
_INTEGER = re.compile(r"([-+]?)([0-9]+)")  # a degree or weight entry


def _tokenize(text: str) -> list[tuple]:
    """(kind, value, pos) triples, closed by ("end", None, len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        pos = m.start(group)
        if group == 1:
            tokens.append(("num", _nat(m[1], pos), pos))
        elif group == 2:
            if len(m[2]) == 1:
                raise PolynomialSyntaxError("variable needs an index, like x1", pos)
            tokens.append(("var", _nat(m[2][1:], pos), pos))
        elif group == 3:
            tokens.append((m[3], m[3], pos))
        else:
            raise PolynomialSyntaxError(f"unexpected character {m[4]!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


def _nat(digits: str, pos: Optional[int] = None) -> int:
    """The value of ASCII digits.  More of them than Python's int-string
    digit limit lets int() read (the only way int() fails on [0-9]+) are
    named by their count: a syntax error at pos, or a DomainError when pos
    is None (a vector entry)."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"{len(digits)}-digit number exceeds Python's limit of {limit} digits"
        error = DomainError(message) if pos is None else PolynomialSyntaxError(message, pos)
        raise error from None


class _Parser:
    def __init__(self, tokens: list[tuple], nvars: int, exponent_cap: int):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars
        self.exponent_cap = exponent_cap

    def expect(self, kind: str) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise PolynomialSyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    def parse_expr(self) -> Polynomial:
        terms: dict = {}
        sign = 1
        if self.tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        while True:
            self.parse_term(terms, sign)
            kind = self.tokens[self.i][0]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                return _trusted(self.nvars, _settle(terms))
            self.i += 1

    def parse_term(self, terms: dict, sign: int) -> None:
        """Add sign times the next term into terms."""
        coeff = sign
        exps = [0] * self.nvars
        product: Optional[Polynomial] = None  # of the parenthesized factors
        while True:
            kind, value, pos = self.tokens[self.i]
            self.i += 1
            if kind == "num":
                if self.tokens[self.i][0] == "/":
                    self.i += 1
                    _, den, den_pos = self.expect("num")
                    if den == 0:
                        raise PolynomialSyntaxError("division by zero", den_pos)
                    value = Fraction(value, den)
                coeff *= value ** self.exponent()
            elif kind == "var":
                if not 1 <= value <= self.nvars:
                    raise PolynomialSyntaxError(
                        f"variable x{value} out of range (n = {self.nvars})", pos
                    )
                exps[value - 1] += self.exponent()
            elif kind == "(":
                inner = self.parse_expr()
                self.expect(")")
                e = self.exponent()
                if e != 1:
                    inner = inner ** e
                product = inner if product is None else product * inner
            else:
                raise PolynomialSyntaxError(
                    f"expected a number, variable or '(', found {kind!r}", pos
                )
            if self.tokens[self.i][0] != "*":
                break
            self.i += 1
        get = terms.get
        if product is None:
            key = tuple(exps)
            terms[key] = get(key, 0) + coeff
        else:
            for mono, c in product.terms.items():
                key = tuple(map(_add, mono, exps))
                terms[key] = get(key, 0) + coeff * c

    def exponent(self) -> int:
        """The '^ nat' after a base, or 1 when there is none."""
        if self.tokens[self.i][0] != "^":
            return 1
        self.i += 1
        _, value, pos = self.expect("num")
        if value > self.exponent_cap:
            digits = str(value)  # past 20 digits, name the length, not the value
            what = f"exponent {digits}" if len(digits) <= 20 else f"{len(digits)}-digit exponent"
            raise PolynomialSyntaxError(f"{what} exceeds cap {self.exponent_cap}", pos)
        return value


def parse_polynomial(
    text: str, nvars: int = 3, exponent_cap: int = DEFAULT_EXPONENT_CAP
) -> Polynomial:
    """Parse an expression into a canonical polynomial in nvars variables."""
    if not isinstance(text, str):
        raise DomainError(f"expected polynomial text, got {_show(text)}")
    _require_nvars(nvars)
    if type(exponent_cap) is not int or exponent_cap < 0:
        raise DomainError(f"exponent cap must be an int >= 0, got {_show(exponent_cap)}")
    parser = _Parser(_tokenize(text), nvars, exponent_cap)
    value = parser.parse_expr()
    kind, _, pos = parser.tokens[parser.i]
    if kind != "end":
        raise PolynomialSyntaxError(
            f"trailing input starting with {kind!r}"
            + (" (implicit multiplication is not allowed)" if kind in ("num", "var", "(") else ""),
            pos,
        )
    return value


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, as numbers are in polynomial text."""
    m = _INTEGER.fullmatch(text.strip())
    if m is None:
        raise DomainError(f"bad integer {_show(text.strip())}")
    return -_nat(m[2]) if m[1] == "-" else _nat(m[2])


def parse_vector(text: str) -> GroupElem:
    """Parse '5' or '[1,0,2]' into a group element."""
    text = text.strip()
    if not text.startswith("["):
        return GroupElem((_integer(text),))
    if not text.endswith("]"):
        raise DomainError(f"unclosed bracket in {_show(text)}")
    inner = text[1:-1].strip()
    if not inner:
        raise DomainError("empty vector")
    try:
        return GroupElem(tuple(_integer(p) for p in inner.split(",")))
    except DomainError as exc:
        raise DomainError(f"bad vector {_show(text)}: {exc}") from None


def split_vector_entries(text: str) -> list[str]:
    """Split on commas that sit outside brackets.  An empty entry raises
    DomainError, unless every entry is empty: then the list is []."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise DomainError(f"unbalanced ']' in {_show(text)}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise DomainError(f"unbalanced '[' in {_show(text)}")
    parts.append("".join(current))
    parts = [p.strip() for p in parts]
    if any(parts) and "" in parts:
        raise DomainError(f"empty entry in {_show(text)}")
    return [p for p in parts if p]


def parse_vector_list(text: str, rank: Optional[int] = None) -> list[GroupElem]:
    """Parse a comma-separated list of vector entries, enforcing one rank."""
    if rank is not None and rank < 1:
        raise DomainError(f"rank must be at least 1, got {_show(rank)}")
    entries = [parse_vector(p) for p in split_vector_entries(text)]
    if not entries:
        raise DomainError("empty entry list")
    want = rank if rank is not None else entries[0].rank
    for e in entries:
        if e.rank != want:
            raise DomainError(
                f"mixed ranks in {_show(text)}: expected rank {want}, got {e.rank}"
            )
    return entries
