import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    constant_value,
    pair_loop_product,
    frac_add,
    frac_jacobian_det,
    frac_multiply,
    frac_partial,
    frac_power,
    frac_scale,
    frac_substitute,
    frac_terms,
    frac_wedge2_degree,
    leading_form,
    power_dependence,
    wedge3_degree,
)
from tamedeg import (
    DomainError,
    Endo,
    Polynomial,
    TameWord,
    certify_wild,
    degree_w,
    ge,
    intro_family,
    jacobian_det,
    mdeg,
    parse_polynomial,
    parse_vector_list,
    realize,
    render,
    shear,
    substitute,
    wedge2_degree,
)
from tamedeg.errors import BudgetExceededError
from tamedeg.ordgroup import coerce_weight_vector
from tamedeg.poly import (
    Budget, _Jacobian, _pack, _pack_width, _pmul, _ppartial, _psquare, _unpack,
    _wedge_degree, multiply, power,
)

X1, X2, X3 = (Polynomial.variable(i, 3) for i in range(3))
Y1, Y2 = (Polynomial.variable(i, 2) for i in range(2))


def random_poly(rng, nvars=3, max_deg=6, max_terms=6):
    p = Polynomial.zero(nvars)
    for _ in range(rng.randint(1, max_terms)):
        expo = [0] * nvars
        budget = rng.randint(0, max_deg)
        for i in range(nvars):
            expo[i] = rng.randint(0, budget)
            budget -= expo[i]
        coeff = rng.choice([c for c in range(-5, 6) if c != 0])
        p = p + Polynomial.monomial(expo, coeff)
    return p


class TestRingOps:
    def test_canonical_zero(self):
        f = X1 + X2
        assert (f - f).is_zero
        assert (f + (-f)).is_zero
        assert Polynomial(3, {(1, 0, 0): 0}).is_zero

    def test_difference_of_squares(self):
        assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2

    def test_substitute_example(self):
        # substitute(x1^2, [x1 + x3^2, x2, x3]) expanded by hand:
        # (x1 + x3^2)^2 = x1^2 + 2 x1 x3^2 + x3^4
        got = substitute(X1 ** 2, [X1 + X3 ** 2, X2, X3])
        want = X1 ** 2 + 2 * X1 * X3 ** 2 + X3 ** 4
        assert got == want

    def test_substitute_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_poly(rng)
            assert substitute(f, [X1, X2, X3]) == f

    def test_rational_coefficients(self):
        f = Fraction(1, 2) * X1 + Fraction(1, 3) * X1
        assert f == Fraction(5, 6) * X1

    def test_mismatched_nvars(self):
        with pytest.raises(DomainError):
            X1 + Polynomial.variable(0, 2)

    @pytest.mark.parametrize("call, message", [
        (lambda: Polynomial(3, {(1.5, 0, 0): 1}), r"need 3 exponents, ints >= 0, got \(1.5, 0, 0\)"),
        (lambda: Polynomial(3, {(True, 0, 0): 1}),
         r"need 3 exponents, ints >= 0, got \(True, 0, 0\)"),
        (lambda: Polynomial(3, {(-1, 0, 0): 1}), r"need 3 exponents, ints >= 0, got \(-1, 0, 0\)"),
        (lambda: Polynomial(3, {(1, 0): 1}), r"need 3 exponents, ints >= 0, got \(1, 0\)"),
        (lambda: Polynomial(3, {5: 1}), "need 3 exponents, ints >= 0, got 5"),
        (lambda: Polynomial(3, {"abc": 1}), "need 3 exponents, ints >= 0, got 'abc'"),
        (lambda: Polynomial(True), "polynomials need at least one variable, got nvars=True"),
        (lambda: Polynomial("3"), "polynomials need at least one variable, got nvars='3'"),
        (lambda: Polynomial(0), "polynomials need at least one variable, got nvars=0"),
        (lambda: parse_polynomial("x1", nvars="3"),
         "polynomials need at least one variable, got nvars='3'"),
        (lambda: Polynomial.variable(True, 3), "variable index True out of range for n=3"),
        (lambda: Polynomial(3, {(1, 0, 0): "x"}), "expected a rational number, got 'x'"),
        (lambda: Polynomial(3, {(1, 0, 0): None}), "expected a rational number, got None"),
        (lambda: Polynomial.constant(float("inf")), "expected a rational number, got inf"),
        (lambda: shear(0, X2, "a"), "expected a rational number, got 'a'"),
        (lambda: shear("a", X2), "target 'a' out of range for n=3"),
        (lambda: power(X1, True), "exponent must be a nonnegative integer"),
        (lambda: Polynomial(3, 5), "terms must map exponent tuples to coefficients, got 5"),
        (lambda: Polynomial(3, ["abc"]),
         r"terms must map exponent tuples to coefficients, got \['abc'\]"),
        (lambda: Polynomial.monomial(5), "exponents must be a sequence, got 5"),
        (lambda: Polynomial(3, {(1, 0, 0): True}), "expected a rational number, got True"),
        (lambda: Polynomial.constant(False), "expected a rational number, got False"),
        (lambda: X1 + True, "expected a rational number, got True"),
        (lambda: X1 * True, "expected a rational number, got True"),
        (lambda: shear(0, X2, True), "expected a rational number, got True"),
        (lambda: parse_polynomial("x1^2", exponent_cap="3"),
         "exponent cap must be an int >= 0, got '3'"),
        (lambda: parse_polynomial("x1^2", exponent_cap=True),
         "exponent cap must be an int >= 0, got True"),
        (lambda: parse_polynomial(5), "expected polynomial text, got 5"),
        (lambda: shear(0, "x2"), "shift must be a Polynomial, got 'x2'"),
        (lambda: TameWord((1, 2), 3), "each step must be an ElementaryAut, got 1"),
        (lambda: TameWord(5), "steps must be a sequence, got 5"),
        (lambda: certify_wild(5, (1, 1, 1)), "expected an Endo, got 5"),
        (lambda: realize(5), "expected a TameWord, got 5"),
        (lambda: degree_w(5, (1, 1, 1)), "expected a Polynomial, got 5"),
        (lambda: wedge2_degree(X1, 5), "expected a Polynomial, got 5"),
        (lambda: jacobian_det([X1, 5, X1]), "expected a Polynomial, got 5"),
        (lambda: Endo((1, 2, 3)), "each component must be a Polynomial, got 1"),
        (lambda: Endo(5), "components must be a sequence, got 5"),
        (lambda: TameWord((), True), "a word needs at least one variable, got nvars=True"),
        (lambda: TameWord((), 0), "a word needs at least one variable, got nvars=0"),
        (lambda: TameWord((shear(0, X2), shear(0, Y2)), 3),
         "all steps must use the same variable count"),
        (lambda: Endo((Y1, X2)), "each component must use n variables"),
        (lambda: mdeg(Endo((X1, X2, Polynomial(3, {})))), "zero component has no total degree"),
        (lambda: intro_family((2,)), r"need at least two primes \(n >= 3\)"),
        (lambda: certify_wild(Endo((Y1, Y2)), (1, 1, 1)),
         "wildness certification works in three variables"),
        (lambda: parse_vector_list("1]"), "unbalanced ']' in '1]'"),
        (lambda: parse_vector_list("[1,2"), r"unbalanced '\[' in '\[1,2'"),
        (lambda: parse_vector_list(","), "empty entry list"),
        (lambda: multiply(X1, Y1), "variable counts differ"),
        (lambda: wedge2_degree(X1, Y1), "variable counts differ"),
        (lambda: jacobian_det([X1, X2, Y1]), "need as many variables as components"),
        (lambda: substitute(X1, [X1, X2]), "need 3 replacement polynomials, got 2"),
        (lambda: substitute(X1, [X1, X2, Y1]), "replacements must share one variable count"),
    ], ids=["float-exponent", "bool-exponent", "negative-exponent", "short-exponents",
            "int-key", "str-key", "bool-nvars", "str-nvars",
            "zero-nvars", "parse-str-nvars", "bool-index", "str-coefficient", "none-coefficient",
            "infinite-coefficient", "str-scale", "str-target", "bool-power",
            "int-terms", "str-list-terms", "int-exponents", "bool-coefficient",
            "bool-constant", "bool-summand", "bool-factor", "bool-scale", "str-exponent-cap",
            "bool-exponent-cap", "int-text", "str-shift", "int-steps", "int-word",
            "int-certified-map", "int-realized-word", "int-degree-polynomial",
            "int-wedge-factor", "int-jacobian-component", "int-components", "int-endo",
            "bool-word-nvars", "zero-word-nvars", "mixed-word-nvars", "mixed-endo-nvars",
            "zero-mdeg-component", "one-prime", "two-variable-certified-map",
            "unbalanced-close", "unbalanced-open", "no-entries", "mixed-product-nvars",
            "mixed-wedge-nvars", "mixed-jacobian-nvars", "substitute-arity",
            "mixed-replacement-nvars"])
    def test_input_faults_are_domain_errors(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()


class TestDegrees:
    def test_degree_examples(self):
        f = X1 * X3 + X2 ** 2
        assert degree_w(f, (1, 2, 3)) == ge(4)
        assert degree_w(Polynomial.zero(3), (1, 2, 3)) is None
        assert degree_w(Polynomial.constant(7, 3), (1, 2, 3)) == ge(0)

    def test_leading_form_examples(self):
        f = X1 * X3 + X2 ** 2 + X1
        assert leading_form(f, (1, 2, 3)) == X1 * X3 + X2 ** 2
        assert leading_form(X1 + 1, (1, 1, 1)) == X1
        assert leading_form(Polynomial.zero(3)).is_zero

    def test_group_valued_weights(self):
        f = X1 * X2 + X3
        w = (ge(1, 0), ge(0, 1), ge(1, 1))
        assert degree_w(f, w) == ge(1, 1)
        assert leading_form(f, w) == f

    def test_product_rule_500_pairs(self):
        # multiplicativity of weighted degree and leading form
        rng = random.Random(17)
        for _ in range(500):
            f = random_poly(rng)
            g = random_poly(rng)
            if f.is_zero or g.is_zero:
                continue
            w = [rng.randint(1, 5) for _ in range(3)]
            assert degree_w(f * g, w) == degree_w(f, w) + degree_w(g, w)
            assert leading_form(f * g, w) == leading_form(f, w) * leading_form(g, w)


def partial(f: Polynomial, index: int) -> Polynomial:
    """The partial derivative that jacobian_det and wedge2_degree take on
    the packed kernel, packed and unpacked once."""
    width = _pack_width(f.total_degree_int())
    return _unpack(_ppartial(_pack(f.terms, width), index, f.nvars, width), f.nvars, width)


class TestPartials:
    def test_examples(self):
        assert partial(X1 ** 2 * X2, 0) == 2 * X1 * X2
        assert partial(X2 ** 3, 0).is_zero
        assert partial(X1 * X2 * X3, 2) == X1 * X2

    def test_leibniz(self):
        rng = random.Random(29)
        for _ in range(100):
            f = random_poly(rng)
            g = random_poly(rng)
            i = rng.randrange(3)
            assert partial(f * g, i) == partial(f, i) * g + f * partial(g, i)


class TestWedge:
    def test_wedge2_examples(self):
        assert wedge2_degree(X1, X2, (1, 1, 1)) == ge(2)
        assert wedge2_degree(X1 + X2 ** 2, X2, (1, 1, 1)) == ge(2)
        assert wedge2_degree(X1 ** 2, X1, (1, 1, 1)) is None

    def test_wedge2_antisymmetry_in_degree(self):
        rng = random.Random(31)
        for _ in range(50):
            f, g = random_poly(rng), random_poly(rng)
            w = [rng.randint(1, 4) for _ in range(3)]
            assert wedge2_degree(f, g, w) == wedge2_degree(g, f, w)

    def test_wedge2_vanishes_on_functional_dependence(self):
        rng = random.Random(37)
        for _ in range(40):
            f = random_poly(rng, max_deg=3)
            # g = p(f) for a random univariate p of degree <= 3
            coeffs = [rng.randint(-3, 3) for _ in range(4)]
            g = Polynomial.zero(3)
            for k, c in enumerate(coeffs):
                if c:
                    g = g + c * f ** k
            assert wedge2_degree(f, g, (1, 1, 1)) is None

    def test_wedge3_examples(self):
        assert wedge3_degree(X1, X2, X3, (1, 2, 3)) == ge(6)
        assert jacobian_det([X1, X2, X3]) == Polynomial.constant(1, 3)
        f1 = X1 + X3 ** 2
        assert jacobian_det([f1, X2, X3]) == Polynomial.constant(1, 3)
        assert wedge3_degree(f1, X2, X3, (1, 1, 1)) == ge(3)
        assert jacobian_det([X1, X1, X2]).is_zero
        assert wedge3_degree(X1, X1, X2, (1, 1, 1)) is None

    def test_jacobian_of_no_components_is_a_domain_error(self):
        with pytest.raises(DomainError, match="need at least one component"):
            jacobian_det([])


class TestPowerDependence:
    def test_examples(self):
        assert power_dependence(4 * X1 ** 6, X1 ** 2) == (3, Fraction(4))
        assert power_dependence(X1 + X2, X1) is None
        f = X1 + X2 ** 2
        assert power_dependence(f * f, f) == (2, Fraction(1))

    def test_constant_cases(self):
        two = Polynomial.constant(2, 3)
        six = Polynomial.constant(6, 3)
        assert power_dependence(six, two) == (1, Fraction(3))
        assert power_dependence(X1, two) is None
        with pytest.raises(DomainError):
            power_dependence(Polynomial.zero(3), X1)


class TestRender:
    def test_golden(self):
        f = -X1 ** 2 * X2 + Fraction(1, 2) * X3 - 7
        assert render(f) == "-x1^2*x2 + 1/2*x3 - 7"
        assert render(Polynomial.zero(3)) == "0"
        assert render(X1 ** 2) == "x1^2"

    def test_grlex_order(self):
        f = X3 + X1 * X2 + X2 ** 2
        # degree-2 terms first, lex-descending among them
        assert render(f) == "x1*x2 + x2^2 + x3"


coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=4),
    ),
)
term_maps = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    coefficients,
    max_size=5,
)
# one- and two-term maps: the closed-form, one-term and squaring paths
short_maps = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    coefficients,
    min_size=1,
    max_size=2,
)


def maps_in(nvars):
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars),
        coefficients,
        max_size=4,
    )


# rank-1 and rank-2 weights, as coordinate tuples; a rank-2 weight is
# positive when it is lexicographically above (0, 0)
WEIGHTS = (
    st.tuples(st.integers(min_value=1, max_value=5)),
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=3))
    .filter(lambda w: w > (0, 0)),
)

# rank-3 weights: independent or not, each positive
RANK3 = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3).filter(
    lambda w: w > (0, 0, 0))


def assert_matches(poly, oracle_terms):
    """poly equals the oracle's term map, and stores an int exactly where
    the coefficient is integral."""
    assert poly.terms == oracle_terms
    for c in poly.terms.values():
        if Fraction(c).denominator == 1:
            assert type(c) is int, c
        else:
            assert type(c) is Fraction, c


class TestAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(term_maps, term_maps, coefficients)
    def test_ring_ops(self, a, b, c):
        f, g = Polynomial(3, a), Polynomial(3, b)
        fa, fb = frac_terms(a), frac_terms(b)
        assert_matches(f, fa)
        assert_matches(f + g, frac_add(fa, fb))
        assert_matches(f - g, frac_add(fa, frac_scale(fb, -1)))
        assert_matches(-f, frac_scale(fa, -1))
        assert_matches(f * g, frac_multiply(fa, fb))
        assert_matches(f * c, frac_scale(fa, c))
        assert_matches(c * f, frac_scale(fa, c))
        assert_matches(f + c, frac_add(fa, frac_terms({(0, 0, 0): c})))

    @settings(max_examples=100, deadline=None)
    @given(term_maps, st.integers(min_value=0, max_value=9))
    def test_power(self, a, e):
        assert_matches(power(Polynomial(3, a), e), frac_power(frac_terms(a), e, 3))

    @settings(max_examples=100, deadline=None)
    @given(short_maps, st.integers(min_value=0, max_value=9))
    def test_power_of_short_bases(self, a, e):
        assert_matches(power(Polynomial(3, a), e), frac_power(frac_terms(a), e, 3))

    @settings(max_examples=100, deadline=None)
    @given(term_maps, short_maps, short_maps, short_maps)
    def test_substitute_short_replacements(self, a, r1, r2, r3):
        reps = [Polynomial(3, r) for r in (r1, r2, r3)]
        want = frac_substitute(frac_terms(a), [frac_terms(r) for r in (r1, r2, r3)], 3)
        assert_matches(substitute(Polynomial(3, a), reps), want)

    @settings(max_examples=150, deadline=None)
    @given(term_maps, short_maps, st.integers(min_value=1, max_value=6))
    def test_packed_products_charge_as_the_pair_loop(self, a, b, cap):
        # the same canonical terms in the same order, the same term-cap
        # errors, and for a product the same multiplication count; a square
        # forms each cross product once
        def outcome(product, x, y):
            budget = Budget(cap)
            try:
                terms = [(k, c, type(c)) for k, c in product(x, y, budget).items()]
                return terms, budget.ops_used
            except BudgetExceededError as exc:
                return str(exc)

        def public(x, y, budget):  # multiply packs at a width of its own
            f, g = (_unpack(p, 3, 3) for p in (x, y))
            return _pack(multiply(f, g, budget).terms, 3)

        pa, pb = (_pack(Polynomial(3, t).terms, 3) for t in (a, b))
        for x, y in ((pa, pb), (pb, pa), (pb, pb)):
            want = outcome(pair_loop_product, x, y)
            assert outcome(_pmul, x, y) == want
            assert outcome(public, x, y) == want
        for x in (pa, pb):
            got = outcome(lambda x, _, budget: _psquare(x, budget), x, x)
            want = outcome(pair_loop_product, x, x)
            if isinstance(want, str):
                assert got == want
            else:
                n = len(x)
                assert got == (want[0], n * (n + 1) // 2)

    @settings(max_examples=100, deadline=None)
    @given(term_maps, term_maps, term_maps, term_maps)
    def test_substitute(self, a, r1, r2, r3):
        reps = [Polynomial(3, r) for r in (r1, r2, r3)]
        want = frac_substitute(frac_terms(a), [frac_terms(r) for r in (r1, r2, r3)], 3)
        assert_matches(substitute(Polynomial(3, a), reps), want)

    @settings(max_examples=100, deadline=None)
    @given(term_maps, st.integers(min_value=0, max_value=2))
    def test_partial(self, a, i):
        assert_matches(partial(Polynomial(3, a), i), frac_partial(frac_terms(a), i))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3, 4)).flatmap(lambda n: st.lists(
        maps_in(n), min_size=n, max_size=n)))
    def test_jacobian_det(self, maps):
        n = len(maps)
        got = jacobian_det([Polynomial(n, m) for m in maps])
        assert_matches(got, frac_jacobian_det([frac_terms(m) for m in maps], n))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((2, 4)).flatmap(lambda n: st.tuples(
        maps_in(n), maps_in(n), st.sampled_from(WEIGHTS).flatmap(
            lambda w: st.lists(w, min_size=n, max_size=n)))))
    def test_wedge2_degree(self, case):
        a, b, ws = case
        n = len(ws)
        got = wedge2_degree(Polynomial(n, a), Polynomial(n, b), ws)
        assert (None if got is None else got.coords) == frac_wedge2_degree(
            frac_terms(a), frac_terms(b), ws)

    @settings(max_examples=150, deadline=None)
    @given(maps_in(3), maps_in(3), maps_in(3),
           st.sampled_from(WEIGHTS + (RANK3,)).flatmap(
               lambda w: st.lists(w, min_size=3, max_size=3)))
    def test_determinant_hands_back_the_wedge_minors(self, a, b, c, ws):
        # a map's record expands the determinant along the third row against
        # the minors of any pair, whichever it is asked for first; each
        # pair's minors give that pair's wedge2_degree in either order
        comps = [Polynomial(3, m) for m in (a, b, c)]
        ws = coerce_weight_vector(ws, 3)
        det = jacobian_det(comps)
        record = _Jacobian(comps)
        for i, j in itertools.permutations(range(3), 2):
            assert _unpack(record.determinant(i, j), 3, record.width) in (det, -det)
            wedge = _wedge_degree(record.minors(i, j), 3, record.width, ws)
            assert wedge == wedge2_degree(comps[i], comps[j], ws)
        assert len(record.pairs) == 3  # one list of minors per unordered pair
        assert record.screen(2, 0) == (det.is_constant and not det.is_zero)

    @settings(max_examples=100, deadline=None)
    @given(term_maps)
    def test_render_parse_round_trip(self, a):
        f = Polynomial(3, a)
        back = parse_polynomial(render(f))
        assert back == f
        assert_matches(back, frac_terms(a))


class TestCanonicalCoefficients:
    def test_cancellation_leaves_no_zero_term(self):
        product = (X1 + X2) * (X1 - X2)
        assert product.terms == {(2, 0, 0): 1, (0, 2, 0): -1}
        assert_matches((X1 + Fraction(1, 2)) * (X1 - Fraction(1, 2)),
                       {(2, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1, 4)})

    def test_power_dependence_returns_fraction(self):
        h = X1 + X2 ** 2
        got = power_dependence(3 * h ** 2, h)
        assert got == (2, Fraction(3))
        assert type(got[1]) is Fraction
        half = power_dependence(Fraction(1, 2) * h, 3 * h)
        assert half == (1, Fraction(1, 6)) and type(half[1]) is Fraction

    def test_integral_fraction_is_stored_as_int(self):
        f = Polynomial(3, {(1, 0, 0): Fraction(4, 2)})
        assert f.terms == {(1, 0, 0): 2}
        assert type(f.terms[(1, 0, 0)]) is int

    def test_constant_value_is_fraction(self):
        assert type(constant_value(Polynomial.constant(5, 3))) is Fraction
        assert type(constant_value(Polynomial.zero(3))) is Fraction

    def test_packed_kernel_exponents_past_field_boundaries(self):
        # power and substitute size their packing from the exponents they
        # will reach; the expected values come from the tuple-keyed multiply
        big = 2**33 + 1
        assert power(X1 * X2 * X2, big) == Polynomial.monomial((big, 2 * big, 0))
        r = X1 + Polynomial.monomial((0, 0, 2**21 + 5), 2)
        want = r * r * Polynomial.monomial((0, 2**32, 0))
        got = substitute(Polynomial.monomial((2, 1, 0)), [r, Polynomial.monomial((0, 2**32, 0)), X3])
        assert got == want

    def test_scaling_by_one_returns_operand(self):
        f = X1 + Fraction(1, 3) * X2
        assert f * 1 is f
        assert f * Fraction(2, 2) is f
        assert_matches(f * 3, {(1, 0, 0): 3, (0, 1, 0): 1})
