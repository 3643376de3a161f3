import operator
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedeg import (
    NEG_INF,
    DomainError,
    GroupElem,
    RankMismatchError,
    Weight,
    dependent_pair,
    frobenius_number,
    gcd_lcm,
    ge,
    least_combination_exceeding,
    multiple_of,
    rank_profile,
    semigroup_member,
    w_star,
)
from tamedeg.ordgroup import (
    _member1,
    _multiple1,
    _pair1,
    _semigroup_solve,
    coerce_weight_vector,
    independent_triple,
    least_multiple_exceeding,
)
from oracles import (
    dp_frobenius,
    dp_representable,
    enum_least_combination,
    enum_w_star,
    frac_dependent_pair,
    fraction_rank,
)

vectors = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(*([st.integers(min_value=-50, max_value=50)] * k))
)


class TestLexOrder:
    def test_basic_comparisons(self):
        assert ge(1, 2) < ge(1, 3)
        assert ge(0, 5) < ge(1, 0)
        assert ge(4, 7) == ge(4, 7) and not ge(4, 7) < ge(4, 7)
        assert ge(2, -1) > ge(1, 100)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            ge(1) < ge(1, 2)
        with pytest.raises(RankMismatchError):
            ge(1, 2) + ge(1, 2, 3)

    @given(vectors, vectors, vectors)
    @settings(max_examples=200)
    def test_translation_invariance(self, a, b, c):
        if not (len(a) == len(b) == len(c)):
            return
        ga, gb, gc = GroupElem(a), GroupElem(b), GroupElem(c)
        assert (ga < gb) == (ga + gc < gb + gc)

    @pytest.mark.parametrize(
        "op, against_neg_inf",
        [(operator.lt, False), (operator.le, False), (operator.gt, True),
         (operator.ge, True), (operator.add, NEG_INF), (operator.sub, TypeError)],
    )
    def test_operators_check_their_operand(self, op, against_neg_inf):
        with pytest.raises(RankMismatchError, match="rank mismatch: 2 vs 3"):
            op(ge(1, 2), ge(1, 2, 3))
        for other in (5, (1, 2), None):
            with pytest.raises(TypeError, match="expected GroupElem"):
                op(ge(1, 2), other)
        if against_neg_inf is TypeError:
            with pytest.raises(TypeError):
                op(ge(1, 2), NEG_INF)
        else:
            assert op(ge(1, 2), NEG_INF) is against_neg_inf

    def test_neg_inf_below_everything(self):
        assert NEG_INF < ge(-100, -100)
        assert not (ge(0, 0) < NEG_INF)
        assert NEG_INF + ge(5) is NEG_INF
        assert ge(5) + NEG_INF is NEG_INF

    def test_positivity(self):
        assert ge(0, 0, 1).is_positive
        assert ge(1, -99).is_positive
        assert not ge(0, -1, 5).is_positive
        assert not ge(0, 0).is_positive


class TestDependentPair:
    def test_spec_examples(self):
        assert dependent_pair(ge(4), ge(10)) == (2, 5, ge(2))
        assert dependent_pair(ge(2, 4), ge(3, 6)) == (2, 3, ge(1, 2))
        assert dependent_pair(ge(1, 0), ge(0, 1)) is None

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
    )
    @settings(max_examples=300)
    def test_round_trip(self, u1, u2, dcoords):
        from math import gcd

        g = gcd(u1, u2)
        u1, u2 = u1 // g, u2 // g
        d = GroupElem(dcoords)
        if not d.is_positive:
            return
        got = dependent_pair(u1 * d, u2 * d)
        assert got is not None
        v1, v2, e = got
        assert v2 * (u1 * d) == v1 * (u2 * d)
        assert v1 * e == u1 * d and v2 * e == u2 * d
        assert (v1, v2) == (u1, u2)

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(*[st.tuples(*[st.integers(-6, 6)] * k)] * 3)
        ),
        st.integers(1, 9),
        st.integers(1, 9),
        st.booleans(),
    )
    @settings(max_examples=400)
    def test_matches_fraction_oracle(self, coords, m1, m2, dependent):
        # half the pairs are dependent by construction, the rest mostly not
        a, b, c = map(GroupElem, coords)
        d1, d2 = (m1 * c, m2 * c) if dependent else (a, b)
        if not (d1.is_positive and d2.is_positive):
            return
        assert dependent_pair(d1, d2) == frac_dependent_pair(d1, d2)

    def test_gcd_lcm(self):
        assert gcd_lcm(ge(6), ge(9)) == (ge(3), ge(18))
        assert gcd_lcm(ge(2, 4), ge(3, 6)) == (ge(1, 2), ge(6, 12))
        d = ge(3, 1)
        assert gcd_lcm(d, d) == (d, d)
        with pytest.raises(DomainError):
            gcd_lcm(ge(1, 0), ge(0, 1))

    def test_gcd_lcm_matches_integers(self):
        from math import gcd, lcm

        for a, b in product(range(1, 25), repeat=2):
            g, l = gcd_lcm(ge(a), ge(b))
            assert g == ge(gcd(a, b)) and l == ge(lcm(a, b))


class TestMultipleOf:
    def test_spec_examples(self):
        assert multiple_of(ge(12), ge(4)) == 3
        assert multiple_of(ge(2, 4), ge(1, 2)) == 2
        assert multiple_of(ge(9), ge(6)) is None

    def test_zero_pattern(self):
        assert multiple_of(ge(0, 3), ge(0, 1)) == 3
        assert multiple_of(ge(1, 3), ge(0, 1)) is None


class TestSemigroupMember:
    def test_spec_examples(self):
        assert semigroup_member(ge(17), ge(3), ge(4)) == (3, 2)
        assert semigroup_member(ge(7), ge(3), ge(5)) is None
        assert (
            semigroup_member(ge(1, 0, 1), ge(1, 1, 0), ge(1, -1, 2)) is None
        )

    def test_independent_solvable(self):
        # 2*(1,1,0) + 3*(1,-1,2) = (5,-1,6)
        assert semigroup_member(ge(5, -1, 6), ge(1, 1, 0), ge(1, -1, 2)) == (2, 3)

    def test_memoized_value_and_bad_input_always_raises(self):
        _semigroup_solve.cache_clear()
        assert semigroup_member(ge(17), ge(3), ge(4)) == (3, 2)
        assert semigroup_member(ge(17), ge(3), ge(4)) == (3, 2)
        assert semigroup_member(ge(5, -1, 6), ge(1, 1, 0), ge(1, -1, 2)) == (2, 3)
        info = _semigroup_solve.cache_info()
        assert (info.hits, info.misses) == (1, 2) and info.maxsize is not None
        for _ in range(2):
            with pytest.raises(DomainError):
                semigroup_member(ge(5), ge(0), ge(3))
            with pytest.raises(DomainError):
                semigroup_member(ge(5), ge(3), ge(-1))
            with pytest.raises(RankMismatchError):
                semigroup_member(ge(5, 1), ge(1), ge(3))
        assert _semigroup_solve.cache_info().currsize == 2

    def test_against_dp_oracle(self):
        for e1, e2 in product(range(1, 11), repeat=2):
            for d in range(1, 201):
                got = semigroup_member(ge(d), ge(e1), ge(e2))
                reps = dp_representable(d, e1, e2)
                if reps:
                    assert got is not None
                    a, b = got
                    assert a * e1 + b * e2 == d
                    assert a == min(r[0] for r in reps), "smallest-a tie break"
                else:
                    assert got is None


class TestRankOneKernels:
    """The int kernels behind dependent_pair, multiple_of and
    semigroup_member at rank 1, which the classifier calls directly there."""

    def test_no_fixed_width(self):
        k = 10**30
        assert _pair1(4 * k, 6 * k) == (2, 3, 2 * k)
        assert _multiple1(9 * k, 3 * k) == 3 and _multiple1(9 * k, 2 * k) is None
        assert _member1(17 * k, 3 * k, 4 * k) == (3, 2)
        assert _member1(7 * k + 1, 3 * k, 4 * k) is None


class TestFrobenius:
    def test_spec_examples_against_oracle(self):
        for pair, expected in (((3, 5), 7), ((2, 3), 1), ((3, 4), 5)):
            assert frobenius_number(*pair) == expected
            assert dp_frobenius(*pair) == expected

    def test_against_dp_oracle(self):
        from math import gcd

        for u1 in range(2, 31):
            for u2 in range(u1 + 1, 31):
                if gcd(u1, u2) != 1:
                    continue
                f = frobenius_number(u1, u2)
                assert f == dp_frobenius(u1, u2)
                for x in range(f + 1, 201):
                    assert semigroup_member(ge(x), ge(u1), ge(u2)) is not None

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            frobenius_number(4, 6)
        with pytest.raises(DomainError):
            frobenius_number(1, 5)


class TestLeastMultipleExceeding:
    def test_spec_examples(self):
        assert least_multiple_exceeding(ge(3), ge(7)) == 3
        assert least_multiple_exceeding(ge(3), ge(-1)) == 1
        assert least_multiple_exceeding(ge(0, 1), ge(1, 0)) is None

    def test_minimality(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(1, 3)
            e = GroupElem([rng.randint(-4, 6) for _ in range(k)])
            if not e.is_positive:
                continue
            t = GroupElem([rng.randint(-30, 30) for _ in range(k)])
            b = least_multiple_exceeding(e, t)
            if b is None:
                for j in range(1, 200):
                    assert not (j * e > t)
            else:
                assert b * e > t
                assert b == 1 or not ((b - 1) * e > t)


class TestLeastCombinationExceeding:
    def test_spec_examples(self):
        assert least_combination_exceeding(ge(2), ge(3), ge(7)) == ge(8)
        assert least_combination_exceeding(ge(1), ge(1), ge(2)) == ge(3)
        assert least_combination_exceeding(ge(1), ge(2), ge(4)) == ge(5)

    def test_empty_set(self):
        assert least_combination_exceeding(ge(0, 1), ge(0, 1), ge(1, 0)) is None

    def test_asymmetric_roles(self):
        # only swapping e1 and e2 terminates the staircase here
        assert least_combination_exceeding(ge(0, 1), ge(1, 0), ge(3, 0)) is not None

    def test_against_enumeration_rank1(self):
        for e1, e2 in product(range(1, 13), repeat=2):
            for t in range(-2, 30):
                got = least_combination_exceeding(ge(e1), ge(e2), ge(t))
                want = enum_least_combination((e1,), (e2,), (t,))
                assert got is not None and got.coords == want

    def test_against_enumeration_rank2(self):
        rng = random.Random(23)
        for _ in range(250):
            e1 = GroupElem([rng.randint(0, 8), rng.randint(-8, 8)])
            e2 = GroupElem([rng.randint(0, 8), rng.randint(-8, 8)])
            if not (e1.is_positive and e2.is_positive):
                continue
            t = GroupElem([rng.randint(-8, 8), rng.randint(-8, 8)])
            got = least_combination_exceeding(e1, e2, t)
            want = enum_least_combination(e1.coords, e2.coords, t.coords)
            if got is not None:
                assert got.coords == want
            else:
                assert want is None


class TestWStar:
    def test_unit_weights(self):
        assert w_star([ge(1), ge(1), ge(1)]) == ge(3)

    def test_derived_examples(self):
        assert w_star([ge(1), ge(2), ge(3)]) == ge(5)
        assert w_star([ge(2), ge(3), ge(5)]) == ge(8)

    def test_against_enumeration_integer_weights(self):
        for w1 in range(1, 13):
            for w2 in range(w1, 13):
                for w3 in range(w2, 13):
                    got = w_star([ge(w1), ge(w2), ge(w3)])
                    assert got.coords == enum_w_star((w1,), (w2,), (w3,))

    def test_against_enumeration_rank2(self):
        rng = random.Random(5)
        checked = 0
        while checked < 150:
            ws = [
                GroupElem([rng.randint(0, 8), rng.randint(-8, 8)]) for _ in range(3)
            ]
            if not all(w.is_positive for w in ws):
                continue
            got = w_star(ws)
            want = enum_w_star(*[w.coords for w in ws])
            assert got.coords == want
            checked += 1


    def test_memoized_value_ignores_order_and_bad_input_always_raises(self):
        for ws in (
            (ge(2), ge(3), ge(5)),
            (ge(1), ge(1), ge(2)),
            (ge(1, 2), ge(0, 3), ge(1, -1)),
        ):
            want = enum_w_star(*[w.coords for w in ws])
            for _ in range(2):
                for perm in permutations(ws):
                    assert w_star(list(perm)).coords == want
        for bad in (
            [ge(1), ge(0), ge(2)],
            [ge(1), ge(-3), ge(2)],
            [ge(1), ge(2)],
            [ge(1), ge(2), ge(3), ge(4)],
        ):
            for _ in range(2):
                with pytest.raises(DomainError):
                    w_star(bad)
        assert w_star([ge(3), ge(2), ge(1)]) == ge(5)


class TestRankProfile:
    def test_spec_examples(self):
        p = rank_profile(ge(1, 1, 0), ge(1, -1, 2), ge(1, 0, 1))
        assert p.pairwise_independent and p.triple_dependent
        p = rank_profile(ge(2), ge(4), ge(5))
        assert p.pair_12_dependent and p.pair_13_dependent and p.pair_23_dependent
        assert p.triple_dependent
        p = rank_profile(ge(1, 0, 0), ge(0, 1, 0), ge(0, 0, 1))
        assert p.pairwise_independent and not p.triple_dependent

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda k: st.tuples(
                *[st.tuples(*[st.integers(min_value=-4, max_value=4)] * k)] * 3
            )
        )
    )
    @settings(max_examples=300)
    def test_minor_test_matches_elimination(self, rows):
        assert independent_triple(*rows) == (fraction_rank(rows) == 3)


class TestWeight:
    def test_validation(self):
        with pytest.raises(DomainError):
            Weight.of(1, -1, 1)
        with pytest.raises(RankMismatchError):
            Weight(ge(1), ge(1, 0), ge(1))

    def test_total_and_sorted(self):
        w = Weight.of(3, 1, 2)
        assert w.total == ge(6)

    def test_coerce_trusts_a_weight_and_checks_raw_input(self):
        w = Weight.of(3, 1, (2,))
        got = coerce_weight_vector(w, 3)
        assert got == (ge(3), ge(1), ge(2))
        assert all(a is b for a, b in zip(got, (w.w1, w.w2, w.w3)))
        with pytest.raises(DomainError):
            coerce_weight_vector(w, 2)
        for _ in range(2):  # raw input is validated on every call
            with pytest.raises(DomainError):
                coerce_weight_vector((1, 0, 1), 3)
            with pytest.raises(DomainError):
                coerce_weight_vector((1, 1), 3)
            with pytest.raises(RankMismatchError):
                coerce_weight_vector((1, (1, 0), 1), 3)
