import operator
import pickle
import random
from itertools import permutations, product

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedeg import (
    DomainError,
    GroupElem,
    RankMismatchError,
    Weight,
    classify_weighted,
    frobenius_number,
    ge,
    is_prime,
    least_combination_exceeding,
    rank_profile,
    semigroup_member,
    w_star,
)
from tamedeg import ordgroup
from tamedeg.ordgroup import (
    RankProfile,
    _extreme,
    _lce1,
    _member1,
    _multiple,
    _multiple1,
    _multiple_exceeding,
    _pair,
    _pair1,
    coerce_weight_vector,
    independent_triple,
)
from oracles import (
    dp_frobenius,
    dp_representable,
    enum_least_combination,
    enum_w_star,
    frac_dependent_pair,
    fraction_rank,
    scan_least_combination,
    scan_w_star,
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
        "op", [operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.sub]
    )
    def test_operators_check_their_operand(self, op):
        with pytest.raises(RankMismatchError, match="rank mismatch: 2 vs 3"):
            op(ge(1, 2), ge(1, 2, 3))
        # None, the degree of the zero polynomial, is no operand either
        for other in (5, (1, 2), None):
            with pytest.raises(TypeError, match="expected GroupElem"):
                op(ge(1, 2), other)

    @pytest.mark.parametrize("build", [
        lambda: GroupElem((True,)),
        lambda: GroupElem((1, False)),
        lambda: ordgroup.as_group_elem(True),
        lambda: Weight.of(True, 2, 3),
        lambda: Weight.of(1, (2, True), 3),
    ], ids=["coordinate", "second-coordinate", "as-group-elem", "weight-entry",
            "weight-coordinate"])
    def test_bools_are_no_integers(self, build):
        with pytest.raises(DomainError):
            build()

    def test_positivity(self):
        assert ge(0, 0, 1).is_positive
        assert ge(1, -99).is_positive
        assert not ge(0, -1, 5).is_positive
        assert not ge(0, 0).is_positive


class TestDependentPair:
    """The pair kernel _pair, which trusts its input: positive elements of
    one rank."""

    def test_spec_examples(self):
        assert _pair(ge(4), ge(10)) == (2, 5, ge(2))
        assert _pair(ge(2, 4), ge(3, 6)) == (2, 3, ge(1, 2))
        assert _pair(ge(1, 0), ge(0, 1)) is None

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
        got = _pair(u1 * d, u2 * d)
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
        assert _pair(d1, d2) == frac_dependent_pair(d1, d2)

    @staticmethod
    def gcd_lcm(d1, d2):
        """gcd d and lcm u1*u2*d of a dependent pair, as the classifier reads
        them off _pair."""
        u1, u2, d = _pair(d1, d2)
        return d, (u1 * u2) * d

    def test_gcd_lcm(self):
        assert self.gcd_lcm(ge(6), ge(9)) == (ge(3), ge(18))
        assert self.gcd_lcm(ge(2, 4), ge(3, 6)) == (ge(1, 2), ge(6, 12))
        d = ge(3, 1)
        assert self.gcd_lcm(d, d) == (d, d)

    def test_gcd_lcm_matches_integers(self):
        from math import gcd, lcm

        for a, b in product(range(1, 25), repeat=2):
            g, l = self.gcd_lcm(ge(a), ge(b))
            assert g == ge(gcd(a, b)) and l == ge(lcm(a, b))


class TestMultipleOf:
    """The multiple kernel _multiple, which trusts its input: elements of
    one rank."""

    def test_spec_examples(self):
        assert _multiple(ge(12), ge(4)) == 3
        assert _multiple(ge(2, 4), ge(1, 2)) == 2
        assert _multiple(ge(9), ge(6)) is None

    def test_zero_pattern(self):
        assert _multiple(ge(0, 3), ge(0, 1)) == 3
        assert _multiple(ge(1, 3), ge(0, 1)) is None


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

    def test_memoized_value_and_bad_input_always_raises(self, monkeypatch):
        # rank 1 is memoized in _member1; rank >= 2 is solved by _member on
        # every call, since no caller in the library asks it twice
        solved = []
        real = ordgroup._member
        monkeypatch.setattr(ordgroup, "_member", lambda *a: solved.append(a) or real(*a))
        _member1.cache_clear()
        for _ in range(2):
            assert semigroup_member(ge(17), ge(3), ge(4)) == (3, 2)
            assert semigroup_member(ge(5, -1, 6), ge(1, 1, 0), ge(1, -1, 2)) == (2, 3)
        info = _member1.cache_info()
        assert (info.hits, info.misses) == (1, 1) and info.maxsize is not None
        assert len(solved) == 2
        for _ in range(2):
            with pytest.raises(DomainError):
                semigroup_member(ge(5), ge(0), ge(3))
            with pytest.raises(DomainError):
                semigroup_member(ge(5), ge(3), ge(-1))
            with pytest.raises(DomainError):
                semigroup_member(ge(5, 1), ge(1, 0), ge(0, -1))
            with pytest.raises(RankMismatchError):
                semigroup_member(ge(5, 1), ge(1), ge(3))
            with pytest.raises(RankMismatchError):
                semigroup_member(ge(5), ge(1, 0), ge(1, 1))
        assert _member1.cache_info().currsize == 1
        assert len(solved) == 2  # a bad input never reaches the kernel

    def test_rank1_solved_by_the_int_kernel_alone(self, monkeypatch):
        solved = []
        real = ordgroup._member
        monkeypatch.setattr(ordgroup, "_member", lambda *a: solved.append(a) or real(*a))
        for d in range(-3, 40):
            assert semigroup_member(ge(d), ge(6), ge(10)) == _member1(d, 6, 10)
        for _ in range(2):
            with pytest.raises(DomainError):
                semigroup_member(ge(5), ge(0), ge(3))
            with pytest.raises(RankMismatchError):
                semigroup_member(ge(5), ge(2), ge(3, 1))
        assert solved == []

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
    """The int kernels behind _pair, _multiple and semigroup_member at rank
    1, which the classifier calls directly there."""

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


class TestIsPrime:
    PSI12 = 318665857834031151167461  # strong pseudoprime to every prime base up to 37
    PSI13 = 3317044064679887385961981  # ... and to 41: the least n it cannot decide

    def test_matches_a_sieve(self):
        n = 2 * 10**5
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
        for p in range(2, int(n**0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
        assert [k for k in range(n + 1) if is_prime(k)] == [k for k in range(n + 1) if sieve[k]]

    def test_large_primes_and_pseudoprimes(self):
        assert self.PSI12 == 399165290221 * 798330580441
        assert not is_prime(self.PSI12)
        assert is_prime(2**61 - 1) and is_prime(2**80 - 65)  # 2**89 - 1 is past the bound
        assert not is_prime(self.PSI13 - 1)

    @pytest.mark.parametrize("n", [PSI13, 2**89 - 1], ids=["psi13", "mersenne-89"])
    def test_past_the_bound_raises(self, n):
        with pytest.raises(DomainError, match=f"^primality is decided only below {self.PSI13},"):
            is_prime(n)


@pytest.mark.parametrize("call, message", [
    (lambda: w_star([1, 2, 3]), "expected a group element, got 1"),
    (lambda: w_star([ge(1), 2, 3]), "expected a group element, got 2"),
    (lambda: semigroup_member(ge(10), 3, 4), "expected a group element, got 3"),
    (lambda: least_combination_exceeding(2, 3, ge(5)), "expected a group element, got 2"),
    (lambda: semigroup_member(10, ge(3), ge(4)), "expected a group element, got 10"),
    (lambda: rank_profile(4, 6, 8), "expected a group element, got 4"),
    (lambda: least_combination_exceeding(ge(2), ge(3), 5), "expected a group element, got 5"),
    (lambda: Weight(1, 2, 3), "expected a group element, got 1"),
    (lambda: frobenius_number(2.5, 3), "generators must be integers"),
    (lambda: frobenius_number(3, True), "generators must be integers"),
    (lambda: is_prime(7.0), "expected an integer, got 7.0"),
], ids=["w_star", "w_star-mixed", "semigroup_member", "least_combination_exceeding",
        "semigroup_member-target", "rank_profile", "least_combination_exceeding-threshold",
        "Weight", "frobenius_number", "frobenius_number-bool", "is_prime"])
def test_building_blocks_reject_other_types(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


class TestLeastMultipleExceeding:
    """The kernel _multiple_exceeding, on coordinate tuples of one length
    with the first one positive."""

    def test_spec_examples(self):
        assert _multiple_exceeding((3,), (7,)) == 3
        assert _multiple_exceeding((3,), (-1,)) == 1
        assert _multiple_exceeding((0, 1), (1, 0)) is None

    def test_minimality(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(1, 3)
            e = GroupElem([rng.randint(-4, 6) for _ in range(k)])
            if not e.is_positive:
                continue
            t = GroupElem([rng.randint(-30, 30) for _ in range(k)])
            b = _multiple_exceeding(e.coords, t.coords)
            if b is None:
                for j in range(1, 200):
                    assert not (j * e > t)
            else:
                assert b * e > t
                assert b == 1 or not ((b - 1) * e > t)


@st.composite
def _multiple_cases(draw):
    """(e, t) at rank 1..4 with e positive.  t often matches e in every
    coordinate before e's lead, so that the lead decides, and often has
    t_lead = q*e_lead, so that the later coordinates break a tie."""
    k = draw(st.integers(1, 4))
    lead = draw(st.integers(0, k - 1))
    e_lead = draw(st.integers(1, 6))
    e = [0] * lead + [e_lead] + [draw(st.integers(-6, 6)) for _ in range(k - lead - 1)]
    t = [draw(st.integers(-30, 30)) for _ in range(k)]
    if draw(st.integers(0, 3)):
        t[:lead] = [0] * lead
    if draw(st.booleans()):
        t[lead] = draw(st.integers(-5, 5)) * e_lead
    return GroupElem(e), GroupElem(t)


class TestLeastMultipleExceedingProperty:
    @given(_multiple_cases())
    @settings(max_examples=400)
    def test_closed_form_matches_scan(self, case):
        e, t = case
        # |t| <= 30 and e_lead >= 1, so any answer lies below 40
        scan = next((b for b in range(1, 40) if b * e > t), None)
        assert _multiple_exceeding(e.coords, t.coords) == scan


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


class TestKernelsAgainstScan:
    """The rank-1 Euclid kernels and w_star's trusted path against the
    staircase scan over GroupElems that they replaced, and against plain
    enumeration."""

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(-10**4, 10**4),
           st.integers(-10**4, 10**4), st.booleans())
    @settings(max_examples=500)
    def test_extreme_matches_max_and_min(self, n, m, a, b, top):
        values = [(a * x + b) % m for x in range(n)]
        assert _extreme(n, m, a, b, top) == (max if top else min)(values)

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(-50, 3000))
    @settings(max_examples=400)
    def test_lce1_matches_scan(self, u1, u2, t):
        assert ge(_lce1(u1, u2, t)) == scan_least_combination(ge(u1), ge(u2), ge(t))

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(-50, 3000))
    @settings(max_examples=300, deadline=None)  # the deadline would time the oracle
    def test_lce1_matches_enumeration(self, u1, u2, t):
        # the oracle scans (t//u1 + 1) * (t//u2 + 1) pairs at most
        assume((t // u1 + 1) * (t // u2 + 1) <= 10**6)
        # a bound past t + 1 leaves every useful pair in the oracle's box
        want = enum_least_combination((u1,), (u2,), (t,), bound=max(t, 0) + 2)
        assert (_lce1(u1, u2, t),) == want

    def test_lce1_large_generators(self):
        # wstar 10000000 10000001 99999989999998: about 10^7 residues, the
        # largest of them late
        assert _lce1(10**7, 10**7 + 1, 10**14 - 2) == 100000000000001
        assert w_star([ge(10**7), ge(10**7 + 1), ge(99999989999998)]) == ge(100000000000001)
        # 4,000-digit consecutive Fibonacci numbers, a threshold 10^100 times
        # the larger one: only the answer's bounds can be checked
        u1, u2, digits = 1, 1, 10**3999
        while u2 < digits:
            u1, u2 = u2, u1 + u2
        t = u2 * 10**100
        for e1, e2 in ((u1, u2), (u2, u1)):
            assert t < _lce1(e1, e2, t) <= t + u1

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda k: st.lists(
                st.tuples(*[st.integers(min_value=-8, max_value=30)] * k), min_size=3, max_size=3
            )
        )
    )
    @settings(max_examples=400)
    def test_w_star_matches_scan(self, rows):
        ws = [GroupElem(r) for r in rows]
        assume(all(w.is_positive for w in ws))
        assert w_star(ws) == scan_w_star(ws)


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
        assert p == RankProfile(False, False, False, True)
        p = rank_profile(ge(2), ge(4), ge(5))
        assert p.pair_12_dependent and p.pair_13_dependent and p.pair_23_dependent
        assert p.triple_dependent
        p = rank_profile(ge(1, 0, 0), ge(0, 1, 0), ge(0, 0, 1))
        assert p == RankProfile(False, False, False, False)

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

    def test_total_and_star_kept_once_read(self, monkeypatch):
        calls = []
        real = ordgroup.w_star
        monkeypatch.setattr(ordgroup, "w_star", lambda ws: calls.append(ws) or real(ws))
        w = Weight.of(5, 2, 3)
        for _ in range(2):
            assert w.star == ge(8) and w.total == ge(10)
        assert len(calls) == 1
        w_rank2 = Weight.of((1, 2), (0, 3), (1, -1))
        for _ in range(2):
            assert w_rank2.star.coords == enum_w_star((1, 2), (0, 3), (1, -1))
        assert len(calls) == 2

    def test_equal_weights_agree_whatever_was_read(self):
        read, fresh = Weight.of(1, 2, 3), Weight.of(1, 2, 3)
        assert read.star == ge(5) and read.total == ge(6)
        assert read == fresh and hash(read) == hash(fresh)
        assert len({read, fresh}) == 1
        for w in (read, fresh):
            back = pickle.loads(pickle.dumps(w))
            assert back == w and hash(back) == hash(w)
            assert back.star == ge(5) and back.total == ge(6)
        certs = [classify_weighted((3, 5, 7), w).certificate for w in (read, fresh)]
        assert certs[0] == certs[1] and certs[0].to_json() == certs[1].to_json()
        with pytest.raises(FrozenInstanceError):
            read.star = ge(1)

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
