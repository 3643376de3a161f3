"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from itertools import product
from math import gcd


from tamedeg import (
    Excluded,
    Polynomial,
    Realizable,
    SearchConfig,
    TameWord,
    Weight,
    classify_total,
    classify_weighted,
    consistency_check,
    degree_w,
    frobenius_number,
    ge,
    intro_family,
    is_prime,
    least_combination_exceeding,
    mdeg,
    realize,
    semigroup_member,
    shear,
    w_star,
)
from tamedeg.cli import main as cli_main
from tamedeg.search import generate
from oracles import (
    deg_w_total,
    dp_frobenius,
    dp_representable,
    enum_least_combination,
    enum_w_star,
    leading_form,
    mdeg_w,
    power_dependence,
    triple_semigroup_member,
    wedge3_degree,
)


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL -- {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS -- {label} ({elapsed:.1f} s)")


def cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_paper_exclusions(capsys):
    with criterion(1, "exclusions (3,4,5), (3,5,7), (4,5,7), (4,5,11)"):
        started = time.perf_counter()
        for triple in ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 5, 11)):
            code, out = cli(capsys, "classify", *map(str, triple))
            assert code == 0 and "verdict: Excluded" in out, triple
        assert time.perf_counter() - started < 1.0, "must finish under 1 s"


def test_criterion_2_registry_dance(capsys):
    with criterion(2, "(4,5,6) Excluded with built-in bound, Unknown without"):
        code, out = cli(capsys, "classify", "4", "5", "6")
        assert code == 0 and "verdict: Excluded" in out
        assert "Delta(4,6)>=4" in out
        code, out = cli(capsys, "classify", "4", "5", "6", "--registry", "empty")
        assert code == 0 and "verdict: Unknown" in out


def test_criterion_3_constructive_completeness(capsys):
    with criterion(3, "witness --verify for every semigroup triple up to 12"):
        started = time.perf_counter()
        checked = 0
        for d1 in range(1, 13):
            for d2 in range(d1, 13):
                for d3 in range(d2, 13):
                    if not (d2 % d1 == 0 or dp_representable(d3, d1, d2)):
                        continue
                    code, out = cli(
                        capsys, "witness", str(d1), str(d2), str(d3), "--verify"
                    )
                    assert code == 0, (d1, d2, d3)
                    assert f"mdeg verified: ({d1}, {d2}, {d3})" in out, (d1, d2, d3)
                    checked += 1
        assert checked > 200
        assert time.perf_counter() - started < 60.0, "must finish under 60 s"


def test_criterion_4_intro_family():
    with criterion(4, "intro family (2,3) -> (6,9,49) with top cancellation"):
        degrees, word = intro_family((2, 3))
        assert degrees == (6, 9, 49)
        endo = realize(word)
        assert mdeg(endo) == (6, 9, 49)
        f3 = endo.components[2]
        assert (0, 0, 54) not in f3.terms, "x3^54 must cancel"
        assert f3.total_degree_int() == 49


def _expected_realizable(d1, d2, d3):
    return d2 % d1 == 0 or triple_semigroup_member(d3, (d1, d2))


class _IffChecker:
    """Checks corollary instances against the classifier, and routes every
    17th instance through the public corollary_suite surface as well."""

    def __init__(self):
        self.cache = {}
        self.count = 0

    def check(self, d1, d2, d3, name, suite_args=None):
        from tamedeg import corollary_suite

        triple = (d1, d2, d3)
        if triple not in self.cache:
            self.cache[triple] = classify_total(*triple)
        result = self.cache[triple]
        expected = Realizable if _expected_realizable(*triple) else Excluded
        assert isinstance(result, expected), (name, triple)
        self.count += 1
        if suite_args is not None and self.count % 17 == 0:
            via_suite = corollary_suite(name, suite_args)
            assert isinstance(via_suite, expected), ("suite", name, triple)


def test_criterion_5_corollary_suite():
    with criterion(5, "corollary suite exhaustive for entries <= 40"):
        started = time.perf_counter()
        checker = _IffChecker()
        top = 40
        odds = [d for d in range(3, top + 1, 2)]
        primes = [d for d in range(3, top + 1) if is_prime(d)]

        for d1, d2 in product(odds, repeat=2):
            if d1 > d2 or gcd(d1, d2) != 1:
                continue
            for d3 in range(d2, top + 1):
                checker.check(d1, d2, d3, "karas-zygadlo", (d1, d2, d3))

        for d2 in range(3, top + 1):
            for d3 in range(d2, top + 1):
                checker.check(3, d2, d3, "karas-three", (d2, d3))

        for d1 in primes:
            for d2 in range(d1, top + 1):
                for d3 in range(d2, top + 1):
                    g = gcd(d2, d3)
                    if d2 // g != 2 or d3 // g != 3 or d2 >= 2 * d1 - 5:
                        checker.check(d1, d2, d3, "sun-chen", (d1, d2, d3))

        for d2 in range(5, top + 1, 2):
            for d3 in range(d2, top + 1):
                if d3 % 2 == 0 and d3 - d2 == 1:
                    continue
                checker.check(4, d2, d3, "karas-four", (d2, d3))

        for d1 in range(3, top + 1):
            for d2 in primes:
                if d2 < d1:
                    continue
                for d3 in range(d2, top + 1):
                    if d1 // gcd(d1, d3) != 2:
                        checker.check(d1, d2, d3, "li-du-mid-prime", (d1, d2, d3))

        for d1 in range(3, top + 1):
            for d2 in range(d1, top + 1):
                if gcd(d1, d2) != 1:
                    continue
                for d3 in primes:
                    if d3 >= d2:
                        checker.check(d1, d2, d3, "li-du-top-prime", (d1, d2, d3))

        for a in range(3, top + 1):
            for d in range(1, (top - a) // 2 + 1):
                if (4 * d) % a == 0 and ((4 * d) // a) % 2 == 1:
                    continue
                checker.check(a, a + d, a + 2 * d, "progression", (a, d))
        # the named instance
        assert isinstance(checker.cache[(5, 8, 11)], Excluded)

        for l in range(1, top // 4 + 1):
            for t in range(1, 2 * top, 2):
                if (t - 4) * l + 2 < 0:
                    continue
                a, d = 4 * l, t * l
                if a + 2 * d > top:
                    continue
                checker.check(a, a + d, a + 2 * d, "progression-ext", (l, t))

        for d in range(5, 16):
            if d in (6, 8):
                continue
            triple = (d, 2 * (d - 2), 3 * (d - 2))
            if max(triple) > top:
                continue
            checker.check(*triple, "two-three", (d,))
        for d in (5, 7, 9, 10, 11, 12):
            triple = (d, 2 * (d - 2), 3 * (d - 2))
            result = checker.cache.get(triple) or classify_total(*triple)
            assert isinstance(result, Excluded), ("two-three named", d)

        for d1, d2 in product(odds, repeat=2):
            if not (3 <= d1 < d2) or gcd(d1, d2) != 1:
                continue
            for d3 in range(d2, top + 1):
                if triple_semigroup_member(d3, (d1, d2)):
                    continue
                for w in ((1, 2, 3), (2, 3, 5)):
                    if d1 + d2 + d3 <= sum(w):
                        continue
                    result = classify_weighted((d1, d2, d3), Weight.of(*w))
                    assert isinstance(result, Excluded), ("kanehira", d1, d2, d3, w)

        assert checker.count > 10_000
        assert time.perf_counter() - started < 300.0, "must finish under 5 min"


def test_criterion_6_search_soundness():
    with criterion(6, "10^4 random words, 3 weights: no exclusions, no certificates"):
        started = time.perf_counter()
        config = SearchConfig(
            seed=2024,
            sample_count=10_000,
            max_word_length=6,
            weights=((1, 1, 1), (1, 2, 3), (2, 3, 5)),
        )
        report = consistency_check(config)
        assert report.stats.samples_drawn == 10_000
        assert report.words_checked > 5_000
        assert report.violations == (), report.summary()
        assert time.perf_counter() - started < 600.0, "must finish under 10 min"


def test_criterion_7_invariant_suites():
    with criterion(7, "product rule, wedge total, degree floor, 2-var powers"):
        rng = random.Random(97)

        def random_poly(max_deg=6):
            p = Polynomial.zero(3)
            for _ in range(rng.randint(1, 6)):
                expo = [0, 0, 0]
                budget = rng.randint(0, max_deg)
                for i in range(3):
                    expo[i] = rng.randint(0, budget)
                    budget -= expo[i]
                p = p + Polynomial.monomial(expo, rng.choice([-5, -3, -1, 1, 2, 4]))
            return p

        pairs = 0
        while pairs < 500:
            f, g = random_poly(), random_poly()
            if f.is_zero or g.is_zero:
                continue
            w = [rng.randint(1, 5) for _ in range(3)]
            assert degree_w(f * g, w) == degree_w(f, w) + degree_w(g, w)
            assert leading_form(f * g, w) == leading_form(f, w) * leading_form(g, w)
            pairs += 1

        config = SearchConfig(
            seed=515, sample_count=400, max_word_length=5,
            shift_monomial_exponent_cap=3, degree_cap=25,
        )
        weights = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
        words = 0
        for _, endo in generate(config):
            words += 1
            for w in weights:
                assert wedge3_degree(*endo.components, w) == ge(sum(w))
                degs = sorted(mdeg_w(endo, w))
                for d, wi in zip(degs, sorted(ge(x) for x in w)):
                    assert d >= wi
        assert words > 100

        hits = 0
        while hits < 1000:
            steps = []
            for _ in range(rng.randint(1, 5)):
                target = rng.randrange(2)
                expo = [0, 0]
                expo[1 - target] = rng.randint(0, 3)
                steps.append(
                    shear(target, Polynomial.monomial(expo, rng.choice([-2, -1, 1, 2])))
                )
            endo = realize(TameWord(tuple(steps), 2))
            w = (1, rng.randint(1, 3))
            if not deg_w_total(endo, w) > ge(sum(w)):
                continue
            h1 = leading_form(endo.components[0], w)
            h2 = leading_form(endo.components[1], w)
            assert (
                power_dependence(h1, h2) is not None
                or power_dependence(h2, h1) is not None
            ), (endo.render(), w)
            hits += 1


def test_criterion_8_oracle_equivalence():
    with criterion(8, "DP and enumeration oracles agree with the fast paths"):
        for u1 in range(2, 31):
            for u2 in range(u1 + 1, 31):
                if gcd(u1, u2) != 1:
                    continue
                assert frobenius_number(u1, u2) == dp_frobenius(u1, u2)
                for d in range(1, 201):
                    got = semigroup_member(ge(d), ge(u1), ge(u2))
                    reps = dp_representable(d, u1, u2)
                    assert (got is not None) == bool(reps)
                    if got:
                        assert got[0] * u1 + got[1] * u2 == d

        for w1 in range(1, 13):
            for w2 in range(w1, 13):
                for w3 in range(w2, 13):
                    assert w_star([ge(w1), ge(w2), ge(w3)]).coords == enum_w_star(
                        (w1,), (w2,), (w3,)
                    )
        for e1 in range(1, 13):
            for e2 in range(1, 13):
                for t in range(-2, 25):
                    got = least_combination_exceeding(ge(e1), ge(e2), ge(t))
                    assert got.coords == enum_least_combination((e1,), (e2,), (t,))

        rng = random.Random(828)
        done = 0
        while done < 120:
            vecs = [
                tuple(rng.randint(-8, 8) for _ in range(2)) for _ in range(3)
            ]
            elems = [ge(*v) for v in vecs]
            if not all(e.is_positive for e in elems):
                continue
            assert w_star(elems).coords == enum_w_star(*vecs)
            got = least_combination_exceeding(elems[0], elems[1], elems[2])
            want = enum_least_combination(vecs[0], vecs[1], vecs[2])
            assert (got.coords if got is not None else None) == want
            done += 1


def test_criterion_9_wstar_and_weighted_kanehira(capsys):
    with criterion(9, "w_star(1,1,1) = 3 and (3,5,7) at weight (1,2,3) Excluded"):
        assert w_star([ge(1), ge(1), ge(1)]) == ge(3)
        code, out = cli(capsys, "wstar", "1", "1", "1")
        assert code == 0 and out.strip() == "3"
        result = classify_weighted((3, 5, 7), Weight.of(1, 2, 3))
        assert isinstance(result, Excluded)
        code, out = cli(
            capsys, "classify-weighted", "--deg", "3,5,7", "--weight", "1,2,3"
        )
        assert code == 0 and "verdict: Excluded" in out
