import random
from math import gcd

import pytest

from tamedeg import (
    Certificate,
    ConstructionError,
    DeltaBoundRegistry,
    DomainError,
    Endo,
    Excluded,
    HypothesisViolation,
    Polynomial,
    Realizable,
    TameWord,
    Theorem,
    Unknown,
    Weight,
    builtin_registry,
    certify_wild,
    check_total_abc,
    check_weighted_conditions,
    classify_total,
    classify_weighted,
    corollary_suite,
    delta_lower_bound,
    ge,
    lemma_a_conditions,
    make_realizable,
    mdeg,
    nagata,
    realize,
    semigroup_witness,
    shear,
)
from tamedeg.automorphisms import _verify_realization
from oracles import triple_semigroup_member

W111 = Weight.of(1, 1, 1)


class TestDeltaLowerBound:
    def test_registry_entry_wins(self):
        assert delta_lower_bound(ge(4), ge(6), W111, builtin_registry()) == ge(4)

    def test_star_route(self):
        assert delta_lower_bound(ge(3), ge(5), W111, DeltaBoundRegistry.empty()) == ge(3)

    def test_floor_when_multiplicity_blocks(self):
        assert delta_lower_bound(ge(2), ge(4), W111, DeltaBoundRegistry.empty()) == ge(2)

    def test_registry_file_round_trip(self):
        reg = builtin_registry().with_entry(
            Weight.of(1, 2, 3), ge(5), ge(7), ge(6)
        )
        again = DeltaBoundRegistry.from_lines(reg.to_lines())
        assert again == reg
        assert again.fingerprint() == reg.fingerprint()

    def test_registry_lookup_unordered(self):
        reg = builtin_registry()
        assert reg.lookup(W111, ge(6), ge(4)) == ge(4)


class TestTotalConditions:
    def test_3_4_5(self):
        rep = check_total_abc(3, 4, 5)
        assert rep.holds("a1") and rep.holds("b1") and rep.holds("c")

    def test_4_5_6(self):
        rep = check_total_abc(4, 5, 6)
        assert not rep.holds("a1")
        # the odd multiplier s = 3 with 3*4 = 2*6 is reported
        assert any("s = 3" in cl.right for cl in rep["a1"].clauses)
        assert not rep.holds("a2")

    def test_2_4_5(self):
        rep = check_total_abc(2, 4, 5)
        assert not rep.holds("c")

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            check_total_abc(4, 3, 5)

    def test_b1_equivalence_exhaustive(self):
        # direct form gcd(d1,d2,d3) == gcd(d1,d2) <= 3 versus the evaluated
        # form gcd(d1,d2) <= 3 and gcd(d1,d2) | d3
        for d1 in range(1, 61):
            for d2 in range(d1, 61, 3):
                for d3 in range(d2, 61, 7):
                    g12 = gcd(d1, d2)
                    direct = gcd(g12, d3) == g12 and g12 <= 3
                    assert check_total_abc(d1, d2, d3).holds("b1") == direct


class TestClassifyTotal:
    def test_paper_exclusions(self):
        for triple in ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 5, 11)):
            result = classify_total(*triple)
            assert isinstance(result, Excluded)
            assert result.certificate.theorem is Theorem.TOTAL_DEGREE

    def test_4_5_6_needs_registry(self):
        result = classify_total(4, 5, 6)
        assert isinstance(result, Excluded)
        assert result.certificate.theorem is Theorem.MAIN_WEIGHTED
        assert any(
            u.pair == ((4,), (6,)) for u in result.certificate.delta_bounds_used
        )
        assert isinstance(
            classify_total(4, 5, 6, DeltaBoundRegistry.empty()), Unknown
        )

    def test_realizable_with_witness(self):
        result = classify_total(1, 7, 11)
        assert isinstance(result, Realizable)
        assert result.multidegree == (1, 7, 11)

    def test_order_insensitive(self):
        assert isinstance(classify_total(5, 3, 4), Excluded)
        result = classify_total(11, 1, 7)
        assert isinstance(result, Realizable)
        # the witness is mapped back to the input order
        assert result.multidegree == (11, 1, 7)
        assert mdeg(realize(result.witness)) == (11, 1, 7)

    def test_registry_monotonicity(self):
        empty = DeltaBoundRegistry.empty()
        full = builtin_registry().with_entry(W111, ge(5), ge(7), ge(4))
        for d1 in range(1, 13):
            for d2 in range(d1, 13):
                for d3 in range(d2, 13):
                    before = classify_total(d1, d2, d3, empty)
                    after = classify_total(d1, d2, d3, full)
                    if isinstance(before, Excluded):
                        assert isinstance(after, Excluded)
                    if isinstance(before, Realizable):
                        assert isinstance(after, Realizable)

    def test_make_realizable_verifies(self):
        word = semigroup_witness(2, 3, 4)
        with pytest.raises(ConstructionError):
            make_realizable(word, (2, 3, 5))

    def test_make_realizable_checks_jacobian(self, monkeypatch):
        # a map with the claimed multidegree but Jacobian 2*x1
        import tamedeg.automorphisms as automorphisms
        import tamedeg.classifier as classifier

        x1, x2, x3 = (Polynomial.variable(i, 3) for i in range(3))
        fake = Endo((x1 * x1, x2, x3))
        for module in (automorphisms, classifier):
            if hasattr(module, "realize"):
                monkeypatch.setattr(module, "realize", lambda word, budget=None: fake)
        with pytest.raises(ConstructionError, match="Jacobian"):
            make_realizable(TameWord((), 3), (2, 1, 1))

    @pytest.mark.parametrize("triple", [(4, 3, 2), (2, 3, 4)])
    def test_each_realizable_verdict_realizes_once(self, monkeypatch, triple):
        import tamedeg.automorphisms as automorphisms
        import tamedeg.classifier as classifier

        calls = []
        original = automorphisms.realize

        def counting(word, budget=None):
            calls.append(word)
            return original(word, budget)

        for module in (automorphisms, classifier):
            if hasattr(module, "realize"):
                monkeypatch.setattr(module, "realize", counting)
        result = classify_total(*triple)
        assert isinstance(result, Realizable)
        assert len(calls) == 1
        monkeypatch.undo()
        _verify_realization(result.witness, triple)

    def test_nonpositive_degrees_rejected(self):
        with pytest.raises(DomainError):
            classify_total(0, 1, 2)
        with pytest.raises(DomainError):
            classify_weighted((1, 2, -3), W111)


class TestWeightedConditions:
    def test_3_5_7_with_w_123(self):
        w = Weight.of(1, 2, 3)
        rep = check_weighted_conditions(ge(3), ge(5), ge(7), w)
        assert rep.holds("K1") and rep.holds("K2")
        assert rep.holds("A1")
        assert rep.holds("B1")

    def test_4_5_6_a3_with_registry(self):
        rep = check_weighted_conditions(ge(4), ge(5), ge(6), W111, builtin_registry())
        assert not rep.holds("A1")
        assert rep.holds("A3")
        rep_empty = check_weighted_conditions(
            ge(4), ge(5), ge(6), W111, DeltaBoundRegistry.empty()
        )
        assert not rep_empty.holds("A3")

    def test_1_2_3_fails_k2(self):
        rep = check_weighted_conditions(ge(1), ge(2), ge(3), W111)
        assert not rep.holds("K2")

    def test_strictness_required(self):
        with pytest.raises(DomainError):
            check_weighted_conditions(ge(2), ge(2), ge(3), W111)

    def test_a2_path_when_ratio_holds(self):
        # 3*10 = 2*15: A2 evaluates the bounded inequality, A1 cannot hold
        rep = check_weighted_conditions(ge(4), ge(10), ge(15), W111)
        assert not rep.holds("A1")
        assert rep.holds("A2")
        assert rep.holds("K2")
        # B fails both ways: 15 is no multiple of gcd 2, and 29 >= 20 + 3
        assert not rep.holds("B1") and not rep.holds("B2")

    def test_k5_second_clause(self):
        # 4*3 = 3*4 forces the K5 inequality: 5 < 5*gcd(3,4) + bound
        rep = check_weighted_conditions(ge(3), ge(4), ge(5), W111)
        k5 = rep["K5"]
        assert k5.holds and len(k5.clauses) == 2


class TestClassifyWeighted:
    def test_3_5_7_excluded(self):
        result = classify_weighted((3, 5, 7), Weight.of(1, 2, 3))
        assert isinstance(result, Excluded)
        assert result.certificate.theorem is Theorem.MAIN_WEIGHTED

    def test_independent_weights_route(self):
        degrees = (ge(1, 1, 0), ge(1, -1, 2), ge(1, 0, 1))
        weight = Weight.of((1, 0, 0), (0, 1, 0), (0, 0, 1))
        result = classify_weighted(degrees, weight)
        assert isinstance(result, Excluded)
        assert result.certificate.theorem is Theorem.INDEPENDENT_WEIGHTS

    def test_total_case_reduces(self):
        assert isinstance(classify_weighted((3, 4, 5), W111), Excluded)

    def test_never_realizable(self):
        # (1, 2, 3) is trivially a tame multidegree but weighted verdicts
        # only certify exclusion
        result = classify_weighted((1, 2, 3), W111)
        assert isinstance(result, Unknown)

    def test_repeated_degrees_unknown(self):
        result = classify_weighted((2, 2, 3), W111)
        assert isinstance(result, Unknown)
        assert "K1" in result.reasons


class TestCertifyWild:
    def test_identity_unknown(self):
        out = certify_wild(Endo.identity(3), W111)
        assert isinstance(out, Unknown) and out.reasons == ("K1",)

    def test_nagata_unit_weights_unknown(self):
        out = certify_wild(nagata(), W111)
        assert isinstance(out, Unknown) and "K2" in out.reasons

    def test_nagata_certified_under_shifted_weights(self):
        # mdeg under (4,3,3) is (17, 10, 3): K1-K5 pass and the exact wedge
        # degree 13 beats lcm(3,10) + ... the strict inequality, so the
        # classical wild map is certified wild by the engine
        out = certify_wild(nagata(), Weight.of(4, 3, 3))
        assert isinstance(out, Certificate)
        assert out.theorem is Theorem.F_SPECIFIC
        names = [c.name for c in out.conditions]
        assert "prop:main" in names and "K5" in names

    def test_non_constant_jacobian_rejected(self):
        x1, x2, x3 = (Polynomial.variable(i, 3) for i in range(3))
        with pytest.raises(DomainError):
            certify_wild(Endo((x1 * x1, x2, x3)), W111)

    def test_tame_words_never_certified(self):
        rng = random.Random(67)
        for _ in range(60):
            steps = []
            for _ in range(rng.randint(0, 5)):
                target = rng.randrange(3)
                expo = [0, 0, 0]
                for i in range(3):
                    if i != target:
                        expo[i] = rng.randint(0, 3)
                steps.append(
                    shear(target, Polynomial.monomial(expo, rng.choice([-1, 1])))
                )
            endo = realize(TameWord(tuple(steps), 3))
            for w in (W111, Weight.of(1, 2, 3)):
                assert not isinstance(certify_wild(endo, w), Certificate)


class TestLemmaA:
    def test_examples(self):
        rep = lemma_a_conditions(4, 6, 7)
        assert rep.holds("4") and rep.implies_a
        rep = lemma_a_conditions(3, 5, 7)
        assert rep.holds("1") and rep.implies_a
        rep = lemma_a_conditions(5, 6, 9)
        assert rep.holds("5") and rep.implies_a

    def test_conditions_imply_a_exhaustively(self):
        for d1 in range(1, 41):
            for d2 in range(d1, 41):
                for d3 in range(d2, 41):
                    rep = lemma_a_conditions(d1, d2, d3)
                    if not rep.implies_a:
                        continue
                    abc = check_total_abc(d1, d2, d3)
                    assert abc.holds("a1") or abc.holds("a2"), (d1, d2, d3)


class TestCorollaries:
    def test_karas_zygadlo_realizable(self):
        result = corollary_suite("karas-zygadlo", (3, 5, 9))
        assert isinstance(result, Realizable)

    def test_progression_excluded(self):
        result = corollary_suite("progression", (5, 3))
        assert isinstance(result, Excluded)

    def test_two_three_family(self):
        assert isinstance(corollary_suite("two-three", (5,)), Excluded)
        with pytest.raises(HypothesisViolation):
            corollary_suite("two-three", (6,))

    def test_kanehira_weighted(self):
        result = corollary_suite("kanehira", (3, 5, 7, 1, 2, 3))
        assert isinstance(result, Excluded)

    def test_hypothesis_violations_named(self):
        with pytest.raises(HypothesisViolation) as err:
            corollary_suite("karas-zygadlo", (3, 4, 9))
        assert "odd" in str(err.value)
        with pytest.raises(DomainError):
            corollary_suite("no-such-name", (1, 2, 3))

    def test_progression_hypothesis(self):
        # 4d = ta for odd t: a=5, d=5 gives t=4 (even, fine); a=4, d=3: 12=3*4 odd t=3 -> violation
        with pytest.raises(HypothesisViolation):
            corollary_suite("progression", (4, 3))


class TestSoundnessAgainstWitnesses:
    def test_realizable_triples_never_excluded(self):
        for d1 in range(1, 11):
            for d2 in range(d1, 11):
                for d3 in range(d2, 11):
                    if d2 % d1 == 0 or triple_semigroup_member(d3, (d1, d2)):
                        result = classify_total(d1, d2, d3)
                        assert isinstance(result, Realizable), (d1, d2, d3)
