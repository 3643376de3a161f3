import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedeg import (
    Budget,
    BudgetExceededError,
    ConstructionError,
    DegreeCapError,
    DomainError,
    ElementaryAut,
    Endo,
    Polynomial,
    TameWord,
    classify_total,
    ge,
    intro_family,
    jacobian_det,
    mdeg,
    nagata,
    permutation_word,
    realize,
    semigroup_witness,
    shear,
    transposition_word,
)
from tamedeg.automorphisms import (
    _P,
    _permutation_action,
    _permutation_word,
    _verify_witness,
    _witness_word,
    certified_mdeg,
)
from tamedeg.classifier import _matching_permutation
from oracles import (
    compose,
    deg_w_total,
    frac_add,
    frac_scale,
    frac_substitute,
    frac_terms,
    leading_form,
    mdeg_w,
    power_dependence,
    public_witness_word,
    triple_semigroup_member,
    wedge3_degree,
)

X1, X2, X3 = (Polynomial.variable(i, 3) for i in range(3))


def mono3(e1, e2, e3, c=1):
    return Polynomial.monomial((e1, e2, e3), c)


def random_word(rng, length, nvars=3, exp_cap=3):
    steps = []
    for _ in range(length):
        target = rng.randrange(nvars)
        if rng.random() < 0.2:
            steps.append(
                ElementaryAut(
                    target, Fraction(rng.choice([-1, 2, 3])), Polynomial.zero(nvars)
                )
            )
            continue
        expo = [0] * nvars
        for i in range(nvars):
            if i != target:
                expo[i] = rng.randint(0, exp_cap)
        coeff = rng.choice([-2, -1, 1, 2])
        steps.append(ElementaryAut(target, Fraction(1), Polynomial.monomial(expo, coeff)))
    return TameWord(tuple(steps), nvars)


@st.composite
def tame_words(draw):
    """Affine steps, shears of degree <= 3 by up to three terms and shears
    by x_i^a - x_j^b (whose top degrees may tie and cancel, as in the
    staircase), then a permutation of the variables as a transposition
    tail (empty for the identity)."""
    coeffs = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)])
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        target = draw(st.integers(0, 2))
        others = [i for i in range(3) if i != target]
        terms = {}
        if draw(st.booleans()):
            top = draw(st.sampled_from([1, 2, 3]))
            for _ in range(draw(st.integers(0, 3))):
                expo = [0, 0, 0]
                budget = draw(st.integers(0, top))
                for i in others:
                    expo[i] = draw(st.integers(0, budget))
                    budget -= expo[i]
                terms[tuple(expo)] = draw(coeffs)
        else:
            for i, sign in zip(others, (1, -1)):
                expo = [0, 0, 0]
                expo[i] = draw(st.integers(1, 3))
                terms[tuple(expo)] = sign
        scale = draw(st.sampled_from([1, 1, 1, -1, 2, Fraction(1, 3)]))
        steps.append(ElementaryAut(target, Fraction(scale), Polynomial(3, terms)))
    word = TameWord(tuple(steps), 3)
    perm = draw(st.permutations(range(3)))
    return word + permutation_word(perm, 3)


class TestCertifiedMdeg:
    @settings(max_examples=300, deadline=None)
    @given(tame_words())
    def test_agrees_with_expansion_or_falls_back(self, word):
        got = certified_mdeg(word)
        assert got is None or got == mdeg(realize(word))

    def test_tied_atoms(self):
        # the shifts of f1 = x1 + x3^2 and f2 = x2 + x3^2 are distinct
        # atoms with one leading form, x3^2; x3 <- x3 + x1 + x2 adds them
        # (degree 2) and x3 <- x3 + x1 - x2 cancels them, which the
        # calculus leaves to expansion (degree 1)
        head = (shear(0, mono3(0, 0, 2)), shear(1, mono3(0, 0, 2)))
        word = TameWord(head + (shear(2, X1 + X2),), 3)
        assert certified_mdeg(word) == mdeg(realize(word)) == (2, 2, 2)
        word = TameWord(head + (shear(2, X1 - X2),), 3)
        assert certified_mdeg(word) is None
        assert mdeg(realize(word)) == (2, 2, 1)

    def test_top_coefficient_without_residue_falls_back(self):
        # 1/_P has no residue mod _P: undecided at the top, harmless below it
        tiny = Fraction(1, _P)
        word = TameWord((ElementaryAut(0, tiny, Polynomial.zero(3)),), 3)
        assert certified_mdeg(word) is None
        word = TameWord((ElementaryAut(0, tiny, mono3(0, 2, 0)),), 3)
        assert certified_mdeg(word) == mdeg(realize(word)) == (2, 1, 1)

    def test_staircase_top_cancellation_falls_back(self):
        _, word = intro_family((2, 3))
        assert certified_mdeg(word) is None

    def test_witnesses_decided_without_fallback(self):
        checked = 0
        for d1 in range(1, 13):
            for d2 in range(1, 13):
                for d3 in range(1, 13):
                    asked = (d1, d2, d3)
                    word = _witness_word(*sorted(asked))
                    if word is None:
                        continue
                    if asked != tuple(sorted(asked)):
                        word = word + permutation_word(_matching_permutation(asked), 3)
                    assert certified_mdeg(word) == asked
                    checked += 1
        assert checked > 1000


class TestElementarySteps:
    def test_shift_must_avoid_target(self):
        with pytest.raises(DomainError):
            ElementaryAut(0, Fraction(1), X1 * X2)

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            ElementaryAut(0, Fraction(0), X2)
        with pytest.raises(DomainError):
            ElementaryAut(0, 0, X2)

    def test_scale_becomes_a_fraction_once(self):
        half = Fraction(1, 2)
        assert ElementaryAut(0, half, X2).scale is half
        for scale in (3, -1, 0.5, "2/3"):
            step = ElementaryAut(0, scale, X2)
            assert type(step.scale) is Fraction
            assert step.scale == Fraction(scale)

    def test_target_out_of_range_rejected(self):
        for target in (-1, 3):
            with pytest.raises(DomainError, match="out of range"):
                ElementaryAut(target, Fraction(1), X2)

    def test_inverse_examples(self):
        step = shear(2, mono3(2, 0, 0))
        inv = step.inverse()
        assert inv.target == 2 and inv.scale == 1 and inv.shift == -mono3(2, 0, 0)
        step = ElementaryAut(0, Fraction(2), Polynomial.zero(3))
        assert step.inverse().scale == Fraction(1, 2)


class TestRealize:
    def test_empty_word(self):
        assert realize(TameWord((), 3)) == Endo.identity(3)
        assert TameWord(()).render() == "(identity)"

    def test_single_step(self):
        word = TameWord((shear(2, mono3(2, 0, 0)),), 3)
        assert realize(word) == Endo((X1, X2, X3 + X1 ** 2))

    def test_composition_convention_golden(self):
        # step (l=1, p=x3^2) then (l=2, p=x1^3): the second component picks
        # up the already-sheared first component
        word = TameWord((shear(0, mono3(0, 0, 2)), shear(1, mono3(3, 0, 0))), 3)
        f1 = X1 + X3 ** 2
        assert realize(word) == Endo((f1, X2 + f1 ** 3, X3))

    def test_concat_is_composition(self):
        rng = random.Random(41)
        for _ in range(20):
            w1 = random_word(rng, rng.randint(0, 3))
            w2 = random_word(rng, rng.randint(0, 3))
            assert realize(w1 + w2) == compose(realize(w1), realize(w2))
            assert w1 + w2 == TameWord(w1.steps + w2.steps, 3)
        with pytest.raises(DomainError, match="variable counts differ"):
            TameWord((), 3) + TameWord((), 4)

    def test_invert_round_trip(self):
        rng = random.Random(43)
        for _ in range(25):
            word = random_word(rng, rng.randint(1, 6), exp_cap=2)
            assert realize(word + word.inverse()) == Endo.identity(3)
            assert realize(word.inverse() + word) == Endo.identity(3)

    def test_budget_abort(self):
        steps = []
        for i in range(8):
            target = i % 3
            expo = [4] * 3
            expo[target] = 0
            steps.append(shear(target, Polynomial.monomial(expo)))
        with pytest.raises(BudgetExceededError):
            realize(TameWord(tuple(steps), 3), Budget(term_cap=50))
        # a term-cap hit under a loose degree cap is not a degree-cap hit
        with pytest.raises(BudgetExceededError) as err:
            realize(TameWord(tuple(steps), 3), Budget(term_cap=50, degree_cap=10**6))
        assert not isinstance(err.value, DegreeCapError)

    def test_degree_cap_stops_before_expansion(self, monkeypatch):
        import tamedeg.automorphisms as automorphisms

        expanded = []
        expand = automorphisms._psubstitute

        def counting_expand(f, comps, budget):
            expanded.append(f)
            return expand(f, comps, budget)

        # realize expands each step through the packed kernel
        monkeypatch.setattr(automorphisms, "_psubstitute", counting_expand)
        # x1 -> x1 + x3^2 (degree 2), then x3 -> x3 + x1^3 (degree 6)
        word = TameWord((shear(0, mono3(0, 0, 2)), shear(2, mono3(3, 0, 0))), 3)
        with pytest.raises(DegreeCapError):
            realize(word, Budget(degree_cap=5))
        assert expanded == [mono3(0, 0, 2)]
        assert mdeg(realize(word, Budget(degree_cap=6))) == (2, 1, 6)

    @settings(max_examples=150, deadline=None)
    @given(tame_words())
    def test_matches_fraction_fold(self, word):
        # the packed fold against the same fold on Fraction term maps
        comps = [frac_terms(Polynomial.variable(i, 3).terms) for i in range(3)]
        for step in word.steps:
            shifted = frac_substitute(frac_terms(step.shift.terms), comps, 3)
            comps[step.target] = frac_add(
                frac_scale(comps[step.target], step.scale), shifted
            )
        assert realize(word) == Endo(tuple(Polynomial(3, c) for c in comps))

    def test_exponents_past_every_field_boundary(self):
        # exponents above 2**21 and 2**32, so that no fixed field width
        # (three 21-bit fields in 63 bits, or 32-bit fields) could hold them
        a, b = 2**32 + 3, 2**21 + 1
        word = TameWord(
            (
                shear(0, mono3(0, a, 0)),
                shear(2, mono3(1, b, 0)),
                shear(1, mono3(1, 0, 2, 3), scale=-1),
            ),
            3,
        )
        f1 = X1 + mono3(0, a, 0)
        f3 = X3 + f1 * mono3(0, b, 0)
        f2 = -X2 + 3 * f1 * f3 * f3
        endo = realize(word)
        assert endo == Endo((f1, f2, f3))
        assert mdeg(endo) == (a, 3 * a + 2 * b, a + b)

    def test_jacobian_is_product_of_scales(self):
        rng = random.Random(47)
        for _ in range(25):
            word = random_word(rng, rng.randint(0, 5), exp_cap=2)
            expected = Fraction(1)
            for s in word.steps:
                expected *= s.scale
            jac = jacobian_det(realize(word).components)
            assert jac == Polynomial.constant(expected, 3)


class TestPermutationHelpers:
    def test_transposition(self):
        endo = realize(transposition_word(0, 2, 3))
        assert endo == Endo((X3, X2, X1))
        assert transposition_word(1, 1) == TameWord((), 3)

    def test_permutation(self):
        endo = realize(permutation_word((2, 0, 1), 3))
        assert endo.components == (X3, X1, X2)

    def test_list_and_tuple_give_one_word(self):
        for perm in ((2, 0, 1), (1, 0, 2), (0, 1, 2)):
            word = permutation_word(list(perm), 3)
            assert word == permutation_word(perm, 3)
            assert word is permutation_word(perm, 3)

    @pytest.mark.parametrize("perm", [[0, 0, 1], (1, 2, 3), [0, 1], [0, "a", 2], (True, 0, 2)])
    def test_bad_permutation_raises_every_time(self, perm):
        before = _permutation_word.cache_info()
        for _ in range(3):
            with pytest.raises(DomainError) as err:
                permutation_word(perm, 3)
            assert str(err.value) == f"{perm} is not a permutation of 0..2"
        after = _permutation_word.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_permutation_without_entries_raises(self):
        with pytest.raises(DomainError, match="^perm must be a sequence, got 5$"):
            permutation_word(5, 3)

    def test_permutation_read_once(self):
        # an iterator is read into the word's key, not exhausted by the check
        assert permutation_word(iter([2, 0, 1]), 3) is permutation_word((2, 0, 1), 3)


class TestPermutationAction:
    def test_action_of_every_permutation(self):
        for perm in itertools.permutations(range(3)):
            pi = _permutation_action(perm, 3)
            assert pi == perm
            components = realize(permutation_word(perm, 3)).components
            for got, i in zip(components, pi):
                variable = Polynomial.variable(i, 3)
                assert got in (variable, -variable)

    def test_derived_without_realize(self, monkeypatch):
        import tamedeg.automorphisms as automorphisms

        def forbidden(*args, **kwargs):
            raise AssertionError("the action must be derived without expansion")

        monkeypatch.setattr(automorphisms, "realize", forbidden)
        monkeypatch.setattr(automorphisms._Fold, "extend", forbidden)
        _permutation_action.cache_clear()
        for perm in itertools.permutations(range(3)):
            assert _permutation_action(perm, 3) == perm
        assert _permutation_action.cache_info().misses == 6

    def test_derived_once_per_permutation(self):
        _permutation_action.cache_clear()
        for _ in range(3):
            for d1, d2, d3 in itertools.permutations((3, 4, 7)):
                classify_total(d1, d2, d3)
        info = _permutation_action.cache_info()
        assert (info.misses, info.hits) == (5, 10)  # the sorted order needs none

    def test_word_that_is_no_signed_permutation_raises(self, monkeypatch):
        import tamedeg.automorphisms as automorphisms

        # x1 <- x1 + x2 alone leaves component 1 a sum of two variables
        sheared = TameWord((shear(0, X2),), 3)
        monkeypatch.setattr(automorphisms, "_permutation_word", lambda perm, nvars: sheared)
        _permutation_action.cache_clear()
        with pytest.raises(ConstructionError, match="component 1"):
            _permutation_action((1, 0, 2), 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=3, max_size=3).map(sorted))
    def test_template_fast_path_matches_calculus_and_expansion(self, triple):
        template = _witness_word(*triple)
        assume(template is not None)
        got = certified_mdeg(template)
        for perm in itertools.permutations(range(3)):
            witness = template + permutation_word(perm, 3)
            fast = tuple(got[i] for i in _permutation_action(perm, 3))
            assert fast == certified_mdeg(witness) == mdeg(realize(witness))
            assert _verify_witness(template, fast, perm=perm) == witness

    @settings(max_examples=200, deadline=None)
    @given(tame_words(), st.permutations(range(3)))
    def test_any_word_fast_path_matches_expansion(self, template, perm):
        got = certified_mdeg(template)
        assume(got is not None)
        witness = template + permutation_word(perm, 3)
        fast = tuple(got[i] for i in _permutation_action(tuple(perm), 3))
        assert fast == mdeg(realize(witness))
        assert certified_mdeg(witness) in (None, fast)
        assert _verify_witness(template, fast, perm=perm) == witness


class TestWordJson:
    def test_round_trip(self):
        word = TameWord(
            (
                shear(0, mono3(0, 2, 1, Fraction(-3, 2))),
                ElementaryAut(2, Fraction(-2, 3), X1 + X2),
                ElementaryAut(1, Fraction(5), Polynomial.zero(3)),
            ),
            3,
        )
        assert TameWord.from_json(word.to_json()) == word

    def test_integer_scale_without_denominator(self):
        loaded = TameWord.from_json([{"target": 1, "scale": "-4", "shift": "x2"}])
        assert loaded.steps[0].scale == -4

    @pytest.mark.parametrize("scale", ["1/0", "a", "1.5", "", "1/", "+1", " 1", "1/-2", 2])
    def test_malformed_scale_names_its_step(self, scale):
        steps = [
            {"target": 1, "scale": "1/1", "shift": "x2"},
            {"target": 2, "scale": scale, "shift": "x3"},
        ]
        with pytest.raises(DomainError) as err:
            TameWord.from_json(steps)
        assert str(err.value) == f"step 2: malformed scale {scale!r}"

    def test_over_long_scale_names_its_step(self):
        digits = "7" * 5000
        with pytest.raises(DomainError, match="^step 1: malformed scale"):
            TameWord.from_json([{"target": 1, "scale": digits, "shift": "x2"}])

    GOOD = {"target": 1, "scale": "1", "shift": "x2"}

    @pytest.mark.parametrize(
        "step, message",
        [
            (["target", 1], "expected an object, not list"),
            ("x2", "expected an object, not str"),
            ({"scale": "1", "shift": "x2"}, "missing key 'target'"),
            ({"target": 1, "shift": "x2"}, "missing key 'scale'"),
            ({"target": 1, "scale": "1"}, "missing key 'shift'"),
            ({**GOOD, "target": "1"}, "target must be an int in 1..3, not str"),
            ({**GOOD, "target": 1.0}, "target must be an int in 1..3, not float"),
            ({**GOOD, "target": True}, "target must be an int in 1..3, not bool"),
            ({**GOOD, "target": 0}, "target must be an int in 1..3, not 0"),
            ({**GOOD, "target": 4}, "target must be an int in 1..3, not 4"),
            ({**GOOD, "target": 10**400}, "target must be an int in 1..3, not <401-digit integer>"),
            ({**GOOD, "shift": 2}, "shift must be a string, not int"),
            ({**GOOD, "shift": None}, "shift must be a string, not NoneType"),
            (
                {"target": 2, "scale": "1", "shift": "x2^2"},
                "shift must not involve the target variable",
            ),
            (
                {**GOOD, "shift": "x2 +"},
                "expected a number, variable or '(', found 'end' (at position 4)",
            ),
        ],
    )
    def test_malformed_step_names_its_step(self, step, message):
        with pytest.raises(DomainError) as err:
            TameWord.from_json([self.GOOD, self.GOOD, step])
        assert str(err.value) == f"step 3: {message}"

    @pytest.mark.parametrize("word, kind", [({"a": 1}, "dict"), (5, "int"), ("x2", "str")])
    def test_word_that_is_not_a_list(self, word, kind):
        with pytest.raises(DomainError) as err:
            TameWord.from_json(word)
        assert str(err.value) == f"word must be a list of steps, not {kind}"

    def test_malformed_step_in_a_record_file(self, tmp_path):
        from tamedeg import SearchConfig, load, persist, run_search

        records, _ = run_search(SearchConfig(seed=9, sample_count=5, weights=((1, 1, 1),)))
        path = tmp_path / "records.jsonl"
        persist(records[:2], path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["word"] = [self.GOOD, {**self.GOOD, "target": "2"}]
        shift_doc = {**doc, "word": [self.GOOD, self.GOOD, {**self.GOOD, "shift": "x2 +"}]}
        path.write_text("\n".join([lines[0], json.dumps(doc), json.dumps(shift_doc)]) + "\n")
        loaded = load(path)
        assert loaded[0].to_word() == records[0].to_word()
        with pytest.raises(DomainError, match="^step 2: target must be an int in 1..3, not str$"):
            loaded[1].to_word()
        with pytest.raises(DomainError) as err:
            loaded[2].to_word()
        assert str(err.value) == (
            "step 3: expected a number, variable or '(', found 'end' (at position 4)"
        )

    def test_zero_scale_still_rejected(self):
        with pytest.raises(DomainError, match="nonzero scale"):
            TameWord.from_json([{"target": 1, "scale": "0/1", "shift": "x2"}])

    def test_memoized_shift_is_checked_against_each_target(self):
        TameWord.from_json([{"target": 1, "scale": "1/1", "shift": "x2"}])
        with pytest.raises(DomainError) as err:
            TameWord.from_json([{"target": 2, "scale": "1/1", "shift": "x2"}])
        assert str(err.value) == "step 1: shift must not involve the target variable"

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"target": 1, "scale": "1/0", "shift": "x2"}, "malformed scale '1/0'"),
            ({"target": 1, "scale": "0/1", "shift": "x2"},
             "elementary step needs a nonzero scale"),
            ({"target": 1, "scale": "1/1", "shift": "x2 +"},
             "expected a number, variable or '(', found 'end' (at position 4)"),
            ({"target": 1, "scale": "1/1", "shift": "x1*x2"},
             "shift must not involve the target variable"),
        ],
    )
    def test_bad_step_after_memoized_good_ones(self, step, message):
        good = {"target": 1, "scale": "1/1", "shift": "x2"}
        for _ in range(2):
            TameWord.from_json([good, good])
            with pytest.raises(DomainError) as err:
                TameWord.from_json([good, good, step])
            assert str(err.value) == f"step 3: {message}"

    def test_words_sharing_steps_round_trip(self):
        a = ElementaryAut(2, Fraction(-2, 3), X1 + X2)
        b = shear(0, mono3(0, 2, 1, Fraction(-3, 2)))
        words = [TameWord((a, b), 3), TameWord((b, a, b), 3), TameWord((a,), 3)]
        for _ in range(2):
            for word in words:
                loaded = TameWord.from_json(word.to_json())
                assert loaded == word
                assert loaded.render() == word.render()
        shared = TameWord.from_json(words[1].to_json()).steps
        assert shared[0] is shared[2] is TameWord.from_json(words[0].to_json()).steps[1]

    @pytest.mark.parametrize(
        "shift, expected",
        [
            ("(x2+x3)^2", X2 * X2 + X2 * X3 * 2 + X3 * X3),
            ("2^3*x2", X2 * 8),
            ("+".join(["x2"] * 101), X2 * 101),
        ],
        ids=["parenthesized", "number-power", "over-long"],
    )
    def test_large_shift_texts_are_not_memoized(self, shift, expected):
        from tamedeg.automorphisms import _memo_step

        before = _memo_step.cache_info()
        word = TameWord.from_json([{"target": 1, "scale": "1", "shift": shift}])
        assert word.steps[0].shift == expected
        assert _memo_step.cache_info() == before


class TestMultidegrees:
    def test_identity(self):
        ident = Endo.identity(3)
        assert mdeg_w(ident, (1, 2, 3)) == (ge(1), ge(2), ge(3))
        assert deg_w_total(ident, (1, 2, 3)) == ge(6)

    def test_engine_example(self):
        word = TameWord(
            (shear(0, mono3(0, 0, 2)), shear(1, mono3(0, 0, 3)), shear(2, mono3(2, 0, 0))),
            3,
        )
        assert mdeg(realize(word)) == (2, 3, 4)

    def test_nagata(self):
        n = nagata()
        assert mdeg(n) == (5, 3, 1)
        assert jacobian_det(n.components) == Polynomial.constant(1, 3)
        assert wedge3_degree(*n.components, (1, 1, 1)) == ge(3)


class TestSemigroupWitness:
    def test_template_one(self):
        word = semigroup_witness(2, 3, 4)
        endo = realize(word)
        assert mdeg(endo) == (2, 3, 4)
        # third step shears x3 by x1^2 (witness (a, b) = (2, 0))
        assert word.steps[2].shift == mono3(2, 0, 0)

    def test_template_two(self):
        word = semigroup_witness(3, 6, 7)
        endo = realize(word)
        assert mdeg(endo) == (3, 6, 7)
        assert leading_form(endo.components[1]) == X2 ** 6

    def test_no_witness(self):
        for triple in ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 5, 11)):
            assert semigroup_witness(*triple) is None

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            semigroup_witness(3, 2, 4)

    def test_non_integer_degrees_rejected(self):
        for triple in ((2.0, 3, 4), (2, 3.0, 4), (2, 3, 4.0), (1, 1.5, 2), (True, True, 2)):
            with pytest.raises(DomainError):
                semigroup_witness(*triple)

    def test_classify_total_matches_public_oracle(self):
        checked = 0
        for asked in itertools.product(range(1, 15), repeat=3):
            expected = public_witness_word(asked)
            result = classify_total(*asked)
            if expected is None:
                assert result.kind != "realizable", asked
                continue
            assert result.kind == "realizable", asked
            assert result.witness.to_json() == expected.to_json(), asked
            assert result.witness.render() == expected.render(), asked
            checked += 1
        assert checked > 1500

    def test_wrong_template_exponent_is_caught(self, monkeypatch):
        import tamedeg.automorphisms as automorphisms
        from tamedeg.poly import _trusted

        def bumped(nvars, terms):
            # every nonzero exponent of a template shift one too high; the
            # shifts still avoid their targets
            return _trusted(nvars, {tuple(e + (e > 0) for e in m): c for m, c in terms.items()})

        monkeypatch.setattr(automorphisms, "_trusted", bumped)
        for asked in ((2, 3, 4), (4, 2, 3), (3, 6, 7), (7, 3, 6)):
            with pytest.raises(ConstructionError):
                classify_total(*asked)

    def test_exhaustive_small(self):
        for d1 in range(1, 9):
            for d2 in range(d1, 9):
                for d3 in range(d2, 9):
                    word = semigroup_witness(d1, d2, d3)
                    expected = d2 % d1 == 0 or triple_semigroup_member(d3, (d1, d2))
                    if expected:
                        assert word is not None
                        assert mdeg(realize(word)) == (d1, d2, d3)
                    else:
                        assert word is None


class TestIntroFamily:
    def test_primes_2_3(self):
        degrees, word = intro_family((2, 3))
        assert degrees == (6, 9, 49)
        endo = realize(word)
        assert mdeg(endo) == (6, 9, 49)
        # top-degree cancellation: x3^54 terms from f1^9 and f2^6 cancel
        f3 = endo.components[2]
        assert (0, 0, 54) not in f3.terms
        assert max(sum(m) for m in f3.terms) == 49

    def test_primes_2_5(self):
        degrees, _ = intro_family((2, 5))
        assert degrees == (10, 25, 241)

    def test_non_integer_primes_rejected(self):
        for primes in ((2.0, 3), (2, 3.0), (2, "3")):
            with pytest.raises(DomainError, match="primes must be integers"):
                intro_family(primes)

    def test_membership_gaps(self):
        degrees, _ = intro_family((2, 3))
        d1, d2, d3 = degrees
        assert d2 % d1 != 0
        assert not triple_semigroup_member(d3, (d1, d2))

    def test_four_variables(self):
        degrees, word = intro_family((2, 3, 5))
        assert degrees == (30, 45, 125, 5581)
        endo = realize(word)
        got = tuple(d.coords[0] for d in mdeg_w(endo))
        assert got == degrees
        assert not triple_semigroup_member(degrees[3], degrees[:3])

    def test_bad_primes(self):
        with pytest.raises(DomainError):
            intro_family((4, 5))
        with pytest.raises(DomainError):
            intro_family((3, 2))


class TestDegreeFloorAndWedgeTotal:
    def test_sorted_mdeg_dominates_sorted_weights(self):
        rng = random.Random(53)
        for _ in range(40):
            word = random_word(rng, rng.randint(0, 5), exp_cap=2)
            endo = realize(word)
            for w in ((1, 1, 1), (1, 2, 3), (2, 3, 5)):
                degs = sorted(mdeg_w(endo, w))
                for d, wi in zip(degs, sorted(ge(x) for x in w)):
                    assert d >= wi

    def test_wedge3_equals_weight_total(self):
        rng = random.Random(59)
        for _ in range(30):
            word = random_word(rng, rng.randint(0, 4), exp_cap=2)
            endo = realize(word)
            for w in ((1, 1, 1), (1, 2, 3), (2, 3, 5)):
                assert wedge3_degree(*endo.components, w) == ge(sum(w))


class TestTwoVariableLeadingForms:
    def test_power_dependence_of_leading_forms(self):
        rng = random.Random(61)
        hits = 0
        while hits < 60:
            word = random_word(rng, rng.randint(1, 5), nvars=2, exp_cap=3)
            endo = realize(word)
            w = (1, rng.randint(1, 3))
            total = deg_w_total(endo, w)
            if not total > ge(w[0] + w[1]):
                continue
            h1 = leading_form(endo.components[0], w)
            h2 = leading_form(endo.components[1], w)
            assert (
                power_dependence(h1, h2) is not None
                or power_dependence(h2, h1) is not None
            )
            hits += 1
