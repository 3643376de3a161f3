import gc
import json
import pickle
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import FrozenInstanceError, make_dataclass
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    RankMismatchError,
    SearchConfig,
    TameWord,
    Theorem,
    Unknown,
    Weight,
    as_group_elem,
    builtin_registry,
    certify_wild,
    check_total_abc,
    check_weighted_conditions,
    classify_total,
    classify_weighted,
    consistency_check,
    degree_w,
    delta_lower_bound,
    ge,
    intro_family,
    make_realizable,
    mdeg,
    nagata,
    parse_polynomial,
    parse_vector_list,
    realizability_table,
    realize,
    run_search,
    semigroup_witness,
    shear,
    wedge2_degree,
)
from tamedeg.automorphisms import _verify_realization, _witness_word
from tamedeg import ordgroup
from tamedeg.classifier import (
    _UNIT,
    Clause,
    Condition,
    ConditionReport,
    DeltaBoundUse,
    _matching_permutation,
)
from tamedeg.ordgroup import GroupElem, _member1, as_weight
from oracles import (
    corollary_verdict,
    eager_certify_wild,
    eager_weighted_conditions,
    lemma_a_conditions,
    triple_semigroup_member,
)

W111 = Weight.of(1, 1, 1)


class TestDeltaLowerBound:
    def test_registry_entry_wins(self):
        assert delta_lower_bound(ge(4), ge(6), W111, builtin_registry()) == ge(4)

    def test_star_route(self):
        assert delta_lower_bound(ge(3), ge(5), W111, DeltaBoundRegistry()) == ge(3)

    def test_floor_when_multiplicity_blocks(self):
        assert delta_lower_bound(ge(2), ge(4), W111, DeltaBoundRegistry()) == ge(2)

    def test_entry_at_the_star_route_is_not_cited(self):
        # |w|* = 3 bounds Delta(4,6) already, so an entry of 3 raises nothing
        reg = DeltaBoundRegistry().with_entry(W111, ge(4), ge(6), ge(3))
        assert delta_lower_bound(ge(4), ge(6), W111, reg) == ge(3)
        assert check_weighted_conditions(4, 5, 6, W111, reg).uses == []

    def test_registry_file_round_trip(self):
        reg = builtin_registry().with_entry(
            Weight.of(1, 2, 3), ge(5), ge(7), ge(6)
        )
        again = DeltaBoundRegistry.from_lines(["1,1,1 ; 4,6 ; 4", "1,2,3 ; 7,5 ; 6"])
        assert again == reg
        assert again.fingerprint() == reg.fingerprint()

    def test_registry_lookup_unordered(self):
        reg = builtin_registry()
        assert reg.lookup(W111, ge(6), ge(4)) == ge(4)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1,1,1 ; 4,x ; 5", "bad integer 'x'"),
            ("1,1,1 ; 4,6", "expected 'W1,W2,W3 ; D,E ; BOUND'"),
            ("1,1 ; 4,6 ; 5", "need 3 weights, 2 degrees, 1 bound"),
            ("1,1,-1 ; 4,6 ; 5", "expected a positive group element, got GroupElem(-1,)"),
            ("1,1,1 ; -4,6 ; 4", "registry degrees must be positive"),
            ("1,1,1 ; 4,0 ; 4", "registry degrees must be positive"),
            ("1,1,1 ; 4,6 ; -5", "registry bounds must be positive"),
            ("1,1,1 ; 4,6 ; [5,0]", "degrees and bound need the weight's rank 1"),
            ("1,1,1 ; [4,0],[6,0] ; 5", "degrees and bound need the weight's rank 1"),
            ("1,1,1, ; 4,6 ; 5", "empty entry in '1,1,1,'"),
        ],
        ids=["entry", "shape", "counts", "weight", "negative-degree", "zero-degree", "bound",
             "bound-rank", "degree-rank", "trailing-comma"],
    )
    def test_registry_errors_name_their_line(self, line, message):
        with pytest.raises(DomainError) as err:
            DeltaBoundRegistry.from_lines(["# bounds", "1,1,1 ; 4,6 ; 4", line])
        assert str(err.value) == f"registry line 3: {message}"

    def test_large_registry_loads_in_linear_time(self):
        # 20,000 distinct entries, so a copy of the entries per line is quadratic
        lines = [f"1,{i % 5 + 1},{i % 7 + 1} ; {i + 4},{i + 6} ; {i % 9 + 1}"
                 for i in range(20_000)]
        started = time.perf_counter()
        loaded = DeltaBoundRegistry.from_lines(lines)
        elapsed = time.perf_counter() - started
        chained = DeltaBoundRegistry()
        for line in lines:
            ws, ds, bs = (parse_vector_list(part) for part in line.split(";"))
            chained = chained.with_entry(Weight(*ws), ds[0], ds[1], bs[0])
        assert loaded == chained and elapsed < 2

    @pytest.mark.parametrize("bound", [ge(-3), ge(0)])
    def test_entries_get_in_only_through_the_checks(self, bound):
        # the constructor takes no entries, so none skips the bound check
        with pytest.raises(TypeError):
            DeltaBoundRegistry({((1,), (1,), (1,)): bound})
        with pytest.raises(DomainError, match="^registry bounds must be positive$"):
            builtin_registry().with_entry(W111, ge(5), ge(7), bound)
        with pytest.raises(DomainError, match="^registry line 1: registry bounds must be"):
            DeltaBoundRegistry.from_lines([f"1,1,1 ; 5,7 ; {bound.coords[0]}"])
        # a refused entry leaves the registry it was offered to as it was
        assert builtin_registry() == DeltaBoundRegistry.from_lines(["1,1,1 ; 4,6 ; 4"])

    @pytest.mark.parametrize("call, error, message", [
        (lambda: delta_lower_bound(4, 6, W111), DomainError, "expected a group element, got 4"),
        (lambda: delta_lower_bound(ge(4), (6,), W111), DomainError,
         r"expected a group element, got \(6,\)"),
        (lambda: delta_lower_bound(ge(4, 0), ge(6, 0), W111), RankMismatchError,
         "rank mismatch: 2 vs 1"),
        (lambda: delta_lower_bound(ge(4), ge(6), (1, 1)), DomainError, "expected 3 weights, got 2"),
        (lambda: DeltaBoundRegistry().with_entry(W111, 4, 6, 4), DomainError,
         "expected a group element, got 4"),
        (lambda: DeltaBoundRegistry().with_entry(W111, ge(4), ge(6), 4), DomainError,
         "expected a group element, got 4"),
        (lambda: DeltaBoundRegistry().lookup(W111, 4, 6), DomainError,
         "expected a group element, got 4"),
        (lambda: builtin_registry().lookup(None, ge(4), True), DomainError,
         "expected a group element, got True"),
        (lambda: check_weighted_conditions(1, 2, 3, ((1, 0), (1, 1), (0, 1))),
         RankMismatchError, "expected rank 2, got rank 1"),
        (lambda: check_weighted_conditions(ge(1, 0), (1, 1), "x", ((1, 0), (1, 1), (0, 1))),
         DomainError, "cannot interpret 'x' as a group element"),
        (lambda: check_weighted_conditions(ge(1), ge(2), ge(3), "1,1,1"), DomainError,
         "cannot interpret '1' as a group element"),
        (lambda: delta_lower_bound(ge(0), ge(3), W111), DomainError, "degrees must be positive"),
        (lambda: check_weighted_conditions(0, 1, 2, (1, 1, 1)), DomainError,
         "degrees must be positive"),
        (lambda: check_weighted_conditions(3, 5, 5, Weight.of(1, 2, 3)), DomainError,
         "degrees must be strictly ascending"),
        (lambda: check_total_abc(0, 1, 2), DomainError,
         "degrees must satisfy 0 < d1 <= d2 <= d3"),
    ], ids=["delta-ints", "delta-tuple", "delta-rank", "delta-weight-count", "with_entry-ints",
            "with_entry-bound", "lookup-ints", "lookup-bool", "conditions-ints-rank-2",
            "conditions-str", "conditions-str-weight", "delta-zero", "conditions-zero",
            "conditions-repeated-top", "total-zero"])
    def test_other_types_are_domain_errors(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()

    def test_weights_may_be_given_by_their_entries(self):
        reg = DeltaBoundRegistry().with_entry((1, 1, 1), ge(4), ge(6), ge(4))
        assert reg == builtin_registry()
        assert reg.lookup(None, ge(6), ge(4)) == ge(4)  # None: unit weights
        assert delta_lower_bound(ge(4), ge(6), (1, 1, 1)) == ge(4)
        for degrees in ((ge(4), ge(5), ge(6)), ((4,), (5,), (6,)), (4, 5, 6)):
            rep = check_weighted_conditions(*degrees, (1, 1, 1))
            assert rep.conditions() == _weighted_report(None)[0]
        rank2 = ((1, 0), (1, 1), (0, 1))
        assert check_weighted_conditions((2, 1), (3, 0), (4, 1), rank2).conditions() == \
            check_weighted_conditions(ge(2, 1), ge(3, 0), ge(4, 1), Weight.of(*rank2)).conditions()

    def test_a_list_of_uses_is_not_taken(self):
        # the report carries its uses; a list passed after the registry
        # would otherwise bind to the solved pair
        with pytest.raises(TypeError):
            check_weighted_conditions(ge(4), ge(5), ge(6), W111, None, [])


def _weighted_report(registry):
    rep = check_weighted_conditions(ge(4), ge(5), ge(6), W111, registry)
    return rep.conditions(), rep.uses


class TestDefaultRegistry:
    """registry=None is resolved to builtin_registry() where a registry is
    read; the functions that only pass it down leave it None."""

    @pytest.mark.parametrize("call", [
        lambda reg: classify_total(4, 5, 6, reg),
        lambda reg: classify_weighted((4, 5, 6), (1, 1, 1), reg),
        lambda reg: certify_wild(nagata(), (4, 3, 3), reg),
        _weighted_report,
        lambda reg: corollary_verdict("karas-four", (5, 9), reg),
        lambda reg: dict(realizability_table(8, registry=reg)),
    ], ids=["classify_total", "classify_weighted", "certify_wild",
            "check_weighted_conditions", "corollary_verdict", "realizability_table"])
    def test_none_is_the_builtin_registry(self, call):
        assert call(None) == call(builtin_registry())

    def test_explicit_empty_registry_stays_empty(self):
        assert isinstance(classify_total(4, 5, 6, DeltaBoundRegistry()), Unknown)
        assert isinstance(classify_total(4, 5, 6, None), Excluded)

    @pytest.mark.parametrize("call, shown", [
        (lambda: classify_total(4, 5, 6, 5), "5"),
        (lambda: classify_weighted((4, 5, 6), (1, 1, 1), "x"), "'x'"),
        (lambda: delta_lower_bound(ge(4), ge(6), W111, [1]), r"\[1\]"),
        (lambda: list(realizability_table(6, registry=5)), "5"),
        (lambda: consistency_check(SearchConfig(seed=1, sample_count=3), 5), "5"),
        (lambda: run_search(SearchConfig(seed=1, sample_count=3), 5), "5"),
    ], ids=["classify_total", "classify_weighted", "delta_lower_bound",
            "realizability_table", "consistency_check", "run_search"])
    def test_other_registries_are_domain_errors(self, call, shown):
        with pytest.raises(DomainError, match=f"^expected a DeltaBoundRegistry, got {shown}$"):
            call()

    def test_a_call_that_reads_no_bound_never_looks_at_its_registry(self):
        # (3, 4, 5) is excluded by a1/a2, b1/b2 and c, which read no Delta bound
        assert classify_total(3, 4, 5, 5) == classify_total(3, 4, 5)


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

    @pytest.mark.parametrize("triple", [(2.0, 3, 4), (2, 3.0, 4), (2, 3, 4.5), ("1", "2", "3"),
                                        (None, 2, 3), (True, 2, 5), (1, True, 2)])
    def test_non_integer_degrees_rejected(self, triple):
        with pytest.raises(DomainError, match="^degrees must be integers$"):
            check_total_abc(*triple)

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
            classify_total(4, 5, 6, DeltaBoundRegistry()), Unknown
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
        empty = DeltaBoundRegistry()
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
        # force the fallback to full expansion, the path that checks it
        monkeypatch.setattr(automorphisms, "certified_mdeg", lambda word: None)
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
        assert isinstance(result, Realizable) and not hasattr(result, "endo")
        assert len(calls) == 0
        monkeypatch.undo()
        _verify_realization(result.witness, triple)

    @pytest.mark.parametrize("triple", [(1, 1, 2000), (2, 3, 10**6)])
    def test_realizable_verdict_expands_nothing(self, monkeypatch, triple):
        import tamedeg.automorphisms as automorphisms
        import tamedeg.classifier as classifier

        def forbidden(*args, **kwargs):
            raise AssertionError("the verdict path must not expand the witness")

        for module in (automorphisms, classifier):
            for name in ("realize", "jacobian_det"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        result = classify_total(*triple)
        assert isinstance(result, Realizable)
        assert result.multidegree == triple

    def test_corrupted_permutation_action_raises(self, monkeypatch):
        import tamedeg.automorphisms as automorphisms

        for asked in permutations((3, 4, 7)):
            if asked == (3, 4, 7):
                continue
            true_pi = automorphisms._permutation_action(_matching_permutation(asked), 3)
            for wrong in permutations(range(3)):
                if wrong == true_pi:
                    continue
                monkeypatch.setattr(automorphisms, "_permutation_action",
                                    lambda perm, nvars, wrong=wrong: wrong)
                with pytest.raises(ConstructionError, match="expected"):
                    classify_total(*asked)
                monkeypatch.undo()

    def test_undecided_template_expands_the_whole_witness(self, monkeypatch):
        import tamedeg.automorphisms as automorphisms
        import tamedeg.classifier as classifier

        expanded = []
        original = automorphisms.realize

        def counting(word, budget=None):
            expanded.append(word)
            return original(word, budget)

        monkeypatch.setattr(automorphisms, "certified_mdeg", lambda word: None)
        for module in (automorphisms, classifier):
            if hasattr(module, "realize"):
                monkeypatch.setattr(module, "realize", counting)
        result = classify_total(11, 1, 7)
        assert isinstance(result, Realizable)
        assert expanded == [result.witness]
        assert len(result.witness) > len(_witness_word(1, 7, 11))

    def test_nonpositive_degrees_rejected(self):
        with pytest.raises(DomainError):
            classify_total(0, 1, 2)
        with pytest.raises(DomainError):
            classify_weighted((1, 2, -3), W111)

    def test_bool_weighted_degree_rejected(self):
        with pytest.raises(DomainError, match="^cannot interpret True as a group element$"):
            classify_weighted([True, 2, 3], (1, 1, 1))

    @pytest.mark.parametrize("triple", [("1", "2", "3"), (None, 2, 3), (2, 3, 4.0), (True, 2, 3),
                                        (2, 3, True)])
    def test_non_integer_degrees_rejected(self, triple):
        with pytest.raises(DomainError, match="^degrees must be integers$"):
            classify_total(*triple)


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
            ge(4), ge(5), ge(6), W111, DeltaBoundRegistry()
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


def _elems(rank: int):
    return st.tuples(*[st.integers(-3, 8)] * rank).map(GroupElem).filter(
        lambda e: e.is_positive
    )


@st.composite
def _weighted_queries(draw):
    """Strictly ascending positive degrees and a positive weight of one rank
    1..3; the degrees are often small multiples of one element, so the
    3*d2 = 2*d3, s*d1 = 2*d3 and 4*d1 = 3*d2 branches come up."""
    rank = draw(st.integers(1, 3))
    weights = tuple(draw(_elems(rank)) for _ in range(3))
    if draw(st.booleans()):
        base = draw(_elems(rank))
        ds = [draw(st.integers(1, 12)) * base for _ in range(2)]
        ds.append(draw(_elems(rank)) if draw(st.booleans()) else draw(st.integers(1, 12)) * base)
    else:
        ds = [draw(_elems(rank)) for _ in range(3)]
    d1, d2, d3 = sorted(ds)
    assume(d1 < d2 < d3)
    return (d1, d2, d3), Weight(*weights)


class TestDecideBeforeExplaining:
    """check_weighted_conditions decides every condition at once and builds
    its clauses on read; the reports equal the eager reference's."""

    REGISTRIES = (
        builtin_registry(),
        builtin_registry()
        .with_entry(Weight.of(1, 2, 3), ge(4), ge(6), ge(9))
        .with_entry(Weight.of(1, 1, 1), ge(3), ge(9), ge(7))
        .with_entry(Weight.of(1, 1, 1), ge(6), ge(8), ge(12)),
    )

    @staticmethod
    def assert_matches_oracle(ds, w, registry):
        oracle_uses = []
        rep = check_weighted_conditions(*ds, w, registry)
        uses = rep.uses
        expected = eager_weighted_conditions(*ds, w, registry, oracle_uses)
        # the decisions are read before any clause is built
        assert rep.failed_names() == tuple(c.name for c in expected if not c.holds)
        assert [(c.name, c.holds, rep.holds(c.name)) for c in rep.conditions()] == [
            (c.name, c.holds, c.holds) for c in expected
        ]
        assert rep.conditions() == tuple(expected)
        assert [rep[c.name] for c in expected] == expected
        assert uses == oracle_uses
        assert all(type(u.bound) is GroupElem for u in uses)
        if w.rank == 1:  # degrees passed as ints give the same report
            ints = (d.coords[0] for d in ds)
            int_rep = check_weighted_conditions(*ints, w, registry)
            assert int_rep.conditions() == rep.conditions()
            assert int_rep.uses == uses
        return rep, uses

    def test_matches_eager_oracle_on_rank1_grid(self):
        for registry in self.REGISTRIES:
            for weight in ((1, 1, 1), (1, 2, 3), (2, 3, 5), (3, 1, 1), (1, 1, 2)):
                w = Weight.of(*weight)
                for triple in combinations(range(1, 16), 3):
                    self.assert_matches_oracle(tuple(map(ge, triple)), w, registry)

    def test_matches_eager_oracle_on_search_keys(self):
        keys = set()

        def recording(degrees, weight, registry):
            keys.add((weight, tuple(degrees)))
            return classify_weighted(degrees, weight, registry)

        for seed in range(8):
            config = SearchConfig(
                seed=seed, sample_count=30, weights=((1, 1, 1), (1, 2, 3), (2, 3, 5))
            )
            consistency_check(config, classify_fn=recording)
        assert len(keys) > 300
        ascending = 0
        for w, ds in sorted(keys, key=repr):
            if ds[0] < ds[1] < ds[2]:
                ascending += 1
                for registry in self.REGISTRIES:
                    self.assert_matches_oracle(ds, w, registry)
        assert ascending > 200

    # (make a report, its conditions as done eagerly or as describe() lines)
    REPORTS = {
        "rank1": (
            lambda: check_weighted_conditions(3, 5, 7, Weight.of(1, 2, 3)),
            lambda: tuple(eager_weighted_conditions(
                ge(3), ge(5), ge(7), Weight.of(1, 2, 3), builtin_registry(), []
            )),
        ),
        "rank2": (
            lambda: check_weighted_conditions(ge(2, 1), ge(3, 0), ge(4, 1),
                                              Weight.of((1, 0), (1, 1), (0, 1))),
            lambda: tuple(eager_weighted_conditions(
                ge(2, 1), ge(3, 0), ge(4, 1), Weight.of((1, 0), (1, 1), (0, 1)),
                builtin_registry(), [],
            )),
        ),
        "total": (lambda: check_total_abc(4, 5, 11), None),
    }

    @pytest.mark.parametrize("case", list(REPORTS))
    def test_reads_leave_the_report_as_put_stored_it(self, monkeypatch, case):
        make, eager = self.REPORTS[case]
        if eager is None:  # no eager total-degree oracle: its pinned lines
            lines = self.CERTIFICATES["total-degree"][2]
            matches = lambda conds: tuple(c.describe() for c in conds) == lines
        else:
            expected = eager()
            matches = lambda conds: conds == expected
        stored, put = [], ConditionReport.put

        def recording(rep, name, holds, build):
            stored.append((rep, name, holds, build))
            put(rep, name, holds, build)

        monkeypatch.setattr(ConditionReport, "put", recording)

        def made():
            stored.clear()
            rep = make()
            assert stored and all(r is rep for r, *_ in stored)
            return rep

        def as_put(rep):  # the report holds exactly what put() was given
            return list(rep._holds) == list(rep._builders) == [n for _, n, _, _ in stored] and all(
                rep._holds[n] is h and rep._builders[n] is b for _, n, h, b in stored
            )

        rep = made()  # conditions() first, then every item
        conds = rep.conditions()
        assert [c.name for c in conds] == list(rep._holds)
        assert matches(conds) and matches(tuple(rep[c.name] for c in conds))
        assert matches(rep.conditions()) and as_put(rep)
        rep = made()  # some items first, then conditions()
        read = tuple(rep[name] for name in list(rep._holds)[::2])
        conds = rep.conditions()
        assert read == conds[::2] and matches(conds) and as_put(rep)
        rep = made()  # both reads from 8 threads at once
        barrier = threading.Barrier(8)
        got, errors = [], []

        def read_both(by_name):
            try:
                barrier.wait(timeout=60)
                for _ in range(20):
                    if by_name:
                        got.append(tuple(rep[name] for name in rep._builders))
                    else:
                        got.append(rep.conditions())
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_both, args=(i % 2,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(got) == 160 and all(matches(g) for g in got) and as_put(rep)

    # k*triple meets the named guard: 3*d2 = 2*d3 (K3), an odd s >= 3 with
    # s*d1 = 2*d3 (K4), 4*d1 = 3*d2 (K5); (2, 3, 4) meets none
    SCALED = {(4, 6, 9): "K3", (4, 5, 6): "K4", (3, 4, 6): "K5", (2, 3, 4): None}

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 10**6 + 3, 10**18, 10**30])
    def test_matches_eager_oracle_on_scaled_triples(self, k):
        for triple, guard in self.SCALED.items():
            ds = tuple(ge(k * d) for d in triple)
            for weight in ((1, 1, 1), (1, 2, 3), (2, 3, 5)):
                for registry in self.REGISTRIES:
                    rep, _ = self.assert_matches_oracle(ds, Weight.of(*weight), registry)
                    met = [n for n in ("K3", "K4", "K5") if len(rep[n].clauses) == 2]
                    assert guard is None and met == [] or guard in met

    def test_registry_bounds_stay_group_elements(self):
        # (4, 5, 6) under unit weights uses the builtin Delta(4, 6) >= 4
        rep, uses = self.assert_matches_oracle(
            (ge(4), ge(5), ge(6)), W111, builtin_registry()
        )
        assert rep.holds("A3")
        assert [u.describe() for u in uses] == ["Delta(4,6)>=4"]
        assert uses[0].bound == ge(4)
        cert = classify_total(4, 5, 6).certificate
        assert cert.delta_bounds_used == tuple(uses)
        assert cert.to_json()["delta_bounds_used"][0]["bound"] == [4]

    @pytest.mark.parametrize("weight", [(1, 1, 1), (1, 2, 3), (2, 3, 5), (4, 3, 3)])
    def test_rank1_degree_forms_agree(self, weight):
        w = Weight.of(*weight)
        triples = list(combinations(range(1, 13), 3))
        triples += [(5, 3, 4), (6, 4, 9), (2, 2, 3), (7, 7, 7), (9, 1, 4)]
        for registry in self.REGISTRIES:
            for triple in triples:
                verdicts = [
                    classify_weighted(forms, w, registry)
                    for forms in (
                        triple,
                        tuple((d,) for d in triple),
                        tuple(ge(d) for d in triple),
                        (triple[0], (triple[1],), ge(triple[2])),
                    )
                ]
                shown = [repr(v) for v in verdicts]
                assert shown.count(shown[0]) == len(shown)
                if isinstance(verdicts[0], Excluded):
                    texts = [json.dumps(v.certificate.to_json()) for v in verdicts]
                    assert texts.count(texts[0]) == len(texts)

    @given(_weighted_queries(), st.sampled_from(REGISTRIES))
    @settings(max_examples=400, deadline=None)
    def test_matches_eager_oracle_ranks_1_to_3(self, query, registry):
        ds, w = query
        self.assert_matches_oracle(ds, w, registry)

    def test_unknown_verdict_builds_no_clause(self, monkeypatch):
        expected = tuple(
            eager_weighted_conditions(ge(1), ge(2), ge(3), W111, builtin_registry(), [])
        )
        built = []
        init = Clause.__init__

        def counting(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Clause, "__init__", counting)
        queries = (
            ((1, 2, 3), (1, 1, 1)),
            ((4, 6, 9), (1, 1, 1)),
            (((2, 1), (1, 2), (3, 3)), ((1, 0), (0, 1), (1, 1))),
            (((1, 2, 0), (2, 1, 0), (1, -1, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        )
        for degrees, weight in queries:
            assert isinstance(classify_weighted(degrees, weight), Unknown)
        assert isinstance(classify_total(4, 6, 9), Unknown)
        assert built == []
        # conditions() builds no clause; reading .clauses builds each once
        rep = check_weighted_conditions(ge(1), ge(2), ge(3), W111)
        first = rep.conditions()
        assert built == []
        assert sum(len(c.clauses) for c in first) == 17 and len(built) == 17
        assert first == expected and len(built) == 17
        # a second conditions() makes new conditions, which build their own
        second = rep.conditions()
        assert len(built) == 17 and second == expected and len(built) == 34
        assert sum(len(c.clauses) for c in first + second) == 34 and len(built) == 34
        assert isinstance(classify_weighted((4, 5, 7), (1, 1, 1)), Excluded)
        assert len(built) == 34

    # Excluded verdicts and wildness certificates of every theorem: how to
    # make one, its theorem, the describe() lines of the conditions that
    # check_weighted_conditions does not make, and (degrees, weight) for
    # eager_weighted_conditions, which must equal the conditions it does make.
    CERTIFICATES = {
        "total-degree": (
            lambda: classify_total(4, 5, 11).certificate,
            Theorem.TOTAL_DEGREE,
            (
                "a1 + (3*d2 = 15 != 2*d3 = 22 [yes]; odd s >= 3 with s*d1 = 2*d3 none [yes])",
                "a2 + (d1+d2 = 9 <= d3+2 = 13 [yes])",
                "b1 + (gcd(d1,d2) = 1 <= 3 [yes]; gcd(d1,d2) = 1 divides d3 = 11 [yes])",
                "b2 + (d1+d2+d3 = 20 <= lcm(d1,d2)+2 = 22 [yes])",
                "c + (d1 = 4 does not divide d2 = 5 [yes]; d3 = 11 not in <d1,d2> [yes])",
            ),
            None,
        ),
        "main-weighted": (
            lambda: classify_weighted((3, 5, 7), (1, 2, 3)).certificate,
            Theorem.MAIN_WEIGHTED,
            (),
            ((3, 5, 7), (1, 2, 3)),
        ),
        "main-weighted-with-registry": (
            lambda: classify_total(4, 5, 6).certificate,
            Theorem.MAIN_WEIGHTED,
            (),
            ((4, 5, 6), (1, 1, 1)),
        ),
        "independent-weights": (
            lambda: classify_weighted(
                ((1, 1, 0), (1, -1, 2), (1, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            ).certificate,
            Theorem.INDEPENDENT_WEIGHTS,
            (
                "1 + (d1, d2 linearly independent [yes]; d1, d3 linearly independent [yes]; "
                "d2, d3 linearly independent [yes]; d1, d2, d3 linearly dependent [yes])",
                "2 + (d1 = [1,1,0] not in <other two> [yes]; d2 = [1,-1,2] not in <other two> "
                "[yes]; d3 = [1,0,1] not in <other two> [yes])",
            ),
            None,
        ),
        "wild": (
            lambda: certify_wild(nagata(), (4, 3, 3)),
            Theorem.F_SPECIFIC,
            ("prop:main + (d1+d2+d3 = 30 < lcm(d1,d2)+deg_w(df1^df2) = 43 [yes])",),
            ((3, 10, 17), (4, 3, 3)),
        ),
        "wild-independent-pair": (
            lambda: certify_wild(nagata(), ((1, 0), (1, 0), (1, 1))),
            Theorem.F_SPECIFIC,
            ("1 + (d1, d2 linearly independent over Z [yes])",),
            (((1, 1), (3, 2), (5, 3)), ((1, 0), (1, 0), (1, 1))),
        ),
    }

    @pytest.mark.parametrize("reader", ["clauses", "describe", "to_json"])
    @pytest.mark.parametrize("case", list(CERTIFICATES))
    def test_certificates_build_no_clause_until_read(self, monkeypatch, case, reader):
        make, theorem, own_lines, oracle_query = self.CERTIFICATES[case]
        reference = make()
        reference_json = reference.to_json()  # built before counting
        count = sum(len(c["clauses"]) for c in reference_json["conditions"])
        built = []
        init = Clause.__init__

        def counting(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Clause, "__init__", counting)
        cert = make()
        # the kind, the theorem, the names and the holds flags build no text
        assert cert.theorem is theorem
        names = [(c.name, c.holds) for c in cert.conditions]
        assert names == [(c.name, c.holds) for c in reference.conditions]
        assert cert.delta_bounds_used == reference.delta_bounds_used
        assert built == []
        if reader == "clauses":
            for c in cert.conditions:
                c.clauses
        elif reader == "describe":
            for c in cert.conditions:
                c.describe()
        else:
            cert.to_json()
        assert count > 0 and len(built) == count
        # read once, the text is kept: further reads build nothing
        assert cert.to_json() == reference_json
        assert cert == reference and repr(cert) == repr(reference)
        assert len(built) == count
        own = len(own_lines)
        assert tuple(c.describe() for c in cert.conditions[len(names) - own:]) == own_lines
        if oracle_query is not None:
            ds, w = oracle_query
            eager = {
                c.name: c
                for c in eager_weighted_conditions(
                    *map(as_group_elem, ds), Weight.of(*w), builtin_registry(), []
                )
            }
            checked = cert.conditions[: len(names) - own]
            assert checked == tuple(eager[c.name] for c in checked)
            if theorem is Theorem.MAIN_WEIGHTED:
                assert checked == tuple(eager.values())

    def test_concurrent_first_reads_agree(self):
        verdicts = [classify_weighted(t, (1, 2, 3)) for t in combinations(range(1, 16), 3)]
        certs = [v.certificate for v in verdicts if isinstance(v, Excluded)]
        assert len(certs) > 100
        texts, errors = [[] for _ in range(4)], []

        def read(out):
            try:
                out.extend(json.dumps(c.to_json()) for c in certs)
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in texts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert texts[0] == texts[1] == texts[2] == texts[3]
        assert len(texts[0]) == len(certs)

    @staticmethod
    def eager_certificate(case):
        """The certificate of a CERTIFICATES case as the eager oracles make
        it: every condition and clause built as it is decided.  None for
        the theorems no oracle covers, which are checked by their lines."""
        _, theorem, _, query = TestDecideBeforeExplaining.CERTIFICATES[case]
        if theorem is Theorem.F_SPECIFIC:
            return eager_certify_wild(nagata(), query[1])
        if theorem is Theorem.MAIN_WEIGHTED:
            ds, w = query
            uses = []
            conditions = eager_weighted_conditions(
                *map(as_group_elem, ds), Weight.of(*w), builtin_registry(), uses
            )
            return Certificate(theorem, conditions, uses)
        return None

    # each reads a certificate and checks what it read against a built one
    READERS = {
        "conditions": lambda cert, ref: cert.conditions == ref.conditions,
        "to_json": lambda cert, ref: cert.to_json() == ref.to_json(),
        "eq": lambda cert, ref: cert == ref,
        "hash": lambda cert, ref: hash(cert) == hash(ref),
        "repr": lambda cert, ref: repr(cert) == repr(ref),
        "pickle": lambda cert, ref: pickle.loads(pickle.dumps(cert)) == ref,
    }

    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize("case", list(CERTIFICATES))
    def test_certificates_make_no_condition_until_read(self, monkeypatch, case, reader):
        make, theorem, own_lines, _ = self.CERTIFICATES[case]
        reference, eager = make(), self.eager_certificate(case)
        names = [c.name for c in reference.conditions]  # built before counting
        made, reports = [], []
        condition_init, report_init = Condition.__init__, ConditionReport.__init__

        def counting(cond, name, holds, clauses):
            made.append(cond)
            condition_init(cond, name, holds, clauses)

        def recording(rep):
            reports.append(rep)
            report_init(rep)

        monkeypatch.setattr(Condition, "__init__", counting)
        monkeypatch.setattr(ConditionReport, "__init__", recording)
        cert = make()
        assert cert.theorem is theorem
        assert cert.delta_bounds_used == reference.delta_bounds_used
        # a verdict of any theorem, wild included, its theorem and bounds:
        # no Condition
        assert made == [] and reports
        # unpickling makes the copy its own conditions, through __init__
        copies = len(names) if reader == "pickle" else 0
        assert self.READERS[reader](cert, reference)
        stored = cert.conditions
        # the first read made each condition once
        assert len(stored) == len(names) and len(made) == len(names) + copies
        assert all(m is c for m, c in zip(made, stored)) and [c.name for c in stored] == names
        for read in self.READERS.values():
            assert read(cert, reference)
        # and the later reads made none but the copy's, in the pickle round trip
        assert len(made) == 2 * len(names) + copies
        assert cert.conditions is stored
        if eager is not None:
            assert cert == eager and hash(cert) == hash(eager) and repr(cert) == repr(eager)
            assert cert.to_json() == eager.to_json()
        else:
            assert tuple(c.describe() for c in stored) == own_lines
        # a condition a report decided is that report's own Condition
        owned = [(r, c) for c in stored for r in reports if c.name in r._holds]
        assert len(owned) == len(stored) - (theorem is Theorem.F_SPECIFIC)
        assert all(r[c.name] == c for r, c in owned)

    @pytest.mark.parametrize("case", list(CERTIFICATES))
    def test_concurrent_first_reads_of_one_certificate(self, case):
        make = self.CERTIFICATES[case][0]
        reference = make().conditions
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                cert = make()
                barrier = threading.Barrier(8)
                got, errors = [], []

                def read():
                    try:
                        barrier.wait(timeout=60)
                        got.append(cert.conditions)
                    except Exception as exc:  # reported below, in the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and errors == []
                assert len(got) == 8 and all(g == reference for g in got)
                stored = cert.conditions
                assert any(g is stored for g in got)
                assert all(cert.conditions is stored for _ in range(3))
        finally:
            sys.setswitchinterval(interval)

    def test_certificate_stores_tuples(self):
        clause = Clause("d1 = 1", "<", "d2 = 2", True)
        listed_cond = Condition("c", True, [clause])
        tupled_cond = Condition("c", True, (clause,))
        assert listed_cond == tupled_cond and hash(listed_cond) == hash(tupled_cond)
        assert type(listed_cond.clauses) is tuple
        cond = Condition("c", True, ())
        use = DeltaBoundUse(((1,), (1,), (1,)), ((4,), (6,)), ge(4))
        listed = Certificate(Theorem.TOTAL_DEGREE, [cond], [use])
        tupled = Certificate(Theorem.TOTAL_DEGREE, (cond,), (use,))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert type(listed.conditions) is tuple and type(listed.delta_bounds_used) is tuple
        empty = Certificate(Theorem.TOTAL_DEGREE, [])
        assert empty == Certificate(Theorem.TOTAL_DEGREE, ())
        assert hash(empty) == hash(Certificate(Theorem.TOTAL_DEGREE, ()))

    def test_condition_equals_its_eager_value(self):
        reference = make_dataclass(
            "Condition", [("name", str), ("holds", bool), ("clauses", tuple)], frozen=True
        )
        for ds in ((1, 2, 3), (4, 5, 6), (3, 5, 7), (6, 8, 9), (4, 6, 9)):
            for weight in ((1, 1, 1), (1, 2, 3)):
                args = (*map(ge, ds), Weight.of(*weight), builtin_registry())
                for lazy, eager in zip(
                    check_weighted_conditions(*args).conditions(),
                    eager_weighted_conditions(*args, []),
                ):
                    value = (eager.name, eager.holds, eager.clauses)
                    assert hash(lazy) == hash(eager) == hash(reference(*value))
                    assert lazy == eager and eager == lazy and not lazy != eager
                    assert repr(lazy) == repr(eager) == repr(reference(*value))
                    assert {lazy: 1}[eager] == 1
                    assert lazy != Condition(eager.name, not eager.holds, eager.clauses)
                    assert lazy != Condition(eager.name + "'", eager.holds, eager.clauses)
                    assert lazy != Condition(eager.name, eager.holds, eager.clauses[:-1])
                    assert lazy != value and lazy != reference(*value)
                    assert pickle.loads(pickle.dumps(lazy)) == eager
                    with pytest.raises(FrozenInstanceError):
                        lazy.holds = not lazy.holds
                    with pytest.raises(FrozenInstanceError):
                        del lazy.name

    def test_reports_leave_no_garbage_cycles(self):
        # a builder that refers to its own report makes every report cyclic
        # garbage, and the collector's extra passes show in the latency tail
        gc.collect()
        gc.disable()
        try:
            for triple in ((1, 2, 3), (4, 5, 7), (4, 6, 9), (2, 3, 4)):
                for weight in ((1, 1, 1), (1, 2, 3)):
                    check_weighted_conditions(*map(ge, triple), Weight.of(*weight)).conditions()
                    classify_weighted(triple, weight)
                check_total_abc(*triple).conditions()
                classify_total(*triple)
            for degrees in (((2, 1), (1, 2), (3, 3)), ((1, 0), (0, 1), (1, 1))):
                classify_weighted(degrees, ((1, 0), (0, 1), (1, 1)))
            unit3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            assert isinstance(classify_weighted(((1, 0, 0), (1, 1, 0), (1, 2, 0)), unit3), Excluded)
            certify_wild(nagata(), (4, 3, 3))
            assert gc.collect() == 0
            # certificates never read hold the builders of their conditions
            unread = [case[0]() for case in self.CERTIFICATES.values()]
            del unread
            assert gc.collect() == 0
            # certificates whose clauses are never read hold builders, not text
            unread = [case[0]() for case in self.CERTIFICATES.values()]
            assert all(c.conditions for c in unread)
            del unread
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("triple", [(4, 5, 6), (3, 4, 5), (4, 6, 9), (6, 7, 8), (2, 3, 4)])
    def test_membership_solved_once_per_triple(self, triple, monkeypatch):
        import tamedeg.classifier as classifier

        def forbidden(*args):
            raise AssertionError("rank 1 must not reach the rank >= 2 kernel")

        for module in (ordgroup, classifier):
            monkeypatch.setattr(module, "_member", forbidden)
        _member1.cache_clear()
        classify_total(*triple)
        assert _member1.cache_info().misses == 1

    def test_unit_weight_star_computed_at_most_once(self, monkeypatch):
        calls = []
        real = ordgroup.w_star
        monkeypatch.setattr(ordgroup, "w_star", lambda ws: calls.append(ws) or real(ws))
        _UNIT.__dict__.pop("star", None)  # forget a value that earlier tests read
        # no witness and a, b or c fails: each reaches the unit-weight chain
        for triple in ((4, 5, 6), (4, 6, 7), (4, 6, 11), (4, 9, 10), (6, 8, 9)):
            result = classify_total(*triple)
            assert isinstance(result, Unknown) or result.certificate.theorem is Theorem.MAIN_WEIGHTED
        assert len(calls) == 1


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


def _weighted_outcome(degrees, weight):
    """The verdict, or the class and message of the exception raised."""
    try:
        return classify_weighted(degrees, weight)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _degree_forms(ints):
    """An int degree triple as given, as GroupElems and as 1-tuples, each
    also as an iterable that is not a sequence; entries that are not ints
    are kept as they are."""
    forms = (
        tuple(ints),
        tuple(ge(d) if type(d) is int else d for d in ints),
        tuple((d,) if type(d) is int else d for d in ints),
    )
    return [*forms, *(iter(f) for f in forms)]


class TestRankOneDegreeForms:
    """classify_weighted decides a rank-1 triple on ints, whichever of the
    int, GroupElem or 1-tuple forms its degrees come in: the verdicts, the
    errors and the order of the checks are those of one normalization."""

    @pytest.mark.parametrize("weight", [(1, 1, 1), (1, 2, 3), (2, 3, 5)])
    def test_valid_triples(self, weight):
        for triple in product(range(1, 9), repeat=3):
            outcomes = [_weighted_outcome(f, weight) for f in _degree_forms(triple)]
            assert isinstance(outcomes[0], (Excluded, Unknown)), (triple, outcomes[0])
            assert outcomes == [outcomes[0]] * len(outcomes), triple

    @pytest.mark.parametrize("degrees, weight, error", [
        ((1, 2), (1, 1, 1), (DomainError, "expected a degree triple")),
        ((1, 2, 3, 4), (1, 1, 1), (DomainError, "expected a degree triple")),
        ((3, 5, 7), ((1, 0), (0, 1), (1, 1)),
         (DomainError, "degrees and weights must share one rank")),
        ((3, ge(5, 0), 7), (1, 2, 3), (DomainError, "degrees and weights must share one rank")),
        ((0, 2, 3), (1, 2, 3), (DomainError, "degrees must be positive")),
        ((3, 5, -1), (1, 1, 1), (DomainError, "degrees must be positive")),
        ((3, 5, 7.0), (1, 1, 1), (DomainError, "cannot interpret 7.0 as a group element")),
        # the order of the checks: the degrees' entries, their count, the
        # weight, the ranks, and positivity last
        ((1, 2.5), (1, 2), (DomainError, "cannot interpret 2.5 as a group element")),
        ((1, 2), (1, 2), (DomainError, "expected a degree triple")),
        ((0, 2, 3), (1, 2), (DomainError, "expected 3 weights, got 2")),
        ((0, 2, 3), ((1, 0), (0, 1), (1, 1)),
         (DomainError, "degrees and weights must share one rank")),
        (((0, -1), (1, 0), (2, 0)), ((1, 0), (1, 1), (0, 1)),
         (DomainError, "degrees must be positive")),
    ], ids=["short", "long", "int-rank-2-weight", "mixed-ranks", "zero", "negative", "float",
            "entry-before-count", "count-before-weight", "weight-before-positivity",
            "rank-before-positivity", "rank-2-nonpositive"])
    def test_errors(self, degrees, weight, error):
        for form in _degree_forms(degrees):
            assert _weighted_outcome(form, weight) == error

    @pytest.mark.parametrize("degrees", [5, None])
    def test_degrees_without_entries_rejected(self, degrees):
        assert _weighted_outcome(degrees, W111) == (
            DomainError, f"degrees must be a sequence, got {degrees}"
        )

    def test_bool_degrees_rejected(self):
        # a bool has no GroupElem form; its other forms keep their messages
        assert _weighted_outcome((True, 2, 3), W111) == (
            DomainError, "cannot interpret True as a group element"
        )
        assert _weighted_outcome(((True,), (2,), (3,)), W111) == (
            DomainError, "coordinates must be integers, got True"
        )
        assert _weighted_outcome((3, 5, False), (1, 2, 3)) == (
            DomainError, "cannot interpret False as a group element"
        )


def _abc_fires(rep) -> bool:
    h = rep.holds
    return (h("a1") or h("a2")) and (h("b1") or h("b2")) and h("c")


def _describe(conditions) -> str:
    return "; ".join(c.describe() for c in conditions)


class TestTwoDerivations:
    """The Karas-type total-degree conditions are the unit-weight case of
    the main weighted theorem: on the triples with distinct entries and no
    template witness, every a/b/c exclusion is re-derived by the weighted
    chain at weight (1, 1, 1), and the chain excludes one triple more,
    (4, 5, 6), through the registry's Delta(4, 6) >= 4 alone."""

    def test_abc_exclusions_are_unit_weight_exclusions(self):
        triples = [
            t for t in combinations(range(1, 51), 3) if _witness_word(*t) is None
        ]
        assert len(triples) == 12117
        abc_excluded, chain_only = 0, []
        for t in triples:
            rep = check_total_abc(*t)
            weighted = classify_weighted(t, (1, 1, 1))
            if _abc_fires(rep):
                abc_excluded += 1
                assert isinstance(weighted, Excluded), (
                    f"{t}: a/b/c excludes it ({_describe(rep.conditions())}) but the "
                    f"unit-weight chain gives {weighted!r}"
                )
            elif isinstance(weighted, Excluded):
                chain_only.append((t, weighted.certificate))
        assert abc_excluded == 10891
        assert [t for t, _ in chain_only] == [(4, 5, 6)], "excluded by the chain alone: " + (
            " | ".join(f"{t}: {_describe(cert.conditions)}" for t, cert in chain_only)
        )
        cert = chain_only[0][1]
        assert cert.theorem is Theorem.MAIN_WEIGHTED
        assert [u.describe() for u in cert.delta_bounds_used] == ["Delta(4,6)>=4"]
        assert isinstance(classify_weighted((4, 5, 6), (1, 1, 1), DeltaBoundRegistry()), Unknown)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**4), min_size=3, max_size=3,
                    unique=True).map(sorted))
    @example([4, 5, 6])  # the one chain-only exclusion up to 90
    def test_large_triples(self, t):
        assume(_witness_word(*t) is None)
        rep = check_total_abc(*t)
        weighted = classify_weighted(t, (1, 1, 1))
        if _abc_fires(rep):
            assert isinstance(weighted, Excluded), (
                f"{t}: a/b/c excludes it ({_describe(rep.conditions())}) but the "
                f"unit-weight chain gives {weighted!r}"
            )
        elif isinstance(weighted, Excluded):
            # excluded by the unit-weight chain alone: only through a registry bound
            assert weighted.certificate.delta_bounds_used, _describe(weighted.certificate.conditions)
            assert not isinstance(classify_weighted(t, (1, 1, 1), DeltaBoundRegistry()), Excluded)


class TestCertifyWild:
    def test_identity_unknown(self):
        out = certify_wild(Endo.identity(3), W111)
        assert isinstance(out, Unknown) and out.reasons == ("K1",)

    def test_zero_component_has_no_degree(self):
        # a zero component has no degree and makes the Jacobian vanish,
        # so the screen rejects the map
        x1, x2 = Polynomial.variable(0, 3), Polynomial.variable(1, 3)
        endo = Endo((x1, x2, Polynomial.zero(3)))
        assert degree_w(endo.components[2], W111) is None
        with pytest.raises(DomainError, match="^rejected input: Jacobian is not a nonzero constant$"):
            certify_wild(endo, W111)

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

    @pytest.mark.parametrize("components", [
        ("x1^2", "x2", "x3"),  # Jacobian 2*x1
        ("x1 + x2^2", "x2 + x3^3", "2*x3 + x1*x3"),  # Jacobian 6*x2*x3^3 + x1 + 2
        ("x1", "x2", "0"),  # a zero component
        ("0", "x2 + x1^3", "x3"),
    ])
    def test_rejection_is_kept_for_every_later_call(self, components):
        # the screen's result stays with the map: whichever weight the first
        # call brings, that call and every later one raise
        endo = Endo(tuple(parse_polynomial(c) for c in components))
        for weight in ((1, 1, 1), (3, 2, 1), (1, 5, 2), ((1, 0), (0, 1), (1, 1)),
                       (1, 1, 1), ((0, 0, 1), (0, 1, 0), (1, 0, 0))):
            with pytest.raises(DomainError,
                               match="^rejected input: Jacobian is not a nonzero constant$"):
                certify_wild(endo, weight)

    def test_certified_map_keeps_its_equality_hash_and_pickle(self):
        endo = nagata()
        before = (hash(endo), repr(endo), pickle.dumps(endo))
        for weight in ((4, 3, 3), (1, 1, 1), (1, 2, 3), ((1, 0), (1, 0), (1, 1))):
            certify_wild(endo, weight)
        assert "_jacobian" in vars(endo)  # the record is kept with the map
        assert (hash(endo), repr(endo), pickle.dumps(endo)) == before
        assert endo == nagata() and hash(endo) == hash(nagata())
        back = pickle.loads(pickle.dumps(endo))
        assert back == endo and "_jacobian" not in vars(back)
        assert _outcome(certify_wild, back, (4, 3, 3), None) == \
            _outcome(certify_wild, endo, (4, 3, 3), None)

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

    @staticmethod
    def staircase(a, b, A, B):
        """x1 += x3^a; x2 += x3^b; x3 += x1^A - x2^B, tame whatever the
        exponents; A*a = B*b makes the last shift cancel its lead terms."""
        def mono(var, exp):
            return Polynomial.monomial(tuple(exp if i == var else 0 for i in range(3)))

        return TameWord((shear(0, mono(2, a)), shear(1, mono(2, b)),
                         shear(2, mono(0, A) - mono(1, B))), 3)

    def test_tame_staircases_stop_at_k5_or_prop_main(self):
        # tame maps that pass K1..K4 must stop at the last two exits
        words = [
            self.staircase(a, b, A, B)
            for a, b, A, B in product(range(1, 9), range(1, 9), range(1, 5), range(1, 5))
            if a < b and A * a == B * b
        ]
        assert len(words) == 16
        reasons = Counter()
        for word in words:
            endo = realize(word)
            for w in product(range(1, 5), repeat=3):
                out = certify_wild(endo, w)
                assert isinstance(out, Unknown), (word, w)
                reasons[out.reasons] += 1
        assert sum(reasons.values()) == 1024
        assert reasons[("K5",)] == 82 and reasons[("prop:main",)] == 82

    @pytest.mark.parametrize("word, weight, reason", [
        ((3, 4, 4, 3), (1, 1, 2), "K5"),
        ((2, 3, 3, 2), (1, 1, 2), "prop:main"),
        (None, (1, 1, 1), "prop:main"),  # intro_family((2, 3)): the staircase (6, 9, 9, 6)
    ], ids=["K5", "prop-main", "intro-family"])
    def test_named_tame_staircases(self, word, weight, reason):
        if word is None:
            word = intro_family((2, 3))[1]
            assert word == self.staircase(6, 9, 9, 6)
        else:
            word = self.staircase(*word)
        assert certify_wild(realize(word), weight) == Unknown((reason,))


def _outcome(certify, endo, weight, registry):
    """What a certifier says about one map: certificate JSON, Unknown
    reasons, or the type and text of the error it raises."""
    try:
        out = certify(endo, weight, registry)
    except (DomainError, RankMismatchError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Unknown):
        return "unknown", out.reasons
    return "certificate", json.dumps(out.to_json())


_term = st.tuples(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                  st.integers(min_value=-3, max_value=3).filter(bool))
_shear = st.tuples(st.integers(min_value=0, max_value=2),
                   st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                   st.sampled_from((-1, 1)))


@st.composite
def _maps(draw):
    """Three-variable maps: Nagata's map and tame words (constant Jacobian),
    their components permuted, perturbed or zeroed, and random maps."""
    kind = draw(st.sampled_from(("nagata", "tame", "random")))
    if kind == "random":
        comps = [Polynomial(3, dict(draw(st.lists(_term, max_size=4))))
                 for _ in range(3)]
    else:
        if kind == "nagata":
            comps = list(nagata().components)
        else:
            steps = []
            for target, expo, c in draw(st.lists(_shear, max_size=4)):
                expo = tuple(0 if i == target else e for i, e in enumerate(expo))
                steps.append(shear(target, Polynomial.monomial(expo, c)))
            comps = list(realize(TameWord(tuple(steps), 3)).components)
        comps = [comps[i] for i in draw(st.permutations(range(3)))]
        change = draw(st.sampled_from(("none", "none", "perturb", "zero", "repeat")))
        i = draw(st.integers(min_value=0, max_value=2))
        if change == "perturb":  # a non-constant Jacobian, mostly
            comps[i] = comps[i] + Polynomial(3, dict(draw(st.lists(_term, max_size=2))))
        elif change == "zero":
            comps[i] = Polynomial.zero(3)
        elif change == "repeat":  # equal degrees
            comps[i] = comps[(i + 1) % 3]
    return Endo(tuple(comps))


_weights = st.one_of(
    st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
    st.tuples(*[st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=-3, max_value=3))
                .filter(lambda w: w > (0, 0))] * 3),
    st.tuples(*[st.tuples(*[st.integers(min_value=-1, max_value=2)] * 3)
                .filter(lambda w: w > (0, 0, 0))] * 3),
    st.just(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
)


class TestCertifyWildAgainstOracle:
    """certify_wild reads deg_w(df1 ^ df2) from the Jacobian's own minors;
    eager_certify_wild differentiates the components again for it."""

    @settings(max_examples=400, deadline=None)
    @given(_maps(), _weights, st.booleans())
    def test_same_outcome(self, endo, weight, empty_registry):
        registry = DeltaBoundRegistry() if empty_registry else None
        assert _outcome(certify_wild, endo, weight, registry) == \
            _outcome(eager_certify_wild, endo, weight, registry)

    @pytest.mark.parametrize("weight", [
        (4, 3, 3), (1, 1, 1), (1, 2, 3), (1, 2, 5), ((1, 0), (1, 0), (1, 1)),
        ((1, 0), (1, 1), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ])
    def test_nagata(self, weight):
        for registry in (None, DeltaBoundRegistry()):
            assert _outcome(certify_wild, nagata(), weight, registry) == \
                _outcome(eager_certify_wild, nagata(), weight, registry)

    @settings(max_examples=150, deadline=None)
    @given(_maps(), st.lists(_weights, min_size=1, max_size=8), st.booleans())
    def test_one_map_many_weights(self, endo, weights, empty_registry):
        # one map object certified again and again reads the record its
        # first call built; the oracle sees a fresh, equal map every time
        registry = DeltaBoundRegistry() if empty_registry else None
        for weight in weights:
            assert _outcome(certify_wild, endo, weight, registry) == \
                _outcome(eager_certify_wild, Endo(endo.components), weight, registry)


class TestWorkDoneOnce:
    """Counts that pin the work each verdict does."""

    @staticmethod
    def _count(monkeypatch, module, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(module, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_wild_certificate_packs_and_differentiates_each_component_once(
        self, monkeypatch
    ):
        from tamedeg import poly

        endo = nagata()  # built before counting: building it packs too
        calls = self._count(monkeypatch, poly, ("_ppartial", "_pack", "_minors"))
        cert = certify_wild(endo, Weight.of(4, 3, 3))
        assert "prop:main" in [c.name for c in cert.conditions]
        # 15 and 5 through wedge2_degree
        assert calls == {"_ppartial": 9, "_pack": 3, "_minors": 1}
        # the record stays with the map: no later weight packs or
        # differentiates, and (x3, x2 + ...) is the lowest pair under each
        for weight in ((1, 2, 3), (1, 1, 1), ((1, 0), (1, 0), (1, 1)), (4, 3, 3)):
            certify_wild(endo, weight)
        assert calls == {"_ppartial": 9, "_pack": 3, "_minors": 1}

    def test_wild_certificate_forms_the_minors_of_each_pair_once(self, monkeypatch):
        from tamedeg import poly

        f1, f2, f3 = nagata().components
        endo = Endo((f1, f2 + f3**4, f3))  # constant Jacobian, still
        calls = self._count(monkeypatch, poly, ("_ppartial", "_pack", "_minors"))
        # under (1, 1, 2) the degrees are (8, 8, 2): the screen forms the
        # minors of (f3, f1), and K1 fails
        assert certify_wild(endo, (1, 1, 2)).reasons == ("K1",)
        assert calls == {"_ppartial": 9, "_pack": 3, "_minors": 1}
        # under (6, 5, 3) they are (23, 13, 3): the wedge of (f3, f2 + f3^4)
        cert = certify_wild(endo, (6, 5, 3))
        assert "prop:main" in [c.name for c in cert.conditions]
        assert calls == {"_ppartial": 9, "_pack": 3, "_minors": 2}
        for weight in ((6, 5, 3), (1, 1, 2), (1, 1, 1), (2, 1, 1)):
            certify_wild(endo, weight)
        assert calls == {"_ppartial": 9, "_pack": 3, "_minors": 2}
        assert sorted(endo._jacobian.pairs) == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("weight", [(4, 3, 3), ((1, 0), (1, 0), (1, 1))])
    def test_wild_certificate_solves_its_lowest_pair_once(self, monkeypatch, weight):
        import tamedeg.classifier as classifier

        calls = self._count(monkeypatch, classifier, ("_pair",))
        cert = certify_wild(nagata(), weight)
        assert isinstance(cert, Certificate)
        assert calls == {"_pair": 1}

    @pytest.mark.parametrize("degrees, kind", [
        (((1, 1, 0), (1, -1, 2), (1, 0, 1)), Excluded),  # independent-weights route
        (((3, 0, 0), (1, 0, 0), (2, 0, 0)), Unknown),  # and then the chain
    ])
    def test_rank3_independent_weights_solve_each_pair_once(
        self, monkeypatch, degrees, kind
    ):
        import tamedeg.classifier as classifier

        calls = self._count(monkeypatch, classifier, ("_pair",))
        result = classify_weighted(degrees, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert isinstance(result, kind)
        assert calls == {"_pair": 3}


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
        result = corollary_verdict("karas-zygadlo", (3, 5, 9))
        assert isinstance(result, Realizable)

    def test_progression_excluded(self):
        result = corollary_verdict("progression", (5, 3))
        assert isinstance(result, Excluded)

    def test_two_three_family(self):
        assert isinstance(corollary_verdict("two-three", (5,)), Excluded)
        with pytest.raises(HypothesisViolation):
            corollary_verdict("two-three", (6,))

    def test_kanehira_weighted(self):
        result = corollary_verdict("kanehira", (3, 5, 7, 1, 2, 3))
        assert isinstance(result, Excluded)

    def test_hypothesis_violations_named(self):
        with pytest.raises(HypothesisViolation) as err:
            corollary_verdict("karas-zygadlo", (3, 4, 9))
        assert "odd" in str(err.value)
        with pytest.raises(DomainError):
            corollary_verdict("no-such-name", (1, 2, 3))

    @pytest.mark.parametrize("args", [(7.9,), ("7",), (True,), (5, 3.0)])
    def test_arguments_must_be_ints(self, args):
        # 7.9 was read as 7, and "7" as 7
        name = "two-three" if len(args) == 1 else "progression"
        with pytest.raises(DomainError, match="integers"):
            corollary_verdict(name, args)

    def test_progression_hypothesis(self):
        # 4d = ta for odd t: a=5, d=5 gives t=4 (even, fine); a=4, d=3: 12=3*4 odd t=3 -> violation
        with pytest.raises(HypothesisViolation):
            corollary_verdict("progression", (4, 3))


class TestRealizabilityTable:
    def test_total_degree_table(self):
        table = dict(realizability_table(10))
        assert len(table) == 220  # every sorted triple up to 10 is tagged
        for triple in ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 5, 6)):
            assert table[triple].kind == "excluded"
        assert table[(1, 1, 1)].kind == "realizable"
        for (d1, d2, d3), entry in table.items():
            if d2 % d1 == 0 or triple_semigroup_member(d3, (d1, d2)):
                assert entry.kind == "realizable", (d1, d2, d3)
            if entry.kind == "realizable":
                assert mdeg(realize(entry.witness)) == (d1, d2, d3)

    def test_bound_below_one_is_rejected(self):
        # at the call: no row is read here
        for bound in (0, -3, True, 2.5, "3"):
            with pytest.raises(DomainError, match="max_degree"):
                realizability_table(bound)

    def test_registry_changes_single_cell(self):
        empty = dict(realizability_table(6, registry=DeltaBoundRegistry()))
        assert empty[(4, 5, 6)].kind == "unknown"

    def test_weight_above_rank_1_is_rejected(self):
        with pytest.raises(DomainError, match="rank-1 weights only"):
            realizability_table(3, weight=((1, 0), (0, 1), (1, 1)))

    def test_rows_stream_in_sorted_order(self):
        # the first row of a table far too large to hold is read at once
        triple, verdict = next(realizability_table(10**9))
        assert triple == (1, 1, 1) and isinstance(verdict, Realizable)
        rows = list(realizability_table(6, weight=(1, 2, 3)))
        triples = [t for t, _ in rows]
        assert len(triples) == 56 and triples == sorted({tuple(sorted(t)) for t in triples})
        assert all(v == classify_weighted(t, (1, 2, 3)) for t, v in rows)


class TestSoundnessAgainstWitnesses:
    def test_realizable_triples_never_excluded(self):
        for d1 in range(1, 11):
            for d2 in range(d1, 11):
                for d3 in range(d2, 11):
                    if d2 % d1 == 0 or triple_semigroup_member(d3, (d1, d2)):
                        result = classify_total(d1, d2, d3)
                        assert isinstance(result, Realizable), (d1, d2, d3)


class TestWeightCoercion:
    """Every function that takes a weight reads it through as_weight: a
    Weight as it is, or three entries, anything else a DomainError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: classify_weighted((3, 5, 7), w),
            lambda w: certify_wild(nagata(), w),
            lambda w: realizability_table(5, weight=w),
            lambda w: degree_w(nagata().components[0], w),
            lambda w: wedge2_degree(*nagata().components[:2], w),
        ],
        ids=["classify_weighted", "certify_wild", "realizability_table", "degree_w",
             "wedge2_degree"],
    )
    @pytest.mark.parametrize("weight", [(1, 2), (1, 2, 3, 4), 5, object()])
    def test_wrong_entry_count_is_a_domain_error(self, call, weight):
        if isinstance(weight, tuple):
            message = f"expected 3 weights, got {len(weight)}"
        else:  # no entries at all
            message = "weights must be a sequence, got "
        with pytest.raises(DomainError, match=message):
            call(weight)

    def test_weight_kept_and_entries_read(self):
        w = Weight.of(1, 2, 3)
        assert as_weight(w) is w
        assert as_weight((1, 2, 3)) == w == as_weight([ge(1), 2, (3,)])
        assert as_weight(((1, 0), (0, 1), (1, 1))) == Weight.of((1, 0), (0, 1), (1, 1))
        for bad in ((1, 0, 3), ((1, 0), 2, 3)):
            with pytest.raises(ValueError):  # DomainError, or RankMismatchError
                as_weight(bad)
