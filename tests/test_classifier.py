import gc
import json
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError, make_dataclass
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
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
    corollary_suite,
    delta_lower_bound,
    ge,
    make_realizable,
    mdeg,
    nagata,
    realize,
    semigroup_witness,
    shear,
)
from tamedeg.automorphisms import _verify_realization
from tamedeg.classifier import Clause, Condition, _DeltaTracker
from tamedeg.ordgroup import GroupElem, _semigroup_solve
from oracles import eager_weighted_conditions, lemma_a_conditions, triple_semigroup_member

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

    @pytest.mark.parametrize("triple", [(2.0, 3, 4), (2, 3.0, 4), (2, 3, 4.5)])
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
        assert isinstance(result, Realizable)
        assert len(calls) == 0
        assert mdeg(result.endo) == triple
        assert result.endo is result.endo
        assert len(calls) == 1
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
        tracker, oracle_tracker = _DeltaTracker(), _DeltaTracker()
        rep = check_weighted_conditions(*ds, w, registry, tracker)
        expected = eager_weighted_conditions(*ds, w, registry, oracle_tracker)
        # the decisions are read before any clause is built
        assert rep.failed_names() == tuple(c.name for c in expected if not c.holds)
        assert [(c.name, rep.holds(c.name), c.name in rep) for c in expected] == [
            (c.name, c.holds, True) for c in expected
        ]
        assert rep.conditions() == tuple(expected)
        assert rep["A1"] is rep.conditions()[6]
        assert tracker.uses == oracle_tracker.uses
        assert all(type(u.bound) is GroupElem for u in tracker.uses)
        if w.rank == 1:  # degrees passed as ints give the same report
            int_tracker = _DeltaTracker()
            ints = (d.coords[0] for d in ds)
            int_rep = check_weighted_conditions(*ints, w, registry, int_tracker)
            assert int_rep.conditions() == rep.conditions()
            assert int_tracker.uses == tracker.uses
        return rep, tracker

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
        rep, tracker = self.assert_matches_oracle(
            (ge(4), ge(5), ge(6)), W111, builtin_registry()
        )
        assert rep.holds("A3")
        assert [u.describe() for u in tracker.uses] == ["Delta(4,6)>=4"]
        assert tracker.uses[0].bound == ge(4)
        cert = classify_total(4, 5, 6).certificate
        assert cert.delta_bounds_used == tuple(tracker.uses)
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
        assert rep.conditions() == first
        assert sum(len(c.clauses) for c in first) == 17 and len(built) == 17
        assert isinstance(classify_weighted((4, 5, 7), (1, 1, 1)), Excluded)
        assert len(built) == 17

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
                    *map(as_group_elem, ds), Weight.of(*w), builtin_registry(), _DeltaTracker()
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

    def test_condition_equals_its_eager_value(self):
        reference = make_dataclass(
            "Condition", [("name", str), ("holds", bool), ("clauses", tuple)], frozen=True
        )
        for ds in ((1, 2, 3), (4, 5, 6), (3, 5, 7), (6, 8, 9), (4, 6, 9)):
            for weight in ((1, 1, 1), (1, 2, 3)):
                args = (*map(ge, ds), Weight.of(*weight), builtin_registry())
                for lazy, eager in zip(
                    check_weighted_conditions(*args).conditions(),
                    eager_weighted_conditions(*args, _DeltaTracker()),
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
            # certificates whose clauses are never read hold builders, not text
            unread = [case[0]() for case in self.CERTIFICATES.values()]
            assert all(c.conditions for c in unread)
            del unread
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("triple", [(4, 5, 6), (3, 4, 5), (4, 6, 9), (6, 7, 8), (2, 3, 4)])
    def test_membership_solved_once_per_triple(self, triple):
        _semigroup_solve.cache_clear()
        classify_total(*triple)
        assert _semigroup_solve.cache_info().misses == 1


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
