import json
import threading
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from tamedeg import (
    NEG_INF,
    Budget,
    DeltaBoundRegistry,
    DomainError,
    Excluded,
    Realizable,
    SchemaVersionError,
    SearchConfig,
    TameWord,
    Unknown,
    Weight,
    as_group_elem,
    builtin_registry,
    check_weighted_conditions,
    classify_weighted,
    consistency_check,
    ge,
    generate,
    load,
    mdeg,
    persist,
    realize,
    realizability_table,
    run_search,
    shear,
    word_fingerprint,
)
import tamedeg.automorphisms as automorphisms
import tamedeg.search as search
from tamedeg.automorphisms import _Fold
from tamedeg.classifier import Certificate, Clause, Condition, Theorem
from tamedeg.poly import Polynomial
from tamedeg.search import GenerationStats
from oracles import mdeg_w


SMALL = SearchConfig(seed=101, sample_count=250, weights=((1, 1, 1), (1, 2, 3)))


class TestGenerate:
    def test_length_cap_zero_exhaustive(self):
        config = SearchConfig(mode="exhaustive", max_word_length=0)
        items = list(generate(config))
        assert len(items) == 1
        word, endo = items[0]
        assert len(word) == 0 and mdeg(endo) == (1, 1, 1)

    def test_single_shears_exhaustive(self):
        config = SearchConfig(
            mode="exhaustive",
            max_word_length=1,
            shift_monomial_exponent_cap=2,
            coefficient_pool=(1,),
            scale_pool=(),
        )
        items = list(generate(config))
        # identity + deduplicated single steps; each realization verified
        for word, endo in items:
            assert realize(word) == endo
        fingerprints = {word_fingerprint(w) for w, _ in items}
        assert len(fingerprints) == len(items)

    def test_seed_determinism(self):
        first = [word_fingerprint(w) for w, _ in generate(SMALL)]
        second = [word_fingerprint(w) for w, _ in generate(SMALL)]
        assert first == second
        shifted = SearchConfig(seed=102, sample_count=250, weights=((1, 1, 1),))
        third = [word_fingerprint(w) for w, _ in generate(shifted)]
        assert first != third

    def test_dedup_and_counters(self):
        stats = GenerationStats()
        items = list(generate(SMALL, stats))
        assert stats.samples_drawn == 250
        assert stats.emitted == len(items)
        assert (
            stats.emitted + stats.duplicates + stats.degree_pruned
            + stats.budget_skipped
            == 250
        )
        seen = set()
        for _, endo in items:
            assert endo not in seen
            seen.add(endo)

    def test_stats_counts_are_pinned(self):
        # (samples, emitted, duplicates, budget-skipped, degree-pruned):
        # degree-cap and term-budget hits are counted apart
        budgeted = SearchConfig(seed=7, sample_count=200, term_budget=40)
        walk = dict(mode="exhaustive", max_word_length=2, shift_monomial_exponent_cap=2,
                    coefficient_pool=(1,), scale_pool=(-1,))
        for config, counts in (
            (SMALL, (250, 208, 6, 0, 36)),
            (budgeted, (200, 152, 4, 21, 23)),
            (SearchConfig(**walk, degree_cap=3), (841, 508, 147, 0, 186)),
            (SearchConfig(**walk, term_budget=3), (931, 592, 177, 162, 0)),
        ):
            stats = GenerationStats()
            list(generate(config, stats))
            assert tuple(stats.as_dict().values()) == counts


    def test_walk_expands_one_step_per_word(self, monkeypatch):
        expanded = []
        expand = automorphisms._psubstitute

        def counting_expand(f, comps, budget):
            expanded.append(f)
            return expand(f, comps, budget)

        monkeypatch.setattr(automorphisms, "_psubstitute", counting_expand)
        config = SearchConfig(mode="exhaustive", max_word_length=3,
                              shift_monomial_exponent_cap=1, coefficient_pool=(1,),
                              scale_pool=(-1,), degree_cap=3)
        stats = GenerationStats()
        list(generate(config, stats))
        assert tuple(stats.as_dict().values()) == (3616, 2085, 1513, 0, 18)
        # each word extends its prefix's realization: only its last step
        # is expanded, and neither the empty word nor a pruned word expands
        assert len(expanded) <= stats.samples_drawn
        assert len(expanded) == stats.samples_drawn - stats.degree_pruned - 1

    def test_dedup_key_ignores_packing_width(self, monkeypatch):
        x2_4 = Polynomial.monomial((0, 4, 0))
        plain = TameWord((shear(0, Polynomial.variable(1)),), 3)
        # x1 + x2^4 - x2^4 + x2: the same map, folded at a wider packing
        detour = TameWord(
            (shear(0, x2_4), shear(0, -x2_4), shear(0, Polynomial.variable(1))), 3
        )
        widths = {
            _Fold.identity(3).extend(w.steps, Budget(degree_cap=60)).width
            for w in (plain, detour)
        }
        assert len(widths) == 2
        words = iter([plain, detour])
        monkeypatch.setattr(search, "_random_word", lambda rng, config: next(words))
        stats = GenerationStats()
        items = list(generate(SearchConfig(sample_count=2), stats))
        assert [w for w, _ in items] == [plain]
        assert (stats.emitted, stats.duplicates) == (1, 1)

    def test_pools_are_canonical_rationals(self):
        config = SearchConfig(
            coefficient_pool=["1/2", "-3", "4/2", 5, Fraction(6, 3)],
            scale_pool=("+2/3",),
        )
        assert config.coefficient_pool == (Fraction(1, 2), -3, 2, 5, 2)
        assert [type(c) for c in config.coefficient_pool] == [Fraction, int, int, int, int]
        assert config.scale_pool == (Fraction(2, 3),)
        loaded = SearchConfig.from_json({"coefficient_pool": ["1/10"], "sample_count": 5})
        for word, _ in generate(loaded):
            assert {c for s in word.steps for c in s.shift.terms.values()} <= {Fraction(1, 10)}


    def test_rows_carry_each_weights_multidegree(self):
        # one rank-2 weight among rank-1 ones: every row's degrees are the
        # componentwise weighted degrees of the realization under its weight
        weights = ((1, 1, 1), ((1, 0), (1, 2), (0, 1)), (2, 3, 5))
        config = SearchConfig(seed=5, sample_count=40, weights=weights)
        rows_seen = 0
        for _, endo, rows in search._classified(
            config, builtin_registry(), lambda *args: "verdict", GenerationStats()
        ):
            assert [w for w, _, _, _ in rows] == list(config.weight_objects())
            for w, key, degs, _ in rows:
                assert degs == tuple(d.coords for d in mdeg_w(endo, w))
                assert key == (w.render(), tuple(sorted(degs)))
                rows_seen += 1
        assert rows_seen > 60


class TestConsistency:
    def test_no_violations_small_run(self):
        report = consistency_check(SMALL)
        assert report.ok
        assert report.words_checked > 0
        assert report.stats.samples_drawn == 250

    def test_corrupted_classifier_is_caught(self, monkeypatch):
        # negate the realizability side: flag exactly the constructible
        # multidegrees as excluded; the harness must notice immediately,
        # with the wildness certifier stubbed out
        import tamedeg.search as search_mod

        monkeypatch.setattr(search_mod, "certify_wild", lambda *a, **k: Unknown(()))

        def corrupted(degrees, weight, registry):
            d1, d2, d3 = sorted(d.coords[0] for d in degrees)
            if d2 % d1 == 0:
                return Excluded(Certificate(Theorem.TOTAL_DEGREE, ()))
            return Unknown(("c",))

        config = SearchConfig(seed=3, sample_count=60, weights=((1, 1, 1),))
        report = consistency_check(config, classify_fn=corrupted)
        assert not report.ok
        first = report.violations[0]
        assert first.kind == "excluded"
        assert first.word and first.realization and first.multidegree

    def test_certified_wild_violations_are_reported(self, monkeypatch):
        # no realized word passes K1..K4, so a stand-in certifier that
        # calls every map wild drives the certified-wild path; the corrupted
        # classifier's Unknown names no K1..K4 condition, so every row
        # reaches it, and its Excluded rows add a second violation each
        import tamedeg.search as search_mod

        wild = Certificate(
            Theorem.F_SPECIFIC, (Condition("K1", True, (Clause("d1", "<", "d2", True),)),)
        )
        excluded = Certificate(Theorem.TOTAL_DEGREE, ())
        certified = []

        def always_wild(endo, w, registry, assume_automorphism=False):
            certified.append(assume_automorphism)
            return wild

        def corrupted(degrees, weight, registry):
            d1, d2, d3 = sorted(d.coords[0] for d in degrees)
            if d2 % d1 == 0:
                return Excluded(excluded)
            return Unknown(("c",))

        monkeypatch.setattr(search_mod, "certify_wild", always_wild)
        config = SearchConfig(seed=3, sample_count=20, weights=((1, 2, 3), (1, 1, 1)))
        report = consistency_check(config, classify_fn=corrupted)

        expected, words, rows = [], 0, 0
        keys = {w.render(): set() for w in config.weight_objects()}
        for word, endo in generate(config):
            words += 1
            for w in config.weight_objects():
                degs = mdeg_w(endo, w.components)
                if any(d is NEG_INF for d in degs):
                    continue
                rows += 1
                key = tuple(d.coords for d in sorted(degs))
                keys[w.render()].add(key)
                kinds = [("certified-wild", wild)]
                if isinstance(corrupted(degs, w, None), Excluded):
                    kinds.append(("excluded", excluded))
                for kind, cert in kinds:
                    expected.append({
                        "kind": kind,
                        "weight": [list(c.coords) for c in w.components],
                        "fingerprint": word_fingerprint(word),
                        "word": word.render(),
                        "realization": endo.render(),
                        "multidegree": [list(k) for k in key],
                        "certificate": cert.to_json(),
                    })
        expected.sort(key=lambda v: (v["weight"], v["fingerprint"], v["kind"]))

        assert rows > 0 and certified == [True] * rows
        assert not report.ok
        kinds = Counter(v.kind for v in report.violations)
        assert kinds["certified-wild"] == rows and 0 < kinds["excluded"] < rows
        first = report.violations[0]
        assert isinstance(first.weight, tuple) and isinstance(first.multidegree, tuple)
        assert first.certificate == (wild if first.kind == "certified-wild" else excluded).to_json()
        sort_keys = [(v.weight, v.fingerprint, v.kind) for v in report.violations]
        assert sort_keys == sorted(sort_keys)
        assert json.dumps([v.to_json() for v in report.violations]) == json.dumps(expected)
        assert report.to_json() == {
            "registry_fingerprint": builtin_registry().fingerprint(),
            "stats": report.stats.as_dict(),
            "words_checked": words,
            "distinct_multidegrees": {k: len(v) for k, v in sorted(keys.items())},
            "violations": expected,
        }


def _screened_out(verdict) -> bool:
    """The wildness screen of consistency_check: a row stays away from
    certify_wild only when its Unknown verdict names a failed K1..K4."""
    return isinstance(verdict, Unknown) and any(
        n in verdict.reasons for n in ("K1", "K2", "K3", "K4")
    )


def _k1_to_k4_hold(degs, w, registry) -> bool:
    d1, d2, d3 = sorted(degs)
    return d1 < d2 < d3 and all(
        check_weighted_conditions(d1, d2, d3, w, registry).holds(n)
        for n in ("K1", "K2", "K3", "K4")
    )


class TestWildnessScreen:
    """The K1..K4 screen in front of certify_wild reads the verdict that
    classification already cached instead of re-checking the conditions."""

    CONFIG = SearchConfig(
        seed=11, sample_count=150, weights=((1, 1, 1), (1, 2, 3), (1, 1, 2))
    )

    def test_conditions_checked_once_per_key(self, monkeypatch):
        import tamedeg.classifier as classifier_mod

        real = classifier_mod.check_weighted_conditions
        calls = Counter()

        def counted(d1, d2, d3, w, *args):
            # classify_weighted passes rank-1 degrees as ints
            coords = tuple(as_group_elem(d).coords for d in (d1, d2, d3))
            calls[(w.render(), coords)] += 1
            return real(d1, d2, d3, w, *args)

        monkeypatch.setattr(classifier_mod, "check_weighted_conditions", counted)
        report = consistency_check(self.CONFIG)
        assert report.ok
        keys = set()
        for _, endo in generate(self.CONFIG):
            for w in self.CONFIG.weight_objects():
                d1, d2, d3 = sorted(mdeg_w(endo, w.components))
                if d1 < d2 < d3:
                    keys.add((w.render(), (d1.coords, d2.coords, d3.coords)))
        # no realized word here passes the screen, so certify_wild adds no
        # calls of its own: every call comes from classification
        assert len(keys) > 100
        assert calls == Counter(dict.fromkeys(keys, 1))

    def test_screen_matches_direct_check_on_triples(self):
        # unlike realized words, the grid has triples on which K1..K4 all
        # hold, with Unknown and Excluded verdicts alike; a screened-out row
        # never passes the direct check, and on Unknown rows the screen is
        # exact, so certify_wild sees no row it would reject on K1..K4 alone
        registry = builtin_registry()
        outcomes = Counter()
        for weight in ((1, 1, 1), (1, 1, 2), (1, 2, 3), (3, 1, 1), (2, 3, 5)):
            w = Weight.of(*weight)
            for triple in product(range(1, 13), repeat=3):
                degs = tuple(ge(d) for d in triple)
                verdict = classify_weighted(degs, w, registry)
                out = _screened_out(verdict)
                direct = _k1_to_k4_hold(degs, w, registry)
                assert not (out and direct), (weight, triple)
                if isinstance(verdict, Unknown):
                    assert out != direct, (weight, triple)
                outcomes[verdict.kind, direct] += 1
        assert outcomes["unknown", True] and outcomes["unknown", False]
        assert outcomes["excluded", True]

    def test_corrupted_classifier_report_with_certify(self, monkeypatch):
        # the corrupted Unknown names no K1..K4 condition, so every row goes
        # on to certify_wild; the report is the one a screen by the direct
        # check gives: no realized word here passes K1..K4, so certification
        # adds nothing to the excluded violations
        import tamedeg.search as search_mod

        def corrupted(degrees, weight, registry):
            d1, d2, d3 = sorted(d.coords[0] for d in degrees)
            if d2 % d1 == 0:
                return Excluded(Certificate(Theorem.TOTAL_DEGREE, ()))
            return Unknown(("c",))

        config = SearchConfig(seed=3, sample_count=60, weights=((1, 1, 1),))
        registry = builtin_registry()
        rows = [
            (w, degs)
            for _, endo in generate(config)
            for w in config.weight_objects()
            for degs in [mdeg_w(endo, w.components)]
        ]
        assert not any(_k1_to_k4_hold(d, w, registry) for w, d in rows)
        real = search_mod.certify_wild
        certified = []

        def counted(endo, w, *args, **kwargs):
            certified.append(w.render())
            return real(endo, w, *args, **kwargs)

        monkeypatch.setattr(search_mod, "certify_wild", counted)
        report = consistency_check(config, classify_fn=corrupted)
        assert len(certified) == len(rows)
        monkeypatch.setattr(search_mod, "certify_wild", lambda *a, **k: Unknown(()))
        uncertified = consistency_check(config, classify_fn=corrupted)
        assert report.to_json() == uncertified.to_json()
        assert Counter(v.kind for v in report.violations) == {"excluded": 47}


class TestRealizabilityTable:
    def test_total_degree_table(self):
        from oracles import triple_semigroup_member

        table = realizability_table(10)
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
        for bound in (0, -3, True, 2.5, "3"):
            with pytest.raises(DomainError, match="max_degree"):
                realizability_table(bound)

    def test_registry_changes_single_cell(self):
        empty = realizability_table(6, registry=DeltaBoundRegistry.empty())
        assert empty[(4, 5, 6)].kind == "unknown"


class TestPersistence:
    def test_round_trip(self, tmp_path):
        config = SearchConfig(seed=5, sample_count=40, weights=((1, 1, 1), (1, 2, 3)))
        records, _ = run_search(config)
        assert len(records) >= 40
        path = tmp_path / "records.jsonl"
        persist(records[:100], path)
        again = load(path)
        assert again == records[:100]

    def test_append_safe(self, tmp_path):
        config = SearchConfig(seed=5, sample_count=10, weights=((1, 1, 1),))
        records, _ = run_search(config)
        path = tmp_path / "records.jsonl"
        persist(records, path)
        persist(records, path)
        assert len(load(path)) == 2 * len(records)

    def test_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema_version": 99}) + "\n")
        with pytest.raises(SchemaVersionError):
            load(path)

    def test_word_reconstruction(self, tmp_path):
        config = SearchConfig(seed=9, sample_count=30, weights=((1, 1, 1),))
        records, _ = run_search(config)
        assert records
        for record in records[:10]:
            word = record.to_word()
            got = tuple(d.coords for d in mdeg_w(realize(word)))
            assert got == record.multidegree

    def test_concurrent_append(self, tmp_path):
        config = SearchConfig(seed=5, sample_count=50, weights=((1, 1, 1),))
        records, _ = run_search(config)
        path = tmp_path / "records.jsonl"

        def writer():
            for record in records:
                persist([record], path)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loaded = load(path)
        assert len(loaded) == 2 * len(records)
        # no interleaved corruption: every line parsed as a full record
        assert {r.fingerprint for r in loaded} == {r.fingerprint for r in records}
