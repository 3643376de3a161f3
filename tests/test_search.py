import json
import threading

import pytest

from tamedeg import (
    DeltaBoundRegistry,
    Excluded,
    Realizable,
    SchemaVersionError,
    SearchConfig,
    TameWord,
    Unknown,
    Weight,
    builtin_registry,
    consistency_check,
    generate,
    load,
    mdeg,
    persist,
    realize,
    realizability_table,
    run_search,
    word_fingerprint,
)
from tamedeg.classifier import Certificate, Theorem
from tamedeg.search import GenerationStats


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
            fp = endo.fingerprint()
            assert fp not in seen
            seen.add(fp)

    def test_stats_counts_are_pinned(self):
        # (samples, emitted, duplicates, budget-skipped, degree-pruned):
        # degree-cap and term-budget hits are counted apart
        budgeted = SearchConfig(seed=7, sample_count=200, term_budget=40)
        for config, counts in (
            (SMALL, (250, 208, 6, 0, 36)),
            (budgeted, (200, 152, 4, 21, 23)),
        ):
            stats = GenerationStats()
            list(generate(config, stats))
            assert tuple(stats.as_dict().values()) == counts


class TestConsistency:
    def test_no_violations_small_run(self):
        report = consistency_check(SMALL)
        assert report.ok
        assert report.words_checked > 0
        assert report.stats.samples_drawn == 250

    def test_corrupted_classifier_is_caught(self):
        # negate the realizability side: flag exactly the constructible
        # multidegrees as excluded; the harness must notice immediately
        def corrupted(degrees, weight, registry):
            d1, d2, d3 = sorted(d.coords[0] for d in degrees)
            if d2 % d1 == 0:
                return Excluded(Certificate(Theorem.TOTAL_DEGREE, ()))
            return Unknown(("c",))

        config = SearchConfig(seed=3, sample_count=60, weights=((1, 1, 1),))
        report = consistency_check(config, classify_fn=corrupted, certify=False)
        assert not report.ok
        first = report.violations[0]
        assert first.kind == "excluded"
        assert first.word and first.realization and first.multidegree


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

    def test_empty_range(self):
        assert realizability_table(0) == {}

    def test_registry_changes_single_cell(self):
        empty = realizability_table(6, registry=DeltaBoundRegistry.empty())
        assert empty[(4, 5, 6)].kind == "unknown"

    def test_search_found_weighted(self):
        config = SearchConfig(mode="exhaustive", max_word_length=0)
        table = realizability_table(
            4, weight=Weight.of(1, 2, 3), config=config
        )
        # the identity realizes weighted multidegree (1, 2, 3), which the
        # weighted criteria leave unknown
        assert table[(1, 2, 3)].kind == "search-found"
        assert isinstance(table[(1, 2, 3)].witness, TameWord)


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
        from tamedeg import mdeg_w

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
