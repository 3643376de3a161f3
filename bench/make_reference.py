"""Regenerate the benchmark's reference outputs in bench/reference/.

    python3 bench/make_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It writes all five files from that one checkout, so they
never mix commits; it takes a few minutes on one core.  The weighted
query pool is drawn here from a fixed seed and stored with its answers,
so the workloads read their inputs from the reference instead of
regenerating them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter

import workloads as wl


def _vec(rng: random.Random, rank: int, lo: int, hi: int) -> list:
    """A lexicographically positive integer vector."""
    while True:
        v = [rng.randint(lo, hi) for _ in range(rank)]
        if v > [0] * rank:
            return v


def weighted_queries(rng: random.Random, per_category: int = 300) -> list:
    """[category, degrees, weight] queries; r3dep holds rank-3 degrees with
    d3 = (k1*d1 + k2*d2)/2 (k1, k2 odd) under the unit basis weights, so the
    independent-weights criterion has something to fire on."""
    out = []
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(per_category):
        out.append(["r1", [rng.randint(1, 40) for _ in range(3)],
                    [rng.randint(1, 6) for _ in range(3)]])
        out.append(["r2", [_vec(rng, 2, -3, 12) for _ in range(3)],
                    [_vec(rng, 2, -2, 6) for _ in range(3)]])
        out.append(["r3", [_vec(rng, 3, -3, 12) for _ in range(3)],
                    [_vec(rng, 3, -2, 6) for _ in range(3)]])
        while True:
            a, b = _vec(rng, 3, -3, 9), _vec(rng, 3, -3, 9)
            k1, k2 = rng.choice([(1, 1), (3, 1), (1, 3)])
            s = [k1 * x + k2 * y for x, y in zip(a, b)]
            if all(x % 2 == 0 for x in s) and s > [0, 0, 0]:
                out.append(["r3dep", [a, b, [x // 2 for x in s]], basis])
                break
        out.append(["wild", None, [rng.randint(1, 6) for _ in range(3)]])
    return out


def make_table(td) -> dict:
    n = wl.TABLE_MAX
    registry = td.builtin_registry()
    verdicts: dict[str, int] = {}
    sorted_ids = []
    realizable = set()
    for d1 in range(1, n + 1):
        for d2 in range(d1, n + 1):
            for d3 in range(d2, n + 1):
                fp = wl.verdict_fingerprint(td.classify_total(d1, d2, d3, registry))
                sorted_ids.append(verdicts.setdefault(fp, len(verdicts)))
                if fp.startswith("realizable"):
                    realizable.add((d1, d2, d3))
    witness = []
    for d1 in range(1, n + 1):
        for d2 in range(1, n + 1):
            for d3 in range(1, n + 1):
                if tuple(sorted((d1, d2, d3))) in realizable:
                    witness.append(wl.witness_digest(td.classify_total(d1, d2, d3, registry)))
    return {"max": n, "verdicts": list(verdicts), "sorted": sorted_ids, "witness": "".join(witness)}


def make_weighted(td) -> dict:
    registry = td.builtin_registry()
    queries = []
    for query in weighted_queries(random.Random(20130315)):
        fn, args = wl.weighted_call_args(td, query, td.nagata())
        queries.append(query + [wl.verdict_fingerprint(getattr(td, fn)(*args, registry))])
    return {"queries": queries}


def _record_kinds(td, config, registry) -> dict:
    records, _ = td.run_search(config, registry)
    return dict(sorted(Counter(r.verdict for r in records).items()))


def make_search(td) -> dict:
    registry = td.builtin_registry()
    configs = {}
    for s in wl.SEARCH_CONFIGS:
        config = wl.search_config(td, s, wl.SEARCH_SAMPLES)
        report = td.consistency_check(config, registry)
        if report.violations:
            raise SystemExit(f"config seed {s}: the program reports violations")
        configs[str(s)] = {**wl.search_expectation(report),
                           "record_kinds": _record_kinds(td, config, registry)}
    return {"sample_count": wl.SEARCH_SAMPLES, "configs": configs}


def make_records(td) -> dict:
    registry = td.builtin_registry()
    wl.OUT_DIR.mkdir(exist_ok=True)
    path = wl.OUT_DIR / "reference-records.jsonl"
    configs = {}
    for s in wl.RECORDS_CONFIGS:
        path.unlink(missing_ok=True)
        records, stats = td.run_search(wl.search_config(td, s, wl.RECORDS_SAMPLES), registry)
        td.persist(records, path)
        loaded = td.load(path)
        rec_digest, words_digest = wl.record_digests(loaded, [r.to_word() for r in loaded])
        configs[str(s)] = {"records": len(loaded), "stats": stats.as_dict(),
                           "digest": rec_digest, "words_digest": words_digest,
                           "record_kinds": dict(sorted(Counter(r.verdict for r in loaded).items()))}
    path.unlink(missing_ok=True)
    return {"sample_count": wl.RECORDS_SAMPLES, "configs": configs}


def make_cli(td) -> dict:
    stdout = {}
    for args in wl.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "tamedeg", *args], cwd=wl.ROOT,
                              env=wl.program_env(), capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0 or proc.stderr:
            raise SystemExit(f"{args}: exit {proc.returncode}: {proc.stderr}")
        stdout[wl.cli_key(args)] = wl.normalize_stdout(args, proc.stdout)
    return {"stdout": stdout}


MAKERS = {"table": make_table, "weighted": make_weighted, "search": make_search,
          "records": make_records, "cli": make_cli}


def main() -> int:
    td = wl.import_program()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, make in MAKERS.items():
        data = make(td)
        with open(wl.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
