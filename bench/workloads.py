"""The benchmark's workloads: seeded inputs, the call that is timed, and the
check of each output against the committed reference.

Every workload draws its inputs from a pool that the reference covers
completely, so any seed can be checked, and deals them in decks whose mix
is fixed:

  table     classify_total on triples of [1,40]^3 in draw order, drawn
            uniformly within each expected verdict kind;
  weighted  classify_weighted on a fixed pool of rank-1/2/3 queries plus
            certify_wild(nagata(), w), in fixed proportions per deck of 20;
  search    consistency_check on SearchConfig(seed=s) for every s of a
            fixed pool of config seeds per deck;
  records   run_search -> persist -> load -> SearchRecord.to_word on
            every config of a second, smaller pool per deck;
  cli       one `python3 -m tamedeg ...` process per command of a fixed
            command list per deck.

A workload's ``call`` is the only timed part.  ``check`` runs after the
timer stops and returns (units, failed units): an op that covers several
units (words checked, records round-tripped) counts each one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".bench_out"
PROBE_MARK = "BENCHPROBE "

TABLE_MAX = 40
TABLE_DECK = 500
SEARCH_WEIGHTS = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
SEARCH_SAMPLES = 30
SEARCH_CONFIGS = tuple(range(32))
RECORDS_SAMPLES = 40
RECORDS_CONFIGS = tuple(range(1000, 1024))
WEIGHTED_DECK = ("r1",) * 8 + ("r2",) * 4 + ("r3",) * 3 + ("r3dep",) * 3 + ("wild",) * 2

_NAGATA = (
    "--f1", "x1 - 2*x2*(x2^2+x1*x3) - x3*(x2^2+x1*x3)^2",
    "--f2", "x2 + x3*(x2^2+x1*x3)",
    "--f3", "x3",
)
# The CLI mix; every command runs once per deck, in seeded order.
CLI_COMMANDS = (
    *(["classify", *t, "--json"] for t in
      (["2", "3", "4"], ["4", "5", "6"], ["4", "3", "2"], ["6", "9", "49"])),
    *(["classify", *t] for t in
      (["3", "4", "5"], ["4", "5", "11"], ["7", "5", "3"], ["6", "10", "15"])),
    ["classify-weighted", "--deg", "3,5,7", "--weight", "1,2,3"],
    ["classify-weighted", "--deg", "[1,1,0],[1,-1,2],[1,0,1]",
     "--weight", "[1,0,0],[0,1,0],[0,0,1]", "--rank", "3"],
    ["classify-weighted", "--deg", "[2,1],[3,0],[4,1]", "--weight", "[1,0],[1,1],[0,1]"],
    ["certify-wild", *_NAGATA, "--weight", "4,3,3"],
    ["certify-wild", *_NAGATA, "--weight", "1,1,1"],
    ["witness", "2", "3", "4", "--verify"],
    ["witness", "3", "4", "7", "--verify"],
    ["wstar", "1", "1", "1"],
    ["wstar", "2", "3", "5"],
    ["corollary", "progression", "5", "3"],
    ["corollary", "two-three", "7"],
    ["corollary", "li-du-top-prime", "3", "4", "7"],
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, reference or tool)."""


def import_program():
    """Import tamedeg from this checkout's src/ and from nowhere else."""
    package = SRC / "tamedeg"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    import tamedeg

    if Path(tamedeg.__file__).resolve().parent != package.resolve():
        raise BenchError(f"tamedeg imported from {tamedeg.__file__}, not {package}")
    return tamedeg


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"missing reference {path}; see bench/make_reference.py")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str, size: int = 16) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def verdict_fingerprint(result) -> str:
    """kind|theorem|conditions of a verdict or wildness certificate: the
    condition names with their truth values for a certificate, the
    uncertified condition names for Unknown."""
    cert = getattr(result, "certificate", None)
    if cert is None and hasattr(result, "theorem"):
        kind, cert = "wild", result
    else:
        kind = result.kind
    if cert is not None:
        conds = ",".join(f"{c.name}{'+' if c.holds else '-'}" for c in cert.conditions)
        return f"{kind}|{cert.theorem.value}|{conds}"
    if kind == "unknown":
        return f"unknown||{','.join(result.reasons)}"
    return f"{kind}||"


def witness_digest(result) -> str:
    return digest(f"{tuple(result.multidegree)}|{result.witness.render()}", 8)


def _kind_theorem(fp: str) -> str:
    kind, theorem, _ = fp.split("|", 2)
    return f"{kind}:{theorem}" if theorem else kind


def _shuffled_decks(rng: random.Random, deck):
    """The deck's items in a fresh seeded order, one deck after another."""
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order


class Workload:
    """A run is a whole number of decks of ops, so every run covers the
    same mix, and the same number of decks on every commit and machine."""

    name = ""
    unit = "op"
    deck_size = 1
    warm_up_ops = 1
    # About the seconds a deck takes at the reference speed (speed.py).
    deck_s = 1.0
    # Decks per pass of a traced run: about 3-5 s untraced on a 2-core VM.
    trace_decks = 1

    def __init__(self, tamedeg, seed: int):
        self.td = tamedeg
        self.seed = seed
        self.registry = tamedeg.builtin_registry()

    def warm_up(self) -> None:
        stream = self._inputs_for(random.Random(f"warm-up-{self.name}"))
        for _, item in zip(range(self.warm_up_ops), stream):
            self.check(item, self.call(item))

    def call(self, item):
        raise NotImplementedError

    def check(self, item, result) -> tuple[int, int]:
        raise NotImplementedError

    def mix(self, item) -> dict:
        """Expected verdict-kind (and theorem) counts of one input; the
        search workloads count one verdict per (word, weight) record, the
        CLI counts commands."""
        raise NotImplementedError

    def layer_counts(self, result) -> dict:
        """Per-layer counts that the program returns itself."""
        return {}

    def decks_for(self, seconds: float) -> int:
        """Decks of an untraced run of about `seconds` of program time at
        the reference speed."""
        return max(1, math.ceil(seconds / self.deck_s))

    def inputs(self):
        """Deterministic infinite stream of inputs for this seed."""
        return self._inputs_for(random.Random(self.seed))

    def _inputs_for(self, rng):
        raise NotImplementedError


class TableWorkload(Workload):
    """Triples are kept as flat indices ((d1-1)*n + d2-1)*n + d3-1 into
    arrays, so the benchmark's own tables stay small next to the program's
    memory."""

    name = "table"
    warm_up_ops = 30
    deck_s = 0.9
    trace_decks = 4

    def __init__(self, tamedeg, seed):
        super().__init__(tamedeg, seed)
        ref = load_reference("table")
        n = self.n = ref["max"]
        if n != TABLE_MAX:
            raise BenchError("table reference does not match its triple range")
        self.verdicts = ref["verdicts"]
        # Verdict id of every sorted triple, at the triple's flat index.
        self.verdict_id = array("H", bytes(2 * n ** 3))
        ids = iter(ref["sorted"])
        for d1 in range(1, n + 1):
            for d2 in range(d1, n + 1):
                for d3 in range(d2, n + 1):
                    self.verdict_id[self._flat((d1, d2, d3))] = next(ids)
        # Uniform draws within each expected verdict kind, in the proportions
        # the kinds have over all of [1,TABLE_MAX]^3: the realizable share
        # sets both throughput and where the median falls, so it is fixed
        # per deck instead of left to binomial noise.
        self.digests = ref["witness"]
        self.witness_at = array("i", [-1]) * n ** 3
        self.strata: dict[str, array] = {}
        realizable = 0
        for f, triple in enumerate(itertools.product(range(1, n + 1), repeat=3)):
            kind = self._expected(triple).split("|", 1)[0]
            self.strata.setdefault(kind, array("i")).append(f)
            if kind == "realizable":
                self.witness_at[f] = 8 * realizable
                realizable += 1
        if 8 * realizable != len(self.digests):
            raise BenchError("table reference does not match its triple range")
        self.deck = []
        for kind, flats in sorted(self.strata.items()):
            self.deck += [kind] * round(TABLE_DECK * len(flats) / n ** 3)
        self.deck_size = len(self.deck)

    def _flat(self, triple) -> int:
        d1, d2, d3 = triple
        return ((d1 - 1) * self.n + d2 - 1) * self.n + d3 - 1

    def _expected(self, triple) -> str:
        return self.verdicts[self.verdict_id[self._flat(sorted(triple))]]

    def _inputs_for(self, rng):
        n = self.n
        for kind in _shuffled_decks(rng, self.deck):
            flats = self.strata[kind]
            f = flats[rng.randrange(len(flats))]
            yield f // (n * n) + 1, f // n % n + 1, f % n + 1

    def call(self, item):
        return self.td.classify_total(*item, self.registry)

    def check(self, item, result):
        ok = verdict_fingerprint(result) == self._expected(item)
        if ok and result.kind == "realizable":
            pos = self.witness_at[self._flat(item)]
            ok = tuple(result.multidegree) == item and \
                witness_digest(result) == self.digests[pos:pos + 8]
        return 1, 0 if ok else 1

    def mix(self, item):
        return {_kind_theorem(self._expected(item)): 1}


def weighted_call_args(tamedeg, query, nagata):
    """(function name, positional args) of one pool query, built from JSON;
    `nagata` is the map that the "wild" queries certify."""
    cat, degrees, weight = query[0], query[1], query[2]
    w = tamedeg.Weight.of(*(tuple(c) if isinstance(c, list) else c for c in weight))
    if cat == "wild":
        return "certify_wild", (nagata, w)
    degs = tuple(tuple(d) if isinstance(d, list) else d for d in degrees)
    return "classify_weighted", (degs, w)


class WeightedWorkload(Workload):
    name = "weighted"
    warm_up_ops = 40
    deck_s = 0.01
    trace_decks = 400
    deck_size = len(WEIGHTED_DECK)

    def __init__(self, tamedeg, seed):
        super().__init__(tamedeg, seed)
        ref = load_reference("weighted")
        self.pool: dict[str, list] = {}
        nagata = tamedeg.nagata()
        for query in ref["queries"]:
            fn, args = weighted_call_args(tamedeg, query, nagata)
            self.pool.setdefault(query[0], []).append((fn, args, query[3]))
        if set(self.pool) != set(WEIGHTED_DECK):
            raise BenchError("weighted reference lacks a query category")

    def _inputs_for(self, rng):
        for cat in _shuffled_decks(rng, WEIGHTED_DECK):
            pool = self.pool[cat]
            yield pool[rng.randrange(len(pool))]

    def call(self, item):
        fn, args, _ = item
        return getattr(self.td, fn)(*args, self.registry)

    def check(self, item, result):
        return 1, 0 if verdict_fingerprint(result) == item[2] else 1

    def mix(self, item):
        return {_kind_theorem(item[2]): 1}


def search_config(tamedeg, seed: int, samples: int):
    return tamedeg.SearchConfig(seed=seed, sample_count=samples, weights=SEARCH_WEIGHTS)


def search_expectation(report) -> dict:
    return {"words_checked": report.words_checked, "stats": report.stats.as_dict(),
            "distinct_multidegrees": report.distinct_multidegrees}


class SearchWorkload(Workload):
    name = "search"
    unit = "word"
    # Word costs are heavy-tailed (a few words near the degree cap cost 100x
    # the median), so a run checks the whole config pool, in seeded order:
    # a seeded subset would move words/s by 20% from seed to seed.
    deck_size = len(SEARCH_CONFIGS)
    deck_s = 3.0
    trace_decks = 2

    def __init__(self, tamedeg, seed):
        super().__init__(tamedeg, seed)
        ref = load_reference("search")
        if ref["sample_count"] != SEARCH_SAMPLES or \
                set(ref["configs"]) != {str(s) for s in SEARCH_CONFIGS}:
            raise BenchError("search reference was made for other settings")
        self.expected = ref["configs"]

    def _inputs_for(self, rng):
        for s in _shuffled_decks(rng, SEARCH_CONFIGS):
            yield s, search_config(self.td, s, SEARCH_SAMPLES)

    def call(self, item):
        return self.td.consistency_check(item[1], self.registry)

    def check(self, item, report):
        ref = self.expected[str(item[0])]
        units = report.words_checked
        got = search_expectation(report)
        if any(got[k] != ref[k] for k in ("words_checked", "stats", "distinct_multidegrees")):
            return units, units
        return units, min(units, len(report.violations))

    def mix(self, item):
        return self.expected[str(item[0])]["record_kinds"]

    def layer_counts(self, report):
        return {**report.stats.as_dict(),
                "cache_lookups": report.words_checked * len(SEARCH_WEIGHTS)}


def record_digests(records, words) -> tuple[str, str]:
    """Digest of the records without their timestamps, and of the words
    parsed back from them."""
    rows = []
    for r in records:
        row = r.to_json()
        row.pop("ts")
        rows.append(json.dumps(row, sort_keys=True))
    return digest("\n".join(rows)), digest("\n".join(w.render() for w in words))


class RecordsWorkload(Workload):
    name = "records"
    unit = "record"
    deck_size = len(RECORDS_CONFIGS)  # whole pool per deck, as for search
    deck_s = 3.5
    trace_decks = 2

    def __init__(self, tamedeg, seed):
        super().__init__(tamedeg, seed)
        ref = load_reference("records")
        if ref["sample_count"] != RECORDS_SAMPLES or \
                set(ref["configs"]) != {str(s) for s in RECORDS_CONFIGS}:
            raise BenchError("records reference was made for other settings")
        self.expected = ref["configs"]
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / "records.jsonl"

    def _inputs_for(self, rng):
        for s in _shuffled_decks(rng, RECORDS_CONFIGS):
            yield s, search_config(self.td, s, RECORDS_SAMPLES)

    def call(self, item):
        self.path.unlink(missing_ok=True)
        records, stats = self.td.run_search(item[1], self.registry)
        self.td.persist(records, self.path)
        loaded = self.td.load(self.path)
        return records, stats, loaded, [r.to_word() for r in loaded]

    def check(self, item, result):
        records, stats, loaded, words = result
        ref = self.expected[str(item[0])]
        units = len(loaded)
        same = len(records) == len(loaded) and all(
            {**a.to_json(), "ts": 0} == {**b.to_json(), "ts": 0} for a, b in zip(records, loaded))
        ok = same and stats.as_dict() == ref["stats"] and units == ref["records"] and \
            record_digests(loaded, words) == (ref["digest"], ref["words_digest"])
        return units, 0 if ok else units

    def mix(self, item):
        return self.expected[str(item[0])]["record_kinds"]

    def layer_counts(self, result):
        return result[1].as_dict()


def cli_key(args) -> str:
    return " ".join(args)


def normalize_stdout(args, text: str) -> str:
    """CLI stdout with the run-dependent `timings` of --json reports removed."""
    if "--json" not in args:
        return text
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, indent=2, sort_keys=True)


class CliWorkload(Workload):
    """One tamedeg process per op.  ``probe`` selects how the process runs:
    None runs `python3 -m tamedeg` as a user would; "0" and "1" run the
    same command under bench/cliprobe.py, untraced or traced, which also
    reports the in-process main time."""

    name = "cli"
    deck_size = len(CLI_COMMANDS)
    deck_s = 3.5

    def __init__(self, tamedeg, seed):
        super().__init__(tamedeg, seed)
        self.expected = load_reference("cli")["stdout"]
        missing = [cli_key(a) for a in CLI_COMMANDS if cli_key(a) not in self.expected]
        if missing:
            raise BenchError(f"cli reference lacks {missing}")
        self.env = program_env()
        self.probe = None
        self.probe_reports: dict[str, list] = {"0": [], "1": []}

    def _inputs_for(self, rng):
        return _shuffled_decks(rng, CLI_COMMANDS)

    def call(self, args):
        if self.probe is None:
            argv = [sys.executable, "-m", "tamedeg", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "cliprobe.py"), self.probe, *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120, check=False)
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def check(self, args, result):
        code, out, err, wall = result
        if self.probe is not None:
            lines = err.splitlines(True)
            if not lines or not lines[-1].startswith(PROBE_MARK):
                return 1, 1
            report = json.loads(lines.pop()[len(PROBE_MARK):])
            report.update(command=args[0], wall_ms=wall * 1e3)
            self.probe_reports[self.probe].append(report)
            err = "".join(lines)
        try:
            ok = code == 0 and not err and \
                normalize_stdout(args, out) == self.expected[cli_key(args)]
        except ValueError:
            ok = False
        return 1, 0 if ok else 1

    def mix(self, args):
        return {args[0]: 1}


WORKLOADS = {w.name: w for w in
             (TableWorkload, WeightedWorkload, SearchWorkload, RecordsWorkload, CliWorkload)}
