"""Bounded generation of tame words and the search-vs-classifier oracle.

The harness samples or enumerates tame words, realizes them, and checks the
single most important property of the whole artifact: no realized
multidegree is ever classified Excluded, and no realized map is ever
certified wild.  Any violation is dumped in full (word, realization,
multidegree, certificate) as a falsification record.

Generation is deterministic: randomized mode drives a counter-based RNG
keyed by (seed, word index), so equal configs give equal streams.  Each word
is realized by ``automorphisms.realize`` under a budget that carries the
config's term budget and degree cap; words that hit either cap are counted,
not dropped silently.  ``consistency_check`` and ``run_search`` share one
loop that classifies each realized multidegree once per weight, with the
verdicts cached by (weight, sorted multidegree).  ``realizability_table``
maps each sorted degree triple to the verdict object the classifier
returned for it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Iterator, Optional, Sequence

from .automorphisms import (
    ElementaryAut,
    Endo,
    TameWord,
    mdeg_w,
    realize,
)
from .classifier import (
    Certificate,
    ClassificationResult,
    DeltaBoundRegistry,
    Excluded,
    Unknown,
    builtin_registry,
    certify_wild,
    classify_total,
    classify_weighted,
)
from .errors import (
    BudgetExceededError,
    DegreeCapError,
    DomainError,
    SchemaVersionError,
)
from .ordgroup import NEG_INF, Weight
from .poly import Budget, Polynomial

SCHEMA_VERSION = 1

# Integer fields of SearchConfig and the least value each may take.
_INT_MINIMA = {
    "max_word_length": 0,
    "shift_monomial_exponent_cap": 0,
    "shift_term_count_cap": 1,
    "degree_cap": 1,
    "term_budget": 1,
    "sample_count": 0,
}


@dataclass(frozen=True)
class SearchConfig:
    max_word_length: int = 6
    shift_monomial_exponent_cap: int = 4
    shift_term_count_cap: int = 1
    coefficient_pool: tuple = (1, -1)
    scale_pool: tuple = (-1, 2)
    weights: tuple = ((1, 1, 1),)
    degree_cap: int = 60
    term_budget: int = 200_000
    seed: int = 0
    mode: str = "randomized"
    sample_count: int = 1000
    shear_probability: float = 0.85

    def __post_init__(self):
        if self.mode not in ("randomized", "exhaustive"):
            raise DomainError(f"unknown mode {self.mode!r}")
        for name, least in _INT_MINIMA.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise DomainError(f"{name} must be at least {least}, got {value}")
        if not self.coefficient_pool:
            raise DomainError("coefficient pool must not be empty")
        if 0 in self.coefficient_pool or 0 in self.scale_pool:
            raise DomainError("coefficient and scale pools must not contain 0")
        if not 0 <= self.shear_probability <= 1:
            raise DomainError("shear_probability must lie in [0, 1]")
        if not isinstance(self.weights, (tuple, list)) or not all(
            isinstance(w, (tuple, list)) and len(w) == 3 for w in self.weights
        ):
            raise DomainError("weights must be a list of three-entry weights")
        self.weight_objects()  # bad weight entries fail here, not mid-run

    def weight_objects(self) -> tuple[Weight, ...]:
        return tuple(Weight.of(*w) for w in self.weights)

    @classmethod
    def from_json(cls, data) -> "SearchConfig":
        if not isinstance(data, dict):
            raise DomainError("search config must be a JSON object")
        try:
            return cls(**{key: _frozen(value) for key, value in data.items()})
        except TypeError as exc:
            raise DomainError(f"bad search config: {exc}") from exc


def _frozen(value):
    """JSON lists as tuples, recursively."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


@dataclass
class GenerationStats:
    samples_drawn: int = 0
    emitted: int = 0
    duplicates: int = 0
    budget_skipped: int = 0
    degree_pruned: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _child_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def word_fingerprint(word: TameWord) -> str:
    payload = "|".join(
        f"{s.target}:{s.scale}:{s.shift.render()}" for s in word.steps
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _random_step(rng: random.Random, config: SearchConfig) -> ElementaryAut:
    target = rng.randrange(3)
    if config.scale_pool and rng.random() >= config.shear_probability:
        scale = Fraction(rng.choice(config.scale_pool))
        return ElementaryAut(target, scale, Polynomial.zero(3))
    others = [i for i in range(3) if i != target]
    shift = Polynomial.zero(3)
    terms = rng.randint(1, config.shift_term_count_cap)
    for _ in range(terms):
        expo = [0] * 3
        for i in others:
            expo[i] = rng.randint(0, config.shift_monomial_exponent_cap)
        coeff = rng.choice(config.coefficient_pool)
        shift = shift + Polynomial.monomial(expo, coeff)
    if shift.is_zero:
        shift = Polynomial.monomial([0] * 3, config.coefficient_pool[0])
    return ElementaryAut(target, Fraction(1), shift)


def _random_word(rng: random.Random, config: SearchConfig) -> TameWord:
    length = rng.randint(1, config.max_word_length) if config.max_word_length else 0
    return TameWord(tuple(_random_step(rng, config) for _ in range(length)), 3)


def _generator_pool(config: SearchConfig) -> list[ElementaryAut]:
    pool: list[ElementaryAut] = []
    exponents = range(config.shift_monomial_exponent_cap + 1)
    for target in range(3):
        others = [i for i in range(3) if i != target]
        for combo in product(exponents, repeat=len(others)):
            expo = [0] * 3
            for i, e in zip(others, combo):
                expo[i] = e
            for coeff in config.coefficient_pool:
                pool.append(
                    ElementaryAut(
                        target, Fraction(1), Polynomial.monomial(expo, coeff)
                    )
                )
        for scale in config.scale_pool:
            pool.append(ElementaryAut(target, Fraction(scale), Polynomial.zero(3)))
    return pool


def generate(
    config: SearchConfig, stats: Optional[GenerationStats] = None
) -> Iterator[tuple[TameWord, Endo]]:
    """Deterministic stream of (word, realization) pairs.

    Randomized mode draws sample_count words from the counter-based RNG;
    exhaustive mode walks all words over the generator pool up to the
    length cap, depth first from the empty word.  Resource-pruned words are
    counted, never silently dropped, and duplicate realizations are
    deduplicated by canonical form.  The walk extends every word that
    realizes, duplicates included, and no word that a cap pruned.
    """
    if stats is None:
        stats = GenerationStats()
    seen: set[tuple] = set()

    def visit(word: TameWord) -> Iterator[tuple[TameWord, Endo]]:
        """Realize word under the caps, count it, and yield it unless its
        realization was seen before; returns whether it realized."""
        stats.samples_drawn += 1
        try:
            endo = realize(word, Budget(config.term_budget, degree_cap=config.degree_cap))
        except DegreeCapError:
            stats.degree_pruned += 1
            return False
        except BudgetExceededError:
            stats.budget_skipped += 1
            return False
        key = endo.fingerprint()
        if key in seen:
            stats.duplicates += 1
        else:
            seen.add(key)
            stats.emitted += 1
            yield word, endo
        return True

    if config.mode == "randomized":
        for index in range(config.sample_count):
            yield from visit(_random_word(_child_rng(config.seed, index), config))
        return

    pool = _generator_pool(config)

    def walk(steps: tuple[ElementaryAut, ...]) -> Iterator[tuple[TameWord, Endo]]:
        realized = yield from visit(TameWord(steps, 3))
        if realized and len(steps) < config.max_word_length:
            for step in pool:
                yield from walk(steps + (step,))

    yield from walk(())


@dataclass(frozen=True)
class Violation:
    kind: str  # "excluded" or "certified-wild"
    weight: tuple
    fingerprint: str
    word: str
    realization: str
    multidegree: tuple
    certificate: dict

    @classmethod
    def of(cls, kind, weight: Weight, word, endo, mdeg, cert):
        return cls(
            kind=kind,
            weight=tuple(c.coords for c in weight.components),
            fingerprint=word_fingerprint(word),
            word=word.render(),
            realization=endo.render(),
            multidegree=mdeg,
            certificate=cert.to_json(),
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "weight": [list(w) for w in self.weight],
            "fingerprint": self.fingerprint,
            "word": self.word,
            "realization": self.realization,
            "multidegree": [list(d) for d in self.multidegree],
            "certificate": self.certificate,
        }


@dataclass
class ConsistencyReport:
    registry_fingerprint: str
    stats: GenerationStats
    words_checked: int
    distinct_multidegrees: dict
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "registry_fingerprint": self.registry_fingerprint,
            "stats": self.stats.as_dict(),
            "words_checked": self.words_checked,
            "distinct_multidegrees": {
                str(k): v for k, v in sorted(self.distinct_multidegrees.items())
            },
            "violations": [v.to_json() for v in self.violations],
        }

    def summary(self) -> str:
        lines = [
            f"words checked: {self.words_checked}",
            f"samples drawn: {self.stats.samples_drawn}"
            f" (duplicates {self.stats.duplicates},"
            f" degree-pruned {self.stats.degree_pruned},"
            f" budget-skipped {self.stats.budget_skipped})",
        ]
        for key, count in sorted(self.distinct_multidegrees.items()):
            lines.append(f"weight {key}: {count} distinct multidegrees")
        lines.append(f"violations: {len(self.violations)}")
        for v in self.violations:
            lines.append(
                f"  VIOLATION [{v.kind}] weight={v.weight} mdeg={v.multidegree}"
            )
            lines.append(f"    word: {v.word}")
            lines.append(f"    realization: {v.realization}")
        return "\n".join(lines)


def _mdeg_key(degs) -> tuple:
    return tuple(d.coords for d in degs)


def _classified(
    config: SearchConfig,
    registry: DeltaBoundRegistry,
    classify_fn: Callable,
    stats: GenerationStats,
) -> Iterator[tuple[TameWord, Endo, list]]:
    """The generate -> mdeg_w -> classify loop: for each generated word,
    yields (word, realization, rows) with one row (weight, key, degrees,
    verdict) per configured weight under which no component is zero.  The
    key is (rendered weight, sorted multidegree), and verdicts are cached
    by key, so each distinct multidegree is classified once per weight."""
    weights = [(w, w.render()) for w in config.weight_objects()]
    cache: dict = {}
    for word, endo in generate(config, stats):
        rows = []
        for w, name in weights:
            degs = mdeg_w(endo, w)
            if any(d is NEG_INF for d in degs):
                continue
            ordered = tuple(sorted(degs))
            key = (name, _mdeg_key(ordered))
            if key not in cache:
                cache[key] = classify_fn(ordered, w, registry)
            rows.append((w, key, degs, cache[key]))
        yield word, endo, rows


def consistency_check(
    config: SearchConfig,
    registry: Optional[DeltaBoundRegistry] = None,
    classify_fn: Optional[Callable] = None,
) -> ConsistencyReport:
    """Run the generated stream against the classifier and the wildness
    certifier; every Excluded multidegree or wildness certificate on a
    realized tame word is a falsification and is dumped in the report.

    classify_fn(sorted_degrees, weight, registry) may be injected to
    self-test the harness against a deliberately corrupted classifier.  Its
    contract: an Unknown verdict names every failed K1..K4 condition in
    ``reasons``, as classify_weighted's do, because the wildness screen in
    front of certify_wild reads them instead of re-checking the conditions.
    Every other row goes to certify_wild, which checks K1..K4 itself.
    """
    if registry is None:
        registry = builtin_registry()
    if classify_fn is None:
        classify_fn = classify_weighted
    stats = GenerationStats()
    violations: list[Violation] = []
    mdeg_counts: dict[str, set] = {w.render(): set() for w in config.weight_objects()}
    words_checked = 0
    for word, endo, rows in _classified(config, registry, classify_fn, stats):
        words_checked += 1
        for w, key, _, verdict in rows:
            mdeg_counts[key[0]].add(key[1])
            if isinstance(verdict, Excluded):
                cert = verdict.certificate
                violations.append(
                    Violation.of("excluded", w, word, endo, key[1], cert)
                )
            if not (
                isinstance(verdict, Unknown)
                and any(n in verdict.reasons for n in ("K1", "K2", "K3", "K4"))
            ):
                cert = certify_wild(endo, w, registry, assume_automorphism=True)
                if isinstance(cert, Certificate):
                    violations.append(
                        Violation.of("certified-wild", w, word, endo, key[1], cert)
                    )
    violations.sort(key=lambda v: (v.weight, v.fingerprint, v.kind))
    return ConsistencyReport(
        registry_fingerprint=registry.fingerprint(),
        stats=stats,
        words_checked=words_checked,
        distinct_multidegrees={k: len(v) for k, v in mdeg_counts.items()},
        violations=tuple(violations),
    )


def realizability_table(
    max_degree: int,
    weight=None,
    registry: Optional[DeltaBoundRegistry] = None,
) -> dict[tuple[int, int, int], ClassificationResult]:
    """Verdict per sorted triple with entries up to max_degree.

    Each value is the Realizable, Excluded or Unknown object the classifier
    returned: classify_total's under total degree (weight None), and
    classify_weighted's under an integer weight triple.
    """
    if registry is None:
        registry = builtin_registry()
    w = None if weight is None else (
        weight if isinstance(weight, Weight) else Weight.of(*weight)
    )
    if w is not None and w.rank != 1:
        raise DomainError("tables index integer degree triples: rank-1 weights only")
    table: dict[tuple[int, int, int], ClassificationResult] = {}
    for triple in combinations_with_replacement(range(1, max_degree + 1), 3):
        if w is None:
            table[triple] = classify_total(*triple, registry)
        else:
            table[triple] = classify_weighted(triple, w, registry)
    return table


@dataclass(frozen=True)
class SearchRecord:
    """One (word, weight) observation, as persisted."""

    seed: int
    fingerprint: str
    word: list  # TameWord.to_json() of the word, shared by its records
    weight: tuple
    multidegree: tuple
    verdict: str
    registry_fingerprint: str
    timestamp: float

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "word": self.word,
            "weight": [list(c) for c in self.weight],
            "mdeg": [list(c) for c in self.multidegree],
            "verdict": self.verdict,
            "registry_fingerprint": self.registry_fingerprint,
            "ts": self.timestamp,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SearchRecord":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported record schema version {version!r}"
            )
        return cls(
            seed=data["seed"],
            fingerprint=data["fingerprint"],
            word=data["word"],
            weight=tuple(tuple(c) for c in data["weight"]),
            multidegree=tuple(tuple(c) for c in data["mdeg"]),
            verdict=data["verdict"],
            registry_fingerprint=data["registry_fingerprint"],
            timestamp=data["ts"],
        )

    def to_word(self) -> TameWord:
        return TameWord.from_json(self.word)


def run_search(
    config: SearchConfig, registry: Optional[DeltaBoundRegistry] = None
) -> tuple[list[SearchRecord], GenerationStats]:
    """Generate, classify under every configured weight, and build records."""
    if registry is None:
        registry = builtin_registry()
    reg_fp = registry.fingerprint()
    stats = GenerationStats()
    records: list[SearchRecord] = []
    for word, _, rows in _classified(config, registry, classify_weighted, stats):
        fp = word_fingerprint(word)
        steps = word.to_json()
        for w, _, degs, verdict in rows:
            records.append(
                SearchRecord(
                    seed=config.seed,
                    fingerprint=fp,
                    word=steps,
                    weight=tuple(c.coords for c in w.components),
                    multidegree=_mdeg_key(degs),
                    verdict=verdict.kind,
                    registry_fingerprint=reg_fp,
                    timestamp=time.time(),
                )
            )
    return records, stats


def persist(records: Sequence[SearchRecord], path) -> None:
    """Append records as line-delimited JSON; one write per line keeps
    concurrent appends line-atomic."""
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json(), separators=(",", ":")) + "\n")


def load(path) -> list[SearchRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaVersionError(
                    f"line {lineno} is not valid JSON: {exc}"
                ) from exc
            records.append(SearchRecord.from_json(data))
    return records
