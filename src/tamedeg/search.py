"""Bounded generation of tame words, the search-vs-classifier oracle, records.

The harness samples or enumerates tame words, realizes them, and checks the
single most important property of the whole artifact: no realized
multidegree is ever classified Excluded, and no realized map is ever
certified wild.  Any violation is dumped in full (word, realization,
multidegree, certificate) as a falsification record.

Generation is deterministic: randomized mode drives a counter-based RNG
keyed by (seed, word index), so equal configs give equal streams.  A
config's stream depends only on the SHA-256 seeding of each child RNG and
on its ``getrandbits`` and ``random()``, which every step draw reads.  Each word
is realized by extending a packed ``automorphisms._Fold``, the fold that
``automorphisms.realize`` runs, under a budget that carries the config's
term budget and degree cap; words that hit either cap are counted, not
dropped silently.  ``consistency_check`` and ``run_search`` share one
loop that classifies each realized multidegree once per weight, with the
verdicts cached by (weight, sorted multidegree); ``certify_wild`` screens
each realized map's Jacobian as it does for every caller.
"""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from itertools import accumulate, product
from typing import Callable, Iterator, Optional, Sequence

from .automorphisms import ElementaryAut, Endo, TameWord, _Fold
from .classifier import (
    Certificate,
    DeltaBoundRegistry,
    Excluded,
    Unknown,
    _registry,
    certify_wild,
    classify_weighted,
)
from .errors import (
    BudgetExceededError,
    DegreeCapError,
    DomainError,
    SchemaVersionError,
    _show,
)
from .ordgroup import GroupElem, Weight, _render_coords, _set, _Value
from .parse import _integer
from .poly import DEFAULT_TERM_BUDGET, Budget, _canonical, _settle, _trusted

SCHEMA_VERSION = 1

# Integer fields of SearchConfig and the least value each may take (None: any).
_INT_MINIMA = {
    "max_word_length": 0,
    "shift_monomial_exponent_cap": 0,
    "shift_term_count_cap": 1,
    "degree_cap": 1,
    "term_budget": 1,
    "sample_count": 0,
    "seed": None,
}


class SearchConfig(_Value):
    _fields = ("max_word_length", "shift_monomial_exponent_cap", "shift_term_count_cap",
               "coefficient_pool", "scale_pool", "weights", "degree_cap", "term_budget",
               "seed", "mode", "sample_count", "shear_probability")

    def __init__(
        self,
        max_word_length: int = 6,
        shift_monomial_exponent_cap: int = 4,
        shift_term_count_cap: int = 1,
        coefficient_pool: tuple = (1, -1),
        scale_pool: tuple = (-1, 2),
        weights: tuple = ((1, 1, 1),),
        degree_cap: int = 60,
        term_budget: int = DEFAULT_TERM_BUDGET,
        seed: int = 0,
        mode: str = "randomized",
        sample_count: int = 1000,
        shear_probability: float = 0.85,
    ):
        given = locals()
        for name in self._fields:
            _set(self, name, given[name])
        if self.mode not in ("randomized", "exhaustive"):
            raise DomainError(f"unknown mode {_show(self.mode)}")
        for name, least in _INT_MINIMA.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {_show(value)}")
            if least is not None and value < least:
                raise DomainError(f"{name} must be at least {least}, got {_show(value)}")
        try:
            str(self.seed)  # the child streams are seeded from its decimal form
        except ValueError:
            raise DomainError(f"seed is too long to print, got {_show(self.seed)}") from None
        for name in ("coefficient_pool", "scale_pool"):
            _set(self, name, _pool(name, getattr(self, name)))
        if not self.coefficient_pool:
            raise DomainError("coefficient_pool must not be empty")
        p = self.shear_probability
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise DomainError(f"shear_probability must be a number, got {_show(p)}")
        if not 0 <= p <= 1:
            raise DomainError("shear_probability must lie in [0, 1]")
        if not isinstance(self.weights, (tuple, list)) or not all(
            isinstance(w, (tuple, list)) and len(w) == 3 for w in self.weights
        ):
            raise DomainError("weights must be a list of three-entry weights")
        if not self.weights:  # a run would classify nothing and find no violation
            raise DomainError("weights must not be empty")
        weights = self.weight_objects()  # bad weight entries fail here, not mid-run
        if len(set(weights)) < len(weights):  # each record would be written twice
            raise DomainError("weights must not repeat")

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


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _pool(name: str, entries) -> tuple:
    """The entries of a coefficient or scale pool as canonical rationals
    (an int when integral, else a Fraction).  An entry is an int (not a
    bool), a Fraction, or a string "p" or "p/q"; it must not be 0."""
    if not isinstance(entries, (tuple, list)):
        raise DomainError(f"{name} must be a list, got {_show(entries)}")
    out = []
    for entry in entries:
        value = entry
        if isinstance(entry, str) and _RATIONAL.fullmatch(entry):
            num, _, den = entry.partition("/")
            try:
                value = Fraction(int(num), int(den or 1))
            except (ValueError, ZeroDivisionError):
                value = None
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise DomainError(
                f'{name} entries must be integers or "p/q" strings, got {_show(entry)}'
            )
        if value == 0:
            raise DomainError(f"{name} must not contain 0")
        out.append(_canonical(value))
    return tuple(out)


def _frozen(value):
    """JSON lists as tuples, recursively."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


class GenerationStats(_Value, frozen=False):
    _fields = ("samples_drawn", "emitted", "duplicates", "budget_skipped", "degree_pruned")

    def __init__(self, samples_drawn: int = 0, emitted: int = 0, duplicates: int = 0,
                 budget_skipped: int = 0, degree_pruned: int = 0):
        self.samples_drawn = samples_drawn
        self.emitted = emitted
        self.duplicates = duplicates
        self.budget_skipped = budget_skipped
        self.degree_pruned = degree_pruned

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._key()))


def _child_rng(seed: int, index: int) -> random.Random:
    import hashlib

    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def word_fingerprint(word: TameWord) -> str:
    return _fingerprint(word.steps, [s.shift.render() for s in word.steps])


def _fingerprint(steps: Sequence[ElementaryAut], shifts: Sequence[str]) -> str:
    """word_fingerprint of the steps, given their rendered shifts."""
    import hashlib

    payload = "|".join(f"{s.target}:{s.scale}:{t}" for s, t in zip(steps, shifts))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n), n >= 1, made as Random.randrange(n) makes it
    (CPython's _randbelow_with_getrandbits), so randrange, randint and
    choice can be replaced by it without changing a stream."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_step(rng: random.Random, config: SearchConfig) -> ElementaryAut:
    bits = rng.getrandbits
    target = _below(bits, 3)
    scales = config.scale_pool
    if scales and rng.random() >= config.shear_probability:
        scale = Fraction(scales[_below(bits, len(scales))])
        return ElementaryAut._trusted(target, scale, _trusted(3, {}))
    cap = config.shift_monomial_exponent_cap + 1
    pool = config.coefficient_pool
    terms: dict = {}
    for _ in range(1 + _below(bits, config.shift_term_count_cap)):
        expo = [0] * 3
        for i in range(3):
            if i != target:
                expo[i] = _below(bits, cap)
        mono = tuple(expo)
        total = terms.get(mono, 0) + pool[_below(bits, len(pool))]
        if total:
            terms[mono] = total
        else:
            del terms[mono]
    if not terms:
        terms[(0, 0, 0)] = pool[0]
    return ElementaryAut._trusted(target, _UNIT, _trusted(3, _settle(terms)))


_UNIT = Fraction(1)


def _random_word(rng: random.Random, config: SearchConfig) -> TameWord:
    cap = config.max_word_length
    length = 1 + _below(rng.getrandbits, cap) if cap else 0
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
                shift = _trusted(3, {tuple(expo): coeff})
                pool.append(ElementaryAut._trusted(target, _UNIT, shift))
        for scale in config.scale_pool:
            pool.append(
                ElementaryAut._trusted(target, Fraction(scale), _trusted(3, {}))
            )
    return pool


def generate(
    config: SearchConfig, stats: Optional[GenerationStats] = None
) -> Iterator[tuple[TameWord, Endo]]:
    """Deterministic stream of (word, realization) pairs.

    Randomized mode draws sample_count words from the counter-based RNG;
    exhaustive mode walks all words over the generator pool up to the
    length cap, depth first from the empty word.  Resource-pruned words are
    counted, never silently dropped, and duplicate realizations are
    deduplicated by canonical form, which does not depend on how the
    realization was packed.  Every word is realized by extending a packed
    fold, as automorphisms.realize does: a randomized word extends the
    identity fold by all its steps, and the walk extends the fold of a
    word's prefix by its last step.  The walk extends every word that
    realizes, duplicates included, and no word that a cap pruned.
    """
    if stats is None:
        stats = GenerationStats()
    seen: set[Endo] = set()  # compared by their term maps

    def visit(word: TameWord, prefix: _Fold, steps: tuple) -> Iterator[tuple[TameWord, Endo]]:
        """Realize word by extending prefix, the fold of its first steps,
        by the rest of them, steps, under the caps; count it, and yield it
        unless its realization was seen before.  Returns the fold of word,
        or None when a cap pruned it."""
        stats.samples_drawn += 1
        budget = Budget(config.term_budget, degree_cap=config.degree_cap)
        try:
            fold = prefix.extend(steps, budget)
            endo = fold.endo()
        except DegreeCapError:
            stats.degree_pruned += 1
            return None
        except BudgetExceededError:
            stats.budget_skipped += 1
            return None
        size = len(seen)
        seen.add(endo)
        if len(seen) == size:
            stats.duplicates += 1
        else:
            stats.emitted += 1
            yield word, endo
        return fold

    identity = _Fold.identity(3)
    if config.mode == "randomized":
        for index in range(config.sample_count):
            word = _random_word(_child_rng(config.seed, index), config)
            yield from visit(word, identity, word.steps)
        return

    pool = _generator_pool(config)

    def walk(word: TameWord, prefix: _Fold) -> Iterator[tuple[TameWord, Endo]]:
        fold = yield from visit(word, prefix, word.steps[-1:])
        if fold is not None and len(word) < config.max_word_length:
            for step in pool:
                yield from walk(TameWord(word.steps + (step,), 3), fold)

    yield from walk(TameWord((), 3), identity)


class Violation(_Value):
    """A word that the classifier contradicts: kind is "excluded" or "certified-wild"."""

    _fields = ("kind", "weight", "fingerprint", "word", "realization", "multidegree",
               "certificate")

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


class ConsistencyReport(_Value, frozen=False):
    _fields = ("registry_fingerprint", "stats", "words_checked", "distinct_multidegrees",
               "violations")

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
            weight, mdeg = (",".join(map(_render_coords, c)) for c in (v.weight, v.multidegree))
            lines.append(f"  VIOLATION [{v.kind}] weight={weight} mdeg={mdeg}")
            lines.append(f"    word: {v.word}")
            lines.append(f"    realization: {v.realization}")
        return "\n".join(lines)


def _classified(
    config: SearchConfig,
    registry: DeltaBoundRegistry,
    classify_fn: Callable,
    stats: GenerationStats,
) -> Iterator[tuple[TameWord, Endo, list]]:
    """The generate -> degrees -> classify loop: for each generated word,
    yields (word, realization, rows) with one row (weight, key, degrees,
    verdict) per configured weight (scales are nonzero, so no component is
    zero).  Degrees are coordinate tuples, in component order.  The key is
    (rendered weight, sorted multidegree), and verdicts are cached by key,
    so each distinct multidegree is classified once per weight."""
    weights = config.weight_objects()
    names = [w.render() for w in weights]
    # one integer row (the weights of x1, x2, x3) per coordinate of each weight
    rows = [tuple(g.coords[i] for g in w.components)
            for w in weights for i in range(w.rank)]
    ends = list(accumulate(w.rank for w in weights))
    spans = list(zip([0] + ends, ends))
    cache: dict = {}
    for word, endo in generate(config, stats):
        per_component = [_degrees(c.terms, rows, spans) for c in endo.components]
        out = []
        for j, w in enumerate(weights):
            degs = tuple(d[j] for d in per_component)
            ordered = tuple(sorted(degs))
            key = (names[j], ordered)
            if key not in cache:
                elems = tuple(GroupElem._trusted(d) for d in ordered)
                cache[key] = classify_fn(elems, w, registry)
            out.append((w, key, degs, cache[key]))
        yield word, endo, out


def _degrees(terms: dict, rows: list, spans: list) -> list[tuple[int, ...]]:
    """The weighted degree of a nonzero polynomial in x1, x2, x3 under each
    weight, as coordinates: one pass over the terms per row of every weight
    evaluates that row, then each weight takes the lexicographic maximum
    over its span of rows (plain maximum for rank 1)."""
    columns = [[a * x + b * y + c * z for x, y, z in terms] for a, b, c in rows]
    return [
        (max(columns[i]),) if j == i + 1 else max(zip(*columns[i:j]))
        for i, j in spans
    ]


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
    Every other row goes to certify_wild, which checks K1..K4 itself after
    its Jacobian screen, passed by every tame word's realization.
    """
    registry = _registry(registry)
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
                cert = certify_wild(endo, w, registry)
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


class SearchRecord(_Value):
    """One (word, weight) observation, as persisted; word is TameWord.to_json(),
    shared by the word's records."""

    _fields = ("seed", "fingerprint", "word", "weight", "multidegree", "verdict",
               "registry_fingerprint", "timestamp")

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
        """The record in a JSON value; any other value, or a record that
        lacks a field or holds one of the wrong type (see _FIELD_CHECKS),
        raises SchemaVersionError."""
        if not isinstance(data, dict):
            raise SchemaVersionError(f"record must be a JSON object, not {_show(data)}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported record schema version {_show(version)}"
            )
        try:
            values = [data[field] for field in _FIELD_CHECKS]
        except KeyError as exc:
            raise SchemaVersionError(f"record has no field {_show(exc.args[0])}") from None
        for (field, (ok, wanted)), value in zip(_FIELD_CHECKS.items(), values):
            if not ok(value):
                raise SchemaVersionError(
                    f"record field {field!r} must be {wanted}, not {_show(value)}"
                )
        seed, fingerprint, word, weight, mdeg, verdict, reg_fp, ts = values
        return cls(seed, fingerprint, word, tuple(map(tuple, weight)),
                   tuple(map(tuple, mdeg)), verdict, reg_fp, ts)

    def to_word(self) -> TameWord:
        return TameWord.from_json(self.word)


def _three_int_rows(value) -> bool:
    """Whether a record's weight or mdeg is three integer lists of one
    nonzero length (bools and floats are not integers)."""
    return (
        type(value) is list
        and len(value) == 3
        and all(type(row) is list for row in value)
        and 0 < len(value[0]) == len(value[1]) == len(value[2])
        and all(type(x) is int for row in value for x in row)
    )


# Each record field in to_json order, the test its value must pass and what
# the error says it must be.
_FIELD_CHECKS = {
    "seed": (lambda v: type(v) is int, "an int"),
    "fingerprint": (lambda v: type(v) is str, "a string"),
    "word": (lambda v: type(v) is list, "a list"),
    "weight": (_three_int_rows, "three integer lists of one nonzero length"),
    "mdeg": (_three_int_rows, "three integer lists of one nonzero length"),
    "verdict": (("realizable", "excluded", "unknown").__contains__,
                "one of 'realizable', 'excluded', 'unknown'"),
    "registry_fingerprint": (lambda v: type(v) is str, "a string"),
    "ts": (lambda v: type(v) in (int, float), "an int or float"),
}


def run_search(
    config: SearchConfig, registry: Optional[DeltaBoundRegistry] = None
) -> tuple[list[SearchRecord], GenerationStats]:
    """Generate, classify under every configured weight, and build records."""
    registry = _registry(registry)
    reg_fp = registry.fingerprint()
    stats = GenerationStats()
    records: list[SearchRecord] = []
    for word, _, rows in _classified(config, registry, classify_weighted, stats):
        steps = word.to_json()
        fp = _fingerprint(word.steps, [s["shift"] for s in steps])
        for w, _, degs, verdict in rows:
            records.append(
                SearchRecord(
                    seed=config.seed,
                    fingerprint=fp,
                    word=steps,
                    weight=tuple(c.coords for c in w.components),
                    multidegree=degs,
                    verdict=verdict.kind,
                    registry_fingerprint=reg_fp,
                    timestamp=time.time(),
                )
            )
    return records, stats


def persist(records: Sequence[SearchRecord], path) -> None:
    """Append records as line-delimited JSON, through one compact encoder
    for the call; one write per line keeps concurrent appends line-atomic."""
    import json

    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record.to_json()) + "\n")


def load(path) -> list[SearchRecord]:
    """The records that persist wrote to path; a line that is not one
    raises SchemaVersionError naming the line.  Each line is decoded from
    UTF-8 on its own, so bytes that are not UTF-8 are reported on their
    line, after every line before it has been read; lines end where a text
    read would end them (at \\n, \\r or \\r\\n)."""
    import json

    records = []
    with open(path, "rb") as fh:
        lines = (line for raw in fh for line in raw.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                try:
                    line = line.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise SchemaVersionError(f"not UTF-8: {exc}") from None
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaVersionError(f"not valid JSON: {exc}") from None
                except ValueError:  # an int past Python's digit limit: read
                    data = json.loads(line, parse_int=_integer)  # again to name it
                records.append(SearchRecord.from_json(data))
            except DomainError as exc:
                raise SchemaVersionError(f"line {lineno}: {exc}") from None
    return records
