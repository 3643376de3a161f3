"""The value classes behave as the dataclasses they were written as.

Each class is checked against a reference built with
dataclasses.make_dataclass from its field list (with the defaults it has):
the same constructor signature, equality, hash, repr and pickling, and
FrozenInstanceError on assignment or deletion, except for the two mutable,
unhashable classes.  A wrong call to a constructor names the class, as a
dataclass's does."""

import inspect
import pickle
from dataclasses import FrozenInstanceError, field, make_dataclass

import pytest

from tamedeg import (
    Certificate,
    ConsistencyReport,
    DomainError,
    ElementaryAut,
    Endo,
    Excluded,
    Realizable,
    SearchConfig,
    SearchRecord,
    TameWord,
    Unknown,
    Weight,
    classify_total,
    classify_weighted,
    consistency_check,
    ge,
    parse_polynomial,
    rank_profile,
    run_search,
    shear,
)
from tamedeg.classifier import Clause, Condition, DeltaBoundUse
from tamedeg.ordgroup import RankProfile
from tamedeg.poly import DEFAULT_TERM_BUDGET
from tamedeg.search import GenerationStats, Violation

_EXCLUDED = classify_weighted((3, 5, 7), (1, 2, 3))
_CONFIG = SearchConfig(seed=3, sample_count=4, weights=((1, 1, 1), (1, 2, 3)))
_STEP = shear(0, parse_polynomial("x2^2 - 3*x3"), 2)

# class, field names (a pair gives a default), a sample instance
CASES = [
    (RankProfile, ["pair_12_dependent", "pair_13_dependent", "pair_23_dependent",
                   "triple_dependent"], lambda: rank_profile(ge(2), ge(4), ge(5))),
    (Weight, ["w1", "w2", "w3"], lambda: Weight.of(1, (2,), 3)),
    (ElementaryAut, ["target", "scale", "shift"], lambda: _STEP),
    (TameWord, ["steps", ("nvars", 3)], lambda: TameWord((_STEP, _STEP.inverse()))),
    (Endo, ["components"], lambda: Endo.identity(3)),
    (Clause, ["left", "relation", "right", "holds"], lambda: Clause("d1 = 3", "<", "4", True)),
    (Condition, ["name", "holds", "clauses"], lambda: _EXCLUDED.certificate.conditions[0]),
    (DeltaBoundUse, ["weight", "pair", "bound"],
     lambda: DeltaBoundUse(((1,), (1,), (1,)), ((4,), (6,)), ge(4))),
    (Certificate, ["theorem", "conditions", ("delta_bounds_used", ())],
     lambda: _EXCLUDED.certificate),
    (Excluded, ["certificate"], lambda: _EXCLUDED),
    (Realizable, ["witness", "multidegree"], lambda: classify_total(2, 3, 4)),
    (Unknown, ["reasons"], lambda: Unknown(("K1", "K3"))),
    (SearchConfig, [("max_word_length", 6), ("shift_monomial_exponent_cap", 4),
                    ("shift_term_count_cap", 1), ("coefficient_pool", (1, -1)),
                    ("scale_pool", (-1, 2)), ("weights", ((1, 1, 1),)),
                    ("degree_cap", 60), ("term_budget", DEFAULT_TERM_BUDGET), ("seed", 0),
                    ("mode", "randomized"), ("sample_count", 1000),
                    ("shear_probability", 0.85)], lambda: _CONFIG),
    (GenerationStats, [("samples_drawn", 0), ("emitted", 0), ("duplicates", 0),
                       ("budget_skipped", 0), ("degree_pruned", 0)],
     lambda: GenerationStats(5, 4, 1, 0, 2)),
    (Violation, ["kind", "weight", "fingerprint", "word", "realization", "multidegree",
                 "certificate"],
     lambda: Violation.of("excluded", Weight.of(1, 2, 3), TameWord((_STEP,)),
                          Endo.identity(3), ((3,), (5,), (7,)), _EXCLUDED.certificate)),
    (ConsistencyReport, ["registry_fingerprint", "stats", "words_checked",
                         "distinct_multidegrees", "violations"],
     lambda: consistency_check(_CONFIG)),
    (SearchRecord, ["seed", "fingerprint", "word", "weight", "multidegree", "verdict",
                    "registry_fingerprint", "timestamp"],
     lambda: run_search(_CONFIG)[0][0]),
]
MUTABLE = (GenerationStats, ConsistencyReport)


def _reference(cls, fields):
    spec = [(f[0], object, field(default=f[1])) if isinstance(f, tuple) else f
            for f in fields]
    return make_dataclass(cls.__name__, spec, frozen=cls not in MUTABLE)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, fields, sample", CASES, ids=[c[0].__name__ for c in CASES])
class TestMatchesDataclass:
    def test_signature(self, cls, fields, sample):
        def parameters(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

        assert parameters(cls) == parameters(_reference(cls, fields))

    def test_argument_errors_name_the_class(self, cls, fields, sample):
        with pytest.raises(TypeError) as info:
            cls(bogus=1)
        assert str(info.value).startswith(
            f"{cls.__name__}.__init__() got an unexpected keyword argument 'bogus'")
        if not all(isinstance(f, tuple) for f in fields):  # some field has no default
            with pytest.raises(TypeError) as info:
                cls()
            assert str(info.value).startswith(f"{cls.__name__}.__init__() missing ")

    def test_equality_hash_and_repr(self, cls, fields, sample):
        obj = sample()
        names = [f[0] if isinstance(f, tuple) else f for f in fields]
        values = [getattr(obj, name) for name in names]
        ref = _reference(cls, fields)(*values)
        twin = cls(*values)
        assert obj == twin and twin == obj and not obj != twin
        assert obj != ref and ref != obj and obj != tuple(values)
        assert repr(obj) == repr(twin) == repr(ref)
        if cls in MUTABLE:
            assert cls.__hash__ is None
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        else:
            assert _hash_or_error(obj) == _hash_or_error(twin) == _hash_or_error(ref)

    def test_pickle_round_trip(self, cls, fields, sample):
        obj = sample()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is cls and back == obj and repr(back) == repr(obj)

    def test_frozen_or_mutable(self, cls, fields, sample):
        obj = sample()
        name = fields[0][0] if isinstance(fields[0], tuple) else fields[0]
        value = getattr(obj, name)
        if cls in MUTABLE:
            setattr(obj, name, None)
            assert getattr(obj, name) is None
            delattr(obj, name)  # allowed, as on a plain dataclass
            return
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
            obj.other = 1
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is value


def test_generation_stats_dict_is_in_field_order():
    stats = GenerationStats(5, 4, 1, 0, 2)
    assert list(stats.as_dict().items()) == [
        ("samples_drawn", 5), ("emitted", 4), ("duplicates", 1),
        ("budget_skipped", 0), ("degree_pruned", 2),
    ]
    stats.emitted += 1
    assert stats.as_dict()["emitted"] == 5


def test_cached_fields_stay_out_of_equality():
    read, fresh = Weight.of(1, 2, 3), Weight.of(1, 2, 3)
    assert read.star is read.star  # computed once, then kept
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert "star" not in repr(read)


@pytest.mark.parametrize("data, message", [
    ({"bogus": 1}, "SearchConfig.__init__() got an unexpected keyword argument 'bogus'"),
    ({"seed": 1, "weight": [[1, 1, 1]]},
     "SearchConfig.__init__() got an unexpected keyword argument 'weight'"),
])
def test_unknown_config_key_keeps_its_message(data, message):
    with pytest.raises(DomainError) as info:
        SearchConfig.from_json(data)
    assert str(info.value) == f"bad search config: {message}"
