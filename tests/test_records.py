"""The package's value records: constructors, defaults, equality, immutability,
repr, copying and pickling."""

import copy
import pickle
from fractions import Fraction
from functools import partial

import pytest

from orbring import (
    CR,
    DEFAULT_GROUP_ORDER_CAP,
    AlgebraReport,
    AxiomCheck,
    CheckResult,
    ConjugacyPartition,
    CyclotomicNumber,
    InvariantRing,
    MonomialMap,
    OrbifoldModel,
    OrbifoldSpec,
    RationalPhase,
    SectorAlgebra,
    SectorData,
    VerificationReport,
)
from support import corpus_model

FIELDS = {
    RationalPhase: ("numerator", "denominator"),
    MonomialMap: ("perm", "phases"),
    ConjugacyPartition: ("classes", "representatives", "class_of"),
    OrbifoldSpec: ("name", "dimension", "generators", "max_group_order"),
    SectorData: ("age", "fixed_dim", "virtual_shift", "cr_shift"),
    SectorAlgebra: ("theory", "table", "degrees", "constants", "labels"),
    InvariantRing: ("theory", "labels", "class_sizes", "degrees", "constants"),
    AxiomCheck: ("name", "passed", "counterexample"),
    AlgebraReport: ("checks",),
    CheckResult: ("name", "passed", "counterexample", "millis"),
    VerificationReport: ("spec_name", "checks"),
}
BY_IDENTITY = (SectorAlgebra, InvariantRing)  # compared like any object, by identity
UNHASHABLE = (CheckResult, VerificationReport)  # a counterexample is a dict
BY_VALUE = [cls for cls in FIELDS if cls not in BY_IDENTITY]
VALIDATING = (RationalPhase, MonomialMap, OrbifoldSpec)  # each writes its own __init__
BASE_INIT = [cls for cls in FIELDS if cls not in VALIDATING]

HALF = RationalPhase(1, 2)
SWAP = MonomialMap((1, 0), (RationalPhase(0), HALF))


def make(cls):
    """A fresh instance; two calls give equal records for the classes compared by value."""
    if cls in BY_IDENTITY:
        alg = corpus_model("s3-perm").algebra(CR)
        return alg if cls is SectorAlgebra else alg.invariant_ring()
    check = CheckResult("age-duality", False, {"g": "e", "h": "s"}, 1.5)
    return {
        RationalPhase: lambda: RationalPhase(3, 6),
        MonomialMap: lambda: MonomialMap([1, 0], [RationalPhase(0), RationalPhase(-1, 2)]),
        ConjugacyPartition: lambda: ConjugacyPartition(((0,), (1, 2)), (0, 1), (0, 1, 1)),
        OrbifoldSpec: lambda: OrbifoldSpec("swap", 2, [SWAP]),
        SectorData: lambda: SectorData(Fraction(1, 2), 1, 2, Fraction(-1, 2)),
        AxiomCheck: lambda: AxiomCheck("unit", True),
        AlgebraReport: lambda: AlgebraReport((AxiomCheck("unit", True),)),
        CheckResult: lambda: check,
        VerificationReport: lambda: VerificationReport(spec_name="swap", checks=(check,)),
    }[cls]()


def order_one_algebra():
    """The cr algebra of a spec that lists only the identity: its table's gathers take one index."""
    spec = {"name": "t", "dimension": 2, "generators": [{"perm": [0, 1], "phases": ["0", "0"]}]}
    return OrbifoldModel(OrbifoldSpec.from_dict(spec)).algebra(CR)


def fields_of(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def name_of(cls):
    return cls.__name__


def test_defaults_and_normalisation():
    assert fields_of(RationalPhase(5)) == (0, 1)
    assert fields_of(RationalPhase(3, 6)) == (1, 2)
    assert fields_of(RationalPhase(-1, 4)) == (3, 4)
    assert AxiomCheck("unit", True).counterexample is None
    spec = OrbifoldSpec("swap", 2, [SWAP])
    assert spec.max_group_order == DEFAULT_GROUP_ORDER_CAP
    assert spec.generators == (SWAP,) and type(spec.generators) is tuple
    m = MonomialMap([1, 0], iter([HALF, HALF]))
    assert type(m.perm) is tuple and type(m.phases) is tuple


@pytest.mark.parametrize("cls", FIELDS, ids=name_of)
def test_positional_and_keyword_constructors_agree(cls):
    values = fields_of(make(cls))
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert fields_of(by_position) == fields_of(by_keyword) == values


@pytest.mark.parametrize("cls", BASE_INIT, ids=name_of)
def test_base_constructor_names_the_class_on_misfit_arguments(cls):
    values = fields_of(make(cls))
    by_name = dict(zip(FIELDS[cls], values))
    missing = {name: by_name[name] for name in FIELDS[cls][1:]}
    calls = [
        lambda: cls(**missing),
        lambda: cls(*values, unknown=None),
        lambda: cls(values[0], **by_name),
        lambda: cls(*values, None),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=cls.__name__):
            call()


@pytest.mark.parametrize("cls", BY_VALUE, ids=name_of)
def test_value_records_compare_and_hash_by_fields(cls):
    a, b = make(cls), make(cls)
    assert a is not b and a == b and not a != b
    assert a != object() and a != fields_of(a)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_value_records_differ_on_any_field():
    assert RationalPhase(1, 2) != RationalPhase(1, 3)
    assert AxiomCheck("unit", True) != AxiomCheck("unit", False)
    assert OrbifoldSpec("swap", 2, [SWAP]) != OrbifoldSpec("swap", 2, [SWAP], 10)
    zero = Fraction(0)
    assert SectorData(zero, 1, 2, zero) != SectorData(zero, 1, 3, zero)


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=name_of)
def test_identity_records_compare_by_identity(cls):
    record = make(cls)
    twin = cls(*fields_of(record))
    assert record == record and twin != record
    assert len({record, twin}) == 2
    assert hash(record) == hash(record)


@pytest.mark.parametrize("cls", FIELDS, ids=name_of)
def test_records_refuse_assignment_and_deletion(cls):
    record = make(cls)
    field = FIELDS[cls][0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_repr_lists_fields_and_leaves_out_the_table():
    assert repr(RationalPhase(1, 2)) == "RationalPhase(numerator=1, denominator=2)"
    assert repr(AxiomCheck("unit", True)) == (
        "AxiomCheck(name='unit', passed=True, counterexample=None)"
    )
    assert repr(AlgebraReport(())) == "AlgebraReport(checks=())"
    alg = make(SectorAlgebra)
    text = repr(alg)
    assert text.startswith("SectorAlgebra(theory='cr', degrees=(")
    assert "table" not in text and "GroupTable" not in text
    assert f"labels={alg.labels!r})" in text


@pytest.mark.parametrize(
    "cls, build",
    [pytest.param(cls, partial(make, cls), id=cls.__name__) for cls in FIELDS]
    + [pytest.param(SectorAlgebra, order_one_algebra, id="SectorAlgebra-order-1")],
)
def test_copy_and_pickle_give_equal_records(cls, build):
    record = build()
    shallow = copy.copy(record)
    assert type(shallow) is cls
    assert all(x is y for x, y in zip(fields_of(shallow), fields_of(record)))
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls
    if cls in BY_IDENTITY:  # the restored table is a new object
        kept = [f for f in FIELDS[cls] if f != "table"]
        assert all(getattr(restored, f) == getattr(record, f) for f in kept)
    else:
        assert shallow == record and restored == record


def test_cyclotomic_numbers_share_the_record_guards():
    # equality crosses conductors, so a cyclotomic number keeps its own
    # __eq__ and stays unhashable; it takes immutability, copy and pickle
    z = CyclotomicNumber(6, (1, 2, 3))
    with pytest.raises(AttributeError):
        z.coeffs = (0,)
    with pytest.raises(TypeError):
        hash(z)
    assert copy.copy(z) == z and pickle.loads(pickle.dumps(z)) == z
    assert pickle.loads(pickle.dumps(z)).coeffs == z.coeffs
    assert repr(z) == "CyclotomicNumber(6, (-2, 5))"
