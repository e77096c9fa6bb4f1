import copy
import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import (
    CR,
    THEORIES,
    VIRT,
    AlgebraReport,
    AxiomCheck,
    ConsistencyError,
    OrbifoldModel,
    OrbifoldSpec,
    verify_algebra,
)
from orbring.rings import (
    _check_associativity,
    _check_equivariance,
    _check_frobenius,
    _check_unit,
)
from support import (
    CORPUS_NAMES,
    SMALL_NAMES,
    class_convolution_oracle,
    corpus_model,
    corpus_spec,
    gmpn_spec,
    grading_axiom_scan,
    invariant_expansion_oracle,
    nondegeneracy_scan,
)


def transpositions_of(model):
    return [i for i in range(model.order) if model.table.element_order(i) == 2]


# --- bundle ranks ---

def test_obstruction_vanishes_against_the_unit():
    for name in SMALL_NAMES:
        model = corpus_model(name)
        for h in range(model.order):
            assert model.obstruction_rank(0, h) == 0
            assert model.excess_rank(0, h) == 0


def test_obstruction_rank_z3_11():
    model = corpus_model("z3-11")
    assert model.obstruction_rank(1, 1) == 0  # 2/3 + 2/3 - 4/3 - 0 + 0


def test_obstruction_rank_z3_12():
    model = corpus_model("z3-12")
    assert model.obstruction_rank(1, 1) == 1  # 1 + 1 - 1 - 0 + 0
    assert model.obstruction_rank_dual_form(1, 1) == 1  # 1 + 1 + 1 - (2 - 0)


def test_obstruction_rank_s3_two_transpositions():
    model = corpus_model("s3-perm")
    t1, t2 = transpositions_of(model)[:2]
    assert model.obstruction_rank(t1, t2) == 0  # 1/2 + 1/2 - 1 - 1 + 1
    assert model.obstruction_rank_dual_form(t1, t2) == 0  # 1/2 + 1/2 + 1 - (3 - 1)


def test_excess_rank_examples():
    z3 = corpus_model("z3-11")
    assert z3.excess_rank(1, 1) == 2  # 2 - 0 - 0 + 0
    s3 = corpus_model("s3-perm")
    t1, t2 = transpositions_of(s3)[:2]
    assert s3.excess_rank(t1, t2) == 0  # 3 - 2 - 2 + 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rank_oracle_agreement(name):
    model = corpus_model(name)
    for g in range(model.order):
        for h in range(model.order):
            assert model.obstruction_rank(g, h) == model.obstruction_rank_dual_form(g, h)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_ranks_are_conjugation_invariant(name):
    model = corpus_model(name)
    table = model.table
    for k in range(model.order):
        for g in range(model.order):
            for h in range(model.order):
                cg, ch = table.conjugate(g, k), table.conjugate(h, k)
                assert model.obstruction_rank(cg, ch) == model.obstruction_rank(g, h)
                assert model.excess_rank(cg, ch) == model.excess_rank(g, h)


# --- structure constants ---

def test_structure_constants_z3_11():
    model = corpus_model("z3-11")
    # cr: x_g^2 survives, x_g * x_{g^2} dies on the codimension gate,
    # x_{g^2}^2 dies on the rank gate (rank 2)
    assert model.structure_constant(CR, 1, 1) == 1
    assert model.structure_constant(CR, 1, 2) == 0
    assert model.structure_constant(CR, 2, 2) == 0
    assert model.structure_constant(VIRT, 1, 1) == 0  # excess rank 2
    for h in range(3):
        assert model.structure_constant(CR, 0, h) == 1
        assert model.structure_constant(VIRT, 0, h) == 1


def test_structure_constants_s3_transposition_pair():
    model = corpus_model("s3-perm")
    t1, t2 = transpositions_of(model)[:2]
    assert model.structure_constant(CR, t1, t2) == 1
    assert model.structure_constant(VIRT, t1, t2) == 1


def test_full_cr_table_z3_11():
    alg = corpus_model("z3-11").algebra(CR)
    expected = [
        [1, 1, 1],
        [1, 1, 0],
        [1, 0, 0],
    ]
    assert [[int(c) for c in row] for row in alg.constants] == expected
    assert alg.degrees == (Fraction(0), Fraction(4, 3), Fraction(8, 3))


def test_full_virt_table_z3_11():
    alg = corpus_model("z3-11").algebra(VIRT)
    expected = [
        [1, 1, 1],
        [1, 0, 0],
        [1, 0, 0],
    ]
    assert [[int(c) for c in row] for row in alg.constants] == expected
    assert alg.degrees == (Fraction(0), Fraction(4), Fraction(4))


# algebra() builds its rows from per-element arrays; structure_constant is
# the per-entry oracle for every one of them
@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES] + [gmpn_spec(4, 1, 2)],
    ids=lambda spec: spec.name,
)
@pytest.mark.parametrize("forget", [False, True])
def test_algebra_rows_match_structure_constant(spec, forget):
    model = OrbifoldModel(spec, forget_geometry=forget)
    for theory in THEORIES:
        constants = model.algebra(theory).constants
        for g in range(model.order):
            for h in range(model.order):
                assert constants[g][h] == model.structure_constant(theory, g, h), (theory, g, h)


def first_entry_error(model, theory):
    with pytest.raises(ConsistencyError) as entry:
        for g in range(model.order):
            for h in range(model.order):
                model.structure_constant(theory, g, h)
    return str(entry.value)


@pytest.mark.parametrize("theory", THEORIES)
def test_algebra_raises_the_entry_error_on_a_negative_rank(theory):
    model = OrbifoldModel(corpus_spec("s3-perm"))
    model.geometry.fixed[1] += 5
    expected = first_entry_error(model, theory)
    assert "is -5, expected a nonnegative integer" in expected
    with pytest.raises(ConsistencyError) as built:
        model.algebra(theory)
    assert str(built.value) == expected


def test_algebra_raises_the_entry_error_on_a_fractional_rank():
    model = OrbifoldModel(corpus_spec("z3-11"))
    model.geometry.ages[1] += 1
    expected = first_entry_error(model, CR)
    assert "is 1/3, expected a nonnegative integer" in expected
    with pytest.raises(ConsistencyError) as built:
        model.algebra(CR)
    assert str(built.value) == expected


def test_trivial_group_gives_unit_algebra():
    for theory in (CR, VIRT):
        alg = OrbifoldModel(corpus_spec("trivial-c2")).algebra(theory)
        assert alg.order == 1
        assert alg.degrees == (Fraction(0),)
        assert alg.constants == ((1,),)


@pytest.mark.parametrize("name", ["s3-perm", "q8"])
def test_forget_geometry_gives_the_group_ring(name):
    for theory in (CR, VIRT):
        alg = OrbifoldModel(corpus_spec(name), forget_geometry=True).algebra(theory)
        assert all(c == 1 for row in alg.constants for c in row)
        assert all(d == 0 for d in alg.degrees)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_grading_forces_vanishing(name):
    model = corpus_model(name)
    for theory in (CR, VIRT):
        alg = model.algebra(theory)
        for g in range(model.order):
            for h in range(model.order):
                gh = model.table.mult(g, h)
                if alg.degrees[g] + alg.degrees[h] != alg.degrees[gh]:
                    assert alg.constants[g][h] == 0


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_constants_symmetric_under_twisted_swap(name):
    # c(g, h) = c(h, h^-1 g h): both products land on gh
    model = corpus_model(name)
    table = model.table
    for theory in (CR, VIRT):
        alg = model.algebra(theory)
        for g in range(model.order):
            for h in range(model.order):
                twisted = table.conjugate(g, h)
                assert table.mult(h, twisted) == table.mult(g, h)
                assert alg.constant(g, h) == alg.constant(h, twisted)


# --- axiom verification ---

@pytest.mark.parametrize("name", SMALL_NAMES)
@pytest.mark.parametrize("theory", [CR, VIRT])
def test_axioms_pass_on_corpus(name, theory):
    report = verify_algebra(corpus_model(name).algebra(theory))
    assert report.passed, report.first_failure()


@pytest.mark.parametrize("theory", [CR, VIRT])
def test_axioms_pass_in_forget_geometry_mode(theory):
    report = verify_algebra(corpus_model("s3-perm", forget=True).algebra(theory))
    assert report.passed, report.first_failure()


def test_corrupted_table_breaks_associativity():
    alg = corpus_model("z3-11").algebra(CR)
    corrupted = alg.with_constant(1, 2, 1)  # x_g * x_{g^2} should be 0
    report = verify_algebra(corrupted)
    broken = {c.name for c in report.checks if not c.passed}
    assert "associativity" in broken
    failure = report.first_failure()
    assert failure.counterexample is not None


def test_corrupted_table_breaks_equivariance():
    model = corpus_model("s3-perm")
    alg = model.algebra(CR)
    t1, t2 = transpositions_of(model)[:2]
    corrupted = alg.with_constant(t1, t2, 0)  # conjugate pairs keep the 1
    report = verify_algebra(corrupted)
    broken = {c.name for c in report.checks if not c.passed}
    assert "equivariance" in broken or "associativity" in broken


def test_corrupted_unit_detected():
    alg = corpus_model("z3-11").algebra(VIRT)
    report = verify_algebra(alg.with_constant(0, 1, 0))
    assert not report.passed
    assert any(c.name == "unit" and not c.passed for c in report.checks)


# --- reduced verifier against the exhaustive cube scans ---

def cube_report(alg):
    """The report of the six |G|^3 and |G|^2 scans, the verifier's reference."""
    return AlgebraReport(
        (
            _check_associativity(alg),
            grading_axiom_scan(alg),
            _check_unit(alg),
            _check_frobenius(alg),
            nondegeneracy_scan(alg),
            _check_equivariance(alg),
        )
    )


CORRUPTION_VALUES = (0, 1, 2, Fraction(1, 2))


@st.composite
def corrupted(draw, alg):
    """alg with up to three entries replaced; an orbit corruption keeps equivariance.

    Replacing a whole simultaneous-conjugation orbit of (g, h) keeps the
    constants equivariant, which sends associativity down the
    class-representative path instead of the full scan.
    """
    table = alg.table
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        g = draw(st.integers(min_value=0, max_value=alg.order - 1))
        h = draw(st.integers(min_value=0, max_value=alg.order - 1))
        value = draw(st.sampled_from(CORRUPTION_VALUES))
        if draw(st.booleans()):
            pairs = {(g, h)}
        else:
            pairs = {(table.conjugate(g, k), table.conjugate(h, k)) for k in range(alg.order)}
        for a, b in sorted(pairs):
            alg = alg.with_constant(a, b, value)
    return alg


@functools.cache
def g412_point_model():
    return OrbifoldModel(gmpn_spec(4, 1, 2), forget_geometry=True)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(CORPUS_NAMES),
    theory=st.sampled_from(THEORIES),
    forget=st.booleans(),
)
def test_verifier_matches_cube_on_corrupted_corpus(data, name, theory, forget):
    alg = data.draw(corrupted(corpus_model(name, forget=forget).algebra(theory)))
    assert verify_algebra(alg) == cube_report(alg)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), theory=st.sampled_from(THEORIES))
def test_verifier_matches_cube_on_corrupted_g412_point_mode(data, theory):
    alg = data.draw(corrupted(g412_point_model().algebra(theory)))
    assert verify_algebra(alg) == cube_report(alg)


def test_associativity_failing_off_the_class_representatives():
    # The corruption breaks equivariance, and every associativity defect it
    # causes has its g outside the class representatives, so the verifier
    # must let g range over the whole group.
    model = corpus_model("s3-perm")
    alg = model.algebra(CR).with_constant(3, 5, 1)
    report = verify_algebra(alg)
    assert report == cube_report(alg)
    associativity = report.checks[0]
    assert associativity.name == "associativity" and not associativity.passed
    g = model.labels.index(associativity.counterexample["triple"][0])
    assert g not in model.table.conjugacy_classes().representatives


def test_constants_are_ints():
    for name in CORPUS_NAMES:
        for theory in THEORIES:
            for forget in (False, True):
                alg = corpus_model(name, forget=forget).algebra(theory)
                assert all(type(c) is int for row in alg.constants for c in row)
                assert all(type(v) is int for v in alg.invariant_ring().constants.values())
    alg = corpus_model("s3-perm").algebra(CR)
    two = alg.with_constant(1, 2, Fraction(2))
    assert type(two.constant(1, 2)) is int and two.constant(1, 2) == 2
    half = alg.with_constant(1, 2, Fraction(1, 2))
    assert type(half.constant(1, 2)) is Fraction and half.constant(1, 2) == Fraction(1, 2)
    for broken in (two, half):
        report = verify_algebra(broken)
        assert not report.passed
        assert report == cube_report(broken)


def test_verifier_matches_cube_on_lazy_table():
    model = OrbifoldModel(corpus_spec("s3-perm"))
    for theory in THEORIES:
        alg = model.algebra(theory)
        broken = alg.with_constant(1, 2, 1 - alg.constant(1, 2))
        assert verify_algebra(alg) == cube_report(alg)
        assert verify_algebra(broken) == cube_report(broken)
        assert verify_algebra(alg).passed and not verify_algebra(broken).passed


def test_nondegeneracy_fails_when_inverse_index_is_not_a_permutation():
    # Every row of this pairing has its one partner e, so only the columns
    # can fail: column e has all six sectors, and the pairing has rank 1.
    alg = corpus_model("s3-perm").algebra(CR)
    table = copy.copy(alg.table)
    table.inverse_index = (0,) * table.order
    broken = dataclasses.replace(alg, table=table)
    expected = AxiomCheck(
        "nondegeneracy", False, {"sector": "e", "partners": list(alg.labels)}
    )
    assert nondegeneracy_scan(broken) == expected
    (check,) = [c for c in verify_algebra(broken).checks if c.name == "nondegeneracy"]
    assert check == expected
    # and the reduced check matches the scan on the intact table
    assert verify_algebra(alg).checks[4] == nondegeneracy_scan(alg) == AxiomCheck(
        "nondegeneracy", True
    )


# --- invariant rings ---

def test_abelian_invariant_ring_equals_sector_algebra():
    model = corpus_model("z4-13")
    alg = model.algebra(CR)
    inv = alg.invariant_ring()
    assert inv.order == model.order
    for g in range(model.order):
        for h in range(model.order):
            gh = model.table.mult(g, h)
            assert inv.constant(g, h, gh) == alg.constant(g, h)
    assert inv.degrees == alg.degrees


def test_dw_s3_matches_group_ring_convolution():
    model = corpus_model("s3-perm", forget=True)
    inv = model.algebra(CR).invariant_ring()
    oracle = class_convolution_oracle(model.table)
    assert inv.constants == oracle
    # the 3-cycle class sum squares to 2*identity + itself
    three_cycles = next(
        cid
        for cid, cls in enumerate(model.table.conjugacy_classes().classes)
        if model.table.element_order(cls[0]) == 3
    )
    assert inv.constant(three_cycles, three_cycles, 0) == 2
    assert inv.constant(three_cycles, three_cycles, three_cycles) == 1


@pytest.mark.parametrize("name", ["q8", "s4-perm"])
def test_dw_matches_group_ring_convolution(name):
    model = corpus_model(name, forget=True)
    inv = model.algebra(VIRT).invariant_ring()
    assert inv.constants == class_convolution_oracle(model.table)


@pytest.mark.parametrize("name", SMALL_NAMES)
@pytest.mark.parametrize("theory", [CR, VIRT])
def test_invariant_ring_matches_expansion_oracle(name, theory):
    alg = corpus_model(name).algebra(theory)
    inv = alg.invariant_ring()
    assert inv.constants == invariant_expansion_oracle(alg)
    assert all(v > 0 and v.denominator == 1 for v in inv.constants.values())


def test_s3_cr_class_table():
    model = corpus_model("s3-perm")
    inv = model.algebra(CR).invariant_ring()
    part = model.table.conjugacy_classes()
    tau = next(c for c, cls in enumerate(part.classes) if model.table.element_order(cls[0]) == 2)
    rho = next(c for c, cls in enumerate(part.classes) if model.table.element_order(cls[0]) == 3)
    # distinct transpositions multiply into 3-cycles; equal ones die on the gate
    assert inv.constant(tau, tau, rho) == 3
    assert inv.constant(tau, tau, 0) == 0


def test_invariant_ring_unit_row():
    inv = corpus_model("s4-perm").algebra(VIRT).invariant_ring()
    for b in range(inv.order):
        assert inv.constant(0, b, b) == 1


# --- serialization ---

def test_sector_algebra_json_shape():
    alg = corpus_model("z3-11").algebra(CR)
    data = alg.to_json_dict()
    assert set(data) == {"theory", "basis", "degrees", "constants"}
    assert data["basis"] == ["e", "g1", "g2"]
    assert data["degrees"] == ["0", "4/3", "8/3"]
    assert [0, 1, 1, "1"] in data["constants"]
    assert [1, 1, 2, "1"] in data["constants"]
    assert all(len(entry) == 4 for entry in data["constants"])
    # only nonzero entries are serialized
    assert [1, 2, 0, "0"] not in data["constants"]


def test_invariant_ring_json_shape():
    inv = corpus_model("s3-perm", forget=True).algebra(CR).invariant_ring()
    data = inv.to_json_dict()
    assert set(data) == {"theory", "basis", "degrees", "constants"}
    assert data["basis"][0] == "[e]"
    assert all(isinstance(v, str) for *_ignored, v in data["constants"])


def test_theory_tag_validated():
    from orbring import InputError

    with pytest.raises(InputError):
        corpus_model("z3-11").structure_constant("weird", 0, 0)
