import copy
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import (
    CR,
    THEORIES,
    VIRT,
    AxiomCheck,
    ConsistencyError,
    InvariantRing,
    OrbifoldModel,
    OrbifoldSpec,
    SectorAlgebra,
    verify_algebra,
)
from orbring import rings
from support import (
    CORPUS_NAMES,
    SMALL_NAMES,
    class_convolution_oracle,
    corpus_model,
    corpus_spec,
    cube_report,
    excess_rank,
    gmpn_spec,
    invariant_expansion_oracle,
    invariant_ring_scan,
    nondegeneracy_scan,
    obstruction_rank,
    obstruction_rank_dual_form,
    structure_constant,
    with_constant,
)


def transpositions_of(model):
    return [i for i in range(model.order) if model.table.element_order(i) == 2]


# --- bundle ranks ---

def test_obstruction_vanishes_against_the_unit():
    for name in SMALL_NAMES:
        model = corpus_model(name)
        for h in range(model.order):
            assert obstruction_rank(model, 0, h) == 0
            assert excess_rank(model, 0, h) == 0


def test_obstruction_rank_z3_11():
    model = corpus_model("z3-11")
    assert obstruction_rank(model, 1, 1) == 0  # 2/3 + 2/3 - 4/3 - 0 + 0


def test_obstruction_rank_z3_12():
    model = corpus_model("z3-12")
    assert obstruction_rank(model, 1, 1) == 1  # 1 + 1 - 1 - 0 + 0
    assert obstruction_rank_dual_form(model, 1, 1) == 1  # 1 + 1 + 1 - (2 - 0)


def test_obstruction_rank_s3_two_transpositions():
    model = corpus_model("s3-perm")
    t1, t2 = transpositions_of(model)[:2]
    assert obstruction_rank(model, t1, t2) == 0  # 1/2 + 1/2 - 1 - 1 + 1
    assert obstruction_rank_dual_form(model, t1, t2) == 0  # 1/2 + 1/2 + 1 - (3 - 1)


def test_excess_rank_examples():
    z3 = corpus_model("z3-11")
    assert excess_rank(z3, 1, 1) == 2  # 2 - 0 - 0 + 0
    s3 = corpus_model("s3-perm")
    t1, t2 = transpositions_of(s3)[:2]
    assert excess_rank(s3, t1, t2) == 0  # 3 - 2 - 2 + 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rank_oracle_agreement(name):
    model = corpus_model(name)
    for g in range(model.order):
        for h in range(model.order):
            assert obstruction_rank(model, g, h) == obstruction_rank_dual_form(model, g, h)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_ranks_are_conjugation_invariant(name):
    model = corpus_model(name)
    table = model.table
    for k in range(model.order):
        for g in range(model.order):
            for h in range(model.order):
                cg, ch = table.conjugate(g, k), table.conjugate(h, k)
                assert obstruction_rank(model, cg, ch) == obstruction_rank(model, g, h)
                assert excess_rank(model, cg, ch) == excess_rank(model, g, h)


# --- structure constants ---

def test_structure_constants_z3_11():
    model = corpus_model("z3-11")
    # cr: x_g^2 survives, x_g * x_{g^2} dies on the codimension gate,
    # x_{g^2}^2 dies on the rank gate (rank 2)
    assert structure_constant(model, CR, 1, 1) == 1
    assert structure_constant(model, CR, 1, 2) == 0
    assert structure_constant(model, CR, 2, 2) == 0
    assert structure_constant(model, VIRT, 1, 1) == 0  # excess rank 2
    for h in range(3):
        assert structure_constant(model, CR, 0, h) == 1
        assert structure_constant(model, VIRT, 0, h) == 1


def test_structure_constants_s3_transposition_pair():
    model = corpus_model("s3-perm")
    t1, t2 = transpositions_of(model)[:2]
    assert structure_constant(model, CR, t1, t2) == 1
    assert structure_constant(model, VIRT, t1, t2) == 1


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
                assert constants[g][h] == structure_constant(model, theory, g, h), (theory, g, h)


def first_entry_error(model, theory):
    with pytest.raises(ConsistencyError) as entry:
        for g in range(model.order):
            for h in range(model.order):
                structure_constant(model, theory, g, h)
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
        assert alg.constants == (b"\x01",)


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
    corrupted = with_constant(alg, 1, 2, 1)  # x_g * x_{g^2} should be 0
    report = verify_algebra(corrupted)
    broken = {c.name for c in report.checks if not c.passed}
    assert "associativity" in broken
    failure = report.first_failure()
    assert failure.counterexample is not None


def test_corrupted_table_breaks_equivariance():
    model = corpus_model("s3-perm")
    alg = model.algebra(CR)
    t1, t2 = transpositions_of(model)[:2]
    corrupted = with_constant(alg, t1, t2, 0)  # conjugate pairs keep the 1
    report = verify_algebra(corrupted)
    broken = {c.name for c in report.checks if not c.passed}
    assert "equivariance" in broken or "associativity" in broken


def test_corrupted_unit_detected():
    alg = corpus_model("z3-11").algebra(VIRT)
    report = verify_algebra(with_constant(alg, 0, 1, 0))
    assert not report.passed
    assert any(c.name == "unit" and not c.passed for c in report.checks)


# --- reduced verifier against the exhaustive cube scans ---

@st.composite
def corrupted(draw, alg):
    """alg with up to three entries set to 0 or 1; an orbit corruption keeps equivariance.

    Replacing a whole simultaneous-conjugation orbit of (g, h) keeps the
    constants equivariant, which sends associativity down the
    class-representative path instead of the full scan.  Replacing the orbit
    under conjugation by the first generator alone keeps that generator a
    symmetry, so the first failing conjugator can be a later generator.
    """
    table = alg.table
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        g = draw(st.integers(min_value=0, max_value=alg.order - 1))
        h = draw(st.integers(min_value=0, max_value=alg.order - 1))
        value = draw(st.integers(min_value=0, max_value=1))
        kind = draw(st.sampled_from(["pair", "orbit", "first-generator orbit"]))
        if kind == "pair":
            pairs = {(g, h)}
        elif kind == "orbit":
            pairs = {(table.conjugate(g, k), table.conjugate(h, k)) for k in range(alg.order)}
        else:
            s = table.gens[0] if table.gens else 0
            pairs = set()
            while (g, h) not in pairs:
                pairs.add((g, h))
                g, h = table.conjugate(g, s), table.conjugate(h, s)
        for a, b in sorted(pairs):
            alg = with_constant(alg, a, b, value)
    return alg


@functools.cache
def g412_point_model():
    return OrbifoldModel(gmpn_spec(4, 1, 2), forget_geometry=True)


@functools.cache
def z12_model():
    spec = {"name": "Z_12", "dimension": 1, "generators": [{"perm": [0], "phases": ["1/12"]}]}
    return OrbifoldModel(OrbifoldSpec.from_dict(spec))


# corrupted corpus algebras, in both modes, plus two models of their own:
# point-mode G(4,1,2) is all ones; on Z_12 every element is its own class and
# cr is about half dense, so both smaller sides of a row are met
BINARY_ROUTE_MODELS = {"G(4,1,2) point mode": g412_point_model, "Z_12 on C": z12_model}


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    source=st.sampled_from([*CORPUS_NAMES, *BINARY_ROUTE_MODELS]),
    theory=st.sampled_from(THEORIES),
    forget=st.booleans(),
)
def test_verifier_matches_cube_on_binary_corruptions(data, source, theory, forget):
    if source in BINARY_ROUTE_MODELS:
        model = BINARY_ROUTE_MODELS[source]()
    else:
        model = corpus_model(source, forget=forget)
    alg = data.draw(corrupted(model.algebra(theory)))
    assert verify_algebra(alg) == cube_report(alg)


def test_every_corpus_algebra_takes_the_bitmask_route(monkeypatch):
    calls = {"_first_defect_by_masks": 0, "_first_defect_by_rows": 0}
    for name in calls:

        def counted(*args, name=name, search=getattr(rings, name)):
            calls[name] += 1
            return search(*args)

        monkeypatch.setattr(rings, name, counted)
    for name in CORPUS_NAMES:
        for forget in (False, True):
            model = OrbifoldModel(corpus_spec(name), forget_geometry=forget)
            for theory in THEORIES:
                assert verify_algebra(model.algebra(theory)).passed
    assert calls == {"_first_defect_by_masks": 4 * len(CORPUS_NAMES), "_first_defect_by_rows": 0}


ROW_SWAP_MODELS = {
    "s3-perm": lambda: corpus_spec("s3-perm"),
    "s4-perm": lambda: corpus_spec("s4-perm"),
    "q8": lambda: corpus_spec("q8"),
    "G(4,1,2)": lambda: gmpn_spec(4, 1, 2),
}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    source=st.sampled_from(sorted(ROW_SWAP_MODELS)),
    theory=st.sampled_from(THEORIES),
    forget=st.booleans(),
)
def test_verifier_matches_cube_on_a_table_with_two_row_entries_swapped(
    data, source, theory, forget
):
    # The row of i stays a permutation, but the table is no group's table,
    # so no reduction may assume one: each check must be its scan's.
    model = OrbifoldModel(ROW_SWAP_MODELS[source](), forget_geometry=forget)
    alg = model.algebra(theory)
    table = model.table
    i = data.draw(st.integers(0, table.order - 1))
    j, k = data.draw(
        st.lists(st.integers(0, table.order - 1), min_size=2, max_size=2, unique=True)
    )
    row = list(table.row(i))
    row[j], row[k] = row[k], row[j]
    table._rows[i] = tuple(row)
    assert verify_algebra(alg) == cube_report(alg)
    assert not table.is_group_table()


def test_associativity_failing_off_the_class_representatives():
    # The corruption breaks equivariance, and every associativity defect it
    # causes has its g outside the class representatives, so the verifier
    # must let g range over the whole group.
    model = corpus_model("s3-perm")
    alg = with_constant(model.algebra(CR), 3, 5, 1)
    report = verify_algebra(alg)
    assert report == cube_report(alg)
    associativity = report.checks[0]
    assert associativity.name == "associativity" and not associativity.passed
    g = model.labels.index(associativity.counterexample["triple"][0])
    assert g not in model.table.conjugacy_classes().representatives


def test_associativity_reports_the_least_defective_g_not_the_first_met():
    # In point mode on q8, g3 is central, so zeroing c[g3][e] keeps the
    # constants equivariant and g runs over the class representatives.  Met
    # in h order, the first defect is g3's (at h = e), but g1 has one too
    # (at h = g1), and the cube's lex-first counterexample has g = g1.
    alg = with_constant(corpus_model("q8", forget=True).algebra(CR), 3, 0, 0)
    report = verify_algebra(alg)
    assert report == cube_report(alg)
    associativity, equivariance = report.checks[0], report.checks[5]
    assert equivariance.passed and not associativity.passed
    assert associativity.counterexample["triple"] == ["g1", "g1", "e"]


def test_constants_are_ints():
    # each built row is bytes of length |G| over {0, 1}, so every entry reads as an int
    for name in CORPUS_NAMES:
        for forget in (False, True):
            model = corpus_model(name, forget=forget)
            algebras = [model.algebra(theory) for theory in THEORIES]
            algebras.append(model.cotangent_model().algebra(CR))
            for alg in algebras:
                assert len(alg.constants) == alg.order
                for row in alg.constants:
                    assert type(row) is bytes and len(row) == alg.order
                    assert set(row) <= {0, 1}
                assert all(type(v) is int for v in alg.invariant_ring().constants.values())


def test_verifier_matches_cube_on_lazy_table():
    model = OrbifoldModel(corpus_spec("s3-perm"))
    for theory in THEORIES:
        alg = model.algebra(theory)
        broken = with_constant(alg, 1, 2, 1 - alg.constant(1, 2))
        assert verify_algebra(alg) == cube_report(alg)
        assert verify_algebra(broken) == cube_report(broken)
        assert verify_algebra(alg).passed and not verify_algebra(broken).passed


def test_nondegeneracy_fails_when_inverse_index_is_not_a_permutation():
    # Every row of this pairing has its one partner e, so only the columns
    # can fail: column e has all six sectors, and the pairing has rank 1.
    alg = corpus_model("s3-perm").algebra(CR)
    table = copy.copy(alg.table)
    table.inverse_index = (0,) * table.order
    broken = SectorAlgebra(
        theory=alg.theory,
        table=table,
        degrees=alg.degrees,
        constants=alg.constants,
        labels=alg.labels,
    )
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


def assert_invariant_ring_matches_scan(alg):
    """The one-sweep ring equals the class-pair scan, key order and value types included,
    or raises the scan's ConsistencyError text; returns which of the two happened."""
    try:
        expected = invariant_ring_scan(alg)
    except ConsistencyError as exc:
        with pytest.raises(ConsistencyError) as raised:
            alg.invariant_ring()
        assert str(raised.value) == str(exc)
        return "error"
    inv = alg.invariant_ring()
    typed = [(key, type(v), v) for key, v in inv.constants.items()]
    assert typed == [(key, type(v), v) for key, v in expected.constants.items()]
    assert (inv.theory, inv.labels, inv.class_sizes, inv.degrees) == (
        expected.theory,
        expected.labels,
        expected.class_sizes,
        expected.degrees,
    )
    return "ring"


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("forget", [False, True])
def test_invariant_ring_matches_scan_on_corpus(name, theory, forget):
    alg = corpus_model(name, forget=forget).algebra(theory)
    assert assert_invariant_ring_matches_scan(alg) == "ring"


@functools.cache
def ring_model(group):
    if group == "Z_60":
        spec = OrbifoldSpec.from_dict(
            {"name": group, "dimension": 1, "generators": [{"perm": [0], "phases": ["1/60"]}]}
        )
    else:
        spec = gmpn_spec(*group)
    return OrbifoldModel(spec)


@pytest.mark.parametrize(
    "group",
    [(4, 1, 2), (6, 2, 2), (2, 1, 3), (5, 1, 2), (12, 1, 2), "Z_60"],
    ids=lambda group: group if group == "Z_60" else "G(%d,%d,%d)" % group,
)
@pytest.mark.parametrize("theory", THEORIES)
def test_invariant_ring_matches_scan_on_larger_groups(group, theory):
    assert assert_invariant_ring_matches_scan(ring_model(group).algebra(theory)) == "ring"


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(CORPUS_NAMES),
    theory=st.sampled_from(THEORIES),
    forget=st.booleans(),
)
def test_invariant_ring_matches_scan_on_corrupted_corpus(data, name, theory, forget):
    alg = data.draw(corrupted(corpus_model(name, forget=forget).algebra(theory)))
    assert_invariant_ring_matches_scan(alg)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), theory=st.sampled_from(THEORIES))
def test_invariant_ring_matches_scan_on_corrupted_g412_point_mode(data, theory):
    assert_invariant_ring_matches_scan(data.draw(corrupted(g412_point_model().algebra(theory))))


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


RENDER_GROUPS = [*CORPUS_NAMES, (4, 1, 2), (6, 2, 2), (2, 1, 3), (5, 1, 2), (3, 1, 3)]


def dumped(ring):
    """The reference text of a ring: its dict through json.dumps with indent=2."""
    return json.dumps(ring.to_json_dict(), indent=2) + "\n"


@functools.cache
def render_model(group, forget):
    if isinstance(group, str):
        return corpus_model(group, forget=forget)
    return OrbifoldModel(gmpn_spec(*group), forget_geometry=forget)


@pytest.mark.parametrize("forget", [False, True], ids=["geometric", "dw"])
@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize(
    "group", RENDER_GROUPS, ids=lambda g: g if isinstance(g, str) else "G({},{},{})".format(*g)
)
def test_to_json_equals_json_dumps_of_to_json_dict(group, theory, forget):
    alg = render_model(group, forget).algebra(theory)
    assert alg.to_json() == dumped(alg)
    inv = alg.invariant_ring()
    assert inv.to_json() == dumped(inv)


def test_to_json_of_invariant_ring_without_constants():
    # the label needs escaping and an escape to ASCII, as json.dumps does by default
    inv = InvariantRing(
        theory=VIRT,
        labels=("[e]", '["\u00e9"]'),
        class_sizes=(1, 1),
        degrees=(Fraction(0), Fraction(-3, 2)),
        constants={},
    )
    assert inv.to_json_dict()["constants"] == []
    assert inv.to_json() == dumped(inv)


def test_theory_tag_validated():
    from orbring import InputError

    model = corpus_model("z3-11")
    with pytest.raises(InputError):
        model.algebra("weird")
    with pytest.raises(InputError):
        structure_constant(model, "weird", 0, 0)
