"""The verify checks against their per-pair scans in support.

Each check in orbring.cotangent runs on the integer arrays of the sector
geometry; the per-element and per-pair checks decide and report in one pass,
visiting pairs in the scans' row-major order.  On intact models, on models
whose bijection is permuted by a transposition, and on models with one to
three array entries bumped before any sector is read, each check must give
the same payload as its scan, or raise the same ConsistencyError text.  With
one datum that check_group's induction reads corrupted (a left-table entry,
a search parent at or after its child, two whole rows exchanged),
check_group must answer False, and closure sanity, the axiom report and the
main theorem must give their scans' outcomes.
Elements that fix one subspace share one pair row, so a pair bump at (g, h)
changes entry h of the row of every element with g's subspace.  A
bijection with one entry copied onto another is not injective, which gives
main_theorem_check's pairings stage two preimages, or none, of some sector.
With sector(), the rank methods, structure_constant and k_rank patched to
raise, verify, ring and every check must still give the scans' outcomes:
they decide and report from their own integers.  verify builds no class
ring; where main_theorem_check's guard fails (a bijection that is not the
identity, constants that are not equivariant, degrees that are not
class-constant), it must give the scan's outcome.
"""

import contextlib
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import (
    CR,
    VIRT,
    ConsistencyError,
    GroupTable,
    OrbifoldModel,
    SectorAlgebra,
    SectorGeometry,
    cli,
    cotangent,
    rings,
    verify_algebra,
)
from orbring.cotangent import (
    age_duality_check,
    closure_sanity_check,
    decomposition_check,
    grading_check,
    main_theorem_check,
    rank_oracle_check,
    run_full_verification,
    sector_bijection,
)
from support import (
    CORPUS_NAMES,
    age_duality_scan,
    closure_sanity_scan,
    corpus_path,
    corpus_spec,
    cube_report,
    decomposition_scan,
    equivariance_scan,
    gmpn_spec,
    grading_check_scan,
    main_theorem_scan,
    rank_oracle_scan,
    with_constant,
)

NAMES = CORPUS_NAMES + ["G(4,1,2)"]

# (check, its scan, whether it takes the doubled model and the bijection)
CHECKS = [
    (age_duality_check, age_duality_scan, False),
    (rank_oracle_check, rank_oracle_scan, False),
    (grading_check, grading_check_scan, True),
    (decomposition_check, decomposition_scan, True),
    (main_theorem_check, main_theorem_scan, True),
]


def spec_of(name):
    if name.startswith("G("):
        return gmpn_spec(*map(int, name[2:-1].split(",")))
    return corpus_spec(name)


def fresh(name, forget):
    model = OrbifoldModel(spec_of(name), forget_geometry=forget)
    doubled = model.cotangent_model()
    return model, doubled, sector_bijection(model.table, doubled.table)


@functools.cache
def cached(name, forget):
    return fresh(name, forget)


def outcome(fn, *args):
    try:
        return "report", fn(*args)
    except ConsistencyError as exc:
        return "error", str(exc)


def draw_bump(data, target, kind):
    """Draw one array entry of target's geometry to bump, as (g, h, step)."""
    g = data.draw(st.integers(0, target.order - 1))
    if kind != "pair":
        # a step of 1 makes the age fractional, a step of scale shifts it by 1
        scale = target.geometry.scale
        return g, None, data.draw(st.sampled_from([1, -1, scale, -scale]))
    h = data.draw(st.integers(0, target.order - 1))
    up = target.geometry.pair_row(g)[h] == 0 or data.draw(st.booleans())
    return g, h, 1 if up else -1


def apply_bump(target, kind, g, h, step):
    geometry = target.geometry
    if kind != "pair":
        geometry.ages[g] += step
        if kind == "inverse ages":
            # the opposite step at g^-1 keeps age duality, so the two rank
            # forms still agree wherever a rank turns fractional
            geometry.ages[target.table.inverse_index[g]] -= step
    else:
        geometry.pair_row(g)[h] += step


def assert_checks_match_scans(model, doubled, bijection):
    for check, scan, cross in CHECKS:
        args = (model, doubled, bijection) if cross else (model,)
        assert outcome(check, *args) == outcome(scan, *args), check.__name__


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
)
def test_checks_match_scans_with_a_transposed_bijection(data, name, forget):
    model, doubled, bijection = cached(name, forget)
    permuted = list(bijection)
    i = data.draw(st.integers(0, model.order - 1))
    j = data.draw(st.integers(0, model.order - 1))
    permuted[i], permuted[j] = permuted[j], permuted[i]
    assert_checks_match_scans(model, doubled, tuple(permuted))
    # one entry copied onto another: a bijection that is not injective
    copied = list(bijection)
    copied[i] = copied[j]
    assert_checks_match_scans(model, doubled, tuple(copied))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    side=st.sampled_from(["original", "doubled"]),
    kind=st.sampled_from(["age", "inverse ages", "pair"]),
)
def test_checks_match_scans_with_a_bumped_array_entry(data, name, forget, side, kind):
    # with several rows broken, each check must report the scan's first
    # failing pair in row-major order, not merely some failing pair
    model, doubled, bijection = fresh(name, forget)
    target = model if side == "original" else doubled
    for _ in range(data.draw(st.integers(1, 3))):
        apply_bump(target, kind, *draw_bump(data, target, kind))
    assert_checks_match_scans(model, doubled, bijection)


def test_rank_oracles_raise_where_both_forms_agree_on_a_fraction():
    # Shifting age g1 up and age g1^-1 = g2 down by 1/6 keeps age duality,
    # so the two forms agree at every pair; only their integrality flags
    # (g1, g1), where both read 1/2.
    model, _, _ = fresh("z3-11", False)
    model.geometry.ages[1] += 1
    model.geometry.ages[2] -= 1
    expected = ("error", "obstruction rank at (g1, g1) is 1/2, expected a nonnegative integer")
    assert outcome(rank_oracle_scan, model) == expected
    assert outcome(rank_oracle_check, model) == expected


def test_decomposition_raises_at_a_negative_excess_behind_equal_sides():
    # On z3-11 (n = 2), fixed dimension 4 at e and pair dimensions 5, 1, 1 in
    # row e make every excess rank of that row -1 while excess + k is 0, the
    # doubled rank; so only the sign of the excess flags the row.
    model, doubled, bijection = fresh("z3-11", False)
    model.geometry.fixed[0] = 4
    row = model.geometry.pair_row(0)
    row[0], row[1], row[2] = 5, 1, 1
    expected = ("error", "excess rank at (e, e) is -1, expected a nonnegative integer")
    assert outcome(decomposition_scan, model, doubled, bijection) == expected
    assert outcome(decomposition_check, model, doubled, bijection) == expected


def test_checks_match_scans_on_intact_models():
    for name in NAMES:
        for forget in (False, True):
            model, doubled, bijection = cached(name, forget)
            assert_checks_match_scans(model, doubled, bijection)
            assert all(
                scan(*((model, doubled, bijection) if cross else (model,))) is None
                for _, scan, cross in CHECKS
            )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(NAMES))
def test_closure_sanity_matches_scan_with_two_row_entries_swapped(data, name):
    model = OrbifoldModel(spec_of(name))
    table = model.table
    assert closure_sanity_check(model) is None
    if table.order < 2:
        return
    i = data.draw(st.integers(0, table.order - 1))
    j, k = data.draw(
        st.lists(st.integers(0, table.order - 1), min_size=2, max_size=2, unique=True)
    )
    row = list(table.row(i))
    row[j], row[k] = row[k], row[j]
    table._rows[i] = tuple(row)
    expected = outcome(closure_sanity_scan, model)
    assert expected != ("report", None)
    assert outcome(closure_sanity_check, model) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(NAMES))
def test_closure_sanity_matches_scan_with_two_elements_swapped(data, name):
    # the product table stays a group table, so only the comparison of
    # products with composition under the generators can catch the swap
    model = OrbifoldModel(spec_of(name))
    elements = model.table.elements
    if len(elements) < 2:
        return
    i, j = data.draw(
        st.lists(st.integers(0, len(elements) - 1), min_size=2, max_size=2, unique=True)
    )
    elements[i], elements[j] = elements[j], elements[i]
    assert outcome(closure_sanity_check, model) == outcome(closure_sanity_scan, model)


def test_closure_sanity_raises_on_powers_that_never_reach_the_identity():
    # swapping g*e and g*g in the row of g makes g*g = g, so the powers of g
    # walked through the table stay at g; element_order reads the codes, not
    # the row, so the check reports the row against composition instead
    model = OrbifoldModel(corpus_spec("z3-11"))
    table = model.table
    row = list(table.row(1))
    row[0], row[1] = row[1], row[0]
    table._rows[1] = tuple(row)
    assert table.mult(1, 1) == 1
    expected = (
        "report",
        {"problem": "multiplication table disagrees with composition", "pair": ["g1", "e"]},
    )
    assert outcome(closure_sanity_scan, model) == expected
    assert outcome(closure_sanity_check, model) == expected


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
def test_closure_sanity_reads_no_element_order_on_an_intact_table(forget, monkeypatch):
    # check_group's verdict implies every part of the check, so on an intact
    # table no element's cycles are walked, in the check or anywhere in verify
    def refuse(table, i):
        raise AssertionError(f"element_order({i}) read")

    monkeypatch.setattr(GroupTable, "element_order", refuse)
    for spec in [*map(corpus_spec, CORPUS_NAMES), gmpn_spec(2, 1, 3)]:
        assert closure_sanity_check(OrbifoldModel(spec, forget_geometry=forget)) is None
        assert run_full_verification(spec, forget_geometry=forget).all_passed, spec.name


def test_closure_sanity_compares_products_with_composition_beyond_order_64():
    # G(3,1,3) has order 162; swapping two decoded elements leaves the
    # product table a group table, so only the composition test can see it
    model = OrbifoldModel(gmpn_spec(3, 1, 3))
    elements = model.table.elements
    assert len(elements) == 162 and closure_sanity_check(model) is None
    elements[5], elements[100] = elements[100], elements[5]
    expected = outcome(closure_sanity_scan, model)
    assert expected[1]["problem"] == "multiplication table disagrees with composition"
    assert outcome(closure_sanity_check, model) == expected


# --- what the group fact's induction reads, corrupted one datum at a time ---

GROUP_FACT_NAMES = CORPUS_NAMES + ["G(4,1,2)", "G(2,1,3)"]


def corrupt_group_datum(data, table, kind):
    """Edit one datum that check_group's induction along the search parents reads.

    The inverses and generator conjugations are derived first, from the
    intact parents and left tables, so only the induction can see the edit.
    """
    order = table.order
    assert table.inverse_index[0] == 0 and len(table.generator_conjugations) == len(table.gens)
    if kind == "left":
        k = data.draw(st.integers(0, len(table.gens) - 1))
        j = data.draw(st.integers(0, order - 1))
        left = table._left[k]
        left[j] = data.draw(st.integers(0, order - 1).filter(lambda y: y != left[j]))
    elif kind == "parent":
        # rows built first, since row walks the parents up to a built row
        for x in range(order):
            table.row(x)
        # where i = p * gens[k] with p > i, that parent breaks only the order p < i
        later = [
            (i, p, k)
            for i in range(1, order)
            for k, s in enumerate(table.gens)
            if (p := table.mult(i, table.inverse_index[s])) > i
        ]
        if later:
            i, p, k = data.draw(st.sampled_from(later))
        else:
            i = data.draw(st.integers(1, order - 1))
            p, k = data.draw(st.integers(i, order - 1)), table._parent_gen[i][1]
        table._parent_gen[i] = (p, k)
    else:
        # two whole rows exchanged: each is stored, and neither is its
        # parent's row gathered through a left table
        i, j = data.draw(st.lists(st.integers(0, order - 1), min_size=2, max_size=2, unique=True))
        table._rows[i], table._rows[j] = table.row(j), table.row(i)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(GROUP_FACT_NAMES),
    kind=st.sampled_from(["left", "parent", "row"]),
    theory=st.sampled_from([CR, VIRT]),
    forget=st.booleans(),
)
def test_checks_match_scans_with_a_group_datum_corrupted(data, name, kind, theory, forget):
    model = OrbifoldModel(spec_of(name), forget_geometry=forget)
    # derived before the edit: doubled reads the parents, and the doubled
    # table derives its inverses from them
    doubled = model.cotangent_model()
    assert doubled.table.inverse_index[0] == 0
    table = model.table
    if table.order < 2:
        return
    corrupt_group_datum(data, table, kind)
    assert not table.check_group()
    if kind == "left":
        # the failed check stored no row gathered through the edited table
        intact = model.spec.close()
        assert all(table.row(x) == intact.row(x) for x in range(table.order))
    assert outcome(closure_sanity_check, model) == outcome(closure_sanity_scan, model)
    # a row swap can break a rank, which the algebra's build raises
    built, alg = outcome(model.algebra, theory)
    if built == "report":
        assert verify_algebra(alg) == cube_report(alg)
    bijection = tuple(range(model.order))
    assert outcome(main_theorem_check, model, doubled, bijection) == outcome(
        main_theorem_scan, model, doubled, bijection
    )


# --- verify and ring decide from the arrays, never through the per-entry path ---

PER_ENTRY = [
    (SectorGeometry, "sector"),
    (OrbifoldModel, "obstruction_rank"),
    (OrbifoldModel, "obstruction_rank_dual_form"),
    (OrbifoldModel, "excess_rank"),
    (OrbifoldModel, "structure_constant"),
    (cotangent, "k_rank"),
]


def reached(*args, **kwargs):
    raise AssertionError("a per-entry method was called")


@contextlib.contextmanager
def per_entry_paths_raise():
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in PER_ENTRY:
            patch.setattr(owner, name, reached)
        yield patch


def assert_checks_match_scans_without_per_entry_paths(build):
    """Scans on one copy of build(), the checks on another with every per-entry method patched."""
    scanned = build()
    expected = [
        outcome(scan, *(scanned if cross else scanned[:1])) for _, scan, cross in CHECKS
    ]
    checked = build()
    with per_entry_paths_raise():
        got = [
            outcome(check, *(checked if cross else checked[:1])) for check, _, cross in CHECKS
        ]
    assert got == expected


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("name", NAMES)
def test_verify_reaches_no_per_entry_path(name, forget):
    tables = []
    real_cotangent_model = OrbifoldModel.cotangent_model

    def recording_cotangent_model(model):
        doubled = real_cotangent_model(model)
        tables.extend((model.table, doubled.table))
        return doubled

    with per_entry_paths_raise() as patch:
        patch.setattr(OrbifoldModel, "cotangent_model", recording_cotangent_model)
        report = run_full_verification(spec_of(name), forget_geometry=forget)
    assert report.all_passed
    assert len(tables) == 2
    for table in tables:
        assert "index" not in vars(table)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_ring_reaches_no_per_entry_path(name, capsys):
    runs = [
        ["ring", str(corpus_path(name)), "--theory", theory, "--basis", basis, "--format", "json"]
        for theory in ("cr", "virt")
        for basis in ("sector", "class")
    ]
    expected = []
    for argv in runs:
        assert cli.main(argv) == 0
        expected.append(json.loads(capsys.readouterr().out))
    with per_entry_paths_raise():
        for argv, want in zip(runs, expected):
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out) == want


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    side=st.sampled_from(["original", "doubled"]),
    kind=st.sampled_from(["age", "inverse ages", "pair"]),
)
def test_checks_reach_no_per_entry_path_with_a_bumped_array_entry(
    data, name, forget, side, kind
):
    probe = cached(name, forget)
    bump = draw_bump(data, probe[0] if side == "original" else probe[1], kind)

    def build():
        model, doubled, bijection = fresh(name, forget)
        apply_bump(model if side == "original" else doubled, kind, *bump)
        return model, doubled, bijection

    assert_checks_match_scans_without_per_entry_paths(build)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(NAMES), forget=st.booleans())
def test_checks_reach_no_per_entry_path_with_a_transposed_bijection(data, name, forget):
    order = cached(name, forget)[0].order
    i = data.draw(st.integers(0, order - 1))
    j = data.draw(st.integers(0, order - 1))

    def build():
        model, doubled, bijection = fresh(name, forget)
        permuted = list(bijection)
        permuted[i], permuted[j] = permuted[j], permuted[i]
        return model, doubled, tuple(permuted)

    assert_checks_match_scans_without_per_entry_paths(build)


# --- main_theorem_check decides its class stage by proof, or builds both class rings ---

@contextlib.contextmanager
def counted_invariant_rings():
    """Counts SectorAlgebra.invariant_ring calls in calls[0]."""
    calls = [0]
    real = SectorAlgebra.invariant_ring

    def counted(alg):
        calls[0] += 1
        return real(alg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SectorAlgebra, "invariant_ring", counted)
        yield calls


CLASS_STAGE_SPECS = [corpus_spec(name) for name in CORPUS_NAMES] + [
    gmpn_spec(m, p, n) for m, p, n in ((4, 1, 2), (6, 2, 2), (2, 1, 3), (5, 1, 2))
]


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("spec", CLASS_STAGE_SPECS, ids=lambda spec: spec.name)
def test_verify_builds_no_class_ring(spec, forget):
    with counted_invariant_rings() as calls:
        report = run_full_verification(spec, forget_geometry=forget)
    assert report.all_passed
    assert calls == [0]


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
def test_verify_decides_each_equivariance_once(forget, monkeypatch):
    # the class stage's guard reads the virtual equivariance from the report
    # that algebra-axioms-virt made, so only the two axiom checks decide it
    theories = []
    real = rings._equivariance

    def counted(alg, conjugators, masks):
        theories.append(alg.theory)
        return real(alg, conjugators, masks)

    monkeypatch.setattr(rings, "_equivariance", counted)
    for spec in CLASS_STAGE_SPECS:
        theories.clear()
        assert run_full_verification(spec, forget_geometry=forget).all_passed
        assert theories == [CR, VIRT], spec.name


def class_stage_outcomes(build):
    """(check outcome, scan outcome, class rings the check built), each on its own build()."""
    with counted_invariant_rings() as calls:
        checked = outcome(main_theorem_check, *build())
    return checked, outcome(main_theorem_scan, *build()), calls[0]


@pytest.mark.parametrize("name", ["s3-perm", "q8", "z4-13"])
def test_class_stage_matches_scan_with_a_transposed_bijection(name):
    # in point mode every constant is 1 and every degree 0, so a transposition
    # that keeps inverses passes the sector stages and reaches the class stage
    order = cached(name, True)[0].order
    built_rings = 0
    for i in range(order):
        for j in range(i + 1, order):

            def build():
                model, doubled, bijection = fresh(name, True)
                permuted = list(bijection)
                permuted[i], permuted[j] = permuted[j], permuted[i]
                return model, doubled, tuple(permuted)

            checked, scanned, rings = class_stage_outcomes(build)
            assert checked == scanned, (i, j)
            built_rings += rings
    assert built_rings > 0


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    value=st.integers(min_value=0, max_value=1),
)
def test_class_stage_matches_scan_with_equal_constant_edits(data, name, forget, value):
    # the same entry edited in the virtual and the doubled cr algebra keeps the
    # constants stage passing, while the edit may break equivariance
    order = cached(name, forget)[0].order
    g = data.draw(st.integers(0, order - 1))
    h = data.draw(st.integers(0, order - 1))

    def build():
        model, doubled, bijection = fresh(name, forget)
        model._algebras[VIRT] = with_constant(model.algebra(VIRT), g, h, value)
        doubled._algebras[CR] = with_constant(doubled.algebra(CR), g, h, value)
        return model, doubled, bijection

    checked, scanned, rings = class_stage_outcomes(build)
    assert checked == scanned
    if equivariance_scan(build()[0].algebra(VIRT)).passed:
        assert rings == 0


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("name", ["z2z2-diag", "s3-perm", "q8", "G(4,1,2)"])
def test_class_stage_matches_scan_with_a_bumped_fixed_entry(name, forget):
    # fixed[g] one up or down (and the doubled age of g the opposite way, so
    # the degrees stage passes) makes the virtual degrees non-class-constant
    order = cached(name, forget)[0].order
    for g in range(1, order):
        for step in (1, -1):

            def build():
                model, doubled, bijection = fresh(name, forget)
                model.geometry.fixed[g] += step
                doubled.geometry.ages[g] -= step * doubled.geometry.scale
                return model, doubled, bijection

            checked, scanned, _ = class_stage_outcomes(build)
            assert checked == scanned, (g, step)


@pytest.mark.parametrize("name", ["s3-perm", "q8", "s4-perm"])
def test_class_stage_matches_scan_with_non_class_constant_degrees(name):
    # equal degree edits in both algebras pass the sector stages; a degree
    # that is not constant on its class fails the guard, and the class rings
    # raise as the scan's do
    model = cached(name, False)[0]
    g = next(cls[1] for cls in model.table.conjugacy_classes().classes if len(cls) > 1)

    def build():
        model, doubled, bijection = fresh(name, False)
        for target, theory in ((model, VIRT), (doubled, CR)):
            alg = target.algebra(theory)
            degrees = list(alg.degrees)
            degrees[g] += 2
            target._algebras[theory] = SectorAlgebra(
                alg.theory, alg.table, tuple(degrees), alg.constants, alg.labels
            )
        return model, doubled, bijection

    checked, scanned, rings = class_stage_outcomes(build)
    assert checked == scanned
    assert checked[0] == "error" and "degree is not constant" in checked[1]
    assert rings == 1
