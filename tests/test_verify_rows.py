"""The verify checks against their per-pair scans in support.

Each check in orbring.cotangent runs on the integer arrays of the sector
geometry; the per-element and per-pair checks decide and report in one pass,
visiting pairs in the scans' row-major order.  On intact models and on
models with one to three array entries bumped before any sector is read,
each check must give the same payload as its scan, or raise the same
ConsistencyError text.  Rank-oracles, bundle-decomposition and the main
theorem's constants stage are decided by proof from facts about the two
geometries (cotangent._doubling_facts) once the model holds its cr and virt
algebras, so bumps are also checked with those builds made first, and each
of FACT_KINDS breaks one of those facts alone.  The doubling checks take
only a model, its cotangent_model() and the identity bijection, and raise
ValueError on any other doubled model or bijection.  With one datum that
check_group reads corrupted (a left- or right-table entry, a search parent
at or after its child, two whole rows exchanged, a code, an inverse, a
generator conjugation, a decoded element, a row gather, a left table with
its gather, inverses and conjugations made to agree), check_group must
answer False, and closure sanity, the axiom report and every check must give
their scans' outcomes; the stored-row oracle (support.group_fact_by_rows)
must agree, except on a right-table entry, which it never read.  verify builds the cr and virt constant tables of the model
alone, and no check runs a pair pass of its own.
Pair dimensions are stored once, in subspace_pairs, so a pair bump at (g, h)
edits the cell of the ids of g and h: it changes p at every pair with those
ids, in that order only, and leaves the table asymmetric where they differ.
With sector() patched to raise, verify, ring and every check must still
give the scans' outcomes: they decide and report from their own integers.
The per-entry rank and gate forms live in support, so the package cannot
call them.  verify builds no class
ring; where main_theorem_check's guard fails (constants that are not
equivariant, degrees that are not class-constant, doubled degrees that
differ from the virtual ones), it must give the scan's outcome, building
the virtual class ring alone where the doubled degrees equal the virtual
ones.  With arrays bumped after the group fact is decided, the constant
build's representative route and the class ring must give the full loop's
rows, the ring regrouped from them, or the full loop's first error.
"""

import contextlib
import copy
import functools
import itertools
import json
import sys

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
    cotangent_double,
    monomial,
    rings,
    verify_algebra,
)
from orbring.cotangent import (
    _doubling_facts,
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
    basis_changed_spec,
    built_rows,
    closure_sanity_scan,
    corpus_path,
    corpus_spec,
    cube_report,
    decomposition_scan,
    derived_pair,
    equivariance_scan,
    gmpn_spec,
    grading_check_scan,
    group_fact_by_rows,
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


@functools.cache
def cached(name, forget):
    return derived_pair(spec_of(name), forget)


def outcome(fn, *args):
    try:
        return "report", fn(*args)
    except ConsistencyError as exc:
        return "error", str(exc)


# each breaks one fact of cotangent._doubling_facts alone; the target is the
# model, and the doubled side is its cotangent_model()
FACT_KINDS = ["doubled ids", "doubled pair", "asymmetric pair", "inverse id", "doubled fixed"]


def draw_bump(data, target, kind):
    """Draw one array entry of target's geometry to bump, as (g, h, step).

    For "doubled pair" and "asymmetric pair", g and h are subspace ids, and
    for "asymmetric pair" they differ, with step 0 where there is one
    subspace; for the id kinds, step shifts an id modulo the number of
    subspaces, and is 0 where there is one subspace, or for "inverse id"
    where every element is an involution.
    """
    count = len(target.geometry.subspace_pairs) if kind in FACT_KINDS else None
    if kind in ("doubled pair", "asymmetric pair"):
        if kind == "asymmetric pair" and count == 1:
            return 0, 0, 0
        a = data.draw(st.integers(0, count - 1))
        ids = st.integers(0, count - 1)
        b = data.draw(ids.filter(a.__ne__) if kind == "asymmetric pair" else ids)
        side = target.geometry if kind == "asymmetric pair" else target.cotangent_model().geometry
        return a, b, 1 if side.subspace_pairs[a][b] == 0 or data.draw(st.booleans()) else -1
    if kind in ("doubled ids", "inverse id"):
        choices = range(target.order)
        if kind == "inverse id":
            # an involution's id is its inverse's, so F4 breaks only off the involutions
            inverse = target.table.inverse_index
            choices = [g for g in choices if inverse[g] != g]
            if not choices:
                return 0, None, 0
        g = data.draw(st.sampled_from(choices))
        return g, None, data.draw(st.integers(1, count - 1)) if count > 1 else 0
    g = data.draw(st.integers(0, target.order - 1))
    if kind == "doubled fixed":
        return g, None, data.draw(st.sampled_from([1, -1, 2, -2]))
    if kind != "pair":
        # a step of 1 makes the age fractional, a step of scale shifts it by 1
        scale = target.geometry.scale
        return g, None, data.draw(st.sampled_from([1, -1, scale, -scale]))
    h = data.draw(st.integers(0, target.order - 1))
    up = target.fixed_dim_pair(g, h) == 0 or data.draw(st.booleans())
    return g, h, 1 if up else -1


def bump_pair_cell(target, a, b, step):
    """Add step to target's subspace_pairs[a][b] alone, and check that
    fixed_dim_pair moved by step at the pair of the two ids' representatives."""
    ids = target.geometry.subspace_ids
    g, h = ids.index(a), ids.index(b)
    before = target.fixed_dim_pair(g, h)
    target.geometry.subspace_pairs[a][b] += step
    assert target.fixed_dim_pair(g, h) == before + step


def apply_bump(target, kind, g, h, step):
    geometry = target.geometry
    if kind == "asymmetric pair":
        # the original's table loses its symmetry, and the double stays twice it
        bump_pair_cell(target, g, h, step)
        bump_pair_cell(target.cotangent_model(), g, h, 2 * step)
    elif kind in FACT_KINDS:
        doubled = target.cotangent_model().geometry
        count = len(geometry.subspace_pairs)
        if kind == "doubled ids":
            doubled.subspace_ids[g] = (doubled.subspace_ids[g] + step) % count
        elif kind == "inverse id":
            # on both sides, so that the doubled ids still equal the original's
            x = target.table.inverse_index[g]
            for ids in (geometry.subspace_ids, doubled.subspace_ids):
                ids[x] = (ids[x] + step) % count
        elif kind == "doubled pair":
            doubled.subspace_pairs[g][h] += step
            if g != h:
                doubled.subspace_pairs[h][g] += step
        else:
            doubled.fixed[g] += step
    elif kind != "pair":
        geometry.ages[g] += step
        if kind == "inverse ages":
            # the opposite step at g^-1 keeps age duality, so the two rank
            # forms still agree wherever a rank turns fractional
            geometry.ages[target.table.inverse_index[g]] -= step
    else:
        ids = geometry.subspace_ids
        bump_pair_cell(target, ids[g], ids[h], step)


def build_both(model):
    """Build model's cr and virt algebras, as verify has by bundle-decomposition;
    the outcome of each build."""
    return [outcome(model.algebra, theory)[0] for theory in (CR, VIRT)]


def assert_checks_match_scans(model, doubled, bijection):
    for check, scan, cross in CHECKS:
        args = (model, doubled, bijection) if cross else (model,)
        assert outcome(check, *args) == outcome(scan, *args), check.__name__


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    side=st.sampled_from(["original", "doubled"]),
    kind=st.sampled_from(["age", "inverse ages", "pair"]),
    built=st.booleans(),
)
def test_checks_match_scans_with_a_bumped_array_entry(data, name, forget, side, kind, built):
    # with several rows broken, each check must report the scan's first
    # failing pair in row-major order, not merely some failing pair; with
    # the builds made first, the facts decide whether a check takes its proof
    model, doubled, bijection = derived_pair(spec_of(name), forget)
    target = model if side == "original" else doubled
    for _ in range(data.draw(st.integers(1, 3))):
        apply_bump(target, kind, *draw_bump(data, target, kind))
    if built:
        build_both(model)
    assert_checks_match_scans(model, doubled, bijection)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    kind=st.sampled_from(FACT_KINDS),
)
def test_checks_match_scans_with_one_doubling_fact_broken(data, name, forget, kind):
    model, doubled, bijection = derived_pair(spec_of(name), forget)
    g, h, step = draw_bump(data, model, kind)
    apply_bump(model, kind, g, h, step)
    if build_both(model) == ["report", "report"]:
        # the facts hold exactly where the edit changed nothing
        assert _doubling_facts(model, doubled) == (step == 0)
    assert_checks_match_scans(model, doubled, bijection)


@pytest.mark.parametrize("name", ["z3-11", "z2z2-diag", "s3-perm"])
def test_doubling_facts_fail_at_every_asymmetric_pair_edit(name):
    # the double stays twice the original, and most such edits pass both
    # builds, age duality and the grading lemma: the symmetry of the
    # original's table alone is left to reject them
    count = len(cached(name, False)[0].geometry.subspace_pairs)
    unseen_by_other_facts = 0
    for a, b in itertools.permutations(range(count), 2):
        for step in (1, -1):
            model, doubled, bijection = derived_pair(spec_of(name), False)
            if model.geometry.subspace_pairs[a][b] + step < 0:
                continue
            apply_bump(model, "asymmetric pair", a, b, step)
            if build_both(model) == ["report", "report"]:
                assert not _doubling_facts(model, doubled), (a, b, step)
                unseen_by_other_facts += (
                    age_duality_check(model) is None
                    and grading_check(model, doubled, bijection) is None
                )
            assert_checks_match_scans(model, doubled, bijection)
    assert unseen_by_other_facts


def test_decomposition_runs_its_pass_where_only_age_duality_fails():
    # On z3-11 (n = 2, ages over 6): fixed dimensions 3, 0, 0, subspace pair
    # dimensions [[4, 1], [1, 0]] and ages 0, 2, 2, with the doubled arrays
    # held to them by the grading lemma and (F3), pass both builds and every
    # fact but age duality; the doubled rank at (g1, g2) is then -1, which
    # only the pass can see
    model, doubled, bijection = derived_pair(spec_of("z3-11"), False)
    geometry, doubled_geometry = model.geometry, doubled.geometry
    geometry.ages[:] = [0, 12, 12]
    geometry.fixed[:] = [3, 0, 0]
    geometry.subspace_pairs[:] = [[4, 1], [1, 0]]
    doubled_geometry.ages[:] = [-6, 12, 12]
    doubled_geometry.fixed[:] = [6, 0, 0]
    doubled_geometry.subspace_pairs[:] = [[8, 2], [2, 0]]
    assert build_both(model) == ["report", "report"]
    assert age_duality_check(model) is not None
    assert grading_check(model, doubled, bijection) is None
    expected = ("error", "obstruction rank at (g1, g2) is -1, expected a nonnegative integer")
    assert outcome(decomposition_scan, model, doubled, bijection) == expected
    assert outcome(decomposition_check, model, doubled, bijection) == expected


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("name", NAMES)
def test_doubling_facts_hold_on_intact_models(name, forget):
    # (F5) waits for both builds; then every fact holds
    model, doubled, _ = derived_pair(spec_of(name), forget)
    assert not _doubling_facts(model, doubled)
    model.algebra(CR)
    assert not _doubling_facts(model, doubled)
    model.algebra(VIRT)
    assert _doubling_facts(model, doubled)


def test_rank_oracles_raise_where_both_forms_agree_on_a_fraction():
    # Shifting age g1 up and age g1^-1 = g2 down by 1/6 keeps age duality,
    # so the two forms agree at every pair; only their integrality flags
    # (g1, g1), where both read 1/2.
    model, _, _ = derived_pair(spec_of("z3-11"), False)
    model.geometry.ages[1] += 1
    model.geometry.ages[2] -= 1
    expected = ("error", "obstruction rank at (g1, g1) is 1/2, expected a nonnegative integer")
    assert outcome(rank_oracle_scan, model) == expected
    assert outcome(rank_oracle_check, model) == expected


def test_decomposition_raises_at_a_negative_excess_behind_equal_sides():
    # On z3-11 (n = 2), fixed dimension 4 at e and pair dimensions 5, 1, 1 in
    # row e make every excess rank of that row -1 while excess + k is 0, the
    # doubled rank; so only the sign of the excess flags the row.
    model, doubled, bijection = derived_pair(spec_of("z3-11"), False)
    # e fixes subspace 0 and g1, g2 fix subspace 1; only line 0 of the table
    # changes, so p(g1, e) stays 0
    model.geometry.fixed[0] = 4
    model.geometry.subspace_pairs[0][:] = [5, 1]
    assert [model.fixed_dim_pair(0, h) for h in range(3)] == [5, 1, 1]
    assert model.fixed_dim_pair(1, 0) == 0
    expected = ("error", "excess rank at (e, e) is -1, expected a nonnegative integer")
    assert outcome(decomposition_scan, model, doubled, bijection) == expected
    assert outcome(decomposition_check, model, doubled, bijection) == expected


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("name", ["s3-perm", "q8", "G(4,1,2)"])
@pytest.mark.parametrize("check", [grading_check, decomposition_check, main_theorem_check])
def test_doubling_checks_refuse_all_but_the_derived_pair(check, name, forget):
    model, doubled, identity = derived_pair(spec_of(name), forget)
    transposed = (1, 0, *identity[2:])
    copied = (0, 0, *identity[2:])
    # the same doubled group, closed on its own: its rows are not model's
    closed = OrbifoldModel(cotangent_double(model.spec), forget_geometry=forget)
    looked_up = sector_bijection(model.table, closed.table)
    for args in (
        (model, doubled, transposed),
        (model, doubled, copied),
        (model, closed, identity),
        (model, closed, looked_up),
    ):
        with pytest.raises(ValueError, match=r"model\.cotangent_model\(\)"):
            check(*args)
    assert check(model, doubled, identity) is None


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("name", ["z3-11", "s3-perm", "q8"])
def test_main_theorem_matches_scan_with_a_doubled_inverse_edited(name, forget, monkeypatch):
    # the doubled table reads the original's inverse table: after verify the
    # two are one object, derived once per group and kept in the caches the
    # tables share, so an edited entry, in range or out of it, is an edit of
    # both sides, and the check must still give the scan's outcome
    pairs = []
    cotangent_model = OrbifoldModel.cotangent_model

    def recorded(self):
        pairs.append((self, cotangent_model(self)))
        return pairs[-1][1]

    monkeypatch.setattr(OrbifoldModel, "cotangent_model", recorded)
    assert run_full_verification(spec_of(name), forget_geometry=forget).all_passed
    monkeypatch.undo()
    model, doubled = pairs[0]
    assert all(pair == (model, doubled) for pair in pairs)
    assert doubled.table.inverse_index is model.table.inverse_index
    assert doubled.table._shared["inverses"] is model.table.inverse_index

    order = model.order
    for g in range(order):
        for value in (0, order - 1, order, -1):

            def build():
                model, doubled, bijection = derived_pair(spec_of(name), forget)
                inverse = list(doubled.table.inverse_index)
                inverse[g] = value
                doubled.table._shared["inverses"] = tuple(inverse)
                assert model.table.inverse_index[g] == value
                return model, doubled, bijection

            checked = outcome(main_theorem_check, *build())
            assert checked == outcome(main_theorem_scan, *build()), (g, value)


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
    # the product table stays a group table, so only the codes' composition
    # (check_group, then the fallback's comparison with composition) sees the swap
    model = OrbifoldModel(spec_of(name))
    codes = model.table.codes
    if len(codes) < 2:
        return
    i, j = data.draw(
        st.lists(st.integers(0, len(codes) - 1), min_size=2, max_size=2, unique=True)
    )
    codes[i], codes[j] = codes[j], codes[i]
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


def test_closure_sanity_reports_an_inverse_out_of_range():
    # the fallback reads the inverse before it multiplies by it, so an
    # inverse that is no index is a broken inverse table, not an IndexError
    model = OrbifoldModel(corpus_spec("s3-perm"))
    table = model.table
    shared = table._shared
    inverses = list(table.inverse_index)
    inverses[2] = 6
    table._shared = {**shared, "inverses": tuple(inverses)}
    expected = ("report", {"problem": "inverse table broken", "element": "g2"})
    assert outcome(closure_sanity_check, model) == expected
    assert outcome(closure_sanity_scan, model) == expected
    assert table._shared["group"] is False
    assert "group" not in shared and shared["inverses"][2] != 6


def test_closure_sanity_compares_products_with_composition_beyond_order_64():
    # G(3,1,3) has order 162; swapping two codes leaves the product table a
    # group table, so only the codes' composition can see it
    model = OrbifoldModel(gmpn_spec(3, 1, 3))
    codes = model.table.codes
    assert len(codes) == 162 and closure_sanity_check(model) is None
    codes[5], codes[100] = codes[100], codes[5]
    expected = outcome(closure_sanity_scan, model)
    assert expected[1]["problem"] == "multiplication table disagrees with composition"
    assert outcome(closure_sanity_check, model) == expected


# --- what the group fact's induction reads, corrupted one datum at a time ---

GROUP_FACT_NAMES = CORPUS_NAMES + ["G(4,1,2)", "G(2,1,3)"]


GROUP_KINDS = [
    "left", "made left", "gather", "parent", "row", "right", "code", "inverse", "conjugation",
    "element",
]


def corrupt_group_datum(data, table, kind):
    """Edit one datum that check_group reads.

    The inverses and generator conjugations are derived first, from the
    intact parents and left and right tables, so only the table identities
    can see an edit to those tables.
    """
    order = table.order
    assert table.inverse_index[0] == 0 and len(table.generator_conjugations) == len(table.gens)
    other = st.integers(0, order - 1)
    if kind in ("left", "gather", "right", "conjugation"):
        k = data.draw(st.integers(0, len(table.gens) - 1))
        j = data.draw(other)
        if kind == "conjugation":
            # an edited copy in the caches shared with the doubled table
            tables = [list(conj) for conj in table.generator_conjugations]
            tables[k][j] = data.draw(other.filter(lambda y: y != tables[k][j]))
            table._shared["conjugations"] = tuple(map(tuple, tables))
        else:
            edited = (table._right if kind == "right" else table._left)[k]
            if kind == "gather":
                edited = list(edited)
            edited[j] = data.draw(other.filter(lambda y: y != edited[j]))
            if kind == "gather":
                # the row gather as a table made with the edited left table has it
                table._gathers[k] = monomial._gatherer(edited)
    elif kind == "made left":
        # two entries of a left table exchanged, with its row gather, the
        # inverses and its conjugation table (left_k[conj_k[x]] = right_k[x])
        # made to agree, so only the left tables' recurrence is broken
        k = data.draw(st.integers(0, len(table.gens) - 1))
        i, j = data.draw(st.lists(other, min_size=2, max_size=2, unique=True))
        left = table._left[k]
        left[i], left[j] = left[j], left[i]
        table._gathers[k] = monomial._gatherer(left)
        back = {x: y for y, x in enumerate(left)}
        conjugations = list(table.generator_conjugations)
        conjugations[k] = tuple(back[x] for x in table._right[k])
        table._shared["conjugations"] = tuple(conjugations)
        for derived in ("inverses", "classes"):
            table._shared.pop(derived, None)
    elif kind == "inverse":
        # an edited copy in the caches shared with the doubled table
        inverse = list(table.inverse_index)
        i = data.draw(other)
        inverse[i] = data.draw(other.filter(lambda y: y != inverse[i]))
        table._shared["inverses"] = tuple(inverse)
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
    elif kind == "code":
        # one coordinate's phase turned by 1/conductor, or two images exchanged
        i, n = data.draw(other), table.dimension
        code = list(table.codes[i])
        j = data.draw(st.integers(0, n - 1))
        if table.conductor > 1:
            code[j] = (code[j] + n) % (n * table.conductor)
        else:
            q = data.draw(st.integers(0, n - 1).filter(lambda q: q != j))
            code[j], code[q] = code[q], code[j]
        table.codes[i] = tuple(code)
    elif kind == "element":
        # one element's code made another's
        i, j = data.draw(st.lists(other, min_size=2, max_size=2, unique=True))
        table.codes[i] = table.codes[j]
    else:
        # two whole rows exchanged: each is stored, and neither is its
        # parent's row gathered through a left table
        i, j = data.draw(st.lists(other, min_size=2, max_size=2, unique=True))
        table._rows[i], table._rows[j] = table.row(j), table.row(i)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(GROUP_FACT_NAMES),
    kind=st.sampled_from(GROUP_KINDS),
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
    # the stored-row oracle decides on a copy, since it builds every row;
    # it misses only a right-table edit, which no clause of it reads
    assert group_fact_by_rows(copy.deepcopy(table)) is (kind == "right")
    assert not table.check_group()
    if kind == "left":
        # no row is gathered through the edited table
        intact = model.spec.close()
        assert all(table.row(x) == intact.row(x) for x in range(table.order))
    assert outcome(closure_sanity_check, model) == outcome(closure_sanity_scan, model)
    # a row swap can break a rank, which the algebra's build raises
    built, alg = outcome(model.algebra, theory)
    if built == "report":
        assert verify_algebra(alg) == cube_report(alg)
    # with both builds made, as in verify, the doubling facts are decided
    # too, and fail with the group fact
    build_both(model)
    assert not _doubling_facts(model, doubled)
    assert_checks_match_scans(model, doubled, tuple(range(model.order)))


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("name", CORPUS_NAMES + ["G(4,1,2)", "G(2,1,3)", "G(3,1,3)"])
def test_group_fact_holds_with_its_stored_row_oracle(name, seed):
    spec = spec_of(name)
    table = (spec if seed is None else basis_changed_spec(spec, seed)).close()
    assert group_fact_by_rows(copy.deepcopy(table))
    assert table.check_group()
    assert built_rows(table) == [0]


# --- verify and ring decide from the arrays, never through the per-entry path ---

PER_ENTRY = [(SectorGeometry, "sector")]


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
        patch.setattr(GroupTable, "element", reached)
        report = run_full_verification(spec_of(name), forget_geometry=forget)
    assert report.all_passed
    assert len(tables) == 2


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
        model, doubled, bijection = derived_pair(spec_of(name), forget)
        apply_bump(model if side == "original" else doubled, kind, *bump)
        return model, doubled, bijection

    assert_checks_match_scans_without_per_entry_paths(build)


# --- main_theorem_check decides its class stage by proof, or builds the class rings it needs ---

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


PAIR_PASSES = ("rank_oracle_check", "decomposition_check")


@contextlib.contextmanager
def counted_builds_and_pair_passes():
    """Records (model, theory) per constant-table build in builds, and in
    passes the name of the check for each product row that a check's own
    pair pass reads (a GroupTable.row call from one of PAIR_PASSES)."""
    builds, passes = [], []
    real_rows, real_row = OrbifoldModel._constant_rows, GroupTable.row

    def counted_rows(model, theory):
        builds.append((model, theory))
        return real_rows(model, theory)

    def counted_row(table, i):
        caller = sys._getframe(1).f_code.co_name
        if caller in PAIR_PASSES:
            passes.append(caller)
        return real_row(table, i)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OrbifoldModel, "_constant_rows", counted_rows)
        patch.setattr(GroupTable, "row", counted_row)
        yield builds, passes


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
def test_verify_builds_two_constant_tables(forget):
    # rank-oracles, bundle-decomposition and the main theorem's constants are
    # decided by proof: verify builds the cr and virt tables of the original
    # alone, no check runs its pair pass, and neither geometry keeps a store
    # of pair dimensions beside its subspace_pairs table
    pairs = []
    real_cotangent_model = OrbifoldModel.cotangent_model

    def recording_cotangent_model(model):
        doubled = real_cotangent_model(model)
        pairs.append((model, doubled))
        return doubled

    with counted_builds_and_pair_passes() as (builds, passes), pytest.MonkeyPatch.context() as patch:
        patch.setattr(OrbifoldModel, "cotangent_model", recording_cotangent_model)
        report = run_full_verification(gmpn_spec(2, 1, 3), forget_geometry=forget)
    assert report.all_passed
    ((model, doubled),) = pairs
    assert builds == [(model, CR), (model, VIRT)]
    assert passes == []
    assert doubled.built(CR) is None
    for geometry in (model.geometry, doubled.geometry):
        assert set(vars(geometry)) == {
            "table", "forget", "n", "scale", "_element_arrays", "subspace_pairs"
        }


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
def test_standalone_doubling_checks_run_their_pair_pass(forget):
    # a fresh pair holds no cr or virt build, so (F5) fails: decomposition
    # runs its pass over every product row, and the main theorem builds the
    # doubled cr table and compares it
    spec = gmpn_spec(2, 1, 3)
    model, doubled, bijection = derived_pair(spec, forget)
    with counted_builds_and_pair_passes() as (builds, passes):
        assert decomposition_check(model, doubled, bijection) is None
    assert builds == []
    assert passes == ["decomposition_check"] * model.order
    model, doubled, bijection = derived_pair(spec, forget)
    with counted_builds_and_pair_passes() as (builds, passes):
        assert main_theorem_check(model, doubled, bijection) is None
    assert builds == [(model, VIRT), (doubled, CR)]


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
def test_verify_decides_each_equivariance_once(forget, monkeypatch):
    # the class stage's guard reads the virtual equivariance from the report
    # that algebra-axioms-virt made, so only the two axiom checks decide it,
    # each by degree additivity, and no transported-row scan runs
    calls = {"_degree_additive": [], "_equivariance": []}
    for name, theories in calls.items():

        def counted(alg, *args, theories=theories, real=getattr(rings, name)):
            theories.append(alg.theory)
            return real(alg, *args)

        monkeypatch.setattr(rings, name, counted)
    for spec in CLASS_STAGE_SPECS:
        for theories in calls.values():
            theories.clear()
        assert run_full_verification(spec, forget_geometry=forget).all_passed
        assert calls == {"_degree_additive": [CR, VIRT], "_equivariance": []}, spec.name


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
def test_class_stage_without_its_guard_builds_the_virtual_ring_alone(forget, monkeypatch):
    # with the guard forced False and the doubled degrees equal to the
    # virtual ones, the doubled cr algebra would give invariant_ring the
    # virtual algebra's data, so the virtual class ring alone is built, and
    # the doubled cr table is not
    def build():
        model, doubled, bijection = derived_pair(gmpn_spec(2, 1, 3), forget)
        build_both(model)
        return model, doubled, bijection

    scanned = outcome(main_theorem_scan, *build())
    model, doubled, bijection = build()
    monkeypatch.setattr(cotangent, "_class_stage_follows", lambda *args: False)
    with counted_invariant_rings() as calls, counted_builds_and_pair_passes() as (builds, _):
        checked = outcome(main_theorem_check, model, doubled, bijection)
    assert checked == scanned == ("report", None)
    assert calls == [1]
    assert builds == []


def class_stage_outcomes(build):
    """(check outcome, scan outcome, class rings the check built), each on its own build()."""
    with counted_invariant_rings() as calls:
        checked = outcome(main_theorem_check, *build())
    return checked, outcome(main_theorem_scan, *build()), calls[0]


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
        model, doubled, bijection = derived_pair(spec_of(name), forget)
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
                model, doubled, bijection = derived_pair(spec_of(name), forget)
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
        model, doubled, bijection = derived_pair(spec_of(name), False)
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


def test_class_stage_matches_scan_with_only_the_doubled_degrees_replaced():
    # the degree of e raised by 2 in the doubled cr algebra alone: the
    # degrees stage reads the geometry and the constants are untouched, so
    # only the class rings, both built, can see it
    def build():
        model, doubled, bijection = derived_pair(spec_of("s3-perm"), False)
        alg = doubled.algebra(CR)
        degrees = list(alg.degrees)
        degrees[0] += 2
        doubled._algebras[CR] = SectorAlgebra(
            alg.theory, alg.table, tuple(degrees), alg.constants, alg.labels
        )
        return model, doubled, bijection

    checked, scanned, rings = class_stage_outcomes(build)
    expected = {
        "stage": "invariant-ring",
        "class": "[e]",
        "virtual_degree": "0",
        "doubled_degree": "2",
    }
    assert checked == scanned == ("report", expected)
    assert rings == 2


# --- the representative route: the build and the class ring under bumped arrays ---

# the class kinds bump a class function or a whole orbit of pair cells, so
# the build's conjugation guard holds and its representative route runs;
# the single-entry kinds break the guard, and take the full loop, wherever
# the entry's class or orbit has more than one member
ROUTE_KINDS = ["class age", "class fixed", "orbit pair", "age", "fixed", "id", "pair"]


def id_maps(model):
    """For each generator conjugation, the map it induces on the subspace ids."""
    ids = model.geometry.subspace_ids
    return [
        dict(zip(ids, map(ids.__getitem__, conj)))
        for conj in model.table.generator_conjugations
    ]


def bump_for_route(data, model, kind):
    geometry = model.geometry
    if kind in ("age", "pair"):
        apply_bump(model, kind, *draw_bump(data, model, kind))
    elif kind in ("fixed", "id"):
        g = data.draw(st.integers(0, model.order - 1))
        if kind == "fixed":
            geometry.fixed[g] += data.draw(st.sampled_from([1, -1, 2, -2]))
        else:
            ids = geometry.subspace_ids
            ids[g] = (ids[g] + data.draw(st.integers(1, 3))) % len(geometry.subspace_pairs)
    elif kind == "orbit pair":
        count = len(geometry.subspace_pairs)
        start = (data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1)))
        maps = id_maps(model)
        orbit, stack = {start}, [start]
        while stack:
            a, b = stack.pop()
            for tau in maps:
                image = (tau[a], tau[b])
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        a, b = start
        step = 1 if geometry.subspace_pairs[a][b] == 0 or data.draw(st.booleans()) else -1
        for a, b in orbit:
            geometry.subspace_pairs[a][b] += step
    else:
        classes = model.table.conjugacy_classes().classes
        members = classes[data.draw(st.integers(0, len(classes) - 1))]
        if kind == "class age":
            scale = geometry.scale
            step, values = data.draw(st.sampled_from([1, -1, scale, -scale])), geometry.ages
        else:
            step, values = data.draw(st.sampled_from([1, -1, 2, -2])), geometry.fixed
        for x in members:
            values[x] += step


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    kind=st.sampled_from(ROUTE_KINDS),
)
def test_routes_match_the_full_loop_with_bumped_arrays(data, name, forget, kind):
    # the build and the class ring must give the full loop's first error at
    # the same entry, or its rows and the ring regrouped from them
    model = OrbifoldModel(spec_of(name), forget_geometry=forget)
    assert model.table.check_group()
    for _ in range(data.draw(st.integers(1, 2))):
        bump_for_route(data, model, kind)
    if kind in ("class age", "class fixed", "orbit pair"):
        assert model._conjugation_invariant()
    order = model.order
    for theory in (CR, VIRT):
        full = outcome(lambda: tuple(model._exact_rows(theory, range(order))))
        assert outcome(model._constant_rows, theory) == full
        expected = full
        if full[0] == "report":
            degrees = model._degrees(theory, range(order))
            alg = SectorAlgebra(theory, model.table, degrees, full[1], model.labels)
            expected = outcome(lambda: alg.invariant_ring().to_json())
        assert outcome(lambda: model.class_ring(theory).to_json()) == expected
