from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from orbring import (
    GroupTable,
    MonomialMap,
    OrbifoldModel,
    OrbifoldSpec,
    RationalPhase,
    ResourceCapError,
    SectorGeometry,
    eigen_phases,
    run_full_verification,
)
from support import (
    CORPUS_NAMES,
    SMALL_NAMES,
    corpus_model,
    corpus_spec,
    gmpn_spec,
    monomial_generator_sets,
    monomial_maps,
)
from test_monomial import QUAT_J, S3_GENS, Z3_GEN, zp


def sector_of(m):
    """Sector data of m, read from the geometry of the cyclic group m generates."""
    table = GroupTable.close([m], m.dimension)
    return SectorGeometry(table).sector(table.index[m])


# --- eigen phases ---

def test_eigen_diagonal_map():
    assert eigen_phases(Z3_GEN) == (zp(1, 3), zp(1, 3))


def test_eigen_three_cycle():
    cycle = MonomialMap((1, 2, 0), (zp(0),) * 3)
    assert eigen_phases(cycle) == (zp(0), zp(1, 3), zp(2, 3))


def test_eigen_quaternion_j():
    # square roots of -1: eigenvalues +i and -i
    assert eigen_phases(QUAT_J) == (zp(1, 4), zp(3, 4))


@given(monomial_maps())
@settings(max_examples=60)
def test_eigen_count_matches_dimension(m):
    assert len(eigen_phases(m)) == m.dimension


@given(monomial_maps())
@settings(max_examples=60)
def test_eigen_of_inverse_is_negation(m):
    negated = sorted(-p for p in eigen_phases(m))
    assert tuple(negated) == eigen_phases(m.inverse())


@given(monomial_maps())
@settings(max_examples=60)
def test_eigen_of_double_is_phases_plus_negation(m):
    expected = sorted(list(eigen_phases(m)) + [-p for p in eigen_phases(m)])
    assert tuple(expected) == eigen_phases(m.double())


@given(monomial_maps())
@settings(max_examples=40)
def test_fixed_dim_matches_projector_over_cyclic_group(m):
    # independent oracle: average the traces of the powers of m
    powers = [MonomialMap.identity(m.dimension)]
    power = m
    while not power.is_identity():
        powers.append(power)
        power = power * m
        assert len(powers) <= 720, "element order blew past the strategy bounds"
    total = sum((p.trace() for p in powers), 0)
    value = (total * Fraction(1, len(powers))).as_rational()
    assert value == sector_of(m).fixed_dim


# --- ages and shifts ---

def test_identity_sector_is_flat():
    e = sector_of(MonomialMap.identity(2))
    assert e.age == 0
    assert e.fixed_dim == 2
    assert e.virtual_shift == 0
    assert e.cr_shift == 0


def test_z3_generator_sector():
    g = sector_of(Z3_GEN)
    assert g.age == Fraction(2, 3)
    assert g.fixed_dim == 0
    assert g.virtual_shift == 4
    assert g.cr_shift == Fraction(4, 3)


def test_three_cycle_sector():
    cycle = sector_of(MonomialMap((1, 2, 0), (zp(0),) * 3))
    assert cycle.age == 1
    assert cycle.fixed_dim == 1
    assert cycle.virtual_shift == 4
    assert cycle.cr_shift == 2


def test_sector_data_invariants_across_corpus():
    for name in CORPUS_NAMES:
        model = corpus_model(name)
        for i in range(model.order):
            sector = model.sector(i)
            eigen = eigen_phases(model.table.elements[i])
            assert sector.fixed_dim == sum(1 for p in eigen if p == zp(0))
            assert sector.age == sum((p.as_fraction() for p in eigen), Fraction(0))
            assert sector.virtual_shift == 2 * (model.n - sector.fixed_dim)
            assert sector.cr_shift == 2 * sector.age


def assert_arrays_match_eigen_phases(model):
    """ages and fixed, read from the codes, against the eigen-phase sums."""
    geometry = model.geometry
    assert geometry.scale == 2 * model.table.conductor
    assert len(geometry.ages) == len(geometry.fixed) == model.order
    for i, element in enumerate(model.table.elements):
        eigen = eigen_phases(element)
        age = sum((p.as_fraction() for p in eigen), Fraction(0))
        assert Fraction(geometry.ages[i], geometry.scale) == age, i
        assert geometry.fixed[i] == sum(1 for p in eigen if p == zp(0)), i


SECTOR_SPECS = [corpus_spec(name) for name in CORPUS_NAMES] + [
    gmpn_spec(4, 1, 2), gmpn_spec(6, 2, 2), gmpn_spec(2, 1, 3), gmpn_spec(5, 1, 2), gmpn_spec(3, 1, 3)
]


@pytest.mark.parametrize("spec", SECTOR_SPECS, ids=lambda spec: spec.name)
def test_sector_arrays_match_eigen_phases(spec):
    model = OrbifoldModel(spec)
    assert_arrays_match_eigen_phases(model)
    assert_arrays_match_eigen_phases(model.cotangent_model())


@given(monomial_generator_sets())
@settings(max_examples=60, deadline=None)
def test_sector_arrays_match_eigen_phases_on_random_groups(generated):
    n, gens = generated
    spec = OrbifoldSpec("random", n, tuple(gens), max_group_order=32)
    try:
        model = OrbifoldModel(spec)
    except ResourceCapError:
        assume(False)
    assert_arrays_match_eigen_phases(model)
    assert_arrays_match_eigen_phases(model.cotangent_model())


@pytest.mark.parametrize("forget", [False, True], ids=["geometric", "dw"])
@pytest.mark.parametrize("spec", SECTOR_SPECS, ids=lambda spec: spec.name)
def test_sector_from_cycles_equals_sector_from_arrays(spec, forget):
    # before the arrays exist, sector(i) walks the cycles of element i alone
    original = OrbifoldModel(spec, forget_geometry=forget)
    for model in (original, original.cotangent_model()):
        geometry = model.geometry
        walked = [geometry.sector(i) for i in range(model.order)]
        assert "_element_arrays" not in geometry.__dict__
        geometry.ages  # builds the arrays
        assert walked == [geometry.sector(i) for i in range(model.order)]


@pytest.mark.parametrize("forget", [False, True], ids=["geometric", "dw"])
def test_sector_reads_a_bumped_age_once_the_arrays_exist(forget):
    geometry = OrbifoldModel(gmpn_spec(2, 1, 3), forget_geometry=forget).geometry
    g = 5
    before = geometry.sector(g)
    geometry.ages[g] += 1
    geometry.fixed[g] += 1
    after = geometry.sector(g)
    assert after.age == before.age + Fraction(1, geometry.scale)
    assert after.fixed_dim == before.fixed_dim + 1
    assert after.virtual_shift == before.virtual_shift - 2


def test_forget_geometry_arrays_are_zero_over_one():
    geometry = corpus_model("s4-perm", forget=True).geometry
    assert geometry.scale == 1
    assert geometry.ages == geometry.fixed == [0] * 24


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_age_duality(name):
    model = corpus_model(name)
    for g in range(model.order):
        g_inv = model.table.inverse_index[g]
        sector = model.sector(g)
        assert sector.age + model.sector(g_inv).age == model.n - sector.fixed_dim


# --- pair fixed dimensions ---

def test_pair_with_identity_and_self():
    model = corpus_model("z3-11")
    assert model.fixed_dim_pair(0, 0) == 2
    assert model.fixed_dim_pair(1, 0) == model.sector(1).fixed_dim == 0
    assert model.fixed_dim_pair(1, 1) == 0


def test_s3_two_transpositions_share_the_diagonal_line():
    model = corpus_model("s3-perm")
    table = model.table
    transpositions = [i for i in range(6) if table.element_order(i) == 2]
    t1, t2 = transpositions[:2]
    # two distinct transpositions fix only the diagonal line
    assert model.fixed_dim_pair(t1, t2) == 1
    # they generate S3, whose projector has trace (3 + 3*1 + 2*0) / 6 = 1
    assert model.geometry.fixed_dim_of_subgroup(table.subgroup_closure((t1, t2))) == 1


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_pair_dimension_properties(name):
    model = corpus_model(name)
    for g in range(model.order):
        assert model.fixed_dim_pair(g, g) == model.sector(g).fixed_dim
        assert model.fixed_dim_pair(g, 0) == model.sector(g).fixed_dim
        for h in range(model.order):
            pair = model.fixed_dim_pair(g, h)
            assert pair == model.fixed_dim_pair(h, g)
            assert pair <= min(model.sector(g).fixed_dim, model.sector(h).fixed_dim)
            assert 0 <= pair <= model.n


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_whole_group_projector_is_a_dimension(name):
    model = corpus_model(name)
    value = model.geometry.fixed_dim_of_subgroup(tuple(range(model.order)))
    assert 0 <= value <= model.n
    # known fixed spaces: the diagonal line for permutation reps, zero otherwise
    expected = {
        "trivial-c2": 2,
        "z2-c1": 0,
        "z3-11": 0,
        "z3-12": 0,
        "z4-13": 0,
        "z2z2-diag": 0,
        "s3-perm": 1,
        "q8": 0,
        "s4-perm": 1,
    }[name]
    assert value == expected


def assert_pairs_match_projector(model):
    """fixed_dim_pair against the projector of <g, h> on every pair."""
    table, geometry = model.table, model.geometry
    projected = {}
    for g in range(table.order):
        for h in range(g, table.order):
            members = table.subgroup_closure((g, h))
            if members not in projected:
                projected[members] = geometry.fixed_dim_of_subgroup(members)
            assert model.fixed_dim_pair(g, h) == projected[members], (g, h)


@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES]
    + [gmpn_spec(4, 1, 2), gmpn_spec(6, 2, 2), gmpn_spec(2, 1, 3), gmpn_spec(5, 1, 2)],
    ids=lambda spec: spec.name,
)
def test_pair_union_find_matches_projector(spec):
    model = OrbifoldModel(spec)
    assert_pairs_match_projector(model)
    assert_pairs_match_projector(model.cotangent_model())


@given(monomial_generator_sets())
@settings(max_examples=60, deadline=None)
def test_pair_union_find_matches_projector_on_random_groups(generated):
    n, gens = generated
    spec = OrbifoldSpec("random", n, tuple(gens), max_group_order=32)
    try:
        model = OrbifoldModel(spec)
    except ResourceCapError:
        assume(False)
    assert_pairs_match_projector(model)
    assert_pairs_match_projector(model.cotangent_model())
    assert run_full_verification(spec).all_passed


def test_doubling_doubles_fixed_dimensions():
    from orbring import sector_bijection

    for name in SMALL_NAMES:
        model = corpus_model(name)
        doubled = model.cotangent_model()
        bij = sector_bijection(model.table, doubled.table)
        for g in range(model.order):
            assert doubled.sector(bij[g]).fixed_dim == 2 * model.sector(g).fixed_dim
            assert doubled.sector(bij[g]).age == model.n - model.sector(g).fixed_dim
            for h in range(model.order):
                assert doubled.fixed_dim_pair(bij[g], bij[h]) == 2 * model.fixed_dim_pair(g, h)


def test_forget_geometry_zeroes_everything():
    model = corpus_model("s3-perm", forget=True)
    assert model.n == 0
    for g in range(model.order):
        sector = model.sector(g)
        assert sector.age == 0
        assert sector.fixed_dim == 0
        assert sector.virtual_shift == 0
        assert sector.cr_shift == 0
        for h in range(model.order):
            assert model.fixed_dim_pair(g, h) == 0
