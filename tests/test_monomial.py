import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings

from orbring import (
    DEFAULT_CONDUCTOR_CAP,
    CyclotomicNumber,
    GroupTable,
    InputError,
    MonomialMap,
    OrbifoldModel,
    RationalPhase,
    ResourceCapError,
    monomial,
)
from orbring.cli import _inspect_text
from support import (
    CORPUS_NAMES,
    built_rows,
    closure_oracle,
    corpus_model,
    corpus_spec,
    element_order_scan,
    gmpn_spec,
    monomial_generator_sets,
    monomial_maps,
)


def zp(num, den=1):
    return RationalPhase(num, den)


def diag(*phases):
    return MonomialMap(tuple(range(len(phases))), tuple(phases))


Z3_GEN = diag(zp(1, 3), zp(1, 3))
QUAT_I = diag(zp(1, 4), zp(3, 4))
QUAT_J = MonomialMap((1, 0), (zp(1, 2), zp(0)))
S3_GENS = [
    MonomialMap((1, 0, 2), (zp(0),) * 3),
    MonomialMap((1, 2, 0), (zp(0),) * 3),
]


# --- composition, inverse, dual ---

def test_identity_is_neutral():
    e = MonomialMap.identity(2)
    assert e * Z3_GEN == Z3_GEN
    assert Z3_GEN * e == Z3_GEN


def test_compose_adds_diagonal_phases():
    assert Z3_GEN * Z3_GEN == diag(zp(2, 3), zp(2, 3))


def test_quaternion_j_squares_to_minus_identity():
    assert QUAT_J * QUAT_J == diag(zp(1, 2), zp(1, 2))


def test_inverse_examples():
    assert MonomialMap.identity(3).inverse() == MonomialMap.identity(3)
    assert Z3_GEN.inverse() == diag(zp(2, 3), zp(2, 3))


@given(monomial_maps(dimension=3), monomial_maps(dimension=3))
@settings(max_examples=60)
def test_inverse_antihomomorphism(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(monomial_maps())
def test_inverse_cancels(a):
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()


def test_dual_fixes_real_maps():
    real = MonomialMap((1, 0), (zp(1, 2), zp(0)))
    assert real.dual() == real


def test_dual_negates_phases():
    assert Z3_GEN.dual() == diag(zp(2, 3), zp(2, 3))


@given(monomial_maps(dimension=3), monomial_maps(dimension=3))
@settings(max_examples=60)
def test_dual_is_homomorphism_and_involution(a, b):
    assert (a * b).dual() == a.dual() * b.dual()
    assert a.dual().dual() == a


def test_double_blocks_map_and_dual():
    doubled = Z3_GEN.double()
    assert doubled.perm == (0, 1, 2, 3)
    assert doubled.phases == (zp(1, 3), zp(1, 3), zp(2, 3), zp(2, 3))
    # permutation representations are self-dual
    tau = S3_GENS[0]
    assert tau.double() == MonomialMap((1, 0, 2, 4, 3, 5), (zp(0),) * 6)


def test_compose_dimension_mismatch():
    with pytest.raises(InputError):
        Z3_GEN * MonomialMap.identity(3)


def test_invalid_permutation_rejected():
    with pytest.raises(InputError):
        MonomialMap((0, 0), (zp(0), zp(0)))
    with pytest.raises(InputError):
        MonomialMap((0, 1), (zp(0),))


def test_zero_dimensional_identity():
    e = MonomialMap.identity(0)
    assert e.is_identity()
    assert e.trace() == 0


# --- traces ---

def test_trace_examples():
    assert MonomialMap.identity(3).trace() == 3
    assert Z3_GEN.trace() == CyclotomicNumber.from_phase(zp(1, 3)) * 2
    assert S3_GENS[0].trace() == 1  # one fixed coordinate


def test_trace_is_class_function():
    model = corpus_model("q8")
    table = model.table
    for g in range(table.order):
        for k in range(table.order):
            assert table.elements[table.conjugate(g, k)].trace() == table.elements[g].trace()


# --- closure ---

def test_closure_cyclic():
    table = GroupTable.close([Z3_GEN], 2)
    assert table.order == 3


def test_closure_s3():
    table = GroupTable.close(S3_GENS, 3)
    assert table.order == 6


def test_closure_quaternion():
    table = GroupTable.close([QUAT_I, QUAT_J], 2)
    assert table.order == 8


def test_closure_z2z2():
    gens = [diag(zp(1, 2), zp(0)), diag(zp(0), zp(1, 2))]
    assert GroupTable.close(gens, 2).order == 4


def test_closure_trivial():
    table = GroupTable.close([], 2)
    assert table.order == 1
    assert table.elements[0].is_identity()


def test_closure_respects_order_cap():
    with pytest.raises(ResourceCapError):
        GroupTable.close([Z3_GEN], 2, cap=2)


def test_closure_respects_conductor_cap():
    at_cap = GroupTable.close([diag(zp(1, DEFAULT_CONDUCTOR_CAP))], 1)
    assert at_cap.order == DEFAULT_CONDUCTOR_CAP
    for denominator in (DEFAULT_CONDUCTOR_CAP + 1, 5000):
        with pytest.raises(ResourceCapError):
            GroupTable.close([diag(zp(1, denominator))], 1)


@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES] + [gmpn_spec(6, 2, 2)],
    ids=lambda spec: spec.name,
)
def test_conductor_is_the_generators_denominator_lcm(spec):
    table = spec.close()
    gen_denominators = {p.denominator for g in table.gens for p in table.elements[g].phases}
    assert table.conductor == math.lcm(1, *gen_denominators)
    for m in table.elements:
        assert all(table.conductor % p.denominator == 0 for p in m.phases)


def test_identity_sits_at_index_zero():
    table = GroupTable.close(S3_GENS, 3)
    assert table.elements[0].is_identity()
    for i in range(table.order):
        assert table.mult(i, table.inverse_index[i]) == 0
        assert table.mult(table.inverse_index[i], i) == 0


@pytest.mark.parametrize("name", ["s3-perm", "q8", "z4-13", "trivial-c2"])
def test_mult_table_matches_composition(name):
    table = corpus_model(name).table
    for i in range(table.order):
        assert list(table.row(i)) == [table.mult(i, j) for j in range(table.order)]
        for j in range(table.order):
            assert table.elements[table.mult(i, j)] == table.elements[i] * table.elements[j]


# a row is gathered from the nearest built ancestor, so which rows exist when
# it is asked for must not change it
@pytest.mark.parametrize(
    "spec", [corpus_spec(name) for name in CORPUS_NAMES] + [gmpn_spec(2, 1, 3)],
    ids=lambda spec: spec.name,
)
def test_rows_in_any_request_order_match_index_order(spec):
    in_order = spec.close()
    expected = [tuple(in_order.row(i)) for i in range(in_order.order)]
    reverse = list(range(in_order.order))[::-1]
    shuffled = random.Random(spec.name).sample(reverse, len(reverse))
    for requests in (reverse, shuffled):
        table = spec.close()
        assert built_rows(table) == [0]
        for i in requests:
            assert tuple(table.row(i)) == expected[i]
            assert table.mult(i, requests[0]) == expected[i][requests[0]]
        assert built_rows(table) == list(range(table.order))


# verify_algebra checks equivariance under table.gens only, which is exact
# because the table's generators generate the whole table.
@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES] + [gmpn_spec(4, 1, 2), gmpn_spec(2, 1, 3)],
    ids=lambda spec: spec.name,
)
def test_gens_generate_the_whole_table(spec):
    table = spec.close()
    assert table.subgroup_closure(table.gens) == tuple(range(table.order))


def test_element_orders():
    table = GroupTable.close([Z3_GEN], 2)
    assert table.element_order(0) == 1
    assert table.element_order(1) == 3
    q8 = GroupTable.close([QUAT_I, QUAT_J], 2)
    minus_one = q8.index[diag(zp(1, 2), zp(1, 2))]
    assert q8.element_order(minus_one) == 2


@pytest.mark.parametrize("name", ["s3-perm", "q8", "s4-perm", "z2z2-diag"])
def test_lagrange(name):
    table = corpus_model(name).table
    for i in range(table.order):
        assert table.order % table.element_order(i) == 0


ORDER_SPECS = [corpus_spec(name) for name in CORPUS_NAMES] + [
    gmpn_spec(4, 1, 2),
    gmpn_spec(6, 2, 2),
    gmpn_spec(2, 1, 3),
    gmpn_spec(3, 1, 3),
]


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("doubled", [False, True], ids=["original", "doubled"])
def test_element_order_from_cycles_matches_row_walk(spec, doubled):
    gens = [g.double() for g in spec.generators] if doubled else list(spec.generators)
    dimension = 2 * spec.dimension if doubled else spec.dimension
    table = GroupTable.close(gens, dimension, cap=spec.max_group_order)
    orders = [table.element_order(i) for i in range(table.order)]
    assert built_rows(table) == [0]
    assert orders == [element_order_scan(table, i) for i in range(table.order)]


@given(monomial_generator_sets())
@settings(max_examples=60, deadline=None)
def test_element_order_from_cycles_matches_row_walk_on_random_groups(generated):
    n, gens = generated
    for generators, dimension in ((gens, n), ([g.double() for g in gens], 2 * n)):
        try:
            table = GroupTable.close(generators, dimension, cap=64)
        except ResourceCapError:
            continue
        for i in range(table.order):
            assert table.element_order(i) == element_order_scan(table, i)


# --- conjugacy classes ---

def test_abelian_classes_are_singletons():
    table = corpus_model("z4-13").table
    part = table.conjugacy_classes()
    assert all(len(c) == 1 for c in part.classes)


def test_s3_class_sizes():
    part = corpus_model("s3-perm").table.conjugacy_classes()
    assert sorted(len(c) for c in part.classes) == [1, 2, 3]
    # brute-force cross-check straight from the definition
    table = corpus_model("s3-perm").table
    for cls in part.classes:
        for g in cls:
            orbit = {table.conjugate(g, k) for k in range(table.order)}
            assert orbit == set(cls)


def test_q8_class_sizes():
    part = corpus_model("q8").table.conjugacy_classes()
    assert sorted(len(c) for c in part.classes) == [1, 1, 2, 2, 2]


def test_partition_covers_everything():
    table = corpus_model("s4-perm").table
    part = table.conjugacy_classes()
    seen = sorted(i for cls in part.classes for i in cls)
    assert seen == list(range(table.order))
    for cls, rep in zip(part.classes, part.representatives):
        assert rep == min(cls)
        for member in cls:
            assert part.class_of[member] == part.class_of[rep]


def conjugation_partition(table):
    """Classes straight from the definition: conjugate by every element."""
    classes = {
        tuple(sorted({table.conjugate(g, k) for k in range(table.order)}))
        for g in range(table.order)
    }
    return tuple(sorted(classes))


# conjugacy_classes walks each class under the generators only
@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES] + [gmpn_spec(4, 1, 2)],
    ids=lambda spec: spec.name,
)
def test_class_walk_matches_full_conjugation(spec):
    table = spec.close()
    assert table.conjugacy_classes().classes == conjugation_partition(table)


def test_class_walk_matches_full_conjugation_on_lazy_table():
    table = gmpn_spec(3, 1, 2).close()
    assert table.conjugacy_classes().classes == conjugation_partition(table)


# --- subgroup closure ---

def test_subgroup_closure_identity():
    table = corpus_model("s3-perm").table
    assert table.subgroup_closure([0]) == (0,)


def test_subgroup_closure_two_transpositions_generate_s3():
    table = corpus_model("s3-perm").table
    transpositions = [
        i for i in range(table.order) if table.element_order(i) == 2
    ]
    assert len(transpositions) == 3
    assert len(table.subgroup_closure(transpositions[:2])) == 6


def test_subgroup_closure_cyclic():
    table = GroupTable.close([Z3_GEN], 2)
    assert table.subgroup_closure([1]) == (0, 1, 2)


def test_subgroup_closure_is_closed_under_mult_and_inv():
    table = corpus_model("s4-perm").table
    sub = set(table.subgroup_closure([1, 5]))
    for a in sub:
        assert table.inverse_index[a] in sub
        for b in sub:
            assert table.mult(a, b) in sub


# --- doubling as a group map ---

@pytest.mark.parametrize("name", ["z3-11", "s3-perm", "q8"])
def test_doubling_is_bijective_homomorphism(name):
    model = corpus_model(name)
    table = model.table
    doubled = GroupTable.close(
        [g.double() for g in model.spec.generators], 2 * model.spec.dimension
    )
    assert doubled.order == table.order
    mapping = [doubled.index[e.double()] for e in table.elements]
    assert len(set(mapping)) == table.order
    for i in range(table.order):
        for j in range(table.order):
            assert mapping[table.mult(i, j)] == doubled.mult(mapping[i], mapping[j])


def test_doubling_preserves_conjugacy_classes():
    model = corpus_model("s3-perm")
    table = model.table
    doubled = GroupTable.close(
        [g.double() for g in model.spec.generators], 2 * model.spec.dimension
    )
    mapping = [doubled.index[e.double()] for e in table.elements]
    part = table.conjugacy_classes()
    dpart = doubled.conjugacy_classes()
    assert len(part) == len(dpart)
    for cls in part.classes:
        images = {mapping[g] for g in cls}
        assert images in [set(c) for c in dpart.classes]


def test_closure_is_deterministic():
    first = GroupTable.close(S3_GENS, 3)
    second = GroupTable.close(list(reversed(S3_GENS)), 3)
    assert first.elements == second.elements
    assert first.inverse_index == second.inverse_index
    assert first.gens == second.gens


# --- the coded closure against the MonomialMap breadth-first oracle ---

def assert_table_matches_oracle(table, generators, dimension, cap):
    oracle = closure_oracle(generators, dimension, cap)
    assert table.elements == oracle["elements"]
    assert table.index == oracle["index"]
    assert table.gens == oracle["gens"]
    assert table.inverse_index == oracle["inverse_index"]
    assert [tuple(table.row(i)) for i in range(table.order)] == oracle["rows"]


ORACLE_SPECS = [corpus_spec(name) for name in CORPUS_NAMES] + [
    gmpn_spec(4, 1, 2),
    gmpn_spec(6, 2, 2),
    gmpn_spec(2, 1, 3),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("doubled", [False, True], ids=["original", "doubled"])
def test_coded_closure_matches_monomial_oracle(spec, doubled):
    gens = [g.double() for g in spec.generators] if doubled else list(spec.generators)
    dimension = 2 * spec.dimension if doubled else spec.dimension
    table = GroupTable.close(gens, dimension, cap=spec.max_group_order)
    assert_table_matches_oracle(table, gens, dimension, spec.max_group_order)


@given(monomial_generator_sets())
@settings(max_examples=60, deadline=None)
def test_coded_closure_matches_monomial_oracle_on_random_groups(generated):
    n, gens = generated
    for generators, dimension in ((gens, n), ([g.double() for g in gens], 2 * n)):
        try:
            closure_oracle(generators, dimension, 32)
        except ResourceCapError:
            with pytest.raises(ResourceCapError):
                GroupTable.close(generators, dimension, cap=32)
            continue
        table = GroupTable.close(generators, dimension, cap=32)
        assert_table_matches_oracle(table, generators, dimension, 32)


def test_lazy_table_matches_monomial_composition():
    table = gmpn_spec(2, 1, 3).close()
    elements, index = table.elements, table.index
    for i, x in enumerate(elements):
        assert [elements[table.mult(i, j)] for j in range(table.order)] == [
            x * y for y in elements
        ]
        assert tuple(table.row(i)) == tuple(index[x * y] for y in elements)
        power, order = x, 1
        while not power.is_identity():
            power, order = power * x, order + 1
        assert table.element_order(i) == order
    for g in range(table.order):
        for h in range(g, table.order, 7):
            members = {elements[0]}
            frontier = [elements[0]]
            while frontier:
                y = frontier.pop()
                for s in (elements[g], elements[h]):
                    if y * s not in members:
                        members.add(y * s)
                        frontier.append(y * s)
            assert table.subgroup_closure((g, h)) == tuple(sorted(index[m] for m in members))


# "dense": every product row is built before the conjugation tables are read;
# "lazy": they are read first, and reading them builds no row
@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_generator_conjugation_tables(spec, lazy):
    table = spec.close()
    if not lazy:
        for i in range(table.order):
            table.row(i)
    conjugations = table.generator_conjugations
    assert built_rows(table) == ([0] if lazy else list(range(table.order)))
    assert conjugations == tuple(table.conjugation_permutation(s) for s in table.gens)
    assert table.generator_conjugations is conjugations


def test_close_lazy_mult_and_classes_form_no_monomial_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("MonomialMap composition")

    monkeypatch.setattr(MonomialMap, "__mul__", refuse)
    table = gmpn_spec(2, 1, 3).close()
    assert "elements" not in table.__dict__ and "index" not in table.__dict__
    assert built_rows(table) == [0]
    assert table.mult(5, 7) == table.row(5)[7]
    assert len(table.conjugacy_classes()) == 10


def test_inspect_derives_no_inverses_and_formats_only_representative_labels():
    model = OrbifoldModel(gmpn_spec(2, 1, 3))
    text = _inspect_text(model)
    assert "conjugacy classes: 10" in text
    assert "inverse_index" not in model.table.__dict__
    assert "labels" not in model.__dict__
    assert model.labels[:3] == ("e", "g1", "g2") and len(model.labels) == model.order


# --- the block walk of GroupTable.close ---

def block_bounds(table, size):
    """(start, end) of each block close walked, from the parents of the finished search.

    A block starts at i and holds the elements discovered by then, at most
    size of them; the search finds its elements in parent order, so those
    are the elements whose parent precedes i, and the identity.
    """
    parents = [p for p, _ in table._parent_gen[1:]]
    bounds = []
    i = 0
    while i < table.order:
        discovered = 1 + sum(1 for p in parents if p < i)
        end = min(i + size, discovered)
        bounds.append((i, end))
        i = end
    return bounds


def assert_products_by_generators_match_oracle(table, generators, dimension, cap):
    """assert_table_matches_oracle without the |G|^2 rows: each generator's column and row."""
    oracle = closure_oracle(generators, dimension, cap, rows=False)
    elements, index = oracle["elements"], oracle["index"]
    assert table.elements == elements
    assert table.index == index
    assert table.gens == oracle["gens"]
    assert table.inverse_index == oracle["inverse_index"]
    for s in table.gens:
        assert [table.mult(x, s) for x in range(table.order)] == [
            index[x * elements[s]] for x in elements
        ]
        assert list(table.row(s)) == [index[elements[s] * x] for x in elements]


@pytest.mark.parametrize("doubled", [False, True], ids=["original", "doubled"])
def test_closure_across_blocks_matches_monomial_oracle(doubled):
    spec = gmpn_spec(2, 1, 4)
    gens = [g.double() for g in spec.generators] if doubled else list(spec.generators)
    dimension = 2 * spec.dimension if doubled else spec.dimension
    table = GroupTable.close(gens, dimension, cap=spec.max_group_order)
    assert table.order == 384
    assert len(block_bounds(table, monomial._CLOSE_BLOCK)) > 3
    assert_products_by_generators_match_oracle(table, gens, dimension, spec.max_group_order)


# blocks of one element are the one-at-a-time search; blocks of three split
# every level of the search
@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_small_blocks_match_monomial_oracle(monkeypatch, spec, size):
    monkeypatch.setattr(monomial, "_CLOSE_BLOCK", size)
    table = spec.close()
    assert_table_matches_oracle(table, spec.generators, spec.dimension, spec.max_group_order)


@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES] + [gmpn_spec(2, 1, 3), gmpn_spec(2, 1, 4)],
    ids=lambda spec: spec.name,
)
def test_order_cap_boundary(spec):
    table = spec.close()
    order = table.order
    caps = [order - 1] if order > 1 else []
    # the last element whose discovering product has products of its block
    # on both sides, so the cap is hit mid-block
    bounds = block_bounds(table, monomial._CLOSE_BLOCK)
    starts = [start for start, _ in bounds]
    for c in range(order - 1, 1, -1):
        p, _ = table._parent_gen[c]
        start, end = bounds[bisect_right(starts, p) - 1]
        if start < p < end - 1:
            caps.append(c)
            break
    if order >= 48:
        assert len(caps) == 2
    for cap in caps:
        with pytest.raises(ResourceCapError) as raised:
            GroupTable.close(spec.generators, spec.dimension, cap=cap)
        with pytest.raises(ResourceCapError) as expected:
            closure_oracle(spec.generators, spec.dimension, cap, rows=False)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == f"group not closed within cap {cap} elements"
    assert GroupTable.close(spec.generators, spec.dimension, cap=order).order == order
