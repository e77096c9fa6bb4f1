"""The doubled table derived from the original, and the integer composition behind check_group.

OrbifoldModel.cotangent_model derives the doubled group's table from the
original's instead of closing the doubled generators again.  An independent
closure of those generators must hold the same elements, and sector_bijection
into it must be a bijection, and a derived code that does not compose along
the search parents must be refused.  check_group and doubled compose codes
with _products; MonomialMap.__mul__ is the oracle for that composition, on
both sides.  check_group builds no product row, and row keeps every row its
parent walk builds, so each row is gathered once in any order of reads.
"""

import copy
import functools
import math
import random
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import (
    CR,
    DIMENSION_CAP,
    VIRT,
    ConsistencyError,
    GroupTable,
    MonomialMap,
    OrbifoldModel,
    ResourceCapError,
    cotangent_double,
    sector_bijection,
)
from orbring import monomial
from orbring.cotangent import closure_sanity_check
from orbring.cyclotomic import RationalPhase
from orbring.monomial import _encode, _products
from support import (
    CORPUS_NAMES,
    built_rows,
    closure_sanity_scan,
    corpus_spec,
    element_order_scan,
    gmpn_spec,
    group_fact_by_rows,
    monomial_generator_sets,
    monomial_maps,
    sector_bijection_scan,
)

SPECS = [corpus_spec(name) for name in CORPUS_NAMES] + [
    gmpn_spec(m, p, n) for m, p, n in ((4, 1, 2), (6, 2, 2), (2, 1, 3), (5, 1, 2), (2, 1, 4))
]


@pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_derived_table_holds_the_closed_doubled_group(spec, forget):
    model = OrbifoldModel(spec, forget_geometry=forget)
    derived = model.cotangent_model().table
    closed = GroupTable.close(
        cotangent_double(spec).generators, 2 * spec.dimension, cap=spec.max_group_order
    )
    assert set(derived.codes) == set(closed.codes)
    assert derived.codes == closed.codes  # the same breadth-first order, too
    bijection = sector_bijection(model.table, closed)
    assert sorted(bijection) == list(range(model.order))
    assert sector_bijection(model.table, derived) == tuple(range(model.order))


@given(monomial_generator_sets())
@settings(max_examples=60, deadline=None)
def test_derived_table_holds_the_closed_doubled_group_on_random_groups(generated):
    n, gens = generated
    try:
        table = GroupTable.close(gens, n, cap=64)
    except ResourceCapError:
        return
    doubles = [g.double() for g in gens]
    closed = GroupTable.close(doubles, 2 * n)
    derived = table.doubled(doubles)
    assert derived.codes == closed.codes
    assert [derived.row(i) for i in range(derived.order)] == [
        closed.row(i) for i in range(closed.order)
    ]


@given(monomial_generator_sets())
@settings(max_examples=40, deadline=None)
def test_check_group_and_its_stored_row_oracle_hold_on_random_groups(generated):
    n, gens = generated
    try:
        table = GroupTable.close(gens, n, cap=64)
    except ResourceCapError:
        return
    derived = table.doubled([g.double() for g in gens])
    assert group_fact_by_rows(copy.deepcopy(table))
    assert table.check_group() and derived.check_group()
    assert built_rows(table) == [0]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_derived_table_shares_the_index_tables(spec):
    model = OrbifoldModel(spec)
    table = model.table
    # decoded before the derivation, so the view must not keep them
    assert table.index == {element: i for i, element in enumerate(table.elements)}
    derived = model.cotangent_model().table
    assert derived is not table and derived.shares_group_with(table)
    # the view owns its codes, their dimension and what it decodes from them
    own = {name for name, value in vars(derived).items() if value is not vars(table).get(name)}
    assert own == {"dimension", "codes"}
    assert derived.dimension == 2 * table.dimension
    assert derived.conductor == table.conductor
    assert derived.gens == table.gens and derived.inverse_index is table.inverse_index
    assert derived.generator_conjugations is table.generator_conjugations
    assert derived.conjugacy_classes() is table.conjugacy_classes()
    # a row built through one table is the other's row object
    last = model.order - 1
    assert derived.row(last) is table.row(last)
    assert derived.elements == [element.double() for element in table.elements]
    assert sector_bijection_scan(table, derived) == tuple(range(model.order))


# inverse_index is derived once per group, on the first read through either
# table, and kept in the caches the two tables share
@pytest.mark.parametrize("read_first", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_derived_inverses_match_whenever_the_original_reads_its_own(spec, read_first):
    table = spec.close()
    if read_first:
        inverses = table.inverse_index
    derived = table.doubled(cotangent_double(spec).generators)
    assert ("inverses" in derived._shared) is read_first
    if not read_first:
        assert "inverses" not in table._shared
        inverses = table.inverse_index
    assert derived.inverse_index is inverses is table.inverse_index
    assert all(table.mult(x, y) == 0 for x, y in enumerate(inverses))


def test_derived_table_refuses_generators_that_are_not_the_doubles():
    table = corpus_spec("z3-11").close()
    with pytest.raises(ConsistencyError, match="not the doubles"):
        table.doubled(cotangent_double(corpus_spec("z3-12")).generators)
    with pytest.raises(ConsistencyError, match="not the doubles"):
        table.doubled(corpus_spec("z3-11").generators)


@pytest.mark.parametrize(
    "spec", [gmpn_spec(4, 1, 2), corpus_spec("trivial-c2")], ids=lambda spec: spec.name
)
def test_derived_table_refuses_a_derived_code_off_its_parents(monkeypatch, spec):
    # the generators' doubles pass the cross-check, but the last element's
    # double is written backwards: off its parent's composed with its
    # generator's, or, for the trivial group, not the identity
    table = spec.close()
    victim = table.codes[-1]
    assert table.order - 1 not in table.gens
    double = monomial._double

    def corrupted(code, n, conductor):
        doubled = double(code, n, conductor)
        return doubled[::-1] if code == victim else doubled

    monkeypatch.setattr(monomial, "_double", corrupted)
    with pytest.raises(ConsistencyError, match="do not compose along the search parents"):
        OrbifoldModel(spec).cotangent_model()


def test_derived_table_keeps_the_dimension_cap():
    half = DIMENSION_CAP // 2
    assert GroupTable.close([], half).doubled([]).dimension == DIMENSION_CAP
    with pytest.raises(ResourceCapError, match=f"dimension {DIMENSION_CAP + 2} exceeds"):
        GroupTable.close([], half + 1).doubled([])


def test_check_group_verdict_is_shared_with_the_derived_table():
    model = OrbifoldModel(corpus_spec("s3-perm"))
    doubled = model.cotangent_model()
    assert closure_sanity_check(model) is None
    assert doubled.table.is_group_table()
    # a row swap seen by both tables; check_group decides it afresh for both
    row = list(model.table.row(1))
    row[0], row[1] = row[1], row[0]
    model.table._rows[1] = tuple(row)
    assert not doubled.table.check_group()
    assert not model.table.is_group_table()


def test_check_group_builds_no_gatherer_per_row(monkeypatch):
    # the rows are pinned through the left tables and the gathers made from
    # them once per generator, so check_group gathers no row and builds no
    # gatherer per row
    table = gmpn_spec(2, 1, 3).close()
    built = []
    gatherer = monomial._gatherer

    def counted(indices):
        built.append(len(indices))
        return gatherer(indices)

    monkeypatch.setattr(monomial, "_gatherer", counted)
    assert table.check_group()
    assert built_rows(table) == [0]
    assert len(built) < table.order == 48


def counted_gathers(table):
    """Wraps the table's row gathers; returns the list each gather appends its generator to."""
    calls = []

    def counting(k, gather):
        return lambda row: calls.append(k) or gather(row)

    table._gathers = [counting(k, gather) for k, gather in enumerate(table._gathers)]
    return calls


@pytest.mark.parametrize("read", ["reversed", "shuffled"])
@pytest.mark.parametrize(
    "spec", [gmpn_spec(4, 1, 2), gmpn_spec(2, 1, 3), gmpn_spec(3, 1, 3)], ids=lambda s: s.name
)
def test_rows_read_in_any_order_are_each_gathered_once(spec, read):
    table = spec.close()
    intact = spec.close()
    calls = counted_gathers(table)
    order = list(range(table.order))
    if read == "reversed":
        order.reverse()
    else:
        random.Random(table.order).shuffle(order)
    for i in order:
        assert table.row(i) == tuple(map(intact.mult, repeat(i), range(intact.order)))
    assert len(calls) == table.order - 1
    assert built_rows(table) == list(range(table.order))


@pytest.mark.parametrize(
    "spec", [gmpn_spec(4, 1, 2), gmpn_spec(2, 1, 3)], ids=lambda spec: spec.name
)
@pytest.mark.parametrize("theory", [CR, VIRT])
def test_class_ring_builds_only_the_representatives_walks(spec, theory):
    # every built row is a class representative's or on its parent walk
    model = OrbifoldModel(spec)
    table = model.table
    model.class_ring(theory)
    walks = set()
    for r in table.conjugacy_classes().representatives:
        while r not in walks:
            walks.add(r)
            r = max(table._parent_gen[r][0], 0)
    assert set(built_rows(table)) <= walks
    assert len(built_rows(table)) < table.order


# --- the integer composition of check_group against MonomialMap.__mul__ ---

@st.composite
def composable_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return draw(monomial_maps(dimension=n)), draw(monomial_maps(dimension=n))


@given(
    st.lists(composable_pairs(), min_size=1, max_size=3), st.integers(min_value=1, max_value=3)
)
@settings(max_examples=200, deadline=None)
def test_integer_composition_equals_monomial_product(pairs, multiple):
    # x*s for every x of a list, and s*x with the roles exchanged, against
    # MonomialMap.__mul__
    s = pairs[0][1]
    xs = [x for x, _ in pairs if x.dimension == s.dimension]
    n = s.dimension
    phases = [p for m in xs + [s] for p in m.phases]
    conductor = math.lcm(1, *(p.denominator for p in phases)) * multiple
    code = functools.partial(_encode, n=n, conductor=conductor)
    assert _products(map(code, xs), code(s), n, conductor) == [
        c for x in xs for c in code(x * s)
    ]
    for x in xs:
        assert _products([code(s)], code(x), n, conductor) == list(code(s * x))


def test_encode_refuses_a_phase_off_the_conductor():
    m = MonomialMap((1, 0), (RationalPhase(1, 2), RationalPhase(1, 3)))
    assert _encode(m, 2, 6) == (3 * 2 + 1, 2 * 2 + 0)
    assert _encode(m, 2, 3) is None


def test_closure_sanity_with_a_phase_off_the_conductor_matches_scan():
    # z3-11 has conductor 3; an element with a phase 1/2 has no code, so
    # check_group answers False and the MonomialMap scan decides
    model = OrbifoldModel(corpus_spec("z3-11"))
    elements = model.table.elements
    elements[1] = MonomialMap((0, 1), (RationalPhase(1, 2), RationalPhase(1, 3)))
    expected = closure_sanity_scan(model)
    assert expected == {
        "problem": "multiplication table disagrees with composition",
        "pair": ["g1", "g1"],
    }
    assert closure_sanity_check(model) == expected
    assert not model.table.is_group_table()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_a_derived_table_walks_the_cycles_of_its_own_codes(spec):
    # the original's kept cycles are read first, so a view that shared them
    # would report the original's orders and sectors
    model = OrbifoldModel(spec)
    table = model.table
    for i in range(table.order):
        table.element_order(i)
        model.sector(i)
    doubled = model.cotangent_model()
    derived = doubled.table
    assert [derived.element_order(i) for i in range(derived.order)] == [
        element_order_scan(derived, i) for i in range(derived.order)
    ]
    walked = [doubled.sector(i) for i in range(derived.order)]
    for i in range(derived.order):
        assert sum(len(steps) for steps, _ in derived.cycles(i)) == 2 * spec.dimension
    doubled.geometry.ages  # from here on sector reads the arrays
    assert walked == [doubled.sector(i) for i in range(derived.order)]
    closed = OrbifoldModel(cotangent_double(spec))
    assert walked == [closed.sector(j) for j in sector_bijection(table, closed.table)]
