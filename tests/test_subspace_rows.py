"""Pair rows keyed by fixed subspace against the per-pair orbit walk.

SectorGeometry gives each element the id of its fixed subspace and walks one
pair of representatives per pair of distinct subspaces into the S x S table
subspace_pairs; an element's pair row is its subspace's line of that table,
gathered through the ids by subspace_rows().  Here the rows are compared with
pair_row_scan (one walk per pair) and, up to order 50, with the averaging
projector of the generated subgroup.  The ids must be canonical, the walks
must number exactly S(S+1)/2 for S distinct subspaces, subspace_rows() must
give one row per subspace, and the geometry must keep none of them.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import OrbifoldModel, OrbifoldSpec, SectorGeometry
from support import (
    CORPUS_NAMES,
    corpus_spec,
    fixed_dim_of_subgroup,
    gmpn_spec,
    monomial_maps,
    pair_row_scan,
)

PROJECTOR_ORDER = 50

SPECS = [corpus_spec(name) for name in CORPUS_NAMES] + [
    gmpn_spec(*mpn) for mpn in [(4, 1, 2), (6, 2, 2), (2, 1, 3), (5, 1, 2), (3, 1, 3), (4, 2, 3)]
]


@functools.lru_cache(maxsize=None)
def models(spec):
    """The model of spec and its cotangent model, built once per module."""
    model = OrbifoldModel(spec)
    return model, model.cotangent_model()


def assert_rows_match_scan(model):
    geometry = model.geometry
    table = model.table
    rows, ids = geometry.subspace_rows(), geometry.subspace_ids
    projected = {}
    for g in range(model.order):
        scan = pair_row_scan(geometry, g)
        assert rows[ids[g]] == scan, g
        assert [model.fixed_dim_pair(g, h) for h in range(model.order)] == list(scan), g
        if model.order <= PROJECTOR_ORDER:
            for h in range(g, model.order):
                members = table.subgroup_closure((g, h))
                if members not in projected:
                    projected[members] = fixed_dim_of_subgroup(geometry, members)
                assert scan[h] == projected[members], (g, h)


def assert_ids_canonical(geometry):
    ids, fixed = geometry.subspace_ids, geometry.fixed
    for g in range(geometry.table.order):
        scan = pair_row_scan(geometry, g)
        for h, same in enumerate(scan):
            assert (ids[g] == ids[h]) == (same == fixed[g] == fixed[h]), (g, h)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("side", ["original", "doubled"])
def test_keyed_rows_match_the_per_pair_scan(spec, side):
    model = models(spec)[side == "doubled"]
    assert_rows_match_scan(model)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("side", ["original", "doubled"])
def test_subspace_ids_are_canonical(spec, side):
    model = models(spec)[side == "doubled"]
    assert_ids_canonical(model.geometry)
    ids = model.geometry.subspace_ids
    # ids count up from 0 in order of first appearance
    first = [ids.index(s) for s in range(len(set(ids)))]
    assert first == sorted(first)


SMALL_BASES = [corpus_spec(name) for name in CORPUS_NAMES if name != "s4-perm"] + [
    gmpn_spec(4, 1, 2),
    gmpn_spec(2, 1, 3),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), spec=st.sampled_from(SMALL_BASES))
def test_keyed_rows_survive_a_monomial_basis_change(data, spec):
    # the same group written in another monomial basis: P^-1 g P for each generator
    change = data.draw(monomial_maps(dimension=spec.dimension))
    inverse = change.inverse()
    gens = tuple(inverse * g * change for g in spec.generators)
    model = OrbifoldModel(OrbifoldSpec(f"{spec.name}^P", spec.dimension, gens))
    assert model.order == models(spec)[0].order
    assert_rows_match_scan(model)
    assert_ids_canonical(model.geometry)
    # P maps fixed subspaces bijectively, so their number does not change
    assert len(set(model.geometry.subspace_ids)) == len(set(models(spec)[0].geometry.subspace_ids))


@pytest.mark.parametrize("mpn", [(2, 1, 4), (5, 1, 3)], ids=lambda mpn: "G(%d,%d,%d)" % mpn)
def test_filling_every_row_walks_each_pair_of_subspaces_at_most_once(monkeypatch, mpn):
    calls = []
    walk = SectorGeometry._common_fixed_dim

    def counted(self, g, h):
        calls.append((g, h))
        return walk(self, g, h)

    monkeypatch.setattr(SectorGeometry, "_common_fixed_dim", counted)
    model = OrbifoldModel(gmpn_spec(*mpn))
    for target in (model, model.cotangent_model()):
        geometry = target.geometry
        calls.clear()
        geometry.subspace_rows()
        geometry.subspace_rows()
        subspaces = len(set(geometry.subspace_ids))
        assert subspaces < target.order
        assert len(calls) == subspaces * (subspaces + 1) // 2
        # only subspace representatives are walked
        representatives = {geometry.subspace_ids.index(s) for s in range(subspaces)}
        assert {g for pair in calls for g in pair} <= representatives


@pytest.mark.parametrize("dw", [False, True], ids=["geometric", "dw"])
def test_elements_with_one_subspace_share_one_row(dw):
    # every element reads row ids[g]; each call gathers the rows afresh and
    # the geometry keeps none, so subspace_pairs is the one store
    model = OrbifoldModel(gmpn_spec(2, 1, 4), forget_geometry=dw)
    for target in (model, model.cotangent_model()):
        geometry = target.geometry
        rows = geometry.subspace_rows()
        assert len(rows) == len(set(geometry.subspace_ids))
        assert (len(rows) == 1) == dw
        kept = dict(vars(geometry))
        again = geometry.subspace_rows()
        assert again == rows
        assert not {id(row) for row in again} & {id(row) for row in rows}
        assert vars(geometry) == kept
