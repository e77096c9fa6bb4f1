"""Basis-change oracle: a spec conjugated by a monomial matrix gives isomorphic rings.

For a monomial matrix P, the spec with generators P^-1 g P is the same group
written in another basis of C^n.  g -> P^-1 g P is an isomorphism onto it
that keeps eigenvalues, so ages agree, and it maps V^g onto P^-1 V^g, so
fixed dimensions and the dimensions of V^g meet V^h agree.  So the element
map carries every sector degree and constant over, for the cr ring, the virt
ring and the doubled cr ring alike; it maps classes onto classes, and the
class rings agree under the induced class map.  Each check reads the element
map through the decoded maps alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import CR, VIRT, OrbifoldModel, OrbifoldSpec, run_full_verification
from support import CORPUS_NAMES, corpus_spec, gmpn_spec, monomial_maps

BASES = [corpus_spec(name) for name in CORPUS_NAMES if name != "s4-perm"] + [
    gmpn_spec(4, 1, 2),
    gmpn_spec(2, 1, 3),
]


def element_map(model, moved, change):
    """Index in moved of P^-1 g P for each element g of model.

    Asserts that the map is a bijection that carries products to products.
    """
    inverse = change.inverse()
    phi = [moved.table.index[inverse * g * change] for g in model.table.elements]
    assert sorted(phi) == list(range(moved.order))
    for x, y in enumerate(phi):
        row, moved_row = model.table.row(x), moved.table.row(y)
        assert [phi[xz] for xz in row] == [moved_row[z] for z in phi]
    return phi


def assert_same_ring(alg, moved, phi):
    """Degrees and constants agree under phi, on sectors and on class sums."""
    assert [moved.degrees[y] for y in phi] == list(alg.degrees)
    for x, y in enumerate(phi):
        assert bytes(moved.constants[y][z] for z in phi) == alg.constants[x]

    ring, moved_ring = alg.invariant_ring(), moved.invariant_ring()
    part, moved_part = alg.table.conjugacy_classes(), moved.table.conjugacy_classes()
    class_map = [moved_part.class_of[phi[rep]] for rep in part.representatives]
    assert sorted(class_map) == list(range(moved_ring.order))
    assert [moved_ring.degrees[c] for c in class_map] == list(ring.degrees)
    assert moved_ring.constants == {
        (class_map[a], class_map[b], class_map[c]): value
        for (a, b, c), value in ring.constants.items()
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=st.sampled_from(BASES), forget=st.booleans())
def test_rings_survive_a_monomial_basis_change(data, spec, forget):
    change = data.draw(monomial_maps(dimension=spec.dimension))
    inverse = change.inverse()
    gens = tuple(inverse * g * change for g in spec.generators)
    moved_spec = OrbifoldSpec(f"{spec.name}^P", spec.dimension, gens)
    model = OrbifoldModel(spec, forget_geometry=forget)
    moved = OrbifoldModel(moved_spec, forget_geometry=forget)
    phi = element_map(model, moved, change)
    for theory in (CR, VIRT):
        assert_same_ring(model.algebra(theory), moved.algebra(theory), phi)
    # element i of a cotangent model is the double of element i, so phi carries over
    assert_same_ring(
        model.cotangent_model().algebra(CR), moved.cotangent_model().algebra(CR), phi
    )
    assert run_full_verification(moved_spec, forget_geometry=forget).all_passed
