"""Künneth oracle: the rings of a product orbifold are the tensor products of the factors'.

For specs A on C^a and B on C^b, the block-diagonal spec A x B on C^(a+b)
gives [C^a/G_A] x [C^b/G_B].  Ages, fixed dimensions and pair fixed
dimensions add over the two blocks.  Each block's bundle rank is a
nonnegative integer, so the sum is zero exactly when both are, and
V^g meet V^h lies in V^gh in each block, so the codimension gate passes
exactly when it passes in both.  So degrees add and every sector constant
is the product of the factors' constants, for the cr ring, the virt ring and
the doubled cr ring alike.  Conjugacy classes of G_A x G_B are the products
of the factors' classes, and the class sums multiply factor by factor, so
the class rings are tensor products too.  Each check here reads the
factors' rings and the product's through the decoded maps alone.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbring import (
    CR,
    VIRT,
    MonomialMap,
    OrbifoldModel,
    OrbifoldSpec,
    RationalPhase,
    run_full_verification,
)
from support import CORPUS_NAMES, corpus_model, corpus_spec, gmpn_spec


def product_spec(spec_a, spec_b):
    """A x B on C^(a+b), from the factors' generators padded with the identity block."""
    a, b = spec_a.dimension, spec_b.dimension
    zero = RationalPhase(0)
    gens = [
        MonomialMap(g.perm + tuple(range(a, a + b)), g.phases + (zero,) * b)
        for g in spec_a.generators
    ]
    gens += [
        MonomialMap(tuple(range(a)) + tuple(a + p for p in g.perm), (zero,) * a + g.phases)
        for g in spec_b.generators
    ]
    return OrbifoldSpec(f"{spec_a.name}x{spec_b.name}", a + b, gens)


def factor_split(product, model_a, model_b):
    """Each product element's (index in A, index in B), read from its decoded map.

    Asserts that the split is a bijection onto A x B and carries products to
    products.
    """
    a = model_a.table.dimension
    split = []
    for x in product.table.elements:
        left = MonomialMap(x.perm[:a], x.phases[:a])
        right = MonomialMap(tuple(p - a for p in x.perm[a:]), x.phases[a:])
        split.append((model_a.table.index[left], model_b.table.index[right]))
    pairs = itertools.product(range(model_a.order), range(model_b.order))
    assert sorted(split) == list(pairs)
    for x, (xa, xb) in enumerate(split):
        row, row_a, row_b = product.table.row(x), model_a.table.row(xa), model_b.table.row(xb)
        assert [split[xy] for xy in row] == [(row_a[ya], row_b[yb]) for ya, yb in split]
    return split


def assert_tensor_product(alg, alg_a, alg_b, split):
    """Degrees add and constants multiply, on sectors and on class sums."""
    assert list(alg.degrees) == [alg_a.degrees[xa] + alg_b.degrees[xb] for xa, xb in split]
    for x, (xa, xb) in enumerate(split):
        row_a, row_b = alg_a.constants[xa], alg_b.constants[xb]
        assert alg.constants[x] == bytes(row_a[ya] * row_b[yb] for ya, yb in split)

    ring, ring_a, ring_b = alg.invariant_ring(), alg_a.invariant_ring(), alg_b.invariant_ring()
    part = alg.table.conjugacy_classes()
    class_a, class_b = alg_a.table.conjugacy_classes(), alg_b.table.conjugacy_classes()
    assert ring.order == ring_a.order * ring_b.order
    pair_of = [
        (class_a.class_of[split[rep][0]], class_b.class_of[split[rep][1]])
        for rep in part.representatives
    ]
    assert sorted(pair_of) == list(itertools.product(range(ring_a.order), range(ring_b.order)))
    class_of = {pair: c for c, pair in enumerate(pair_of)}
    assert list(ring.degrees) == [
        ring_a.degrees[ca] + ring_b.degrees[cb] for ca, cb in pair_of
    ]
    expected = {
        (class_of[aa, ab], class_of[ba, bb], class_of[ca, cb]): va * vb
        for (aa, ba, ca), va in ring_a.constants.items()
        for (ab, bb, cb), vb in ring_b.constants.items()
    }
    assert ring.constants == expected


def assert_kunneth(spec_a, spec_b, forget, model_a=None, model_b=None):
    model_a = model_a or OrbifoldModel(spec_a, forget_geometry=forget)
    model_b = model_b or OrbifoldModel(spec_b, forget_geometry=forget)
    spec = product_spec(spec_a, spec_b)
    product = OrbifoldModel(spec, forget_geometry=forget)
    split = factor_split(product, model_a, model_b)
    for theory in (CR, VIRT):
        assert_tensor_product(
            product.algebra(theory), model_a.algebra(theory), model_b.algebra(theory), split
        )
    # element i of a cotangent model is the double of element i, so the split carries over
    assert_tensor_product(
        product.cotangent_model().algebra(CR),
        model_a.cotangent_model().algebra(CR),
        model_b.cotangent_model().algebra(CR),
        split,
    )
    assert run_full_verification(spec, forget_geometry=forget).all_passed


FORGET = pytest.mark.parametrize("forget", [False, True], ids=["geometry", "dw"])


@FORGET
@pytest.mark.parametrize(
    "names", [("z3-11", "s3-perm"), ("z4-13", "q8"), ("s3-perm", "s3-perm"), ("q8", "z2-c1")]
)
def test_kunneth_on_corpus_pairs(names, forget):
    a, b = names
    assert_kunneth(
        corpus_spec(a), corpus_spec(b), forget, corpus_model(a, forget), corpus_model(b, forget)
    )


@FORGET
def test_kunneth_with_a_reflection_group_factor(forget):
    # G(2,1,2) has a class of reflections and a central -1; z3-12 acts with ages 1
    assert_kunneth(gmpn_spec(2, 1, 2), corpus_spec("z3-12"), forget)


@settings(max_examples=25, deadline=None)
@given(
    a=st.sampled_from(CORPUS_NAMES),
    b=st.sampled_from(CORPUS_NAMES),
    forget=st.booleans(),
)
def test_kunneth_on_drawn_corpus_pairs(a, b, forget):
    assume((a, b) != ("s4-perm", "s4-perm"))  # order 576 makes the per-pair asserts slow
    assert_kunneth(
        corpus_spec(a), corpus_spec(b), forget, corpus_model(a, forget), corpus_model(b, forget)
    )
