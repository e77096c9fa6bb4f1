"""Classical invariants of the imprimitive reflection groups G(m, p, n).

The order is m^n n!/p (Shephard-Todd), and by Solomon's theorem the sum over
the group of t^(dim V^g) is the product of (t + d_i - 1) over the degrees
m, 2m, ..., (n-1)m, nm/p.  Both are computed here without the package and
compared with the closed group and its sector geometry.
"""

import math

import pytest

from orbring import OrbifoldModel, run_full_verification
from support import gmpn_spec, poly_mul

FAMILIES = [(4, 1, 2), (6, 2, 2), (2, 1, 3), (3, 1, 3)]


def solomon_polynomial(m, p, n):
    degrees = [i * m for i in range(1, n)] + [n * m // p]
    product = [1]
    for d in degrees:
        product = poly_mul(product, [d - 1, 1])
    return product


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: "G({},{},{})".format(*f))
def test_order_and_solomon_polynomial(family):
    m, p, n = family
    model = OrbifoldModel(gmpn_spec(m, p, n))
    assert model.order == m**n * math.factorial(n) // p
    counts = [0] * (n + 1)
    for g in range(model.order):
        counts[model.sector(g).fixed_dim] += 1
    assert counts == solomon_polynomial(m, p, n)


def test_g313_full_verification_passes():
    report = run_full_verification(gmpn_spec(3, 1, 3))
    assert report.all_passed, [c for c in report.checks if not c.passed]
