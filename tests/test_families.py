"""Classical invariants of the imprimitive reflection groups G(m, p, n).

The order is m^n n!/p (Shephard-Todd), and by Solomon's theorem the sum over
the group of t^(dim V^g) is the product of (t + d_i - 1) over the degrees
m, 2m, ..., (n-1)m, nm/p.  Both are computed here without the package and
compared with the closed group and its sector geometry.
"""

import contextlib
import hashlib
import io
import json
import math

import pytest

from orbring import OrbifoldModel, cli, run_full_verification
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


# sha256 of `orbring verify --format json` with every "millis" removed,
# recorded with the per-pair checks that the row-wise checks replaced; the
# reports must stay byte for byte the same above the benchmark's order 50
VERIFY_DIGESTS = {
    (3, 1, 3): "e5ef9c485347980443aae7b9a19d2218969e55f671fb65a89404d0886d50f050",
    (2, 1, 4): "7a167d4621d7bcf8bada1ffe063d16a4c575a335d0d2f0b225565a49cdd2b617",
}


@pytest.mark.parametrize("family", sorted(VERIFY_DIGESTS), ids=lambda f: "G({},{},{})".format(*f))
def test_verify_json_is_unchanged_beyond_order_50(family, tmp_path):
    path = tmp_path / "spec.json"
    gmpn_spec(*family).save(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(path), "--format", "json"]) == 0
    report = json.loads(out.getvalue())
    for check in report["checks"]:
        del check["millis"]
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGESTS[family]
