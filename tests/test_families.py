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
from support import CORPUS_NAMES, corpus_path, gmpn_spec, poly_mul

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


# sha256 of `orbring ring --basis class` in table format, for theory cr then
# virt, each without and then with --dw, concatenated; recorded before the
# class-sum text was grouped by (a, b) in one sort
CLASS_TEXT_DIGESTS = {
    "q8": "5c92ee21e3b5e5a32daad40f30cb41030c2e9022f738479ba2fde49fbf4330e1",
    "s3-perm": "7b72f4e7cfb03cfa713f116e20dc6853251c6f1cd1b41e83d1eddd7a1e7750e9",
    "s4-perm": "a628241be461496d3e51886de6531d93d7c85094bb72c0a31b638872284ae5b3",
    "trivial-c2": "75755627b7b0d9bee2896035d2d3c5ece131907134c7a23ede1dc3e68046b72c",
    "z2-c1": "bdfbfa52eb600b6f2403754267e14bf846cf0384a288ea38ab4f9a601d99dd8e",
    "z2z2-diag": "ed4411a1a1f360f19e46014b8d396e6174e5c1f24e8e86c096d162cc001290cd",
    "z3-11": "c981591da939d5674e07686ab0076494a7f8769491e53eff4d1fe42b8cec790a",
    "z3-12": "93d05a64ee721e530207ca30533aa3bf320190df67dfa9e621845f49c2b24b7e",
    "z4-13": "5ec7b5e05dbf7d5e5df1d0e0f98b9e8430ba75d81e461e0d30d008e48f976a0e",
    "G(6,1,2)": "6ad91973b7080b7950d1498ebb9d75c12380111d5084da815fe2ad72da1b3fcf",
}


@pytest.mark.parametrize("name", sorted(CLASS_TEXT_DIGESTS))
def test_class_ring_text_is_unchanged(name, tmp_path):
    if name in CORPUS_NAMES:
        path = corpus_path(name)
    else:
        path = tmp_path / "spec.json"
        gmpn_spec(6, 1, 2).save(path)
    digest = hashlib.sha256()
    for theory in ("cr", "virt"):
        for dw in ([], ["--dw"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["ring", str(path), "--basis", "class", "--theory", theory, *dw]) == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == CLASS_TEXT_DIGESTS[name]
