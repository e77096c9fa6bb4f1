"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion here is exact (rational/integer equality, tolerance zero); the
stated wall-clock budgets are asserted alongside.  Run with -s to see the
per-criterion lines.
"""

import time
from fractions import Fraction

from orbring import (
    CR,
    VIRT,
    CyclotomicNumber,
    GroupTable,
    MonomialMap,
    OrbifoldModel,
    RationalPhase,
    cli,
    cyclotomic_polynomial,
    decomposition_check,
    grading_check,
    main_theorem_check,
    verify_algebra,
)
from support import (
    CORPUS_NAMES,
    class_convolution_oracle,
    corpus_path,
    corpus_spec,
    derived_pair,
    fixed_dim_of_subgroup,
    obstruction_rank,
    obstruction_rank_dual_form,
    poly_mul,
    x_power_minus_one,
)


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {title}{suffix}")


def test_criterion_1_grading_lemma():
    failures = []
    worst = 0.0
    for name in CORPUS_NAMES:
        start = time.perf_counter()
        model, doubled, bij = derived_pair(corpus_spec(name))
        mismatch = grading_check(model, doubled, bij)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if mismatch is not None:
            failures.append((name, mismatch))
        if elapsed >= 1.0:
            failures.append((name, f"took {elapsed:.2f} s, budget 1 s"))
    ok = not failures
    report(1, "grading lemma (doubled cr shift = virtual shift)", ok, f"max {worst * 1000:.0f} ms/spec")
    assert ok, failures


def test_criterion_2_main_theorem():
    failures = []
    worst = 0.0
    for name in CORPUS_NAMES:
        start = time.perf_counter()
        model, doubled, bij = derived_pair(corpus_spec(name))
        assert model.order <= 48
        mismatch = main_theorem_check(model, doubled, bij)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if mismatch is not None:
            failures.append((name, mismatch))
        if elapsed >= 10.0:
            failures.append((name, f"took {elapsed:.2f} s, budget 10 s"))
    ok = not failures
    report(2, "main theorem (doubled cr ring = virtual ring, sector and class level)", ok, f"max {worst * 1000:.0f} ms/spec")
    assert ok, failures


def test_criterion_3_bundle_decomposition():
    failures = []
    worst = 0.0
    for name in CORPUS_NAMES:
        start = time.perf_counter()
        model, doubled, bij = derived_pair(corpus_spec(name))
        mismatch = decomposition_check(model, doubled, bij)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if mismatch is not None:
            failures.append((name, mismatch))
        if elapsed >= 5.0:
            failures.append((name, f"took {elapsed:.2f} s, budget 5 s"))
    ok = not failures
    report(3, "bundle decomposition (rank additivity over all pairs)", ok, f"max {worst * 1000:.0f} ms/spec")
    assert ok, failures


def test_criterion_4_rank_oracle_agreement():
    failures = []
    for name in CORPUS_NAMES:
        model = OrbifoldModel(corpus_spec(name))
        for g in range(model.order):
            for h in range(model.order):
                direct = obstruction_rank(model, g, h)
                dual = obstruction_rank_dual_form(model, g, h)
                if direct != dual:
                    failures.append((name, g, h, direct, dual))
    ok = not failures
    report(4, "rank oracles agree (two independent formulas, all pairs)", ok)
    assert ok, failures


def test_criterion_5_algebra_axioms():
    failures = []
    worst = 0.0
    triples = 0
    for name in CORPUS_NAMES:
        start = time.perf_counter()
        model = OrbifoldModel(corpus_spec(name))
        assert model.order <= 24
        triples += 2 * model.order**3
        for theory in (CR, VIRT):
            result = verify_algebra(model.algebra(theory))
            if not result.passed:
                failures.append((name, theory, result.first_failure()))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if elapsed >= 30.0:
            failures.append((name, f"took {elapsed:.2f} s, budget 30 s"))
    ok = not failures
    report(
        5,
        "algebra axioms both theories (associativity, grading, unit, frobenius, nondegeneracy, equivariance)",
        ok,
        f"{triples} associativity triples, max {worst * 1000:.0f} ms/spec",
    )
    assert ok, failures


def test_criterion_6_dijkgraaf_witten_oracle():
    failures = []
    for name in ("s3-perm", "q8", "s4-perm"):
        model = OrbifoldModel(corpus_spec(name), forget_geometry=True)
        inv = model.algebra(CR).invariant_ring()
        oracle = class_convolution_oracle(model.table)
        if inv.constants != oracle:
            failures.append((name, "constants differ from convolution oracle"))
        if name == "s3-perm":
            part = model.table.conjugacy_classes()
            c = next(
                cid
                for cid, cls in enumerate(part.classes)
                if model.table.element_order(cls[0]) == 3
            )
            if not (
                inv.constant(c, c, 0) == 2
                and inv.constant(c, c, c) == 1
                and all(
                    inv.constant(c, c, other) == 0
                    for other in range(inv.order)
                    if other not in (0, c)
                )
            ):
                failures.append((name, "y_C^2 != 2 y_E + y_C"))
    ok = not failures
    report(6, "point model matches the group-ring center (S3, Q8, S4)", ok)
    assert ok, failures


def test_criterion_7_manifold_case():
    model, doubled, bij = derived_pair(corpus_spec("trivial-c2"))
    ok = (
        model.order == 1
        and doubled.order == 1
        and model.algebra(VIRT).constants == (b"\x01",)
        and model.algebra(VIRT).degrees == (Fraction(0),)
        and doubled.algebra(CR).constants == (b"\x01",)
        and doubled.algebra(CR).degrees == (Fraction(0),)
        and main_theorem_check(model, doubled, bij) is None
    )
    report(7, "trivial group: both sides are the one-dimensional unit algebra", ok)
    assert ok


def test_criterion_8_age_duality():
    failures = []
    for name in CORPUS_NAMES:
        model = OrbifoldModel(corpus_spec(name))
        for g in range(model.order):
            g_inv = model.table.inverse_index[g]
            sector = model.sector(g)
            if sector.age + model.sector(g_inv).age != model.n - sector.fixed_dim:
                failures.append((name, g))
    ok = not failures
    report(8, "age duality a(g) + a(g^-1) = codim V^g, every element", ok)
    assert ok, failures


def test_criterion_9_cyclotomic_kernel():
    failures = []
    for n in range(1, 61):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, list(cyclotomic_polynomial(d)))
        if product != x_power_minus_one(n):
            failures.append(f"Phi reconstruction failed at N={n}")
    for n in range(2, 13):
        total = sum(
            (CyclotomicNumber.from_phase(RationalPhase(k, n)) for k in range(n)),
            CyclotomicNumber.zero(),
        )
        if total.as_rational() != 0:
            failures.append(f"root-of-unity sum nonzero at N={n}")
    pairs = 0
    for name in CORPUS_NAMES:
        model = OrbifoldModel(corpus_spec(name))
        for g in range(model.order):
            for h in range(model.order):
                members = model.table.subgroup_closure((g, h))
                # raises if the projector's trace is not an integer in [0, n]
                value = fixed_dim_of_subgroup(model.geometry, members)
                if not 0 <= value <= model.n:
                    failures.append((name, g, h, value))
                if value != model.fixed_dim_pair(g, h):
                    failures.append((name, g, h, value, model.fixed_dim_pair(g, h)))
                pairs += 1
    ok = not failures
    report(9, "cyclotomic kernel (Phi products, zeta sums, projector integrality and agreement)", ok, f"{pairs} pairs")
    assert ok, failures


def test_criterion_10_performance():
    failures = []
    gens = [
        MonomialMap((0, 1), (RationalPhase(1, 100), RationalPhase(0))),
        MonomialMap((0, 1), (RationalPhase(0), RationalPhase(1, 100))),
    ]
    start = time.perf_counter()
    table = GroupTable.close(gens, 2, cap=10000)
    closure_s = time.perf_counter() - start
    if table.order != 10000:
        failures.append(f"Z100xZ100 closed to {table.order}, expected 10000")
    if closure_s >= 5.0:
        failures.append(f"order-10^4 closure took {closure_s:.2f} s, budget 5 s")

    start = time.perf_counter()
    for name in CORPUS_NAMES:
        code = cli.main(["verify", str(corpus_path(name))])
        if code != 0:
            failures.append(f"cmd_verify exit {code} on {name}")
    verify_s = time.perf_counter() - start
    if verify_s >= 60.0:
        failures.append(f"full corpus verify took {verify_s:.2f} s, budget 60 s")
    ok = not failures
    report(
        10,
        "performance (order-10^4 closure, full corpus verify)",
        ok,
        f"closure {closure_s:.2f} s, corpus verify {verify_s:.2f} s",
    )
    assert ok, failures
