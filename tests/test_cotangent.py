import pytest

from hypothesis import given, settings

from orbring import (
    CR,
    VIRT,
    ConsistencyError,
    GroupTable,
    OrbifoldModel,
    OrbifoldSpec,
    ResourceCapError,
    cotangent_double,
    decomposition_check,
    grading_check,
    k_rank,
    main_theorem_check,
    run_full_verification,
    sector_bijection,
)
from support import (
    CORPUS_NAMES,
    corpus_model,
    corpus_spec,
    gmpn_spec,
    monomial_generator_sets,
    sector_bijection_scan,
)


def doubled_and_bijection(name, forget=False):
    model = corpus_model(name, forget=forget)
    doubled = model.cotangent_model()
    return model, doubled, sector_bijection(model.table, doubled.table)


# --- the doubled spec itself ---

def test_cotangent_double_z3():
    doubled = cotangent_double(corpus_spec("z3-11"))
    assert doubled.name == "z3-11-cotangent"
    assert doubled.dimension == 4
    (gen,) = doubled.generators
    assert gen.perm == (0, 1, 2, 3)
    assert [str(p) for p in gen.phases] == ["1/3", "1/3", "2/3", "2/3"]


def test_cotangent_double_trivial():
    doubled = cotangent_double(corpus_spec("trivial-c2"))
    assert doubled.dimension == 4
    assert doubled.generators == ()


def test_sector_bijection_is_total():
    model, doubled, bij = doubled_and_bijection("s4-perm")
    assert sorted(bij) == list(range(model.order))
    for i in range(model.order):
        assert doubled.table.elements[bij[i]] == model.table.elements[i].double()


@pytest.mark.parametrize(
    "spec",
    [corpus_spec(name) for name in CORPUS_NAMES]
    + [gmpn_spec(4, 1, 2), gmpn_spec(6, 2, 2), gmpn_spec(2, 1, 3), gmpn_spec(5, 1, 2)],
    ids=lambda spec: spec.name,
)
def test_sector_bijection_from_codes_matches_monomial_lookup(spec):
    original = spec.close()
    doubled = cotangent_double(spec).close()
    bijection = sector_bijection(original, doubled)
    assert "elements" not in vars(original) and "elements" not in vars(doubled)
    assert bijection == sector_bijection_scan(original, doubled)


@given(monomial_generator_sets())
@settings(max_examples=60, deadline=None)
def test_sector_bijection_from_codes_matches_monomial_lookup_on_random_groups(generated):
    n, gens = generated
    try:
        original = GroupTable.close(gens, n, cap=64)
    except ResourceCapError:
        return
    doubled = GroupTable.close([g.double() for g in gens], 2 * n)
    assert sector_bijection(original, doubled) == sector_bijection_scan(original, doubled)


def bijection_outcomes(original, doubled):
    outcomes = []
    for bijection in (sector_bijection, sector_bijection_scan):
        with pytest.raises(ConsistencyError) as caught:
            bijection(original, doubled)
        outcomes.append(str(caught.value))
    return outcomes


def test_sector_bijection_reports_a_missing_element_as_the_scan_does():
    # z3-12 doubled has order 3 too, but not the double of z3-11's g1
    spec, other = corpus_spec("z3-11"), corpus_spec("z3-12")
    code, scan = bijection_outcomes(spec.close(), cotangent_double(other).close())
    assert code == scan and "missing from closure" in code


def test_sector_bijection_reports_a_different_order_as_the_scan_does():
    original = corpus_spec("z3-11").close()
    doubled = cotangent_double(corpus_spec("s3-perm")).close()
    code, scan = bijection_outcomes(original, doubled)
    assert code == scan == "doubled group has order 6, original 3"


def test_sector_bijection_reports_a_non_injective_map_as_the_scan_does():
    # one code copied onto another: two indices double to the same element
    spec = corpus_spec("s3-perm")
    outcomes = []
    for bijection in (sector_bijection, sector_bijection_scan):
        original = spec.close()
        original.codes[2] = original.codes[1]
        with pytest.raises(ConsistencyError) as caught:
            bijection(original, cotangent_double(spec).close())
        outcomes.append(str(caught.value))
    assert outcomes == ["doubling map is not injective on sector indices"] * 2


# --- grading lemma ---

def test_grading_z3_by_hand():
    model, doubled, bij = doubled_and_bijection("z3-11")
    # doubled age of g: 1/3 + 1/3 + 2/3 + 2/3 = 2, so s = 4 = sigma
    assert doubled.sector(bij[1]).age == 2
    assert doubled.sector(bij[1]).cr_shift == 4 == model.sector(1).virtual_shift


def test_grading_s3_transposition_by_hand():
    model, doubled, bij = doubled_and_bijection("s3-perm")
    tau = next(i for i in range(6) if model.table.element_order(i) == 2)
    assert doubled.sector(bij[tau]).age == 1
    assert doubled.sector(bij[tau]).cr_shift == 2 == model.sector(tau).virtual_shift


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_grading_check_passes(name):
    model, doubled, bij = doubled_and_bijection(name)
    assert grading_check(model, doubled, bij) is None


# --- k rank and bundle decomposition ---

def test_k_rank_examples():
    model = corpus_model("z3-11")
    assert k_rank(model, 0, 0) == 0
    assert k_rank(model, 1, 2) == 0 - 2  # pair fixes nothing, product is e
    s3 = corpus_model("s3-perm")
    taus = [i for i in range(6) if s3.table.element_order(i) == 2]
    assert k_rank(s3, taus[0], taus[1]) == 0


def test_k_rank_never_positive():
    # V^{<g,h>} sits inside V^{gh}, so the difference bundle has rank <= 0
    for name in CORPUS_NAMES:
        model = corpus_model(name)
        for g in range(model.order):
            for h in range(model.order):
                assert k_rank(model, g, h) <= 0


def test_decomposition_z3_pairs_by_hand():
    model, doubled, bij = doubled_and_bijection("z3-11")
    # (g, g): doubled obstruction 2 + 2 - 2 - 0 + 0 = 2 = excess 2 + k 0
    assert doubled.obstruction_rank(bij[1], bij[1]) == 2
    assert model.excess_rank(1, 1) == 2 and k_rank(model, 1, 1) == 0
    # (g, g^2): doubled obstruction 2 + 2 - 0 - 4 + 0 = 0 = excess 2 + k (-2)
    assert doubled.obstruction_rank(bij[1], bij[2]) == 0
    assert model.excess_rank(1, 2) == 2 and k_rank(model, 1, 2) == -2


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_decomposition_check_passes(name):
    model, doubled, bij = doubled_and_bijection(name)
    assert decomposition_check(model, doubled, bij) is None


# --- main theorem ---

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_main_theorem_check_passes(name):
    model, doubled, bij = doubled_and_bijection(name)
    assert main_theorem_check(model, doubled, bij) is None


def test_main_theorem_tables_z3_by_hand():
    model, doubled, bij = doubled_and_bijection("z3-11")
    virt = model.algebra(VIRT)
    cr_doubled = doubled.algebra(CR)
    for g in range(3):
        for h in range(3):
            assert cr_doubled.constant(bij[g], bij[h]) == virt.constant(g, h)
    # the nontrivial mixed products all die, units survive
    assert virt.constant(1, 1) == 0
    assert cr_doubled.constant(bij[1], bij[1]) == 0


def test_main_theorem_trivial_group_is_homotopy_invariance():
    model, doubled, bij = doubled_and_bijection("trivial-c2")
    assert model.order == doubled.order == 1
    assert main_theorem_check(model, doubled, bij) is None
    assert model.algebra(VIRT).constants == (b"\x01",)
    assert doubled.algebra(CR).constants == (b"\x01",)


@pytest.mark.parametrize("name", ["s3-perm", "q8", "s4-perm"])
def test_main_theorem_is_tautology_in_dw_mode(name):
    model, doubled, bij = doubled_and_bijection(name, forget=True)
    assert main_theorem_check(model, doubled, bij) is None
    # both sides are the group ring
    assert all(c == 1 for row in model.algebra(VIRT).constants for c in row)
    assert all(c == 1 for row in doubled.algebra(CR).constants for c in row)


# --- full verification runs ---

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_full_verification_passes(name):
    report = run_full_verification(corpus_spec(name))
    assert report.all_passed, report.to_text()
    assert [c.name for c in report.checks] == [
        "closure-sanity",
        "age-duality",
        "rank-oracles",
        "algebra-axioms-cr",
        "algebra-axioms-virt",
        "grading-lemma",
        "bundle-decomposition",
        "main-theorem",
    ]


def test_full_verification_passes_in_dw_mode():
    report = run_full_verification(corpus_spec("q8"), forget_geometry=True)
    assert report.all_passed


def test_report_is_deterministic_up_to_timing():
    def strip(report):
        return [(c.name, c.passed, c.counterexample) for c in report.checks]

    first = run_full_verification(corpus_spec("z4-13"))
    second = run_full_verification(corpus_spec("z4-13"))
    assert strip(first) == strip(second)
    data = first.to_dict()
    assert data["spec"] == "z4-13"
    assert all(set(entry) <= {"name", "status", "millis", "counterexample"} for entry in data["checks"])


def test_report_text_and_json_render():
    report = run_full_verification(corpus_spec("z2-c1"))
    assert "all 8 checks passed" in report.to_text()
    assert '"status": "pass"' in report.to_json()


def test_doubled_spec_verifies_standalone():
    # the doubling of a corpus spec is itself a valid orbifold spec
    doubled_spec = cotangent_double(corpus_spec("z3-11"))
    report = run_full_verification(doubled_spec)
    assert report.all_passed


def test_passing_report_carries_no_counterexamples():
    report = run_full_verification(corpus_spec("z2z2-diag"))
    assert report.all_passed
    assert all(c.counterexample is None for c in report.checks)
    assert all("counterexample" not in entry for entry in report.to_dict()["checks"])
