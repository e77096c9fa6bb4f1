"""The row-wise verify checks against their per-pair scans in support.

Each check in orbring.cotangent runs a row at a time on the integer arrays of
the sector geometry.  On intact models, on models whose bijection is permuted
by a transposition, and on models with one array entry bumped before any
sector is read, it must give the same payload as its scan, or raise the same
ConsistencyError text.  A bijection with one entry copied onto another is not
injective, which sends main_theorem_check's pairings stage down its per-pair
path.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import ConsistencyError, OrbifoldModel
from orbring.cotangent import (
    age_duality_check,
    closure_sanity_check,
    decomposition_check,
    grading_check,
    main_theorem_check,
    rank_oracle_check,
    sector_bijection,
)
from support import (
    CORPUS_NAMES,
    age_duality_scan,
    closure_sanity_scan,
    corpus_spec,
    decomposition_scan,
    gmpn_spec,
    grading_check_scan,
    main_theorem_scan,
    rank_oracle_scan,
)

NAMES = CORPUS_NAMES + ["G(4,1,2)"]

# (check, its scan, whether it takes the doubled model and the bijection)
CHECKS = [
    (age_duality_check, age_duality_scan, False),
    (rank_oracle_check, rank_oracle_scan, False),
    (grading_check, grading_check_scan, True),
    (decomposition_check, decomposition_scan, True),
    (main_theorem_check, main_theorem_scan, True),
]


def spec_of(name):
    return gmpn_spec(4, 1, 2) if name == "G(4,1,2)" else corpus_spec(name)


def fresh(name, forget):
    model = OrbifoldModel(spec_of(name), forget_geometry=forget)
    doubled = model.cotangent_model()
    return model, doubled, sector_bijection(model.table, doubled.table)


@functools.cache
def cached(name, forget):
    return fresh(name, forget)


def outcome(fn, *args):
    try:
        return "report", fn(*args)
    except ConsistencyError as exc:
        return "error", str(exc)


def assert_checks_match_scans(model, doubled, bijection):
    for check, scan, cross in CHECKS:
        args = (model, doubled, bijection) if cross else (model,)
        assert outcome(check, *args) == outcome(scan, *args), check.__name__


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
)
def test_checks_match_scans_with_a_transposed_bijection(data, name, forget):
    model, doubled, bijection = cached(name, forget)
    permuted = list(bijection)
    i = data.draw(st.integers(0, model.order - 1))
    j = data.draw(st.integers(0, model.order - 1))
    permuted[i], permuted[j] = permuted[j], permuted[i]
    assert_checks_match_scans(model, doubled, tuple(permuted))
    # one entry copied onto another: a bijection that is not injective
    copied = list(bijection)
    copied[i] = copied[j]
    assert_checks_match_scans(model, doubled, tuple(copied))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(NAMES),
    forget=st.booleans(),
    side=st.sampled_from(["original", "doubled"]),
    kind=st.sampled_from(["age", "inverse ages", "pair"]),
)
def test_checks_match_scans_with_a_bumped_array_entry(data, name, forget, side, kind):
    model, doubled, bijection = fresh(name, forget)
    target = model if side == "original" else doubled
    geometry = target.geometry
    g = data.draw(st.integers(0, target.order - 1))
    if kind != "pair":
        # a step of 1 makes the age fractional, a step of scale shifts it by 1
        step = data.draw(st.sampled_from([1, -1, geometry.scale, -geometry.scale]))
        geometry.ages[g] += step
        if kind == "inverse ages":
            # the opposite step at g^-1 keeps age duality, so the two rank
            # forms still agree wherever a rank turns fractional
            geometry.ages[target.table.inverse_index[g]] -= step
    else:
        row = geometry.pair_row(g)
        h = data.draw(st.integers(0, target.order - 1))
        row[h] = row[h] + 1 if row[h] == 0 or data.draw(st.booleans()) else row[h] - 1
    assert_checks_match_scans(model, doubled, bijection)


def test_rank_oracles_raise_where_both_forms_agree_on_a_fraction():
    # Shifting age g1 up and age g1^-1 = g2 down by 1/6 keeps age duality,
    # so the two forms agree at every pair; only their integrality flags
    # (g1, g1), where both read 1/2.
    model, _, _ = fresh("z3-11", False)
    model.geometry.ages[1] += 1
    model.geometry.ages[2] -= 1
    expected = ("error", "obstruction rank at (g1, g1) is 1/2, expected a nonnegative integer")
    assert outcome(rank_oracle_scan, model) == expected
    assert outcome(rank_oracle_check, model) == expected


def test_decomposition_raises_at_a_negative_excess_behind_equal_sides():
    # On z3-11 (n = 2), fixed dimension 4 at e and pair dimensions 5, 1, 1 in
    # row e make every excess rank of that row -1 while excess + k is 0, the
    # doubled rank; so only the sign of the excess flags the row.
    model, doubled, bijection = fresh("z3-11", False)
    model.geometry.fixed[0] = 4
    row = model.geometry.pair_row(0)
    row[0], row[1], row[2] = 5, 1, 1
    expected = ("error", "excess rank at (e, e) is -1, expected a nonnegative integer")
    assert outcome(decomposition_scan, model, doubled, bijection) == expected
    assert outcome(decomposition_check, model, doubled, bijection) == expected


def test_checks_match_scans_on_intact_models():
    for name in NAMES:
        for forget in (False, True):
            model, doubled, bijection = cached(name, forget)
            assert_checks_match_scans(model, doubled, bijection)
            assert all(
                scan(*((model, doubled, bijection) if cross else (model,))) is None
                for _, scan, cross in CHECKS
            )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(NAMES))
def test_closure_sanity_matches_scan_with_two_row_entries_swapped(data, name):
    model = OrbifoldModel(spec_of(name))
    table = model.table
    assert closure_sanity_check(model) is None
    if table.order < 2:
        return
    i = data.draw(st.integers(0, table.order - 1))
    j, k = data.draw(
        st.lists(st.integers(0, table.order - 1), min_size=2, max_size=2, unique=True)
    )
    row = list(table.row(i))
    row[j], row[k] = row[k], row[j]
    table._rows[i] = tuple(row)
    expected = outcome(closure_sanity_scan, model)
    assert expected != ("report", None)
    assert outcome(closure_sanity_check, model) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(NAMES))
def test_closure_sanity_matches_scan_with_two_elements_swapped(data, name):
    # the product table stays a group table, so only the comparison of
    # products with composition under the generators can catch the swap
    model = OrbifoldModel(spec_of(name))
    elements = model.table.elements
    if len(elements) < 2:
        return
    i, j = data.draw(
        st.lists(st.integers(0, len(elements) - 1), min_size=2, max_size=2, unique=True)
    )
    elements[i], elements[j] = elements[j], elements[i]
    assert outcome(closure_sanity_check, model) == outcome(closure_sanity_scan, model)


def test_closure_sanity_raises_on_powers_that_never_reach_the_identity():
    # swapping g*e and g*g in the row of g makes g*g = g, so the powers of g
    # stay at g; element_order must give up after |G| steps
    model = OrbifoldModel(corpus_spec("z3-11"))
    table = model.table
    row = list(table.row(1))
    row[0], row[1] = row[1], row[0]
    table._rows[1] = tuple(row)
    assert table.mult(1, 1) == 1
    expected = ("error", "powers of element 1 do not reach the identity within 3 steps")
    assert outcome(closure_sanity_scan, model) == expected
    assert outcome(closure_sanity_check, model) == expected
