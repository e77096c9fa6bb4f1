from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbring import (
    DEFAULT_CONDUCTOR_CAP,
    CyclotomicNumber,
    InputError,
    RationalPhase,
    ResourceCapError,
    cyclotomic_polynomial,
    euler_phi,
)
from support import poly_div_exact, poly_mul, x_power_minus_one

phases = st.builds(
    RationalPhase,
    numerator=st.integers(min_value=-20, max_value=20),
    denominator=st.integers(min_value=1, max_value=9),
)


# --- cyclotomic polynomials ---

def test_phi_1_base_case():
    assert cyclotomic_polynomial(1) == (-1, 1)


@pytest.mark.parametrize(
    "n, divisors, expected",
    [
        (3, [1], (1, 1, 1)),
        (4, [1, 2], (1, 0, 1)),
        (6, [1, 2, 3], (1, -1, 1)),
    ],
)
def test_phi_small_against_division_oracle(n, divisors, expected):
    # independent oracle: divide x^n - 1 by the product of the earlier Phi_d
    product = [1]
    for d in divisors:
        product = poly_mul(product, list(cyclotomic_polynomial(d)))
    oracle = poly_div_exact(x_power_minus_one(n), product)
    assert tuple(int(c) for c in oracle) == expected
    assert cyclotomic_polynomial(n) == expected


def test_phi_known_table():
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_phi_reconstruction(n):
    product = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            product = poly_mul(product, list(cyclotomic_polynomial(d)))
    assert product == x_power_minus_one(n)


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 60])
def test_phi_degree_is_euler_phi(n):
    poly = cyclotomic_polynomial(n)
    assert len(poly) == euler_phi(n) + 1
    assert poly[-1] == 1  # monic


def test_phi_rejects_bad_conductor():
    with pytest.raises(InputError):
        cyclotomic_polynomial(0)
    with pytest.raises(ResourceCapError):
        cyclotomic_polynomial(DEFAULT_CONDUCTOR_CAP + 1)


# --- phases ---

def test_phase_normalization():
    assert RationalPhase(3, 6) == RationalPhase(1, 2)
    assert RationalPhase(-1, 3) == RationalPhase(2, 3)
    assert RationalPhase(7, 3) == RationalPhase(1, 3)
    assert RationalPhase(0, 5) == RationalPhase(0, 1)


def test_phase_parse_forms():
    assert RationalPhase.parse("1/3") == RationalPhase(1, 3)
    assert RationalPhase.parse("0") == RationalPhase(0)
    assert RationalPhase.parse("1/1") == RationalPhase(0)
    assert RationalPhase.parse("-1/4") == RationalPhase(3, 4)
    assert str(RationalPhase(0)) == "0"
    assert str(RationalPhase(2, 3)) == "2/3"


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/-2", "1.5", "1/2/3"])
def test_phase_parse_rejects(bad):
    with pytest.raises(InputError):
        RationalPhase.parse(bad)


def test_phase_rejects_nonpositive_denominator():
    with pytest.raises(InputError):
        RationalPhase(1, 0)
    with pytest.raises(InputError):
        RationalPhase(1, -3)


@given(phases, phases)
def test_phase_addition_mod_one(a, b):
    total = a + b
    assert total.as_fraction() == (a.as_fraction() + b.as_fraction()) % 1


@given(phases)
def test_phase_negation_inverts(a):
    assert (a + (-a)) == RationalPhase(0)


def test_phase_ordering_is_by_value():
    assert RationalPhase(2, 5) < RationalPhase(1, 2)
    assert sorted([RationalPhase(1, 2), RationalPhase(2, 5)])[0] == RationalPhase(2, 5)


# --- cyclotomic numbers ---

def test_from_phase_examples():
    assert CyclotomicNumber.from_phase(RationalPhase(0)) == 1
    assert CyclotomicNumber.from_phase(RationalPhase(1, 2)) == -1
    z3 = CyclotomicNumber.from_phase(RationalPhase(1, 3))
    assert z3.conductor == 3
    assert z3.coeffs == (Fraction(0), Fraction(1))


def test_arithmetic_examples():
    z3 = CyclotomicNumber.from_phase(RationalPhase(1, 3))
    assert (z3 + z3 * z3).as_rational() == -1
    z4 = CyclotomicNumber.from_phase(RationalPhase(1, 4))
    assert (z4 * z4).as_rational() == -1


def test_as_rational_geometric_sum():
    total = sum(
        (CyclotomicNumber.from_phase(RationalPhase(k, 5)) for k in range(5)),
        CyclotomicNumber.zero(),
    )
    assert total.as_rational() == 0


def test_as_rational_on_rationals_and_irrationals():
    assert CyclotomicNumber.from_rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)
    assert CyclotomicNumber.from_phase(RationalPhase(1, 5)).as_rational() is None


def test_cross_conductor_equality():
    # zeta_6 = -zeta_3^2; the comparison embeds both sides into conductor 6
    z6 = CyclotomicNumber.from_phase(RationalPhase(1, 6))
    z3 = CyclotomicNumber.from_phase(RationalPhase(1, 3))
    assert z6 == -(z3 * z3)
    assert z6 != z3


def test_canonical_form_idempotence():
    z = CyclotomicNumber.from_phase(RationalPhase(2, 7)) * 3 + 1
    again = CyclotomicNumber(z.conductor, z.coeffs)
    assert again.coeffs == z.coeffs


@given(phases, phases)
@settings(max_examples=60)
def test_from_phase_is_multiplicative(a, b):
    lhs = CyclotomicNumber.from_phase(a) * CyclotomicNumber.from_phase(b)
    assert lhs == CyclotomicNumber.from_phase(a + b)


@given(phases)
@settings(max_examples=40)
def test_root_of_unity_has_finite_order(phi):
    root = CyclotomicNumber.from_phase(phi)
    power = CyclotomicNumber.one()
    for _ in range(phi.denominator):
        power = power * root
    assert power == 1


@given(phases)
def test_additive_identity(phi):
    a = CyclotomicNumber.from_phase(phi)
    assert a + CyclotomicNumber.zero() == a
    assert a + 0 == a


@given(
    st.fractions(
        min_value=-5, max_value=5, max_denominator=12
    )
)
def test_rational_round_trip(r):
    assert CyclotomicNumber.from_rational(r).as_rational() == r


def test_scalar_multiplication():
    z3 = CyclotomicNumber.from_phase(RationalPhase(1, 3))
    assert (z3 * 2) + z3 == z3 * 3
    assert Fraction(1, 2) * (z3 * 2) == z3


def test_from_phase_respects_cap():
    at_cap = CyclotomicNumber.from_phase(RationalPhase(1, DEFAULT_CONDUCTOR_CAP))
    assert at_cap.conductor == DEFAULT_CONDUCTOR_CAP
    with pytest.raises(ResourceCapError):
        CyclotomicNumber.from_phase(RationalPhase(1, DEFAULT_CONDUCTOR_CAP + 1))
    # lcm during arithmetic is also capped: lcm(63, 80) = 5040
    a = CyclotomicNumber.from_phase(RationalPhase(1, 63))
    b = CyclotomicNumber.from_phase(RationalPhase(1, 80))
    with pytest.raises(ResourceCapError):
        a * b


# --- ring axioms on random small elements ---

small_elements = st.builds(
    lambda pairs: sum(
        (CyclotomicNumber.from_phase(p) * c for p, c in pairs),
        CyclotomicNumber.zero(),
    ),
    st.lists(
        st.tuples(phases, st.integers(min_value=-3, max_value=3)),
        min_size=1,
        max_size=3,
    ),
)


@given(small_elements, small_elements)
@settings(max_examples=40, deadline=None)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(small_elements, small_elements, small_elements)
@settings(max_examples=30, deadline=None)
def test_ring_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_elements)
@settings(max_examples=30, deadline=None)
def test_ring_identities(a):
    assert a * 1 == a
    assert a * 0 == CyclotomicNumber.zero()
    assert a - a == 0
