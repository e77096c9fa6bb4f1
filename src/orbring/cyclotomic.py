"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomials in zeta_N with rational coefficients, reduced modulo
the N-th cyclotomic polynomial Phi_N.  The reduced coefficient vector (length
phi(N)) is a canonical form, so equality and rationality tests are plain
coefficient scans with zero numerical error.

No command computes in Q(zeta_N).  MonomialMap.trace and SectorGeometry.trace
return its numbers for perfbench's traced replay and for the tests' oracle of
pair fixed dimensions, the averaging projector of a subgroup, whose trace
must come out a rational integer.  Spec parsing and the integer codes read
RationalPhase and DEFAULT_CONDUCTOR_CAP.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable
from fractions import Fraction

from ._record import Record
from .errors import ConsistencyError, InputError, ResourceCapError

__all__ = [
    "DEFAULT_CONDUCTOR_CAP",
    "CyclotomicNumber",
    "RationalPhase",
    "cyclotomic_polynomial",
    "euler_phi",
]

# lcm(1..10).  Bounds Phi_N computation and vector sizes; turns pathological
# inputs into clean errors instead of runaway memory use.
DEFAULT_CONDUCTOR_CAP = 2520


def _check_conductor(n: int) -> None:
    if n > DEFAULT_CONDUCTOR_CAP:
        raise ResourceCapError(f"conductor {n} exceeds the cap {DEFAULT_CONDUCTOR_CAP}")


def euler_phi(n: int) -> int:
    """Euler's totient function."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_mul(a: Iterable[int], b: Iterable[int]) -> list[int]:
    a = list(a)
    b = list(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod(num: Iterable[int], den: Iterable[int]) -> tuple[list[int], list[int]]:
    """Divide polynomials (low degree first) over Z or Q; den must be monic."""
    num = list(num)
    den = list(den)
    dd = len(den) - 1
    q = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            q[k - dd] = c
            for i in range(dd + 1):
                num[k - dd + i] -= c * den[i]
    return q, num[:dd]


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    xn_minus_1 = [0] * (n + 1)
    xn_minus_1[0] = -1
    xn_minus_1[n] = 1
    prod = [1]
    for d in _divisors(n)[:-1]:
        prod = _poly_mul(prod, _cyclotomic(d))
    q, r = _poly_divmod(xn_minus_1, prod)
    if any(r):
        raise ConsistencyError(f"nonzero remainder while computing Phi_{n}")
    return tuple(q)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first: monic of degree phi(n).

    Computed by dividing x^n - 1 by the product of Phi_d over the proper
    divisors d of n; the division is exact over the integers.
    """
    if type(n) is not int or n < 1:
        raise InputError(f"conductor must be a positive integer, got {n!r}")
    _check_conductor(n)
    return _cyclotomic(n)


_PHASE_PATTERN = re.compile(r"\A([+-]?\d+)(?:/([+-]?\d+))?\Z")


@functools.total_ordering
class RationalPhase(Record):
    """The exponent p/q of the root of unity e^(2*pi*i*p/q).

    Always stored reduced and normalized to [0, 1); two equal phases are
    componentwise identical.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if type(numerator) is not int or type(denominator) is not int:
            raise InputError(
                f"phase components must be integers, got {numerator!r}/{denominator!r}"
            )
        if denominator <= 0:
            raise InputError(f"phase denominator must be positive, got {denominator}")
        num = numerator % denominator
        g = math.gcd(num, denominator)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", denominator // g)

    @classmethod
    def parse(cls, text: str) -> "RationalPhase":
        """Parse "p/q" (also bare "p", so "0" and "1/1" both mean zero)."""
        if not isinstance(text, str):
            raise InputError(f"phase must be a string, got {text!r}")
        match = _PHASE_PATTERN.match(text.strip())
        if match is None:
            raise InputError(f"cannot parse phase {text!r}; expected 'p/q'")
        try:
            num = int(match.group(1))
            den = int(match.group(2)) if match.group(2) is not None else 1
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"cannot parse a phase of {len(text)} characters: {exc}") from exc
        if den <= 0:
            raise InputError(f"phase denominator must be positive in {text!r}")
        return cls(num, den)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "RationalPhase":
        f = Fraction(value)
        return cls(f.numerator, f.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __add__(self, other: "RationalPhase") -> "RationalPhase":
        if not isinstance(other, RationalPhase):
            return NotImplemented
        return RationalPhase(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __neg__(self) -> "RationalPhase":
        return RationalPhase(-self.numerator, self.denominator)

    def __lt__(self, other: "RationalPhase") -> bool:
        if not isinstance(other, RationalPhase):
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __str__(self) -> str:
        if self.numerator == 0:
            return "0"
        return f"{self.numerator}/{self.denominator}"


def _reduce_mod(vec: list[Fraction], mod: tuple[int, ...], phi: int) -> list[Fraction]:
    """The remainder of vec by the monic mod of degree phi, padded with zeros to length phi."""
    _, rest = _poly_divmod(vec, mod)
    return rest + [Fraction(0)] * (phi - len(rest))


class CyclotomicNumber(Record):
    """An element of Q(zeta_N), stored reduced modulo Phi_N.

    The constructor always reduces, so the coefficient vector is canonical.
    Operands at different conductors are aligned by embedding into the lcm
    conductor (zeta_N = zeta_M^(M/N) for N | M) before combining.
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # equality crosses conductors, so hashing is unsafe

    def __init__(self, conductor: int, coeffs: Iterable[Fraction | int]):
        if type(conductor) is not int or conductor < 1:
            raise InputError(f"conductor must be a positive integer, got {conductor!r}")
        _check_conductor(conductor)
        vec = [Fraction(c) for c in coeffs]
        phi = euler_phi(conductor)
        vec = _reduce_mod(vec, cyclotomic_polynomial(conductor), phi)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(vec))

    @staticmethod
    def zero() -> "CyclotomicNumber":
        return CyclotomicNumber(1, (0,))

    @staticmethod
    def one() -> "CyclotomicNumber":
        return CyclotomicNumber(1, (1,))

    @staticmethod
    def from_rational(value: Fraction | int) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(value),))

    @staticmethod
    def from_phase(phase: RationalPhase) -> "CyclotomicNumber":
        """The root of unity zeta_q^p for the phase p/q."""
        q = phase.denominator
        coeffs = [Fraction(0)] * phase.numerator + [Fraction(1)]
        return CyclotomicNumber(q, coeffs)

    def _embedded(self, conductor: int) -> list[Fraction]:
        """Raw polynomial coefficients after zeta_N -> zeta_M^(M/N)."""
        stretch = conductor // self.conductor
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * stretch + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * stretch] = c
        return out

    def _align(self, other: "CyclotomicNumber") -> tuple[int, list[Fraction], list[Fraction]]:
        m = math.lcm(self.conductor, other.conductor)
        _check_conductor(m)
        return m, self._embedded(m), other._embedded(m)

    @staticmethod
    def _coerce(value) -> CyclotomicNumber | None:
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return CyclotomicNumber.from_rational(value)
        return None

    def __add__(self, other) -> "CyclotomicNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        m, a, b = self._align(rhs)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return CyclotomicNumber(m, a)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "CyclotomicNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return CyclotomicNumber(self.conductor, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        m, a, b = self._align(other)
        return CyclotomicNumber(m, _poly_mul(a, b))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.conductor == rhs.conductor:
            return self.coeffs == rhs.coeffs
        m, a, b = self._align(rhs)
        phi = euler_phi(m)
        mod = cyclotomic_polynomial(m)
        return _reduce_mod(a, mod, phi) == _reduce_mod(b, mod, phi)

    def as_rational(self) -> Fraction | None:
        """The rational value if the element lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __repr__(self) -> str:
        coeffs = ", ".join(str(c) for c in self.coeffs)
        return f"CyclotomicNumber({self.conductor}, ({coeffs}))"
