"""Exact sector geometry of a linear orbifold.

Per group element: the multiset of rotation numbers (eigen-phases), the age,
the fixed-subspace dimension, and the two degree shifts.  Per pair: the
dimension of the common fixed subspace, counted by a union-find over the
coordinates with potentials in Z/N, so it needs neither a subgroup closure nor
cyclotomic arithmetic.  The averaging projector of the generated subgroup
(fixed_dim_of_subgroup) computes the same number exactly in Q(zeta_N) and is
kept as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cyclotomic import CyclotomicNumber, RationalPhase
from .errors import ConsistencyError
from .monomial import GroupTable, MonomialMap

__all__ = ["SectorData", "SectorGeometry", "eigen_phases"]

_ZERO_PHASE = RationalPhase(0)


def eigen_phases(m: MonomialMap) -> tuple[RationalPhase, ...]:
    """Sorted multiset of rotation numbers of a monomial map.

    A permutation cycle of length L whose phases sum to s (mod 1) spans an
    invariant subspace on which the L-th power of the map is the scalar
    e^(2*pi*i*s); its eigenvalues are therefore the L roots e^(2*pi*i*(s+t)/L),
    t = 0..L-1.
    """
    n = m.dimension
    seen = [False] * n
    out: list[RationalPhase] = []
    for start in range(n):
        if seen[start]:
            continue
        total = Fraction(0)
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            total += m.phases[j].as_fraction()
            length += 1
            j = m.perm[j]
        s = total % 1
        for t in range(length):
            out.append(RationalPhase.from_fraction((s + t) / length))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class SectorData:
    """Geometric data of one sector (one group element)."""

    element: int
    eigen: tuple[RationalPhase, ...]
    age: Fraction
    fixed_dim: int
    virtual_shift: int
    cr_shift: Fraction


class SectorGeometry:
    """Cached per-element and per-pair geometry over a closed group.

    With forget=True the group is treated as acting on a zero-dimensional
    space: every age and fixed dimension is zero.  That realizes the
    point-orbifold (group-ring) limit for an arbitrary finite group without
    needing a zero-dimensional faithful representation.
    """

    def __init__(self, table: GroupTable, dimension: int, forget: bool = False):
        self.table = table
        self.forget = forget
        self.n = 0 if forget else dimension
        self._sectors: dict[int, SectorData] = {}
        self._traces: dict[int, CyclotomicNumber] = {}
        self._pairs: dict[tuple[int, int], int] = {}

    def sector(self, i: int) -> SectorData:
        """Age, fixed dimension and degree shifts of element i, computed on first use.

        The one place these are derived from the eigen-phases: the age is
        their sum, the fixed dimension counts the zero phases, the virtual
        shift is twice the codimension and the cr shift twice the age.
        """
        data = self._sectors.get(i)
        if data is None:
            if self.forget:
                data = SectorData(i, (), Fraction(0), 0, 0, Fraction(0))
            else:
                eigen = eigen_phases(self.table.elements[i])
                a = sum((p.as_fraction() for p in eigen), Fraction(0))
                fd = sum(1 for p in eigen if p == _ZERO_PHASE)
                data = SectorData(i, eigen, a, fd, 2 * (self.n - fd), 2 * a)
            self._sectors[i] = data
        return data

    def trace(self, i: int) -> CyclotomicNumber:
        value = self._traces.get(i)
        if value is None:
            value = self.table.elements[i].trace()
            self._traces[i] = value
        return value

    def fixed_dim_of_subgroup(self, members: Sequence[int]) -> int:
        """Dimension of the common fixed subspace of a subgroup.

        The averaging projector (1/|H|) sum of rho(k) has trace equal to the
        fixed-space dimension; the cyclotomic sum must come out a rational
        integer in [0, n], which is asserted at runtime.
        """
        if self.forget:
            return 0
        total = CyclotomicNumber.zero()
        for k in members:
            total = total + self.trace(k)
        average = total * Fraction(1, len(members))
        value = average.as_rational()
        if value is None or value.denominator != 1 or not 0 <= value <= self.n:
            raise ConsistencyError(
                f"projector average over subgroup {tuple(members)} is {value!r}, "
                f"expected an integer in [0, {self.n}]"
            )
        return int(value)

    def fixed_dim_pair(self, g: int, h: int) -> int:
        """dim of V^g intersect V^h, by a union-find over the coordinates.

        v is fixed by a monomial map exactly when v_{perm[j]} = zeta^phase[j] v_j
        for every j.  Each such equation, for g and for h, is an edge
        j -> perm[j] of weight phase[j] mod N.  Within a connected component
        every coordinate is then a fixed root of unity times the component's
        root coordinate (its potential), so the component carries exactly one
        free parameter if every edge closes consistently and none otherwise.
        The answer is the number of consistent components.  The projector of
        fixed_dim_of_subgroup is the oracle for this count.
        """
        if self.forget:
            return 0
        key = (g, h) if g <= h else (h, g)
        value = self._pairs.get(key)
        if value is None:
            value = self._common_fixed_dim(key)
            self._pairs[key] = value
        return value

    def _common_fixed_dim(self, elements: tuple[int, ...]) -> int:
        n = self.n
        modulus = self.table.conductor
        parent = list(range(n))
        # v_x = zeta^potential[x] * v_parent[x]
        potential = [0] * n
        consistent = [True] * n
        for i in elements:
            # the table's code of element i: e_j -> zeta^a e_k is a*n + k
            for j, code in enumerate(self.table.codes[i]):
                a, k = divmod(code, n)
                # the edge says v_k = zeta^a * v_j; find both roots
                rj, pj = j, 0
                while parent[rj] != rj:
                    pj += potential[rj]
                    rj = parent[rj]
                rk, pk = k, 0
                while parent[rk] != rk:
                    pk += potential[rk]
                    rk = parent[rk]
                if rj == rk:
                    if (pj + a - pk) % modulus:
                        consistent[rj] = False
                else:
                    parent[rk] = rj
                    potential[rk] = (pj + a - pk) % modulus
                    consistent[rj] = consistent[rj] and consistent[rk]
        return sum(1 for x in range(n) if parent[x] == x and consistent[x])
