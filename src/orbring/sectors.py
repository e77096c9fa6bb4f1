"""Exact sector geometry of a linear orbifold.

Per group element: the age, the fixed-subspace dimension, the two degree
shifts and the id of the fixed subspace V^g, all read in one walk over the
cycles of the element's integer code (ages as ints over 2N, N the
generators' conductor).  The multiset of rotation numbers (eigen_phases)
computes the same ages and dimensions from a MonomialMap and is kept as
their independent oracle.  Per pair: the dimension of V^g meet V^h depends
only on the two subspaces, so it is counted once per pair of distinct
subspaces, by a walk over the orbits of the pair of representatives on the
coordinates with potentials in Z/N (no subgroup closure, no cyclotomic
arithmetic).  Each subspace's row over all elements is gathered from those
counts through the ids, once, and every element that fixes the subspace
reads that one row.  The averaging projector of the generated subgroup
(fixed_dim_of_subgroup) computes the same number exactly in Q(zeta_N) and
is kept as its independent oracle.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .cyclotomic import CyclotomicNumber, RationalPhase
from .errors import ConsistencyError
from .monomial import GroupTable, MonomialMap

__all__ = ["SectorData", "SectorGeometry", "eigen_phases"]


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


class SectorData(Record):
    """Geometric data of one sector (one group element)."""

    __slots__ = ("age", "fixed_dim", "virtual_shift", "cr_shift")


class SectorGeometry:
    """Cached per-element and per-pair geometry over a closed group.

    With forget=True the group is treated as acting on a zero-dimensional
    space: every age and fixed dimension is zero.  That realizes the
    point-orbifold (group-ring) limit for an arbitrary finite group without
    needing a zero-dimensional faithful representation.

    ages[i] is the age of element i times scale, fixed[i] its fixed
    dimension and subspace_ids[i] the id of its fixed subspace: two elements
    share an id exactly when they fix the same subspace, and ids count up
    from 0 in order of first appearance.  pair_row(g)[h] is the dimension
    of V^g meet V^h.  There is one row per distinct subspace, and every
    element that fixes that subspace gets the same row object.  The lists
    and rows are built on first use and must not be mutated by callers.
    """

    def __init__(self, table: GroupTable, forget: bool = False):
        self.table = table
        self.forget = forget
        self.n = 0 if forget else table.dimension
        # every age is an int over 2N (see _walk); zero over 1 in forget mode
        self.scale = 1 if forget else 2 * table.conductor

    @property
    def ages(self) -> list[int]:
        return self._element_arrays[0]

    @property
    def fixed(self) -> list[int]:
        return self._element_arrays[1]

    @property
    def subspace_ids(self) -> list[int]:
        return self._element_arrays[2]

    def _walk(self, code: Sequence[int]) -> tuple[int, int, tuple[int, ...]]:
        """Age (times scale), fixed dimension and subspace key of one code.

        One walk over the permutation cycles of the code gives all three.
        A cycle of length L whose phases sum to s/N (0 <= s < N) has the
        eigen-phases (s/N + t)/L, t = 0..L-1 (see eigen_phases).  They sum
        to s/N + (L-1)/2, which is (2s + (L-1)N) over 2N, and one of them
        is zero exactly when s = 0.

        The key has one entry per coordinate.  A fixed v satisfies
        v_k = zeta^a v_j along each code edge j -> k of weight a, so on a
        cycle with least coordinate m, v_j = zeta^p_j v_m, where the
        potential p_j is the weight sum from m to j, mod N.  Round the
        cycle this forces v_m = zeta^s v_m, so v vanishes on the cycle
        unless s = 0.  The key holds (m, p_j) for each coordinate j on a
        cycle with s = 0, and one killed marker for every other coordinate.
        Thus V^g is the direct sum over the cycles with s = 0 of the lines
        spanned by sum_j zeta^p_j e_j, with disjoint supports, and the key
        determines V^g.  Conversely V^g determines the key: the killed
        coordinates are those where every vector of V^g vanishes; two
        other coordinates j, k lie on one cycle exactly when v_j and v_k
        are proportional over V^g (on different cycles the line of j's
        cycle has v_j = 1 and v_k = 0); and v_j / v_m = zeta^p_j fixes p_j
        mod N, zeta being a primitive N-th root.  So equal keys mean equal
        fixed subspaces.  With n = 0 (forget mode) the walk gives
        (0, 0, ()).
        """
        n = self.n
        modulus = self.table.conductor
        killed = n * modulus  # no entry m * N + p, with m < n and p < N, equals it
        key = [-1] * n  # -1 until the walk reaches the coordinate
        age = dim = 0
        for start in range(n):
            if key[start] >= 0:
                continue
            base = start * modulus
            s = 0
            cycle = []
            j = start
            while key[j] < 0:
                key[j] = base + s % modulus
                cycle.append(j)
                a, j = divmod(code[j], n)  # code a*n + k: e_j -> zeta^a e_k
                s += a
            s %= modulus
            age += 2 * s + (len(cycle) - 1) * modulus
            if s:
                for j in cycle:
                    key[j] = killed
            else:
                dim += 1
        return age, dim, tuple(key)

    @cached_property
    def _element_arrays(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Ages (times scale), fixed dimensions, subspace ids and their representatives.

        One _walk per code gives the age, the fixed dimension and the key.
        The ids number the distinct keys in order of first appearance, and
        the representative of an id is its least element.
        """
        ages = []
        fixed = []
        ids = []
        representatives = []
        id_of_key: dict[tuple[int, ...], int] = {}
        for i, code in enumerate(self.table.codes):
            age, dim, key = self._walk(code)
            ages.append(age)
            fixed.append(dim)
            sid = id_of_key.setdefault(key, len(representatives))
            if sid == len(representatives):
                representatives.append(i)
            ids.append(sid)
        return ages, fixed, ids, representatives

    def sector(self, i: int) -> SectorData:
        """Age, fixed dimension and degree shifts of element i.

        Read from the arrays once they exist, so a change to ages or fixed
        shows here.  Before that, one _walk of element i's code gives the
        same numbers and builds no array: inspect reads only the class
        representatives.  The virtual shift is twice the codimension and
        the cr shift twice the age.
        """
        arrays = self.__dict__.get("_element_arrays")
        if arrays is not None:
            age, dim = arrays[0][i], arrays[1][i]
        else:
            age, dim, _key = self._walk(self.table.codes[i])
        age = Fraction(age, self.scale)
        return SectorData(age, dim, 2 * (self.n - dim), 2 * age)

    def trace(self, i: int) -> CyclotomicNumber:
        return self.table.elements[i].trace()

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

    def pair_row(self, g: int) -> array:
        """dim of V^g intersect V^h for h = 0..order-1: the row of g's subspace."""
        return self._subspace_rows[self.subspace_ids[g]]

    @cached_property
    def _subspace_rows(self) -> list[array]:
        """dim of V meet V^h for h = 0..order-1, one row per distinct subspace V.

        The dimension depends on the two subspaces alone and is symmetric
        in them, so one walk per unordered pair of representatives fills an
        S x S table, S(S+1)/2 walks for S distinct subspaces.  The row of a
        subspace over all elements is gathered from its line of the table
        through the ids.
        """
        ids, representatives = self._element_arrays[2:]
        small = [[0] * len(representatives) for _ in representatives]
        for a, g in enumerate(representatives):
            for b in range(a, len(representatives)):
                small[a][b] = small[b][a] = self._common_fixed_dim(g, representatives[b])
        return [array("I", map(line.__getitem__, ids)) for line in small]

    def _common_fixed_dim(self, g: int, h: int) -> int:
        """The number of consistent orbits of <g, h> on the coordinates.

        v is fixed by a monomial map exactly when v_k = zeta^a v_j for each of
        its code entries j -> k of weight a (mod N).  Each unlabelled
        coordinate starts an orbit with potential 0, and an edge j -> k of g
        or h gives a new coordinate k the potential (p_j + a) mod N, so
        v_k = zeta^p_k times v at the start.  An edge that reaches a labelled
        k with another potential marks the orbit inconsistent: v vanishes
        there.  A consistent orbit carries one free parameter.  Each element
        permutes the coordinates, so its inverse is one of its powers, and
        following images alone covers the orbit of <g, h>.  The projector of
        fixed_dim_of_subgroup is the oracle for this count.
        """
        n = self.n
        modulus = self.table.conductor
        codes = (self.table.codes[g], self.table.codes[h])
        potential = [-1] * n
        count = 0
        for start in range(n):
            if potential[start] >= 0:
                continue
            potential[start] = 0
            orbit = [start]  # grows while it is walked
            consistent = True
            for j in orbit:
                pj = potential[j]
                for code in codes:
                    # the table's code of an element: e_j -> zeta^a e_k is a*n + k
                    a, k = divmod(code[j], n)
                    p = (pj + a) % modulus
                    pk = potential[k]
                    if pk < 0:
                        potential[k] = p
                        orbit.append(k)
                    elif pk != p:
                        consistent = False
            count += consistent
        return count
