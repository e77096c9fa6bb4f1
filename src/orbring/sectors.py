"""Exact sector geometry of a linear orbifold.

Per group element: the age, the fixed-subspace dimension, the two degree
shifts and the id of the fixed subspace V^g, all read in one walk over the
cycles of the element's integer code (ages as ints over 2N, N the
generators' conductor).  The tests keep an independent oracle that computes
the same ages and dimensions from each map's multiset of rotation numbers.
Per pair: the dimension of V^g meet V^h depends only on the two subspaces,
so it is counted once per pair of distinct subspaces, by a walk over the
orbits of the pair of representatives on the coordinates with potentials
in Z/N (no subgroup closure, no cyclotomic arithmetic), into one S x S
table for S distinct subspaces, the only store of pair dimensions.  A pass
over all pairs gathers each subspace's row over all elements from that
table through the ids, afresh, and every element that fixes the subspace
reads that row.  The tests' oracle for that count is the trace of the
averaging projector of the generated subgroup, exact in Q(zeta_N), summed
from SectorGeometry.trace.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .cyclotomic import CyclotomicNumber
from .monomial import GroupTable

__all__ = ["SectorData", "SectorGeometry"]


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
    from 0 in order of first appearance.  subspace_pairs[a][b] is the
    dimension of the meet of the subspaces with ids a and b, so that of
    V^g meet V^h is subspace_pairs[ids[g]][ids[h]], read from the table as
    it stands; subspace_rows() gathers the table's lines into rows over
    all elements and keeps none of them.  The lists are built on first use
    and must not be mutated by callers.
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
        eigen-phases (s/N + t)/L, t = 0..L-1, since the element's L-th power
        is the scalar e^(2 pi i s/N) on the cycle's span.  They sum
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

    # Called by no command; kept because perfbench/layers.py times it in the
    # traced span sectors.traces, and the tests' projector oracle sums it.
    def trace(self, i: int) -> CyclotomicNumber:
        return self.table.elements[i].trace()

    @cached_property
    def subspace_pairs(self) -> list[list[int]]:
        """dim of V_a meet V_b for subspace ids a and b, an S x S table for S distinct subspaces.

        The dimension depends on the two subspaces alone and is symmetric
        in them, so one walk per unordered pair of representatives fills
        it, S(S+1)/2 walks.
        """
        representatives = self._element_arrays[3]
        small = [[0] * len(representatives) for _ in representatives]
        for a, g in enumerate(representatives):
            for b in range(a, len(representatives)):
                small[a][b] = small[b][a] = self._common_fixed_dim(g, representatives[b])
        return small

    def subspace_rows(self) -> list[array]:
        """dim of V_a meet V^h for h = 0..order-1, one row per subspace id a:
        line a of subspace_pairs gathered through the current subspace_ids,
        built afresh on each call, one C-level gather per row."""
        ids = self.subspace_ids
        return [array("I", map(line.__getitem__, ids)) for line in self.subspace_pairs]

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
        following images alone covers the orbit of <g, h>.  The tests'
        averaging projector of <g, h> is the oracle for this count.
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
