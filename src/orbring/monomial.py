"""Monomial matrices over roots of unity and the finite groups they generate.

A monomial map on C^n sends the basis vector e_j to a root-of-unity multiple
of e_{perm[j]}.  Groups are closed by breadth-first search from sorted
generators and stored as index tables, which keeps every later computation a
table lookup.  The closure runs on integer codes of the maps (perm and phases
mod the generators' conductor packed into one tuple of ints), not on
MonomialMap objects, and records left and right multiplication by each
generator; the conjugacy classes are walked through per-generator conjugation
tables built from those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, floordiv, itemgetter, mod
from typing import Callable, Iterable, Optional, Sequence

from .cyclotomic import DEFAULT_CONDUCTOR_CAP, CyclotomicNumber, RationalPhase
from .errors import ConsistencyError, InputError, ResourceCapError

__all__ = [
    "DEFAULT_GROUP_ORDER_CAP",
    "ConjugacyPartition",
    "GroupTable",
    "MonomialMap",
]

DEFAULT_GROUP_ORDER_CAP = 10000


@dataclass(frozen=True)
class MonomialMap:
    """A linear map sending e_j to e^(2*pi*i*phases[j]) * e_{perm[j]}."""

    perm: tuple[int, ...]
    phases: tuple[RationalPhase, ...]

    def __post_init__(self) -> None:
        perm = tuple(self.perm)
        phases = tuple(self.phases)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phases", phases)
        n = len(perm)
        if len(phases) != n:
            raise InputError(f"permutation of length {n} given {len(phases)} phases")
        if sorted(perm) != list(range(n)):
            raise InputError(f"perm {list(perm)!r} is not a permutation of 0..{n - 1}")
        for p in phases:
            if not isinstance(p, RationalPhase):
                raise InputError(f"phases must be RationalPhase values, got {p!r}")

    @staticmethod
    def identity(dimension: int) -> "MonomialMap":
        if type(dimension) is not int or dimension < 0:
            raise InputError(f"dimension must be a nonnegative integer, got {dimension!r}")
        return MonomialMap(tuple(range(dimension)), (RationalPhase(0),) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) and not any(
            ph.numerator for ph in self.phases
        )

    def __mul__(self, other: "MonomialMap") -> "MonomialMap":
        """Composition self o other (apply other first)."""
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if other.dimension != self.dimension:
            raise InputError(
                f"cannot compose maps of dimensions {self.dimension} and {other.dimension}"
            )
        perm = tuple(self.perm[j] for j in other.perm)
        phases = tuple(
            other.phases[j] + self.phases[other.perm[j]] for j in range(self.dimension)
        )
        return MonomialMap(perm, phases)

    def inverse(self) -> "MonomialMap":
        n = self.dimension
        perm = [0] * n
        phases: list[RationalPhase] = [RationalPhase(0)] * n
        for j in range(n):
            perm[self.perm[j]] = j
            phases[self.perm[j]] = -self.phases[j]
        return MonomialMap(tuple(perm), tuple(phases))

    def dual(self) -> "MonomialMap":
        """The conjugate map: same permutation, every phase negated mod 1."""
        return MonomialMap(self.perm, tuple(-p for p in self.phases))

    def double(self) -> "MonomialMap":
        """Block sum with the dual: the action on C^n + conjugate(C^n)."""
        n = self.dimension
        perm = self.perm + tuple(n + q for q in self.perm)
        phases = self.phases + tuple(-p for p in self.phases)
        return MonomialMap(perm, phases)

    def trace(self) -> CyclotomicNumber:
        """Exact matrix trace: diagonal entries come from fixed indices only."""
        total = CyclotomicNumber.zero()
        for j, image in enumerate(self.perm):
            if image == j:
                total = total + CyclotomicNumber.from_phase(self.phases[j])
        return total

    def sort_key(self) -> tuple:
        return (self.perm, tuple((p.numerator, p.denominator) for p in self.phases))

    def __str__(self) -> str:
        entries = ", ".join(
            f"e{j}->({p})e{q}" for j, (q, p) in enumerate(zip(self.perm, self.phases))
        )
        return f"[{entries}]"


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugacy classes as sorted index tuples, in order of least member."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


def _gatherer(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """C-level gather: seq -> tuple(seq[i] for i in indices)."""
    if len(indices) == 1:
        # itemgetter with a single index returns the bare item, not a 1-tuple
        (i,) = indices
        return lambda seq: (seq[i],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


class GroupTable:
    """A finite group of monomial maps closed from generators.

    Elements are indexed in breadth-first discovery order (index 0 is the
    identity).  Multiplication is a dense table for small groups and, for
    large ones, a lookup of the composed codes (below); both are exact.

    Each element is also held as its integer code: codes[i][j] = a*n + k when
    element i sends e_j to zeta^a e_k, with zeta = e^(2*pi*i/conductor) and
    0 <= a < conductor.  Read as a permutation of the n*conductor points
    a*n + k (the vectors zeta^a e_k), a monomial map is fixed by the images of
    the points 0*n + j, and those images are its code.  So composing two maps
    needs only integer arithmetic mod n*conductor.
    """

    # Above this order the dense |G|^2 multiplication table is not
    # materialized; products are resolved through the index of the codes.
    EAGER_TABLE_LIMIT = 2048

    def __init__(
        self,
        *,
        dimension: int,
        conductor: int,
        codes: list[tuple[int, ...]],
        code_index: dict[tuple[int, ...], int],
        gens: tuple[int, ...],
        inverse_index: tuple[int, ...],
        right: tuple[Sequence[int], ...],
        left: tuple[Sequence[int], ...],
        mult_rows: Optional[list[tuple[int, ...]]],
    ):
        self.dimension = dimension
        # The lcm of the generators' phase denominators.  Every element is a
        # product of the generators, so its phases lie in (1/conductor)Z/Z.
        self.conductor = conductor
        self.codes = codes
        self._code_index = code_index
        # The closure is built from gens alone, so they generate the whole
        # group; verify_algebra's equivariance reduction relies on this.
        self.gens = gens
        self.inverse_index = inverse_index
        # right[k][x] and left[k][x]: indices of x*s and s*x for s = gens[k]
        self._right = right
        self._left = left
        self._mult_rows = mult_rows
        self._classes: Optional[ConjugacyPartition] = None

        phase_of = [RationalPhase(a, conductor) for a in range(conductor)]
        n = dimension
        self.elements = [
            MonomialMap(
                tuple(map(mod, code, repeat(n))),
                tuple(map(phase_of.__getitem__, map(floordiv, code, repeat(n)))),
            )
            for code in codes
        ]
        self.index = {element: i for i, element in enumerate(self.elements)}

    @classmethod
    def close(
        cls,
        generators: Iterable[MonomialMap],
        dimension: int,
        cap: int = DEFAULT_GROUP_ORDER_CAP,
    ) -> "GroupTable":
        """Breadth-first closure of the generators, run on their integer codes."""
        if type(cap) is not int or cap < 1:
            raise InputError(f"group order cap must be a positive integer, got {cap!r}")
        gens = sorted(set(generators), key=MonomialMap.sort_key)
        for g in gens:
            if g.dimension != dimension:
                raise InputError(
                    f"generator of dimension {g.dimension} in a dimension-{dimension} orbifold"
                )
        conductor = 1
        for g in gens:
            for p in g.phases:
                conductor = math.lcm(conductor, p.denominator)
        if conductor > DEFAULT_CONDUCTOR_CAP:
            raise ResourceCapError(
                f"generator phases need conductor {conductor}, "
                f"above the cap {DEFAULT_CONDUCTOR_CAP}"
            )

        n = dimension
        points = n * conductor
        gen_codes = [
            tuple(p.numerator * (conductor // p.denominator) * n + k
                  for k, p in zip(g.perm, g.phases))
            for g in gens
        ]
        # x*s applies s first: e_j -> zeta^a e_k (code a*n + k) -> x's image of
        # e_k turned by zeta^a, that is x's code at k plus a*n, mod n*conductor.
        picks = [_gatherer(tuple(c % n for c in code)) for code in gen_codes]
        shifts = [tuple(c - c % n for c in code) for code in gen_codes]
        moduli = repeat(points)

        identity = tuple(range(n))
        codes: list[tuple[int, ...]] = [identity]
        code_index: dict[tuple[int, ...], int] = {identity: 0}
        parent_gen: list[tuple[int, int]] = [(-1, -1)]
        right: list[list[int]] = [[] for _ in gens]
        # the queue of the breadth-first search is codes[i:], in index order
        i = 0
        while i < len(codes):
            x = codes[i]
            for gpos, (pick, shift) in enumerate(zip(picks, shifts)):
                y = tuple(map(mod, map(add, pick(x), shift), moduli))
                j = code_index.get(y)
                if j is None:
                    if len(codes) >= cap:
                        raise ResourceCapError(
                            f"group not closed within cap {cap} elements"
                        )
                    j = len(codes)
                    codes.append(y)
                    code_index[y] = j
                    parent_gen.append((i, gpos))
                right[gpos].append(j)
            i += 1

        order = len(codes)
        inverse_index = tuple(code_index[_invert(code, n, conductor)] for code in codes)
        # s*x sends e_j to s's image of x's point codes[x][j]; tabulate s on
        # all n*conductor points once
        left = []
        for code in gen_codes:
            image = [(code[k] + a * n) % points for a in range(conductor) for k in range(n)]
            left.append([code_index[tuple(map(image.__getitem__, x))] for x in codes])

        mult_rows: Optional[list[tuple[int, ...]]] = None
        if order <= cls.EAGER_TABLE_LIMIT:
            # row recurrence: e_i = e_p * g implies e_i e_j = e_p (g e_j), so a
            # row is the parent's row gathered through g's left-multiplication.
            gathers = [_gatherer(lg) for lg in left]
            rows: list[tuple[int, ...]] = [tuple(range(order))]
            for p, gpos in parent_gen[1:]:
                rows.append(gathers[gpos](rows[p]))
            mult_rows = rows

        return cls(
            dimension=dimension,
            conductor=conductor,
            codes=codes,
            code_index=code_index,
            gens=tuple(code_index[code] for code in gen_codes),
            inverse_index=inverse_index,
            right=tuple(right),
            left=tuple(left),
            mult_rows=mult_rows,
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        if self._mult_rows is not None:
            return self._mult_rows[i][j]
        return self._code_index[
            _compose(self.codes[i], self.codes[j], self.dimension, self.conductor)
        ]

    def row(self, i: int) -> Sequence[int]:
        """Products i*j for j = 0..order-1, indexed by j; callers must not mutate it.

        A dense table hands out its own row without copying; a lazy table
        builds the row through mult.
        """
        if self._mult_rows is not None:
            return self._mult_rows[i]
        return tuple(self.mult(i, j) for j in range(self.order))

    def element_order(self, i: int) -> int:
        """Least m >= 1 with i^m = e.

        In a group of order |G| that m divides |G|, so powers that have not
        reached e after |G| steps mean a broken table; that raises
        ConsistencyError instead of looping forever.
        """
        m = 1
        x = i
        while x != 0:
            if m >= self.order:
                raise ConsistencyError(
                    f"powers of element {i} do not reach the identity within {self.order} steps"
                )
            x = self.mult(x, i)
            m += 1
        return m

    def conjugate(self, g: int, by: int) -> int:
        """Index of by^-1 * g * by."""
        return self.mult(self.mult(self.inverse_index[by], g), by)

    def conjugation_permutation(self, by: int) -> tuple[int, ...]:
        return tuple(self.conjugate(g, by) for g in range(self.order))

    def _generator_conjugations(self) -> tuple[tuple[int, ...], ...]:
        """For each generator s, the permutation x -> index of s^-1 x s.

        left_s (x -> s x) is a bijection of G whose inverse permutation is
        left multiplication by s^-1.  So right_s[left_s^-1[x]] = (s^-1 x) s,
        and each table is two lookups per element, with no products formed.
        """
        tables = []
        for right, left in zip(self._right, self._left):
            left_inverse = [0] * self.order
            for x, y in enumerate(left):
                left_inverse[y] = x
            tables.append(tuple(map(right.__getitem__, left_inverse)))
        return tuple(tables)

    def conjugacy_classes(self) -> ConjugacyPartition:
        """Classes found by walking each one under conjugation by the generators.

        The walk from g collects the smallest set containing g and closed
        under x -> s^-1 x s for every generator s.  Conjugating by a product
        ab is conjugating by a, then by b, so the set is closed under
        conjugation by every word in the generators.  Each inverse s^-1 is
        the power s^(ord(s)-1), so in a finite group every element is such a
        word, and the set is the whole class of g.  That costs about
        |class| * |gens| lookups in the tables of _generator_conjugations.
        """
        if self._classes is None:
            conjugations = self._generator_conjugations()
            order = self.order
            class_of = [-1] * order
            classes: list[tuple[int, ...]] = []
            for g in range(order):
                if class_of[g] >= 0:
                    continue
                seen = {g}
                stack = [g]
                while stack:
                    x = stack.pop()
                    for conj in conjugations:
                        y = conj[x]
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                orbit = sorted(seen)
                cid = len(classes)
                for member in orbit:
                    if class_of[member] >= 0:
                        raise ConsistencyError("conjugation orbits are not disjoint")
                    class_of[member] = cid
                classes.append(tuple(orbit))
            self._classes = ConjugacyPartition(
                classes=tuple(classes),
                representatives=tuple(c[0] for c in classes),
                class_of=tuple(class_of),
            )
        return self._classes

    def subgroup_closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Smallest subgroup containing the seed indices, as a sorted tuple."""
        gens = sorted(set(seed))
        for s in gens:
            if not 0 <= s < self.order:
                raise InputError(f"element index {s} out of range")
        members = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for s in gens:
                y = self.mult(x, s)
                if y not in members:
                    members.add(y)
                    queue.append(y)
        return tuple(sorted(members))


def _compose(x: tuple[int, ...], y: tuple[int, ...], n: int, conductor: int) -> tuple[int, ...]:
    """Code of x*y (apply y first): y's point a*n + k goes to x's code at k plus a*n."""
    points = n * conductor
    return tuple((x[v % n] + v - v % n) % points for v in y)


def _invert(code: tuple[int, ...], n: int, conductor: int) -> tuple[int, ...]:
    """Code of the inverse: e_j -> zeta^a e_k becomes e_k -> zeta^-a e_j."""
    inverse = [0] * n
    for j, c in enumerate(code):
        a, k = divmod(c, n)
        inverse[k] = (-a % conductor) * n + j
    return tuple(inverse)
