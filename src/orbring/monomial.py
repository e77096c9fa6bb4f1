"""Monomial matrices over roots of unity and the finite groups they generate.

A monomial map on C^n sends the basis vector e_j to a root-of-unity multiple
of e_{perm[j]}.  Groups are closed by breadth-first search from sorted
generators and stored as index tables, which keeps every later computation a
table lookup.  The closure runs on integer codes of the maps (perm and phases
mod the generators' conductor packed into one tuple of ints), not on
MonomialMap objects, a block of the search queue at a time, and records
left and right multiplication by each generator.  Inverses are derived from
the search's parents on first read.  Product rows are gathered from those
on first use, and the conjugacy classes are walked through per-generator
conjugation tables.
The table of the doubled maps g (+) conjugate(g) is derived from a closed
table rather than closed again, and shares its index tables.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from itertools import chain, compress, cycle, islice, repeat
from operator import add, getitem, is_, itemgetter, mod, sub

from ._record import Record
from .cyclotomic import DEFAULT_CONDUCTOR_CAP, CyclotomicNumber, RationalPhase
from .errors import ConsistencyError, InputError, ResourceCapError

__all__ = [
    "DEFAULT_GROUP_ORDER_CAP",
    "DIMENSION_CAP",
    "ConjugacyPartition",
    "GroupTable",
    "MonomialMap",
]

DEFAULT_GROUP_ORDER_CAP = 10000  # also the largest cap a spec may set
DIMENSION_CAP = 256  # verify also closes the doubled dimension 2n
# Elements per block of GroupTable.close's queue.  Median closure times of
# G(3,1,4) and G(2,1,5) (orders 1944 and 3840), 40 alternating runs on one
# x86-64 core: 8.0 and 20.7 ms at 64, 8.5 and 21.4 ms at 16, 9.1 and 22.3 ms
# at 256 and at the whole queue; tracemalloc peaks 0.54 and 1.42 MiB at 64,
# 0.69 and 1.59 MiB at the whole queue.
_CLOSE_BLOCK = 64


class MonomialMap(Record):
    """A linear map sending e_j to e^(2*pi*i*phases[j]) * e_{perm[j]}."""

    __slots__ = ("perm", "phases")

    def __init__(self, perm: Iterable[int], phases: Iterable[RationalPhase]):
        perm = tuple(perm)
        phases = tuple(phases)
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

    # Called by no command; SectorGeometry.trace reads it, for perfbench's
    # traced sectors.traces span and the tests' projector oracle.
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


class ConjugacyPartition(Record):
    """Conjugacy classes as sorted index tuples, in order of least member."""

    __slots__ = ("classes", "representatives", "class_of")

    def __len__(self) -> int:
        return len(self.classes)


def _gatherer(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """C-level gather: seq -> tuple(seq[i] for i in indices), for a tuple seq.

    itemgetter of one index returns the bare item, so one index or none
    becomes a slice, which gives a tuple from a tuple and, unlike a lambda,
    pickles with the table that keeps it.
    """
    if len(indices) == 1:
        (i,) = indices
        return itemgetter(slice(i, i + 1))
    if not indices:
        return itemgetter(slice(0, 0))
    return itemgetter(*indices)


class GroupTable:
    """A finite group of monomial maps closed from generators.

    Elements are indexed in breadth-first discovery order (index 0 is the
    identity).  Each element is held as its integer code: codes[i][j] = a*n + k
    when element i sends e_j to zeta^a e_k, with zeta = e^(2*pi*i/conductor)
    and 0 <= a < conductor.  Read as a permutation of the n*conductor points
    a*n + k (the vectors zeta^a e_k), a monomial map is fixed by the images of
    the points 0*n + j, and those images are its code.  So composing two maps
    needs only integer arithmetic mod n*conductor.

    Everything else is built on first read and then kept: the product rows
    (one way at every order, see row), the decoded elements and their index,
    inverse_index, the conjugation tables, the classes and the verdict of
    check_group.  A table and its doubled table (see doubled) share all of
    these but the decoded elements and inverse_index, which each derives
    from the search parents they share.
    """

    # Read by no code in orbring; kept only because perfbench/layers.py reads
    # it for the traced counter monomial.lazy_tables.
    EAGER_TABLE_LIMIT = 2048

    def __init__(
        self,
        *,
        dimension: int,
        conductor: int,
        codes: list[tuple[int, ...]],
        gens: tuple[int, ...],
        parent_gen: list[tuple[int, int]],
        right: tuple[Sequence[int], ...],
        left: tuple[Sequence[int], ...],
    ):
        self.dimension = dimension
        # The lcm of the generators' phase denominators.  Every element is a
        # product of the generators, so its phases lie in (1/conductor)Z/Z.
        self.conductor = conductor
        self.codes = codes
        # The closure is built from gens alone, so they generate the whole
        # group; verify_algebra's equivariance reduction relies on this.
        self.gens = gens
        # parent_gen[i] = (p, k): element i was found as p * gens[k]
        self._parent_gen = parent_gen
        # right[k][x] and left[k][x]: indices of x*s and s*x for s = gens[k]
        self._right = right
        self._left = left
        self._gathers = [_gatherer(lg) for lg in left]
        self._rows: list[Sequence[int] | None] = [None] * len(codes)
        self._rows[0] = tuple(range(len(codes)))
        # "conjugations", "classes" and "group", each set on first use; the
        # rows and this dict are shared with every table derived by doubled
        self._shared: dict = {}

    @cached_property
    def elements(self) -> list[MonomialMap]:
        """The elements as MonomialMaps, decoded from the codes on first read."""
        phase_of = [RationalPhase(a, self.conductor) for a in range(self.conductor)]
        n = self.dimension
        return [
            MonomialMap(tuple(c % n for c in code), tuple(phase_of[c // n] for c in code))
            for code in self.codes
        ]

    @cached_property
    def index(self) -> dict[MonomialMap, int]:
        return {element: i for i, element in enumerate(self.elements)}

    @cached_property
    def inverse_index(self) -> tuple[int, ...]:
        """Index of each element's inverse, derived from the search's parents on first read.

        If x was found as p*s, s = gens[k], then x^-1 = s^-1 * p^-1, the y
        with left_s[y] = p^-1.  So the inverse of x is the inverse of p read
        through the inverse permutation of left_s.  Each parent precedes its
        child, so the inverses fill in index order from the identity's, 0.
        Assigning the attribute replaces the derived tuple.
        """
        # row 0 is the identity permutation; its ints are reused, not made afresh
        indices = self.row(0)
        undo = []
        for left in self._left:
            back = [0] * len(left)
            for y, x in zip(indices, left):
                back[x] = y
            undo.append(back)
        inverse = [0]
        for p, k in islice(self._parent_gen, 1, None):
            inverse.append(undo[k][inverse[p]])
        return tuple(inverse)

    @classmethod
    def close(
        cls,
        generators: Iterable[MonomialMap],
        dimension: int,
        cap: int = DEFAULT_GROUP_ORDER_CAP,
    ) -> "GroupTable":
        """Breadth-first closure of the generators, run on their integer codes.

        Right products share one gather per element.  x*s applies s first:
        e_j goes to the point c = a*n + k of s's code, and x sends that point
        to its image x[k] + a*n mod n*conductor (x turns zeta^a e_k into
        zeta^a times its image of e_k).  For a = 0 that image is x[k], read
        from x's code as it is; only the turned points, a > 0, need
        arithmetic.  So x followed by its images of the sorted turned points
        the generators' codes hit holds every x*s, and one gather of it
        yields x*s for all generators s in turn, n points each.

        The queue is walked in blocks of up to _CLOSE_BLOCK consecutive
        elements, all discovered before the block starts.  C-level passes
        (map, chain, zip) form every product of the block and look each one
        up; Python runs only where a lookup missed, and looks the code up
        again there, since an earlier product of the same block may have
        numbered it.  Discovery order is that of the one-at-a-time search.
        The block's products are taken in its (element, generator) order.
        One that the block-wide lookup finds was numbered before the block,
        so the one-at-a-time search finds it too.  One that it misses is
        looked up again in turn, after every earlier product of the block
        has been numbered, and numbered there if still new, as the
        one-at-a-time search would number it.  The elements a block finds
        join the queue after it, where the one-at-a-time search reaches them
        too.  So every index, and the cap's error, is that search's.

        Left products come from the search's parents.  If x was found as p*t,
        t = gens[k], then s*x = s*(p*t) = (s*p)*t, so left_s[x] =
        right_k[left_s[p]].  Each parent precedes its child, so left_s fills
        in index order from left_s[0] = s, one list lookup per entry.
        """
        if dimension > DIMENSION_CAP:
            raise ResourceCapError(f"dimension {dimension} exceeds the cap {DIMENSION_CAP}")
        if type(cap) is not int or cap < 1:
            raise InputError(f"group order cap must be a positive integer, got {cap!r}")
        if cap > DEFAULT_GROUP_ORDER_CAP:
            raise ResourceCapError(
                f"group order cap {cap} exceeds the cap {DEFAULT_GROUP_ORDER_CAP}"
            )
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
        gen_codes = [_encode(g, n, conductor) for g in gens]
        turned = sorted({c for code in gen_codes for c in code if c >= n})
        pick = _gatherer(tuple(c % n for c in turned))
        shift = tuple(c - c % n for c in turned)
        moduli = repeat(n * conductor)
        # a point c < n is read from position c of an element's code, a
        # turned point from its place after them
        position = {c: n + q for q, c in enumerate(turned)}
        times_gens = _gatherer(tuple(position.get(c, c) for code in gen_codes for c in code))
        width = len(gens)

        identity = tuple(range(n))
        codes: list[tuple[int, ...]] = [identity]
        code_index: dict[tuple[int, ...], int] = {identity: 0}
        parent_gen: list[tuple[int, int]] = [(-1, -1)]
        right: list[list[int]] = [[] for _ in gens]
        # the queue of the breadth-first search is codes[i:], in index order
        i = 0
        while i < len(codes):
            block = codes[i : i + _CLOSE_BLOCK]
            turns = map(mod, map(add, chain.from_iterable(map(pick, block)), cycle(shift)), moduli)
            images = map(add, block, zip(*[turns] * len(turned))) if turned else block
            found = chain.from_iterable(map(times_gens, images))
            # in dimension 0 every code is (), and zip of no iterators is empty
            ys = list(zip(*[found] * n)) if n else [()] * (len(block) * width)
            js = list(map(code_index.get, ys))
            for q in compress(range(len(js)), map(is_, js, repeat(None))):
                y = ys[q]
                j = code_index.get(y)
                if j is None:
                    if len(codes) >= cap:
                        raise ResourceCapError(
                            f"group not closed within cap {cap} elements"
                        )
                    j = len(codes)
                    codes.append(y)
                    code_index[y] = j
                    offset, k = divmod(q, width)
                    parent_gen.append((i + offset, k))
                js[q] = j
            for k, column in enumerate(right):
                column.extend(js[k::width])
            i += len(block)

        left = []
        for code in gen_codes:
            products = [code_index[code]]
            for p, k in islice(parent_gen, 1, None):
                products.append(right[k][products[p]])
            left.append(products)

        return cls(
            dimension=dimension,
            conductor=conductor,
            codes=codes,
            gens=tuple(code_index[code] for code in gen_codes),
            parent_gen=parent_gen,
            right=tuple(right),
            left=tuple(left),
        )

    def doubled(self, generators: Iterable[MonomialMap]) -> "GroupTable":
        """The table of the doubles g (+) conjugate(g), derived from this one.

        Doubling is an injective homomorphism, so element i's double is
        element i of the doubled group, and every index table here is the
        doubled group's too.  The derived table shares them, product rows
        included, and holds only its own codes.  generators are the doubled
        spec's.  Doubling keeps their sorted order, so GroupTable.close of
        them gives this same table.  Sorted, their codes must be the doubled
        codes of gens (MonomialMap.double against _double), code 0 the
        identity, and each code its parent's times its generator's.  As
        phi(i) = phi(p) phi(s_k) (see _composes_by_generators) and doubling
        is a homomorphism, induction on i makes each code that of
        elements[i].double().  A mismatch raises ConsistencyError.
        """
        n = self.dimension
        if 2 * n > DIMENSION_CAP:
            raise ResourceCapError(f"dimension {2 * n} exceeds the cap {DIMENSION_CAP}")
        conductor = self.conductor
        codes = [_double(code, n, conductor) for code in self.codes]
        given = sorted(set(generators), key=MonomialMap.sort_key)
        if [_encode(g, 2 * n, conductor) for g in given] != [codes[s] for s in self.gens]:
            raise ConsistencyError("doubled generators are not the doubles of the table's")
        if codes[0] != tuple(range(2 * n)) or not self._composes_along(codes, 2 * n):
            raise ConsistencyError("doubled codes do not compose along the search parents")
        table = GroupTable(
            dimension=2 * n,
            conductor=conductor,
            codes=codes,
            gens=self.gens,
            parent_gen=self._parent_gen,
            right=self._right,
            left=self._left,
        )
        table._rows = self._rows
        table._shared = self._shared
        return table

    @property
    def order(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def mult(self, i: int, j: int) -> int:
        return self.row(i)[j]

    def row(self, i: int) -> Sequence[int]:
        """Products i*j for j = 0..order-1, indexed by j; callers must not mutate it.

        Built on first use and kept.  If the breadth-first search found i as
        p*s with s = gens[k], then for every j
            i*j = (p*s)*j = p*(s*j) = p*left[k][j],
        so row i is row p gathered through left[k], one C-level gather.  Row
        0 is the identity permutation, and each parent precedes its child in
        the search, so walking parents from i reaches a built row (at the
        latest row 0); the gathers back down yield row i.  Only row i is
        kept, so a caller reading rows in index order pays one gather each.
        """
        rows = self._rows
        if rows[i] is None:
            steps = []
            x = i
            while rows[x] is None:
                x, k = self._parent_gen[x]
                steps.append(k)
            built = rows[x]
            for k in reversed(steps):
                built = self._gathers[k](built)
            rows[i] = built
        return rows[i]

    def cycles(self, i: int) -> list[tuple[int, int]]:
        """(L, s) per permutation cycle of element i: its length and its phase sum s/N mod 1.

        N is the conductor and 0 <= s < N; the L-th power of the element is
        the scalar zeta^s on the cycle's coordinates.
        """
        n = self.dimension
        code = self.codes[i]
        seen = [False] * n
        out = []
        for start in range(n):
            s = length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                a, j = divmod(code[j], n)  # code a*n + k: e_j -> zeta^a e_k
                s += a
                length += 1
            if length:
                out.append((length, s % self.conductor))
        return out

    def element_order(self, i: int) -> int:
        """Least m >= 1 with i^m = e: the lcm over cycles (L, s) of L*N/gcd(s, N).

        i^m moves a cycle's coordinates unless L divides m, and i^(tL) is
        zeta^(st) there, which is 1 exactly when N/gcd(s, N) divides t.
        """
        cycles = self.cycles(i)
        modulus = self.conductor
        return math.lcm(*(length * modulus // math.gcd(s, modulus) for length, s in cycles))

    def conjugate(self, g: int, by: int) -> int:
        """Index of by^-1 * g * by."""
        return self.mult(self.mult(self.inverse_index[by], g), by)

    def conjugation_permutation(self, by: int) -> tuple[int, ...]:
        return tuple(self.conjugate(g, by) for g in range(self.order))

    @property
    def generator_conjugations(self) -> tuple[tuple[int, ...], ...]:
        """For each generator s, the permutation x -> index of s^-1 x s.

        If x = s*y, then s^-1 x s = y*s.  As y runs over G, x = left_s[y]
        runs over G too, so conj[left_s[y]] = right_s[y] fills each table in
        one scatter, with no products formed and no inverse permutation.
        """
        shared = self._shared
        if "conjugations" not in shared:
            tables = []
            for right, left in zip(self._right, self._left):
                conj = [0] * self.order
                for x, y_s in zip(left, right):
                    conj[x] = y_s
                tables.append(tuple(conj))
            shared["conjugations"] = tuple(tables)
        return shared["conjugations"]

    def conjugacy_classes(self) -> ConjugacyPartition:
        """Classes found by walking each one under conjugation by the generators.

        The walk from g collects the smallest set containing g and closed
        under x -> s^-1 x s for every generator s.  Conjugating by a product
        ab is conjugating by a, then by b, so the set is closed under
        conjugation by every word in the generators.  Each inverse s^-1 is
        the power s^(ord(s)-1), so in a finite group every element is such a
        word, and the set is the whole class of g.  That costs about
        |class| * |gens| lookups in the tables of generator_conjugations.
        """
        if "classes" not in self._shared:
            conjugations = self.generator_conjugations
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
            self._shared["classes"] = ConjugacyPartition(
                classes=tuple(classes),
                representatives=tuple(c[0] for c in classes),
                class_of=tuple(class_of),
            )
        return self._shared["classes"]

    def shares_group_with(self, other: "GroupTable") -> bool:
        """Whether other reads this table's product rows and shared facts (see doubled)."""
        return self._rows is other._rows and self._shared is other._shared

    def is_group_table(self) -> bool:
        """check_group's kept verdict, decided on first call; check_group again after a change."""
        verdict = self._shared.get("group")
        return self.check_group() if verdict is None else verdict

    def check_group(self) -> bool:
        """Whether the rows are a group's table, inverse_index its inverses, and
        generator_conjugations its conjugations by the generators.

        Decided afresh and kept for is_group_table and every table sharing
        the rows.  _composes_by_generators proves phi(mult(i, j)) = phi(i)
        phi(j) for the injective phi(i) = elements[i], along the search
        parents, so the rows multiply the set phi(G), which they close: a
        group, isomorphic to the table.  In a group mult(i, t) = 0 makes t
        the inverse of i, and then mult(mult(t, x), s) for t = inverse_index[s]
        is conjugation by s.  verify_algebra's reductions and
        main_theorem_check's class stage assume a True verdict; a False one
        decides nothing.
        """
        verdict = self._composes_by_generators() and self._conjugations_hold()
        self._shared["group"] = verdict
        return verdict

    def _conjugations_hold(self) -> bool:
        """inverse_index inverts each row (all stored now), and conjugation by s is s^-1 x s."""
        inverse, rows = self.inverse_index, self._rows
        return not any(map(getitem, rows, inverse)) and all(
            _gatherer(rows[inverse[s]])(tuple(map(itemgetter(s), rows))) == conj
            for s, conj in zip(self.gens, self.generator_conjugations)
        )

    def _composes_by_generators(self) -> bool:
        """Whether elements[mult(i, j)] = elements[i] * elements[j] for all i, j follows from
        the search parents, with elements[0] the identity and no element repeated.

        Write phi(i) for elements[i], with phi(0) the identity, s_k for
        gens[k] and (p, k) for the parent of i > 0, and suppose
          (a) p < i and phi(i) = phi(p) phi(s_k) for every i > 0;
          (b) phi(left_k[j]) = phi(s_k) phi(j) for every j and k;
          (c) row 0 is the identity, and row i is row p gathered through
              left_k: mult(i, j) = mult(p, left_k[j]).
        Then phi(mult(i, j)) = phi(i) phi(j), by induction on i.  For i = 0
        both sides are phi(j).  For i > 0, p < i by (a), and
          phi(mult(i, j)) = phi(mult(p, left_k[j]))     by (c)
                          = phi(p) phi(left_k[j])       by induction
                          = phi(p) phi(s_k) phi(j)      by (b)
                          = phi(i) phi(j)               by (a).
        (a) and (b) compose the re-encoded elements' codes (see GroupTable)
        as the closure does; a decoded phase whose denominator does not
        divide the conductor has no code, and the answer is False.  (c) is
        one C-level gather per row: a stored row is compared with it, and a
        row not yet built is stored as row would build it.  A False answer
        decides nothing; the caller's scan does.
        """
        order, rows = self.order, self._rows
        n, conductor = self.dimension, self.conductor
        codes = [_encode(element, n, conductor) for element in self.elements]
        if None in codes or codes[0] != tuple(range(n)) or len(set(codes)) != order:
            return False
        if rows[0] != tuple(range(order)) or not self._composes_along(codes, n):
            return False
        # s*x sends the point a*n + q of x's code to s[q] + a*n, for every x at once
        points = tuple(chain.from_iterable(codes))
        low = tuple(map(mod, points, repeat(n)))
        turns, moduli = tuple(map(sub, points, low)), repeat(n * conductor)
        for s, left in zip(self.gens, self._left):
            products = map(mod, map(add, map(codes[s].__getitem__, low), turns), moduli)
            if list(products) != list(chain.from_iterable(map(codes.__getitem__, left))):
                return False
        through = [_gatherer(left) for left in self._left]
        for i, (p, k) in enumerate(islice(self._parent_gen, 1, None), 1):
            built = through[k](rows[p])
            if rows[i] is None:
                rows[i] = built
            elif rows[i] != built:
                return False
        return True

    def _composes_along(self, codes: list[tuple[int, ...]], n: int) -> bool:
        """Whether p < i and codes[i] = codes[p] * codes[gens[k]] for each parent (p, k) of i."""
        times = [_composer(codes[s], n, self.conductor) for s in self.gens]
        parents = enumerate(islice(self._parent_gen, 1, None), 1)
        return all(0 <= p < i and times[k](codes[p]) == codes[i] for i, (p, k) in parents)

    # Called by no command; kept because perfbench/layers.py counts the
    # subgroups <g, h> with it for the traced counter sectors.subgroups, and
    # the tests' projector oracle averages over them.
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


def _encode(m: MonomialMap, n: int, conductor: int) -> tuple[int, ...] | None:
    """Code of a monomial map on C^n (see GroupTable), or None if a phase is off (1/conductor)Z."""
    code = []
    for k, p in zip(m.perm, m.phases):
        step, rest = divmod(conductor, p.denominator)
        if rest:
            return None
        code.append(p.numerator * step * n + k)
    return tuple(code)


def _composer(code: tuple[int, ...], n: int, conductor: int) -> Callable[[tuple], tuple]:
    """x -> code of x*s, for s of the given code.

    x*s applies s first: e_j goes to the point c = a*n + k of s's code,
    which x sends to x[k] + a*n mod n*conductor, as in GroupTable.close.
    """
    pick = _gatherer(tuple(c % n for c in code))
    shift = tuple(c - c % n for c in code)
    moduli = (n * conductor,) * n
    return lambda x: tuple(map(mod, map(add, pick(x), shift), moduli))


def _double(code: tuple[int, ...], n: int, conductor: int) -> tuple[int, ...]:
    """Code of the block sum with the dual: e_j -> zeta^a e_k adds e_(n+j) -> zeta^-a e_(n+k)."""
    pairs = [divmod(c, n) for c in code]
    low = [a * 2 * n + k for a, k in pairs]
    return tuple(low + [-a % conductor * 2 * n + n + k for a, k in pairs])
