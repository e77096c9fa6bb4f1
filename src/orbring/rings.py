"""Graded sector algebras for the two exact product rules on a linear orbifold.

Fixed loci of a linear action are linear subspaces, hence contractible, so
every sector contributes a single generator.  Two gates decide each product:
the Euler class of a positive-rank bundle over a contractible base vanishes
(rank gate), and the wrong-way map into a strictly larger fixed subspace
raises cohomological degree out of a contractible space (codimension gate).
Structure constants are therefore 0 or 1 at sector level, and each algebra
holds its rows as bytes over {0, 1}; class-level constants of the
conjugation-invariant subring are nonnegative ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import mul

from ._record import Record
from .errors import ConsistencyError, InputError
from .monomial import GroupTable, _gatherer
from .orbifold import OrbifoldSpec, cotangent_double
from .sectors import SectorData, SectorGeometry

__all__ = [
    "CR",
    "VIRT",
    "THEORIES",
    "AlgebraReport",
    "AxiomCheck",
    "InvariantRing",
    "OrbifoldModel",
    "SectorAlgebra",
    "verify_algebra",
]

CR = "cr"
VIRT = "virt"
THEORIES = (CR, VIRT)


def _check_theory(theory: str) -> None:
    if theory not in THEORIES:
        raise InputError(f"theory must be one of {THEORIES}, got {theory!r}")


class OrbifoldModel:
    """One linear quotient orbifold, closed and measured.

    Bundles the closed group table, the exact sector geometry and the two
    sector algebras, whose constants are gated by the bundle ranks of every
    pair of sectors.
    """

    def __init__(
        self, spec: OrbifoldSpec, *, forget_geometry: bool = False, table: GroupTable | None = None
    ):
        """table, if given, is the group spec closes to; by default it is closed here."""
        self.spec = spec
        self.forget_geometry = forget_geometry
        self.table = spec.close() if table is None else table
        self.geometry = SectorGeometry(self.table, forget=forget_geometry)
        self._algebras: dict[str, SectorAlgebra] = {}
        self._reports: dict[str, tuple[SectorAlgebra, AlgebraReport]] = {}
        self._cotangent: OrbifoldModel | None = None

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def n(self) -> int:
        return self.geometry.n

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(self.label, range(self.order)))

    def label(self, i: int) -> str:
        """Element i's label, formatted alone: inspect labels only the class representatives."""
        return "e" if i == 0 else f"g{i}"

    def sector(self, i: int) -> SectorData:
        return self.geometry.sector(i)

    def fixed_dim_pair(self, g: int, h: int) -> int:
        ids = self.geometry.subspace_ids
        return self.geometry.subspace_pairs[ids[g]][ids[h]]

    def checked_rank(self, kind: str, g: int, h: int, scaled: int, scale: int = 1) -> int:
        """The bundle rank scaled/scale at (g, h); raises unless it is a nonnegative integer."""
        if scaled < 0 or scaled % scale:
            raise ConsistencyError(
                f"{kind} rank at ({self.label(g)}, {self.label(h)}) is "
                f"{Fraction(scaled, scale)}, expected a nonnegative integer"
            )
        return scaled // scale

    def algebra(self, theory: str) -> "SectorAlgebra":
        _check_theory(theory)
        alg = self._algebras.get(theory)
        if alg is None:
            geometry = self.geometry
            if theory == CR:
                degrees = tuple(Fraction(2 * a, geometry.scale) for a in geometry.ages)
            else:
                degrees = tuple(Fraction(2 * (self.n - f)) for f in geometry.fixed)
            alg = SectorAlgebra(
                theory=theory,
                table=self.table,
                degrees=degrees,
                constants=self._constant_rows(theory),
                labels=self.labels,
            )
            self._algebras[theory] = alg
        return alg

    def built(self, theory: str) -> "SectorAlgebra | None":
        """The theory's algebra if algebra() has built it, else None; builds nothing."""
        return self._algebras.get(theory)

    def algebra_report(self, theory: str) -> "AlgebraReport":
        """verify_algebra(self.algebra(theory)), derived once for each algebra the model holds."""
        alg = self.algebra(theory)
        kept = self._reports.get(theory)
        if kept is None or kept[0] is not alg:
            kept = self._reports[theory] = (alg, verify_algebra(alg))
        return kept[1]

    def _constant_rows(self, theory: str) -> tuple[bytes, ...]:
        """The theory's structure constants as one bytes row per g, from the int arrays.

        Entry h of row g, the coefficient of x_{gh} in x_g * x_h, is 1 iff
        both gates pass.  The rank gate asks that the bundle rank vanish: for
        cr the obstruction rank age g + age h - age gh - dim V^gh +
        dim(V^g meet V^h), here times geometry.scale (the ages' common
        denominator); for virt the excess rank n - dim V^g - dim V^h +
        dim(V^g meet V^h), zero exactly when the two fixed subspaces meet
        transversally.  The codimension gate asks that V^g meet V^h be
        V^gh, that is, have its dimension.  An entry whose rank is not a
        nonnegative integer raises the rank's ConsistencyError through
        checked_rank.  The tests keep a one-entry form of the two gates as
        the oracle for every entry.
        """
        geometry = self.geometry
        fixed = geometry.fixed
        n = self.n
        ages = geometry.ages
        cr = theory == CR
        scale, kind = (geometry.scale, "obstruction") if cr else (1, "excess")
        ids = geometry.subspace_ids
        pair_rows = geometry.subspace_rows()
        rows = []
        for g in range(self.order):
            row = bytearray(self.order)
            for h, (gh, p) in enumerate(zip(self.table.row(g), pair_rows[ids[g]])):
                if cr:
                    scaled = ages[g] + ages[h] - ages[gh] + scale * (p - fixed[gh])
                else:
                    scaled = n - fixed[g] - fixed[h] + p
                if scaled < 0 or scaled % scale:
                    self.checked_rank(kind, g, h, scaled, scale)
                if scaled == 0 and p == fixed[gh]:
                    row[h] = 1
            rows.append(bytes(row))
        return tuple(rows)

    def cotangent_model(self) -> "OrbifoldModel":
        """Model of the doubled orbifold, in the same geometry mode.

        Its table is derived from this one (GroupTable.doubled), not closed
        again: element i is the double of element i, and the two tables
        share one set of product rows and classes.
        """
        if self._cotangent is None:
            spec = cotangent_double(self.spec)
            self._cotangent = OrbifoldModel(
                spec,
                forget_geometry=self.forget_geometry,
                table=self.table.doubled(spec.generators),
            )
        return self._cotangent


_RING_JSON = '{\n  "theory": %s,\n  "basis": %s,\n  "degrees": %s,\n  "constants": %s\n}\n'
_INT_ENTRY_JSON = '\n    [\n      %d,\n      %d,\n      %d,\n      "%d"\n    ]'


class _Ring:
    """The members the two rings share: identity comparison, order and JSON.

    A ring lists one basis label and one degree per basis element, and yields
    its nonzero constants, all ints, as (a, b, c, value) from _nonzero_entries.
    """

    __slots__ = ()
    __eq__ = object.__eq__  # compared by identity
    __hash__ = object.__hash__

    @property
    def order(self) -> int:
        return len(self.labels)

    def to_json_dict(self) -> dict:
        return {
            "theory": self.theory,
            "basis": list(self.labels),
            "degrees": [str(d) for d in self.degrees],
            "constants": [[a, b, c, str(v)] for a, b, c, v in self._nonzero_entries()],
        }

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2) plus a newline, written directly.

        CPython's C encoder runs only when indent is None, so json.dumps with
        an indent renders every entry in pure Python; here each entry
        (a, b, c, value) is one % format instead.  The strings are escaped by
        the encoder's own ensure_ascii function.
        """

        def strings(items) -> str:
            body = ",\n    ".join(map(_quote, items))
            return "[\n    " + body + "\n  ]" if body else "[]"

        constants = ",".join(_INT_ENTRY_JSON % entry for entry in self._nonzero_entries())
        return _RING_JSON % (
            _quote(self.theory),
            strings(self.labels),
            strings(map(str, self.degrees)),
            "[" + constants + "\n  ]" if constants else "[]",
        )


class SectorAlgebra(_Ring, Record, repr_omit=("table",)):
    """Group-graded algebra on one generator x_g per sector.

    Carries the degree map, the 0/1 structure constants, the normalized sector
    pairing, and the conjugation action (through the group table).  The
    constants are one bytes row per g, of length |G| and over {0, 1}, so
    constants[g][h] is the int c[g][h].

    Two bilinear forms appear on this algebra.  The *sector pairing* couples
    x_g to x_{g^-1} with value 1: sectors are contractible, so there is no
    canonical volume to integrate against, and this is the normalization that
    makes the identity sector self-paired to 1.  The *trace form* is
    eps(a * b), where eps reads off the identity-sector coefficient; it is the
    form whose compatibility with the product is checked by verify_algebra.
    """

    __slots__ = ("theory", "table", "degrees", "constants", "labels")

    def constant(self, g: int, h: int) -> int:
        return self.constants[g][h]

    def pairing(self, g: int, h: int) -> int:
        """Normalized sector pairing: 1 on (g, g^-1), else 0."""
        return 1 if self.table.inverse_index[g] == h else 0

    def trace_form(self, g: int, h: int) -> int:
        """eps(x_g * x_h) where eps extracts the identity-sector coefficient."""
        if self.table.mult(g, h) == 0:
            return self.constants[g][h]
        return 0

    def invariant_ring(self) -> "InvariantRing":
        """Products of class sums, regrouped by conjugacy class in one sweep of the rows.

        For each class a, every c[g][h] = 1 with g in C_a adds 1 to the
        coefficient of x_gh in y_a * y_b, where b is the class of h; each g
        adds at most once to a coefficient, in the order of C_a.  A class
        that no product touches has coefficient 0 throughout, so it is
        constant and contributes no constant; only the touched classes are
        checked, in (a, b, c) order, which is the order the constants are
        inserted in.  The work is |G|^2 plus the nonzero entries, holding
        one class's sums at a time.
        """
        part = self.table.conjugacy_classes()
        degrees = []
        for cls in part.classes:
            values = {self.degrees[i] for i in cls}
            if len(values) != 1:
                raise ConsistencyError(
                    f"degree is not constant on class {cls}: {sorted(values)}"
                )
            degrees.append(values.pop())
        class_of = part.class_of
        indices = range(self.order)
        constants: dict[tuple[int, int, int], int] = {}
        for a, class_a in enumerate(part.classes):
            sums: dict[int, dict[int, int]] = {}
            for g in class_a:
                products = self.table.row(g)
                for h in compress(indices, self.constants[g]):
                    acc = sums.setdefault(class_of[h], {})
                    k = products[h]
                    acc[k] = acc.get(k, 0) + 1
            for b in sorted(sums):
                acc = sums[b]
                for cid in sorted({class_of[k] for k in acc}):
                    values = {acc.get(k, 0) for k in part.classes[cid]}
                    if len(values) != 1:
                        raise ConsistencyError(
                            f"class sum product y[{a}]*y[{b}] is not class-constant "
                            f"on class {cid}: {sorted(values)}"
                        )
                    value = values.pop()
                    if value:
                        constants[(a, b, cid)] = value
        return InvariantRing(
            theory=self.theory,
            labels=tuple(f"[{self.labels[r]}]" for r in part.representatives),
            class_sizes=tuple(len(c) for c in part.classes),
            degrees=tuple(degrees),
            constants=constants,
        )

    def _nonzero_entries(self):
        """(g, h, gh, c) for every nonzero constant c = c[g][h], row by row."""
        indices = range(self.order)
        for g, row in enumerate(self.constants):
            products = self.table.row(g)
            for h in compress(indices, row):
                yield g, h, products[h], row[h]

    def to_text(self) -> str:
        width = max(max(len(s) for s in self.labels), len("sector"))
        cell = max(len(s) for s in self.labels)
        lines = [f"theory {self.theory}, {self.order} sectors"]
        lines.append(f"{'sector':<{width}}  degree")
        for label, deg in zip(self.labels, self.degrees):
            lines.append(f"{label:<{width}}  {deg}")
        lines.append("")
        lines.append("constants (row * column lands in the product sector):")
        header = " " * (width + 2) + "  ".join(f"{s:>{cell}}" for s in self.labels)
        lines.append(header)
        for g in range(self.order):
            row = "  ".join(f"{str(self.constants[g][h]):>{cell}}" for h in range(self.order))
            lines.append(f"{self.labels[g]:<{width}}  {row}")
        return "\n".join(lines) + "\n"


class InvariantRing(_Ring, Record):
    """The conjugation-invariant subring on the class-sum basis."""

    __slots__ = ("theory", "labels", "class_sizes", "degrees", "constants")

    def constant(self, a: int, b: int, c: int) -> int:
        return self.constants.get((a, b, c), 0)

    def _nonzero_entries(self):
        """(a, b, c, v) for every stored coefficient v of y_c in y_a * y_b, in key order."""
        return ((a, b, c, v) for (a, b, c), v in sorted(self.constants.items()))

    def to_text(self) -> str:
        width = max(max(len(s) for s in self.labels), len("class"))
        lines = [f"theory {self.theory}, {self.order} classes"]
        lines.append(f"{'class':<{width}}  size  degree")
        for label, size, deg in zip(self.labels, self.class_sizes, self.degrees):
            lines.append(f"{label:<{width}}  {size:<4}  {deg}")
        lines.append("")
        lines.append("products of class sums:")
        terms: dict[tuple[int, int], list[str]] = {}
        for (a, b, c), v in sorted(self.constants.items()):
            term = f"y{self.labels[c]}" if v == 1 else f"{v}*y{self.labels[c]}"
            terms.setdefault((a, b), []).append(term)
        for a in range(self.order):
            for b in range(self.order):
                rhs = " + ".join(terms.get((a, b), ())) or "0"
                lines.append(f"y{self.labels[a]:<{width}} * y{self.labels[b]:<{width}} = {rhs}")
        return "\n".join(lines) + "\n"


class AxiomCheck(Record):
    __slots__ = ("name", "passed", "counterexample")

    def __init__(self, name: str, passed: bool, counterexample: dict | None = None):
        super().__init__(name, passed, counterexample)


class AlgebraReport(Record):
    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> AxiomCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def verify_algebra(alg: SectorAlgebra) -> AlgebraReport:
    """Decide the algebra axioms exactly over the whole basis.

    Checks associativity, grading, unit laws, Frobenius compatibility of the
    trace form, nondegeneracy of the sector pairing, and equivariance of the
    constants under simultaneous conjugation.  Failures are reported with the
    first counterexample in lexicographic order, never raised.

    The three axioms stated over triples are decided in about |G|^2 work by
    exact reductions, each equivalent to the |G|^3 scan it replaces (proofs
    below and in _frobenius_reduced and _associativity_reduced), and each
    pass reports the scan's lex-first counterexample itself.  Grading is
    checked in one pass on ints over the nonzero entries, and nondegeneracy
    in O(|G|) on inverse_index (_nondegeneracy_by_inverses).  The tests
    compare this report against the |G|^3 and per-pair scans of the tests'
    support module.

    Every constant is 0 or 1, so associativity compares supports as int
    bitmasks, derived once per algebra, and _associativity_reduced proves
    that equivalent to comparing the values.  Frobenius compatibility is
    decided by associativity unless that fails (_frobenius_reduced).

    Equivariance is checked for conjugation by the table's generators only.
    Call k a symmetry when c[k^-1 g k][k^-1 h k] = c[g][h] for all g, h.
    Conjugation by ab is conjugation by a, then by b, so symmetries are
    closed under products and, in a finite group, form a subgroup; table.gens
    generate the group it was closed from, so if every generator is a
    symmetry, every k is (the trivial group has none).  The cube meets
    (k, g, h) in lex order, so its first counterexample has the least
    non-symmetric k.  The closure's first step is from e, so table.gens
    lists the non-identity generators as the elements 1..m, in index order,
    apart from a possible identity generator, whose conjugation is trivial.
    Every element below the least non-symmetric generator is therefore e or
    a symmetric generator, and that generator is the cube's k.

    The three reductions assume a group table whose inverse_index and
    generator_conjugations are its inverses and conjugations, which
    table.is_group_table() decides once per table.  Where it does not hold,
    each defect shape has its one exact-order scan: the triple scan
    _first_defect_by_rows over every g, on the constants for associativity
    and on the trace rows for Frobenius, and _equivariance's transported-row
    scan under conjugation by every element.
    """
    table = alg.table
    if table.is_group_table():
        masks = _binary_masks(alg)
        equivariance = _equivariance(alg, zip(table.gens, table.generator_conjugations), masks)
        associativity = _associativity_reduced(alg, equivariance.passed, masks)
        frobenius = _frobenius_reduced(alg, associativity.passed)
    else:
        conjugators = ((k, table.conjugation_permutation(k)) for k in range(alg.order))
        equivariance = _equivariance(alg, conjugators, None)
        associativity = _associativity_reduced(alg, False, None)
        frobenius = _frobenius_by_triples(alg)
    checks = (
        associativity,
        _grading_by_rows(alg),
        _check_unit(alg),
        frobenius,
        _nondegeneracy_by_inverses(alg),
        equivariance,
    )
    return AlgebraReport(checks)


def _associativity_reduced(alg: SectorAlgebra, equivariant: bool, masks) -> AxiomCheck:
    """Associativity with g over class representatives when the constants are equivariant.

    The defect at (g, h, k) is the pair c[g][h] c[gh][k], c[h][k] c[g][hk].
    Conjugation by x is a group automorphism, so when every c[g^x][h^x]
    equals c[g][h] the defect at (g^x, h^x, k^x) equals the defect at
    (g, h, k).  Every triple is conjugate to one whose g is the
    representative of its class, so those triples decide the axiom.  Without
    equivariance g ranges over the whole group and this is the cube itself.

    Each (g, h) is decided for all k at once.  With values 0 and 1 both
    sides are 0 or 1, so they agree for every k exactly when the k where
    each side is 1 form the same set, and, k -> hk being a bijection, when
    the images of those sets under it are equal.  The right side is 1 where
    c[h][k] = 1 and c[g][hk] = 1, with image P_h & S_g, where S_g is row g's
    support and P_h = {hk : c[h][k] = 1}.  The left side is 0 for every k
    when c[g][h] = 0; when c[g][h] = 1 it is c[gh][k], with image the
    translate {hk : c[gh][k] = 1} = g^-1 P_gh of row gh by h.  When row gh
    has more ones than zeros, that translate is the complement of
    {hk : c[gh][k] = 0} (the same bijection), so it is built from the
    smaller side: an all-ones or all-zeros row costs nothing, and a sparse
    row its ones (_binary_masks, _first_defect_by_masks).

    The pass also reports the cube's lex-first counterexample.  The cube
    meets triples in lex order, so its first counterexample has the least
    defective g, then that g's least defective h, then the least k with a
    defect at (g, h).  Without equivariance every g is visited, so that is
    the cube's g.  With equivariance the defective g form whole classes,
    since a defect at (g, h, k) is one at (g^x, h^x, k^x); a class is a
    sorted tuple whose least member is its representative, so the least
    defective g is the least defective representative.  Both searches visit
    g in increasing order and h in increasing order and stop at the first
    defect, and at that (g, h) the k loop is the cube's own.

    The masks need each row h of the table to be a permutation, so that
    k -> hk is a bijection; on a table not known to be a group's the
    caller passes None, and every g has its rows compared.  Either way the
    triple scan _first_defect_by_rows names the counterexample, with masks
    over the one g they found, where it meets the same least h.
    """
    firsts = alg.table.conjugacy_classes().representatives if equivariant else range(alg.order)
    if masks is not None:
        g = _first_defect_by_masks(alg, firsts, masks)
        if g is None:
            return AxiomCheck("associativity", True)
        firsts = (g,)
    found = _first_defect_by_rows(alg, alg.constants, firsts)
    if found is None:
        return AxiomCheck("associativity", True)
    return AxiomCheck("associativity", False, _triple_payload(alg, *found))


_SWAP_BITS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _binary_masks(alg: SectorAlgebra):
    """(supports, sides, bits) of an algebra's 0/1 rows.

    bits[i] is 1 << i and supports[g] the int whose bit h is c[g][h].
    sides[m] is (gather, flip): gather picks out the k of the smaller of row
    m's ones and zeros, or is None if there are none, and flip is 0 for the
    ones or the all-ones mask for the zeros.  The translate {xk : c[m][k] = 1} is
    then sum(bits[x*k] for the k picked) ^ flip.  A support is read from
    the row's hex digits: the last digit of each byte's pair, taken from the
    end, spells the row's bits from h = |G| - 1 down to 0.
    """
    order = alg.order
    indices = tuple(range(order))  # shared ints for the sides to point at
    full = (1 << order) - 1
    bits = [1 << i for i in indices]
    supports, sides = [], []
    for flags in alg.constants:
        support = int(flags.hex()[::-2], 2)
        supports.append(support)
        flip = 0
        if 2 * support.bit_count() > order:
            flags, flip = flags.translate(_SWAP_BITS), full
        side = tuple(compress(indices, flags))
        sides.append((_gatherer(side) if side else None, flip))
    return supports, sides, bits


def _first_defect_by_masks(alg: SectorAlgebra, firsts, masks) -> int | None:
    """The least g in firsts with a defect at some (g, h), decided on a 0/1 algebra's masks.

    images[h] is the mask of P_h = {hk : c[h][k] = 1}, the translate of row h by h.
    """
    supports, sides, bits = masks
    bit = bits.__getitem__
    table = alg.table
    images = [
        sum(map(bit, gather(table.row(h)))) ^ flip if gather else flip
        for h, (gather, flip) in enumerate(sides)
    ]
    product_rows = [table.row(h) for h in range(alg.order)]
    for g in firsts:
        support = supports[g]
        entries = zip(alg.constants[g], table.row(g), images, product_rows)
        for c, gh, image, row_h in entries:
            both = image & support
            if c:
                gather, translate = sides[gh]
                if gather:
                    translate ^= sum(map(bit, gather(row_h)))
                if both != translate:
                    return g
            elif both:
                return g
    return None


def _first_defect_by_rows(alg: SectorAlgebra, rows, firsts) -> tuple | None:
    """The least (g, h, k), g in firsts, where c[g][h] rows[gh][k] != c[h][k] rows[g][hk].

    Returned with both sides, or None; the constants as rows give the
    associativity defect, the trace rows the Frobenius one, on any table.
    For each (g, h) the k loop compares two rows at C level: row gh scaled
    by c[g][h], against row h of the constants times row g gathered through
    the products hk.
    """
    table = alg.table
    constants = alg.constants
    for g in firsts:
        row_g = rows[g]
        for h, (c, gh) in enumerate(zip(constants[g], table.row(g))):
            lhs = tuple(map(mul, repeat(c), rows[gh]))
            rhs = tuple(map(mul, constants[h], _gatherer(table.row(h))(row_g)))
            if lhs != rhs:
                k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                return g, h, k, lhs[k], rhs[k]
    return None


def _frobenius_reduced(alg: SectorAlgebra, associative: bool) -> AxiomCheck:
    """Frobenius compatibility, checked at the one k per pair where it can fail.

    trace_form(x, k) vanishes unless xk = e, that is k = x^-1.  At (g, h, k)
    the left side c[g][h] * trace_form(gh, k) is therefore 0 unless
    k = (gh)^-1, and the right side trace_form(g, hk) * c[h][k] is 0 unless
    g hk = e, which is the same k; every other triple reads 0 = 0.  At that k,
    hk = g^-1, so the sides are c[g][h] c[gh][k] and c[g][g^-1] c[h][k].  Each
    (g, h) has at most one failing k, so scanning the pairs in lex order meets
    the cube's first counterexample first, with the same printed values.

    Those two sides are the associativity defect at (g, h, k), with
    hk = g^-1: Frobenius compatibility is associativity on the triples with
    ghk = e.  An associative algebra therefore passes with no scan.
    """
    if associative:
        return AxiomCheck("frobenius", True)
    rows = alg.constants
    inverse = alg.table.inverse_index
    for g in range(alg.order):
        row_g = rows[g]
        back = row_g[inverse[g]]
        for h, gh in enumerate(alg.table.row(g)):
            k = inverse[gh]
            lhs = row_g[h] * rows[gh][k]
            rhs = back * rows[h][k]
            if lhs != rhs:
                return AxiomCheck("frobenius", False, _triple_payload(alg, g, h, k, lhs, rhs))
    return AxiomCheck("frobenius", True)


def _frobenius_by_triples(alg: SectorAlgebra) -> AxiomCheck:
    """Frobenius compatibility over every triple, in the scan's order, for any table.

    trace_form(x, y) is c[x][y] where xy = e and 0 elsewhere, one row per
    x.  The sides at (g, h, k) are c[g][h] trace_form(gh, k) and
    trace_form(g, hk) c[h][k], the triple defect on the trace rows.
    """
    table = alg.table
    traces = [
        tuple(c if xy == 0 else 0 for c, xy in zip(row, table.row(x)))
        for x, row in enumerate(alg.constants)
    ]
    found = _first_defect_by_rows(alg, traces, range(alg.order))
    if found is None:
        return AxiomCheck("frobenius", True)
    return AxiomCheck("frobenius", False, _triple_payload(alg, *found))


def _equivariance(alg: SectorAlgebra, conjugators, masks) -> AxiomCheck:
    """The first (g, h) where c[k^-1 g k][k^-1 h k] differs from c[g][h], over (k, conj) pairs.

    conj[x] is k^-1 x k; for each k in turn the rows are compared in g
    order, and the first h where they differ is reported
    (_first_moved_defect).  Given the algebra's masks (with every conj a
    permutation), k is first tested on the supports: it is a symmetry
    exactly when conj carries the support of each row g onto the support of
    row conj[g].  That image is built from row g's smaller side, its ones,
    or its zeros with the mask complemented, so an all-ones or all-zeros
    row costs nothing.  Only a k that fails has its rows compared.
    """
    rows = alg.constants
    if masks is not None:
        supports, sides, bits = masks
        bit = bits.__getitem__
    for k, conj in conjugators:
        if masks is not None and all(
            (sum(map(bit, gather(conj))) ^ flip if gather else flip) == support
            for (gather, flip), support in zip(sides, map(supports.__getitem__, conj))
        ):
            continue
        found = _first_moved_defect(rows, conj)
        if found is not None:
            g, h = found
            return AxiomCheck(
                "equivariance",
                False,
                {
                    "pair": [alg.labels[g], alg.labels[h]],
                    "conjugator": alg.labels[k],
                    "original": str(rows[g][h]),
                    "conjugated": str(rows[conj[g]][conj[h]]),
                },
            )
    return AxiomCheck("equivariance", True)


def _first_moved_defect(rows, perm) -> tuple[int, int] | None:
    """The least (g, h) where rows[g][h] != rows[perm[g]][perm[h]], or None.

    rows are bytes.  Each image row is gathered through perm once, at C
    level, and wrapped in bytes: the gather gives a tuple, which never
    equals bytes, unless perm has length 1, where it gives a slice.
    """
    at_image = _gatherer(perm)
    for g, row in enumerate(rows):
        moved = bytes(at_image(rows[perm[g]]))
        if moved != row:
            return g, next(h for h, (x, y) in enumerate(zip(row, moved)) if x != y)
    return None


def _triple_payload(alg: SectorAlgebra, g: int, h: int, k: int, lhs, rhs) -> dict:
    return {
        "triple": [alg.labels[g], alg.labels[h], alg.labels[k]],
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _grading_by_rows(alg: SectorAlgebra) -> AxiomCheck:
    """Grading: deg g + deg h = deg gh wherever c[g][h] is nonzero, in one pass.

    The degrees are scaled to ints over their common denominator.  Each row
    is walked over its support alone, the h with c[g][h] nonzero, in row
    order, so the first failing pair is reported.
    """
    scale = math.lcm(*(d.denominator for d in alg.degrees))
    degrees = [d.numerator * (scale // d.denominator) for d in alg.degrees]
    indices = range(alg.order)
    for g, row in enumerate(alg.constants):
        products = alg.table.row(g)
        for h in compress(indices, row):
            gh = products[h]
            if degrees[gh] != degrees[g] + degrees[h]:
                return AxiomCheck(
                    "grading",
                    False,
                    {
                        "pair": [alg.labels[g], alg.labels[h]],
                        "degree_sum": str(alg.degrees[g] + alg.degrees[h]),
                        "product_degree": str(alg.degrees[gh]),
                    },
                )
    return AxiomCheck("grading", True)


def _check_unit(alg: SectorAlgebra) -> AxiomCheck:
    for h in range(alg.order):
        if alg.constants[0][h] != 1 or alg.constants[h][0] != 1:
            return AxiomCheck(
                "unit",
                False,
                {
                    "sector": alg.labels[h],
                    "left": str(alg.constants[0][h]),
                    "right": str(alg.constants[h][0]),
                },
            )
    return AxiomCheck("unit", True)


def _nondegeneracy_by_inverses(alg: SectorAlgebra) -> AxiomCheck:
    """Nondegeneracy of the sector pairing, decided on inverse_index alone.

    The pairing is a 0/1 matrix, nondegenerate in the checked sense when
    every row and every column holds exactly one partner.  pairing(g, h) is
    1 exactly when h = inverse_index[g], so row g has the one partner
    inverse_index[g] when that is an index of the algebra and none
    otherwise, and the partners of column h are the g with
    inverse_index[g] = h.  One O(|G|) pass over inverse_index, with no
    pairing call, therefore finds the first failing row, and failing that
    collects every column's partners and finds the first failing column, as
    the row-then-column scan reports them.
    """
    order = alg.order
    partners: list[list[int]] = [[] for _ in range(order)]
    for g, h in enumerate(alg.table.inverse_index):
        if not 0 <= h < order:
            return AxiomCheck("nondegeneracy", False, {"sector": alg.labels[g], "partners": []})
        partners[h].append(g)
    for h, found in enumerate(partners):
        if len(found) != 1:
            return AxiomCheck(
                "nondegeneracy",
                False,
                {"sector": alg.labels[h], "partners": [alg.labels[g] for g in found]},
            )
    return AxiomCheck("nondegeneracy", True)
