"""Graded sector algebras for the two exact product rules on a linear orbifold.

Fixed loci of a linear action are linear subspaces, hence contractible, so
every sector contributes a single generator.  Two gates decide each product:
the Euler class of a positive-rank bundle over a contractible base vanishes
(rank gate), and the wrong-way map into a strictly larger fixed subspace
raises cohomological degree out of a contractible space (codimension gate).
Structure constants are therefore the ints 0 or 1 at sector level; class-level
constants of the conjugation-invariant subring are nonnegative ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Optional

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

    Bundles the closed group table, the exact sector geometry, the bundle
    ranks for every pair of sectors, and the two sector algebras.
    """

    def __init__(self, spec: OrbifoldSpec, *, forget_geometry: bool = False):
        self.spec = spec
        self.forget_geometry = forget_geometry
        self.table = spec.close()
        self.geometry = SectorGeometry(self.table, spec.dimension, forget=forget_geometry)
        self._labels: Optional[tuple[str, ...]] = None
        self._algebras: dict[str, SectorAlgebra] = {}
        self._cotangent: Optional["OrbifoldModel"] = None

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def n(self) -> int:
        return self.geometry.n

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(
                "e" if i == 0 else f"g{i}" for i in range(self.order)
            )
        return self._labels

    def label(self, i: int) -> str:
        return self.labels[i]

    def sector(self, i: int) -> SectorData:
        return self.geometry.sector(i)

    def fixed_dim_pair(self, g: int, h: int) -> int:
        return self.geometry.pair_row(g)[h]

    def _as_bundle_rank(self, value: int | Fraction, kind: str, g: int, h: int) -> int:
        value = Fraction(value)
        if value.denominator != 1 or value < 0:
            raise ConsistencyError(
                f"{kind} rank at ({self.label(g)}, {self.label(h)}) is {value}, "
                "expected a nonnegative integer"
            )
        return int(value)

    def obstruction_rank(self, g: int, h: int) -> int:
        """Rank of the correction bundle gating the cr product at (g, h)."""
        product = self.sector(self.table.mult(g, h))
        value = (
            self.sector(g).age
            + self.sector(h).age
            - product.age
            - product.fixed_dim
            + self.fixed_dim_pair(g, h)
        )
        return self._as_bundle_rank(value, "obstruction", g, h)

    def obstruction_rank_dual_form(self, g: int, h: int) -> int:
        """Triple-age form of the same rank; an independent cross-check."""
        gh_inv = self.table.inverse_index[self.table.mult(g, h)]
        value = (
            self.sector(g).age
            + self.sector(h).age
            + self.sector(gh_inv).age
            - (self.n - self.fixed_dim_pair(g, h))
        )
        return self._as_bundle_rank(value, "obstruction (dual form)", g, h)

    def excess_rank(self, g: int, h: int) -> int:
        """Rank of the excess bundle of V^g and V^h inside the ambient space.

        Zero exactly when the two fixed subspaces meet transversally.
        """
        value = (
            self.n
            - self.sector(g).fixed_dim
            - self.sector(h).fixed_dim
            + self.fixed_dim_pair(g, h)
        )
        return self._as_bundle_rank(value, "excess", g, h)

    def structure_constant(self, theory: str, g: int, h: int) -> int:
        """Coefficient of x_{gh} in x_g * x_h: 1 iff both gates pass, else 0.

        algebra() computes the whole table from arrays instead; this one-entry
        form is its reference.
        """
        _check_theory(theory)
        rank = self.obstruction_rank(g, h) if theory == CR else self.excess_rank(g, h)
        if rank != 0:
            return 0
        gh = self.table.mult(g, h)
        return 1 if self.fixed_dim_pair(g, h) == self.sector(gh).fixed_dim else 0

    def algebra(self, theory: str) -> "SectorAlgebra":
        _check_theory(theory)
        alg = self._algebras.get(theory)
        if alg is None:
            order = self.order
            if theory == CR:
                degrees = tuple(self.sector(i).cr_shift for i in range(order))
            else:
                degrees = tuple(Fraction(self.sector(i).virtual_shift) for i in range(order))
            alg = SectorAlgebra(
                theory=theory,
                table=self.table,
                degrees=degrees,
                constants=self._constant_rows(theory),
                labels=self.labels,
            )
            self._algebras[theory] = alg
        return alg

    def _constant_rows(self, theory: str) -> tuple[tuple[int, ...], ...]:
        """Every structure_constant(theory, g, h), read from the geometry's int arrays.

        The same two gates, with each rank scaled to an integer: the cr
        obstruction rank times geometry.scale (the ages' common denominator),
        or the excess rank itself.  An entry whose rank is not a nonnegative
        integer is handed to the per-entry rank method, which raises its error.
        """
        geometry = self.geometry
        fixed = geometry.fixed
        n = self.n
        cr = theory == CR
        if cr:
            ages = geometry.ages
            scale = geometry.scale
            rank_of = self.obstruction_rank
        else:
            scale = 1
            rank_of = self.excess_rank
        rows = []
        for g in range(self.order):
            row = []
            for h, (gh, p) in enumerate(zip(self.table.row(g), geometry.pair_row(g))):
                if cr:
                    scaled = ages[g] + ages[h] - ages[gh] + scale * (p - fixed[gh])
                else:
                    scaled = n - fixed[g] - fixed[h] + p
                if scaled < 0 or scaled % scale:
                    rank_of(g, h)  # raises the entry's ConsistencyError
                row.append(1 if scaled == 0 and p == fixed[gh] else 0)
            rows.append(tuple(row))
        return tuple(rows)

    def cotangent_model(self) -> "OrbifoldModel":
        """Model of the doubled orbifold, in the same geometry mode."""
        if self._cotangent is None:
            self._cotangent = OrbifoldModel(
                cotangent_double(self.spec), forget_geometry=self.forget_geometry
            )
        return self._cotangent


@dataclass(frozen=True, eq=False)
class SectorAlgebra:
    """Group-graded algebra on one generator x_g per sector.

    Carries the degree map, the 0/1 structure constants, the normalized sector
    pairing, and the conjugation action (through the group table).  Constants
    are ints; only with_constant can put in a non-integral (Fraction) value.

    Two bilinear forms appear on this algebra.  The *sector pairing* couples
    x_g to x_{g^-1} with value 1: sectors are contractible, so there is no
    canonical volume to integrate against, and this is the normalization that
    makes the identity sector self-paired to 1.  The *trace form* is
    eps(a * b), where eps reads off the identity-sector coefficient; it is the
    form whose compatibility with the product is checked by verify_algebra.
    """

    theory: str
    table: GroupTable = field(repr=False)
    degrees: tuple[Fraction, ...]
    constants: tuple[tuple[int | Fraction, ...], ...]
    labels: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.degrees)

    def constant(self, g: int, h: int) -> int | Fraction:
        return self.constants[g][h]

    def pairing(self, g: int, h: int) -> int:
        """Normalized sector pairing: 1 on (g, g^-1), else 0."""
        return 1 if self.table.inverse_index[g] == h else 0

    def trace_form(self, g: int, h: int) -> int | Fraction:
        """eps(x_g * x_h) where eps extracts the identity-sector coefficient."""
        if self.table.mult(g, h) == 0:
            return self.constants[g][h]
        return 0

    def with_constant(self, g: int, h: int, value) -> "SectorAlgebra":
        """Copy of the algebra with one table entry replaced (for negative tests).

        An integral value is stored as an int, any other as an exact Fraction.
        """
        rows = [list(row) for row in self.constants]
        value = Fraction(value)
        rows[g][h] = int(value) if value.denominator == 1 else value
        return SectorAlgebra(
            theory=self.theory,
            table=self.table,
            degrees=self.degrees,
            constants=tuple(tuple(row) for row in rows),
            labels=self.labels,
        )

    def invariant_ring(self) -> "InvariantRing":
        """Expand products of class sums and regroup them by conjugacy class."""
        part = self.table.conjugacy_classes()
        degrees = []
        for cls in part.classes:
            values = {self.degrees[i] for i in cls}
            if len(values) != 1:
                raise ConsistencyError(
                    f"degree is not constant on class {cls}: {sorted(values)}"
                )
            degrees.append(values.pop())
        order = self.order
        constants: dict[tuple[int, int, int], int | Fraction] = {}
        for a, class_a in enumerate(part.classes):
            rows_a = [(self.constants[g], self.table.row(g)) for g in class_a]
            for b, class_b in enumerate(part.classes):
                acc = [0] * order
                for row, products in rows_a:
                    for h in class_b:
                        c = row[h]
                        if c:
                            acc[products[h]] += c
                for cid, cls in enumerate(part.classes):
                    values = {acc[k] for k in cls}
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

    def to_json_dict(self) -> dict:
        entries = []
        for g in range(self.order):
            for h in range(self.order):
                c = self.constants[g][h]
                if c:
                    entries.append([g, h, self.table.mult(g, h), str(c)])
        return {
            "theory": self.theory,
            "basis": list(self.labels),
            "degrees": [str(d) for d in self.degrees],
            "constants": entries,
        }

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


@dataclass(frozen=True, eq=False)
class InvariantRing:
    """The conjugation-invariant subring on the class-sum basis."""

    theory: str
    labels: tuple[str, ...]
    class_sizes: tuple[int, ...]
    degrees: tuple[Fraction, ...]
    constants: dict[tuple[int, int, int], int | Fraction]

    @property
    def order(self) -> int:
        return len(self.labels)

    def constant(self, a: int, b: int, c: int) -> int | Fraction:
        return self.constants.get((a, b, c), 0)

    def to_json_dict(self) -> dict:
        entries = [
            [a, b, c, str(v)] for (a, b, c), v in sorted(self.constants.items())
        ]
        return {
            "theory": self.theory,
            "basis": list(self.labels),
            "degrees": [str(d) for d in self.degrees],
            "constants": entries,
        }

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


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: Optional[dict] = None


@dataclass(frozen=True)
class AlgebraReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Optional[AxiomCheck]:
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
    in _frobenius_reduced, _equivariance_by_generators and
    _associativity_reduced).  The cube scans _check_associativity and
    _check_equivariance run only after their reduced check has failed, to
    report the same lex-first counterexample.  Grading is checked a row at a
    time on ints, and nondegeneracy in O(|G|) on inverse_index
    (_nondegeneracy_by_inverses).  The tests compare this report against
    the scans: the four _check_* scans here, and the grading and
    nondegeneracy scans of the tests' support module.
    """
    equivariance = _equivariance_by_generators(alg)
    checks = (
        _associativity_reduced(alg, equivariance.passed),
        _grading_by_rows(alg),
        _check_unit(alg),
        _frobenius_reduced(alg),
        _nondegeneracy_by_inverses(alg),
        equivariance,
    )
    return AlgebraReport(checks)


def _associativity_reduced(alg: SectorAlgebra, equivariant: bool) -> AxiomCheck:
    """Associativity with g over class representatives when the constants are equivariant.

    The defect at (g, h, k) is the pair c[g][h] c[gh][k], c[h][k] c[g][hk].
    Conjugation by x is a group automorphism, so when every c[g^x][h^x]
    equals c[g][h] the defect at (g^x, h^x, k^x) equals the defect at
    (g, h, k).  Every triple is conjugate to one whose g is the
    representative of its class, so those triples decide the axiom.  Without
    equivariance g ranges over the whole group and this is the cube itself.
    For each (g, h) the k loop compares two rows at C level: row gh scaled by
    c[g][h], against row h times row g gathered through the products hk.
    On failure the cube scan finds the lex-first counterexample.
    """
    table = alg.table
    rows = alg.constants
    order = alg.order
    firsts = table.conjugacy_classes().representatives if equivariant else range(order)
    zero = (0,) * order
    for h in range(order):
        row_h = rows[h]
        gather = _gatherer(table.row(h))
        for g in firsts:
            c = rows[g][h]
            gh = table.mult(g, h)
            if c == 1:
                lhs = rows[gh]
            elif c:
                lhs = tuple(c * x for x in rows[gh])
            else:
                lhs = zero
            if lhs != tuple(map(mul, row_h, gather(rows[g]))):
                return _check_associativity(alg)
    return AxiomCheck("associativity", True)


def _frobenius_reduced(alg: SectorAlgebra) -> AxiomCheck:
    """Frobenius compatibility, checked at the one k per pair where it can fail.

    trace_form(x, k) vanishes unless xk = e, that is k = x^-1.  At (g, h, k)
    the left side c[g][h] * trace_form(gh, k) is therefore 0 unless
    k = (gh)^-1, and the right side trace_form(g, hk) * c[h][k] is 0 unless
    g hk = e, which is the same k; every other triple reads 0 = 0.  At that k,
    hk = g^-1, so the sides are c[g][h] c[gh][k] and c[g][g^-1] c[h][k].  Each
    (g, h) has at most one failing k, so scanning the pairs in lex order meets
    the cube's first counterexample first, with the same printed values.
    """
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


def _equivariance_by_generators(alg: SectorAlgebra) -> AxiomCheck:
    """Equivariance, checked for conjugation by the table's generators only.

    Call k a symmetry when c[k^-1 g k][k^-1 h k] = c[g][h] for all g, h.
    Conjugation by ab is conjugation by a followed by conjugation by b, so
    symmetries are closed under products, and in a finite group they form a
    subgroup.  The table was closed from table.gens, which therefore generate
    the group: if every generator is a symmetry, every k is.  The trivial
    group has no generators and passes.  The conjugations are the table's
    generator_conjugations.  On failure the cube scan finds the lex-first
    counterexample.
    """
    rows = alg.constants
    for conj in alg.table.generator_conjugations:
        gather = _gatherer(conj)
        for g in range(alg.order):
            if gather(rows[conj[g]]) != rows[g]:
                return _check_equivariance(alg)
    return AxiomCheck("equivariance", True)


def _triple_payload(alg: SectorAlgebra, g: int, h: int, k: int, lhs, rhs) -> dict:
    return {
        "triple": [alg.labels[g], alg.labels[h], alg.labels[k]],
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _check_associativity(alg: SectorAlgebra) -> AxiomCheck:
    """The |G|^3 associativity scan: lex-first counterexample and test reference."""
    order = alg.order
    mult = alg.table.mult
    c = alg.constants
    for g in range(order):
        for h in range(order):
            gh = mult(g, h)
            c_gh = c[g][h]
            for k in range(order):
                lhs = c_gh * c[gh][k]
                rhs = c[h][k] * c[g][mult(h, k)]
                if lhs != rhs:
                    return AxiomCheck(
                        "associativity", False, _triple_payload(alg, g, h, k, lhs, rhs)
                    )
    return AxiomCheck("associativity", True)


def _grading_by_rows(alg: SectorAlgebra) -> AxiomCheck:
    """Grading: deg g + deg h = deg gh wherever c[g][h] is nonzero, a row at a time.

    The degrees are scaled to ints over their common denominator.  For row
    g, the differences deg gh - deg g - deg h are formed at C level and
    multiplied by the row's constants, so a nonzero product marks exactly a
    failing pair; the first one is reported.
    """
    scale = math.lcm(*(d.denominator for d in alg.degrees))
    degrees = [d.numerator * (scale // d.denominator) for d in alg.degrees]
    for g, row in enumerate(alg.constants):
        products = alg.table.row(g)
        gaps = tuple(map(sub, _gatherer(products)(degrees), map(degrees[g].__add__, degrees)))
        if any(map(mul, row, gaps)):
            h = next(h for h, (c, gap) in enumerate(zip(row, gaps)) if c and gap)
            return AxiomCheck(
                "grading",
                False,
                {
                    "pair": [alg.labels[g], alg.labels[h]],
                    "degree_sum": str(alg.degrees[g] + alg.degrees[h]),
                    "product_degree": str(alg.degrees[products[h]]),
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


def _check_frobenius(alg: SectorAlgebra) -> AxiomCheck:
    """Trace-form compatibility: <a*b, c> equals <a, b*c> for all basis triples.

    The |G|^3 scan that _frobenius_reduced replaces; the tests' reference.
    """
    order = alg.order
    mult = alg.table.mult
    for g in range(order):
        for h in range(order):
            gh = mult(g, h)
            c_gh = alg.constants[g][h]
            for k in range(order):
                lhs = c_gh * alg.trace_form(gh, k)
                rhs = alg.trace_form(g, mult(h, k)) * alg.constants[h][k]
                if lhs != rhs:
                    return AxiomCheck(
                        "frobenius", False, _triple_payload(alg, g, h, k, lhs, rhs)
                    )
    return AxiomCheck("frobenius", True)


def _nondegeneracy_by_inverses(alg: SectorAlgebra) -> AxiomCheck:
    """Nondegeneracy of the sector pairing, decided on inverse_index alone.

    The pairing is a 0/1 matrix, nondegenerate in the checked sense when
    every row and every column holds exactly one partner.  pairing(g, h) is
    1 exactly when h = inverse_index[g], so row g has the one partner
    inverse_index[g] when that is an index of the algebra and none
    otherwise, and the partners of column h are the g with
    inverse_index[g] = h.  Every row and every column therefore has exactly
    one partner exactly when inverse_index maps range(order) onto itself,
    that is, when its order values are exactly the indices 0..order-1; that
    is an O(|G|) set comparison with no pairing call.  Otherwise the first
    failing row, and failing that the first failing column, is reported as
    the row-then-column scan reports it.
    """
    order = alg.order
    inverse = alg.table.inverse_index
    if len(inverse) == order and set(inverse) == set(range(order)):
        return AxiomCheck("nondegeneracy", True)
    partners: list[list[int]] = [[] for _ in range(order)]
    for g, h in enumerate(inverse):
        if not 0 <= h < order:
            return AxiomCheck("nondegeneracy", False, {"sector": alg.labels[g], "partners": []})
        partners[h].append(g)
    h = next(h for h, found in enumerate(partners) if len(found) != 1)
    return AxiomCheck(
        "nondegeneracy",
        False,
        {"sector": alg.labels[h], "partners": [alg.labels[g] for g in partners[h]]},
    )


def _check_equivariance(alg: SectorAlgebra) -> AxiomCheck:
    """The |G|^3 equivariance scan: lex-first counterexample and test reference."""
    order = alg.order
    for k in range(order):
        conj = alg.table.conjugation_permutation(k)
        for g in range(order):
            row = alg.constants[g]
            conj_row = alg.constants[conj[g]]
            for h in range(order):
                if conj_row[conj[h]] != row[h]:
                    return AxiomCheck(
                        "equivariance",
                        False,
                        {
                            "pair": [alg.labels[g], alg.labels[h]],
                            "conjugator": alg.labels[k],
                            "original": str(row[h]),
                            "conjugated": str(conj_row[conj[h]]),
                        },
                    )
    return AxiomCheck("equivariance", True)
