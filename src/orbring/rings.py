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
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from itertools import compress, groupby, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add, eq, gt, mul

from ._record import Record
from .errors import ConsistencyError, InputError
from .monomial import GroupTable, _gatherer, _scatter
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
            alg = SectorAlgebra(
                theory=theory,
                table=self.table,
                degrees=self._degrees(theory, range(self.order)),
                constants=self._constant_rows(theory),
                labels=self.labels,
            )
            self._algebras[theory] = alg
        return alg

    def _degrees(self, theory: str, elements) -> tuple[Fraction, ...]:
        """The theory's degrees of the given elements: twice the age for cr, twice the
        codimension for virt."""
        geometry = self.geometry
        if theory == CR:
            return tuple(Fraction(2 * geometry.ages[i], geometry.scale) for i in elements)
        return tuple(Fraction(2 * (self.n - geometry.fixed[i])) for i in elements)

    def class_ring(self, theory: str) -> "InvariantRing":
        """algebra(theory).invariant_ring(), read off the class representatives' rows.

        Under the guard (table.is_group_table(), decided here if it is not
        yet, and _conjugation_invariant), write r_a for the representative
        of class C_a and
            T_abc = #{h in C_b : c[r_a][h] = 1 and r_a h in C_c},
        counted from row r_a of the exact loop (_exact_rows) and row r_a of
        the products.  Then the coefficient of y_c in y_a y_b is
            N_abc = |C_a| T_abc / |C_c|.
        Proof.  Each generator conjugation is a table automorphism that
        keeps the constants (_constant_rows) and maps every class onto
        itself, and the classes are the orbits of those conjugations, so
        every g in C_a is phi(r_a) for such an automorphism phi; h -> phi(h)
        is a bijection of C_b with c[g][phi h] = c[r_a][h] and g phi(h) =
        phi(r_a h) in C_c exactly when r_a h is.  So the pairs (g, h) in
        C_a x C_b with c[g][h] = 1 and gh in C_c number |C_a| T_abc.  The
        coefficient of x_k in y_a y_b, the number of those pairs with gh =
        k, is the same at every k in C_c (see cotangent._class_stage_follows),
        so those pairs also number |C_c| N_abc, and the division is exact.
        Neither ConsistencyError of invariant_ring can fire: the degrees,
        unchanged by each generator conjugation, are constant on its orbits,
        the classes, and the class sums' products are class-constant by the
        same argument.  The exact loop on the representatives raises the
        full build's first error (_constant_rows).  Where the guard fails,
        the sector algebra is built and invariant_ring, the tests' oracle,
        regroups it.
        """
        _check_theory(theory)
        table = self.table
        if not (table.is_group_table() and self._conjugation_invariant()):
            return self.algebra(theory).invariant_ring()
        part = table.conjugacy_classes()
        class_of, representatives = part.class_of, part.representatives
        sizes = tuple(map(len, part.classes))
        constants = {}
        rows = self._exact_rows(theory, representatives)
        for a, (r, row) in enumerate(zip(representatives, rows)):
            # the classes of h and of r h, for each h with c[r][h] = 1
            landing = _gatherer(table.row(r))(class_of)
            counts = Counter(zip(compress(class_of, row), compress(landing, row)))
            for (b, c), count in counts.items():
                constants[(a, b, c)] = sizes[a] * count // sizes[c]
        return InvariantRing(
            theory=theory,
            labels=tuple(f"[{self.label(r)}]" for r in representatives),
            class_sizes=sizes,
            degrees=self._degrees(theory, representatives),
            constants=constants,
        )

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
        """The theory's structure constants as one bytes row per g.

        The exact loop (_exact_rows) runs on the class representatives' rows
        alone where the table's group verdict is already known to be True
        (the build never decides it) and _conjugation_invariant holds; every
        other row is then filled by one C-level gather along a walk of its
        class: row sigma x is row x gathered through sigma^-1, for each
        generator conjugation sigma.  Elsewhere the exact loop runs on every
        row.

        Proof.  Under the guard each sigma is conjugation by a generator in a
        group, a table automorphism: sigma(gh) = sigma(g) sigma(h).  It keeps
        the ages and fixed dimensions, so d and top, and p(sigma g, sigma h)
        = pairs[tau id g][tau id h] = pairs[id g][id h].  So the scaled rank
        and the codimension gate at (sigma g, sigma h) are those at (g, h):
        c[sigma g][sigma h] = c[g][h], and the entry fails checked_rank
        exactly when (g, h) does.  Row sigma x at sigma h is row x at h,
        which is the gather above.  The classes are the orbits of the
        generator conjugations, so the walks from the representatives fill
        every row.  The failing entries form orbits under simultaneous
        conjugation, so the class representative of the least failing g
        fails too; it is the least member of its class, so it is g.  The
        representatives are taken in increasing order and each row in full
        order, so the loop raises the full build's ConsistencyError at the
        same (g, h).
        """
        table, order = self.table, self.order
        if not (table._known_group() and self._conjugation_invariant()):
            return tuple(self._exact_rows(theory, range(order)))
        conjugations = table.generator_conjugations
        back = [_gatherer(_scatter(conj, range(order))) for conj in conjugations]
        rows: list[bytes | None] = [None] * order
        representatives = table.conjugacy_classes().representatives
        for r, row in zip(representatives, self._exact_rows(theory, representatives)):
            rows[r] = row
            stack = [r]
            while stack:
                x = stack.pop()
                for conj, gather in zip(conjugations, back):
                    y = conj[x]
                    if rows[y] is None:
                        rows[y] = bytes(gather(rows[x]))
                        stack.append(y)
        return tuple(rows)

    def _exact_rows(self, theory: str, elements) -> Iterator[bytes]:
        """The theory's constant row of each given g, in order, from the int arrays.

        Entry h of row g, the coefficient of x_{gh} in x_g * x_h, is 1 iff
        both gates pass.  The rank gate asks that the bundle rank vanish.
        In both theories that rank times scale is d[g] + d[h] + scale * p -
        top[gh], with p = dim(V^g meet V^h) and top[x] = d[x] +
        scale * dim V^x.  For cr it is the obstruction rank, with d the ages
        times scale = geometry.scale (their common denominator); for virt
        the excess rank, with d the codimensions n - dim V^g and scale = 1,
        zero exactly when the two fixed subspaces meet transversally.  The
        codimension gate asks that V^g meet V^h be V^gh, that is, have its
        dimension.  An entry whose rank is not a nonnegative integer raises
        the rank's ConsistencyError through checked_rank.  The tests keep a
        one-entry form of the two gates as the oracle for every entry, and
        this loop over every g as the oracle of _constant_rows.
        """
        geometry = self.geometry
        fixed = geometry.fixed
        if theory == CR:
            d, scale, kind = geometry.ages, geometry.scale, "obstruction"
        else:
            d, scale, kind = [self.n - f for f in fixed], 1, "excess"
        top = [x + scale * f for x, f in zip(d, fixed)]
        ids, pairs = geometry.subspace_ids, geometry.subspace_pairs
        # one plain loop: C-level map chains per row are about 2x slower on CPython
        # 3.11.7, 2 shared cores: G(6,1,3) in process, cr 215 -> 520 ms, virt 192 -> 405 ms
        for g in elements:
            row = bytearray(self.order)
            d_g, line = d[g], pairs[ids[g]]
            for h, (gh, sid) in enumerate(zip(self.table.row(g), ids)):
                p = line[sid]
                scaled = d_g + d[h] + scale * p - top[gh]
                if scaled < 0 or scaled % scale:
                    self.checked_rank(kind, g, h, scaled, scale)
                if scaled == 0 and p == fixed[gh]:
                    row[h] = 1
            yield bytes(row)

    def _conjugation_invariant(self) -> bool:
        """Whether each generator conjugation sigma keeps the ages and fixed dimensions,
        x -> sigma x maps subspace ids to subspace ids as one map tau, and
        subspace_pairs is invariant under tau.

        sigma permutes the elements, so tau maps the ids that occur onto
        themselves, a bijection.  O(|G| |gens| + S^2 |gens|) steps for S
        distinct subspaces.
        """
        geometry, table = self.geometry, self.table
        if not (table.is_class_function(geometry.ages) and table.is_class_function(geometry.fixed)):
            return False
        ids, pairs = geometry.subspace_ids, geometry.subspace_pairs
        for conj in table.generator_conjugations:
            moved = list(map(ids.__getitem__, conj))
            tau = dict(zip(ids, moved))
            if list(map(tau.__getitem__, ids)) != moved:
                return False
            for a, image in tau.items():
                if list(map(pairs[image].__getitem__, tau.values())) != list(
                    map(pairs[a].__getitem__, tau)
                ):
                    return False
        return True

    def cotangent_model(self) -> "OrbifoldModel":
        """Model of the doubled orbifold, in the same geometry mode.

        Its table is derived from this one (GroupTable.doubled), not closed
        again: element i is the double of element i, and the two tables
        share one set of product rows, inverses and classes.
        """
        if self._cotangent is None:
            spec = cotangent_double(self.spec)
            self._cotangent = OrbifoldModel(
                spec,
                forget_geometry=self.geometry.forget,
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
    first counterexample in lexicographic order, never raised.  The tests
    compare this report against the |G|^3 and per-pair scans of the tests'
    support module.  Unit and nondegeneracy are O(|G|) passes and always
    run; nondegeneracy reads inverse_index alone (_nondegeneracy_by_inverses).

    On a group table (table.is_group_table()), the other four axioms are
    first decided by degree additivity (_degree_additive), in |G|^2 work
    at C level.  Write s for the degrees scaled to ints over their common
    denominator and D(g, h) = s_g + s_h - s_gh.  The criterion asks that
    s be invariant under each generator conjugation, that c[g][h] = [D(g, h)
    = 0] on every row, and that D(g, h) >= 0 on the rows of the class
    representatives.  When it holds, the four axioms pass by proof:
    - D >= 0 everywhere, and equivariance.  By the group fact each
      generator conjugation is an automorphism; it keeps s, so it keeps D
      and with it c = [D = 0], and every generator is a symmetry (below).
      Such conjugations carry each g to its class representative r, and
      (g, h) to some (r, h'), so D(g, h) = D(r, h') >= 0.
    - Associativity.  By (gh)k = g(hk), D(g, h) + D(gh, k) = s_g + s_h +
      s_k - s_ghk = D(h, k) + D(g, hk).  Both sides are sums of two
      nonnegative terms, so one side's terms are both 0 exactly when the
      other's are, that is c[g][h] c[gh][k] = c[h][k] c[g][hk].
    - Grading.  c[g][h] = 1 means D(g, h) = 0, which is deg g + deg h =
      deg gh.
    - Frobenius compatibility is associativity on the triples with ghk = e
      (_frobenius_by_pairs).
    When it fails, each axiom is decided by its exact-order scan, with the
    scan's counterexample: equivariance by the transported-row scan under
    each generator conjugation (_equivariance), associativity per pair
    (g, h) at C level (_associativity), Frobenius at the one k = (gh)^-1 of
    each pair (_frobenius_by_pairs), and grading in one pass on ints over
    the nonzero entries (_grading_by_rows).  Where the constants are
    equivariant, associativity and Frobenius take g over the class
    representatives alone.  Proof.  Conjugation by x is an automorphism,
    so with equivariant constants it carries the defect at (g, h, k) to an
    equal one at (g^x, h^x, k^x), for the trace form too, since ghk = e iff
    g^x h^x k^x = e.  So the defective g form whole classes.  The cube
    meets triples in lex order, so its first counterexample has the least
    defective g, then its least defective h and k; a class is a sorted
    tuple whose least member is its representative, so that g is the least
    defective representative.

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

    The criterion and the reductions assume a group table whose
    inverse_index and generator_conjugations are its inverses and
    conjugations, which table.is_group_table() decides once per table.
    Where it does not hold, each defect shape has its one exact-order scan
    over every g: the triple scan _first_defect_by_rows, on the constants
    for associativity and on the trace rows for Frobenius
    (_frobenius_by_triples), and _equivariance's transported-row scan under
    conjugation by every element (a conjugator's inverse outside the table is a defect).
    """
    table = alg.table
    group = table.is_group_table()
    if group and _degree_additive(alg):
        names = ("associativity", "grading", "frobenius", "equivariance")
        associativity, grading, frobenius, equivariance = (AxiomCheck(n, True) for n in names)
    else:
        if group:
            conjugators = zip(table.gens, table.generator_conjugations)
        else:
            inside = range(alg.order).__contains__
            conjugators = (
                (k, table.conjugation_permutation(k) if inside(table.inverse_index[k]) else None)
                for k in range(alg.order)
            )
        equivariance = _equivariance(alg, conjugators)
        firsts = range(alg.order)
        if group and equivariance.passed:
            firsts = table.conjugacy_classes().representatives
        associativity = _associativity(alg, firsts)
        grading = _grading_by_rows(alg)
        frobenius = _frobenius_by_pairs(alg, firsts) if group else _frobenius_by_triples(alg)
    checks = (
        associativity,
        grading,
        _check_unit(alg),
        frobenius,
        _nondegeneracy_by_inverses(alg),
        equivariance,
    )
    return AlgebraReport(checks)


def _scaled_degrees(alg: SectorAlgebra) -> tuple[int, ...]:
    """The degrees as ints over their common denominator."""
    scale = math.lcm(*(d.denominator for d in alg.degrees))
    return tuple(d.numerator * (scale // d.denominator) for d in alg.degrees)


def _degree_additive(alg: SectorAlgebra) -> bool:
    """Whether s is invariant under each generator conjugation, c[g][h] = [D(g, h) = 0]
    on every row, and D(g, h) >= 0 on the rows of the class representatives.

    s is _scaled_degrees and D(g, h) = s_g + s_h - s_gh (see verify_algebra).
    Each row g is compared at C level: the sums s_g + s_h against s
    gathered through row g, the s_gh.  The rows are taken in order of s_g,
    so the sums are made once per degree.  About |G|^2 steps plus
    |G| * |gens| for the invariance.
    """
    table, rows = alg.table, alg.constants
    s = _scaled_degrees(alg)
    if not table.is_class_function(s):
        return False
    representatives = set(table.conjugacy_classes().representatives)
    for degree, same in groupby(sorted(range(alg.order), key=s.__getitem__), s.__getitem__):
        sums = tuple(map(add, repeat(degree), s))
        for g in same:
            products = _gatherer(table.row(g))(s)
            if rows[g] != bytes(map(eq, sums, products)):
                return False
            if g in representatives and any(map(gt, products, sums)):
                return False
    return True


def _associativity(alg: SectorAlgebra, firsts) -> AxiomCheck:
    """Associativity over the triples whose g is in firsts, with the cube's counterexample.

    verify_algebra passes every g, or the class representatives when the
    constants are equivariant on a group table.  Each (g, h) is decided
    for all k at once by _first_defect_by_rows, which compares two rows at
    C level: |firsts| * |G|^2 entries when no defect is found.
    """
    found = _first_defect_by_rows(alg, alg.constants, firsts)
    if found is None:
        return AxiomCheck("associativity", True)
    return AxiomCheck("associativity", False, _triple_payload(alg, *found))


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


def _frobenius_by_pairs(alg: SectorAlgebra, firsts) -> AxiomCheck:
    """Frobenius compatibility on a group table, at the one k = (gh)^-1 of each pair.

    trace_form(x, k) vanishes unless xk = e, that is k = x^-1.  At (g, h, k)
    the left side c[g][h] * trace_form(gh, k) is therefore 0 unless
    k = (gh)^-1, and the right side trace_form(g, hk) * c[h][k] is 0 unless
    g hk = e, which is the same k; every other triple reads 0 = 0.  At that
    k, hk = g^-1, so the sides are c[g][h] c[gh][k] and c[g][g^-1] c[h][k],
    the associativity defect at (g, h, k): Frobenius compatibility is
    associativity on the triples with ghk = e, and an associative algebra
    passes.  The cube's first counterexample is the first pair (g, h),
    g in firsts, whose sides differ, at that k.  |firsts| * |G| steps.
    """
    table, rows = alg.table, alg.constants
    inverse = table.inverse_index
    for g in firsts:
        row_g = rows[g]
        c_inverse = row_g[inverse[g]]
        for h, (c, gh) in enumerate(zip(row_g, table.row(g))):
            k = inverse[gh]
            lhs, rhs = c * rows[gh][k], c_inverse * rows[h][k]
            if lhs != rhs:
                return AxiomCheck("frobenius", False, _triple_payload(alg, g, h, k, lhs, rhs))
    return AxiomCheck("frobenius", True)


def _frobenius_by_triples(alg: SectorAlgebra) -> AxiomCheck:
    """Frobenius compatibility over every triple, in the scan's order, where the group fact fails.

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


def _equivariance(alg: SectorAlgebra, conjugators) -> AxiomCheck:
    """The first (g, h) where c[k^-1 g k][k^-1 h k] differs from c[g][h], over (k, conj) pairs.

    conj[x] is k^-1 x k; for each k in turn the rows are compared in g
    order, and the first h where they differ is reported
    (_first_moved_defect): |G|^2 entries at C level per k.  verify_algebra
    reaches it only where degree additivity fails or the table is not known
    to be a group's; it then passes the generators' conjugations on a group
    table and every element's otherwise.  A conjugator given as None, one
    whose inverse is outside the table, is reported where it comes.
    """
    rows = alg.constants
    for k, conj in conjugators:
        if conj is None:
            payload = {"conjugator": alg.labels[k], "problem": "inverse outside the table"}
            return AxiomCheck("equivariance", False, payload)
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
    degrees = _scaled_degrees(alg)
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
