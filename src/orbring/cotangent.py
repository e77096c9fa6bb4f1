"""Executable checks tying the two theories together across the cotangent doubling.

Under g -> g (+) conjugate(g) the doubled orbifold's cr-side data must
reproduce the original orbifold's virtual-side data: degree shifts agree,
bundle ranks add up, and the full structure-constant tables coincide at sector
and class level.  Each statement is decided exactly: closure sanity by the
group fact (GroupTable.check_group), rank-oracles, bundle-decomposition and
the main theorem's constants by proof from facts about the two geometries
(_doubling_facts), the class-level comparison by proof from the sector-level
one, and the rest, or any of these where its facts fail, by exact scans.
The doubling checks take a model with its cotangent_model(), whose table is
derived from the model's and shares its product rows, inverses and classes,
so the two sides' sector pairings and class maps agree by construction; they
refuse any other pair.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from fractions import Fraction

from ._record import Record
from .errors import ConsistencyError
from .monomial import GroupTable, _double, _gatherer
from .orbifold import OrbifoldSpec
from .rings import CR, VIRT, OrbifoldModel, SectorAlgebra

__all__ = [
    "CheckResult",
    "VerificationReport",
    "decomposition_check",
    "grading_check",
    "main_theorem_check",
    "run_full_verification",
    "sector_bijection",
]


class CheckResult(Record):
    __slots__ = ("name", "passed", "counterexample", "millis")


class VerificationReport(Record):
    __slots__ = ("spec_name", "checks")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        entries = []
        for c in self.checks:
            entry: dict = {"name": c.name, "status": "pass" if c.passed else "fail"}
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
            entry["millis"] = round(c.millis, 3)
            entries.append(entry)
        return {"spec": self.spec_name, "checks": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"verification of {self.spec_name}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  {status} {c.name} ({c.millis:.1f} ms)")
            if c.counterexample is not None:
                lines.append(f"       counterexample: {json.dumps(c.counterexample)}")
        failed = sum(1 for c in self.checks if not c.passed)
        if failed:
            lines.append(f"{failed} of {len(self.checks)} checks failed")
        else:
            lines.append(f"all {len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def sector_bijection(original: GroupTable, doubled: GroupTable) -> tuple[int, ...]:
    """Index map of g -> g (+) conjugate(g), by looking up each doubled code in the doubled table.

    For a table from GroupTable.doubled this is the identity, the only
    bijection the doubling checks accept, which run_full_verification passes
    without the lookup.  The remaining callers are the tests, which also look
    into doubled tables closed on their own, and perfbench's traced verify
    replay.  Doubling keeps the phase denominators, so the conductors agree;
    if they differ, codes are not comparable and every element counts as
    missing.
    """
    if doubled.order != original.order:
        raise ConsistencyError(
            f"doubled group has order {doubled.order}, original {original.order}"
        )
    same_conductor = doubled.conductor == original.conductor
    by_code = {code: i for i, code in enumerate(doubled.codes)} if same_conductor else {}
    mapping = []
    for i, code in enumerate(original.codes):
        target = by_code.get(_double(code, original.dimension, original.conductor))
        if target is None:
            raise ConsistencyError(
                f"doubled element of {original.elements[i]} missing from closure"
            )
        mapping.append(target)
    if len(set(mapping)) != original.order:
        raise ConsistencyError("doubling map is not injective on sector indices")
    return tuple(mapping)


def closure_sanity_check(model: OrbifoldModel) -> dict | None:
    """Identity, inverses, element orders, and products against composition.

    Decided by the group fact: table.check_group(), kept for verify_algebra
    and main_theorem_check, implies every part.  It makes phi(i), the map
    of codes[i], an injective homomorphism onto |G| maps, a group, with
    phi(0) the identity and the decoded elements, if read, equal to phi; so
    each element order, read from its code, divides |G| (Lagrange),
    products agree with composition, and inverse_index holds the inverses.
    Only a False verdict runs the loops below, in order, to name the first
    failure; an inverse that is no index of the table is reported as a
    broken inverse table.
    """
    table = model.table
    if table.check_group():
        return None
    if not table.elements[0].is_identity():
        return {"problem": "index 0 is not the identity"}
    order = table.order
    for i in range(order):
        inverse = table.inverse_index[i]
        if inverse not in range(order) or table.mult(i, inverse) != 0:
            return {"problem": "inverse table broken", "element": model.label(i)}
        if order % table.element_order(i) != 0:
            return {
                "problem": "element order does not divide group order",
                "element": model.label(i),
                "element_order": table.element_order(i),
                "group_order": order,
            }
    for i in range(order):
        for j in range(order):
            if table.elements[table.mult(i, j)] != table.elements[i] * table.elements[j]:
                return {
                    "problem": "multiplication table disagrees with composition",
                    "pair": [model.label(i), model.label(j)],
                }
    return None


def age_duality_check(model: OrbifoldModel) -> dict | None:
    """age(g) + age(g^-1) = n - dim V^g for every g, on the scaled ages, in one pass."""
    geometry = model.geometry
    ages, scale = geometry.ages, geometry.scale
    inverse = model.table.inverse_index
    for g, f in enumerate(geometry.fixed):
        age_sum = ages[g] + ages[inverse[g]]
        if age_sum != scale * (model.n - f):
            return {
                "element": model.label(g),
                "age_sum": str(Fraction(age_sum, scale)),
                "codimension": str(model.n - f),
            }
    return None


def rank_oracle_check(model: OrbifoldModel) -> dict | None:
    """The cr obstruction rank in its direct and its dual (triple-age) form, per pair.

    One pass over the pairs in row order, on ints scaled by the age
    denominator: the direct form age g + age h - age gh - dim V^gh +
    dim(V^g meet V^h) against the dual form
    age g + age h + age (gh)^-1 - (n - dim(V^g meet V^h)).  At the first
    pair where they differ, or the direct form is not a nonnegative integer,
    either form that is not a nonnegative integer raises (the direct form
    first); otherwise the two differ and are reported.

    The pass runs only where age duality fails.  Proof.  At k = gh the
    direct form minus the dual one is scale (n - dim V^k) - age k -
    age k^-1, zero by age duality, so the pass can only stop where the
    direct form is not a nonnegative integer, raising through checked_rank.
    The cr build computes that form at each entry in row order and raises
    through the same call, so model.algebra(CR) raises the same error at
    the same pair, or builds and the check passes.
    """
    if age_duality_check(model) is None:
        model.algebra(CR)
        return None
    geometry = model.geometry
    table = model.table
    ages, fixed, scale = geometry.ages, geometry.fixed, geometry.scale
    inverse = table.inverse_index
    n = model.n
    ids, pairs = geometry.subspace_ids, geometry.subspace_pairs
    # one plain loop beats C-level map chains per row plus a rescan on CPython 3.11.7:
    # G(5,1,3) in process, this check 245 -> 158 ms, decomposition_check 341 -> 200 ms
    for g in range(model.order):
        age_g, line = ages[g], pairs[ids[g]]
        for h, (gh, sid) in enumerate(zip(table.row(g), ids)):
            p = line[sid]
            shared = age_g + ages[h] + scale * p
            direct = shared - ages[gh] - scale * fixed[gh]
            dual = shared + ages[inverse[gh]] - scale * n
            if direct != dual or direct < 0 or direct % scale:
                model.checked_rank("obstruction", g, h, direct, scale)
                model.checked_rank("obstruction (dual form)", g, h, dual, scale)
                return {
                    "pair": [model.label(g), model.label(h)],
                    "rank": direct // scale,
                    "dual_form": dual // scale,
                }
    return None


def algebra_axioms_check(model: OrbifoldModel, theory: str) -> dict | None:
    failure = model.algebra_report(theory).first_failure()
    if failure is None:
        return None
    payload = {"axiom": failure.name}
    if failure.counterexample:
        payload.update(failure.counterexample)
    return payload


def _require_derived_pair(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> None:
    """The doubling checks' contract: doubled's table is derived from model's
    (GroupTable.doubled, sharing its rows, inverses and classes) and bijection is the
    identity, as run_full_verification passes them; ValueError otherwise.
    """
    if not (
        doubled.table.shares_group_with(model.table)
        and tuple(bijection) == tuple(range(model.order))
    ):
        raise ValueError(
            "the doubling checks take doubled = model.cotangent_model() "
            "and bijection = tuple(range(model.order))"
        )


def grading_check(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> dict | None:
    """Doubled cr shift equals original virtual shift, element by element.

    Compared on ints in one pass: 2 age over the doubled scale against
    2 (n - dim V^g).
    """
    _require_derived_pair(model, doubled, bijection)
    scale = doubled.geometry.scale
    for g, (f, age) in enumerate(zip(model.geometry.fixed, doubled.geometry.ages)):
        if age != scale * (model.n - f):
            return {
                "element": model.label(g),
                "doubled_cr_shift": str(Fraction(2 * age, scale)),
                "virtual_shift": str(2 * (model.n - f)),
            }
    return None


def decomposition_check(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> dict | None:
    """Doubled obstruction rank = excess rank + difference-bundle rank, per pair.

    One pass over the pairs (g, h) in row order, on ints scaled by the
    doubled age denominator; the doubled side is read at (g, h), with the
    shared product gh.  At the first pair where the sides differ, the
    doubled rank is not a nonnegative integer or the excess rank is
    negative, a bad doubled rank raises, then a negative excess; otherwise
    the two sides differ and are reported.

    The pass runs only where the grading lemma (F2) or _doubling_facts
    fails.  Proof.  Write f, p and a for the fixed and pair dimensions and
    the ages over scale, primes for the doubled ones, e = n - f_g - f_h + p
    (the excess rank) and k = p - f_gh.  By (F2) a'_x = scale' (n - f_x)
    and by (F3) p' = 2p and f' = 2f, so the doubled side a'_g + a'_h -
    a'_gh + scale' (p' - f'_gh) is scale' (e + k), the right side.  The
    virt build raises at the first negative e, and it succeeded (F5).  With
    r(g, h) = a_g + a_h - a_gh + scale (p - f_gh), the scaled cr rank:
    (F4) gives h^-1 g^-1 = (gh)^-1 and, with (F3), p(h^-1, g^-1) = p(g, h);
    (F1) at x and x^-1 gives a_x + a_x^-1 = scale (n - f_x) and
    f_x^-1 = f_x.  So r(g, h) + r(h^-1, g^-1) = scale (e + k), and the cr
    build, which raises at the first negative r, succeeded (F5).  So every
    doubled rank is a nonnegative integer, and the pass finds nothing.
    Every pass, the builds' and this one, reads p(g, h) as
    subspace_pairs[id g][id h] from the table as it stands, so the facts
    about the two tables are facts about what each pass reads.
    """
    if grading_check(model, doubled, bijection) is None and _doubling_facts(model, doubled):
        return None
    geometry, doubled_geometry = model.geometry, doubled.geometry
    scale = doubled_geometry.scale
    fixed = geometry.fixed
    doubled_ages, doubled_fixed = doubled_geometry.ages, doubled_geometry.fixed
    ids, doubled_ids = geometry.subspace_ids, doubled_geometry.subspace_ids
    pairs, doubled_pairs = geometry.subspace_pairs, doubled_geometry.subspace_pairs
    for g in range(model.order):
        age_g = doubled_ages[g]
        codimension = model.n - fixed[g]
        line, doubled_line = pairs[ids[g]], doubled_pairs[doubled_ids[g]]
        for h, (gh, sid, doubled_sid) in enumerate(zip(model.table.row(g), ids, doubled_ids)):
            p, q = line[sid], doubled_line[doubled_sid]
            left = age_g + doubled_ages[h] - doubled_ages[gh]
            left += scale * (q - doubled_fixed[gh])
            excess = codimension - fixed[h] + p
            right = scale * (excess + p - fixed[gh])
            if left != right or left < 0 or excess < 0:
                doubled.checked_rank("obstruction", g, h, left, scale)
                model.checked_rank("excess", g, h, excess)
                return {
                    "pair": [model.label(g), model.label(h)],
                    "doubled_obstruction_rank": left // scale,
                    "excess_plus_k": right // scale,
                }
    return None


def main_theorem_check(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> dict | None:
    """Full ring comparison: degrees, constants, pairings, and class tables.

    doubled and bijection must be model.cotangent_model() and the identity
    (ValueError otherwise), so the two sides share one index, one set of
    product rows, one inverse table and one set of classes, under the
    identity class map.  Constants are compared row by row as bytes.  The
    pairing at (g, h) is 1 exactly when h is g's inverse in that algebra's
    table, and both tables read the one inverse_index, so the pairings
    agree by construction, as the classes do.

    The constants stage passes without building the doubled cr algebra when
    doubled holds none and _doubling_facts holds (the degrees stage has
    checked the grading lemma).  Proof.  In decomposition_check's notation,
    that build's scaled rank at (g, h) is scale' (e + k), a nonnegative
    multiple of scale', so it raises nothing, and its codimension gate
    p' = f'_gh is k = 0.  So its constant is 1 exactly when e = 0 and
    p = f_gh, the virt constant's two gates.  The virt build read, and the
    doubled cr build would read, p(g, h) as subspace_pairs[id g][id h] from
    its geometry's table as it stands: the tables _doubling_facts compared.

    The class stage compares the virtual algebra with the doubled cr one,
    whose degrees are 2 (n - dim V^g) by the grading lemma where it is not
    built.  invariant_ring reads an algebra's degrees, constant rows,
    product rows and classes.  After the constants stage the two algebras
    share all but the degrees, so where the degrees agree too they build
    the same ring, or raise the same error, and the stage passes exactly
    when the virtual ring builds: by proof when _class_stage_follows holds,
    else by building it.  Where the degrees differ, both rings are built,
    as the scan builds them; if both build, each algebra's degrees are
    constant on classes, so the class of an element whose degrees differ
    has differing class degrees, and the first such class is reported.
    """
    mismatch = grading_check(model, doubled, bijection)
    if mismatch is not None:
        return {"stage": "degrees", **mismatch}

    virt = model.algebra(VIRT)
    cr_doubled = doubled.built(CR)
    if cr_doubled is None and not _doubling_facts(model, doubled):
        cr_doubled = doubled.algebra(CR)
    if cr_doubled is None:
        doubled_degrees = tuple(2 * (model.n - f) for f in model.geometry.fixed)
    else:
        for g, (row, doubled_row) in enumerate(zip(virt.constants, cr_doubled.constants)):
            if row != doubled_row:
                h = next(h for h, (x, y) in enumerate(zip(row, doubled_row)) if x != y)
                return {
                    "stage": "constants",
                    "pair": [model.label(g), model.label(h)],
                    "doubled_cr": str(doubled_row[h]),
                    "virtual": str(row[h]),
                }
        doubled_degrees = cr_doubled.degrees

    if doubled_degrees == virt.degrees:
        if not _class_stage_follows(model, virt):
            virt.invariant_ring()
        return None
    inv_virt = virt.invariant_ring()
    inv_doubled = doubled.algebra(CR).invariant_ring()
    degree_pairs = enumerate(zip(inv_virt.degrees, inv_doubled.degrees))
    a = next(a for a, (x, y) in degree_pairs if x != y)
    return {
        "stage": "invariant-ring",
        "class": inv_virt.labels[a],
        "virtual_degree": str(inv_virt.degrees[a]),
        "doubled_degree": str(inv_doubled.degrees[a]),
    }


def _class_stage_follows(model: OrbifoldModel, virt: SectorAlgebra) -> bool:
    """Whether virt = model.algebra(VIRT) builds its class ring, decided without building it.

    The guard asks that
      (i) the virtual degrees and constants be invariant under each
          conjugation in table.generator_conjugations;
      (ii) table.is_group_table() hold, so that each of those
          conjugations is conjugation by a generator in a group.
    Proof.  invariant_ring raises in two places.  The classes are the
    orbits of the generator conjugations, so degrees invariant under each
    are constant on each class.  The coefficient of x_k in y_a y_b is
    S(k), the sum of c[g][h] over g in C_a, h in C_b, gh = k.  A generator
    conjugation sigma is, by (ii), an automorphism of the table that maps
    each class onto itself, so (g, h) -> (sigma g, sigma h) is a bijection
    of C_a x C_b with sigma(g) sigma(h) = sigma(gh), which carries the
    terms of S(k) onto those of S(sigma k); by (i) the constants agree
    term by term, so S(sigma k) = S(k).  Invariant under each generator
    conjugation, S is constant on each class, so the class sums are
    class-constant and the ring is built.

    Condition (i) for the constants is the equivariance check of the
    virtual algebra's axiom report, which on a group table is decided under
    the generator conjugations alone.  In verify, algebra-axioms-virt has
    already derived that report and closure_sanity_check the group-table
    fact, so the guard costs about |gens|*|G| more; called on its own, it
    derives the report first.
    """
    table = model.table
    degrees = virt.degrees
    if any(_gatherer(conj)(degrees) != degrees for conj in table.generator_conjugations):
        return False
    if not table.is_group_table():
        return False
    (equivariance,) = (c for c in model.algebra_report(VIRT).checks if c.name == "equivariance")
    return equivariance.passed


def _doubling_facts(model: OrbifoldModel, doubled: OrbifoldModel) -> bool:
    """Whether the facts hold that, with the grading lemma (F2), decide
    bundle-decomposition and the main theorem's constants:
      (F1) age duality;
      (F3) doubled has model's subspace_ids, twice its fixed and twice its
           subspace_pairs, and model's subspace_pairs is symmetric (so
           doubled's is too): every pass reads p(g, h) as
           subspace_pairs[id g][id h], a symmetric function of the ids of g
           and h, and p' = 2p;
      (F4) the group fact, and g^-1 has g's subspace id;
      (F5) model holds its cr and virt algebras, both built without error.
    O(|G| + S^2) steps for S distinct subspaces.
    """
    geometry, doubled_geometry = model.geometry, doubled.geometry
    ids, pairs = geometry.subspace_ids, geometry.subspace_pairs
    return (
        model.built(CR) is not None
        and model.built(VIRT) is not None
        and age_duality_check(model) is None
        and model.table.is_group_table()
        and list(map(ids.__getitem__, model.table.inverse_index)) == ids
        and doubled_geometry.subspace_ids == ids
        and doubled_geometry.fixed == [2 * f for f in geometry.fixed]
        and doubled_geometry.subspace_pairs == [[2 * d for d in line] for line in pairs]
        and list(zip(*pairs)) == list(map(tuple, pairs))
    )


def _timed(name: str, fn: Callable[[], dict | None]) -> CheckResult:
    start = time.perf_counter()
    counterexample = fn()
    millis = (time.perf_counter() - start) * 1000.0
    return CheckResult(name, counterexample is None, counterexample, millis)


def run_full_verification(
    spec: OrbifoldSpec, *, forget_geometry: bool = False
) -> VerificationReport:
    """Run every check the package knows about against one orbifold spec."""
    model = OrbifoldModel(spec, forget_geometry=forget_geometry)
    doubled = model.cotangent_model()
    # the doubled table is derived from the original's, element i's double at index i
    bijection = tuple(range(model.order))
    checks = (
        _timed("closure-sanity", lambda: closure_sanity_check(model)),
        _timed("age-duality", lambda: age_duality_check(model)),
        _timed("rank-oracles", lambda: rank_oracle_check(model)),
        _timed("algebra-axioms-cr", lambda: algebra_axioms_check(model, CR)),
        _timed("algebra-axioms-virt", lambda: algebra_axioms_check(model, VIRT)),
        _timed("grading-lemma", lambda: grading_check(model, doubled, bijection)),
        _timed("bundle-decomposition", lambda: decomposition_check(model, doubled, bijection)),
        _timed("main-theorem", lambda: main_theorem_check(model, doubled, bijection)),
    )
    return VerificationReport(spec_name=spec.name, checks=checks)
