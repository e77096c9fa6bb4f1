"""Shared fixtures-in-spirit: corpus loading, cached models, hypothesis strategies,
independent oracles."""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from array import array
from collections import deque
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from orbring import (
    CR,
    VIRT,
    AlgebraReport,
    AxiomCheck,
    ConsistencyError,
    CyclotomicNumber,
    InvariantRing,
    MonomialMap,
    OrbifoldModel,
    OrbifoldSpec,
    RationalPhase,
    ResourceCapError,
    SectorAlgebra,
)
from orbring.monomial import _encode
from orbring.rings import _check_theory, _check_unit

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.json"))
SMALL_NAMES = [n for n in CORPUS_NAMES if n != "s4-perm"]  # quick loops in unit tests

_specs: dict[str, OrbifoldSpec] = {}
_models: dict[tuple[str, bool], OrbifoldModel] = {}


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.json"


def corpus_spec(name: str) -> OrbifoldSpec:
    if name not in _specs:
        _specs[name] = OrbifoldSpec.load(corpus_path(name))
    return _specs[name]


def corpus_model(name: str, forget: bool = False) -> OrbifoldModel:
    key = (name, forget)
    if key not in _models:
        _models[key] = OrbifoldModel(corpus_spec(name), forget_geometry=forget)
    return _models[key]


def derived_pair(spec: OrbifoldSpec, forget: bool = False):
    """(model, model.cotangent_model(), the identity bijection) on a fresh model of spec.

    The one pair the doubling checks accept: the doubled table is derived
    from the original's, with element i's double at index i.
    """
    model = OrbifoldModel(spec, forget_geometry=forget)
    return model, model.cotangent_model(), tuple(range(model.order))


def decoded(table) -> list[MonomialMap]:
    """Every element of the table as a MonomialMap, each decoded once by GroupTable.element."""
    return list(map(table.element, range(table.order)))


def decoded_index(table) -> dict[MonomialMap, int]:
    """Each decoded element's index, from one decode of the table."""
    return {element: i for i, element in enumerate(decoded(table))}


def built_rows(table) -> list[int]:
    """Indices of the product rows the table has built so far."""
    return [i for i, row in enumerate(table._rows) if row is not None]


def group_fact_by_rows(table) -> bool:
    """The group fact decided on decoded elements and every product row: check_group's oracle.

    phi(i) = elements[i] must re-encode to distinct codes, with phi(0) the
    identity, and compose along the search parents: p < i and phi(i) =
    phi(p) phi(s_k), and phi(left_k[j]) = phi(s_k) phi(j).  Row 0 must be
    the identity and every row, read through row, its parent's row gathered
    through left_k; then phi(mult(i, j)) = phi(i) phi(j) by induction on i.
    inverse_index, in range, must invert each row, and conjugation_permutation
    of each generator must be its generator_conjugations table.  Reads, so
    builds, every product row: callers pass a copy of the table they check.
    """
    order, elements, gens = table.order, decoded(table), table.gens
    codes = [_encode(element, table.dimension, table.conductor) for element in elements]
    if None in codes or codes[0] != tuple(range(table.dimension)) or len(set(codes)) != order:
        return False
    for i, (p, k) in enumerate(table._parent_gen[1:], 1):
        if not (0 <= p < i and elements[i] == elements[p] * elements[gens[k]]):
            return False
    for s, left in zip(gens, table._left):
        if any(elements[x] != elements[s] * elements[j] for j, x in enumerate(left)):
            return False
    if table.row(0) != tuple(range(order)):
        return False
    for i, (p, k) in enumerate(table._parent_gen[1:], 1):
        if table.row(i) != tuple(table.row(p)[j] for j in table._left[k]):
            return False
    inverse = table.inverse_index
    if not all(0 <= t < order for t in inverse) or any(map(table.mult, range(order), inverse)):
        return False
    return tuple(map(table.conjugation_permutation, gens)) == table.generator_conjugations


def gmpn_spec(m: int, p: int, n: int) -> OrbifoldSpec:
    """The imprimitive reflection group G(m, p, n) on C^n, n >= 2, p dividing m.

    Generated by the adjacent transpositions, diag(z^p, 1, ...) and
    diag(z, z^-1, 1, ...), with z = exp(2 pi i / m).
    """
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append({"perm": perm, "phases": ["0"] * n})
    for entries in ({0: Fraction(p, m)}, {0: Fraction(1, m), 1: Fraction(-1, m)}):
        phases = [str(entries.get(j, Fraction(0)) % 1) for j in range(n)]
        gens.append({"perm": list(range(n)), "phases": phases})
    return OrbifoldSpec.from_dict({"name": f"G({m},{p},{n})", "dimension": n, "generators": gens})


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its path (it imports the standard library alone)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        found = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(found)
        sys.modules[name] = module  # dataclasses look their module up while the body runs
        found.loader.exec_module(module)
    return sys.modules[name]


def basis_changed_spec(spec: OrbifoldSpec, seed: int) -> OrbifoldSpec:
    """spec under a seeded monomial change of basis, by perfbench's workloads.change_basis:
    a coordinate permutation and a diagonal of m-th roots of unity, m the lcm of the
    generators' phase denominators."""
    rng = random.Random(seed)
    n = spec.dimension
    m = math.lcm(1, *(p.denominator for g in spec.generators for p in g.phases))
    sigma = rng.sample(range(n), n)
    shifts = [rng.randrange(m) for _ in range(n)]
    data = _perfbench_workloads().change_basis(spec.to_dict(), sigma, shifts, m)
    return OrbifoldSpec.from_dict({**data, "name": f"{spec.name} seed {seed}"})


def diagonal_spec(generators):
    """The group of diagonal maps on C^n generated by the given phase vectors (Fractions)."""
    n = len(generators[0])
    gens = [{"perm": list(range(n)), "phases": [str(a) for a in phases]} for phases in generators]
    return OrbifoldSpec.from_dict({"name": "diagonal", "dimension": n, "generators": gens})


# --- random monomial maps, generator sets and diagonal phase vectors (hypothesis strategies) ---

@st.composite
def diagonal_generators(draw):
    """At most 2 generators on C^n, n <= 4, each with phases k/N for one N <= 12."""
    n = draw(st.integers(1, 4))
    generators = []
    for _ in range(draw(st.integers(1, 2))):
        N = draw(st.integers(1, 12))
        numerators = draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n))
        generators.append(tuple(Fraction(k, N) for k in numerators))
    return generators


@st.composite
def monomial_maps(draw, dimension=None):
    n = dimension if dimension is not None else draw(st.integers(min_value=1, max_value=4))
    perm = tuple(draw(st.permutations(range(n))))
    phases = tuple(
        draw(
            st.builds(
                RationalPhase,
                numerator=st.integers(min_value=0, max_value=11),
                denominator=st.integers(min_value=1, max_value=6),
            )
        )
        for _ in range(n)
    )
    return MonomialMap(perm, phases)


@st.composite
def monomial_generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return n, draw(st.lists(monomial_maps(dimension=n), min_size=1, max_size=3))


# --- independent closure oracle: breadth-first search on MonomialMap objects ---

def closure_oracle(generators, dimension, cap, rows=True):
    """GroupTable's fields by composing MonomialMap objects, as a dict.

    The same sorted generators and the same breadth-first discovery order as
    GroupTable.close, so the indices must agree; rows holds every product
    row, or None when rows is false.
    """
    gens = sorted(set(generators), key=MonomialMap.sort_key)
    identity = MonomialMap.identity(dimension)
    elements = [identity]
    index = {identity: 0}
    queue = deque([0])
    while queue:
        x = elements[queue.popleft()]
        for g in gens:
            y = x * g
            if y not in index:
                if len(elements) >= cap:
                    raise ResourceCapError(f"group not closed within cap {cap} elements")
                index[y] = len(elements)
                elements.append(y)
                queue.append(index[y])
    return {
        "elements": elements,
        "index": index,
        "gens": tuple(index[g] for g in gens),
        "inverse_index": tuple(index[inverse(e)] for e in elements),
        "rows": [tuple(index[x * y] for y in elements) for x in elements] if rows else None,
    }


# --- element orders and the sector bijection through products and MonomialMaps ---

def element_order_scan(table, i):
    """Least m >= 1 with i^m = e, walking x -> i*x through row i.

    In a group of order |G| that m divides |G|, so powers that have not
    reached e after |G| steps mean a broken table; that raises
    ConsistencyError instead of looping forever.
    """
    row = table.row(i)
    m = 1
    x = i
    while x != 0:
        if m >= table.order:
            raise ConsistencyError(
                f"powers of element {i} do not reach the identity within {table.order} steps"
            )
        x = row[x]
        m += 1
    return m


def sector_bijection_scan(original, doubled):
    """g -> g (+) conjugate(g) by looking up each MonomialMap.double() among doubled's elements."""
    if doubled.order != original.order:
        raise ConsistencyError(
            f"doubled group has order {doubled.order}, original {original.order}"
        )
    index = decoded_index(doubled)
    mapping = []
    for element in decoded(original):
        target = index.get(element.double())
        if target is None:
            raise ConsistencyError(f"doubled element of {element} missing from closure")
        mapping.append(target)
    if len(set(mapping)) != original.order:
        raise ConsistencyError("doubling map is not injective on sector indices")
    return tuple(mapping)


# --- independent polynomial oracle (rational arithmetic, no package code) ---

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div_exact(num, den):
    """Divide exactly over the rationals; raises if a remainder survives."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    dd = len(den) - 1
    q = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / den[dd]
        q[k - dd] = c
        for i in range(dd + 1):
            num[k - dd + i] -= c * den[i]
    assert not any(num[:dd]), f"nonzero remainder {num[:dd]}"
    return q


def x_power_minus_one(n):
    out = [0] * (n + 1)
    out[0], out[n] = -1, 1
    return out


# --- independent group-ring convolution oracle for class-sum products ---

def class_convolution_oracle(table):
    """Class-sum multiplication coefficients of the group ring, by brute force.

    Returns {(a, b, c): count} where count is the coefficient of any fixed
    element of class c in the product of the class sums of classes a and b.
    """
    part = table.conjugacy_classes()
    coeffs = {}
    for a, class_a in enumerate(part.classes):
        for b, class_b in enumerate(part.classes):
            acc = [0] * table.order
            for g in class_a:
                for h in class_b:
                    acc[table.mult(g, h)] += 1
            for c, cls in enumerate(part.classes):
                values = {acc[k] for k in cls}
                assert len(values) == 1, "class convolution is not class-constant"
                value = values.pop()
                if value:
                    coeffs[(a, b, c)] = Fraction(value)
    return coeffs


# --- independent sector-level expansion oracle for invariant rings ---

def invariant_expansion_oracle(alg):
    """Expand class-sum products directly through the sector constants."""
    part = alg.table.conjugacy_classes()
    coeffs = {}
    for a, class_a in enumerate(part.classes):
        for b, class_b in enumerate(part.classes):
            acc = [Fraction(0)] * alg.order
            for g in class_a:
                for h in class_b:
                    acc[alg.table.mult(g, h)] += alg.constant(g, h)
            for c, cls in enumerate(part.classes):
                values = {acc[k] for k in cls}
                assert len(values) == 1
                value = values.pop()
                if value:
                    coeffs[(a, b, c)] = value
    return coeffs


# --- per-entry forms: one rank, gate or geometric datum at a time ---
#
# The package computes each of these only as whole arrays; these one-entry
# forms, which it cannot call, are their references.

def conjugate(table, g: int, by: int) -> int:
    """Index of by^-1 * g * by, from two products."""
    return table.mult(table.mult(table.inverse_index[by], g), by)


def inverse(m: MonomialMap) -> MonomialMap:
    """The conjugate transpose of m: e_perm[j] goes back to e_j with the negated phase."""
    perm, phases = [0] * m.dimension, [None] * m.dimension
    for j, (image, phase) in enumerate(zip(m.perm, m.phases)):
        perm[image], phases[image] = j, -phase
    return MonomialMap(perm, phases)


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


def fixed_dim_of_subgroup(geometry, members) -> int:
    """Dimension of the common fixed subspace of a subgroup.

    The averaging projector (1/|H|) sum of rho(k) has trace equal to the
    fixed-space dimension; the cyclotomic sum must come out a rational
    integer in [0, n], which is asserted at runtime.
    """
    if geometry.forget:
        return 0
    total = CyclotomicNumber.zero()
    for k in members:
        total = total + geometry.trace(k)
    average = total * Fraction(1, len(members))
    value = average.as_rational()
    if value is None or value.denominator != 1 or not 0 <= value <= geometry.n:
        raise ConsistencyError(
            f"projector average over subgroup {tuple(members)} is {value!r}, "
            f"expected an integer in [0, {geometry.n}]"
        )
    return int(value)


def age_of(model, g: int) -> tuple[Fraction, int]:
    """Age and fixed dimension of element g, read from the geometry's arrays.

    The row passes read the same arrays, so a test that bumps an entry
    compares like with like.
    """
    geometry = model.geometry
    return Fraction(geometry.ages[g], geometry.scale), geometry.fixed[g]


def obstruction_rank(model, g: int, h: int) -> int:
    """Rank of the correction bundle gating the cr product at (g, h)."""
    product_age, product_dim = age_of(model, model.table.mult(g, h))
    value = (
        age_of(model, g)[0]
        + age_of(model, h)[0]
        - product_age
        - product_dim
        + model.fixed_dim_pair(g, h)
    )
    return model.checked_rank("obstruction", g, h, value.numerator, value.denominator)


def obstruction_rank_dual_form(model, g: int, h: int) -> int:
    """Triple-age form of the same rank; an independent cross-check."""
    gh_inv = model.table.inverse_index[model.table.mult(g, h)]
    value = (
        age_of(model, g)[0]
        + age_of(model, h)[0]
        + age_of(model, gh_inv)[0]
        - (model.n - model.fixed_dim_pair(g, h))
    )
    return model.checked_rank(
        "obstruction (dual form)", g, h, value.numerator, value.denominator
    )


def excess_rank(model, g: int, h: int) -> int:
    """Rank of the excess bundle of V^g and V^h inside the ambient space.

    Zero exactly when the two fixed subspaces meet transversally.
    """
    value = (
        model.n
        - age_of(model, g)[1]
        - age_of(model, h)[1]
        + model.fixed_dim_pair(g, h)
    )
    return model.checked_rank("excess", g, h, value)


def k_rank(model, g: int, h: int) -> int:
    """Rank of the virtual difference bundle at (g, h); may be negative."""
    gh = model.table.mult(g, h)
    return model.fixed_dim_pair(g, h) - age_of(model, gh)[1]


def structure_constant(model, theory: str, g: int, h: int) -> int:
    """Coefficient of x_{gh} in x_g * x_h: 1 iff both gates pass, else 0.

    algebra() computes the whole table from arrays instead; this one-entry
    form is its reference.
    """
    _check_theory(theory)
    rank = obstruction_rank(model, g, h) if theory == CR else excess_rank(model, g, h)
    if rank != 0:
        return 0
    gh = model.table.mult(g, h)
    return 1 if model.fixed_dim_pair(g, h) == age_of(model, gh)[1] else 0


# --- per-pair scans: the references for the row-wise verify checks ---
#
# Each is the check as a plain loop over every element or pair, reading the
# per-entry forms above and age_of, constant, pairing and mult.
# The checks in orbring must return the same payload or raise the same
# ConsistencyError text.

def closure_sanity_scan(model):
    table = model.table
    elements = decoded(table)
    if not elements[0].is_identity():
        return {"problem": "index 0 is not the identity"}
    order = table.order
    for i in range(order):
        inverse = table.inverse_index[i]
        if not 0 <= inverse < order or table.mult(i, inverse) != 0:
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
            if elements[table.mult(i, j)] != elements[i] * elements[j]:
                return {
                    "problem": "multiplication table disagrees with composition",
                    "pair": [model.label(i), model.label(j)],
                }
    return None


def pair_row_scan(geometry, g):
    """Row g of pair fixed dimensions by one orbit walk per pair (g, h).

    SectorGeometry.subspace_pairs walks only pairs of distinct fixed
    subspaces; this walks every pair and is the oracle for that table read
    through subspace_ids.
    """
    return array("I", [geometry._common_fixed_dim(g, h) for h in range(geometry.table.order)])


def age_duality_scan(model):
    for g in range(model.order):
        age, dim = age_of(model, g)
        lhs = age + age_of(model, model.table.inverse_index[g])[0]
        rhs = model.n - dim
        if lhs != rhs:
            return {"element": model.label(g), "age_sum": str(lhs), "codimension": str(rhs)}
    return None


def rank_oracle_scan(model):
    for g in range(model.order):
        for h in range(model.order):
            direct = obstruction_rank(model, g, h)
            dual = obstruction_rank_dual_form(model, g, h)
            if direct != dual:
                return {
                    "pair": [model.label(g), model.label(h)],
                    "rank": direct,
                    "dual_form": dual,
                }
    return None


def grading_check_scan(model, doubled, bijection):
    for g in range(model.order):
        doubled_s = 2 * age_of(doubled, bijection[g])[0]
        sigma = 2 * (model.n - age_of(model, g)[1])
        if doubled_s != sigma:
            return {
                "element": model.label(g),
                "doubled_cr_shift": str(doubled_s),
                "virtual_shift": str(sigma),
            }
    return None


def decomposition_scan(model, doubled, bijection):
    for g in range(model.order):
        for h in range(model.order):
            lhs = obstruction_rank(doubled, bijection[g], bijection[h])
            rhs = excess_rank(model, g, h) + k_rank(model, g, h)
            if lhs != rhs:
                return {
                    "pair": [model.label(g), model.label(h)],
                    "doubled_obstruction_rank": lhs,
                    "excess_plus_k": rhs,
                }
    return None


def main_theorem_scan(model, doubled, bijection):
    mismatch = grading_check_scan(model, doubled, bijection)
    if mismatch is not None:
        return {"stage": "degrees", **mismatch}
    virt = model.algebra(VIRT)
    cr_doubled = doubled.algebra(CR)
    for g in range(model.order):
        for h in range(model.order):
            lhs = cr_doubled.constant(bijection[g], bijection[h])
            rhs = virt.constant(g, h)
            if lhs != rhs:
                return {
                    "stage": "constants",
                    "pair": [model.label(g), model.label(h)],
                    "doubled_cr": str(lhs),
                    "virtual": str(rhs),
                }
    for g in range(model.order):
        for h in range(model.order):
            if cr_doubled.pairing(bijection[g], bijection[h]) != virt.pairing(g, h):
                return {"stage": "pairings", "pair": [model.label(g), model.label(h)]}

    virt_classes = model.table.conjugacy_classes()
    doubled_classes = doubled.table.conjugacy_classes()
    if len(virt_classes) != len(doubled_classes):
        return {
            "stage": "invariant-ring",
            "problem": "class counts differ",
            "original": len(virt_classes),
            "doubled": len(doubled_classes),
        }
    class_map = tuple(
        doubled_classes.class_of[bijection[rep]] for rep in virt_classes.representatives
    )
    if len(set(class_map)) != len(class_map):
        return {"stage": "invariant-ring", "problem": "class map is not a bijection"}
    inv_virt = virt.invariant_ring()
    inv_doubled = cr_doubled.invariant_ring()
    for a in range(inv_virt.order):
        if inv_virt.degrees[a] != inv_doubled.degrees[class_map[a]]:
            return {
                "stage": "invariant-ring",
                "class": inv_virt.labels[a],
                "virtual_degree": str(inv_virt.degrees[a]),
                "doubled_degree": str(inv_doubled.degrees[class_map[a]]),
            }
    remapped = {
        (class_map[a], class_map[b], class_map[c]): value
        for (a, b, c), value in inv_virt.constants.items()
    }
    for key in sorted(set(remapped) | set(inv_doubled.constants)):
        if remapped.get(key) != inv_doubled.constants.get(key):
            return {
                "stage": "invariant-ring",
                "classes": [inv_doubled.labels[i] for i in key],
                "virtual": str(remapped.get(key, 0)),
                "doubled_cr": str(inv_doubled.constants.get(key, 0)),
            }
    return None


# --- corrupted algebras (negative tests) ---

def with_constant(alg, g, h, value):
    """Copy of alg with c[g][h] replaced by value, which must be 0 or 1.

    A built algebra holds only 0/1 bytes rows, and the verifier decides
    nothing else, so a corruption is a flipped or rewritten entry.
    """
    if value not in (0, 1):
        raise ValueError(f"a structure constant is 0 or 1, got {value!r}")
    rows = list(alg.constants)
    row = bytearray(rows[g])
    row[h] = value
    rows[g] = bytes(row)
    return SectorAlgebra(
        theory=alg.theory,
        table=alg.table,
        degrees=alg.degrees,
        constants=tuple(rows),
        labels=alg.labels,
    )


# --- the algebra axioms and the class-sum ring as plain scans ---
#
# The references for verify_algebra's checks and SectorAlgebra.invariant_ring:
# the |G|^3 triple scans, the class-pair-by-class-pair regroup, and the
# per-pair grading and nondegeneracy scans.  Each meets its counterexample,
# or raises its ConsistencyError, in the order the package must reproduce.

def _triple_failure(name, alg, g, h, k, lhs, rhs):
    payload = {
        "triple": [alg.labels[g], alg.labels[h], alg.labels[k]],
        "lhs": str(lhs),
        "rhs": str(rhs),
    }
    return AxiomCheck(name, False, payload)


def associativity_scan(alg):
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
                    return _triple_failure("associativity", alg, g, h, k, lhs, rhs)
    return AxiomCheck("associativity", True)


def frobenius_scan(alg):
    """Trace-form compatibility: <a*b, c> equals <a, b*c> for all basis triples."""
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
                    return _triple_failure("frobenius", alg, g, h, k, lhs, rhs)
    return AxiomCheck("frobenius", True)


def equivariance_scan(alg):
    order = alg.order
    for k in range(order):
        if not 0 <= alg.table.inverse_index[k] < order:
            return AxiomCheck(
                "equivariance",
                False,
                {"conjugator": alg.labels[k], "problem": "inverse outside the table"},
            )
        conj = [conjugate(alg.table, g, k) for g in range(order)]
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


def invariant_ring_scan(alg):
    """Expand products of class sums class pair by class pair, and regroup them."""
    part = alg.table.conjugacy_classes()
    degrees = []
    for cls in part.classes:
        values = {alg.degrees[i] for i in cls}
        if len(values) != 1:
            raise ConsistencyError(f"degree is not constant on class {cls}: {sorted(values)}")
        degrees.append(values.pop())
    constants = {}
    for a, class_a in enumerate(part.classes):
        for b, class_b in enumerate(part.classes):
            acc = [0] * alg.order
            for g in class_a:
                for h in class_b:
                    c = alg.constants[g][h]
                    if c:
                        acc[alg.table.mult(g, h)] += c
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
        theory=alg.theory,
        labels=tuple(f"[{alg.labels[r]}]" for r in part.representatives),
        class_sizes=tuple(len(c) for c in part.classes),
        degrees=tuple(degrees),
        constants=constants,
    )


def grading_axiom_scan(alg):
    for g in range(alg.order):
        for h in range(alg.order):
            if alg.constants[g][h]:
                gh = alg.table.mult(g, h)
                if alg.degrees[g] + alg.degrees[h] != alg.degrees[gh]:
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


def nondegeneracy_scan(alg):
    """Exactly one pairing partner in every row, then in every column."""
    for g in range(alg.order):
        partners = [h for h in range(alg.order) if alg.pairing(g, h)]
        if partners != [alg.table.inverse_index[g]] or alg.pairing(g, partners[0]) != 1:
            return AxiomCheck(
                "nondegeneracy",
                False,
                {"sector": alg.labels[g], "partners": [alg.labels[h] for h in partners]},
            )
    for h in range(alg.order):
        partners = [g for g in range(alg.order) if alg.pairing(g, h)]
        if len(partners) != 1:
            return AxiomCheck(
                "nondegeneracy",
                False,
                {"sector": alg.labels[h], "partners": [alg.labels[g] for g in partners]},
            )
    return AxiomCheck("nondegeneracy", True)


def cube_report(alg):
    """The report of the six |G|^3 and |G|^2 scans, the verifier's reference."""
    return AlgebraReport(
        (
            associativity_scan(alg),
            grading_axiom_scan(alg),
            _check_unit(alg),
            frobenius_scan(alg),
            nondegeneracy_scan(alg),
            equivariance_scan(alg),
        )
    )
