"""Shared fixtures-in-spirit: corpus loading, cached models, hypothesis strategies,
independent oracles."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from orbring import MonomialMap, OrbifoldModel, OrbifoldSpec, RationalPhase, ResourceCapError

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


# --- random monomial maps and generator sets (hypothesis strategies) ---

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

def closure_oracle(generators, dimension, cap):
    """GroupTable's fields by composing MonomialMap objects, as a dict.

    The same sorted generators and the same breadth-first discovery order as
    GroupTable.close, so the indices must agree; rows holds every product row.
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
        "inverse_index": tuple(index[e.inverse()] for e in elements),
        "rows": [tuple(index[x * y] for y in elements) for x in elements],
    }


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
