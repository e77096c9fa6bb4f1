"""Workload inputs and op plans: the corpus, generated G(m,p,n) specs, and the seeded basis change.

This module does not import orbring, so the parent process can plan a run
without paying for the package import.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"

# Group orders of the shipped corpus, known independently of the package.
CORPUS_ORDERS = {
    "q8": 8,
    "s3-perm": 6,
    "s4-perm": 24,
    "trivial-c2": 1,
    "z2-c1": 2,
    "z2z2-diag": 4,
    "z3-11": 3,
    "z3-12": 3,
    "z4-13": 4,
}


@dataclass(frozen=True)
class Family:
    """The imprimitive reflection group G(m, p, n), p dividing m."""

    m: int
    p: int
    n: int

    @property
    def name(self) -> str:
        return f"G({self.m},{self.p},{self.n})"

    @property
    def order(self) -> int:
        return self.m**self.n * math.factorial(self.n) // self.p

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants: m, 2m, ..., (n-1)m, nm/p."""
        return tuple(i * self.m for i in range(1, self.n)) + (self.n * self.m // self.p,)

    def fixed_dim_polynomial(self) -> list[int]:
        """Coefficients of prod_i (t + d_i - 1): sum over g of t^(dim V^g) (Solomon 1963)."""
        poly = [1]
        for d in self.degrees:
            poly = poly_mul(poly, [d - 1, 1])
        return poly

    def spec_dict(self) -> dict:
        """Generators: adjacent transpositions, diag(z^p, 1, ...), diag(z, z^-1, 1, ...)."""
        m, p, n = self.m, self.p, self.n
        gens = []
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append({"perm": perm, "phases": ["0"] * n})
        diagonals = [{0: Fraction(p, m)}, {0: Fraction(1, m), 1: Fraction(-1, m)}]
        for entries in diagonals:
            phases = [str(entries.get(j, Fraction(0)) % 1) for j in range(n)]
            gens.append({"perm": list(range(n)), "phases": phases})
        return {"name": self.name, "dimension": n, "generators": gens}


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@dataclass(frozen=True)
class SpecInput:
    """One generated spec: its JSON data, and the oracles that apply to it."""

    name: str
    data: dict
    order: int
    family: Optional[Family] = None

    @property
    def filename(self) -> str:
        return "".join(c if c.isalnum() or c in "-_" else "-" for c in self.name) + ".json"


@dataclass(frozen=True)
class Op:
    """One CLI call: `orbring <command> <spec> <args...>`; kind "cli" runs it in a subprocess."""

    kind: str
    spec: str
    args: tuple[str, ...] = ()

    @property
    def command(self) -> str:
        return "verify" if self.kind == "cli" else self.kind

    @property
    def ref_key(self) -> str:
        """Reference entry; a subprocess verify must print what the in-process one prints."""
        return " ".join((self.spec, self.command) + self.args)

    @property
    def dw(self) -> bool:
        return "--dw" in self.args

    def option(self, flag: str, default: str) -> str:
        if flag in self.args:
            return self.args[self.args.index(flag) + 1]
        return default

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


def _ring(theory: str, basis: str, *extra: str) -> tuple[str, ...]:
    return ("--theory", theory, "--basis", basis, "--format", "json", *extra)


RING_ARGS = tuple(_ring(t, b) for t in ("cr", "virt") for b in ("sector", "class"))
VERIFY_ARGS = ("--format", "json")


def _corpus_ops(spec: str) -> list[Op]:
    return [
        Op("inspect", spec),
        *(Op("ring", spec, args) for args in RING_ARGS),
        Op("cotangent", spec),
        Op("verify", spec, VERIFY_ARGS),
        Op("verify", spec, VERIFY_ARGS + ("--dw",)),
        Op("cli", spec, VERIFY_ARGS),
    ]


def _gmpn_ops(spec: str) -> list[Op]:
    return [*(Op("ring", spec, args) for args in RING_ARGS), Op("verify", spec, VERIFY_ARGS)]


def _gmpn_dw_ops(spec: str) -> list[Op]:
    return [
        Op("verify", spec, VERIFY_ARGS + ("--dw",)),
        Op("ring", spec, ("--dw", "--basis", "class", "--format", "json")),
    ]


GEOMETRY_FAMILIES = (Family(4, 1, 2), Family(6, 2, 2), Family(2, 1, 3), Family(5, 1, 2))
BIG_FAMILIES = (Family(3, 1, 4), Family(2, 1, 5))

WORKLOADS = ("corpus", "gmpn", "gmpn-dw", "big-inspect")


def _corpus_inputs() -> list[SpecInput]:
    inputs = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        inputs.append(SpecInput(data["name"], data, CORPUS_ORDERS[data["name"]]))
    return inputs


def _family_inputs(families) -> list[SpecInput]:
    return [SpecInput(f.name, f.spec_dict(), f.order, f) for f in families]


def workload_inputs(workload: str) -> tuple[list[SpecInput], list[Op]]:
    """The specs of a workload at seed 0, and the ops of one pass, in order."""
    if workload == "corpus":
        inputs, per_spec = _corpus_inputs(), _corpus_ops
    elif workload == "gmpn":
        inputs, per_spec = _family_inputs(GEOMETRY_FAMILIES), _gmpn_ops
    elif workload == "gmpn-dw":
        inputs, per_spec = _family_inputs(GEOMETRY_FAMILIES), _gmpn_dw_ops
    elif workload == "big-inspect":
        inputs, per_spec = _family_inputs(BIG_FAMILIES), lambda spec: [Op("inspect", spec)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inputs, [op for spec in inputs for op in per_spec(spec.name)]


def _phase_modulus(data: dict) -> int:
    m = 1
    for gen in data["generators"]:
        for phase in gen["phases"]:
            m = math.lcm(m, Fraction(phase).denominator)
    return m


def change_basis(data: dict, sigma: list[int], shifts: list[int], m: int) -> dict:
    """Conjugate every generator by P_sigma * D, with D = diag(zeta_m^shifts[j]).

    D M D^-1 sends e_j to zeta^(phase_j + shift_perm(j) - shift_j) e_perm(j);
    relabelling coordinates by sigma then moves entry j to sigma(j).
    """
    n = data["dimension"]
    gens = []
    for gen in data["generators"]:
        perm = gen["perm"]
        new_perm = [0] * n
        new_phases = [""] * n
        for j in range(n):
            phase = Fraction(gen["phases"][j]) + Fraction(shifts[perm[j]] - shifts[j], m)
            new_perm[sigma[j]] = sigma[perm[j]]
            new_phases[sigma[j]] = str(phase % 1)
        gens.append({"perm": new_perm, "phases": new_phases})
    return {**data, "generators": gens}


def seeded_inputs(workload: str, seed: int) -> tuple[list[SpecInput], list[Op]]:
    """Seed 0 gives the specs unchanged; any other seed a random monomial change of basis.

    The basis change keeps the group, its classes, the rings up to isomorphism
    and the cost, but changes BFS order and element labels.
    """
    inputs, ops = workload_inputs(workload)
    if seed == 0:
        return inputs, ops
    changed = []
    for spec in inputs:
        rng = random.Random(f"{seed}/{spec.name}")
        n = spec.data["dimension"]
        m = spec.family.m if spec.family else _phase_modulus(spec.data)
        sigma = rng.sample(range(n), n)
        shifts = [rng.randrange(m) for _ in range(n)]
        data = change_basis(spec.data, sigma, shifts, m)
        changed.append(SpecInput(spec.name, data, spec.order, spec.family))
    return changed, ops


def write_specs(inputs: list[SpecInput], directory: Path) -> dict[str, Path]:
    paths = {}
    for spec in inputs:
        path = directory / spec.filename
        path.write_text(json.dumps(spec.data, indent=2) + "\n", encoding="utf-8")
        paths[spec.name] = path
    return paths
