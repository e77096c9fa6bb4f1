"""Executable checks tying the two theories together across the cotangent doubling.

Under g -> g (+) conjugate(g) the doubled orbifold's cr-side data must
reproduce the original orbifold's virtual-side data: degree shifts agree,
bundle ranks add up, and the full structure-constant tables coincide at sector
and class level.  Each statement is run as an exhaustive exact check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ConsistencyError
from .monomial import GroupTable
from .orbifold import OrbifoldSpec
from .rings import CR, VIRT, OrbifoldModel, verify_algebra

__all__ = [
    "CheckResult",
    "VerificationReport",
    "decomposition_check",
    "grading_check",
    "k_rank",
    "main_theorem_check",
    "run_full_verification",
    "sector_bijection",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: Optional[dict]
    millis: float


@dataclass(frozen=True)
class VerificationReport:
    spec_name: str
    checks: tuple[CheckResult, ...]

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
    """Index map of g -> g (+) conjugate(g) from the original into the doubled table."""
    if doubled.order != original.order:
        raise ConsistencyError(
            f"doubled group has order {doubled.order}, original {original.order}"
        )
    mapping = []
    for element in original.elements:
        target = doubled.index.get(element.double())
        if target is None:
            raise ConsistencyError(f"doubled element of {element} missing from closure")
        mapping.append(target)
    if len(set(mapping)) != original.order:
        raise ConsistencyError("doubling map is not injective on sector indices")
    return tuple(mapping)


def k_rank(model: OrbifoldModel, g: int, h: int) -> int:
    """Rank of the virtual difference bundle at (g, h); may be negative."""
    gh = model.table.mult(g, h)
    return model.fixed_dim_pair(g, h) - model.sector(gh).fixed_dim


def closure_sanity_check(model: OrbifoldModel) -> Optional[dict]:
    table = model.table
    if not table.elements[0].is_identity():
        return {"problem": "index 0 is not the identity"}
    order = table.order
    for i in range(order):
        if table.mult(i, table.inverse_index[i]) != 0:
            return {"problem": "inverse table broken", "element": model.label(i)}
        if order % table.element_order(i) != 0:
            return {
                "problem": "element order does not divide group order",
                "element": model.label(i),
                "element_order": table.element_order(i),
                "group_order": order,
            }
    if order <= 64:
        for i in range(order):
            for j in range(order):
                if table.elements[table.mult(i, j)] != table.elements[i] * table.elements[j]:
                    return {
                        "problem": "multiplication table disagrees with composition",
                        "pair": [model.label(i), model.label(j)],
                    }
    return None


def age_duality_check(model: OrbifoldModel) -> Optional[dict]:
    for g in range(model.order):
        sector = model.sector(g)
        lhs = sector.age + model.sector(model.table.inverse_index[g]).age
        rhs = model.n - sector.fixed_dim
        if lhs != rhs:
            return {
                "element": model.label(g),
                "age_sum": str(lhs),
                "codimension": str(rhs),
            }
    return None


def rank_oracle_check(model: OrbifoldModel) -> Optional[dict]:
    for g in range(model.order):
        for h in range(model.order):
            direct = model.obstruction_rank(g, h)
            dual = model.obstruction_rank_dual_form(g, h)
            if direct != dual:
                return {
                    "pair": [model.label(g), model.label(h)],
                    "rank": direct,
                    "dual_form": dual,
                }
    return None


def algebra_axioms_check(model: OrbifoldModel, theory: str) -> Optional[dict]:
    report = verify_algebra(model.algebra(theory))
    failure = report.first_failure()
    if failure is None:
        return None
    payload = {"axiom": failure.name}
    if failure.counterexample:
        payload.update(failure.counterexample)
    return payload


def grading_check(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> Optional[dict]:
    """Doubled cr shift equals original virtual shift, element by element."""
    for g in range(model.order):
        doubled_s = doubled.sector(bijection[g]).cr_shift
        sigma = model.sector(g).virtual_shift
        if doubled_s != sigma:
            return {
                "element": model.label(g),
                "doubled_cr_shift": str(doubled_s),
                "virtual_shift": str(sigma),
            }
    return None


def decomposition_check(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> Optional[dict]:
    """Doubled obstruction rank = excess rank + difference-bundle rank, per pair."""
    for g in range(model.order):
        for h in range(model.order):
            lhs = doubled.obstruction_rank(bijection[g], bijection[h])
            rhs = model.excess_rank(g, h) + k_rank(model, g, h)
            if lhs != rhs:
                return {
                    "pair": [model.label(g), model.label(h)],
                    "doubled_obstruction_rank": lhs,
                    "excess_plus_k": rhs,
                }
    return None


def main_theorem_check(
    model: OrbifoldModel, doubled: OrbifoldModel, bijection: tuple[int, ...]
) -> Optional[dict]:
    """Full ring comparison: degrees, constants, pairings, and class tables."""
    mismatch = grading_check(model, doubled, bijection)
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
    if remapped != inv_doubled.constants:
        keys = set(remapped) | set(inv_doubled.constants)
        for key in sorted(keys):
            if remapped.get(key) != inv_doubled.constants.get(key):
                return {
                    "stage": "invariant-ring",
                    "classes": [inv_doubled.labels[i] for i in key],
                    "virtual": str(remapped.get(key, 0)),
                    "doubled_cr": str(inv_doubled.constants.get(key, 0)),
                }
    return None


def _timed(name: str, fn: Callable[[], Optional[dict]]) -> CheckResult:
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
    bijection = sector_bijection(model.table, doubled.table)
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
