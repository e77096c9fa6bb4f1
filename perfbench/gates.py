"""Output gates: every op's output is checked exactly before the op counts as done.

Three kinds of check apply, none of which calls into orbring:
- family oracles: the order m^n n!/p of G(m,p,n) and Solomon's fixed-dimension
  polynomial prod (t + d_i - 1), the known corpus orders, the group ring in
  point mode, a passing verify report, and the block doubling of cotangent;
- the reference digest recorded at seed 0 (verify output with `millis`
  stripped is seed-independent, so it is compared on every seed);
- on other seeds, isomorphism invariants recorded beside the digest.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

from workloads import Op, SpecInput

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

VERIFY_CHECKS = (
    "closure-sanity",
    "age-duality",
    "rank-oracles",
    "algebra-axioms-cr",
    "algebra-axioms-virt",
    "grading-lemma",
    "bundle-decomposition",
    "main-theorem",
)

_MILLIS = re.compile(r',\n *"millis": [^\n]*')


class GateError(Exception):
    """An output failed a check."""


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def digest(op: Op, output: str) -> str:
    """sha256 of the output; verify reports lose their timing fields first."""
    if op.command == "verify":
        output = _MILLIS.sub("", output)
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def _by_value(values) -> list[str]:
    return [str(v) for v in sorted(Fraction(v) for v in values)]


def _inspect_table(output: str) -> tuple[int, int, list[list[str]]]:
    lines = output.splitlines()
    order = int(lines[2].split(":")[1])
    classes = int(lines[3].split(":")[1])
    rows = [line.split()[1:] for line in lines[5:]]
    return order, classes, rows


def invariants(op: Op, output: str) -> dict:
    """Facts about the output that a change of basis must not move."""
    if op.command == "inspect":
        order, classes, rows = _inspect_table(output)
        return {"order": order, "classes": classes, "rows": sorted(rows)}
    if op.command == "verify":
        checks = json.loads(output)["checks"]
        return {"checks": [[c["name"], c["status"]] for c in checks]}
    data = json.loads(output)
    if op.command == "ring":
        return {
            "basis": len(data["basis"]),
            "nonzero": len(data["constants"]),
            "degrees": _by_value(data["degrees"]),
        }
    return {"dimension": data["dimension"], "generators": len(data["generators"])}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _solomon(spec: SpecInput, fixed_dims: list[tuple[int, int]]) -> None:
    """sum of (count * t^fixed_dim) must equal prod (t + d_i - 1)."""
    poly = [0] * (spec.data["dimension"] + 1)
    for count, fd in fixed_dims:
        poly[fd] += count
    expected = spec.family.fixed_dim_polynomial()
    _require(poly == expected, f"fixed-dimension polynomial {poly}, expected {expected}")


def _check_inspect(op: Op, spec: SpecInput, output: str) -> None:
    order, classes, rows = _inspect_table(output)
    _require(order == spec.order, f"group order {order}, expected {spec.order}")
    _require(classes == len(rows), f"{classes} classes announced, {len(rows)} rows")
    _require(sum(int(r[0]) for r in rows) == order, "class sizes do not sum to the order")
    if spec.family is not None and not op.dw:
        _solomon(spec, [(int(r[0]), int(r[3])) for r in rows])


def _check_ring(op: Op, spec: SpecInput, output: str) -> None:
    data = json.loads(output)
    _require(data["theory"] == op.option("--theory", "cr"), "wrong theory in ring output")
    if op.dw:
        _require(all(Fraction(d) == 0 for d in data["degrees"]), "point-mode degree is nonzero")
    if op.option("--basis", "sector") != "sector":
        return
    order = len(data["basis"])
    _require(order == spec.order, f"{order} sectors, expected group order {spec.order}")
    if op.dw:
        _require(len(data["constants"]) == order * order, "point-mode ring is not the group ring")
    elif spec.family is not None and data["theory"] == "virt":
        # the virtual degree of x_g is 2 * (n - dim V^g)
        n = spec.data["dimension"]
        _solomon(spec, [(1, n - int(Fraction(d) / 2)) for d in data["degrees"]])


def _check_verify(output: str) -> None:
    checks = [(c["name"], c["status"]) for c in json.loads(output)["checks"]]
    _require([name for name, _ in checks] == list(VERIFY_CHECKS), f"unexpected checks {checks}")
    failed = [name for name, status in checks if status != "pass"]
    _require(not failed, f"verify checks failed: {failed}")


def _check_cotangent(spec: SpecInput, output: str) -> None:
    data = json.loads(output)
    n = spec.data["dimension"]
    expected = [
        (gen["perm"] + [n + q for q in gen["perm"]],
         [Fraction(p) % 1 for p in gen["phases"]] + [-Fraction(p) % 1 for p in gen["phases"]])
        for gen in spec.data["generators"]
    ]
    actual = [(gen["perm"], [Fraction(p) for p in gen["phases"]]) for gen in data["generators"]]
    _require(data["dimension"] == 2 * n, f"doubled dimension {data['dimension']}, expected {2 * n}")
    _require(data["name"] == spec.name + "-cotangent", f"doubled name {data['name']!r}")
    _require(actual == expected, "doubled generators are not the block doubles of the input")


def check_family(op: Op, spec: SpecInput, output: str) -> None:
    """Raise GateError unless the output passes the oracles that apply to it."""
    if op.command == "inspect":
        _check_inspect(op, spec, output)
    elif op.command == "ring":
        _check_ring(op, spec, output)
    elif op.command == "verify":
        _check_verify(output)
    else:
        _check_cotangent(spec, output)


def check_output(op: Op, spec: SpecInput, output: str, reference: dict, seed: int) -> None:
    """Raise GateError unless the output passes its oracles and matches the reference."""
    check_family(op, spec, output)
    expected = reference.get(op.ref_key)
    _require(expected is not None, f"no reference entry for {op.ref_key!r}")
    _require(invariants(op, output) == expected["invariants"], "isomorphism invariants differ")
    if seed == 0 or op.command == "verify":
        _require(digest(op, output) == expected["sha256"], "output digest differs from reference")
