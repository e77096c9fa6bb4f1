"""Orbifold input descriptions: a dimension plus generating monomial maps.

The JSON schema here is the on-disk interchange format; the cotangent doubling
emits another description in the same schema, so doubled orbifolds round-trip
through files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

from .cyclotomic import RationalPhase
from .errors import InputError
from .monomial import DEFAULT_GROUP_ORDER_CAP, GroupTable, MonomialMap

__all__ = ["OrbifoldSpec", "cotangent_double"]

_SPEC_KEYS = {"name", "dimension", "generators", "max_group_order"}
_GENERATOR_KEYS = {"perm", "phases"}


@dataclass(frozen=True)
class OrbifoldSpec:
    """A linear quotient orbifold: C^dimension modulo the group the generators close to."""

    name: str
    dimension: int
    generators: tuple[MonomialMap, ...]
    max_group_order: int = DEFAULT_GROUP_ORDER_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if not isinstance(self.name, str) or not self.name:
            raise InputError(f"spec name must be a nonempty string, got {self.name!r}")
        if type(self.dimension) is not int or self.dimension < 0:
            raise InputError(f"dimension must be a nonnegative integer, got {self.dimension!r}")
        if type(self.max_group_order) is not int or self.max_group_order < 1:
            raise InputError(
                f"max_group_order must be a positive integer, got {self.max_group_order!r}"
            )
        for i, gen in enumerate(self.generators):
            if not isinstance(gen, MonomialMap):
                raise InputError(f"generator {i} is not a monomial map")
            if gen.dimension != self.dimension:
                raise InputError(
                    f"generator {i} has dimension {gen.dimension}, spec says {self.dimension}"
                )

    @classmethod
    def from_dict(cls, data: object) -> "OrbifoldSpec":
        if not isinstance(data, dict):
            raise InputError("spec must be a JSON object")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise InputError(f"unknown spec keys: {sorted(unknown)}")
        for key in ("name", "dimension", "generators"):
            if key not in data:
                raise InputError(f"spec is missing required key {key!r}")
        name = data["name"]
        dimension = data["dimension"]
        if not isinstance(name, str):
            raise InputError(f"spec name must be a string, got {name!r}")
        if type(dimension) is not int:
            raise InputError(f"dimension must be an integer, got {dimension!r}")
        raw_gens = data["generators"]
        if not isinstance(raw_gens, list):
            raise InputError("generators must be a list")
        generators = []
        for i, entry in enumerate(raw_gens):
            generators.append(_parse_generator(entry, i, dimension))
        kwargs = {}
        if "max_group_order" in data:
            kwargs["max_group_order"] = data["max_group_order"]
        return cls(name=name, dimension=dimension, generators=tuple(generators), **kwargs)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "OrbifoldSpec":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read spec file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        # ValueError covers JSONDecodeError and integers too long to convert
        except (ValueError, RecursionError) as exc:
            raise InputError(f"spec file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "generators": [
                {"perm": list(g.perm), "phases": [str(p) for p in g.phases]}
                for g in self.generators
            ],
            "max_group_order": self.max_group_order,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def save(self, path: Union[str, Path]) -> None:
        path = Path(path)
        try:
            path.write_text(self.to_json(), encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write spec file {path}: {exc}") from exc

    def close(self) -> GroupTable:
        return GroupTable.close(self.generators, self.dimension, cap=self.max_group_order)


def _parse_generator(entry: object, position: int, dimension: int) -> MonomialMap:
    where = f"generator {position}"
    if not isinstance(entry, dict):
        raise InputError(f"{where} must be an object with 'perm' and 'phases'")
    unknown = set(entry) - _GENERATOR_KEYS
    if unknown:
        raise InputError(f"{where} has unknown keys: {sorted(unknown)}")
    if "perm" not in entry or "phases" not in entry:
        raise InputError(f"{where} must provide both 'perm' and 'phases'")
    perm = entry["perm"]
    phases = entry["phases"]
    if not isinstance(perm, list) or any(type(v) is not int for v in perm):
        raise InputError(f"{where}: perm must be a list of integers")
    if not isinstance(phases, list):
        raise InputError(f"{where}: phases must be a list of strings")
    if len(perm) != dimension:
        raise InputError(f"{where}: perm has length {len(perm)}, expected {dimension}")
    if len(phases) != dimension:
        raise InputError(f"{where}: {len(phases)} phases given, expected {dimension}")
    try:
        parsed = tuple(RationalPhase.parse(p) for p in phases)
        return MonomialMap(tuple(perm), parsed)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def cotangent_double(spec: OrbifoldSpec) -> OrbifoldSpec:
    """The orbifold on C^n + conjugate(C^n) with each generator block-doubled."""
    return replace(
        spec,
        name=spec.name + "-cotangent",
        dimension=2 * spec.dimension,
        generators=tuple(g.double() for g in spec.generators),
    )
