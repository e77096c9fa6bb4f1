"""Traced replay of CLI ops through the public functions of each orbring module.

Each replay does the work the CLI command does, on a fresh model as the CLI
builds one, but calls the layers one at a time so that each layer's caches
fill inside that layer's own span:

- orbifold: spec parsing (and the doubling of the `cotangent` command);
- monomial: group closure, the doubled closure, conjugacy classes;
- sectors: per-element data, traces, pair fixed dimensions;
- rings: structure-constant tables, invariant rings, the axiom verifier;
- cotangent: the doubling checks of `verify`;
- cli: argument parsing, JSON and text rendering.

The output must equal the CLI's output byte for byte (up to `millis`), which
the same gates check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from orbring import cli
from orbring.cotangent import (
    CheckResult,
    VerificationReport,
    age_duality_check,
    algebra_axioms_check,
    closure_sanity_check,
    decomposition_check,
    grading_check,
    main_theorem_check,
    rank_oracle_check,
    sector_bijection,
)
from orbring.orbifold import OrbifoldSpec, cotangent_double
from orbring.rings import CR, VIRT, OrbifoldModel

from spans import Tracer
from workloads import Op


@dataclass
class Work:
    """Exact counts of what the replayed ops touched.

    The replay only notes the models it used in `pending`; `settle` counts
    from them after the op's timed span and lets them go, so the traced pass
    keeps no more objects alive than the untraced one.
    """

    pending: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)
    subgroups_of: dict = field(default_factory=dict)
    nonzero: dict = field(default_factory=dict)
    counts: dict = field(default_factory=lambda: dict.fromkeys(
        ("sectors.pairs", "sectors.subgroups", "rings.nonzero_cr", "rings.nonzero_virt",
         "rings.constants_base"), 0))

    def settle(self) -> None:
        for kind, key, value in self.pending:
            if kind == "table":
                self.orders[key] = (value.order, len(value.conjugacy_classes()))
            elif kind == "pairs":
                if key not in self.subgroups_of:
                    self.subgroups_of[key] = len({
                        value.subgroup_closure((g, h))
                        for g in range(value.order)
                        for h in range(g, value.order)
                    })
                self.counts["sectors.pairs"] += value.order * (value.order + 1) // 2
                self.counts["sectors.subgroups"] += self.subgroups_of[key]
            else:
                self.nonzero.setdefault(key, {})[kind] = (
                    sum(1 for row in value.constants for c in row if c), value.order**2
                )
        self.pending.clear()

    def counters(self) -> dict[str, float]:
        from orbring.monomial import GroupTable

        counts = dict(self.counts)
        for per_theory in self.nonzero.values():
            for theory, (nonzero, _) in per_theory.items():
                counts[f"rings.nonzero_{theory}"] += nonzero
            counts["rings.constants_base"] += next(iter(per_theory.values()))[1]
        pairs = counts["sectors.pairs"]
        orders = [order for order, _ in self.orders.values()]
        return {
            "monomial.order": sum(orders),
            "monomial.classes": sum(classes for _, classes in self.orders.values()),
            "monomial.lazy_tables": sum(1 for o in orders if o > GroupTable.EAGER_TABLE_LIMIT),
            **counts,
            "sectors.subgroup_share": counts["sectors.subgroups"] / pairs if pairs else 0.0,
        }


def _sectors(model: OrbifoldModel) -> None:
    for i in range(model.order):
        model.sector(i)


def _traces(model: OrbifoldModel) -> None:
    for i in range(model.order):
        model.geometry.trace(i)


def _pairs(model: OrbifoldModel, key: tuple, work: Work) -> None:
    order = model.order
    for g in range(order):
        for h in range(g, order):
            model.fixed_dim_pair(g, h)
    work.pending.append(("pairs", key, model.table))


def _model(tr: Tracer, path: str, dw: bool, work: Work) -> OrbifoldModel:
    with tr.span("orbifold.parse"):
        spec = OrbifoldSpec.load(path)
    with tr.span("monomial.closure"):
        model = OrbifoldModel(spec, forget_geometry=dw)
    work.pending.append(("table", spec.name, model.table))
    return model


def _inspect(op: Op, path: str, tr: Tracer, work: Work) -> str:
    model = _model(tr, path, op.dw, work)
    with tr.span("monomial.classes"):
        part = model.table.conjugacy_classes()
    with tr.span("sectors.element"):
        for rep in part.representatives:
            model.sector(rep)
    with tr.span("cli.render"):
        # the CLI has no public renderer for the inspect table
        return cli._inspect_text(model)


def _ring(op: Op, path: str, tr: Tracer, work: Work) -> str:
    theory, by_class = op.option("--theory", CR), op.option("--basis", "sector") == "class"
    model = _model(tr, path, op.dw, work)
    if by_class:
        with tr.span("monomial.classes"):
            model.table.conjugacy_classes()
    with tr.span("sectors.element"):
        _sectors(model)
    if not op.dw:
        with tr.span("sectors.traces"):
            _traces(model)
        with tr.span("sectors.pairs"):
            _pairs(model, (op.spec, False), work)
    with tr.span("rings.constants"):
        ring = model.algebra(theory)
    work.pending.append((theory, (op.spec, op.dw), ring))
    if by_class:
        with tr.span("rings.invariant"):
            ring = ring.invariant_ring()
    with tr.span("cli.render"):
        return json.dumps(ring.to_json_dict(), indent=2) + "\n"


def _cotangent(op: Op, path: str, tr: Tracer, work: Work) -> str:
    with tr.span("orbifold.parse"):
        doubled = cotangent_double(OrbifoldSpec.load(path))
    with tr.span("cli.render"):
        return doubled.to_json()


def _check(tr: Tracer, layer: str, name: str, fn) -> CheckResult:
    with tr.span(layer):
        start = time.perf_counter()
        counterexample = fn()
        millis = (time.perf_counter() - start) * 1000.0
    return CheckResult(name, counterexample is None, counterexample, millis)


def _verify(op: Op, path: str, tr: Tracer, work: Work) -> str:
    model = _model(tr, path, op.dw, work)
    with tr.span("monomial.closure_doubled"):
        doubled = model.cotangent_model()
    with tr.span("cotangent.other"):
        bijection = sector_bijection(model.table, doubled.table)
    with tr.span("monomial.classes"):
        model.table.conjugacy_classes()
        doubled.table.conjugacy_classes()
    with tr.span("sectors.element"):
        _sectors(model)
        _sectors(doubled)
    if not op.dw:
        with tr.span("sectors.traces"):
            _traces(model)
            _traces(doubled)
        with tr.span("sectors.pairs"):
            _pairs(model, (op.spec, False), work)
        with tr.span("sectors.pairs_doubled"):
            _pairs(doubled, (op.spec, True), work)
    with tr.span("rings.constants"):
        algebras = {theory: model.algebra(theory) for theory in (CR, VIRT)}
        doubled.algebra(CR)
    work.pending.extend((theory, (op.spec, op.dw), alg) for theory, alg in algebras.items())
    checks = (
        _check(tr, "cotangent.other", "closure-sanity", lambda: closure_sanity_check(model)),
        _check(tr, "cotangent.other", "age-duality", lambda: age_duality_check(model)),
        _check(tr, "cotangent.rank_oracles", "rank-oracles", lambda: rank_oracle_check(model)),
        _check(tr, "rings.axioms", "algebra-axioms-cr", lambda: algebra_axioms_check(model, CR)),
        _check(tr, "rings.axioms", "algebra-axioms-virt", lambda: algebra_axioms_check(model, VIRT)),
        _check(tr, "cotangent.other", "grading-lemma",
               lambda: grading_check(model, doubled, bijection)),
        _check(tr, "cotangent.decomposition", "bundle-decomposition",
               lambda: decomposition_check(model, doubled, bijection)),
        _check(tr, "cotangent.main_theorem", "main-theorem",
               lambda: main_theorem_check(model, doubled, bijection)),
    )
    report = VerificationReport(spec_name=model.spec.name, checks=checks)
    with tr.span("cli.render"):
        return report.to_json()


REPLAYS = {"inspect": _inspect, "ring": _ring, "cotangent": _cotangent, "verify": _verify}


def replay(op: Op, path: str, tr: Tracer, work: Work) -> str:
    """Run one in-process op layer by layer inside an `op.<kind>` span."""
    with tr.span(f"op.{op.kind}"):
        with tr.span("cli.parse"):
            # the CLI builds its argument parser on every call, through a private function
            cli._build_parser().parse_args(op.argv(path))
        return REPLAYS[op.kind](op, path, tr, work)
