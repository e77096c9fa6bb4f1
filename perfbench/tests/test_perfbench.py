"""Tests of the benchmark itself: generators, basis change, gates, budget and spans.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

import gates
import run
import worker
from spans import Span, self_times
from workloads import (
    RING_ARGS, Family, Op, SpecInput, seeded_inputs, workload_inputs, write_specs,
)

from orbring import OrbifoldSpec, run_full_verification


@pytest.mark.parametrize("family, order", [
    (Family(2, 1, 2), 8),
    (Family(3, 3, 2), 6),
    (Family(4, 2, 2), 16),
])
def test_generated_orders(family, order):
    assert family.order == order
    assert OrbifoldSpec.from_dict(family.spec_dict()).close().order == order


def test_fixed_dim_polynomial_of_g212():
    # degrees 2 and 4: (t + 1)(t + 3)
    assert Family(2, 1, 2).fixed_dim_polynomial() == [3, 4, 1]


@pytest.mark.parametrize("workload, name", [("gmpn", "G(4,1,2)"), ("corpus", "q8")])
def test_seeded_basis_change_keeps_order_and_verify(workload, name):
    base = {s.name: s for s in seeded_inputs(workload, 0)[0]}[name]
    changed = 0
    for seed in (1, 2, 3):
        spec = {s.name: s for s in seeded_inputs(workload, seed)[0]}[name]
        changed += spec.data != base.data
        parsed = OrbifoldSpec.from_dict(spec.data)
        assert parsed.close().order == base.order
        assert run_full_verification(parsed).all_passed
    assert changed  # a small spec can draw the identity change on some seeds


def test_seed_zero_leaves_specs_unchanged():
    inputs, _ = seeded_inputs("corpus", 0)
    assert [s.data for s in inputs] == [s.data for s in workload_inputs("corpus")[0]]


def _runner(tmp_path: Path, ops: list[Op], reference: dict, seed: int = 0):
    inputs, _ = seeded_inputs("corpus", seed)
    records: list[dict] = []
    runner = worker.Runner(inputs, ops, write_specs(inputs, tmp_path), seed, reference,
                           records.append)
    return runner, records


def test_wrong_digest_fails_only_its_op(tmp_path):
    ops = [Op("ring", "z3-12", args) for args in RING_ARGS[:2]]
    reference = gates.load_reference()
    tampered = dict(reference)
    key = ops[1].ref_key
    tampered[key] = {**reference[key], "sha256": "0" * 64}
    runner, records = _runner(tmp_path, ops, tampered)
    runner.run_pass(0)
    ok = [r["ok"] for r in records if r["type"] == "op"]
    assert ok == [True, False]
    assert "digest" in records[-1]["error"]


def test_other_seed_checks_invariants_not_digest(tmp_path):
    ops = [Op("inspect", "s4-perm"), Op("ring", "s4-perm", RING_ARGS[3])]
    runner, records = _runner(tmp_path, ops, gates.load_reference(), seed=7)
    runner.run_pass(0)
    assert all(r["ok"] for r in records if r["type"] == "op")


def test_solomon_gate_rejects_a_wrong_table():
    family = Family(2, 1, 2)
    spec = SpecInput(family.name, family.spec_dict(), 8, family)
    op = Op("inspect", family.name)
    good = (
        "spec: G(2,1,2)\ndimension: 2\ngroup order: 8\nconjugacy classes: 5\n"
        "class size order age fixed_dim sigma s\n"
        "[e] 1 1 0 2 0 0\n[g1] 2 2 1/2 1 2 1\n[g2] 1 2 1 0 4 2\n"
        "[g3] 2 2 1/2 1 2 1\n[g4] 2 4 1 0 4 2\n"
    )
    gates.check_family(op, spec, good)
    with pytest.raises(gates.GateError):
        gates.check_family(op, spec, good.replace("[g4] 2 4 1 0", "[g4] 2 4 1 1"))


def test_budget_kill_counts_unfinished_ops_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.0)
    args = argparse.Namespace(workload="gmpn", seed=0, seconds=30, trace=0)
    result = run.run(args, tmp_path)
    assert result["correct"] is False
    assert result["attempted"] == len(workload_inputs("gmpn")[1])
    assert result["failed"] > 0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("op.verify", 0.0, 10.0, None, 0),
        Span("monomial.closure", 1.0, 3.0, 0, 0),
        Span("rings.axioms", 4.0, 9.0, 0, 0),
        Span("sectors.pairs", 5.0, 6.0, 2, 0),
        Span("op.ring", 10.0, 12.0, None, 1),
        Span("monomial.closure", 10.5, 11.0, 4, 1),
    ]
    assert self_times(spans) == pytest.approx({
        "op.verify": 3.0,
        "monomial.closure": 2.5,
        "rings.axioms": 4.0,
        "sectors.pairs": 1.0,
        "op.ring": 1.5,
    })


def test_benchmark_json_names_every_metric():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
