"""Layered orbring benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. The workload runs in a fresh worker
process (worker.py), a closed loop with one client: each op starts when the
previous one has finished. The worker is killed when the run's budget runs
out, and every op it did not finish counts as failed. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Span, self_times
from workloads import CORPUS_DIR, ROOT, WORKLOADS, workload_inputs

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK_DIR = HERE / ".work"

# The whole run must end within 180 s; the worker gets what the set-up probes leave.
RUN_LIMIT_S = 165.0
SETUP_PROBES = 8

# Pass times are reported at the speed where one calibration slice takes this long.
REFERENCE_SLICE_S = 0.002

END_TO_END = {"pass_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYERS = (
    "orbifold.parse",
    "monomial.closure",
    "monomial.closure_doubled",
    "monomial.classes",
    "sectors.element",
    "sectors.traces",
    "sectors.pairs",
    "sectors.pairs_doubled",
    "rings.constants",
    "rings.invariant",
    "rings.axioms",
    "cotangent.rank_oracles",
    "cotangent.decomposition",
    "cotangent.main_theorem",
    "cotangent.other",
    "cli.parse",
    "cli.render",
)
OP_KINDS = ("verify", "ring", "inspect", "cotangent", "cli")
COUNTERS = {
    "monomial.order": "count",
    "monomial.classes": "count",
    "monomial.lazy_tables": "count",
    "sectors.pairs": "count",
    "sectors.subgroups": "count",
    "sectors.subgroup_share": "ratio",
    "rings.nonzero_cr": "count",
    "rings.nonzero_virt": "count",
    "rings.constants_base": "count",
}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    **{f"op.{kind}_s": "s" for kind in OP_KINDS},
    **COUNTERS,
    "trace.overhead_s": "s",
}


def _read_records(path: Path) -> list[dict]:
    records = []
    if not path.exists():
        return records
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # the last line of a killed worker may be cut short
            break
    return records


def _worker(args: argparse.Namespace, workdir: Path, records: Path, timeout: float,
            setup_only: bool = False) -> bool:
    """Run the worker in its own process group; kill the group at the timeout."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--records", str(records)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, process_group=0)
    try:
        return proc.wait(timeout=max(timeout, 1.0)) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def _passes(records: list[dict]) -> dict[int, list[dict]]:
    by_pass: dict[int, list[dict]] = {r["pass"]: [] for r in records if r["type"] == "pass"}
    for r in records:
        if r["type"] == "op":
            by_pass[r["pass"]].append(r)
    return by_pass


def _typical_pass(passes: list[list[dict]], key: str) -> float:
    """Sum over the ops of each op's median across passes.

    Speed drifts within a pass, so a per-op median discards the slow stretches
    of each pass better than a median of pass totals does.
    """
    return sum(statistics.median(ops[i][key] for ops in passes) for i in range(len(passes[0])))


def _end_to_end(records: list[dict], setups: list[float], ops_per_pass: int,
                budget: float) -> dict[str, float]:
    passes = _passes(records)
    complete = [ops for ops in passes.values() if len(ops) == ops_per_pass]
    # peak RSS after the first pass, so that it does not depend on how many passes fit
    rss = max((r["rss_mib"] for r in passes.get(0, [])), default=0.0)
    if not complete:
        # the budget is a lower bound on the pass time
        return {"pass_ref_s": budget, "cpu_ref_s": budget, "setup_s": statistics.median(setups),
                "peak_rss_mib": rss}
    slice_s = sum(r["cal_s"] for ops in complete for r in ops) / sum(
        r["cal_n"] for ops in complete for r in ops)
    scale = REFERENCE_SLICE_S / slice_s
    return {
        "pass_ref_s": _typical_pass(complete, "wall_s") * scale,
        "cpu_ref_s": _typical_pass(complete, "cpu_s") * scale,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
    }


def _per_layer(records: list[dict]) -> dict[str, float]:
    passes = _passes(records)
    traced, untraced = passes.get(1, []), passes.get(2, [])
    spans = [Span(*s) for r in records if r["type"] == "spans" for s in r["spans"]]
    layer_self = self_times(spans)
    metrics = {f"{layer}_s": layer_self.get(layer, 0.0) for layer in LAYERS}
    for kind in OP_KINDS:
        metrics[f"op.{kind}_s"] = sum(r["wall_s"] for r in untraced if r["kind"] == kind)
    counters = next((r["counters"] for r in records if r["type"] == "counters"), {})
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    metrics["trace.overhead_s"] = (
        sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in untraced)
    )
    return metrics


def run(args: argparse.Namespace, workdir: Path) -> dict:
    start = time.perf_counter()
    ops_per_pass = len(workload_inputs(args.workload)[1])
    setups = []
    probes = 0 if args.trace else SETUP_PROBES
    for k in range(probes):
        probe_records = workdir / f"setup-{k}.jsonl"
        _worker(args, workdir, probe_records, timeout=30.0, setup_only=True)
        setups += [r["setup_s"] for r in _read_records(probe_records) if r["type"] == "setup"]
    records_path = workdir / "records.jsonl"
    budget = RUN_LIMIT_S - (time.perf_counter() - start)
    finished = _worker(args, workdir, records_path, timeout=budget)
    records = _read_records(records_path)
    setups += [r["setup_s"] for r in records if r["type"] == "setup"]

    started = len(_passes(records)) or 1
    attempted = started * ops_per_pass
    done = [r for r in records if r["type"] == "op"]
    failed = attempted - sum(1 for r in done if r["ok"])
    for r in done:
        if not r["ok"]:
            print(f"op {r['pass']}/{r['index']} ({r['kind']}) failed: {r['error']}", file=sys.stderr)
    if not finished:
        print(f"worker did not finish within {budget:.0f} s", file=sys.stderr)

    if args.trace:
        metrics, units = _per_layer(records), PER_LAYER
        complete = any(r["type"] == "counters" for r in records)
    else:
        metrics = _end_to_end(records, setups or [budget], ops_per_pass, budget)
        units = END_TO_END
        complete = any(r["type"] == "end" for r in records) and len(setups) == probes + 1
    return {
        "correct": failed == 0 and finished and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbring" / "__init__.py").is_file() or not CORPUS_DIR.is_dir():
        print(f"error: {ROOT} is not an orbring source checkout (src/orbring, corpus)",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
