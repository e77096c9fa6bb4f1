"""One workload process: set up, run closed-loop passes, append one JSON record per event.

Started by run.py in a fresh interpreter, and killed by it when the run's
budget runs out; records are flushed as they happen so a killed run still
shows which ops finished. Usage:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR --records FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import gates
from workloads import ROOT, Op, SpecInput, seeded_inputs, write_specs

SRC = ROOT / "src"
CLI_TIMEOUT_S = 150
# After each op, calibration slices run for this share of the op's wall time.
CALIBRATION_SHARE = 0.15


class Recorder:
    def __init__(self, path: Path):
        self._file = open(path, "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def in_process(op: Op, path: str) -> tuple[int, str]:
    from orbring import cli

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op.argv(path))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()


def in_subprocess(op: Op, path: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "orbring.cli", *op.argv(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return done.returncode, done.stdout


def _slice() -> Fraction:
    """A fixed slice of pure-Python work, like orbring's but independent of it."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(600):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7, 1 + i % 5)
    return total


def calibrate(seconds: float) -> tuple[float, int]:
    """Run whole slices for about `seconds`; returns (time spent, slices run).

    The machine's speed drifts by tens of percent over minutes, so run.py
    scales pass times by the slice time measured across the same run. The
    collector is off so that heap the program left behind cannot slow a slice.
    """
    spent, slices = 0.0, 0
    gc.disable()
    try:
        while slices == 0 or spent < seconds:
            start = time.perf_counter()
            _slice()
            spent += time.perf_counter() - start
            slices += 1
    finally:
        gc.enable()
    return spent, slices


class Runner:
    """Runs passes over one workload's ops, checking every output."""

    def __init__(self, inputs: list[SpecInput], ops: list[Op], paths: dict, seed: int,
                 reference: dict, emit):
        self.specs = {spec.name: spec for spec in inputs}
        self.ops = ops
        self.paths = {name: str(path) for name, path in paths.items()}
        self.seed = seed
        self.reference = reference
        self.emit = emit

    def _execute(self, op: Op, traced) -> tuple[int, str]:
        path = self.paths[op.spec]
        if op.kind == "cli":
            with traced[0].span("op.cli") if traced else contextlib.nullcontext():
                return in_subprocess(op, path)
        if traced:
            import layers

            return 0, layers.replay(op, path, *traced)
        return in_process(op, path)

    def run_pass(self, number: int, traced=None) -> None:
        """One pass over the ops, each followed by its check and a calibration."""
        self.emit({"type": "pass", "pass": number})
        for index, op in enumerate(self.ops):
            if traced:
                traced[0].op = index
            error = None
            cpu0, wall0 = _cpu(), time.perf_counter()
            try:
                code, output = self._execute(op, traced)
            except Exception:  # an op that raises is a failed op, not a failed run
                code, output, error = -1, "", traceback.format_exc(limit=3)
            wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
            if traced:
                traced[1].settle()
            cal_s, cal_n = calibrate(CALIBRATION_SHARE * wall)
            if error is None and code != 0:
                error = f"exit code {code}"
            if error is None:
                try:
                    gates.check_output(op, self.specs[op.spec], output, self.reference, self.seed)
                except (gates.GateError, ValueError, KeyError, IndexError, TypeError) as exc:
                    error = f"gate: {exc!r}"
            self.emit({"type": "op", "pass": number, "index": index, "kind": op.kind,
                       "wall_s": wall, "cpu_s": cpu, "cal_s": cal_s, "cal_n": cal_n,
                       "rss_mib": _peak_rss_mib(), "ok": error is None, "error": error})


def set_up(workload: str, seed: int, workdir: Path):
    """Import orbring, generate and parse the specs; returns (seconds, inputs, ops, paths)."""
    start = time.perf_counter()
    import orbring.cli  # noqa: F401  (the ops' entry point, with its argparse import)
    from orbring.orbifold import OrbifoldSpec

    inputs, ops = seeded_inputs(workload, seed)
    paths = write_specs(inputs, workdir)
    for path in paths.values():
        OrbifoldSpec.load(path)
    return time.perf_counter() - start, inputs, ops, paths


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--records", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    recorder = Recorder(args.records)
    try:
        setup_s, inputs, ops, paths = set_up(args.workload, args.seed, args.workdir)
        recorder.emit({"type": "setup", "setup_s": setup_s})
        if args.setup_only:
            return 0
        runner = Runner(inputs, ops, paths, args.seed, gates.load_reference(), recorder.emit)
        if args.trace:
            run_traced(runner, recorder)
        else:
            start, passes = time.perf_counter(), 0
            while True:
                runner.run_pass(passes)
                passes += 1
                elapsed = time.perf_counter() - start
                # start another pass only if it should end within the run's seconds
                if elapsed + elapsed / passes > args.seconds:
                    break
        recorder.emit({"type": "end"})
    finally:
        recorder.close()
    return 0


def run_traced(runner: Runner, recorder: Recorder) -> None:
    """A warm-up pass, the same ops replayed layer by layer under spans, an untraced pass.

    The warm-up takes the first-pass costs, such as page faults on fresh heap,
    so that the traced and untraced passes compare like with like.
    """
    import layers
    from spans import Tracer

    runner.run_pass(0)
    tracer, work = Tracer(), layers.Work()
    runner.run_pass(1, traced=(tracer, work))
    runner.run_pass(2)
    recorder.emit({"type": "spans", "spans": [span.to_list() for span in tracer.spans]})
    recorder.emit({"type": "counters", "counters": work.counters()})


if __name__ == "__main__":
    sys.exit(main())
