"""Record the reference digests and invariants of every op's seed-0 output.

    python3 perfbench/record.py

Run from the root of a source checkout whose outputs are known to be right;
it rewrites reference.json, which every benchmark run then checks against.
An output is recorded only after it passes the family oracles.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gates
import worker
from workloads import WORKLOADS, seeded_inputs, write_specs


def record(workdir: Path) -> dict:
    sys.path.insert(0, str(worker.SRC))
    reference: dict = {}
    for workload in WORKLOADS:
        inputs, ops = seeded_inputs(workload, 0)
        paths = write_specs(inputs, workdir)
        specs = {spec.name: spec for spec in inputs}
        for op in ops:
            run = worker.in_subprocess if op.kind == "cli" else worker.in_process
            code, output = run(op, str(paths[op.spec]))
            if code != 0:
                raise SystemExit(f"{op.ref_key}: exit code {code}")
            gates.check_family(op, specs[op.spec], output)
            entry = {"sha256": gates.digest(op, output), "invariants": gates.invariants(op, output)}
            if reference.setdefault(op.ref_key, entry) != entry:
                raise SystemExit(f"{op.ref_key}: two runs of the same op disagree")
    return dict(sorted(reference.items()))


def main() -> int:
    work = Path(__file__).resolve().parent / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work))
    try:
        reference = record(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items())
    gates.REFERENCE_PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"recorded {len(reference)} outputs in {gates.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
