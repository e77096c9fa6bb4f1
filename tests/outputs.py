"""Print one line per orbring output, so that two checkouts can be compared.

Usage: PYTHONPATH=src python tests/outputs.py > outputs.txt

Each line gives the spec, the arguments, the exit code and the sha256 of the
standard output with every "millis": <number> set to 0.  The outputs are
`verify --format json` and `ring --format json` for cr and virt on the
sector and class bases, each with and without --dw, on the 9 corpus specs
and on G(4,1,2), G(6,2,2), G(2,1,3), G(5,1,2), G(2,1,4) and G(5,1,3): 150
lines.  The G(m,p,n) specs come from perfbench's workloads.Family.  Every
command runs in this process, against the orbring that PYTHONPATH names.

To compare a change with its parent commit, run this script against the
parent's src from a worktree of it:

    git worktree add ../orbring-parent HEAD~1
    PYTHONPATH=../orbring-parent/src python tests/outputs.py > before.txt
    PYTHONPATH=src python tests/outputs.py > after.txt
    diff before.txt after.txt
    git worktree remove ../orbring-parent
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import Family  # noqa: E402

from orbring.cli import main  # noqa: E402

FAMILIES = ((4, 1, 2), (6, 2, 2), (2, 1, 3), (5, 1, 2), (2, 1, 4), (5, 1, 3))
COMMANDS = [["verify", "--format", "json"]] + [
    ["ring", "--theory", theory, "--basis", basis, "--format", "json"]
    for theory in ("cr", "virt")
    for basis in ("sector", "class")
]
MILLIS = re.compile(r'"millis": [-+0-9.eE]+')


def specs(workdir: Path) -> list[tuple[str, Path]]:
    """(name, path) of each corpus spec, then of each G(m,p,n) written under workdir."""
    found = [(path.stem, path) for path in sorted((ROOT / "corpus").glob("*.json"))]
    for m, p, n in FAMILIES:
        family = Family(m, p, n)
        path = workdir / f"g{m}{p}{n}.json"
        path.write_text(json.dumps(family.spec_dict()))
        found.append((family.name, path))
    return found


def line(name: str, path: Path, args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([args[0], str(path), *args[1:]])
    text = MILLIS.sub('"millis": 0', out.getvalue())
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{name} {' '.join(args)} exit {code} sha256 {digest}"


def run() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, path in specs(Path(workdir)):
            for dw in ([], ["--dw"]):
                for args in COMMANDS:
                    print(line(name, path, args + dw), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
