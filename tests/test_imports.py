"""Import footprint of the command-line entry point.

Every `orbring` command starts a fresh interpreter, so each module the
package imports is paid on every call.  The package defines its records as
slotted classes and annotates with builtin generics, so it needs none of the
modules below; under -S the site machinery does not load them either.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_IMPORTED = ("dataclasses", "inspect", "typing", "pathlib")


def test_cli_import_loads_no_dataclasses_inspect_typing_or_pathlib():
    script = (
        "import orbring.cli, sys; "
        f"print(' '.join(m for m in {NOT_IMPORTED!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
