import sys
from pathlib import Path

# Allow running the suite from a source checkout without an install.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import orbring  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))
