"""Lehn-Sorger on S_7 (order 5040) through the class ring, held to a peak-RSS budget.

Usage: PYTHONPATH=src python tests/lehn_sorger_s7.py

Builds the virtual class ring of C^7/S_7 and the Chen-Ruan class ring of its
cotangent double, and asserts that each equals the closed form of
tests/test_literature.py.  Prints the order and the process's peak RSS; the
exit status is 1 if the peak exceeds 128 MiB, else 0 (a failed assertion
exits 1 too).  About 4-9 s and 58 MiB, most of it the 877 x 877 pair table.
A wall-clock limit is the caller's, for example through timeout(1).
"""

import resource
import sys

from orbring import CR, VIRT, OrbifoldModel
from test_literature import keyed_by_cycle_type, lehn_sorger, symmetric_spec

BUDGET_MIB = 128


def run() -> int:
    model = OrbifoldModel(symmetric_spec(7))
    expected = lehn_sorger(7)
    assert keyed_by_cycle_type(model, model.class_ring(VIRT), 7) == expected
    doubled = model.cotangent_model()
    assert keyed_by_cycle_type(doubled, doubled.class_ring(CR), 7) == expected
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"order {model.order}, peak {peak:.1f} MiB")
    return int(peak > BUDGET_MIB)


if __name__ == "__main__":
    sys.exit(run())
