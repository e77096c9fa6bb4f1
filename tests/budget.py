"""Run one orbring command in this process and hold it to a peak-RSS budget.

Usage: PYTHONPATH=src python tests/budget.py <MiB> <orbring arguments...>

The command writes its output as usual.  One line on stderr gives its exit
code and the process's peak RSS.  The exit status is 1 if the command exits
nonzero or the peak exceeds <MiB>, else 0.  A wall-clock limit is the
caller's, for example through timeout(1).
"""

import resource
import sys

from orbring.cli import main


def run(argv: list[str]) -> int:
    budget = float(argv[0])
    code = main(argv[1:])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{' '.join(argv[1:])}: exit {code}, peak {peak:.1f} MiB", file=sys.stderr)
    return int(code != 0 or peak > budget)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
