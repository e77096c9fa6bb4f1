"""Command-line front end: inspect groups, print rings, double specs, verify.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap
exceeded or memory exhausted, 141 (128 + SIGPIPE) when the reader of standard
output closed it first.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cotangent import run_full_verification
from .errors import InputError, ResourceCapError
from .orbifold import OrbifoldSpec, cotangent_double
from .rings import CR, VIRT, OrbifoldModel

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


def _emit(text: str) -> None:
    """Write text to standard output, handing every byte to its byte layer.

    Under PYTHONUNBUFFERED=1 that layer is a raw file that may take only part
    of a write, and the text layer would drop the rest; writing it again makes
    a pipe closed mid-write raise BrokenPipeError.
    """
    stdout = sys.stdout
    if not hasattr(stdout, "buffer"):  # a text-only stream such as io.StringIO
        stdout.write(text)
        return
    stdout.flush()
    data = memoryview(text.encode(stdout.encoding, stdout.errors))
    while data:
        taken = stdout.buffer.write(data)
        data = data[taken:]


def _inspect_text(model: OrbifoldModel) -> str:
    part = model.table.conjugacy_classes()
    lines = [
        f"spec: {model.spec.name}",
        f"dimension: {model.geometry.n}",
        f"group order: {model.order}",
        f"conjugacy classes: {len(part)}",
    ]
    rows = [("class", "size", "order", "age", "fixed_dim", "sigma", "s")]
    for cls, rep in zip(part.classes, part.representatives):
        sector = model.sector(rep)
        rows.append(
            (
                f"[{model.label(rep)}]",
                str(len(cls)),
                str(model.table.element_order(rep)),
                str(sector.age),
                str(sector.fixed_dim),
                str(sector.virtual_shift),
                str(sector.cr_shift),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        lines.append("  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_inspect(args: argparse.Namespace) -> int:
    model = OrbifoldModel(OrbifoldSpec.load(args.spec), forget_geometry=args.dw)
    _emit(_inspect_text(model))
    return EXIT_OK


def cmd_ring(args: argparse.Namespace) -> int:
    model = OrbifoldModel(OrbifoldSpec.load(args.spec), forget_geometry=args.dw)
    algebra = model.algebra(args.theory)
    ring = algebra.invariant_ring() if args.basis == "class" else algebra
    _emit(ring.to_json() if args.format == "json" else ring.to_text())
    return EXIT_OK


def cmd_cotangent(args: argparse.Namespace) -> int:
    doubled = cotangent_double(OrbifoldSpec.load(args.spec))
    if args.output is None:
        _emit(doubled.to_json())
    else:
        doubled.save(args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_full_verification(OrbifoldSpec.load(args.spec), forget_geometry=args.dw)
    _emit(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on the first call.

    Built from constants and never changed afterwards: parse_args only reads
    it and returns a fresh namespace, so callers and threads can share it.
    """
    parser = argparse.ArgumentParser(
        prog="orbring",
        description="Exact stringy cohomology rings of linear quotient orbifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="group order, classes, per-class sector data")
    inspect.add_argument("spec", help="path to an orbifold spec (JSON)")
    inspect.add_argument("--dw", action="store_true", help="forget the geometry (point model)")
    inspect.set_defaults(func=cmd_inspect)

    ring = sub.add_parser("ring", help="print a structure-constant table")
    ring.add_argument("spec", help="path to an orbifold spec (JSON)")
    ring.add_argument("--theory", choices=[CR, VIRT], default=CR)
    ring.add_argument("--basis", choices=["sector", "class"], default="sector")
    ring.add_argument("--format", choices=["table", "json"], default="table")
    ring.add_argument("--dw", action="store_true", help="forget the geometry (point model)")
    ring.set_defaults(func=cmd_ring)

    cotangent = sub.add_parser("cotangent", help="write the cotangent-doubled spec")
    cotangent.add_argument("spec", help="path to an orbifold spec (JSON)")
    cotangent.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    cotangent.set_defaults(func=cmd_cotangent)

    verify = sub.add_parser("verify", help="run the full verification suite")
    verify.add_argument("spec", help="path to an orbifold spec (JSON)")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--dw", action="store_true", help="forget the geometry (point model)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes standard streams on exit; point stdout at devnull so
        # that the flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
