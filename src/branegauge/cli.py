"""Command line front end.

    brane-gauge run <manifest> [--report <path>] [--max-degree N]

No option sets a truncation bound: sheaf cohomology is exact by local
duality, and the Atiyah class is certified by the Euler sequence.

Exit codes: 0 every task succeeded, 1 some task produced a mathematical
false or finding, 2 structural error (bad manifest, bad data, internal
rejection).  Output is byte-identical across runs on the same input.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BraneGaugeError
from .manifest import parse_manifest
from .reports import exit_code, render_report
from .tasks import run_tasks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brane-gauge",
        description="graded-module and derived-category verification tasks "
                    "over projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute the tasks of a manifest")
    run.add_argument("manifest", help="manifest file path")
    run.add_argument("--report", metavar="PATH",
                     help="also write the report to this file")
    run.add_argument("--max-degree", type=int, metavar="N", default=5,
                     help="half-width of graded degree windows in reports")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.manifest, "rb") as fh:
            text = fh.read()
    except OSError as e:
        print(f"brane-gauge: cannot read manifest: {e}", file=sys.stderr)
        return 2
    try:
        manifest = parse_manifest(text)
    except BraneGaugeError as e:
        print(f"brane-gauge: {e}", file=sys.stderr)
        return 2
    if args.max_degree < 0:
        print("brane-gauge: --max-degree must be at least 0", file=sys.stderr)
        return 2
    reports = run_tasks(manifest, max_degree=args.max_degree)
    text_out = render_report(args.manifest, manifest.n, reports)
    sys.stdout.write(text_out)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text_out)
        except OSError as e:
            print(f"brane-gauge: cannot write report: {e}", file=sys.stderr)
            return 2
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
