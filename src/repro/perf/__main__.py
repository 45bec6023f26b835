"""Command-line access to the perf trajectory.

``python -m repro.perf show [path]``
    Render the entries of a ``BENCH_pkc.json`` as a table.

``python -m repro.perf compare CURRENT BASELINE [--tolerance 0.2] [--calibrate]``
    Exit non-zero when any shared ``scheme:operation`` cell regresses
    beyond the tolerance — the same gate the CI benchmark-smoke job runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import render_table
from repro.perf.baseline import compare, format_regressions
from repro.perf.emitter import DEFAULT_BENCH_FILENAME, load_bench


def _show(path: str) -> int:
    entries = load_bench(path)
    if not entries:
        print(f"{path}: no entries")
        return 1
    rows = [
        (
            record.scheme,
            record.operation,
            record.sessions,
            round(record.ops_per_second, 2),
            round(record.ms_per_op, 3),
            record.squarings + record.multiplications,
            record.batch_size if record.batch_size is not None else "-",
            record.projected_cycles if record.projected_cycles is not None else "-",
        )
        for record in (entries[key] for key in sorted(entries))
    ]
    print(
        render_table(
            ["scheme", "operation", "sessions", "ops/s", "ms/op", "group ops",
             "batch", "projected cycles"],
            rows,
            title=f"Perf trajectory: {path}",
        )
    )
    return 0


def _compare(current: str, baseline: str, tolerance: float, calibrate: bool) -> int:
    regressions = compare(
        load_bench(current), load_bench(baseline), tolerance=tolerance,
        calibrate=calibrate,
    )
    if regressions:
        print(format_regressions(regressions, tolerance=tolerance))
        return 1
    print(f"no throughput regressions beyond {tolerance:.0%} tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show", help="render a BENCH_*.json as a table")
    show.add_argument("path", nargs="?", default=DEFAULT_BENCH_FILENAME)

    comparison = commands.add_parser("compare", help="gate a run against a baseline")
    comparison.add_argument("current")
    comparison.add_argument("baseline")
    comparison.add_argument("--tolerance", type=float, default=0.2)
    comparison.add_argument(
        "--calibrate",
        action="store_true",
        help="scale the baseline by the median speed ratio (cross-machine runs)",
    )

    args = parser.parse_args(argv)
    if args.command == "show":
        return _show(args.path)
    return _compare(args.current, args.baseline, args.tolerance, args.calibrate)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
