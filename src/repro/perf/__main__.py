"""Command-line access to the perf trajectory.

``python -m repro.perf show [path]``
    Render the entries of a ``BENCH_pkc.json`` as a table.

``python -m repro.perf compare CURRENT BASELINE [--tolerance 0.2] [--calibrate]``
    Exit non-zero when any shared ``scheme:operation`` cell regresses
    beyond the tolerance — the same gate the CI benchmark-smoke job runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.report import render_table
from repro.perf.baseline import compare, format_regressions
from repro.perf.emitter import DEFAULT_BENCH_FILENAME, load_bench


def _record_backend(record) -> str:
    """The substrate a record was measured on.

    Suffixed cells carry it in ``meta["backend"]``; older suffixed rows
    (``scheme+backend:operation``) fall back to parsing the key; unsuffixed
    cells are the plain baseline by contract.
    """
    backend = record.meta.get("backend")
    if backend:
        return str(backend)
    if "+" in record.scheme:
        return record.scheme.rsplit("+", 1)[1]
    return "plain"


def _show(path: str) -> int:
    entries = load_bench(path)
    if not entries:
        print(f"{path}: no entries")
        return 1
    rows = [
        (
            record.scheme,
            record.operation,
            _record_backend(record),
            record.meta.get("workers", "-"),
            record.sessions,
            round(record.ops_per_second, 2),
            round(record.ms_per_op, 3),
            record.squarings + record.multiplications,
            record.batch_size if record.batch_size is not None else "-",
            record.projected_cycles if record.projected_cycles is not None else "-",
            record.latency_ms.get("p50_ms", "-") if record.latency_ms else "-",
            record.latency_ms.get("p99_ms", "-") if record.latency_ms else "-",
        )
        for record in (entries[key] for key in sorted(entries))
    ]
    print(
        render_table(
            ["scheme", "operation", "backend", "workers", "sessions", "ops/s", "ms/op",
             "group ops", "batch", "projected cycles", "p50 ms", "p99 ms"],
            rows,
            title=f"Perf trajectory: {path}",
        )
    )
    _show_scaling_table(entries)
    _show_traffic_table(entries)
    _show_audit_summary(path)
    return 0


def _show_scaling_table(entries) -> None:
    """Render the cluster scaling-efficiency table when cluster rows exist.

    Groups ``serve-cluster:`` rows by their base cell (scheme + operation
    with the ``@w<N>`` suffix stripped) and shows throughput against worker
    count with the measured efficiency — alongside the core count the sweep
    ran on, without which the efficiency number is uninterpretable.
    """
    cluster = {
        key: record
        for key, record in entries.items()
        if record.scheme.startswith("serve-cluster:")
    }
    if not cluster:
        return
    rows = []
    cores = set()
    for key in sorted(cluster):
        record = cluster[key]
        operation, _, workers_tag = record.operation.rpartition("@w")
        efficiency = record.meta.get("scaling_efficiency")
        cores.add(record.meta.get("cpu_count"))
        rows.append(
            (
                record.scheme[len("serve-cluster:"):],
                operation or record.operation,
                record.meta.get("workers", workers_tag or "-"),
                round(record.ops_per_second, 2),
                f"{efficiency:.2f}" if isinstance(efficiency, (int, float)) else "-",
            )
        )
    cores_note = ", ".join(str(core) for core in sorted(cores, key=str))
    print(
        render_table(
            ["scheme", "operation", "workers", "sess/s", "efficiency"],
            rows,
            title=f"Cluster scaling (measured on {cores_note} core(s); "
                  f"efficiency = sess/s at N workers / N x single-worker)",
        )
    )


def _show_traffic_table(entries) -> None:
    """Render the traffic-mix digest when ``traffic:`` rows exist.

    One line per ``traffic:<mix>`` *summary* row (operation ``all``, or
    ``all@w<N>`` for cluster sweeps): steady-state tail latencies next to
    the behaviour counters — transparent rekeys, explicit quota/overload
    rejections — and the strict accounting identity the engine enforces
    (``submitted == responses + explicit errors``).
    """
    summaries = {
        key: record
        for key, record in entries.items()
        if record.scheme.startswith("traffic:")
        and record.operation.split("@w")[0] == "all"
    }
    if not summaries:
        return
    rows = []
    for key in sorted(summaries):
        record = summaries[key]
        latency = record.latency_ms or {}
        meta = record.meta
        rejected = (meta.get("rejected_quota", 0) or 0) + (
            meta.get("overload_rejections", 0) or 0
        )
        accounted = meta.get("submitted") == (
            (meta.get("responses") or 0) + (meta.get("explicit_errors") or 0)
        )
        rows.append(
            (
                record.scheme[len("traffic:"):],
                meta.get("workers", "-"),
                meta.get("clients", "-"),
                round(record.ops_per_second, 2),
                latency.get("p50_ms", "-"),
                latency.get("p99_ms", "-"),
                latency.get("p999_ms", "-"),
                meta.get("rekeys", "-"),
                rejected,
                "ok" if accounted else "MISMATCH",
            )
        )
    print(
        render_table(
            ["mix", "workers", "clients", "resp/s", "p50 ms", "p99 ms",
             "p999 ms", "rekeys", "rejected", "accounting"],
            rows,
            title="Traffic mixes (latencies are steady-state channel records; "
                  "rejected = explicit quota + overload answers)",
        )
    )


def _show_audit_summary(bench_path: str) -> None:
    """Append the static-analysis digest when a report sits next to the bench.

    The audit JSON report (``python -m repro.audit --json AUDIT_report.json``)
    leads with a ``summary`` block exactly so pipelines like this one can
    surface it without parsing findings.
    """
    report_path = os.path.join(
        os.path.dirname(os.path.abspath(bench_path)), "AUDIT_report.json"
    )
    if not os.path.exists(report_path):
        return
    try:
        with open(report_path, "r", encoding="utf-8") as handle:
            summary = json.load(handle).get("summary", {})
    except (OSError, ValueError):
        return
    print(
        f"audit: {summary.get('rules_run', '?')} rules over "
        f"{summary.get('modules_scanned', '?')} modules — "
        f"{summary.get('new', '?')} new, {summary.get('baselined', '?')} baselined, "
        f"{summary.get('suppressed', '?')} suppressed"
    )


def _compare(current: str, baseline: str, tolerance: float, calibrate: bool,
             skip_prefixes=None) -> int:
    regressions = compare(
        load_bench(current), load_bench(baseline), tolerance=tolerance,
        calibrate=calibrate, skip_prefixes=skip_prefixes,
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
    comparison.add_argument(
        "--skip-prefix",
        action="append",
        default=None,
        metavar="PREFIX",
        help="exclude keys starting with PREFIX (repeatable); e.g. serve: and "
             "serve-cluster: rows, which are gated on correctness, not throughput",
    )

    args = parser.parse_args(argv)
    if args.command == "show":
        return _show(args.path)
    return _compare(args.current, args.baseline, args.tolerance, args.calibrate,
                    skip_prefixes=args.skip_prefix)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
