"""Shared fixtures for the benchmark harness.

Every benchmark hands its table to :func:`record_table` as structured rows;
the ``repro.perf`` emitter is the single writer behind it, rendering each
table twice — the historical aligned-ASCII ``benchmarks/results/<name>.txt``
and JSON rows in ``<name>.json`` beside it (one writer, two renderers, so
the formats cannot drift).  Scheme-level throughput measurements are
additionally collected through :func:`record_perf` and merged into the
persistent ``BENCH_pkc.json`` at the repo root when the session ends.

``--quick`` puts the harness into smoke mode: benchmarks consult the
``quick`` fixture to shrink expensive parameters (fewer batch sessions,
profile projections without the full protocol legs) so CI can execute every
``bench_*.py`` end to end — combined with pytest-benchmark's
``--benchmark-disable`` this keeps the figure/table scripts from silently
rotting without paying for real timing runs.
"""

from __future__ import annotations

import pathlib
from typing import List

import pytest

from repro.perf import PerfRecord, bench_path, update_bench, write_result
from repro.soc.system import Platform

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

_PERF_RECORDS: List[PerfRecord] = []


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="smoke mode: run every benchmark with minimal workloads",
    )


@pytest.fixture(scope="session")
def quick(request):
    """True when the harness runs in ``--quick`` smoke mode."""
    return request.config.getoption("--quick", default=False)


@pytest.fixture(scope="session")
def platform():
    """One shared simulated platform (engines are cached inside)."""
    return Platform()


@pytest.fixture(scope="session")
def record_table():
    """Write a table (txt + json, one writer) to the results directory and echo it."""

    def _record(name: str, headers, rows, title: str = "") -> None:
        text = write_result(RESULTS_DIR, name, headers, rows, title=title)
        print()
        print(text)

    return _record


@pytest.fixture(scope="session")
def record_perf():
    """Queue a :class:`PerfRecord` for the end-of-session BENCH_pkc.json merge."""

    def _record(record: PerfRecord) -> None:
        _PERF_RECORDS.append(record)

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Merge every queued record into the repo-root trajectory file.

    Two guards protect the committed baseline:

    * a failed run (including one the regression gate itself failed) never
      overwrites the file — otherwise the gate would erase its own
      reference and pass on the next run;
    * a ``--quick`` run (tiny, noisy workloads, best of 3 with no spread)
      never writes it; its numbers are in ``results/perf_tracking.json``.
    """
    if not _PERF_RECORDS:
        return
    records, _PERF_RECORDS[:] = list(_PERF_RECORDS), []
    if exitstatus != 0:
        print("\nperf trajectory NOT updated (run failed)")
        return
    if session.config.getoption("--quick", default=False):
        print("\nperf trajectory NOT updated (--quick)")
        return
    path = bench_path(REPO_ROOT)
    update_bench(path, records)
    print(f"\nperf trajectory updated: {path} ({len(records)} records)")
