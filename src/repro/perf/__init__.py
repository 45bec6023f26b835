"""The performance subsystem: records, machine-readable emitter, baseline gate.

The ROADMAP's serving story needs a measured trajectory, not one-off
``.txt`` tables: every benchmark run reports through this layer into a
single ``BENCH_pkc.json`` at the repo root — one entry per
``scheme x operation`` with throughput, wall-clock, group-operation counts
and projected SoC cycles — and the committed state of that file is the
baseline the next run is gated against.

Typical round trip::

    from repro import perf

    result = run_batch(scheme, "key-agreement", sessions)
    record = perf.record_from_batch(result, scheme=scheme, platform=platform)
    perf.update_bench(perf.bench_path(repo_root), [record])

    regressions = perf.compare(current, perf.load_bench(path), tolerance=0.2)

``python -m repro.perf show|compare`` exposes the same operations from the
command line.  The file's only writer is ``bench_perf_tracking`` in
``benchmarks/bench_pkc_batch.py``: each row is the median of repeated
offline runs, with the sample count and the throughput IQR in ``meta``.

:class:`~repro.perf.latency.LatencyHistogram` is the latency vocabulary of
the traffic engine (:mod:`repro.traffic`), whose per-request percentiles
``python -m repro.serve load`` prints; no online run writes a row.
"""

from repro.perf.baseline import Regression, compare, format_regressions
from repro.perf.latency import LatencyHistogram
from repro.perf.emitter import (
    DEFAULT_BENCH_FILENAME,
    bench_path,
    load_bench,
    update_bench,
    write_result,
)
from repro.perf.record import SCHEMA_VERSION, PerfRecord, record_from_batch

__all__ = [
    "SCHEMA_VERSION",
    "PerfRecord",
    "record_from_batch",
    "DEFAULT_BENCH_FILENAME",
    "bench_path",
    "load_bench",
    "update_bench",
    "write_result",
    "Regression",
    "compare",
    "format_regressions",
    "LatencyHistogram",
]
