"""Batched multi-session serving runs through the unified scheme registry.

The ROADMAP's heavy-traffic story: N independent protocol sessions per
scheme against one long-lived server key, with the fixed-base generator
tables (CEILIDH, ECDH) and the RSA key pair amortised across the batch.
One generic loop over the registry produces the cross-scheme serving
comparison — sessions/second, group operations and wire bytes per session —
and ``bench_perf_tracking`` reports every headline ``scheme x operation``
cell through the ``repro.perf`` emitter into the persistent
``BENCH_pkc.json``, gated against the committed baseline.
"""

from __future__ import annotations

import os
import pathlib
import random

# bench_path is aliased so pytest's python_functions = bench_* rule does not
# collect the imported library helper as a benchmark.
from repro.perf import (
    bench_path as perf_bench_path,
    compare,
    format_regressions,
    load_bench,
    record_from_batch,
)
from repro.pkc import get_scheme, measured_headline_projection
from repro.pkc.bench import BATCH_OPERATIONS, registry_batch_comparison, run_batch

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Schemes whose serving behaviour the comparison tracks.
BATCH_SCHEMES = ("ceilidh-170", "xtr-170", "ecdh-p160", "rsa-1024")

#: Throughput tolerance of the baseline gate (fraction below baseline).
BASELINE_TOLERANCE = 0.2

#: Non-default backends whose serving throughput gets its own BENCH rows.
EXTRA_BACKENDS = ("montgomery",)

#: Measured-vs-analytic agreement bound of the Table 3 projection check.
PROJECTION_TOLERANCE = 0.05


def _render(results, record_table, name: str, title: str) -> None:
    record_table(
        name,
        ["scheme", "sessions", "ms/session", "sessions/s", "group ops/session",
         "wire B/session"],
        [
            (
                r.scheme,
                r.sessions,
                round(r.ms_per_session, 2),
                round(r.sessions_per_second, 1),
                round(r.ops_per_session, 1),
                round(r.wire_bytes_per_session, 1),
            )
            for r in results
        ],
        title=title,
    )


def bench_batch_key_agreement(record_table, quick):
    """N key agreements per scheme (every scheme that implements the protocol)."""
    sessions = 2 if quick else 16
    results = registry_batch_comparison(
        BATCH_SCHEMES, "key-agreement", sessions, rng=random.Random(30)
    )
    _render(results, record_table, "batch_key_agreement",
            f"Batched key agreement ({sessions} sessions, amortized fixed-base tables)")
    # RSA advertises no key agreement; the other three all ran.
    assert sorted(r.scheme for r in results) == ["ceilidh-170", "ecdh-p160", "xtr-170"]
    assert all(r.sessions == sessions for r in results)


def bench_batch_encryption(record_table, quick):
    """N hybrid encrypt+decrypt sessions per scheme."""
    sessions = 2 if quick else 16
    results = registry_batch_comparison(
        BATCH_SCHEMES, "encryption", sessions, rng=random.Random(31)
    )
    _render(results, record_table, "batch_encryption",
            f"Batched hybrid encryption ({sessions} sessions)")
    assert sorted(r.scheme for r in results) == ["ceilidh-170", "ecdh-p160", "rsa-1024"]


def bench_batch_amortization(benchmark, quick):
    """Fixed-base amortisation: the second CEILIDH batch reuses the tables.

    The registry caches scheme instances, so the generator squaring chain is
    built during the warm-up batch and later batches pay only the
    multiplications — the steady-state serving cost the benchmark times.
    """
    sessions = 2 if quick else 8
    scheme = get_scheme("ceilidh-170")
    rng = random.Random(32)
    server = scheme.keygen(rng)
    run_batch(scheme, "key-agreement", 1, rng=rng, server=server)  # warm tables
    result = benchmark.pedantic(
        run_batch,
        args=(scheme, "key-agreement", sessions),
        kwargs={"rng": rng, "server": server},
        rounds=1,
        iterations=1,
    )
    # Client keygens ride the fixed-base table: zero squarings there, so the
    # per-session squaring count is bounded by the two online derivations.
    assert result.ops.squarings < result.ops.total
    assert result.sessions == sessions


def bench_untraced_fast_path(record_table, quick):
    """Tracing off vs on for the batched CEILIDH serving path.

    With ``collect_ops=False`` the engine takes its null-trace fast path
    (direct bound group methods, zero bookkeeping); the result element
    stream is identical, so the shared keys still agree — the batch itself
    asserts that per session.
    """
    sessions = 2 if quick else 16
    scheme = get_scheme("ceilidh-170")
    rng = random.Random(33)
    server = scheme.keygen(rng)
    run_batch(scheme, "key-agreement", 1, rng=rng, server=server)  # warm tables
    traced = run_batch(scheme, "key-agreement", sessions, rng=rng, server=server)
    untraced = run_batch(
        scheme, "key-agreement", sessions, rng=rng, server=server, collect_ops=False
    )
    record_table(
        "untraced_fast_path",
        ["mode", "sessions", "ms/session", "sessions/s", "group ops recorded"],
        [
            ("traced", traced.sessions, round(traced.ms_per_session, 2),
             round(traced.sessions_per_second, 1), traced.ops.total),
            ("untraced", untraced.sessions, round(untraced.ms_per_session, 2),
             round(untraced.sessions_per_second, 1), untraced.ops.total),
        ],
        title="ceilidh-170 key agreement: OpTrace bookkeeping on vs off",
    )
    assert traced.ops.total > 0
    assert untraced.ops.total == 0  # the fast path records nothing


def bench_perf_tracking(record_table, record_perf, platform, quick):
    """Every headline ``scheme x operation`` cell into BENCH_pkc.json.

    Runs each of the four Table 3 schemes through every protocol it
    supports, emits one PerfRecord per cell (merged into the repo-root
    ``BENCH_pkc.json`` at session end) and compares the fresh throughputs
    against the committed baseline.  The gate *fails* the benchmark on a
    >20% regression when ``REPRO_BENCH_ENFORCE`` is set (the CI smoke job
    sets it together with ``REPRO_BENCH_CALIBRATE`` to cancel machine-speed
    differences); otherwise regressions are only reported.
    """
    # Quick mode shrinks the batch, so noise per timed region grows: take
    # the best of three runs per cell (standard minimum-of-N timing) to
    # keep the enforced gate from flagging scheduler jitter as regression.
    sessions = 4 if quick else 16
    repeats = 3 if quick else 1
    rng = random.Random(34)
    current = {}
    rows = []
    for name in BATCH_SCHEMES:
        # The unsuffixed BENCH keys are the *plain* baseline by contract;
        # pin the backend so an env-steered run (REPRO_FIELD_BACKEND=...)
        # cannot time another substrate into them or trip the gate.
        scheme = get_scheme(name, backend="plain")
        for operation in sorted(BATCH_OPERATIONS):
            if BATCH_OPERATIONS[operation] not in scheme.capabilities:
                continue
            result = min(
                (run_batch(scheme, operation, sessions, rng=rng) for _ in range(repeats)),
                key=lambda r: r.wall_seconds,
            )
            record = record_from_batch(
                result, scheme=scheme, platform=platform, quick=quick, sessions=sessions
            )
            record_perf(record)
            current[record.key] = record
            rows.append(
                (
                    record.scheme,
                    record.operation,
                    record.sessions,
                    round(record.ops_per_second, 1),
                    round(record.ms_per_op, 2),
                    record.squarings + record.multiplications,
                    record.projected_cycles,
                )
            )
    record_table(
        "perf_tracking",
        ["scheme", "operation", "sessions", "ops/s", "ms/op", "group ops",
         "projected cycles"],
        rows,
        title="Perf tracking - headline scheme x operation cells (-> BENCH_pkc.json)",
    )
    # All four schemes produced at least one cell each.
    assert {record.scheme for record in current.values()} == set(BATCH_SCHEMES)

    baseline = load_bench(perf_bench_path(REPO_ROOT))
    regressions = compare(
        current,
        baseline,
        tolerance=BASELINE_TOLERANCE,
        calibrate=bool(os.environ.get("REPRO_BENCH_CALIBRATE")),
    )
    report = format_regressions(regressions, tolerance=BASELINE_TOLERANCE)
    if report:
        print(report)
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        assert not regressions, report


def bench_backend_throughput(record_table, record_perf, platform, quick):
    """Per-backend serving throughput rows for ``BENCH_pkc.json``.

    The plain backend's cells are the existing (unsuffixed) baseline keys;
    this benchmark adds one row per headline scheme and non-default backend
    under a ``scheme+backend`` key (e.g. ``ceilidh-170+montgomery:
    key-agreement``), so the resident-Montgomery serving cost is tracked
    over time without disturbing the plain baseline or its regression gate
    (the comparator skips keys absent from either side).
    """
    sessions = 2 if quick else 8
    rng = random.Random(35)
    rows = []
    emitted = []
    for name in BATCH_SCHEMES:
        for backend in EXTRA_BACKENDS:
            scheme = get_scheme(name, backend=backend)
            operation = next(
                (op for op in ("key-agreement", "encryption", "signature")
                 if BATCH_OPERATIONS[op] in scheme.capabilities),
                None,
            )
            if operation is None:  # pragma: no cover - every scheme has one
                continue
            result = run_batch(scheme, operation, sessions, rng=rng)
            record = record_from_batch(
                result, scheme=scheme, platform=platform, quick=quick,
                sessions=sessions, backend=backend,
            )
            record.scheme = f"{record.scheme}+{backend}"
            record_perf(record)
            emitted.append(record.key)
            rows.append(
                (
                    record.scheme,
                    record.operation,
                    record.sessions,
                    round(record.ops_per_second, 1),
                    round(record.ms_per_op, 2),
                )
            )
    record_table(
        "backend_throughput",
        ["scheme+backend", "operation", "sessions", "ops/s", "ms/op"],
        rows,
        title="Per-backend serving throughput (suffixed BENCH_pkc.json keys)",
    )
    # The suffixed keys never collide with the plain baseline cells.
    assert all("+" in key.split(":")[0] for key in emitted)
    assert len(emitted) == len(BATCH_SCHEMES) * len(EXTRA_BACKENDS)


def bench_batch_vectorized_throughput(record_table, record_perf, platform, quick):
    """Coalesced (vectorised) key-agreement throughput per scheme and backend.

    Each row is one ``scheme+backend:batch-ka`` BENCH key: ``sessions``
    sessions served through the batch entry points — ``keygen_many``, the
    clients' ``key_agreement_with_many`` against the one server public
    (shared fixed-base table) and the server's ``key_agreement_many``
    (batched inversions) — in one coalesced call.  The plain rows measure
    the vectorised path on the default substrate; RSA advertises no key
    agreement and is skipped.  New keys are invisible to the regression
    gate until a baseline holds them (the comparator skips keys absent from
    either side).
    """
    sessions = 2 if quick else 8
    rng = random.Random(36)
    rows = []
    emitted = []
    for name in BATCH_SCHEMES:
        for backend in ("plain",) + EXTRA_BACKENDS:
            scheme = get_scheme(name, backend=backend)
            if BATCH_OPERATIONS["key-agreement"] not in scheme.capabilities:
                continue
            result = run_batch(scheme, "key-agreement", sessions, rng=rng, coalesce=True)
            assert result.coalesced and result.batch_size == sessions
            record = record_from_batch(
                result, scheme=scheme, platform=platform, quick=quick,
                sessions=sessions, backend=backend,
            )
            record.scheme = f"{record.scheme}+{backend}"
            record.operation = "batch-ka"
            record_perf(record)
            emitted.append(record.key)
            rows.append(
                (
                    record.scheme,
                    record.sessions,
                    record.batch_size,
                    round(record.ops_per_second, 1),
                    round(record.ms_per_op, 2),
                )
            )
    record_table(
        "batch_vectorized_throughput",
        ["scheme+backend", "sessions", "batch", "ops/s", "ms/op"],
        rows,
        title="Vectorised key agreement (coalesced batch entry points, batch-ka keys)",
    )
    ka_schemes = [name for name in BATCH_SCHEMES if name != "rsa-1024"]
    assert all(key.endswith(":batch-ka") for key in emitted)
    assert len(emitted) == len(ka_schemes) * (1 + len(EXTRA_BACKENDS))


def bench_measured_vs_analytic_projection(record_table, platform, quick):
    """Table 3 projections from *measured* word-op streams vs the analytic
    composition — asserted to agree within 5% for every headline scheme.

    Quick mode swaps RSA-1024 for RSA-512 (the word-level FIOS execution of
    1534 x 64-word products is the one genuinely slow measurement); the full
    run covers the exact paper sizes.
    """
    names = list(BATCH_SCHEMES)
    if quick:
        names[names.index("rsa-1024")] = "rsa-512"
    rows = []
    for name in names:
        projection = measured_headline_projection(name, platform=platform)
        rows.append(
            (
                name,
                projection.bit_length,
                projection.analytic_cycles,
                projection.measured_cycles,
                f"{projection.relative_error:.4%}",
                projection.stream["modular_mults"],
                projection.stream["word_mults"],
            )
        )
        assert projection.relative_error <= PROJECTION_TOLERANCE, (
            f"{name}: measured {projection.measured_cycles} vs analytic "
            f"{projection.analytic_cycles} "
            f"({projection.relative_error:.2%} > {PROJECTION_TOLERANCE:.0%})"
        )
    record_table(
        "measured_vs_analytic",
        ["scheme", "bits", "analytic cycles", "measured cycles", "error",
         "modular mults", "word mults"],
        rows,
        title="Table 3 projection: measured word-op streams vs analytic composition",
    )
