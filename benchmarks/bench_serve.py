"""Online serving runs through ``repro.serve`` — the networked Table 3.

The offline harness (``bench_pkc_batch``) measures batched sessions in a
plain loop; this benchmark measures the same sessions *through the serving
stack*: framed loopback TCP, per-connection sessions, the bounded-queue
scheduler batching same-scheme requests into a worker pool.  One load run
per headline scheme yields round-trip throughput, client-side latency
percentiles and the server-side batching statistics; every cell is emitted
into ``BENCH_pkc.json`` under ``serve:`` keys (the offline plain-baseline
keys are never touched, and the regression comparator skips keys absent
from either side).
"""

from __future__ import annotations

import asyncio

from repro.perf import PerfRecord
from repro.serve.client import run_load
from repro.serve.server import ServeServer

#: The served mix: each headline scheme under its first Table 3 protocol.
SERVE_MIX = [
    ("ceilidh-170", "key-agreement"),
    ("ecdh-p160", "key-agreement"),
    ("rsa-1024", "encryption"),
    ("xtr-170", "key-agreement"),
]

CLIENTS = 8


async def _run(sessions_per_client: int):
    server = ServeServer(max_batch=16, queue_size=256)
    host, port = await server.start()
    try:
        report = await run_load(
            host, port, SERVE_MIX, clients=CLIENTS,
            sessions_per_client=sessions_per_client,
        )
    finally:
        await server.stop()
    return report, server


def bench_serve_load(record_table, record_perf, quick):
    """N concurrent clients per scheme against one in-process server."""
    sessions_per_client = 2 if quick else 8
    report, server = asyncio.run(_run(sessions_per_client))
    assert report.total_errors == 0
    assert server.protocol_errors == 0

    rows = []
    for entry in report.entries.values():
        digest = entry.histogram.summary()
        kind = "decrypt" if entry.operation == "encryption" else entry.operation
        group = server.scheduler.stats.group(entry.scheme, kind)
        rows.append(
            (
                entry.scheme,
                entry.operation,
                entry.sessions,
                round(entry.sessions_per_second, 1),
                round(group.served_per_second, 1),
                group.largest_batch,
                digest["p50_ms"],
                digest["p99_ms"],
            )
        )
        record = PerfRecord(
            scheme=f"serve:{entry.scheme}",
            operation=entry.operation,
            sessions=entry.sessions,
            wall_seconds=entry.wall_seconds,
            ops_per_second=entry.sessions_per_second,
            ms_per_op=(entry.wall_seconds * 1e3 / entry.sessions
                       if entry.sessions else 0.0),
            latency_ms=digest,
            meta={"clients": report.clients, "quick": quick,
                  "backend": server.scheme_host.backend},
        )
        record_perf(record)

    record_table(
        "serve_load",
        ["scheme", "operation", "sessions", "round-trip sess/s",
         "server batched req/s", "largest batch", "p50 ms", "p99 ms"],
        rows,
        title=(f"Online serving: {CLIENTS} concurrent clients per scheme "
               f"(framed TCP, batching scheduler)"),
    )
    # All four headline schemes completed every session.
    assert {entry.scheme for entry in report.entries.values()} == {
        name for name, _ in SERVE_MIX
    }
    assert all(entry.sessions == CLIENTS * sessions_per_client
               for entry in report.entries.values())
