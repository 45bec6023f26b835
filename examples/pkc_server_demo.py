"""Serving demo: one async PKC server, many concurrent clients, live stats.

Boots a :class:`repro.serve.server.ServeServer` in-process (thread pool,
bounded queue), then drives it with concurrent clients across three of the
paper's cryptosystems — CEILIDH key agreement, ECDH key agreement and
RSA-1024 hybrid decryption — the online version of the Table 3 comparison.
Each client performs the full client half locally (ephemeral keygen,
derivation, hybrid encryption) and checks the server's answers, so every
completed session is a verified protocol round trip.

Afterwards the server's scheduler statistics show the serving story: how
many requests merged into each same-scheme batch, and the batched
server-side throughput per scheme (requests per second of worker-pool busy
time) with per-request latency percentiles from the clients' side.

Run:  python examples/pkc_server_demo.py
"""

from __future__ import annotations

import asyncio

from repro.serve.server import ServeServer
from repro.traffic import one_shot_mix, run_traffic

#: One closed-loop mix per scheme, under its first Table 3 protocol.
MIXES = [
    one_shot_mix("ceilidh-170", "key-agreement"),
    one_shot_mix("ecdh-p160", "key-agreement"),
    one_shot_mix("rsa-1024", "encryption"),
]

CLIENTS = 6
SESSIONS_PER_CLIENT = 4


async def demo() -> None:
    server = ServeServer(max_batch=16, queue_size=128)
    host, port = await server.start()
    print(f"server listening on {host}:{port} "
          f"[{server.scheme_host.backend} backend, thread pool "
          f"x{server.scheduler.workers}]")
    print(f"driving {CLIENTS} concurrent clients x {SESSIONS_PER_CLIENT} "
          f"sessions per scheme\n")
    try:
        reports = [
            await run_traffic(host, port, mix, clients=CLIENTS,
                              sessions_per_client=SESSIONS_PER_CLIENT)
            for mix in MIXES
        ]
    finally:
        await server.stop()

    print(f"{'scheme':12} {'operation':14} {'sessions':>8} {'sess/s':>8} "
          f"{'p50 ms':>8} {'p99 ms':>8}")
    for report in reports:
        assert report.accounted, "every request must end as a response or error"
        for entry in report.entries.values():
            digest = entry.histogram.summary()
            print(f"{entry.scheme:12} {entry.kind:14} {entry.count:>8} "
                  f"{entry.rate(report.wall_seconds):>8.1f} "
                  f"{digest['p50_ms']:>8.2f} {digest['p99_ms']:>8.2f}")

    print("\nserver-side batching (same-scheme requests merged per executor call):")
    for (scheme_name, kind), group in sorted(server.scheduler.stats.groups.items()):
        print(f"  {scheme_name:12} {kind:14} {group.served:>4} requests in "
              f"{group.batches:>3} batches (largest {group.largest_batch}), "
              f"batched {group.served_per_second:.1f} req/s")
    stats = server.scheduler.stats
    print(f"\ntotals: {stats.served} served, {stats.rejected} overload-rejected, "
          f"{server.connections} connections, "
          f"{server.protocol_errors} protocol errors")


if __name__ == "__main__":
    asyncio.run(demo())
