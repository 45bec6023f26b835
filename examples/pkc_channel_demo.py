"""Channel demo: handshake once, then many cheap authenticated records.

Walks the stateful session layer end to end against an in-process
:class:`repro.serve.server.ServeServer`:

1. **Open a channel** on CEILIDH-170 — one key agreement, after which both
   sides hold directional keystream/tag keys derived through the serving
   KDF — and on RSA-1024, which has no key agreement and bootstraps
   KEM-style (the client encrypts a fresh seed to the server's key), so
   the same opcode covers the whole registry.
2. **Stream authenticated records.**  Every record binds a monotonic
   sequence number and the channel epoch into its tag; the client rekeys
   transparently after a small budget, invisible except as a counter.
3. **Drive a seeded traffic mix** (`zipf-bursty`) and print the latency
   split the subsystem exists for: a handshake (one public-key operation)
   against a steady-state record (symmetric crypto only).

Run:  python examples/pkc_channel_demo.py
"""

from __future__ import annotations

import asyncio
import random

from repro.serve.client import ChannelSession, ServeClient
from repro.serve.server import ServeServer
from repro.traffic import get_mix, run_traffic

MESSAGES = 24
REKEY_AFTER = 8  # force transparent rekeys well inside the demo's stream


async def channel_walkthrough(host: str, port: int, scheme: str) -> None:
    client = ServeClient(host, port)
    await client.connect()
    try:
        await client.negotiate(scheme)
        session = ChannelSession(
            client, rng=random.Random(0xC0FFEE),
            rekey_after_messages=REKEY_AFTER,
        )
        handshake_s = await session.open()
        print(f"  {scheme}: channel open in {handshake_s * 1e3:.2f} ms "
              f"(id {session.channel_id.hex()})")
        total_s = 0.0
        for index in range(MESSAGES):
            total_s += await session.send(f"record {index}".encode())
        await session.close()
        print(f"  {scheme}: {MESSAGES} authenticated records, "
              f"mean {total_s / MESSAGES * 1e3:.2f} ms each, "
              f"{session.rekeys} transparent rekey(s)")
        assert session.rekeys >= 1, "the demo budget must force a rekey"
    finally:
        await client.close()


async def demo() -> None:
    server = ServeServer(max_batch=16, queue_size=128)
    host, port = await server.start()
    print(f"server listening on {host}:{port} "
          f"[{server.scheme_host.backend} backend]\n")
    try:
        print("channel walkthrough (handshake once, stream records):")
        await channel_walkthrough(host, port, "ceilidh-170")
        await channel_walkthrough(host, port, "rsa-1024")

        mix = get_mix("zipf-bursty")
        print(f"\ntraffic mix '{mix.name}': Zipf popularity over "
              f"{', '.join(mix.schemes)}, bursty arrivals, "
              f"{mix.channel_weight:.0%} channel sessions")
        report = await run_traffic(host, port, mix, clients=4,
                                   sessions_per_client=6, seed=1)
        assert report.accounted, "submitted must equal responses + explicit errors"
        print(f"  {report.submitted} requests in {report.wall_seconds:.2f}s: "
              f"{report.responses} responses, {report.explicit_errors} explicit "
              f"errors, {report.channels_opened} channels, "
              f"{report.channel_messages} records, {report.rekeys} rekeys")
        handshake = report.handshake_histogram()
        steady = report.steady_state_histogram()
        print(f"  handshake p50 {handshake.percentile(0.5) * 1e3:.2f} ms vs "
              f"steady-state record p50 {steady.percentile(0.5) * 1e3:.2f} ms")
    finally:
        await server.stop()

    table = server.channels.stats
    print(f"\nchannel table: {table.opened} opened, {table.messages} records, "
          f"{table.rekeys} rekeys, {table.rejected_quota} quota refusals, "
          f"{server.protocol_errors} protocol errors")


if __name__ == "__main__":
    asyncio.run(demo())
