"""Cluster demo: shared-port worker processes, a crash, a rolling restart.

Boots a :class:`repro.serve.cluster.ClusterSupervisor` with two worker
processes sharing one listen port through ``SO_REUSEPORT``, then drives it
with concurrent clients while exercising the lifecycle story:

1. a load run against the healthy cluster,
2. a load run during which one worker is **killed** mid-flight — the
   supervisor restarts it with backoff and the clients' retry/reconnect
   layer hides the gap (zero client-visible errors),
3. a load run during a **rolling restart** — workers recycle one at a
   time, the port keeps serving, and every worker PID changes.

All three runs must complete every session with zero errors; the final
table shows sessions/s and latency percentiles per phase.

Run:  python examples/pkc_cluster_demo.py
"""

from __future__ import annotations

import asyncio

from repro.serve.cluster import ClusterSupervisor
from repro.traffic import ArrivalModel, TrafficMix, run_traffic

#: Two schemes, key agreement only, no channels, back to back (closed loop).
MIX = TrafficMix(
    name="cluster-demo",
    schemes=("ceilidh-toy32", "ecdh-p160"),
    zipf_exponent=0.0,
    channel_weight=0.0,
    oneshot_weights={"key-agreement": 1.0},
    arrivals=ArrivalModel(mean_burst=1.0, mean_gap_seconds=0.0),
)

WORKERS = 2
CLIENTS = 4
SESSIONS_PER_CLIENT = 12


async def demo() -> None:
    cluster = ClusterSupervisor(workers=WORKERS, schemes=MIX.schemes)
    host, port = await cluster.start()
    print(f"cluster listening on {host}:{port} "
          f"[{WORKERS} workers, "
          f"pids {cluster.worker_pids()}]")

    results = {}
    try:
        results["steady state"] = await run_traffic(
            host, port, MIX, clients=CLIENTS,
            sessions_per_client=SESSIONS_PER_CLIENT,
        )

        load = asyncio.ensure_future(run_traffic(
            host, port, MIX, clients=CLIENTS,
            sessions_per_client=SESSIONS_PER_CLIENT,
        ))
        await asyncio.sleep(0.2)
        victim = cluster.worker_pids()[0]
        print(f"\nkilling worker pid {victim} mid-load ...")
        await cluster.kill_worker(0)
        results["worker crash"] = await load
        while not (cluster.total_restarts >= 1
                   and cluster.worker_phases() == ["running"] * WORKERS):
            await asyncio.sleep(0.05)
        print(f"supervisor restarted it: pids now {cluster.worker_pids()}, "
              f"{cluster.total_restarts} restart(s)")

        before = cluster.worker_pids()
        load = asyncio.ensure_future(run_traffic(
            host, port, MIX, clients=CLIENTS,
            sessions_per_client=SESSIONS_PER_CLIENT,
        ))
        await asyncio.sleep(0.2)
        print("\nrolling restart while serving ...")
        await cluster.rolling_restart()
        results["rolling restart"] = await load
        print(f"every worker recycled: {before} -> {cluster.worker_pids()}")
    finally:
        await cluster.stop()

    print(f"\n{'phase':16} {'scheme':14} {'sessions':>8} {'reconn':>6} "
          f"{'sess/s':>8} {'p99 ms':>8}")
    for phase_name, report in results.items():
        for entry in report.entries.values():
            digest = entry.histogram.summary()
            print(f"{phase_name:16} {entry.scheme:14} {entry.count:>8} "
                  f"{report.reopens:>6} "
                  f"{entry.rate(report.wall_seconds):>8.1f} "
                  f"{digest['p99_ms']:>8.2f}")
        assert report.accounted, f"{phase_name}: every request must be accounted"
        assert report.responses == CLIENTS * SESSIONS_PER_CLIENT, phase_name
    print("\nzero client-visible errors across crash, restart and rolling "
          "restart — the lifecycle is invisible to clients.")


if __name__ == "__main__":
    asyncio.run(demo())
