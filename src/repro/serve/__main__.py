"""``python -m repro.serve`` — run a PKC server or cluster, or load-test one.

Three subcommands:

* ``serve`` — bind a :class:`~repro.serve.server.ServeServer` and run until
  interrupted; its batches run on a thread pool of ``--workers`` threads.
  For more than one core, use ``cluster``.

* ``cluster`` — run a :class:`~repro.serve.cluster.ClusterSupervisor`:
  ``--workers N`` independent server processes sharing one port
  (``SO_REUSEPORT`` where available, else the scheme-affinity front
  router), with crash restart, graceful drain on ``SIGTERM`` and a rolling
  restart on ``SIGHUP``.

* ``load`` — the measuring harness of the serving acceptance story: boot an
  in-process server (or aim at an external one via ``--connect``), drive N
  concurrent clients through a mixed-scheme workload, compare the batched
  ceilidh-170 key-agreement serving throughput against the *offline*
  ``run_batch`` baseline measured in the same process, and merge one
  :class:`~repro.perf.record.PerfRecord` per ``(scheme, operation)`` —
  throughput plus latency percentiles — into ``BENCH_pkc.json`` under
  ``serve:`` keys (``serve:<scheme>[+backend]:<operation>``; the offline
  plain-baseline keys are never touched).  With ``--cluster N[,N...]`` the
  same plan instead runs against a fresh cluster at each worker count and
  lands ``serve-cluster:<scheme>[+backend]:<op>@w<N>`` rows whose meta
  carries the measured ``scaling_efficiency`` (sessions/s at N workers over
  N x the single-worker rate) — and, honestly, the machine's ``cpu_count``,
  since efficiency on a one-core box is flat by construction.

The exit status is the check: non-zero when any session failed a protocol
round trip, or (single-server mode) when the in-process serving throughput
fell below ``--min-ratio`` (default 0.8) of the offline baseline.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import signal
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.client import DEFAULT_PAYLOAD, LoadPlan, LoadReport, run_load
from repro.serve.server import ServeServer

#: The paper's four deployed cryptosystems — the default load mix.
HEADLINE_SCHEMES = ("ceilidh-170", "ecdh-p160", "rsa-1024", "xtr-170")

#: The scheme x operation whose serving throughput is gated against offline.
BASELINE_SCHEME = "ceilidh-170"
BASELINE_OPERATION = "key-agreement"


def _add_server_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        help="field backend (default: $REPRO_FIELD_BACKEND or plain)")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread pool size for the group arithmetic "
                             "(default: min(4, cores))")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="largest same-scheme batch one worker executes")
    parser.add_argument("--queue-size", type=int, default=256,
                        help="bounded request queue; overflow answers OP_OVERLOADED")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="async multi-scheme PKC serving layer",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a server until interrupted")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9876)
    serve.add_argument("--schemes", default=None,
                       help="comma-separated allowlist (default: whole registry)")
    _add_server_options(serve)

    cluster = commands.add_parser(
        "cluster", help="run N worker processes behind one port until interrupted"
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=9876)
    cluster.add_argument("--workers", type=int, default=2,
                         help="worker processes sharing the port (default: 2)")
    cluster.add_argument("--mode", choices=("auto", "reuseport", "router"),
                         default="auto",
                         help="port sharing: kernel SO_REUSEPORT balancing or the "
                              "scheme-affinity front router (auto: reuseport "
                              "where available)")
    cluster.add_argument("--schemes", default=None,
                         help="comma-separated allowlist (default: whole registry)")
    cluster.add_argument("--backend", default=None,
                         help="field backend (default: $REPRO_FIELD_BACKEND or plain)")
    cluster.add_argument("--pool-workers", type=int, default=None,
                         help="per-worker thread pool size (default: min(4, cores))")
    cluster.add_argument("--max-batch", type=int, default=32,
                         help="largest same-scheme batch one worker executes")
    cluster.add_argument("--queue-size", type=int, default=256,
                         help="bounded request queue; overflow answers OP_OVERLOADED")

    load = commands.add_parser("load", help="drive a server with concurrent clients")
    load.add_argument("--connect", default=None, metavar="HOST:PORT",
                      help="load an external server (default: boot one in-process)")
    load.add_argument("--schemes", default=",".join(HEADLINE_SCHEMES),
                      help="comma-separated mix (default: the four headline schemes)")
    load.add_argument("--clients", type=int, default=8,
                      help="concurrent client connections (default: 8)")
    load.add_argument("--sessions", type=int, default=None,
                      help="sessions per client per mix entry (default: 16, quick: 2)")
    load.add_argument("--quick", action="store_true",
                      help="smoke mode: minimal sessions, still >= 8 concurrent clients")
    load.add_argument("--min-ratio", type=float, default=0.8,
                      help="gate: serve/offline ceilidh-170 throughput floor")
    load.add_argument("--no-emit", action="store_true",
                      help="skip the BENCH_pkc.json merge")
    load.add_argument("--bench-root", default=".",
                      help="directory whose BENCH_pkc.json receives the serve: keys")
    load.add_argument("--cluster", default=None, metavar="N[,N...]",
                      help="scaling sweep: run the plan against a fresh cluster at "
                           "each worker count (1 is prepended as the efficiency "
                           "reference) and emit serve-cluster: rows")
    load.add_argument("--cluster-mode", choices=("auto", "reuseport", "router"),
                      default="auto", help="port sharing for --cluster sweeps")
    load.add_argument("--mix", default=None, metavar="NAME",
                      help="drive a seeded traffic-model mix (zipf popularity, "
                           "bursty arrivals, secure channels) instead of the "
                           "phase plan; presets: see repro.traffic.model.MIXES")
    load.add_argument("--seed", type=int, default=0,
                      help="traffic-model seed (--mix only; default: 0)")
    _add_server_options(load)
    return parser


def _scheme_mix(names: Sequence[str], backend: Optional[str]) -> List[Tuple[str, str]]:
    """``(scheme, operation)`` pairs: each scheme's first supported protocol."""
    from repro.pkc.base import ENCRYPTION, KEY_AGREEMENT, SIGNATURE
    from repro.pkc.registry import get_scheme

    preference = (
        ("key-agreement", KEY_AGREEMENT),
        ("encryption", ENCRYPTION),
        ("signature", SIGNATURE),
    )
    mix = []
    for name in names:
        scheme = get_scheme(name, backend=backend)
        for operation, capability in preference:
            if capability in scheme.capabilities:
                mix.append((name, operation))
                break
    return mix


def _offline_baseline(sessions: int, backend: Optional[str]) -> float:
    """Offline ``run_batch`` sessions/s for the gated scheme, same process."""
    from repro.pkc.bench import run_batch

    # One warm-up session builds the fixed-base tables outside the timed
    # region, mirroring what the server's long-lived key amortises.
    run_batch(BASELINE_SCHEME, BASELINE_OPERATION, 1,
              collect_ops=False, backend=backend)
    result = run_batch(BASELINE_SCHEME, BASELINE_OPERATION, sessions,
                       collect_ops=False, backend=backend)
    return result.sessions_per_second


def _emit_records(
    report: LoadReport, args, backend_name: str, quick: bool
) -> pathlib.Path:
    from repro import perf

    suffix = "" if backend_name == "plain" else f"+{backend_name}"
    records = []
    for entry in report.entries.values():
        records.append(
            perf.PerfRecord(
                scheme=f"serve:{entry.scheme}{suffix}",
                operation=entry.operation,
                sessions=entry.sessions,
                wall_seconds=entry.wall_seconds,
                ops_per_second=entry.sessions_per_second,
                ms_per_op=(entry.wall_seconds * 1e3 / entry.sessions
                           if entry.sessions else 0.0),
                latency_ms=entry.histogram.summary(),
                meta={
                    "clients": report.clients,
                    "backend": backend_name,
                    "quick": quick,
                    "overload_rejections": entry.overload_rejections,
                },
            )
        )
    path = perf.bench_path(args.bench_root)
    perf.update_bench(path, records)
    return path


def _emit_cluster_records(
    results: "Dict[int, LoadReport]",
    mode: str,
    args,
    backend_name: str,
    quick: bool,
) -> pathlib.Path:
    """Merge one ``serve-cluster:`` row per (entry, worker count).

    Key shape: ``serve-cluster:<scheme>[+backend]:<operation>@w<N>`` — the
    worker count lives in the operation so every sweep point keeps its own
    trajectory.  Meta records the measured ``scaling_efficiency`` against
    the single-worker reference *and* the machine's ``cpu_count``: the
    number is only meaningful relative to the cores that were available.
    """
    from repro import perf

    suffix = "" if backend_name == "plain" else f"+{backend_name}"
    single = results.get(1)
    records = []
    for workers, report in sorted(results.items()):
        for key, entry in report.entries.items():
            base_rate = None
            if single is not None and key in single.entries:
                base_rate = single.entries[key].sessions_per_second
            efficiency = None
            if workers > 1 and base_rate:
                efficiency = entry.sessions_per_second / (workers * base_rate)
            records.append(
                perf.PerfRecord(
                    scheme=f"serve-cluster:{entry.scheme}{suffix}",
                    operation=f"{entry.operation}@w{workers}",
                    sessions=entry.sessions,
                    wall_seconds=entry.wall_seconds,
                    ops_per_second=entry.sessions_per_second,
                    ms_per_op=(entry.wall_seconds * 1e3 / entry.sessions
                               if entry.sessions else 0.0),
                    latency_ms=entry.histogram.summary(),
                    meta={
                        "workers": workers,
                        "mode": mode,
                        "cpu_count": os.cpu_count(),
                        "clients": report.clients,
                        "backend": backend_name,
                        "quick": quick,
                        "scaling_efficiency": efficiency,
                        "single_worker_sessions_per_second": base_rate,
                        "overload_rejections": entry.overload_rejections,
                        "reconnects": entry.reconnects,
                    },
                )
            )
    path = perf.bench_path(args.bench_root)
    perf.update_bench(path, records)
    return path


def _emit_traffic_records(
    reports, mix, args, backend_name: str, quick: bool
) -> pathlib.Path:
    """Merge the BENCH rows of one traffic run (or cluster sweep).

    Two families land:

    * ``traffic:<mix>[+backend]`` rows — one per ``(scheme, kind)`` cell
      plus an ``all`` summary carrying the strict accounting counters.
      Rates share the run's wall clock (the cells ran interleaved, which
      is the point of a traffic model), noted in meta as
      ``shared_wall=True``.
    * ``serve-channel:<scheme>[+backend]`` rows — the channel subsystem's
      own trajectory: ``open`` (handshake) and ``message`` (steady-state)
      cells, the latter with the measured ``amortisation_vs_oneshot_ka``
      when the same run also drove one-shot key agreements on the scheme.

    Cluster sweeps append ``@w<N>`` to every operation, mirroring the
    ``serve-cluster:`` convention.
    """
    from repro import perf
    from repro.traffic.engine import CHANNEL_MESSAGE, CHANNEL_OPEN

    suffix = "" if backend_name == "plain" else f"+{backend_name}"
    records = []
    for workers, report in sorted(reports.items()):
        at_workers = f"@w{workers}" if workers else ""
        wall = report.wall_seconds
        base_meta = {
            "mix": mix.name,
            "seed": report.seed,
            "clients": report.clients,
            "backend": backend_name,
            "quick": quick,
            "shared_wall": True,
        }
        if workers:
            base_meta["workers"] = workers
        for key in sorted(report.entries):
            entry = report.entries[key]
            rate = entry.rate(wall)
            records.append(
                perf.PerfRecord(
                    scheme=f"traffic:{mix.name}{suffix}",
                    operation=f"{entry.scheme}:{entry.kind}{at_workers}",
                    sessions=entry.count,
                    wall_seconds=wall,
                    ops_per_second=rate,
                    ms_per_op=(1e3 / rate if rate else 0.0),
                    latency_ms=entry.histogram.summary(),
                    meta={**base_meta, "refusals": entry.refusals},
                )
            )
        handshake = report.handshake_histogram()
        steady = report.steady_state_histogram()
        records.append(
            perf.PerfRecord(
                scheme=f"traffic:{mix.name}{suffix}",
                operation=f"all{at_workers}",
                sessions=report.submitted,
                wall_seconds=wall,
                ops_per_second=(report.responses / wall if wall else 0.0),
                ms_per_op=(wall * 1e3 / report.responses
                           if report.responses else 0.0),
                latency_ms=steady.summary() if len(steady) else None,
                meta={
                    **base_meta,
                    "submitted": report.submitted,
                    "responses": report.responses,
                    "explicit_errors": report.explicit_errors,
                    "rejected_quota": report.rejected_quota,
                    "overload_rejections": report.overload_rejections,
                    "channels_opened": report.channels_opened,
                    "channel_messages": report.channel_messages,
                    "rekeys": report.rekeys,
                    "reopens": report.reopens,
                    "oneshots": report.oneshots,
                    "handshake_p50_ms": round(
                        handshake.percentile(0.5) * 1e3, 4
                    ),
                    "steady_state_p50_ms": round(
                        steady.percentile(0.5) * 1e3, 4
                    ),
                },
            )
        )
        for scheme in mix.schemes:
            message = report.entries.get(f"{scheme}:{CHANNEL_MESSAGE}")
            opened = report.entries.get(f"{scheme}:{CHANNEL_OPEN}")
            if message is None or opened is None:
                continue
            ka_rate = report.rate_of(scheme, "key-agreement")
            message_rate = message.rate(wall)
            records.append(
                perf.PerfRecord(
                    scheme=f"serve-channel:{scheme}{suffix}",
                    operation=f"open{at_workers}",
                    sessions=opened.count,
                    wall_seconds=wall,
                    ops_per_second=opened.rate(wall),
                    ms_per_op=(1e3 / opened.rate(wall)
                               if opened.count else 0.0),
                    latency_ms=opened.histogram.summary(),
                    meta={**base_meta, "refusals": opened.refusals},
                )
            )
            records.append(
                perf.PerfRecord(
                    scheme=f"serve-channel:{scheme}{suffix}",
                    operation=f"message{at_workers}",
                    sessions=message.count,
                    wall_seconds=wall,
                    ops_per_second=message_rate,
                    ms_per_op=(1e3 / message_rate if message.count else 0.0),
                    latency_ms=message.histogram.summary(),
                    meta={
                        **base_meta,
                        "refusals": message.refusals,
                        "oneshot_ka_per_second": ka_rate or None,
                        "amortisation_vs_oneshot_ka": (
                            message_rate / ka_rate if ka_rate else None
                        ),
                    },
                )
            )
    path = perf.bench_path(args.bench_root)
    perf.update_bench(path, records)
    return path


def _print_traffic_report(report, workers: Optional[int] = None) -> None:
    tag = f" [{workers} workers]" if workers else ""
    header = (f"{'scheme':16} {'kind':16} {'count':>6} {'refus':>5} "
              f"{'rate/s':>8} {'p50 ms':>8} {'p99 ms':>8} {'p999 ms':>8}")
    print(f"traffic {report.mix}{tag}: {report.clients} clients, "
          f"seed {report.seed}, {report.wall_seconds:.2f}s wall")
    print(header)
    print("-" * len(header))
    for key in sorted(report.entries):
        entry = report.entries[key]
        digest = entry.histogram.summary()
        print(f"{entry.scheme:16} {entry.kind:16} {entry.count:>6} "
              f"{entry.refusals:>5} {entry.rate(report.wall_seconds):>8.1f} "
              f"{digest['p50_ms']:>8.2f} {digest['p99_ms']:>8.2f} "
              f"{digest['p999_ms']:>8.2f}")
    handshake = report.handshake_histogram()
    steady = report.steady_state_histogram()
    print(f"channels: {report.channels_opened} opened, "
          f"{report.channel_messages} messages, {report.rekeys} rekeys, "
          f"{report.reopens} reopens; handshake p50 "
          f"{handshake.percentile(0.5) * 1e3:.2f} ms vs steady-state p50 "
          f"{steady.percentile(0.5) * 1e3:.2f} ms")
    print(f"accounting: {report.submitted} submitted = {report.responses} "
          f"responses + {report.explicit_errors} explicit errors "
          f"({report.rejected_quota} quota, {report.overload_rejections} "
          f"overloaded)")


async def _run_traffic_command(args, backend_name: str, sessions: int) -> int:
    """``load --mix``: the traffic-model engine against a server or cluster."""
    from repro.traffic.engine import run_traffic
    from repro.traffic.model import get_mix

    mix = get_mix(args.mix)
    reports: Dict[int, object] = {}
    failed = False

    if args.cluster:
        from repro.serve.cluster import ClusterSupervisor

        if args.connect:
            raise SystemExit("--cluster boots its own workers; drop --connect")
        counts = sorted({int(part) for part in args.cluster.split(",")
                         if part.strip()})
        if not counts or counts[0] < 1:
            raise SystemExit(f"--cluster needs positive worker counts, "
                             f"got {args.cluster!r}")
        for count in counts:
            cluster = ClusterSupervisor(
                workers=count,
                mode=args.cluster_mode,
                schemes=mix.schemes,
                backend=args.backend,
                pool_workers=args.workers,
                max_batch=args.max_batch,
                queue_size=args.queue_size,
            )
            host, port = await cluster.start()
            try:
                print(f"traffic {mix.name}: {count} worker(s) "
                      f"[{cluster.mode}] at {host}:{port} on {backend_name}")
                report = await run_traffic(
                    host, port, mix,
                    clients=args.clients,
                    sessions_per_client=sessions,
                    seed=args.seed,
                    backend=args.backend,
                )
            finally:
                await cluster.stop()
            reports[count] = report
            _print_traffic_report(report, workers=count)
            failed = failed or not report.accounted
    else:
        server: Optional[ServeServer] = None
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            address = (host, int(port))
        else:
            server = ServeServer(
                backend=args.backend,
                workers=args.workers,
                max_batch=args.max_batch,
                queue_size=args.queue_size,
            )
            address = await server.start()
        try:
            report = await run_traffic(
                address[0], address[1], mix,
                clients=args.clients,
                sessions_per_client=sessions,
                seed=args.seed,
                backend=args.backend,
            )
        finally:
            if server is not None:
                await server.stop()
        reports[0] = report
        _print_traffic_report(report)
        failed = not report.accounted
        if server is not None and server.protocol_errors:
            print(f"FAIL: server counted {server.protocol_errors} "
                  f"protocol error(s)")
            failed = True

    for report in reports.values():
        if not report.accounted:
            print(f"FAIL: accounting broken — {report.submitted} submitted "
                  f"!= {report.responses} responses + "
                  f"{report.explicit_errors} explicit errors")
        # The amortisation headline: channel records per second against the
        # same run's one-shot key-agreement rate.
        for scheme in mix.schemes:
            message_rate = report.rate_of(scheme, "channel-message")
            ka_rate = report.rate_of(scheme, "key-agreement")
            if message_rate and ka_rate:
                print(f"{scheme}: channel messages {message_rate:.1f}/s vs "
                      f"one-shot key agreement {ka_rate:.1f}/s "
                      f"(amortisation x{message_rate / ka_rate:.1f})")

    if failed:
        print("perf trajectory NOT updated (run failed)")
        return 1
    if not args.no_emit:
        path = _emit_traffic_records(reports, mix, args, backend_name,
                                     args.quick)
        print(f"perf trajectory updated: {path} (traffic:{mix.name} and "
              f"serve-channel: records)")
    return 0


def _parse_cluster_counts(raw: str) -> List[int]:
    counts = sorted({int(part) for part in raw.split(",") if part.strip()})
    if not counts or counts[0] < 1:
        raise SystemExit(f"--cluster needs positive worker counts, got {raw!r}")
    if counts[0] != 1:
        # Efficiency is defined against the single-worker rate; measure it.
        counts.insert(0, 1)
    return counts


async def _run_cluster_load(args, backend_name: str,
                            mix: List[Tuple[str, str]], sessions: int) -> int:
    """The scaling sweep: the same plan against a fresh cluster per count."""
    from repro.serve.cluster import ClusterSupervisor

    if args.connect:
        raise SystemExit("--cluster boots its own workers; drop --connect")
    counts = _parse_cluster_counts(args.cluster)
    plan = LoadPlan.from_mix(mix)
    schemes = plan.schemes()
    results: Dict[int, LoadReport] = {}
    mode = args.cluster_mode
    for count in counts:
        cluster = ClusterSupervisor(
            workers=count,
            mode=args.cluster_mode,
            schemes=schemes,
            backend=args.backend,
            pool_workers=args.workers,
            max_batch=args.max_batch,
            queue_size=args.queue_size,
        )
        host, port = await cluster.start()
        mode = cluster.mode  # auto resolved to a concrete mode
        try:
            print(f"cluster load: {count} worker(s) [{cluster.mode}] at "
                  f"{host}:{port}, {args.clients} clients x {sessions} "
                  f"sessions/entry on {backend_name}")
            results[count] = await run_load(
                host, port, plan=plan,
                clients=args.clients,
                sessions_per_client=sessions,
                payload=DEFAULT_PAYLOAD,
                backend=args.backend,
            )
        finally:
            await cluster.stop()

    header = (f"{'scheme':16} {'operation':14} {'w':>3} {'sessions':>8} "
              f"{'err':>4} {'reconn':>6} {'sess/s':>8} {'eff':>6}")
    print(header)
    print("-" * len(header))
    failed = False
    for count in counts:
        report = results[count]
        for key, entry in report.entries.items():
            base = results[1].entries.get(key)
            efficiency = ""
            if count > 1 and base is not None and base.sessions_per_second > 0:
                efficiency = (f"{entry.sessions_per_second / (count * base.sessions_per_second):.2f}")
            print(f"{entry.scheme:16} {entry.operation:14} {count:>3} "
                  f"{entry.sessions:>8} {entry.errors:>4} {entry.reconnects:>6} "
                  f"{entry.sessions_per_second:>8.1f} {efficiency:>6}")
        failed = failed or report.total_errors > 0
    cores = os.cpu_count() or 1
    print(f"(scaling measured on {cores} core(s); efficiency = sess/s at N "
          f"workers / N x single-worker rate)")
    if failed:
        print("FAIL: cluster load saw session errors")
        print("perf trajectory NOT updated (run failed)")
        return 1
    if not args.no_emit:
        path = _emit_cluster_records(results, mode, args, backend_name, args.quick)
        total = sum(len(report.entries) for report in results.values())
        print(f"perf trajectory updated: {path} ({total} serve-cluster: records)")
    return 0


async def _run_load_command(args) -> int:
    from repro.field.backend import default_backend_name

    backend_name = default_backend_name(args.backend)
    if args.mix:
        sessions = args.sessions if args.sessions is not None else (4 if args.quick else 12)
        return await _run_traffic_command(args, backend_name, sessions)
    names = [name.strip() for name in args.schemes.split(",") if name.strip()]
    mix = _scheme_mix(names, args.backend)
    sessions = args.sessions if args.sessions is not None else (2 if args.quick else 16)
    if args.cluster:
        return await _run_cluster_load(args, backend_name, mix, sessions)

    server: Optional[ServeServer] = None
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        address = (host, int(port))
    else:
        server = ServeServer(
            schemes=None,  # serve the whole registry; the mix picks from it
            backend=args.backend,
            workers=args.workers,
            max_batch=args.max_batch,
            queue_size=args.queue_size,
        )
        address = await server.start()

    try:
        print(f"load: {args.clients} clients x {sessions} sessions/entry "
              f"over {len(mix)} mix entries on {backend_name} "
              f"({'in-process server' if server else 'external server'})")
        report = await run_load(
            address[0], address[1], mix,
            clients=args.clients,
            sessions_per_client=sessions,
            payload=DEFAULT_PAYLOAD,
            backend=args.backend,
        )

        header = (f"{'scheme':16} {'operation':14} {'sessions':>8} {'err':>4} "
                  f"{'sess/s':>8} {'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8}")
        print(header)
        print("-" * len(header))
        for entry in report.entries.values():
            digest = entry.histogram.summary()
            print(f"{entry.scheme:16} {entry.operation:14} {entry.sessions:>8} "
                  f"{entry.errors:>4} {entry.sessions_per_second:>8.1f} "
                  f"{digest['p50_ms']:>8.2f} {digest['p90_ms']:>8.2f} "
                  f"{digest['p99_ms']:>8.2f}")

        failed = report.total_errors > 0
        if failed:
            print(f"FAIL: {report.total_errors} session(s) errored")
        if report.total_overload_rejections:
            print(f"note: {report.total_overload_rejections} overload rejection(s) "
                  "were retried (explicit backpressure, not errors)")

        baseline_key = f"{BASELINE_SCHEME}:{BASELINE_OPERATION}"
        if server is not None and baseline_key in report.entries:
            offline = _offline_baseline(
                max(8, min(16, args.clients * sessions)), args.backend
            )
            group = server.scheduler.stats.group(BASELINE_SCHEME, BASELINE_OPERATION)
            served_rate = group.served_per_second
            roundtrip_rate = report.entries[baseline_key].sessions_per_second
            # The gated quantity: requests the worker pool completed per
            # second of executor busy time.  One server-side request is half
            # an offline session's derivations, so parity with the offline
            # sessions/s is the conservative floor, not the ceiling.
            ratio = served_rate / offline if offline > 0 else float("inf")
            print(f"{BASELINE_SCHEME} {BASELINE_OPERATION}: "
                  f"server-side batched {served_rate:.1f} req/s "
                  f"(round-trip {roundtrip_rate:.1f} sess/s, "
                  f"offline baseline {offline:.1f} sess/s, "
                  f"ratio {ratio:.2f}, largest batch {group.largest_batch})")
            if ratio < args.min_ratio:
                print(f"FAIL: serving ratio {ratio:.2f} below {args.min_ratio}")
                failed = True

        if server is not None and server.protocol_errors:
            print(f"FAIL: server counted {server.protocol_errors} protocol error(s)")
            failed = True

        if not args.no_emit and not failed:
            path = _emit_records(report, args, backend_name, args.quick)
            print(f"perf trajectory updated: {path} "
                  f"({len(report.entries)} serve: records)")
        elif failed:
            print("perf trajectory NOT updated (run failed)")

        return 1 if failed else 0
    finally:
        if server is not None:
            await server.stop()


async def _run_cluster_command(args) -> int:
    from repro.serve.cluster import ClusterSupervisor

    schemes = ([name.strip() for name in args.schemes.split(",") if name.strip()]
               if args.schemes else None)
    supervisor = ClusterSupervisor(
        workers=args.workers,
        host=args.host,
        port=args.port,
        mode=args.mode,
        schemes=schemes,
        backend=args.backend,
        pool_workers=args.pool_workers,
        max_batch=args.max_batch,
        queue_size=args.queue_size,
    )
    address = await supervisor.start()
    names = ", ".join(sorted(supervisor.preset_keys))
    print(f"repro.serve cluster listening on {address[0]}:{address[1]} "
          f"[{supervisor.mode}, {supervisor.workers} workers, pids "
          f"{supervisor.worker_pids()}] serving: {names}")
    print("SIGHUP: rolling restart; SIGTERM/SIGINT: graceful drain and exit")

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    restart_tasks: set = set()

    def _request_rolling_restart() -> None:
        task = loop.create_task(supervisor.rolling_restart())
        restart_tasks.add(task)
        task.add_done_callback(restart_tasks.discard)

    loop.add_signal_handler(signal.SIGHUP, _request_rolling_restart)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    try:
        await stop.wait()
    finally:
        if restart_tasks:
            await asyncio.gather(*restart_tasks, return_exceptions=True)
        await supervisor.stop(drain=True)
    print("cluster drained and stopped")
    return 0


async def _run_serve_command(args) -> int:
    schemes = ([name.strip() for name in args.schemes.split(",") if name.strip()]
               if args.schemes else None)
    server = ServeServer(
        host=args.host,
        port=args.port,
        schemes=schemes,
        backend=args.backend,
        workers=args.workers,
        max_batch=args.max_batch,
        queue_size=args.queue_size,
    )
    address = await server.start()
    names = ", ".join(server.scheme_host.scheme_names())
    print(f"repro.serve listening on {address[0]}:{address[1]} "
          f"[{server.scheme_host.backend} backend, thread "
          f"pool x{server.scheduler.workers}] serving: {names}")
    try:
        await server.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await server.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    runner = {
        "serve": _run_serve_command,
        "cluster": _run_cluster_command,
        "load": _run_load_command,
    }[args.command]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
