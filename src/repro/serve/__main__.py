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

* ``load`` — the measuring harness of the serving acceptance story: the one
  load generator, :func:`repro.traffic.run_traffic`, over a list of mixes
  against a list of targets.  The mixes are one seeded ``--mix`` preset
  (Zipf popularity, bursty arrivals, secure channels) or, per ``--schemes``
  entry, a closed-loop :func:`~repro.traffic.model.one_shot_mix` of its
  first supported protocol, so the server can fill same-scheme batches.
  The target is an in-process server, ``--connect HOST:PORT``, or a fresh
  cluster per ``--cluster`` worker count (1 is prepended as the efficiency
  reference).  Rows merge into ``BENCH_pkc.json`` (see :func:`_emit_records`).

The exit status is the check: non-zero when a session failed (the engine
raises), when any run broke the accounting identity (submitted = responses
+ explicit errors), when the in-process server counted a protocol error,
or when its batched ceilidh-170 key-agreement throughput in a
``--schemes`` run fell below ``--min-ratio`` (default 0.8) of the offline
``run_batch`` baseline measured in the same process.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import signal
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.server import ServeServer
from repro.traffic import (
    TrafficMix,
    TrafficReport,
    get_mix,
    one_shot_mix,
    run_traffic,
)
from repro.traffic.engine import CHANNEL_MESSAGE, CHANNEL_OPEN
from repro.traffic.model import HEADLINE_SCHEMES, ONESHOT_OPERATIONS

#: The scheme x operation whose serving throughput is gated against offline.
BASELINE_SCHEME = "ceilidh-170"
BASELINE_OPERATION = "key-agreement"

#: One ``(worker count, report)`` per traffic run; worker count 0 is a
#: single server, in-process or external.
Runs = List[Tuple[int, TrafficReport]]
#: ``(worker count, cell key)`` -> scaling efficiency, for N > 1 workers.
Efficiency = Dict[Tuple[int, str], float]

#: Channel cell kind -> its ``serve-channel:`` row operation.  Every opened
#: channel creates both cells, so the rows come in pairs.
CHANNEL_ROWS = {CHANNEL_OPEN: "open", CHANNEL_MESSAGE: "message"}


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
                      help="sessions per client per mix (default: 16, quick: 2; "
                           "with --mix: 12, quick: 4)")
    load.add_argument("--quick", action="store_true",
                      help="smoke mode: minimal sessions, still >= 8 concurrent clients")
    load.add_argument("--min-ratio", type=float, default=0.8,
                      help="gate: serve/offline ceilidh-170 throughput floor")
    load.add_argument("--no-emit", action="store_true",
                      help="skip the BENCH_pkc.json merge")
    load.add_argument("--bench-root", default=".",
                      help="directory whose BENCH_pkc.json receives the serve: keys")
    load.add_argument("--cluster", default=None, metavar="N[,N...]",
                      help="scaling sweep: run the mixes against a fresh cluster at "
                           "each worker count (1 is prepended as the efficiency "
                           "reference) and emit serve-cluster: rows")
    load.add_argument("--cluster-mode", choices=("auto", "reuseport", "router"),
                      default="auto", help="port sharing for --cluster sweeps")
    load.add_argument("--mix", default=None, metavar="NAME",
                      help="drive a seeded traffic-model mix (zipf popularity, "
                           "bursty arrivals, secure channels) instead of one "
                           "closed-loop mix per --schemes entry; presets: see "
                           "repro.traffic.model.MIXES")
    load.add_argument("--seed", type=int, default=0,
                      help="traffic-model seed (default: 0)")
    _add_server_options(load)
    return parser


def _scheme_mixes(names: Sequence[str], backend: Optional[str]) -> List[TrafficMix]:
    """One closed-loop mix per scheme, under its first supported operation."""
    from repro.pkc.registry import get_scheme

    mixes = []
    for name in names:
        capabilities = get_scheme(name, backend=backend).capabilities
        supported = [op for op in ONESHOT_OPERATIONS if op in capabilities]
        if supported:
            mixes.append(one_shot_mix(name, supported[0]))
    return mixes


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


def _parse_cluster_counts(raw: str) -> List[int]:
    counts = sorted({int(part) for part in raw.split(",") if part.strip()})
    if not counts or counts[0] < 1:
        raise SystemExit(f"--cluster needs positive worker counts, got {raw!r}")
    if counts[0] != 1:
        # Efficiency is defined against the single-worker rate; measure it.
        counts.insert(0, 1)
    return counts


def _print_runs(runs: Runs, efficiency: Efficiency) -> None:
    """One table over every run: a row per ``(scheme, kind)`` cell."""
    header = (f"{'w':>3} {'scheme':16} {'kind':16} {'count':>6} {'refus':>5} "
              f"{'rate/s':>8} {'p50 ms':>8} {'p99 ms':>8} {'p999 ms':>8} "
              f"{'eff':>5}")
    print(header)
    print("-" * len(header))
    for workers, report in runs:
        for key in sorted(report.entries):
            entry = report.entries[key]
            digest = entry.histogram.summary()
            rate = entry.rate(report.wall_seconds)
            eff = efficiency.get((workers, key))
            print(f"{workers or '-':>3} {entry.scheme:16} {entry.kind:16} "
                  f"{entry.count:>6} {entry.refusals:>5} {rate:>8.1f} "
                  f"{digest['p50_ms']:>8.2f} {digest['p99_ms']:>8.2f} "
                  f"{digest['p999_ms']:>8.2f} "
                  f"{'' if eff is None else f'{eff:.2f}':>5}")
    for workers, report in runs:
        tag = f" [{workers} workers]" if workers else ""
        if report.channels_opened:
            handshake = report.handshake_histogram()
            steady = report.steady_state_histogram()
            print(f"{report.mix}{tag}: {report.channels_opened} channels, "
                  f"{report.channel_messages} messages, {report.rekeys} "
                  f"rekeys; handshake p50 "
                  f"{handshake.percentile(0.5) * 1e3:.2f} ms vs steady-state "
                  f"p50 {steady.percentile(0.5) * 1e3:.2f} ms")
        print(f"{report.mix}{tag}: {report.submitted} submitted "
              f"{'=' if report.accounted else '!='} "
              f"{report.responses} responses + {report.explicit_errors} "
              f"explicit errors ({report.rejected_quota} quota, "
              f"{report.overload_rejections} overloaded), {report.reopens} "
              f"reconnects, {report.wall_seconds:.2f}s wall")
    if efficiency:
        print(f"(eff = rate at N workers / N x single-worker rate, measured "
              f"on {os.cpu_count() or 1} core(s))")


def _emit_records(
    runs: Runs, single: Dict[str, float], efficiency: Efficiency, args,
    backend_name: str, mode: str,
) -> pathlib.Path:
    """Merge every run's rows into ``BENCH_pkc.json``.

    Scheme runs land ``serve:<scheme>[+backend]:<op>`` rows, or under
    ``--cluster`` ``serve-cluster:<scheme>[+backend]:<op>@w<N>`` rows whose
    meta carries the measured ``scaling_efficiency`` (rate at N workers
    over N x the single-worker rate) *and* the machine's ``cpu_count``,
    without which the number cannot be read.  ``--mix`` runs land
    ``traffic:<mix>[+backend]`` cells plus an ``all`` row with the
    accounting counters (the cells share the run's wall clock:
    ``shared_wall``), and ``serve-channel:<scheme>[+backend]`` ``open`` and
    ``message`` rows; cluster sweeps append ``@w<N>`` to the operation.
    The offline plain-baseline keys are never touched.
    """
    from repro import perf

    suffix = "" if backend_name == "plain" else f"+{backend_name}"
    records = []

    def cell(scheme: str, operation: str, entry, wall: float, meta) -> None:
        rate = entry.rate(wall)
        records.append(
            perf.PerfRecord(
                scheme=scheme,
                operation=operation,
                sessions=entry.count,
                wall_seconds=wall,
                ops_per_second=rate,
                ms_per_op=(1e3 / rate if rate else 0.0),
                latency_ms=entry.histogram.summary(),
                meta=meta,
            )
        )

    for workers, report in runs:
        at_workers = f"@w{workers}" if workers else ""
        wall = report.wall_seconds
        base_meta = {
            "clients": report.clients,
            "backend": backend_name,
            "quick": args.quick,
        }
        if not args.mix:
            for key, entry in report.entries.items():
                meta = {**base_meta,
                        "overload_rejections": report.overload_rejections}
                if workers:
                    meta.update(
                        workers=workers,
                        mode=mode,
                        cpu_count=os.cpu_count(),
                        scaling_efficiency=efficiency.get((workers, key)),
                        single_worker_sessions_per_second=single.get(key),
                        reconnects=report.reopens,
                    )
                family = "serve-cluster" if workers else "serve"
                cell(f"{family}:{entry.scheme}{suffix}",
                     f"{entry.kind}{at_workers}", entry, wall, meta)
            continue

        base_meta.update(mix=report.mix, seed=report.seed, shared_wall=True)
        if workers:
            base_meta["workers"] = workers
        for key in sorted(report.entries):
            entry = report.entries[key]
            meta = {**base_meta, "refusals": entry.refusals}
            cell(f"traffic:{report.mix}{suffix}",
                 f"{entry.scheme}:{entry.kind}{at_workers}", entry, wall, meta)
            if entry.kind in CHANNEL_ROWS:
                cell(f"serve-channel:{entry.scheme}{suffix}",
                     f"{CHANNEL_ROWS[entry.kind]}{at_workers}", entry, wall,
                     dict(meta))
        handshake = report.handshake_histogram()
        steady = report.steady_state_histogram()
        records.append(
            perf.PerfRecord(
                scheme=f"traffic:{report.mix}{suffix}",
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
    path = perf.bench_path(args.bench_root)
    perf.update_bench(path, records)
    return path


async def _run_load_command(args) -> int:
    """``load``: one loop over targets and mixes, one printer, one emitter."""
    from repro.field.backend import default_backend_name
    from repro.serve.cluster import ClusterSupervisor

    backend_name = default_backend_name(args.backend)
    if args.mix:
        mixes = [get_mix(args.mix)]
        default_sessions = 4 if args.quick else 12
    else:
        names = [name.strip() for name in args.schemes.split(",") if name.strip()]
        mixes = _scheme_mixes(names, args.backend)
        default_sessions = 2 if args.quick else 16
    sessions = args.sessions if args.sessions is not None else default_sessions
    if args.cluster and args.connect:
        raise SystemExit("--cluster boots its own workers; drop --connect")
    counts = _parse_cluster_counts(args.cluster) if args.cluster else [0]
    schemes = tuple(dict.fromkeys(
        scheme for mix in mixes for scheme in mix.schemes
    ))

    runs: Runs = []
    mode = args.cluster_mode
    server: Optional[ServeServer] = None
    for workers in counts:
        cluster = None
        if workers:
            cluster = ClusterSupervisor(
                workers=workers,
                mode=args.cluster_mode,
                schemes=schemes,
                backend=args.backend,
                pool_workers=args.workers,
                max_batch=args.max_batch,
                queue_size=args.queue_size,
            )
            host, port = await cluster.start()
            mode = cluster.mode  # auto resolved to a concrete mode
            target = f"{workers} worker(s) [{mode}] at {host}:{port}"
        elif args.connect:
            host, _, port_text = args.connect.rpartition(":")
            port = int(port_text)
            target = f"external server at {args.connect}"
        else:
            server = ServeServer(
                backend=args.backend,
                workers=args.workers,
                max_batch=args.max_batch,
                queue_size=args.queue_size,
            )
            host, port = await server.start()
            target = f"in-process server at {host}:{port}"
        print(f"load: {args.clients} clients x {sessions} sessions per mix "
              f"over {len(mixes)} mix(es), {target}, on {backend_name}")
        try:
            for mix in mixes:
                report = await run_traffic(
                    host, port, mix,
                    clients=args.clients,
                    sessions_per_client=sessions,
                    seed=args.seed,
                    backend=args.backend,
                )
                runs.append((workers, report))
        finally:
            if cluster is not None:
                await cluster.stop()
            if server is not None:
                await server.stop()

    # Scaling is a capacity property, so only the closed-loop scheme runs
    # get it; a --mix run's cell rates are set by its schedule.
    single = {} if args.mix else {
        key: entry.rate(report.wall_seconds)
        for workers, report in runs if workers == 1
        for key, entry in report.entries.items()
    }
    efficiency = {
        (workers, key): entry.rate(report.wall_seconds) / (workers * single[key])
        for workers, report in runs if workers > 1
        for key, entry in report.entries.items() if single.get(key)
    }
    _print_runs(runs, efficiency)

    broken = [report.mix for _, report in runs if not report.accounted]
    failed = bool(broken)
    if broken:
        print(f"FAIL: accounting broken in {', '.join(broken)}")
    if server is not None and server.protocol_errors:
        print(f"FAIL: server counted {server.protocol_errors} protocol error(s)")
        failed = True

    baseline = f"{BASELINE_SCHEME}:{BASELINE_OPERATION}"
    gated = [report for _, report in runs if report.mix == baseline]
    if server is not None and gated:
        report = gated[0]
        offline = _offline_baseline(
            max(8, min(16, args.clients * sessions)), args.backend
        )
        group = server.scheduler.stats.group(BASELINE_SCHEME, BASELINE_OPERATION)
        served_rate = group.served_per_second
        roundtrip_rate = report.entries[baseline].rate(report.wall_seconds)
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

    if failed:
        print("perf trajectory NOT updated (run failed)")
        return 1
    if not args.no_emit:
        path = _emit_records(runs, single, efficiency, args, backend_name, mode)
        print(f"perf trajectory updated: {path}")
    return 0


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
