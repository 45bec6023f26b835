"""``python -m repro.serve`` — run a PKC server or cluster, or load-test one.

Three subcommands:

* ``serve`` — bind a :class:`~repro.serve.server.ServeServer` and run until
  interrupted; its batches run on one crypto thread.  For more than one
  core, use ``cluster``.

* ``cluster`` — run a :class:`~repro.serve.cluster.ClusterSupervisor`:
  ``--workers N`` independent server processes sharing one port through
  ``SO_REUSEPORT``, with crash restart, graceful drain on ``SIGTERM`` and
  a rolling restart on ``SIGHUP``.

* ``load`` — the serving correctness gate: the one load generator,
  :func:`repro.traffic.run_traffic`, over a list of mixes against a list
  of targets.  The mixes are one seeded ``--mix`` preset (Zipf
  popularity, bursty arrivals, secure channels) or, per ``--schemes``
  entry, a closed-loop :func:`~repro.traffic.model.one_shot_mix` of its
  first supported protocol, so the server can fill same-scheme batches.
  The target is an in-process server, ``--connect HOST:PORT``, or a fresh
  cluster per ``--cluster`` worker count (1 is prepended as the efficiency
  reference).  It prints one table over every run and writes no file;
  perfbench (``perfbench/run.py``) is what measures the server.

The exit status is the check: non-zero when a session failed (the engine
raises), when any run broke the accounting identity (submitted = responses
+ explicit errors), when the in-process server counted a protocol error,
or when its batched ceilidh-170 key-agreement throughput in a
``--schemes`` run fell below ``--min-ratio`` (default 0.8) of the offline
``run_batch`` baseline measured in the same process.  A malformed
``--connect`` or ``--cluster``, both of them at once, or a count below 1
(``--clients``, ``--sessions``, ``--workers``, ``--max-batch``,
``--queue-size``) is a usage error (status 2) before any socket or
process starts.
"""

from __future__ import annotations

import argparse
import asyncio
import os
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
from repro.traffic.model import HEADLINE_SCHEMES, ONESHOT_OPERATIONS

#: The scheme x operation whose serving throughput is gated against offline.
BASELINE_SCHEME = "ceilidh-170"
BASELINE_OPERATION = "key-agreement"

#: One ``(worker count, report)`` per traffic run; worker count 0 is a
#: single server, in-process or external.
Runs = List[Tuple[int, TrafficReport]]
#: ``(worker count, cell key)`` -> scaling efficiency, for N > 1 workers.
Efficiency = Dict[Tuple[int, str], float]


def _add_server_options(parser: argparse.ArgumentParser, per_worker: bool = False) -> None:
    """``--backend``, ``--max-batch`` and ``--queue-size``; a cluster applies
    both counts to each of its workers."""
    scope = " (per worker)" if per_worker else ""
    parser.add_argument("--backend", default=None,
                        help="field backend (default: $REPRO_FIELD_BACKEND or plain)")
    parser.add_argument("--max-batch", type=_positive_int, default=32,
                        help="largest same-scheme batch the crypto thread executes"
                             + scope)
    parser.add_argument("--queue-size", type=_positive_int, default=256,
                        help="accepted requests that may await an answer; "
                             "past it a request is answered OP_OVERLOADED" + scope)


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
    cluster.add_argument("--workers", type=_positive_int, default=2,
                         help="worker processes sharing the port (default: 2)")
    cluster.add_argument("--schemes", default=None,
                         help="comma-separated allowlist (default: whole registry)")
    _add_server_options(cluster, per_worker=True)

    load = commands.add_parser("load", help="drive a server with concurrent clients")
    target = load.add_mutually_exclusive_group()
    target.add_argument("--connect", type=_parse_host_port, default=None,
                        metavar="HOST:PORT",
                        help="load an external server (default: boot one in-process)")
    load.add_argument("--schemes", default=",".join(HEADLINE_SCHEMES),
                      help="comma-separated mix (default: the four headline schemes)")
    load.add_argument("--clients", type=_positive_int, default=8,
                      help="concurrent client connections (default: 8)")
    load.add_argument("--sessions", type=_positive_int, default=None,
                      help="sessions per client per mix (default: 16, quick: 2; "
                           "with --mix: 12, quick: 4)")
    load.add_argument("--quick", action="store_true",
                      help="smoke mode: minimal sessions, still >= 8 concurrent clients")
    load.add_argument("--min-ratio", type=float, default=0.8,
                      help="gate: serve/offline ceilidh-170 throughput floor")
    target.add_argument("--cluster", type=_parse_cluster_counts, default=None,
                        metavar="N[,N...]",
                        help="scaling sweep: run the mixes against a fresh cluster at "
                             "each worker count (1 is prepended as the efficiency "
                             "reference) and print each count's efficiency next to "
                             "the core count")
    load.add_argument("--mix", default=None, metavar="NAME",
                      help="drive the seeded zipf-bursty traffic-model mix (zipf "
                           "popularity, bursty arrivals, secure channels) instead "
                           "of one closed-loop mix per --schemes entry")
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


def _positive_int(raw: str) -> int:
    """A count of at least 1, checked before any socket or process starts."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _parse_host_port(raw: str) -> Tuple[str, int]:
    """``--connect``'s ``HOST:PORT``, checked before any socket opens."""
    host, _, port_text = raw.rpartition(":")
    if not host or not port_text.isdigit() or not 0 < int(port_text) < 65536:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {raw!r}")
    return host, int(port_text)


def _parse_cluster_counts(raw: str) -> List[int]:
    """``--cluster``'s worker counts, sorted, with 1 first."""
    try:
        counts = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        counts = []
    if not counts or counts[0] < 1:
        raise argparse.ArgumentTypeError(
            f"expected positive worker counts N[,N...], got {raw!r}"
        )
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


async def _run_load_command(args) -> int:
    """``load``: one loop over targets and mixes, one printer, one verdict."""
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
    counts = args.cluster or [0]
    schemes = tuple(dict.fromkeys(
        scheme for mix in mixes for scheme in mix.schemes
    ))

    runs: Runs = []
    server: Optional[ServeServer] = None
    for workers in counts:
        cluster = None
        if workers:
            cluster = ClusterSupervisor(
                workers=workers,
                schemes=schemes,
                backend=args.backend,
                max_batch=args.max_batch,
                queue_size=args.queue_size,
            )
            host, port = await cluster.start()
            target = f"{workers} worker(s) at {host}:{port}"
        elif args.connect:
            host, port = args.connect
            target = f"external server at {host}:{port}"
        else:
            server = ServeServer(
                backend=args.backend,
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
        # The gated quantity: requests the crypto thread completed per
        # second of its busy time.  One server-side request is half
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

    return 1 if failed else 0


async def _run_cluster_command(args) -> int:
    from repro.serve.cluster import ClusterSupervisor

    schemes = ([name.strip() for name in args.schemes.split(",") if name.strip()]
               if args.schemes else None)
    supervisor = ClusterSupervisor(
        workers=args.workers,
        host=args.host,
        port=args.port,
        schemes=schemes,
        backend=args.backend,
        max_batch=args.max_batch,
        queue_size=args.queue_size,
    )
    address = await supervisor.start()
    names = ", ".join(sorted(supervisor.preset_keys))
    print(f"repro.serve cluster listening on {address[0]}:{address[1]} "
          f"[{supervisor.workers} workers, pids "
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
        max_batch=args.max_batch,
        queue_size=args.queue_size,
    )
    address = await server.start()
    names = ", ".join(server.scheme_host.scheme_names())
    print(f"repro.serve listening on {address[0]}:{address[1]} "
          f"[{server.scheme_host.backend} backend, one crypto thread] "
          f"serving: {names}")
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
