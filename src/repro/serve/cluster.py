"""Multi-process cluster serving: N workers, one port, one server identity.

The single-process server scales until the GIL caps its thread pool.  The
cluster takes the other axis: **N independent worker processes**, each a
complete :class:`~repro.serve.server.ServeServer` with its own event loop,
scheduler and pool, sharing one public listen port.

Two sharing modes, picked automatically:

* ``reuseport`` — every worker binds the same port with ``SO_REUSEPORT``
  and the kernel balances *connections* across the listeners.  Zero code
  in the data path; the scale-out default wherever the option exists
  (Linux, modern BSDs/macOS).
* ``router`` — a lightweight asyncio front
  (:class:`~repro.serve.router.FrontRouter`) terminates the public port
  and proxies frames to per-worker backend ports, consistent-hashing the
  negotiated scheme onto a worker so same-scheme traffic stays on one warm
  registry instance.  The portable fallback, and the scheme-aware path.

What makes N processes *one server* rather than N servers on a shared
port: the supervisor generates every scheme's long-lived key pair **once**
and hands the same key material to each worker
(:class:`~repro.serve.scheduler.SchemeHost` ``preset_keys``).  All workers
therefore advertise identical ``WELCOME`` public keys, so a client that
reconnects — after a worker crash, a graceful drain, or a rolling
restart — lands on any worker and its cached server identity stays valid.

Lifecycle, run by :class:`ClusterSupervisor`:

* **crash restart** — a monitor polls worker liveness and respawns dead
  workers with bounded exponential backoff (0.1 s doubling to 2 s);
* **graceful drain** — ``SIGTERM`` to a worker triggers
  ``server.stop(drain=True)``: stop accepting, answer everything already
  submitted, refuse late arrivals with explicit ``ERR_UNAVAILABLE``
  frames, flush, exit;
* **rolling restart** — drain and respawn one worker at a time, waiting
  for each replacement to report ready, so the port never stops serving.

Workers are daemonic processes, so a dying supervisor can never leak them;
each runs its batches on a thread pool, and the workers themselves are the
process-level parallelism.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.serve.router import FrontRouter
from repro.serve.server import ServeServer

__all__ = ["WorkerSpec", "ClusterSupervisor", "reuseport_available"]


def reuseport_available() -> bool:
    """Whether this platform exposes ``SO_REUSEPORT`` for kernel balancing."""
    return hasattr(socket, "SO_REUSEPORT")


@dataclass
class WorkerSpec:
    """Everything one worker process needs — picklable, crosses the spawn.

    ``epoch`` increments on every respawn of the same slot; workers tag
    their lifecycle events with it so the supervisor can discard messages
    from a worker generation it already replaced.
    """

    index: int
    epoch: int
    host: str
    port: int
    reuse_port: bool
    schemes: Optional[Tuple[str, ...]]
    backend: Optional[str]
    pool_workers: Optional[int]
    max_batch: int
    queue_size: int
    #: scheme name -> SchemeKeyPair, generated once by the supervisor so
    #: every worker serves the same long-lived server identity.
    preset_keys: Dict[str, Any] = field(default_factory=dict)


async def _worker_serve(spec: WorkerSpec, events) -> None:
    server = ServeServer(
        host=spec.host,
        port=spec.port,
        schemes=spec.schemes,
        backend=spec.backend,
        workers=spec.pool_workers,
        max_batch=spec.max_batch,
        queue_size=spec.queue_size,
        reuse_port=spec.reuse_port,
        preset_keys=spec.preset_keys,
    )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop_event.set)
    host, port = await server.start()
    events.put(("ready", spec.index, spec.epoch, host, port))
    await stop_event.wait()
    # SIGTERM is the graceful path: everything already accepted is answered
    # and flushed before the process exits; late frames get an explicit
    # ERR_UNAVAILABLE, never a silently closed connection.
    await server.stop(drain=True)
    events.put(("drained", spec.index, spec.epoch))


def _worker_main(spec: WorkerSpec, events) -> None:
    """Process entry point (module-level so the spawn context can pickle it)."""
    try:
        asyncio.run(_worker_serve(spec, events))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C on a worker
        pass


def _generate_preset_keys(
    schemes: Optional[Sequence[str]], backend: Optional[str], rng
) -> Dict[str, Any]:
    """Create every served scheme's long-lived key pair, synchronously.

    Runs in an executor thread from the supervisor: lazy per-worker keygen
    would hand each worker a *different* identity and break failover."""
    from repro.serve.scheduler import SchemeHost

    host = SchemeHost(schemes=schemes, backend=backend, rng=rng)
    return {name: host.server_key(name) for name in host.scheme_names()}


class _Worker:
    """Supervisor-side state for one worker slot."""

    __slots__ = (
        "spec", "process", "ready", "address", "phase", "backoff", "restarts"
    )

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.ready = asyncio.Event()
        self.address: Optional[Tuple[str, int]] = None
        self.phase = "stopped"  # stopped | starting | running | restarting
        self.backoff = 0.1
        self.restarts = 0


class ClusterSupervisor:
    """Spawn, monitor and restart N serve workers behind one public port."""

    #: Crash-restart backoff bounds (seconds): doubles from the floor to the
    #: cap, resets to the floor once the replacement reports ready.
    BACKOFF_FLOOR = 0.1
    BACKOFF_CAP = 2.0
    #: How long a spawned worker may take to report ready (imports dominate).
    READY_TIMEOUT = 30.0

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        mode: str = "auto",
        schemes: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        pool_workers: Optional[int] = None,
        max_batch: int = 32,
        queue_size: int = 256,
        rng=None,
        vnodes: int = 64,
    ):
        if workers < 1:
            raise ParameterError("a cluster needs at least one worker")
        if mode not in ("auto", "reuseport", "router"):
            raise ParameterError(f"unknown cluster mode {mode!r}")
        if mode == "reuseport" and not reuseport_available():
            raise ParameterError("SO_REUSEPORT is not available on this platform")
        if schemes is not None:
            # Fail fast on typos: a name the registry does not know would
            # otherwise only surface as an error frame at HELLO time.
            from repro.pkc.registry import available_schemes

            unknown = sorted(set(schemes) - set(available_schemes()))
            if unknown:
                raise ParameterError(
                    f"unknown scheme(s) {unknown}; "
                    f"available: {list(available_schemes())}"
                )
        self.workers = workers
        self.bind_host = host
        self.bind_port = port
        self.requested_mode = mode
        self.mode = mode if mode != "auto" else (
            "reuseport" if reuseport_available() else "router"
        )
        self.schemes = tuple(schemes) if schemes is not None else None
        self.backend = backend
        self.pool_workers = pool_workers
        self.max_batch = max_batch
        self.queue_size = queue_size
        self._rng = rng
        self.preset_keys: Dict[str, Any] = {}
        self.router: Optional[FrontRouter] = None
        self._vnodes = vnodes
        self._ctx = multiprocessing.get_context("spawn")
        self._events: Optional[Any] = None
        self._workers: List[_Worker] = []
        self._anchor: Optional[socket.socket] = None
        self._pump_task: Optional["asyncio.Task"] = None
        self._monitor_task: Optional["asyncio.Task"] = None
        self._restart_tasks: set = set()
        self._stopping = False
        self._started = False

    # -- observability -------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The public ``(host, port)`` clients connect to."""
        if not self._started:
            raise ParameterError("cluster is not running")
        if self.mode == "router":
            assert self.router is not None
            return self.router.address
        return self.bind_host, self.bind_port

    @property
    def total_restarts(self) -> int:
        return sum(worker.restarts for worker in self._workers)

    def worker_pids(self) -> List[Optional[int]]:
        return [
            worker.process.pid if worker.process is not None else None
            for worker in self._workers
        ]

    def worker_phases(self) -> List[str]:
        return [worker.phase for worker in self._workers]

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        if self._started:
            raise ParameterError("cluster already started")
        self._stopping = False
        loop = asyncio.get_running_loop()
        # Key generation is the one genuinely heavy start-up step; it runs
        # off the loop so a supervisor embedded in a larger process (tests,
        # the CLI's bench sweep) stays responsive.
        self.preset_keys = await loop.run_in_executor(
            None, _generate_preset_keys, self.schemes, self.backend, self._rng
        )
        self._events = self._ctx.Queue()
        if self.mode == "reuseport":
            # Resolve port 0 once and hold the bound (never listening)
            # socket for the cluster's lifetime: TCP lookup only considers
            # listeners, so the anchor never receives traffic, but it keeps
            # the port reserved across worker restarts.
            self._anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._anchor.bind((self.bind_host, self.bind_port))
            self.bind_port = self._anchor.getsockname()[1]
        else:
            self.router = FrontRouter(
                host=self.bind_host,
                port=self.bind_port,
                workers=self.workers,
                vnodes=self._vnodes,
            )
        self._workers = [
            _Worker(self._make_spec(index, epoch=0)) for index in range(self.workers)
        ]
        self._pump_task = loop.create_task(self._pump_events())
        for worker in self._workers:
            self._spawn(worker)
        try:
            await asyncio.gather(
                *(self._wait_ready(worker) for worker in self._workers)
            )
        except Exception:
            await self.stop(drain=False)
            raise
        if self.router is not None:
            await self.router.start()
        self._monitor_task = loop.create_task(self._monitor())
        self._started = True
        return self.address

    async def stop(self, drain: bool = True) -> None:
        """Stop the cluster.  ``drain=True`` SIGTERMs workers (graceful:
        in-flight requests answered and flushed); ``drain=False`` kills."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*self._restart_tasks, return_exceptions=True)
        for worker in self._workers:
            process = worker.process
            if process is None or not process.is_alive():
                continue
            if drain:
                assert process.pid is not None
                os.kill(process.pid, signal.SIGTERM)
            else:
                process.kill()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            await loop.run_in_executor(None, process.join, 15.0)
            if process.is_alive():  # pragma: no cover - drain wedged
                process.kill()
                await loop.run_in_executor(None, process.join, 5.0)
            worker.phase = "stopped"
        if self.router is not None:
            await self.router.stop()
            self.router = None
        if self._events is not None:
            self._events.put(None)  # releases the pump's blocking get
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        if self._events is not None:
            self._events.close()
            self._events = None
        if self._anchor is not None:
            self._anchor.close()
            self._anchor = None
        self._started = False

    async def __aenter__(self) -> "ClusterSupervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def rolling_restart(self) -> None:
        """Drain and replace one worker at a time; the port never goes dark."""
        if not self._started:
            raise ParameterError("cluster is not running")
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            worker.phase = "restarting"  # the monitor must not race us
            if self.router is not None:
                self.router.remove_backend(worker.spec.index)
            process = worker.process
            if process is not None and process.is_alive():
                assert process.pid is not None
                os.kill(process.pid, signal.SIGTERM)
                await loop.run_in_executor(None, process.join, 15.0)
                if process.is_alive():  # pragma: no cover - drain wedged
                    process.kill()
                    await loop.run_in_executor(None, process.join, 5.0)
            self._respawn(worker)
            await self._wait_ready(worker)

    async def kill_worker(self, index: int) -> None:
        """SIGKILL one worker — the crash the monitor exists to absorb.

        Test helper: after this returns, the monitor notices the death,
        removes the worker from routing, and respawns it with backoff."""
        worker = self._workers[index]
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            await asyncio.get_running_loop().run_in_executor(
                None, worker.process.join, 5.0
            )

    # -- internals -----------------------------------------------------------------

    def _make_spec(self, index: int, epoch: int) -> WorkerSpec:
        if self.mode == "reuseport":
            host, port, reuse = self.bind_host, self.bind_port, True
        else:
            # Router mode: each worker binds its own ephemeral backend port
            # on loopback; only the front's port is public.
            host, port, reuse = "127.0.0.1", 0, False
        return WorkerSpec(
            index=index,
            epoch=epoch,
            host=host,
            port=port,
            reuse_port=reuse,
            schemes=self.schemes,
            backend=self.backend,
            pool_workers=self.pool_workers,
            max_batch=self.max_batch,
            queue_size=self.queue_size,
            preset_keys=self.preset_keys,
        )

    def _spawn(self, worker: _Worker) -> None:
        worker.ready = asyncio.Event()
        worker.address = None
        worker.phase = "starting"
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker.spec, self._events),
            daemon=True,
            name=f"repro-serve-w{worker.spec.index}e{worker.spec.epoch}",
        )
        process.start()
        worker.process = process

    def _respawn(self, worker: _Worker) -> None:
        worker.spec = self._make_spec(worker.spec.index, worker.spec.epoch + 1)
        worker.restarts += 1
        self._spawn(worker)

    async def _wait_ready(self, worker: _Worker) -> None:
        await asyncio.wait_for(worker.ready.wait(), timeout=self.READY_TIMEOUT)

    async def _pump_events(self) -> None:
        """Forward worker lifecycle events from the mp queue into the loop."""
        assert self._events is not None
        loop = asyncio.get_running_loop()
        while True:
            try:
                event = await loop.run_in_executor(None, self._events.get)
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            if event is None:  # stop() sentinel
                return
            kind, index, epoch = event[0], event[1], event[2]
            worker = self._workers[index]
            if epoch != worker.spec.epoch:
                continue  # stale message from a replaced generation
            if kind == "ready":
                worker.address = (event[3], event[4])
                worker.phase = "running"
                worker.backoff = self.BACKOFF_FLOOR
                worker.ready.set()
                if self.router is not None:
                    self.router.set_backend(index, worker.address)

    async def _monitor(self) -> None:
        """Notice dead workers and restart them with bounded backoff."""
        while True:
            await asyncio.sleep(0.05)
            if self._stopping:
                return
            for worker in self._workers:
                if worker.phase not in ("starting", "running"):
                    continue
                process = worker.process
                if process is None or process.is_alive():
                    continue
                worker.phase = "restarting"
                if self.router is not None:
                    self.router.remove_backend(worker.spec.index)
                task = asyncio.get_running_loop().create_task(
                    self._restart_after_crash(worker)
                )
                self._restart_tasks.add(task)
                task.add_done_callback(self._restart_tasks.discard)

    async def _restart_after_crash(self, worker: _Worker) -> None:
        delay = worker.backoff
        worker.backoff = min(worker.backoff * 2, self.BACKOFF_CAP)
        await asyncio.sleep(delay)
        if self._stopping:
            return
        self._respawn(worker)
        try:
            await self._wait_ready(worker)
        except asyncio.TimeoutError:  # pragma: no cover - spawn wedged
            # Leave phase as "starting"; the monitor sees the dead process
            # (if it died) and schedules another attempt with more backoff.
            pass
