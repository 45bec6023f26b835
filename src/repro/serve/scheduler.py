"""The request scheduler: bounded queue, same-scheme batching, worker pool.

The server's event loop must never run group arithmetic — a single 1024-bit
RSA decryption would stall every connection for tens of milliseconds.  The
scheduler is the boundary: connection handlers :meth:`~BatchScheduler.submit`
decoded requests into one **bounded** queue (a full queue raises
:class:`~repro.errors.OverloadedError` immediately — explicit backpressure,
never unbounded buffering), and a dispatcher drains the queue in rounds,
groups what it drained by ``(scheme, backend, kind)`` and ships each group
to a worker pool as **one batch**.

Batching is where the offline harness's amortisation argument carries over
to the online path: a batch executes as a single loop of
:func:`repro.serve.session.serve_request` calls over one warm scheme
instance, so the fixed-base generator tables and the long-lived server key
are touched exactly as in ``run_batch`` — per-request cost approaches the
offline steady state as batches fill.  A per-group lock keeps two batches
of the same group from running concurrently (scheme instances cache state
and are not reentrant); *different* schemes run in parallel across the
pool.

Batches run on a thread pool, which shares the registry's warm instances
with no serialisation cost; multi-core serving is the cluster's job
(:mod:`repro.serve.cluster`).  The pool respects the field backend the
host was built with, so ``REPRO_FIELD_BACKEND=montgomery`` steers the
online path onto the resident-Montgomery substrate like every other layer.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    OverloadedError,
    ParameterError,
    ProtocolError,
    ReproError,
    UnavailableError,
    UnsupportedOperationError,
)
from repro.serve.protocol import ERR_BAD_REQUEST, ERR_INTERNAL, ERR_UNSUPPORTED
from repro.serve.session import serve_request, serve_request_batch

__all__ = [
    "SchemeHost",
    "GroupStats",
    "SchedulerStats",
    "BatchScheduler",
    "classify_error",
]


class SchemeHost:
    """Long-lived scheme instances and server key pairs, shared and thread-safe.

    One host backs one server: it pins the field backend (resolved once,
    ``REPRO_FIELD_BACKEND`` honoured), optionally restricts the registry to
    an allowlist, and creates each scheme's long-lived server key pair
    lazily on first use — the fixed cost every later batch amortises.  An
    injected seeded ``rng`` makes the server keys reproducible for tests.
    """

    def __init__(
        self,
        schemes: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        rng=None,
        preset_keys: "Optional[Dict[str, Any]]" = None,
    ):
        from repro.field.backend import default_backend_name

        self.backend = default_backend_name(backend)
        self._allow = frozenset(schemes) if schemes is not None else None
        self._rng = rng
        # ``preset_keys`` installs externally created long-lived key pairs
        # (scheme name -> SchemeKeyPair).  Cluster workers receive the
        # supervisor's keys this way so every worker advertises the *same*
        # server identity — a client failing over to another worker keeps a
        # valid cached public key.
        self._keys: Dict[str, Any] = dict(preset_keys) if preset_keys else {}
        # Key creation is locked *per scheme*: a slow first keygen (RSA's
        # lazy key material) must never block another scheme's cached-key
        # lookup — the event loop touches this from _run_batch.
        self._scheme_locks: Dict[str, threading.Lock] = {}
        self._lock = threading.Lock()

    def allowed(self, name: str) -> bool:
        from repro.pkc.registry import available_schemes

        if self._allow is not None:
            return name in self._allow
        return name in available_schemes()

    def scheme_names(self) -> Tuple[str, ...]:
        from repro.pkc.registry import available_schemes

        names = available_schemes()
        if self._allow is not None:
            names = tuple(name for name in names if name in self._allow)
        return names

    def scheme(self, name: str):
        """The warm registry instance for ``name`` on this host's backend."""
        from repro.pkc.registry import get_scheme

        if not self.allowed(name):
            raise ParameterError(
                f"scheme {name!r} is not served here; available: {list(self.scheme_names())}"
            )
        return get_scheme(name, backend=self.backend)

    def server_key(self, name: str):
        """The long-lived server key pair for ``name`` (created on first use)."""
        with self._lock:
            key = self._keys.get(name)
            if key is not None:
                return key
            scheme_lock = self._scheme_locks.setdefault(name, threading.Lock())
        with scheme_lock:  # only first use of *this* scheme pays the keygen
            with self._lock:
                key = self._keys.get(name)
            if key is None:
                key = self.scheme(name).keygen(self._rng)
                with self._lock:
                    self._keys[name] = key
            return key


def classify_error(exc: BaseException) -> Tuple[int, str]:
    """Map an exception from request execution onto a wire error code."""
    if isinstance(exc, UnsupportedOperationError):
        return ERR_UNSUPPORTED, str(exc)
    if isinstance(exc, (ReproError, ValueError)):
        # Scheme-level rejections of malformed input (bad point, bad
        # ciphertext, wrong length, protocol parse failures) are the
        # client's fault, not the server's.
        return ERR_BAD_REQUEST, str(exc)
    return ERR_INTERNAL, f"{type(exc).__name__}: {exc}"


#: One executed request: ``(ok, opcode-or-error-code, payload bytes)``.
_BatchItemResult = Tuple[bool, int, bytes]


def _execute_batch(
    scheme, server_key, kind: str, payloads: Sequence[bytes]
) -> Tuple[List[_BatchItemResult], float, bool]:
    """Run one same-group batch synchronously; returns results, busy seconds
    and whether the batch executed coalesced.

    Multi-request groups of a batchable kind first try the coalesced path
    (:func:`repro.serve.session.serve_request_batch`), which routes key
    agreements and signatures through the schemes' vectorised entry points.
    Every other kind runs the per-item loop directly, and a coalesced
    attempt that raised falls back to it, so each request answers
    individually (success frame or error frame) and per-item failures never
    poison the batch — matching how the offline harness treats sessions as
    independent.
    """
    started = time.perf_counter()
    if len(payloads) > 1:
        try:
            responses = serve_request_batch(scheme, server_key, kind, payloads)
        except Exception:  # noqa: BLE001 - re-run per item for exact frames
            responses = None
        if responses is not None:
            results = [(True, opcode, response) for opcode, response in responses]
            return results, time.perf_counter() - started, True
    results = []
    for payload in payloads:
        try:
            opcode, response = serve_request(scheme, server_key, kind, payload)
            results.append((True, opcode, response))
        except Exception as exc:  # noqa: BLE001 - classified onto the wire
            code, detail = classify_error(exc)
            results.append((False, code, detail.encode("utf-8")))
    return results, time.perf_counter() - started, False


@dataclass
class GroupStats:
    """Serving counters for one ``(scheme, kind)`` request group."""

    served: int = 0
    errors: int = 0
    batches: int = 0
    #: Batches that executed on the coalesced path (shared batch inversion
    #: per group round) rather than the per-item loop.
    coalesced: int = 0
    #: Executor-side wall seconds actually spent executing this group's
    #: batches — the denominator of the batched server-side throughput.
    busy_seconds: float = 0.0
    largest_batch: int = 0

    @property
    def served_per_second(self) -> float:
        """Batched server-side throughput: requests per busy second."""
        return self.served / self.busy_seconds if self.busy_seconds > 0 else 0.0

    @property
    def requests_per_batch(self) -> float:
        return (self.served + self.errors) / self.batches if self.batches else 0.0


@dataclass
class SchedulerStats:
    """Aggregate and per-group scheduler counters."""

    submitted: int = 0
    rejected: int = 0
    served: int = 0
    errors: int = 0
    batches: int = 0
    groups: Dict[Tuple[str, str], GroupStats] = field(default_factory=dict)

    def group(self, scheme_name: str, kind: str) -> GroupStats:
        return self.groups.setdefault((scheme_name, kind), GroupStats())


@dataclass
class _WorkItem:
    group: Tuple[str, str]  # (scheme name, kind); the backend is host-wide
    payload: bytes
    future: "asyncio.Future"


class BatchScheduler:
    """Bounded-queue batching dispatcher over a thread pool."""

    def __init__(
        self,
        host: SchemeHost,
        workers: Optional[int] = None,
        max_batch: int = 32,
        queue_size: int = 256,
    ):
        if max_batch < 1:
            raise ParameterError("max_batch must be at least 1")
        if queue_size < 1:
            raise ParameterError("queue_size must be at least 1")
        self.host = host
        self.workers = workers or min(4, os.cpu_count() or 1)
        self.max_batch = max_batch
        self.queue_size = queue_size
        self.stats = SchedulerStats()
        self._draining = False
        self._queue: "Optional[asyncio.Queue[_WorkItem]]" = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._dispatcher: Optional["asyncio.Task"] = None
        # Keyed by scheme name, not (scheme, kind): a scheme instance caches
        # state (lazy generator tables, Montgomery domains) and is not
        # guaranteed reentrant, so no two batches touching the same instance
        # may execute concurrently — whatever their kinds.
        self._scheme_batch_locks: Dict[str, "asyncio.Lock"] = {}
        self._group_tasks: set = set()

    async def start(self) -> None:
        if self._dispatcher is not None:
            raise ParameterError("scheduler already started")
        self._draining = False
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.get_running_loop().create_task(self._dispatch_loop())

    async def stop(self, drain: bool = False) -> None:
        """Stop the scheduler; with ``drain=True``, answer everything first.

        A plain stop cancels whatever is still queued — acceptable only
        when the connection handlers awaiting those futures are being torn
        down in the same breath.  A *graceful drain* instead refuses new
        submissions (:class:`~repro.errors.UnavailableError`) and waits for
        every already-enqueued request to execute and resolve its future,
        so no accepted request ever dies with a silently closed connection.
        """
        if drain and self._queue is not None:
            self._draining = True
            # Every accepted item ends in ``served`` or ``errors`` (rejected
            # submissions never increment ``submitted``), so the pending
            # count is exact and race-free — the dispatcher never parks
            # drained items anywhere the counters cannot see.
            while self.stats.submitted > self.stats.served + self.stats.errors:
                await asyncio.sleep(0.005)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._group_tasks:
            await asyncio.gather(*self._group_tasks, return_exceptions=True)
        if self._queue is not None:
            while not self._queue.empty():
                item = self._queue.get_nowait()
                # Cancel, don't set_exception: the awaiting connection
                # handlers are already gone at shutdown, and a cancelled
                # future never logs "exception was never retrieved".
                item.future.cancel()
            self._queue = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def submit(
        self, scheme_name: str, kind: str, payload: bytes
    ) -> _BatchItemResult:
        """Queue one request; await its result.

        Raises :class:`~repro.errors.OverloadedError` *immediately* when the
        bounded queue is full — the connection handler turns that into an
        ``OP_OVERLOADED`` frame so the client sees explicit backpressure
        rather than unbounded latency — and
        :class:`~repro.errors.UnavailableError` once a graceful drain has
        begun (answered as an explicit ``ERR_UNAVAILABLE`` error frame, so
        the peer reconnects to a live worker instead of waiting).
        """
        if self._draining:
            raise UnavailableError("scheduler is draining; reconnect elsewhere")
        if self._queue is None:
            raise ParameterError("scheduler is not running")
        item = _WorkItem(
            group=(scheme_name, kind),
            payload=payload,
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            raise OverloadedError(
                f"request queue full ({self.queue_size} pending)"
            ) from None
        self.stats.submitted += 1
        return await item.future

    # -- dispatch ---------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue in rounds; group and ship each round's requests."""
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            round_items = [first]
            while len(round_items) < self.queue_size:
                try:
                    round_items.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            grouped: Dict[Tuple[str, str], List[_WorkItem]] = {}
            for item in round_items:
                grouped.setdefault(item.group, []).append(item)
            for group, items in grouped.items():
                # Batches honour max_batch; groups run as independent tasks
                # so one slow scheme never serialises the others.
                for start in range(0, len(items), self.max_batch):
                    batch = items[start : start + self.max_batch]
                    task = asyncio.get_running_loop().create_task(
                        self._run_batch(group, batch)
                    )
                    self._group_tasks.add(task)
                    task.add_done_callback(self._group_tasks.discard)

    async def _run_batch(
        self, group: Tuple[str, str], items: List[_WorkItem]
    ) -> None:
        scheme_name, kind = group
        lock = self._scheme_batch_locks.setdefault(scheme_name, asyncio.Lock())
        async with lock:  # same-scheme batches never run concurrently
            try:
                loop = asyncio.get_running_loop()
                # The key already exists (HELLO created it before any request
                # could be submitted), so these are cached lookups, and the
                # per-scheme creation lock means they can never stall the
                # event loop behind another scheme's slow first keygen.
                scheme = self.host.scheme(scheme_name)
                server_key = self.host.server_key(scheme_name)  # audit: allow[RC204] memoized after HELLO; steady state is a dict hit under a lock
                results, busy, coalesced = await loop.run_in_executor(
                    self._executor,
                    _execute_batch,
                    scheme,
                    server_key,
                    kind,
                    [item.payload for item in items],
                )
            except Exception as exc:  # noqa: BLE001 - fan the failure out
                code, detail = classify_error(exc)
                for item in items:
                    if not item.future.done():
                        item.future.set_result((False, code, detail.encode("utf-8")))
                stats = self.stats.group(scheme_name, kind)
                stats.errors += len(items)
                self.stats.errors += len(items)
                return
        stats = self.stats.group(scheme_name, kind)
        stats.batches += 1
        stats.coalesced += 1 if coalesced else 0
        stats.busy_seconds += busy
        stats.largest_batch = max(stats.largest_batch, len(items))
        self.stats.batches += 1
        for item, result in zip(items, results):
            ok = result[0]
            stats.served += 1 if ok else 0
            stats.errors += 0 if ok else 1
            self.stats.served += 1 if ok else 0
            self.stats.errors += 0 if ok else 1
            if not item.future.done():
                item.future.set_result(result)
