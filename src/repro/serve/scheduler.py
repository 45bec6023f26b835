"""The request scheduler: bounded admission, same-scheme batching, one crypto thread.

The server's event loop must never run group arithmetic — a single 1024-bit
RSA decryption would stall every connection for tens of milliseconds.  The
scheduler is the boundary: connection handlers :meth:`~BatchScheduler.submit`
decoded requests, and admission counts every accepted request that has no
answer yet — queued or executing — against ``queue_size``.  Past that count
:meth:`~BatchScheduler.check_admission` (which ``submit`` runs first)
raises :class:`~repro.errors.OverloadedError` at once (the server answers
``OP_OVERLOADED``), so no accepted request waits behind more than
``queue_size`` others: explicit backpressure, never unbounded buffering.

Accepted requests go through one ``queue.SimpleQueue`` to one long-lived
crypto thread.  It drains whatever is pending, groups it by ``(scheme,
kind)`` into batches of at most ``max_batch`` and hands each batch's
results back to the loop with one ``call_soon_threadsafe``.  Batching is
where the offline harness's amortisation argument carries over to the
online path: a batch executes as a single loop of
:func:`repro.serve.session.serve_request` calls over one warm scheme
instance, so the fixed-base generator tables and the long-lived server key
are touched exactly as in ``run_batch``.  One thread also means no two
batches ever touch a scheme instance (which caches state and is not
reentrant) at once, with no lock to say so.

Under the interpreter lock a second crypto thread would add no CPU, only
hand-offs; multi-core serving is the cluster's job
(:mod:`repro.serve.cluster`).  The thread respects the field backend the
host was built with, so ``REPRO_FIELD_BACKEND=montgomery`` steers the
online path onto the resident-Montgomery substrate like every other layer.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import OverloadedError, ParameterError, UnavailableError
from repro.serve.protocol import classify_error
from repro.serve.session import serve_request, serve_request_batch

__all__ = [
    "SchemeHost",
    "GroupStats",
    "SchedulerStats",
    "BatchScheduler",
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
        # lazy key material) in a HELLO must never block another scheme's
        # cached-key lookup on the crypto thread.
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
    #: Crypto-thread wall seconds actually spent executing this group's
    #: batches — the denominator of the batched server-side throughput.
    busy_seconds: float = 0.0
    largest_batch: int = 0

    @property
    def served_per_second(self) -> float:
        """Batched server-side throughput: requests per busy second."""
        return self.served / self.busy_seconds if self.busy_seconds > 0 else 0.0


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


#: One accepted request on its way to the crypto thread:
#: ``(scheme name, kind, payload, future)``; ``None`` asks the thread to exit.
_Request = Tuple[str, str, bytes, "asyncio.Future"]


class BatchScheduler:
    """Admission-bounded batching in front of one crypto thread."""

    def __init__(
        self,
        host: SchemeHost,
        max_batch: int = 32,
        queue_size: int = 256,
    ):
        if max_batch < 1:
            raise ParameterError("max_batch must be at least 1")
        if queue_size < 1:
            raise ParameterError("queue_size must be at least 1")
        self.host = host
        self.max_batch = max_batch
        self.queue_size = queue_size
        self.stats = SchedulerStats()
        self._draining = False
        #: Accepted requests not yet answered; admission bounds this count.
        self._pending = 0
        self._requests: "Optional[queue.SimpleQueue[Optional[_Request]]]" = None
        self._thread: Optional[threading.Thread] = None

    async def start(self) -> None:
        if self._thread is not None:
            raise ParameterError("scheduler already started")
        self._draining = False
        self._requests = queue.SimpleQueue()
        # Daemonic so a process that never stops the scheduler can still
        # exit; stop() joins it.
        self._thread = threading.Thread(
            target=self._crypto_loop,
            args=(self._requests, asyncio.get_running_loop()),
            name="repro-serve-crypto",
            daemon=True,
        )
        self._thread.start()

    async def stop(self, drain: bool = False) -> None:
        """Stop the scheduler and join its thread; with ``drain=True``,
        answer everything first.

        A plain stop cancels every accepted request the crypto thread has
        not drained yet — acceptable only when the connection handlers
        awaiting those futures are being torn down in the same breath.  A
        *graceful drain* instead refuses new submissions
        (:class:`~repro.errors.UnavailableError`) and waits for every
        accepted request to execute and resolve its future, so no accepted
        request ever dies with a silently closed connection.
        """
        if drain and self._thread is not None:
            self._draining = True
            while self._pending:
                await asyncio.sleep(0.005)
        thread, requests = self._thread, self._requests
        if thread is None or requests is None:
            return
        self._thread = self._requests = None
        requests.put(None)  # last in: submit() refuses from here on
        await asyncio.get_running_loop().run_in_executor(None, thread.join)

    def check_admission(self) -> None:
        """Raise the refusal a submission would get now, if any.

        :class:`~repro.errors.UnavailableError` once a graceful drain has
        begun (the server answers ``ERR_UNAVAILABLE`` and closes, so the
        peer reconnects to a live worker instead of waiting), and
        :class:`~repro.errors.OverloadedError`, counted in
        ``stats.rejected``, while ``queue_size`` accepted requests are
        still unanswered (``OP_OVERLOADED``: explicit backpressure rather
        than unbounded latency).  The server calls this before it does any
        work for a request and submits with no ``await`` in between, so
        :meth:`submit`'s own call gives the same answer.
        """
        if self._draining:
            raise UnavailableError("scheduler is draining; reconnect elsewhere")
        if self._pending >= self.queue_size:
            self.stats.rejected += 1
            raise OverloadedError(
                f"{self._pending} requests pending (limit {self.queue_size})"
            )

    async def submit(
        self, scheme_name: str, kind: str, payload: bytes
    ) -> _BatchItemResult:
        """Admit one request (:meth:`check_admission`); await its result."""
        self.check_admission()
        if self._requests is None:
            raise ParameterError("scheduler is not running")
        future = asyncio.get_running_loop().create_future()
        self._pending += 1
        self.stats.submitted += 1
        self._requests.put((scheme_name, kind, payload, future))
        return await future

    # -- the crypto thread --------------------------------------------------------

    def _crypto_loop(
        self, requests: "queue.SimpleQueue[Optional[_Request]]", loop
    ) -> None:
        """Drain, group by ``(scheme, kind)``, execute, hand results back."""
        while True:
            drained: List[Any] = [requests.get()]  # _Request items, or None
            while True:
                try:
                    drained.append(requests.get_nowait())
                except queue.Empty:
                    break
            if drained[-1] is None:  # stop(): nothing was queued after it
                loop.call_soon_threadsafe(self._cancel, drained[:-1])
                return
            groups: Dict[Tuple[str, str], List[_Request]] = {}
            for request in drained:
                groups.setdefault(request[:2], []).append(request)
            for (scheme_name, kind), requests_in_group in groups.items():
                for start in range(0, len(requests_in_group), self.max_batch):
                    batch = requests_in_group[start : start + self.max_batch]
                    outcome = self._execute(scheme_name, kind, batch)
                    loop.call_soon_threadsafe(
                        self._answer, scheme_name, kind, batch, *outcome
                    )

    def _execute(
        self, scheme_name: str, kind: str, batch: List[_Request]
    ) -> Tuple[List[_BatchItemResult], float, bool]:
        try:
            # HELLO created the key before any request could be submitted,
            # so both lookups are cached.
            scheme = self.host.scheme(scheme_name)
            server_key = self.host.server_key(scheme_name)
            return _execute_batch(
                scheme, server_key, kind, [request[2] for request in batch]
            )
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            code, detail = classify_error(exc)
            return [(False, code, detail.encode("utf-8"))] * len(batch), 0.0, False

    # -- back on the event loop ---------------------------------------------------

    def _answer(
        self,
        scheme_name: str,
        kind: str,
        batch: List[_Request],
        results: List[_BatchItemResult],
        busy: float,
        coalesced: bool,
    ) -> None:
        self._pending -= len(batch)
        stats = self.stats.group(scheme_name, kind)
        stats.batches += 1
        stats.coalesced += 1 if coalesced else 0
        stats.busy_seconds += busy
        stats.largest_batch = max(stats.largest_batch, len(batch))
        self.stats.batches += 1
        for request, result in zip(batch, results):
            ok = result[0]
            stats.served += 1 if ok else 0
            stats.errors += 0 if ok else 1
            self.stats.served += 1 if ok else 0
            self.stats.errors += 0 if ok else 1
            future = request[3]
            if not future.done():  # its submitter may have been cancelled
                future.set_result(result)

    def _cancel(self, requests: List[_Request]) -> None:
        self._pending -= len(requests)
        for request in requests:
            # Cancel, don't set_exception: the awaiting connection handlers
            # are already gone at shutdown, and a cancelled future never
            # logs "exception was never retrieved".
            request[3].cancel()
