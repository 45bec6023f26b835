"""The traffic engine: compile a mix into schedules, drive a live server.

:func:`run_traffic` is the repository's one load generator: every client
walks its own seeded schedule drawn from a
:class:`~repro.traffic.model.TrafficMix`.  A preset mix gives Zipf-weighted
scheme choice, channel sessions interleaved with one-shot operations and
bursty pacing, so the server sees overlapping mixed-scheme pressure with
realistic think time; a :func:`~repro.traffic.model.one_shot_mix` gives
every client one operation back to back, the closed-loop capacity run.

**Accounting is strict.**  Every engine-level request increments
``submitted`` and must end as exactly one of ``responses`` (a verified
success) or ``explicit_errors`` (a refusal the server chose to send: quota,
overload).  Anything else raises out of the engine — the run fails loudly,
the counters are asserted equal by callers and tests, and a silently
dropped request is therefore structurally impossible to miss.

**Every refusal is retried in one loop and counted.**  The client raises
each refusal wherever it hits — a one-shot request, a channel open, a
record, a rekey, a reopen — and keeps what it sealed, so
:func:`_with_refusal_retries` counts it in ``explicit_errors`` (and
``rejected_quota`` or ``overload_rejections``) and resends.  Recoveries
performed under the covers (transparent rekeys; reconnects after a worker
crash, drain or rolling restart, all through
:meth:`~repro.serve.client.ServeClient.reconnecting`) are surfaced as
counters, not hidden.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import OverloadedError, ParameterError, ProtocolError, QuotaError
from repro.perf.latency import LatencyHistogram
from repro.serve.client import ChannelSession, ServeClient
from repro.traffic.model import TrafficMix

__all__ = [
    "TrafficEntry",
    "TrafficReport",
    "run_traffic",
    "CHANNEL_OPEN",
    "CHANNEL_MESSAGE",
]

#: Entry kinds the engine records for channel traffic (one-shot operations
#: keep their operation names as kinds).
CHANNEL_OPEN = "channel-open"
CHANNEL_MESSAGE = "channel-message"

#: One-shot operation name -> the ServeClient session coroutine that runs it.
SESSION_METHODS = {
    "key-agreement": "key_agreement_session",
    "encryption": "encryption_session",
    "signature": "signature_session",
}

#: How many times one engine-level request retries after a refusal before
#: the run fails.
REFUSAL_RETRIES = 400
#: Pause after an explicit refusal (seconds) — long enough for the default
#: token bucket (512 tokens/s) to refill a few tokens.
REFUSAL_BACKOFF = 0.01


@dataclass
class TrafficEntry:
    """Aggregated outcome of one ``(scheme, kind)`` traffic cell."""

    scheme: str
    kind: str
    count: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Explicit refusals attributed to this cell (quota + overload frames).
    refusals: int = 0

    @property
    def key(self) -> str:
        return f"{self.scheme}:{self.kind}"

    def rate(self, wall_seconds: float) -> float:
        """Completions per second of *run* wall clock (the cells share it)."""
        return self.count / wall_seconds if wall_seconds > 0 else 0.0


@dataclass
class TrafficReport:
    """Everything one :func:`run_traffic` run measured."""

    mix: str
    clients: int
    seed: int
    entries: Dict[str, TrafficEntry] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Engine-level requests started (each ends as a response or an
    #: explicit error; the engine raises on anything else).
    submitted: int = 0
    #: Verified successes.
    responses: int = 0
    #: Refusals the server chose to send (quota + overload).
    explicit_errors: int = 0
    rejected_quota: int = 0
    overload_rejections: int = 0
    channels_opened: int = 0
    channel_messages: int = 0
    rekeys: int = 0
    #: Worker-lifecycle recoveries (crash, drain, rolling restart): lost
    #: connections replaced.  Client-invisible.
    reopens: int = 0
    oneshots: int = 0

    def entry(self, scheme: str, kind: str) -> TrafficEntry:
        key = f"{scheme}:{kind}"
        found = self.entries.get(key)
        if found is None:
            found = self.entries[key] = TrafficEntry(scheme, kind)
        return found

    @property
    def accounted(self) -> bool:
        """The strict accounting identity the acceptance tests assert."""
        return self.submitted == self.responses + self.explicit_errors

    def handshake_histogram(self) -> LatencyHistogram:
        """Latencies of every channel handshake (the amortised cost)."""
        merged = LatencyHistogram()
        for entry in self.entries.values():
            if entry.kind == CHANNEL_OPEN:
                merged.merge(entry.histogram)
        return merged

    def steady_state_histogram(self) -> LatencyHistogram:
        """Latencies of every channel record (the steady-state cost)."""
        merged = LatencyHistogram()
        for entry in self.entries.values():
            if entry.kind == CHANNEL_MESSAGE:
                merged.merge(entry.histogram)
        return merged


@dataclass(frozen=True)
class _PlannedSession:
    """One schedule slot: a scheme plus what to do on it."""

    scheme: str
    kind: str  # "channel" or a one-shot operation name
    messages: int = 0  # channel record count (channels only)


def compile_schedule(
    mix: TrafficMix, rng: "random.Random", sessions: int, capabilities
) -> List[_PlannedSession]:
    """Draw one client's session schedule from the mix.

    Pure given the rng — the schedule (schemes, kinds, channel lengths) is
    fixed before any socket exists, so wire timing never perturbs *what*
    the run does, only how fast it completes.

    ``capabilities`` maps scheme name -> capability tuple, used to restrict
    one-shot draws to operations the scheme implements.
    """
    planned = []
    for _ in range(sessions):
        scheme = mix.pick_scheme(rng)
        kind = mix.pick_session_kind(rng, capabilities[scheme])
        if kind == "channel":
            planned.append(
                _PlannedSession(
                    scheme, "channel", messages=mix.channels.message_count(rng)
                )
            )
        else:
            planned.append(_PlannedSession(scheme, kind))
    return planned


async def _with_refusal_retries(report, entry, attempt, *args) -> None:
    """Run one engine-level request, ``attempt(*args)``; retry every refusal.

    The one refusal loop.  Each attempt is one ``submitted``; a
    quota/overload refusal is one ``explicit_errors`` (the server answered
    — nothing was dropped) and the request is retried after a pause.
    Success records the latency.  Any other exception propagates: the run
    must fail loudly on real errors.
    """
    for _ in range(REFUSAL_RETRIES):
        report.submitted += 1
        try:
            latency = await attempt(*args)
        except QuotaError:
            report.explicit_errors += 1
            report.rejected_quota += 1
            entry.refusals += 1
            await asyncio.sleep(REFUSAL_BACKOFF)
            continue
        except OverloadedError:
            report.explicit_errors += 1
            report.overload_rejections += 1
            entry.refusals += 1
            await asyncio.sleep(REFUSAL_BACKOFF)
            continue
        report.responses += 1
        entry.count += 1
        entry.histogram.add(latency)
        return
    raise ProtocolError(
        f"{entry.key}: still refused after {REFUSAL_RETRIES} explicit "
        f"quota/overload answers"
    )


async def _run_channel_session(
    client: ServeClient,
    planned: _PlannedSession,
    mix: TrafficMix,
    rng: "random.Random",
    report: TrafficReport,
) -> None:
    """One channel lifetime: open, N records with think time, close."""
    profile = mix.channels
    session = ChannelSession(
        client, rng=rng, rekey_after_messages=profile.rekey_after_messages
    )
    await _with_refusal_retries(
        report,
        report.entry(planned.scheme, CHANNEL_OPEN),
        client.reconnecting,
        planned.scheme,
        session.open,
    )
    report.channels_opened += 1

    entry = report.entry(planned.scheme, CHANNEL_MESSAGE)
    for index in range(planned.messages):
        payload = rng.randbytes(profile.payload_bytes)
        await _with_refusal_retries(report, entry, session.send, payload)
        report.channel_messages += 1
        if profile.think_seconds > 0 and index + 1 < planned.messages:
            await asyncio.sleep(profile.think_seconds)
    report.rekeys += session.rekeys

    # Close is best-effort bookkeeping, not a measured request: a crash
    # between the last record and the close frame just leaves the channel
    # to idle eviction.
    try:
        await session.close()
    except Exception:  # noqa: BLE001 - the channel is done either way
        await client.close()


async def _run_oneshot_session(
    client: ServeClient,
    planned: _PlannedSession,
    rng: "random.Random",
    report: TrafficReport,
    payload: bytes,
) -> None:
    entry = report.entry(planned.scheme, planned.kind)
    method = getattr(client, SESSION_METHODS[planned.kind])
    args = (rng,) if planned.kind == "key-agreement" else (payload, rng)
    await _with_refusal_retries(
        report, entry, client.reconnecting, planned.scheme, method, *args
    )
    report.oneshots += 1


async def _client_loop(
    index: int,
    host: str,
    port: int,
    mix: TrafficMix,
    schedule: List[_PlannedSession],
    seed: int,
    report: TrafficReport,
    payload: bytes,
    backend: Optional[str],
) -> None:
    """One client's whole run: its schedule at its burst/gap pacing."""
    rng = random.Random(f"traffic:{mix.name}:{seed}:{index}")  # audit: allow[RC201] seeded on purpose: reproducible workloads, no key material
    client = ServeClient(host, port, backend=backend)
    try:
        burst_left = mix.arrivals.burst_size(rng)
        for planned in schedule:
            if planned.kind == "channel":
                await _run_channel_session(client, planned, mix, rng, report)
            else:
                await _run_oneshot_session(client, planned, rng, report, payload)
            burst_left -= 1
            if burst_left <= 0:
                gap = mix.arrivals.gap_seconds(rng)
                if gap > 0:
                    await asyncio.sleep(gap)
                burst_left = mix.arrivals.burst_size(rng)
    finally:
        report.reopens += client.reconnects
        await client.close()


async def run_traffic(
    host: str,
    port: int,
    mix: TrafficMix,
    clients: int = 8,
    sessions_per_client: int = 12,
    seed: int = 0,
    payload: bytes = b"traffic model payload...........",
    backend: Optional[str] = None,
) -> TrafficReport:
    """Drive ``clients`` seeded schedules from ``mix`` against a server.

    Deterministic given ``(mix, clients, sessions_per_client, seed)``: each
    client's schedule and payloads come from its own
    ``random.Random(f"traffic:{mix}:{seed}:{i}")``, so two runs issue
    identical requests (wall-clock timing, and therefore rates, still
    reflect the machine).
    """
    if clients < 1:
        raise ParameterError("the traffic engine needs at least one client")
    if sessions_per_client < 1:
        raise ParameterError("the traffic engine needs at least one session")

    from repro.pkc.registry import get_scheme

    capabilities = {
        name: tuple(get_scheme(name, backend=backend).capabilities)
        for name in mix.schemes
    }
    schedules = [
        compile_schedule(
            mix,
            random.Random(f"traffic-schedule:{mix.name}:{seed}:{index}"),  # audit: allow[RC201] seeded on purpose: reproducible workloads, no key material
            sessions_per_client,
            capabilities,
        )
        for index in range(clients)
    ]
    report = TrafficReport(mix=mix.name, clients=clients, seed=seed)
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _client_loop(
                index, host, port, mix, schedule, seed, report, payload, backend
            )
            for index, schedule in enumerate(schedules)
        )
    )
    report.wall_seconds = time.perf_counter() - started
    return report
