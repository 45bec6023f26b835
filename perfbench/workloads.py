"""The benchmark's workloads, defined here and nowhere else.

Every scheme, operation, phase length, pacing rate, record-size range and
channel lifetime the benchmark drives lives in this file, so a change to
``repro.traffic.model.MIXES`` or to the ``repro.serve.__main__`` constants
cannot silently change what is measured.

Why the load generator is the benchmark's own rather than
``repro.serve.client.run_load`` or ``repro.traffic.run_traffic``: both run
the client's half of every protocol (ephemeral keygen, client-side key
derivation, encryption, verification) on the generator's event loop, and
both default to 8 connections.  On a 2-core machine a client that does its
own key agreements inline spends as much CPU per request as the server it
loads, so its timings measure the client as much as the server.  Here every
request and every expected reply is made before timing starts; in the timed
loop the generator only writes frames and compares bytes.

All workloads are closed loops with a fixed connection count: the server
handles one frame at a time per connection, and every client in the repo
waits for its reply before sending the next frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Switches that select code paths in ``repro``, pinned in the server and
#: in the benchmark process so a stray environment variable cannot change
#: the program being measured.
PINNED_ENV = {
    "REPRO_FIELD_BACKEND": "plain",
    "REPRO_BATCH_API": "on",
    "REPRO_NATIVE_KERNEL": "off",
    "PYTHONHASHSEED": "0",
}

#: Connections the generator opens, fixed per workload so the offered
#: concurrency is the same on any machine (not derived from ``nproc``).
CONNECTIONS = 2


@dataclass(frozen=True)
class Phase:
    """One closed-loop phase: every connection sends ``op`` back to back."""

    scheme: str
    op: str  # "KA_INIT", "DECRYPT" or "SIGN"
    #: Metric name of the phase's rate in the human-readable report.
    rate_name: str
    #: Share of the run's measured seconds this phase gets.
    share: float
    #: Responses per second (all connections) the input pool is sized for:
    #: 2.5-5 times what a 2-core machine reaches, so a faster server does not
    #: exhaust the pool; if one ever does, the phase ends early and says so.
    rate_cap: float


@dataclass(frozen=True)
class ClosedLoopWorkload:
    name: str
    why: str
    phases: Tuple[Phase, ...]
    connections: int = CONNECTIONS
    #: Times the phase sequence repeats within the measured seconds.
    rounds: int = 1
    #: Percentile reported as ``latency_tail_ms``: the highest one with many
    #: samples beyond it in every phase of a run.
    tail_percentile: float = 99.0


@dataclass(frozen=True)
class ChannelWorkload:
    """Paced stateful channels: open, records, rotate keys, close, reopen."""

    name: str
    why: str
    scheme: str = "ceilidh-170"
    connections: int = CONNECTIONS
    #: Frames per second per connection.  Below the default per-client
    #: token bucket refill (``ChannelPolicy.bucket_refill_per_second`` =
    #: 512/s), so a server that keeps up never refuses a frame.
    frames_per_second: float = 400.0
    #: Mean records per channel; lifetimes are geometric with this mean.
    mean_records_per_channel: float = 256.0
    #: Record sizes are log-uniform over [min, max] bytes.
    record_bytes: Tuple[int, int] = (32, 8192)
    #: The client's default key budget (``ChannelSession`` defaults): a
    #: channel rotates its keys before it would exceed either.
    rekey_after_messages: int = 1024
    rekey_after_bytes: int = 1 << 20
    #: Percentile reported as ``latency_tail_ms``: the large records' share
    #: of the per-byte crypto.  About 2 % of records arrive while a
    #: handshake's key agreement holds the interpreter lock; p99 sat on the
    #: edge of that group and p99.9 inside it, and over six seeds their
    #: quartile spreads were 0.15 and 0.42 of the median, p90's 0.05.
    tail_percentile: float = 90.0


KA_CEILIDH = ClosedLoopWorkload(
    name="ka-ceilidh",
    why=(
        "The paper's headline operation: ceilidh-170 KA_INIT back to back on "
        "2 connections, each with a distinct client key.  Server work is "
        "repro.field.fp6, repro.exp and repro.torus compression; the two "
        "concurrent requests also exercise scheduler batching (batches of 1-2)."
    ),
    phases=(
        Phase("ceilidh-170", "KA_INIT", "ceilidh-170.ka_rps", 1.0, 500.0),
    ),
)

PKC_MIX = ClosedLoopWorkload(
    name="pkc-mix",
    why=(
        "The paper's comparison set, one closed-loop phase each: ecdh-p160 "
        "KA_INIT (Jacobian scalar multiplication and inversion), rsa-1024 "
        "DECRYPT (1024-bit CRT powering), xtr-170 KA_INIT (the Fp2 trace "
        "ladder) and ceilidh-170 SIGN (a fixed-base generator table).  A "
        "ceilidh-only speed-up that slows another system shows here."
    ),
    # Shares give the slow phases more time, so each phase yields several
    # hundred latency samples (about 500-1500 at 20 s on a 2-core machine)
    # while the fast ones still run for seconds.
    phases=(
        Phase("ecdh-p160", "KA_INIT", "ecdh-p160.ka_rps", 0.15, 2500.0),
        Phase("rsa-1024", "DECRYPT", "rsa-1024.decrypt_rps", 0.25, 400.0),
        Phase("xtr-170", "KA_INIT", "xtr-170.ka_rps", 0.50, 250.0),
        Phase("ceilidh-170", "SIGN", "ceilidh-170.sign_rps", 0.10, 1500.0),
    ),
    # Five rounds spread every scheme over the whole run, so a burst of
    # interference from other tenants lands on all of them alike.
    rounds=5,
    # A phase yields a few hundred replies a run, too few for a steady p99:
    # with 5% of the machine stolen p99 doubled while p50 moved by a tenth.
    tail_percentile=90.0,
)

CHANNELS = ChannelWorkload(
    name="channels",
    why=(
        "ceilidh-170 channels at 400 frames/s per connection with 32 B-8 KiB "
        "records: the public-key layers do little, so the serve stack's "
        "per-request path and the channel's per-byte record crypto dominate. "
        "It should move for serve-layer changes and stay flat for tower ones."
    ),
)

WORKLOADS = {w.name: w for w in (KA_CEILIDH, PKC_MIX, CHANNELS)}

#: Server spawns per untraced run; ``setup_s`` is the median of their
#: spawn-to-first-verified-answer times.
SETUP_ROUNDS = 5

#: Seconds of unmeasured traffic before each workload's first timed window,
#: so timing starts on a warm server.
WARMUP_SECONDS = 0.5
