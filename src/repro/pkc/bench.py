"""Batched multi-session protocol runs — the serving-workload harness.

The ROADMAP's production story is many concurrent sessions, not one: a
server terminating N key agreements (or decrypting N hybrid messages, or
signing N tokens) per interval, with fixed-cost state — CEILIDH's and ECDH's
fixed-base generator tables, RSA's long-lived key pair — paid once and
amortised across the batch.  :func:`run_batch` executes such a batch through
the scheme-agnostic protocol API and reports wall-clock, per-session group
operations and wire bytes; one loop over the registry yields the multi-
scheme serving comparison.

Only the protocol layer is exercised (pure-Python arithmetic); the platform
projection of the same workload is the profile layer's job.
"""

from __future__ import annotations

import hmac
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only; every runtime sampling
    # site goes through resolve_rng.
    import random

from repro.errors import ParameterError, UnsupportedOperationError
from repro.exp.trace import OpTrace
from repro.nt.sampling import resolve_rng
from repro.pkc.base import ENCRYPTION, KEY_AGREEMENT, SIGNATURE, PkcScheme, SchemeKeyPair
from repro.pkc.registry import get_scheme

# The canonical per-session protocol logic is shared with the online serving
# layer: repro.serve.session holds the client+server round trips, and the
# server's scheduler executes the same server halves per request — "one
# session" means identical work online and offline.  (serve.session imports
# nothing from repro.pkc, so this direction is cycle-free.)
from repro.serve.session import OFFLINE_SESSION_RUNNERS


def _coalesced_key_agreement_batch(
    scheme: "PkcScheme",
    server: SchemeKeyPair,
    sessions: int,
    rng: "Optional[random.Random]",
    trace,
) -> int:
    """All key-agreement sessions of a batch, coalesced; returns wire bytes.

    Same sessions as ``sessions`` runs of ``offline_key_agreement_session``
    — fresh client key each, both derivations, checked equal — but phased so
    the server's N derivations go through ``key_agreement_many`` and its
    batched inversions (one per group round instead of one per session),
    while the clients' N derivations against the *same* server public go
    through ``key_agreement_with_many`` and its shared fixed-base table
    (the server point is decompressed once and its table is paid once for
    the whole batch).  Byte-identical to the loop: client key
    generation is the only step that draws from ``rng``, and
    ``keygen_many`` preserves the draw order, so the wire bytes and derived
    keys match session for session.
    """
    clients = scheme.keygen_many(sessions, rng, trace=trace)
    client_keys = scheme.key_agreement_with_many(
        clients, server.public_wire, trace=trace
    )
    server_keys = scheme.key_agreement_many(
        server, [client.public_wire for client in clients], trace=trace
    )
    wire = 0
    for client, client_key, server_key in zip(clients, client_keys, server_keys):  # audit: allow[CT101] iterates paired session keys; the trip count is the public session count
        if not hmac.compare_digest(client_key, server_key):
            raise ParameterError(f"{scheme.name}: key agreement mismatch")  # pragma: no cover
        wire += len(client.public_wire) + len(server.public_wire)
    return wire

__all__ = [
    "BatchResult",
    "run_batch",
    "registry_batch_comparison",
    "BATCH_OPERATIONS",
]

#: Operations :func:`run_batch` understands, mapped to the capability needed.
BATCH_OPERATIONS = {
    "key-agreement": KEY_AGREEMENT,
    "encryption": ENCRYPTION,
    "signature": SIGNATURE,
}


@dataclass
class BatchResult:
    """Outcome of one batched multi-session run."""

    scheme: str
    operation: str
    sessions: int
    wall_seconds: float
    #: Aggregate group-operation tally across every session (server + client
    #: sides of a key agreement, encrypt + decrypt of an encryption session).
    ops: OpTrace = field(default_factory=OpTrace)
    #: Total protocol bytes that crossed the wire for the whole batch.
    wire_bytes: int = 0
    #: Whether the sessions actually ran through the coalesced (vectorised)
    #: path rather than the per-session loop.
    coalesced: bool = False

    @property
    def batch_size(self) -> Optional[int]:
        """Sessions per vectorised batch call — ``None`` for the loop path."""
        return self.sessions if self.coalesced else None

    @property
    def ms_per_session(self) -> float:
        return self.wall_seconds * 1e3 / self.sessions if self.sessions else 0.0

    @property
    def sessions_per_second(self) -> float:
        if self.sessions == 0:
            return 0.0  # an empty batch has no throughput, not an infinite one
        return self.sessions / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    @property
    def ops_per_session(self) -> float:
        return self.ops.total / self.sessions if self.sessions else 0.0

    @property
    def wire_bytes_per_session(self) -> float:
        return self.wire_bytes / self.sessions if self.sessions else 0.0


def run_batch(
    scheme: "PkcScheme | str",
    operation: str,
    sessions: int,
    rng: Optional["random.Random"] = None,
    payload: bytes = b"batched session payload.........",
    server: Optional[SchemeKeyPair] = None,
    collect_ops: bool = True,
    backend: Optional[str] = None,
    coalesce: bool = True,
) -> BatchResult:
    """Run ``sessions`` independent protocol sessions against one server key.

    * ``key-agreement`` — per session: a fresh client key pair, the client's
      derivation against the server public, the server's derivation against
      the client public (checked equal).  Wire: one public key each way.
    * ``encryption`` — per session: encrypt ``payload`` to the server,
      server decrypts (checked).  Wire: the ciphertext.
    * ``signature`` — per session: server signs ``payload`` bound to the
      session index, client verifies.  Wire: the signature.

    The server key pair (and with it any fixed-base table the scheme keeps)
    is created once outside the timed region, so the batch measures the
    steady-state serving cost.  ``collect_ops=False`` drops the group-
    operation tally and takes the engine's tracing-free fast path (the
    ``ops`` field of the result stays zero).

    The RNG is resolved exactly once here — the system CSPRNG unless a
    seeded generator is injected — and threaded down through every keygen,
    ephemeral and nonce of the batch; no per-session generator is ever
    constructed.

    ``backend`` selects the field-arithmetic substrate: pass a scheme
    *name* together with a backend string and the adapter is resolved from
    the registry on that backend (``run_batch("ceilidh-170",
    "key-agreement", 16, backend="montgomery")``); with a scheme instance
    the backend it was built with is used, and passing a conflicting
    ``backend`` raises.

    ``coalesce`` (default on) routes multi-session key-agreement batches
    through the scheme's ``keygen_many`` / ``key_agreement_many`` so
    per-session modular inversions collapse via Montgomery's batch trick —
    byte-identical sessions, same RNG draw order, same wire bytes; pass
    ``coalesce=False`` to force the per-session loop (the baseline the
    batched path is measured against).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme, backend=backend)
    elif backend is not None:
        # A scheme that predates the backend layer (field_backend unset)
        # runs plain arithmetic, so backend="plain" is consistent with it.
        built_on = getattr(getattr(scheme, "field_backend", None), "name", None) or "plain"
        if built_on != backend:
            raise ParameterError(
                f"scheme {scheme.name!r} was built on backend "
                f"{built_on!r}, not {backend!r}; resolve it "
                "from the registry by name instead"
            )
    if operation not in BATCH_OPERATIONS:
        raise ParameterError(
            f"unknown batch operation {operation!r}; available: {sorted(BATCH_OPERATIONS)}"
        )
    if sessions < 1:
        raise ParameterError("a batch needs at least one session")
    capability = BATCH_OPERATIONS[operation]
    if capability not in scheme.capabilities:
        raise UnsupportedOperationError(f"{scheme.name} does not implement {operation}")
    rng = resolve_rng(rng)

    server = server or scheme.keygen(rng)
    ops = OpTrace()
    trace = ops if collect_ops else None
    wire = 0
    run_session = OFFLINE_SESSION_RUNNERS[operation]
    coalesced = coalesce and operation == "key-agreement" and sessions > 1
    started = time.perf_counter()
    if coalesced:
        wire = _coalesced_key_agreement_batch(scheme, server, sessions, rng, trace)
    else:
        for index in range(sessions):
            wire += run_session(
                scheme, server, rng=rng, payload=payload, index=index, trace=trace
            )
    elapsed = time.perf_counter() - started

    return BatchResult(
        scheme=scheme.name,
        operation=operation,
        sessions=sessions,
        wall_seconds=elapsed,
        ops=ops,
        wire_bytes=wire,
        coalesced=coalesced,
    )


def registry_batch_comparison(
    names: Sequence[str],
    operation: str = "key-agreement",
    sessions: int = 8,
    rng: Optional["random.Random"] = None,
    collect_ops: bool = True,
    backend: Optional[str] = None,
) -> "list[BatchResult]":
    """Batch every named scheme that supports ``operation`` — one generic loop."""
    if operation not in BATCH_OPERATIONS:
        raise ParameterError(
            f"unknown batch operation {operation!r}; available: {sorted(BATCH_OPERATIONS)}"
        )
    capability = BATCH_OPERATIONS[operation]
    results = []
    for name in names:
        scheme = get_scheme(name, backend=backend)
        if capability not in scheme.capabilities:
            continue
        results.append(
            run_batch(
                scheme, operation, sessions, rng=rng, collect_ops=collect_ops
            )
        )
    return results
