"""Session state and the canonical per-session protocol logic.

Two things live here, deliberately free of any import from ``repro.pkc`` so
the offline batch harness (:mod:`repro.pkc.bench`) can reuse them without an
import cycle:

* **Server-side request execution** — :func:`serve_request` maps one decoded
  request (a wire kind plus its payload bytes) onto the scheme's protocol
  API and returns the response ``(opcode, payload)``.  This is the unit the
  scheduler batches: a batch of same-scheme requests is one loop of
  :func:`serve_request` calls over a warm scheme instance, so fixed-base
  tables and long-lived key material are amortised exactly as in the
  offline harness.

* **Offline full-session runners** — :data:`OFFLINE_SESSION_RUNNERS` holds
  the canonical client+server round trip for each batch operation
  (key agreement: fresh client key, both derivations, checked equal;
  encryption: encrypt to the server, server opens, checked; signature:
  server signs, client verifies).  ``repro.pkc.bench.run_batch`` executes
  these; the load client in :mod:`repro.serve.client` performs the same
  steps with the server half on the far side of a socket, so "one session"
  means the same work online and offline.

:class:`ConnectionSession` is the per-connection state the server keeps:
which scheme the peer negotiated, and request/error counters for the
connection's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ParameterError, ProtocolError
from repro.serve import protocol
from repro.serve.protocol import (
    OP_CIPHERTEXT,
    OP_DECRYPT,
    OP_ENCRYPT,
    OP_KA_CONFIRM,
    OP_KA_INIT,
    OP_PLAINTEXT_DIGEST,
    OP_SIGN,
    OP_SIGNATURE,
    OP_VERDICT,
    OP_VERIFY,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.exp.trace import OpTrace
    from repro.pkc.base import PkcScheme, SchemeKeyPair

__all__ = [
    "KIND_BY_OPCODE",
    "CAPABILITY_BY_KIND",
    "CHANNEL_SECRET_KIND",
    "ConnectionSession",
    "serve_request",
    "serve_request_batch",
    "offline_key_agreement_session",
    "offline_encryption_session",
    "offline_signature_session",
    "OFFLINE_SESSION_RUNNERS",
]

#: Wire kind of each operation-bearing client opcode.
KIND_BY_OPCODE = {
    OP_KA_INIT: "key-agreement",
    OP_ENCRYPT: "encrypt",
    OP_DECRYPT: "decrypt",
    OP_SIGN: "sign",
    OP_VERIFY: "verify",
}

#: Scheme capability (a ``repro.pkc.base`` constant value) each kind needs.
CAPABILITY_BY_KIND = {
    "key-agreement": "key-agreement",
    "encrypt": "encryption",
    "decrypt": "encryption",
    "sign": "signature",
    "verify": "signature",
}

#: The internal scheduler kind a ``CHAN_OPEN``/``CHAN_REKEY`` handshake
#: submits: the scheme's key agreement (or, for schemes without one, the
#: KEM-style decryption of a client-chosen seed) yielding the raw channel
#: bootstrap secret.  Never reachable from a wire opcode — the channel
#: handler derives keys from the result and only a confirmation tag
#: travels back to the peer.
CHANNEL_SECRET_KIND = "channel-secret"


@dataclass
class ConnectionSession:
    """Per-connection state on the server."""

    peer: str
    scheme_name: str = ""
    backend: str = "plain"
    requests: int = 0
    responses: int = 0
    errors: int = 0
    #: Connection-unique id the server's channel table keys quotas by
    #: (distinct peers can share a ``peer`` string through NAT or port
    #: reuse; the server stamps an id of its own).
    client_id: str = ""

    @property
    def negotiated(self) -> bool:
        return bool(self.scheme_name)


def serve_request(
    scheme: "PkcScheme", server_key: "SchemeKeyPair", kind: str, payload: bytes
) -> Tuple[int, bytes]:
    """Execute one server-side request; return the response ``(opcode, payload)``.

    Pure and synchronous — this is the unit of CPU-bound work the scheduler
    ships to its executor, and the only place the wire kinds touch the
    scheme API.  Malformed payloads surface as the scheme's own exceptions
    (``ParameterError``, ``DecryptionError``...), which the caller maps to
    an error frame; ``verify`` keeps its report-``False``-never-raise
    contract and answers with a verdict byte instead.
    """
    if kind == "key-agreement":
        shared = scheme.key_agreement(server_key, payload)
        return OP_KA_CONFIRM, protocol.confirmation_tag(shared)
    if kind == CHANNEL_SECRET_KIND:
        # The channel bootstrap: the payload is key-agreement material for
        # KA-capable schemes, or a KEM ciphertext of a client-chosen seed
        # otherwise.  The raw secret travels back to the channel handler —
        # the one kind whose result is key material, not wire bytes.
        if "key-agreement" in scheme.capabilities:
            secret = scheme.key_agreement(server_key, payload)
        else:
            secret = scheme.decrypt(server_key, payload)
        return protocol.OP_CHAN_ACCEPT, secret
    if kind == "encrypt":
        return OP_CIPHERTEXT, scheme.encrypt(server_key.public_wire, payload)
    if kind == "decrypt":
        plaintext = scheme.decrypt(server_key, payload)
        return OP_PLAINTEXT_DIGEST, protocol.plaintext_digest(plaintext)
    if kind == "sign":
        return OP_SIGNATURE, scheme.sign(server_key, payload)
    if kind == "verify":
        message, signature = protocol.parse_verify(payload)
        accepted = scheme.verify(server_key.public_wire, message, signature)
        return OP_VERDICT, b"\x01" if accepted else b"\x00"
    raise ProtocolError(f"unknown request kind {kind!r}")


def serve_request_batch(
    scheme: "PkcScheme", server_key: "SchemeKeyPair", kind: str, payloads
) -> "Optional[List[Tuple[int, bytes]]]":
    """Execute one same-kind batch coalesced; ``(opcode, payload)`` per item.

    Only kinds with a batch entry point coalesce.  Key-agreement batches
    route through the scheme's ``key_agreement_many`` — same wire bytes as
    N :func:`serve_request` calls, but the per-session modular inversions
    collapse to one per group round (Montgomery's trick, see
    :meth:`repro.field.backend.FieldOps.inv_many`).  Signature batches
    route through ``sign_many`` (RSA's CRT streams batch; randomized
    schemes keep the per-item loop and draw order inside the default).
    Every other kind returns ``None``: the caller runs its per-item loop.

    A coalesced batch is all-or-nothing: the first failing item raises the
    scheme's own exception for the whole batch, and the caller re-runs the
    batch per item so each request gets its own reply or error frame.
    """
    payloads = list(payloads)
    if kind == "key-agreement":
        return [
            (OP_KA_CONFIRM, protocol.confirmation_tag(shared))
            for shared in scheme.key_agreement_many(server_key, payloads)
        ]
    if kind == CHANNEL_SECRET_KIND and "key-agreement" in scheme.capabilities:
        # Channel handshakes coalesce exactly like one-shot key agreements:
        # one key_agreement_many call per batch, shared batch inversions,
        # fixed-base tables amortising across every concurrent CHAN_OPEN.
        # KEM-bootstrap schemes (no key agreement) take the per-item loop.
        return [
            (protocol.OP_CHAN_ACCEPT, secret)
            for secret in scheme.key_agreement_many(server_key, payloads)
        ]
    if kind == "sign":
        return [
            (OP_SIGNATURE, signature)
            for signature in scheme.sign_many(server_key, payloads)
        ]
    return None


# -- the canonical offline sessions -------------------------------------------
#
# One function per batch operation, each returning the protocol bytes that
# crossed the (notional) wire.  ``repro.pkc.bench.run_batch`` is a timed loop
# over these; the online load client performs the same steps per session.


def offline_key_agreement_session(
    scheme: "PkcScheme",
    server: "SchemeKeyPair",
    rng: "Optional[random.Random]" = None,
    payload: bytes = b"",
    index: int = 0,
    trace: "Optional[OpTrace]" = None,
) -> int:
    """Fresh client key, both derivations (checked equal).  Wire: one public each way."""
    client = scheme.keygen(rng, trace=trace)
    client_key = scheme.key_agreement(client, server.public_wire, trace=trace)
    server_key = scheme.key_agreement(server, client.public_wire, trace=trace)
    if not protocol.constant_time_equal(client_key, server_key):
        raise ParameterError(f"{scheme.name}: key agreement mismatch")  # pragma: no cover
    return len(client.public_wire) + len(server.public_wire)


def offline_encryption_session(
    scheme: "PkcScheme",
    server: "SchemeKeyPair",
    rng: "Optional[random.Random]" = None,
    payload: bytes = b"",
    index: int = 0,
    trace: "Optional[OpTrace]" = None,
) -> int:
    """Encrypt ``payload`` to the server, server opens (checked).  Wire: the ciphertext."""
    ciphertext = scheme.encrypt(server.public_wire, payload, rng, trace=trace)
    if not protocol.constant_time_equal(scheme.decrypt(server, ciphertext, trace=trace), payload):
        raise ParameterError(f"{scheme.name}: decryption mismatch")  # pragma: no cover
    return len(ciphertext)


def offline_signature_session(
    scheme: "PkcScheme",
    server: "SchemeKeyPair",
    rng: "Optional[random.Random]" = None,
    payload: bytes = b"",
    index: int = 0,
    trace: "Optional[OpTrace]" = None,
) -> int:
    """Server signs ``payload`` bound to the session index, client verifies."""
    message = payload + index.to_bytes(4, "big")
    signature = scheme.sign(server, message, rng, trace=trace)
    if not scheme.verify(server.public_wire, message, signature, trace=trace):
        raise ParameterError(f"{scheme.name}: signature rejected")  # pragma: no cover
    return len(signature)


#: Batch-operation name -> offline session runner.
OFFLINE_SESSION_RUNNERS = {
    "key-agreement": offline_key_agreement_session,
    "encryption": offline_encryption_session,
    "signature": offline_signature_session,
}
