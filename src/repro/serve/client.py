"""The serving client: one connection, full verified protocol sessions.

:class:`ServeClient` is one connection speaking the framed protocol: it
negotiates a scheme by registry name, keeps the server's long-lived public
key, and runs full protocol sessions whose *client half* (ephemeral keygen,
client-side derivation, hybrid encryption, signature verification) executes
locally through the same registry instance the offline harness uses — so
one online session performs exactly the work of one
:mod:`repro.serve.session` offline session, split across the socket.
:class:`ChannelSession` is the client end of one stateful secure channel
on such a connection.

Both ends of the client follow one rule.  A lost connection (worker
crash, drain, idle close, rolling restart) is replaced in one place,
:meth:`ServeClient.reconnecting`; a refusal (``OP_OVERLOADED``,
``ERR_OVER_QUOTA``) is never retried here but raised, with whatever was
sealed kept for the resend, so the caller retries it in one loop and counts
it — :func:`repro.traffic.run_traffic`, the load generator that drives many
of these clients at once, does.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Awaitable, Callable, Optional, Tuple, TypeVar

from repro.audit.annotations import Secret
from repro.errors import (
    OverloadedError,
    ParameterError,
    ProtocolError,
    QuotaError,
    RekeyRequiredError,
    ServeError,
    UnavailableError,
    UnknownChannelError,
)
from repro.serve import protocol
from repro.serve.channel import (
    CLIENT_TO_SERVER,
    KEY_LEN,
    SERVER_TO_CLIENT,
    ChannelCrypto,
)
from repro.serve.protocol import (
    CHANNEL_ID_LEN,
    OP_CHAN_ACCEPT,
    OP_CHAN_CLOSE,
    OP_CHAN_CLOSED,
    OP_CHAN_MSG,
    OP_CHAN_OPEN,
    OP_CHAN_REKEY,
    OP_CHAN_REKEYED,
    OP_CHAN_REPLY,
    OP_CIPHERTEXT,
    OP_DECRYPT,
    OP_ENCRYPT,
    OP_ERROR,
    OP_HELLO,
    OP_KA_CONFIRM,
    OP_KA_INIT,
    OP_OVERLOADED,
    OP_PLAINTEXT_DIGEST,
    OP_SIGN,
    OP_SIGNATURE,
    OP_VERDICT,
    OP_VERIFY,
    OP_WELCOME,
    REFUSAL_TYPES,
    Frame,
    pack_channel,
    pack_verify,
    parse_channel,
    parse_error,
    parse_welcome,
    read_frame,
    write_frame,
)

__all__ = [
    "ServeClient",
    "ChannelSession",
    "DEFAULT_PAYLOAD",
]

DEFAULT_PAYLOAD = b"served session payload.........."

#: How many times :meth:`ServeClient.reconnecting` replaces a dropped or
#: draining connection (a cluster routes the new connection to a live
#: worker).  Sized to ride out a worker crash-restart: backoff plus the
#: replacement's spawn-and-import time is a couple of seconds.
RECONNECT_RETRIES = 20
#: Initial pause before a reconnect attempt (seconds; doubles to 0.5).
RECONNECT_BACKOFF = 0.05

T = TypeVar("T")


class ServeClient:
    """One connection to a :class:`~repro.serve.server.ServeServer`."""

    def __init__(self, host: str, port: int, backend: Optional[str] = None):
        self.host = host
        self.port = port
        self.backend = backend
        self.scheme_name = ""
        self.server_public = b""
        self.scheme = None  # local registry instance for the client half
        #: Lost connections :meth:`reconnecting` replaced.
        self.reconnects = 0
        self._reader: Optional["asyncio.StreamReader"] = None
        self._writer: Optional["asyncio.StreamWriter"] = None

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def reconnecting(
        self, scheme_name: str, attempt: Callable[..., Awaitable[T]], *args
    ) -> T:
        """Run ``attempt(*args)`` on a live connection negotiated on
        ``scheme_name``, connecting and negotiating first if needed.

        The one reconnect loop.  A lost connection — a worker crash, drain
        or idle close, a rolling restart (:class:`UnavailableError`,
        :class:`ProtocolError`, ``OSError``) — is closed, and after a
        doubling pause a new one is connected and negotiated and
        ``attempt`` runs again, at most :data:`RECONNECT_RETRIES` times.
        Cluster workers share one server identity (preset keys), so the
        fresh ``WELCOME`` matches the cached ``server_public``.  Refusals
        and every other error propagate.
        """
        delay = RECONNECT_BACKOFF
        last: Optional[BaseException] = None
        for _ in range(RECONNECT_RETRIES):
            try:
                if not self.connected:
                    await self.connect()
                    await self.negotiate(scheme_name)
                elif self.scheme_name != scheme_name:
                    await self.negotiate(scheme_name)
                return await attempt(*args)
            except (UnavailableError, ProtocolError, OSError) as exc:
                last = exc
                await self.close()
                self.reconnects += 1
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.5)
        raise ProtocolError(
            f"no live {scheme_name} connection after {RECONNECT_RETRIES} "
            f"attempts: {last}"
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the wire ---------------------------------------------------------------

    async def request(self, opcode: int, payload: bytes = b"") -> Frame:
        """One round trip; raises on error frames.

        ``OP_OVERLOADED`` raises :class:`~repro.errors.OverloadedError`
        (retryable), ``OP_ERROR`` raises the typed refusal its code names
        (:data:`~repro.serve.protocol.REFUSAL_TYPES`) or else a plain
        :class:`~repro.errors.ServeError`, and a dropped connection raises
        :class:`~repro.errors.ProtocolError`.
        """
        if self._reader is None or self._writer is None:
            raise ParameterError("client is not connected")
        await write_frame(self._writer, opcode, payload)
        frame = await read_frame(self._reader)
        if frame is None:
            raise ProtocolError("server closed the connection mid-exchange")
        if frame.version != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks version {protocol.PROTOCOL_VERSION}, "
                f"server answered with {frame.version}"
            )
        if frame.opcode == OP_OVERLOADED:
            raise OverloadedError(frame.payload.decode("utf-8", "replace"))
        if frame.opcode == OP_ERROR:
            code, detail = parse_error(frame.payload)
            refusal = REFUSAL_TYPES.get(code)
            if refusal is not None:
                raise refusal(detail)
            raise ServeError(f"{protocol.ERROR_NAMES.get(code, code)}: {detail}")
        return frame

    async def negotiate(self, scheme_name: str) -> bytes:
        """HELLO/WELCOME: pin the scheme, learn the server's public key."""
        from repro.pkc.registry import get_scheme

        frame = await self.request(OP_HELLO, scheme_name.encode("utf-8"))
        if frame.opcode != OP_WELCOME:
            raise ProtocolError(f"expected WELCOME, got {frame.opcode_name}")
        name, public = parse_welcome(frame.payload)
        if name != scheme_name:
            raise ProtocolError(f"negotiated {scheme_name!r} but server said {name!r}")
        self.scheme_name = name
        self.server_public = public
        self.scheme = get_scheme(scheme_name, backend=self.backend)
        return public

    # -- full protocol sessions ---------------------------------------------------
    #
    # Each runs one online session (the client half locally, the server half
    # across the wire), verifies the result, and returns the round-trip
    # latency of the server-bound request in seconds.

    def _require_session(self) -> None:
        if self.scheme is None:
            raise ParameterError("negotiate a scheme before running sessions")

    async def key_agreement_session(self, rng=None) -> float:
        """Ephemeral keygen + both derivations; server's tag checked against ours."""
        self._require_session()
        client_pair = self.scheme.keygen(rng)  # audit: allow[RC204] load-generator client half runs its arithmetic locally by design
        started = time.perf_counter()
        frame = await self.request(OP_KA_INIT, client_pair.public_wire)
        latency = time.perf_counter() - started
        if frame.opcode != OP_KA_CONFIRM:
            raise ProtocolError(f"expected KA_CONFIRM, got {frame.opcode_name}")
        shared = self.scheme.key_agreement(client_pair, self.server_public)  # audit: allow[RC204] load-generator client half runs its arithmetic locally by design
        if not protocol.constant_time_equal(frame.payload, protocol.confirmation_tag(shared)):
            raise ServeError(f"{self.scheme_name}: key agreement tags disagree")
        return latency

    async def encryption_session(
        self, payload: bytes = DEFAULT_PAYLOAD, rng=None
    ) -> float:
        """Encrypt to the server, server opens, digest checked."""
        self._require_session()
        ciphertext = self.scheme.encrypt(self.server_public, payload, rng)  # audit: allow[RC204] load-generator client half runs its arithmetic locally by design
        started = time.perf_counter()
        frame = await self.request(OP_DECRYPT, ciphertext)
        latency = time.perf_counter() - started
        if frame.opcode != OP_PLAINTEXT_DIGEST:
            raise ProtocolError(f"expected PLAINTEXT_DIGEST, got {frame.opcode_name}")
        if frame.payload != protocol.plaintext_digest(payload):
            raise ServeError(f"{self.scheme_name}: decryption digest disagrees")
        return latency

    async def signature_session(
        self, message: bytes = DEFAULT_PAYLOAD, rng=None
    ) -> float:
        """Server signs, we verify locally — then the server re-verifies on the wire."""
        self._require_session()
        started = time.perf_counter()
        frame = await self.request(OP_SIGN, message)
        latency = time.perf_counter() - started
        if frame.opcode != OP_SIGNATURE:
            raise ProtocolError(f"expected SIGNATURE, got {frame.opcode_name}")
        if not self.scheme.verify(self.server_public, message, frame.payload):  # audit: allow[RC204] load-generator client half runs its arithmetic locally by design
            raise ServeError(f"{self.scheme_name}: signature rejected locally")
        return latency

    async def verify_session(self, message: bytes, signature: bytes) -> bool:
        """Ask the server for a verdict on ``(message, signature)``."""
        self._require_session()
        frame = await self.request(OP_VERIFY, pack_verify(message, signature))
        if frame.opcode != OP_VERDICT or len(frame.payload) != 1:
            raise ProtocolError(f"expected VERDICT, got {frame.opcode_name}")
        return frame.payload == b"\x01"

    async def encrypt_roundtrip_session(
        self, payload: bytes = DEFAULT_PAYLOAD
    ) -> float:
        """Server-side encrypt, then server-side decrypt of the same bytes."""
        self._require_session()
        started = time.perf_counter()
        frame = await self.request(OP_ENCRYPT, payload)
        latency = time.perf_counter() - started
        if frame.opcode != OP_CIPHERTEXT:
            raise ProtocolError(f"expected CIPHERTEXT, got {frame.opcode_name}")
        digest_frame = await self.request(OP_DECRYPT, frame.payload)
        if digest_frame.payload != protocol.plaintext_digest(payload):
            raise ServeError(f"{self.scheme_name}: encrypt round trip disagrees")
        return latency

    # -- stateful channels --------------------------------------------------------

    def channel_bootstrap(self, rng=None) -> "Tuple[bytes, Secret[bytes]]":
        """The client half of a channel handshake: ``(wire kex, secret)``.

        KA-capable schemes send an ephemeral public key and derive the
        secret from the server's long-lived key; schemes without key
        agreement (RSA) bootstrap KEM-style — the client picks the secret
        and encrypts it to the server's key, so the same ``CHAN_OPEN``
        opcode works across the whole registry.
        """
        self._require_session()
        if "key-agreement" in self.scheme.capabilities:
            pair = self.scheme.keygen(rng)
            secret = self.scheme.key_agreement(pair, self.server_public)
            return pair.public_wire, secret
        seed = rng.randbytes(KEY_LEN) if rng is not None else os.urandom(KEY_LEN)
        kex = self.scheme.encrypt(self.server_public, seed, rng)
        return kex, seed

    async def open_channel(
        self,
        rng=None,
        rekey_after_messages: Optional[int] = None,
        rekey_after_bytes: Optional[int] = None,
    ) -> "ChannelSession":
        """Open a stateful secure channel on this connection's scheme."""
        session = ChannelSession(
            self,
            rng=rng,
            rekey_after_messages=rekey_after_messages,
            rekey_after_bytes=rekey_after_bytes,
        )
        await session.open()
        return session


class ChannelSession:
    """The client end of one stateful secure channel.

    One :meth:`open` handshake (a single public-key operation), then
    :meth:`send` carries authenticated records on symmetric keys only.  The
    session rekeys itself transparently — proactively when its own epoch
    budget is spent, reactively on the server's explicit
    ``ERR_REKEY_REQUIRED`` — and survives worker crash/restart/drain by
    reconnecting and opening a *fresh* channel (new id, new handshake),
    invisible to the caller beyond the :attr:`reopens` counter.  Refusals
    (``ERR_OVER_QUOTA``, ``OP_OVERLOADED``) are the one thing it surfaces,
    wherever they hit: the caller retries, and the session resends what it
    had sealed.
    """

    #: Default per-epoch budgets; match the server's ``ChannelPolicy``
    #: defaults so a well-behaved client rekeys proactively, one message
    #: before the server would demand it.
    REKEY_AFTER_MESSAGES = 1024
    REKEY_AFTER_BYTES = 1 << 20

    def __init__(
        self,
        client: ServeClient,
        rng=None,
        rekey_after_messages: Optional[int] = None,
        rekey_after_bytes: Optional[int] = None,
    ):
        self.client = client
        self.rng = rng
        self.rekey_after_messages = (
            self.REKEY_AFTER_MESSAGES
            if rekey_after_messages is None
            else rekey_after_messages
        )
        self.rekey_after_bytes = (
            self.REKEY_AFTER_BYTES if rekey_after_bytes is None else rekey_after_bytes
        )
        self.scheme_name = ""
        self.channel_id = b""
        self.crypto: Optional[ChannelCrypto] = None
        self.messages = 0
        self.rekeys = 0
        self.reopens = 0
        self.open_latency = 0.0
        self._messages_since_rekey = 0
        self._bytes_since_rekey = 0
        #: Set when the channel died under a send (with its connection, or
        #: evicted idle); the next attempt opens a fresh one first.  A
        #: refused open leaves it set, so the caller's retry resumes it.
        self._lost = False
        #: A sealed record whose refusal the caller is retrying:
        #: ``(payload, record)``.  Sealing advanced the send sequence, so a
        #: retry of the same payload must resend these exact bytes — a
        #: fresh seal would desynchronise the sequence the server expects.
        self._pending: Optional[Tuple[bytes, bytes]] = None
        #: Same for a refused rekey: ``(secret, sealed kex record)``.
        self._pending_rekey: Optional[Tuple[bytes, bytes]] = None

    def _fresh_channel_id(self) -> bytes:
        if self.rng is not None:
            return self.rng.randbytes(CHANNEL_ID_LEN)
        return os.urandom(CHANNEL_ID_LEN)

    async def open(self) -> float:
        """Run the handshake; returns its round-trip latency in seconds."""
        kex, secret = self.client.channel_bootstrap(self.rng)
        channel_id = self._fresh_channel_id()
        started = time.perf_counter()
        frame = await self.client.request(
            OP_CHAN_OPEN, pack_channel(channel_id, kex)
        )
        latency = time.perf_counter() - started
        if frame.opcode != OP_CHAN_ACCEPT:
            raise ProtocolError(f"expected CHAN_ACCEPT, got {frame.opcode_name}")
        echoed, tag = parse_channel(frame.payload)
        if echoed != channel_id:
            raise ProtocolError("server accepted a different channel id")
        if not protocol.constant_time_equal(
            tag, protocol.confirmation_tag(secret)
        ):
            raise ServeError(
                f"{self.client.scheme_name}: channel confirmation tags disagree"
            )
        self.scheme_name = self.client.scheme_name
        self.channel_id = channel_id
        self.crypto = ChannelCrypto(
            secret, channel_id, CLIENT_TO_SERVER, SERVER_TO_CLIENT
        )
        self._lost = False
        self._messages_since_rekey = 0
        self._bytes_since_rekey = 0
        self._pending = None
        self._pending_rekey = None
        self.open_latency = latency
        return latency

    def _needs_rekey(self, next_bytes: int) -> bool:
        return (
            self._pending_rekey is not None  # a refused rekey goes first
            or self._messages_since_rekey + 1 > self.rekey_after_messages
            or self._bytes_since_rekey + next_bytes > self.rekey_after_bytes
        )

    async def rekey(self) -> float:
        """Rotate the channel's keys in place; returns the round-trip latency.

        The fresh key-exchange material travels *inside* the channel (a
        sealed record under the current epoch); the server acknowledges
        under the old keys with a confirmation tag of the new secret, and
        both sides switch to ``epoch + 1`` with sequences reset.
        """
        if self.crypto is None:
            raise ParameterError("channel is not open")
        if self._pending_rekey is not None:
            secret, record = self._pending_rekey  # resume a refused rekey
            self._pending_rekey = None
        else:
            kex, secret = self.client.channel_bootstrap(self.rng)
            record = self.crypto.seal(kex)
        started = time.perf_counter()
        try:
            frame = await self.client.request(
                OP_CHAN_REKEY, pack_channel(self.channel_id, record)
            )
        except (QuotaError, OverloadedError):
            # Refused before the server touched its receive sequence; keep
            # the sealed kex so the retry resends the expected sequence.
            self._pending_rekey = (secret, record)
            raise
        latency = time.perf_counter() - started
        if frame.opcode != OP_CHAN_REKEYED:
            raise ProtocolError(f"expected CHAN_REKEYED, got {frame.opcode_name}")
        _, ack_record = parse_channel(frame.payload)
        ack = self.crypto.open(ack_record)  # still the old epoch's keys
        if not protocol.constant_time_equal(
            ack, protocol.confirmation_tag(secret)
        ):
            raise ServeError(
                f"{self.client.scheme_name}: rekey confirmation tags disagree"
            )
        self.crypto.rekey(secret)
        self._messages_since_rekey = 0
        self._bytes_since_rekey = 0
        self.rekeys += 1
        return latency

    async def send(self, payload: bytes) -> float:
        """One authenticated request/response on the channel; returns latency.

        Absorbs a proactive rekey when this epoch's budget is spent,
        ``ERR_REKEY_REQUIRED`` (rekey, then reseal), an evicted channel (a
        fresh one on this connection) and a dropped, draining or
        idle-closed connection (a fresh one through
        :meth:`ServeClient.reconnecting`, then a fresh channel).  Refusals —
        :class:`~repro.errors.QuotaError` and
        :class:`~repro.errors.OverloadedError` — propagate whether they hit
        the record, a rekey or a reopen; the caller retries the same
        payload, and the session resends what it had sealed.
        """
        if self.crypto is None and not self._lost:
            raise ParameterError("channel is not open")
        return await self.client.reconnecting(self.scheme_name, self._send, payload)

    async def _send(self, payload: bytes) -> float:
        """:meth:`send` on the current connection."""
        record: Optional[bytes] = None
        if self._pending is not None and self._pending[0] == payload:
            record = self._pending[1]  # resume a refused send
        self._pending = None
        rekey_required = False
        while True:
            try:
                if self._lost:
                    await self.open()
                    self.reopens += 1
                    record = None  # fresh channel, fresh keys, fresh sequence
                assert self.crypto is not None
                if record is None:
                    if rekey_required or self._needs_rekey(len(payload)):
                        await self.rekey()
                        rekey_required = False
                    record = self.crypto.seal(payload)
                started = time.perf_counter()
                frame = await self.client.request(
                    OP_CHAN_MSG, pack_channel(self.channel_id, record)
                )
                latency = time.perf_counter() - started
                if frame.opcode != OP_CHAN_REPLY:
                    raise ProtocolError(f"expected CHAN_REPLY, got {frame.opcode_name}")
                _, reply_record = parse_channel(frame.payload)
                reply = self.crypto.open(reply_record)
            except RekeyRequiredError:
                # The server refused *before* consuming the record, so the
                # sequence our seal spent is still the one it expects — roll
                # it back so the rekey's sealed kex lands on that sequence.
                assert self.crypto is not None
                self.crypto.send_seq -= 1
                record, rekey_required = None, True
                continue
            except (QuotaError, OverloadedError):
                # Refused before the server touched its receive sequence:
                # keep the sealed record for the retry of this payload.
                # (None when the refusal hit a rekey or a reopen, whose own
                # state covers the resume.)
                if record is not None:
                    self._pending = (payload, record)
                raise
            except UnknownChannelError:
                self._lost = True  # evicted idle: a fresh channel here
                continue
            except (UnavailableError, ProtocolError, OSError):
                self._lost = True  # died (or garbled) with its connection
                raise
            if not protocol.constant_time_equal(
                reply, protocol.plaintext_digest(payload)
            ):
                raise ServeError(
                    f"{self.client.scheme_name}: channel reply digest disagrees"
                )
            self.messages += 1
            self._messages_since_rekey += 1
            self._bytes_since_rekey += len(payload)
            return latency

    async def close(self) -> None:
        """Authenticated close; the server forgets the channel."""
        if self.crypto is None:
            return
        record = self.crypto.seal(b"")
        frame = await self.client.request(
            OP_CHAN_CLOSE, pack_channel(self.channel_id, record)
        )
        if frame.opcode != OP_CHAN_CLOSED:
            raise ProtocolError(f"expected CHAN_CLOSED, got {frame.opcode_name}")
        self.crypto = None
