"""Stateful secure channels: handshake once, then a symmetric record stream.

The one-shot wire protocol spends a full public-key operation on every
request, which is not how the paper's primitives are consumed in practice —
a key agreement exists to *bootstrap a session*.  This module is that
session layer, sans-IO: everything here is pure state-machine and record
crypto, testable without sockets, and both the server handler and the
client library drive it.

**Key schedule.**  A ``CHAN_OPEN`` runs the negotiated scheme's key
agreement once (schemes without key agreement — RSA — bootstrap the same
secret through their encryption capability, KEM-style: the client picks the
secret and encrypts it to the server's long-lived key).  Both sides then
derive *directional* keystream and tag keys through the library-wide
:func:`repro.pkc.base.kdf`::

    stream_key = kdf(secret, "repro-chan|" id epoch "|c2s-stream", 32)
    tag_key    = kdf(secret, "repro-chan|" id epoch "|c2s-tag",    32)

(and the ``s2c`` pair for the other direction), so client->server and
server->client records never share a keystream.

**Records.**  One sealed record is ``seq:8 | body | tag:16``: the body is
XORed with a per-sequence keystream (``kdf(stream_key, "rec" seq)`` — the
same XOR construction :func:`repro.pkc.base.seal_body` uses for the hybrid
ciphertexts) and the truncated HMAC tag binds *channel id, key epoch,
sequence number and body* together.  Sequence numbers are per-direction and
strictly monotonic from 0; a record whose tag fails raises
:class:`~repro.errors.TamperedRecordError` and one whose (authentic)
sequence number is not exactly the next expected raises
:class:`~repro.errors.ReplayError` — replay and reordering are rejected,
never silently reordered back.

**Rekeying.**  Key epochs are budgeted (messages and bytes).  A
``CHAN_REKEY`` carries fresh key-exchange material *inside* the channel (a
sealed record), runs a new key agreement, and both sides switch to keys
derived from the new secret at ``epoch + 1`` with sequence numbers reset —
invisible to the application on the client.  A server whose budget is
exhausted refuses further records with an explicit
:class:`~repro.errors.RekeyRequiredError` frame rather than serving on
stale key material.

**The server side** keeps every open channel in a :class:`ChannelTable`:
per-client token-bucket rate limiting (:class:`TokenBucket`), channel-count
admission control, key-budget enforcement and idle eviction — each refusal
an explicit typed error the handler maps onto an error frame, never a
silent close.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.audit.annotations import Secret
from repro.errors import (
    ProtocolError,
    QuotaError,
    RekeyRequiredError,
    ReplayError,
    TamperedRecordError,
    UnknownChannelError,
)
# ``kdf`` stays a module-level lookup here: perfbench's tracer wraps it in
# this namespace as well as in repro.pkc.base.
from repro.pkc.base import kdf, xor_bytes
from repro.serve.protocol import CHANNEL_ID_LEN

__all__ = [
    "KEY_LEN",
    "RECORD_TAG_LEN",
    "SEQ_LEN",
    "CLIENT_TO_SERVER",
    "SERVER_TO_CLIENT",
    "ChannelKeys",
    "derive_channel_keys",
    "seal_record",
    "open_record",
    "ChannelCrypto",
    "ChannelPolicy",
    "TokenBucket",
    "ServerChannel",
    "ChannelTableStats",
    "ChannelTable",
]

#: Bytes of each derived keystream/tag key.
KEY_LEN = 32

#: Bytes of a record's truncated HMAC-SHA256 integrity tag.
RECORD_TAG_LEN = 16

#: Bytes of a record's big-endian sequence number.
SEQ_LEN = 8

#: Direction labels baked into the key derivation — the two halves of a
#: channel never share a keystream.
CLIENT_TO_SERVER = b"c2s"
SERVER_TO_CLIENT = b"s2c"


@dataclass(frozen=True)
class ChannelKeys:
    """One direction's derived key pair for one key epoch."""

    stream_key: Secret[bytes]
    tag_key: Secret[bytes]


def derive_channel_keys(
    secret: bytes, channel_id: bytes, epoch: int, direction: bytes
) -> Secret[ChannelKeys]:
    """Derive one direction's keystream and tag keys for ``epoch``.

    The info string binds channel id, epoch and direction, so the same
    bootstrap secret never yields colliding keystreams across channels,
    epochs or directions.
    """
    info = b"repro-chan|" + channel_id + struct.pack(">I", epoch) + b"|" + direction
    return ChannelKeys(
        stream_key=kdf(secret, info + b"-stream", KEY_LEN),
        tag_key=kdf(secret, info + b"-tag", KEY_LEN),
    )


def _record_tag(
    keys: ChannelKeys, channel_id: bytes, epoch: int, seq: int, body: bytes
) -> bytes:
    material = channel_id + struct.pack(">IQ", epoch, seq) + body
    return hmac.new(keys.tag_key, material, hashlib.sha256).digest()[:RECORD_TAG_LEN]


def seal_record(
    keys: ChannelKeys, channel_id: bytes, epoch: int, seq: int, plaintext: bytes
) -> bytes:
    """Seal one record: ``seq:8 | XOR-encrypted body | tag:16``."""
    keystream = kdf(keys.stream_key, b"rec" + struct.pack(">Q", seq), len(plaintext))
    body = xor_bytes(plaintext, keystream)
    return struct.pack(">Q", seq) + body + _record_tag(
        keys, channel_id, epoch, seq, body
    )


def open_record(
    keys: ChannelKeys,
    channel_id: bytes,
    epoch: int,
    expected_seq: int,
    record: bytes,
) -> bytes:
    """Verify and open one record sealed by the peer.

    Raises :class:`~repro.errors.TamperedRecordError` when the tag fails
    (checked first — an attacker must not learn which field was wrong) and
    :class:`~repro.errors.ReplayError` when an *authentic* record arrives
    out of sequence.
    """
    if len(record) < SEQ_LEN + RECORD_TAG_LEN:
        raise ProtocolError(
            f"channel record of {len(record)} bytes is shorter than the "
            f"{SEQ_LEN + RECORD_TAG_LEN}-byte minimum"
        )
    (seq,) = struct.unpack_from(">Q", record)
    body = record[SEQ_LEN:-RECORD_TAG_LEN]
    tag = record[-RECORD_TAG_LEN:]
    expected_tag = _record_tag(keys, channel_id, epoch, seq, body)
    if not hmac.compare_digest(expected_tag, tag):
        raise TamperedRecordError(
            f"channel record tag failed to verify (seq {seq}, epoch {epoch})"
        )
    if seq != expected_seq:
        raise ReplayError(
            f"channel record seq {seq} arrived where {expected_seq} was "
            f"expected (replay or reordering)"
        )
    keystream = kdf(keys.stream_key, b"rec" + struct.pack(">Q", seq), len(body))
    return xor_bytes(body, keystream)


class ChannelCrypto:
    """One endpoint's record crypto for an open channel.

    Owns the directional key pairs and the per-direction monotonic sequence
    numbers; :meth:`rekey` swaps in keys derived from a fresh secret at the
    next epoch and resets both sequences.  The server constructs it with
    ``send=SERVER_TO_CLIENT``; the client with ``send=CLIENT_TO_SERVER``.
    """

    def __init__(
        self,
        secret: bytes,
        channel_id: bytes,
        send_direction: bytes,
        recv_direction: bytes,
    ):
        if len(channel_id) != CHANNEL_ID_LEN:
            raise ProtocolError(
                f"channel id must be {CHANNEL_ID_LEN} bytes, got {len(channel_id)}"
            )
        self.channel_id = channel_id
        self._send_direction = send_direction
        self._recv_direction = recv_direction
        self.epoch = -1  # rekey() below moves to epoch 0
        self.send_seq = 0
        self.recv_seq = 0
        self._send_keys: Optional[ChannelKeys] = None
        self._recv_keys: Optional[ChannelKeys] = None
        self.rekey(secret)

    def rekey(self, secret: bytes) -> None:
        """Switch to keys derived from ``secret`` at the next epoch."""
        self.epoch += 1
        self._send_keys = derive_channel_keys(
            secret, self.channel_id, self.epoch, self._send_direction
        )
        self._recv_keys = derive_channel_keys(
            secret, self.channel_id, self.epoch, self._recv_direction
        )
        self.send_seq = 0
        self.recv_seq = 0

    def seal(self, plaintext: bytes) -> bytes:
        """Seal ``plaintext`` at the next send sequence number."""
        assert self._send_keys is not None
        record = seal_record(
            self._send_keys, self.channel_id, self.epoch, self.send_seq, plaintext
        )
        self.send_seq += 1
        return record

    def open(self, record: bytes) -> bytes:
        """Open the peer's record at the next expected receive sequence.

        The expected sequence advances only on success, so a tampered or
        replayed record does not desynchronise an honest retry.
        """
        assert self._recv_keys is not None
        plaintext = open_record(
            self._recv_keys, self.channel_id, self.epoch, self.recv_seq, record
        )
        self.recv_seq += 1
        return plaintext


# -- server-side state ---------------------------------------------------------


@dataclass(frozen=True)
class ChannelPolicy:
    """The server's channel admission, quota and key-rotation knobs."""

    #: Records one key epoch may carry before a rekey is demanded.
    max_messages_per_key: int = 1024
    #: Plaintext bytes one key epoch may carry before a rekey is demanded.
    max_bytes_per_key: int = 1 << 20
    #: Seconds a channel may sit unused before idle eviction.
    idle_seconds: float = 60.0
    #: Open channels one client (connection) may hold.
    max_channels_per_client: int = 64
    #: Open channels across all clients — hard admission control.
    max_channels_total: int = 4096
    #: Token-bucket burst capacity per client (opens and records both draw).
    bucket_capacity: float = 256.0
    #: Token-bucket refill rate per client, tokens per second.
    bucket_refill_per_second: float = 512.0


class TokenBucket:
    """A per-client token bucket: capacity-bounded, continuously refilled.

    The service-shaped admission primitive: every channel open and every
    record draws one token; an empty bucket answers
    :class:`~repro.errors.QuotaError` (an explicit ``ERR_OVER_QUOTA`` frame
    on the wire) until the refill catches up.  ``clock`` is injectable so
    tests control time.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_second: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._clock = clock
        self._tokens = self.capacity
        self._updated = clock()

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._updated = now
        self._tokens = min(
            self.capacity, self._tokens + elapsed * self.refill_per_second
        )

    def try_take(self, tokens: float = 1.0) -> bool:
        """Draw ``tokens`` if available; False (and no draw) otherwise."""
        self._refill()
        if self._tokens < tokens:
            return False
        self._tokens -= tokens
        return True


@dataclass
class ServerChannel:
    """One open channel's server-side state."""

    client: str
    scheme_name: str
    crypto: ChannelCrypto
    opened_at: float
    last_used: float
    #: Records carried under the current key epoch.
    messages_since_rekey: int = 0
    #: Plaintext bytes carried under the current key epoch.
    bytes_since_rekey: int = 0
    rekeys: int = 0
    messages: int = 0

    def key_budget_exhausted(self, policy: ChannelPolicy) -> bool:
        return (
            self.messages_since_rekey >= policy.max_messages_per_key
            or self.bytes_since_rekey >= policy.max_bytes_per_key
        )

    def record_message(self, body_bytes: int, now: float) -> None:
        self.messages += 1
        self.messages_since_rekey += 1
        self.bytes_since_rekey += body_bytes
        self.last_used = now

    def rekeyed(self, secret: bytes, now: float) -> None:
        self.crypto.rekey(secret)
        self.messages_since_rekey = 0
        self.bytes_since_rekey = 0
        self.rekeys += 1
        self.last_used = now


@dataclass
class ChannelTableStats:
    """Serving counters for the channel layer (``ServeServer.channels.stats``)."""

    opened: int = 0
    closed: int = 0
    messages: int = 0
    rekeys: int = 0
    evicted_idle: int = 0
    evicted_hostile: int = 0
    rejected_quota: int = 0
    rekey_required: int = 0


class ChannelTable:
    """Every open channel on one server, with admission and quota policy.

    Keys are ``(client, channel id)`` — a channel belongs to the connection
    that opened it and dies with it (:meth:`drop_client`).  All refusals are
    typed exceptions the connection handler maps onto explicit error
    frames; the table never silently drops state a peer still believes in,
    except idle eviction, which the peer discovers through an explicit
    ``ERR_NO_CHANNEL`` on next use.
    """

    def __init__(
        self,
        policy: Optional[ChannelPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or ChannelPolicy()
        self._clock = clock
        self._channels: Dict[Tuple[str, bytes], ServerChannel] = {}
        #: Channels whose handshake is running: room held by :meth:`claim`.
        self._claims: Set[Tuple[str, bytes]] = set()
        self._buckets: Dict[str, TokenBucket] = {}
        self._per_client: Dict[str, int] = {}
        self.stats = ChannelTableStats()

    def __len__(self) -> int:
        return len(self._channels)

    def now(self) -> float:
        """The table's notion of time (the injected clock)."""
        return self._clock()

    def take_token(self, client: str) -> None:
        """Draw one request token; :class:`~repro.errors.QuotaError` when empty."""
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(
                self.policy.bucket_capacity,
                self.policy.bucket_refill_per_second,
                clock=self._clock,
            )
            self._buckets[client] = bucket
        if not bucket.try_take():
            self.stats.rejected_quota += 1
            raise QuotaError(
                f"client {client} exhausted its request tokens "
                f"(capacity {self.policy.bucket_capacity:g}, refill "
                f"{self.policy.bucket_refill_per_second:g}/s); retry shortly"
            )

    def claim(self, client: str, channel_id: bytes) -> None:
        """Hold room for a channel before its handshake runs.

        Raises what :meth:`admit` would — :class:`~repro.errors.QuotaError`
        at a cap, :class:`~repro.errors.ProtocolError` for an id already
        open — before the handshake spends a key agreement.  :meth:`admit`
        takes the room; :meth:`release` gives it back.
        """
        self.evict_idle()
        key = (client, channel_id)
        self._check_room(key)
        self._claims.add(key)

    def release(self, client: str, channel_id: bytes) -> None:
        """Drop a :meth:`claim` (a no-op once :meth:`admit` took it)."""
        self._claims.discard((client, channel_id))

    def admit(
        self, client: str, channel_id: bytes, scheme_name: str, secret: bytes
    ) -> ServerChannel:
        """Open a channel; raises :class:`~repro.errors.QuotaError` at a cap."""
        key = (client, channel_id)
        self.release(client, channel_id)
        self._check_room(key)
        now = self._clock()
        channel = ServerChannel(
            client=client,
            scheme_name=scheme_name,
            crypto=ChannelCrypto(
                secret, channel_id, SERVER_TO_CLIENT, CLIENT_TO_SERVER
            ),
            opened_at=now,
            last_used=now,
        )
        self._channels[key] = channel
        self._per_client[client] = self._per_client.get(client, 0) + 1
        self.stats.opened += 1
        return channel

    def _check_room(self, key: Tuple[str, bytes]) -> None:
        client, channel_id = key
        if key in self._channels:
            raise ProtocolError(
                f"channel {channel_id.hex()} is already open on this connection"
            )
        if self._per_client.get(client, 0) >= self.policy.max_channels_per_client:
            self.stats.rejected_quota += 1
            raise QuotaError(
                f"client {client} is at its channel cap "
                f"({self.policy.max_channels_per_client})"
            )
        if len(self._channels) + len(self._claims) >= self.policy.max_channels_total:
            self.stats.rejected_quota += 1
            raise QuotaError(
                f"server is at its channel cap ({self.policy.max_channels_total})"
            )

    def get(self, client: str, channel_id: bytes) -> ServerChannel:
        """The open channel, or :class:`~repro.errors.UnknownChannelError`.

        Idle channels are evicted lazily here, so an abandoned channel's
        next use reports ``ERR_NO_CHANNEL`` instead of serving on keys the
        policy already expired.
        """
        key = (client, channel_id)
        channel = self._channels.get(key)
        if channel is not None and (
            self._clock() - channel.last_used > self.policy.idle_seconds
        ):
            self._remove(key)
            self.stats.evicted_idle += 1
            channel = None
        if channel is None:
            raise UnknownChannelError(
                f"no open channel {channel_id.hex()} (never opened, closed, "
                f"or evicted idle)"
            )
        return channel

    def require_key_budget(self, channel: ServerChannel) -> None:
        """Demand a rekey once the epoch's message/byte budget is spent."""
        if channel.key_budget_exhausted(self.policy):
            self.stats.rekey_required += 1
            raise RekeyRequiredError(
                f"key epoch {channel.crypto.epoch} carried "
                f"{channel.messages_since_rekey} records / "
                f"{channel.bytes_since_rekey} bytes; rekey before sending more"
            )

    def open_record(self, channel: ServerChannel, record: bytes) -> bytes:
        """Open the peer's next record; a tampered or replayed one evicts
        the channel before its error propagates."""
        try:
            return channel.crypto.open(record)
        except (TamperedRecordError, ReplayError):
            self.evict_hostile(channel.client, channel.crypto.channel_id)
            raise

    def close(self, client: str, channel_id: bytes) -> None:
        if self._remove((client, channel_id)):
            self.stats.closed += 1

    def evict_hostile(self, client: str, channel_id: bytes) -> None:
        """Tear down a channel that produced a tampered or replayed record."""
        if self._remove((client, channel_id)):
            self.stats.evicted_hostile += 1

    def drop_client(self, client: str) -> int:
        """Remove every channel (and the bucket) of a departing connection."""
        keys = [key for key in self._channels if key[0] == client]
        for key in keys:
            self._remove(key)
        self._buckets.pop(client, None)
        self._per_client.pop(client, None)
        return len(keys)

    def evict_idle(self) -> int:
        """Sweep every channel idle past the policy limit."""
        now = self._clock()
        stale = [
            key
            for key, channel in self._channels.items()
            if now - channel.last_used > self.policy.idle_seconds
        ]
        for key in stale:
            self._remove(key)
            self.stats.evicted_idle += 1
        return len(stale)

    def _remove(self, key: Tuple[str, bytes]) -> bool:
        channel = self._channels.pop(key, None)
        if channel is None:
            return False
        client = key[0]
        remaining = self._per_client.get(client, 1) - 1
        if remaining > 0:
            self._per_client[client] = remaining
        else:
            self._per_client.pop(client, None)
        return True
