"""The framed wire protocol of the serving layer.

Every scheme in the registry already speaks *bytes in its canonical wire
encoding* (compressed torus pairs, SEC1 points, ``n || e``, Fp2 traces); the
serving protocol frames those bytes for transport without reinterpreting
them.  A frame is::

    +----------+---------+--------+-----------------+
    | length:4 | version | opcode | payload ...     |
    +----------+---------+--------+-----------------+

``length`` is a big-endian ``uint32`` counting everything after itself
(version byte + opcode byte + payload), so a reader always knows how many
bytes complete the frame.  ``version`` is :data:`PROTOCOL_VERSION`; a
mismatch is fatal to the connection.  Lengths above
``max_payload + 2`` are rejected *before* any buffering of the payload, so
a hostile or corrupt length prefix cannot make the server allocate.

The opcode vocabulary mirrors the scheme capabilities: a client negotiates
a scheme by registry name (:data:`OP_HELLO` → :data:`OP_WELCOME`, carrying
the server's long-lived public key), then drives key agreement
(:data:`OP_KA_INIT` → :data:`OP_KA_CONFIRM`), hybrid encryption
(:data:`OP_ENCRYPT`/:data:`OP_DECRYPT`), and signatures
(:data:`OP_SIGN`/:data:`OP_VERIFY`).  Secrets never travel: the server
confirms a key agreement with :func:`confirmation_tag` (a hash of the
shared secret) and a decryption with :func:`plaintext_digest`, which the
client recomputes locally.

Every typed refusal travels as one ``OP_ERROR`` code, and
:data:`REFUSAL_CODES` is the one table of them: the server answers a raised
refusal with its code (:func:`classify_error`), and the client raises the
same type back (:data:`REFUSAL_TYPES`).

The server and client read frames with :func:`read_frame` on an
``asyncio.StreamReader``, and its edge cases (truncation, oversized
lengths, arbitrary chunking) are tested without sockets by feeding a
reader directly.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from repro.errors import (
    ProtocolError,
    QuotaError,
    RekeyRequiredError,
    ReplayError,
    ReproError,
    TamperedRecordError,
    UnavailableError,
    UnknownChannelError,
    UnsupportedOperationError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_PAYLOAD",
    "HEADER",
    "Frame",
    "encode_frame",
    "read_frame",
    "write_frame",
    "OP_HELLO",
    "OP_KA_INIT",
    "OP_ENCRYPT",
    "OP_DECRYPT",
    "OP_SIGN",
    "OP_VERIFY",
    "OP_CHAN_OPEN",
    "OP_CHAN_MSG",
    "OP_CHAN_REKEY",
    "OP_CHAN_CLOSE",
    "OP_WELCOME",
    "OP_KA_CONFIRM",
    "OP_CIPHERTEXT",
    "OP_PLAINTEXT_DIGEST",
    "OP_SIGNATURE",
    "OP_VERDICT",
    "OP_CHAN_ACCEPT",
    "OP_CHAN_REPLY",
    "OP_CHAN_REKEYED",
    "OP_CHAN_CLOSED",
    "OP_ERROR",
    "OP_OVERLOADED",
    "REQUEST_OPS",
    "CHANNEL_OPS",
    "OPCODE_NAMES",
    "ERR_VERSION",
    "ERR_UNKNOWN_OPCODE",
    "ERR_UNKNOWN_SCHEME",
    "ERR_NO_SESSION",
    "ERR_UNSUPPORTED",
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_UNAVAILABLE",
    "ERR_OVER_QUOTA",
    "ERR_NO_CHANNEL",
    "ERR_REPLAY",
    "ERR_TAMPERED",
    "ERR_REKEY_REQUIRED",
    "ERR_IDLE_TIMEOUT",
    "ERROR_NAMES",
    "REFUSAL_CODES",
    "REFUSAL_TYPES",
    "classify_error",
    "TAG_LEN",
    "CHANNEL_ID_LEN",
    "confirmation_tag",
    "constant_time_equal",
    "plaintext_digest",
    "pack_welcome",
    "parse_welcome",
    "pack_verify",
    "parse_verify",
    "pack_error",
    "parse_error",
    "pack_channel",
    "parse_channel",
]

#: Bumped when the frame layout or opcode semantics change incompatibly.
PROTOCOL_VERSION = 1

#: Default cap on a frame's payload bytes.  Every scheme message the layer
#: carries (public keys, hybrid ciphertexts, signatures) is far below this;
#: a larger advertised length is rejected before any payload is buffered.
MAX_FRAME_PAYLOAD = 64 * 1024

#: ``length:4 | version:1 | opcode:1`` — length counts version + opcode + payload.
HEADER = struct.Struct(">IBB")

# -- opcodes: client -> server ------------------------------------------------

OP_HELLO = 0x01  #: payload: registry scheme name, UTF-8
OP_KA_INIT = 0x02  #: payload: client public key, scheme wire encoding
OP_ENCRYPT = 0x03  #: payload: plaintext to encrypt under the server's key
OP_DECRYPT = 0x04  #: payload: hybrid ciphertext for the server to open
OP_SIGN = 0x05  #: payload: message to sign with the server's key
OP_VERIFY = 0x06  #: payload: uint32 message length | message | signature
OP_CHAN_OPEN = 0x07  #: payload: channel id | key-exchange material (public key or KEM ciphertext)
OP_CHAN_MSG = 0x08  #: payload: channel id | sealed record (seq | body | tag)
OP_CHAN_REKEY = 0x09  #: payload: channel id | sealed record whose body is fresh key-exchange material
OP_CHAN_CLOSE = 0x0A  #: payload: channel id | sealed empty record (authenticated close)

# -- opcodes: server -> client ------------------------------------------------

OP_WELCOME = 0x81  #: payload: uint8 name length | name | server public key
OP_KA_CONFIRM = 0x82  #: payload: confirmation_tag(shared secret)
OP_CIPHERTEXT = 0x83  #: payload: the ciphertext produced by OP_ENCRYPT
OP_PLAINTEXT_DIGEST = 0x84  #: payload: plaintext_digest(recovered plaintext)
OP_SIGNATURE = 0x85  #: payload: the signature produced by OP_SIGN
OP_VERDICT = 0x86  #: payload: one byte, 0x01 accepted / 0x00 rejected
OP_CHAN_ACCEPT = 0x87  #: payload: channel id | confirmation_tag(channel secret)
OP_CHAN_REPLY = 0x88  #: payload: channel id | sealed record (body = plaintext_digest)
OP_CHAN_REKEYED = 0x89  #: payload: channel id | old-epoch sealed record (body = confirmation tag)
OP_CHAN_CLOSED = 0x8A  #: payload: channel id
OP_ERROR = 0xEE  #: payload: uint8 error code | UTF-8 detail
OP_OVERLOADED = 0xBF  #: payload: UTF-8 detail — bounded queue full, retry later

#: The operation-bearing client opcodes (everything except the handshake).
REQUEST_OPS = (OP_KA_INIT, OP_ENCRYPT, OP_DECRYPT, OP_SIGN, OP_VERIFY)

#: The stateful-channel client opcodes, handled by the channel layer.
CHANNEL_OPS = (OP_CHAN_OPEN, OP_CHAN_MSG, OP_CHAN_REKEY, OP_CHAN_CLOSE)

OPCODE_NAMES = {
    OP_HELLO: "HELLO",
    OP_KA_INIT: "KA_INIT",
    OP_ENCRYPT: "ENCRYPT",
    OP_DECRYPT: "DECRYPT",
    OP_SIGN: "SIGN",
    OP_VERIFY: "VERIFY",
    OP_CHAN_OPEN: "CHAN_OPEN",
    OP_CHAN_MSG: "CHAN_MSG",
    OP_CHAN_REKEY: "CHAN_REKEY",
    OP_CHAN_CLOSE: "CHAN_CLOSE",
    OP_WELCOME: "WELCOME",
    OP_KA_CONFIRM: "KA_CONFIRM",
    OP_CIPHERTEXT: "CIPHERTEXT",
    OP_PLAINTEXT_DIGEST: "PLAINTEXT_DIGEST",
    OP_SIGNATURE: "SIGNATURE",
    OP_VERDICT: "VERDICT",
    OP_CHAN_ACCEPT: "CHAN_ACCEPT",
    OP_CHAN_REPLY: "CHAN_REPLY",
    OP_CHAN_REKEYED: "CHAN_REKEYED",
    OP_CHAN_CLOSED: "CHAN_CLOSED",
    OP_ERROR: "ERROR",
    OP_OVERLOADED: "OVERLOADED",
}

# -- error codes ---------------------------------------------------------------

ERR_VERSION = 1  #: frame carried a protocol version the server does not speak
ERR_UNKNOWN_OPCODE = 2
ERR_UNKNOWN_SCHEME = 3  #: HELLO named a scheme outside the server's registry
ERR_NO_SESSION = 4  #: an operation arrived before a successful HELLO
ERR_UNSUPPORTED = 5  #: the negotiated scheme lacks the requested capability
ERR_BAD_REQUEST = 6  #: malformed payload (bad point, bad ciphertext...)
ERR_INTERNAL = 7
ERR_UNAVAILABLE = 8  #: draining worker — reconnect, retry
ERR_OVER_QUOTA = 9  #: per-client token bucket empty or channel cap reached
ERR_NO_CHANNEL = 10  #: channel id unknown — never opened, closed, or idle-evicted
ERR_REPLAY = 11  #: record sequence number replayed or reordered; channel torn down
ERR_TAMPERED = 12  #: record integrity tag failed to verify; channel torn down
ERR_REKEY_REQUIRED = 13  #: key epoch budget exhausted; CHAN_REKEY before more records
ERR_IDLE_TIMEOUT = 14  #: connection idle past the server's limit; closing

ERROR_NAMES = {
    ERR_VERSION: "version-mismatch",
    ERR_UNKNOWN_OPCODE: "unknown-opcode",
    ERR_UNKNOWN_SCHEME: "unknown-scheme",
    ERR_NO_SESSION: "no-session",
    ERR_UNSUPPORTED: "unsupported-operation",
    ERR_BAD_REQUEST: "bad-request",
    ERR_INTERNAL: "internal-error",
    ERR_UNAVAILABLE: "unavailable",
    ERR_OVER_QUOTA: "over-quota",
    ERR_NO_CHANNEL: "no-such-channel",
    ERR_REPLAY: "record-replayed",
    ERR_TAMPERED: "record-tampered",
    ERR_REKEY_REQUIRED: "rekey-required",
    ERR_IDLE_TIMEOUT: "idle-timeout",
}

#: Each typed refusal and the error code that carries it on the wire.
REFUSAL_CODES: Dict[Type[ReproError], int] = {
    QuotaError: ERR_OVER_QUOTA,
    UnavailableError: ERR_UNAVAILABLE,
    UnknownChannelError: ERR_NO_CHANNEL,
    ReplayError: ERR_REPLAY,
    TamperedRecordError: ERR_TAMPERED,
    RekeyRequiredError: ERR_REKEY_REQUIRED,
    UnsupportedOperationError: ERR_UNSUPPORTED,
}

#: The type a client raises for each refusal code.  An idle-timeout close
#: is, to the client, one more connection to replace.
REFUSAL_TYPES: Dict[int, Type[ReproError]] = {
    **{code: refusal for refusal, code in REFUSAL_CODES.items()},
    ERR_IDLE_TIMEOUT: UnavailableError,
}


def classify_error(exc: BaseException) -> Tuple[int, str]:
    """The wire error code and detail that answer ``exc``.

    A typed refusal takes its code from :data:`REFUSAL_CODES`.  Any other
    library error or ``ValueError`` is the client's malformed input (bad
    point, bad ciphertext, wrong length, a parse failure); anything else
    is the server's own fault.
    """
    for kind in type(exc).__mro__:
        if kind in REFUSAL_CODES:
            return REFUSAL_CODES[kind], str(exc)
    if isinstance(exc, (ReproError, ValueError)):
        return ERR_BAD_REQUEST, str(exc)
    return ERR_INTERNAL, f"{type(exc).__name__}: {exc}"

#: Bytes of the key-agreement confirmation tag and plaintext digest.
TAG_LEN = 16

#: Bytes of a channel identifier on the wire (client-chosen, random).
CHANNEL_ID_LEN = 8


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    version: int
    opcode: int
    payload: bytes

    @property
    def opcode_name(self) -> str:
        return OPCODE_NAMES.get(self.opcode, f"0x{self.opcode:02x}")


def encode_frame(
    opcode: int, payload: bytes = b"", version: int = PROTOCOL_VERSION
) -> bytes:
    """Serialise one frame.  Raises on payloads above :data:`MAX_FRAME_PAYLOAD`."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )
    return HEADER.pack(len(payload) + 2, version, opcode) + payload


async def read_frame(
    reader: "asyncio.StreamReader", max_payload: int = MAX_FRAME_PAYLOAD
) -> Optional[Frame]:
    """Read exactly one frame; ``None`` on EOF at a frame boundary.

    EOF in the middle of a frame — a mid-stream connection drop — raises
    :class:`~repro.errors.ProtocolError`, which the server handler treats as
    a disconnect for that connection only.
    """
    prefix = await reader.read(4)
    if prefix == b"":
        return None
    while len(prefix) < 4:
        more = await reader.read(4 - len(prefix))
        if more == b"":
            raise ProtocolError("connection dropped inside a frame header")
        prefix += more
    (length,) = struct.unpack(">I", prefix)
    if length < 2 or length - 2 > max_payload:
        raise ProtocolError(f"frame length {length} outside [2, {max_payload + 2}]")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection dropped inside a frame body") from exc
    return Frame(body[0], body[1], body[2:])


async def write_frame(
    writer: "asyncio.StreamWriter",
    opcode: int,
    payload: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> None:
    """Serialise and flush one frame."""
    writer.write(encode_frame(opcode, payload, version=version))
    await writer.drain()


# -- payload shapes ------------------------------------------------------------


def confirmation_tag(shared_secret: bytes) -> bytes:
    """What the server returns for a key agreement instead of the secret."""
    return hashlib.sha256(b"repro-serve-confirm" + shared_secret).digest()[:TAG_LEN]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare secret-derived byte strings without a timing oracle.

    A short-circuiting ``==`` on a confirmation tag leaks how many leading
    bytes of the attacker's guess matched (audit rule CT103); this is the
    one vetted comparator for anything derived from key material.
    """
    return hmac.compare_digest(a, b)


def plaintext_digest(plaintext: bytes) -> bytes:
    """What the server returns for a decryption instead of the plaintext."""
    return hashlib.sha256(b"repro-serve-digest" + plaintext).digest()[:TAG_LEN]


def pack_welcome(scheme_name: str, server_public: bytes) -> bytes:
    encoded = scheme_name.encode("utf-8")
    if len(encoded) > 255:
        raise ProtocolError("scheme name too long for the wire")
    return bytes([len(encoded)]) + encoded + server_public


def parse_welcome(payload: bytes) -> Tuple[str, bytes]:
    """``(scheme name, server public key)`` from an OP_WELCOME payload."""
    if not payload:
        raise ProtocolError("empty WELCOME payload")
    name_len = payload[0]
    if len(payload) < 1 + name_len:
        raise ProtocolError("WELCOME payload shorter than its name length")
    name = payload[1 : 1 + name_len].decode("utf-8", errors="replace")
    return name, payload[1 + name_len :]


def pack_verify(message: bytes, signature: bytes) -> bytes:
    return struct.pack(">I", len(message)) + message + signature


def parse_verify(payload: bytes) -> Tuple[bytes, bytes]:
    """``(message, signature)`` from an OP_VERIFY payload."""
    if len(payload) < 4:
        raise ProtocolError("VERIFY payload shorter than its length prefix")
    (msg_len,) = struct.unpack_from(">I", payload)
    if len(payload) - 4 < msg_len:
        raise ProtocolError("VERIFY payload shorter than its message length")
    return payload[4 : 4 + msg_len], payload[4 + msg_len :]


def pack_channel(channel_id: bytes, blob: bytes = b"") -> bytes:
    """``channel id | blob`` — the shape of every channel opcode payload."""
    if len(channel_id) != CHANNEL_ID_LEN:
        raise ProtocolError(
            f"channel id must be {CHANNEL_ID_LEN} bytes, got {len(channel_id)}"
        )
    return channel_id + blob


def parse_channel(payload: bytes) -> Tuple[bytes, bytes]:
    """``(channel id, blob)`` from a channel opcode payload."""
    if len(payload) < CHANNEL_ID_LEN:
        raise ProtocolError(
            f"channel payload of {len(payload)} bytes is shorter than the "
            f"{CHANNEL_ID_LEN}-byte channel id"
        )
    return payload[:CHANNEL_ID_LEN], payload[CHANNEL_ID_LEN:]


def pack_error(code: int, detail: str = "") -> bytes:
    return bytes([code]) + detail.encode("utf-8")


def parse_error(payload: bytes) -> Tuple[int, str]:
    """``(code, detail)`` from an OP_ERROR payload."""
    if not payload:
        return ERR_INTERNAL, ""
    return payload[0], payload[1:].decode("utf-8", errors="replace")
