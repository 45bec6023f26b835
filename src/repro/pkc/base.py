"""The scheme-agnostic protocol interface of the unified PKC layer.

The paper's headline result (Table 3) is a *comparison* of public-key
cryptosystems on one platform, so the library needs one protocol vocabulary
that RSA, ECC, CEILIDH and XTR all speak.  This module defines it:

* three small structural protocols — :class:`KeyAgreement`,
  :class:`PublicKeyEncryption` and :class:`Signature` — describing the
  operations a scheme may support,
* :class:`PkcScheme`, the abstract adapter base every concrete scheme
  (``repro.torus.pkc``, ``repro.ecc.pkc``, ``repro.rsa.pkc``,
  ``repro.xtr.pkc``) subclasses, and
* :class:`SchemeKeyPair`, the uniform key-pair wrapper.

Everything that crosses the protocol boundary is **bytes in the scheme's
canonical wire encoding** — compressed (u, v) pairs for the torus, SEC1
points for curves, ``n || e`` for RSA, Fp2 traces for XTR — so callers can
drive any scheme, and account for its bandwidth, without knowing which one
they hold.  Operation accounting is equally uniform: every method takes an
optional :class:`~repro.exp.trace.OpTrace` that tallies the group operations
(or, for XTR, Fp2 multiplications) the call performed.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import DecryptionError, UnsupportedOperationError
from repro.exp.trace import OpTrace

__all__ = [
    "KEY_AGREEMENT",
    "ENCRYPTION",
    "SIGNATURE",
    "TAG_BYTES",
    "SchemeKeyPair",
    "KeyAgreement",
    "PublicKeyEncryption",
    "Signature",
    "PkcScheme",
    "kdf",
    "xor_bytes",
    "seal_body",
    "open_body",
    "encode_scalar_pair",
    "decode_scalar_pair",
]

#: Capability names a scheme may advertise.
KEY_AGREEMENT = "key-agreement"
ENCRYPTION = "encryption"
SIGNATURE = "signature"

#: Confirmation-tag bytes in every scheme's hybrid ciphertext.
TAG_BYTES = 16


def kdf(secret: bytes, info: bytes, length: int) -> bytes:
    """The library-wide SHA-256 counter-mode key derivation.

    The same construction CEILIDH has always used; hoisted here so the
    ECIES and RSA-KEM hybrid paths derive their keystreams identically.
    Block ``i`` is ``SHA-256(i:4 || secret || info)``; the blocks are
    joined once and cut to ``length`` bytes.
    """
    blocks = (length + 31) // 32
    return b"".join(
        [
            hashlib.sha256(counter.to_bytes(4, "big") + secret + info).digest()
            for counter in range(blocks)
        ]
    )[:length]


def xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR an equally long ``keystream``, through one big integer.

    Two ``int.from_bytes`` conversions, one integer XOR and one
    ``to_bytes`` replace a Python-level loop over the bytes; the output is
    byte-for-byte the same.
    """
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(len(data), "big")


def seal_body(secret: bytes, label: bytes, plaintext: bytes) -> Tuple[bytes, bytes]:
    """The shared hybrid body: XOR keystream plus truncated HMAC tag.

    ``label`` domain-separates the scheme (``b"ceilidh-elgamal"``,
    ``b"ecies"``, ``b"rsa-kem"``); the keystream and tag key are derived as
    ``kdf(secret, label + "-stream"/"-tag")``.  Returns ``(body, tag)``.
    """
    keystream = kdf(secret, label + b"-stream", len(plaintext))
    tag_key = kdf(secret, label + b"-tag", 32)
    body = xor_bytes(plaintext, keystream)
    tag = hmac.new(tag_key, body, hashlib.sha256).digest()[:TAG_BYTES]
    return body, tag


def open_body(secret: bytes, label: bytes, body: bytes, tag: bytes) -> bytes:
    """Inverse of :func:`seal_body`; raises ``DecryptionError`` on tag mismatch."""
    keystream = kdf(secret, label + b"-stream", len(body))
    tag_key = kdf(secret, label + b"-tag", 32)
    expected = hmac.new(tag_key, body, hashlib.sha256).digest()[:TAG_BYTES]
    if not hmac.compare_digest(expected, tag):
        raise DecryptionError("integrity tag mismatch")
    return xor_bytes(body, keystream)


def encode_scalar_pair(first: int, second: int, width: int) -> bytes:
    """Two fixed-width big-endian scalars — the (e, s) / (r, s) signature shape."""
    return first.to_bytes(width, "big") + second.to_bytes(width, "big")


def decode_scalar_pair(data: bytes, width: int) -> Optional[Tuple[int, int]]:
    """Inverse of :func:`encode_scalar_pair`; ``None`` on a wrong length.

    Returning ``None`` (rather than raising) lets ``verify`` implementations
    keep their report-``False``-never-raise contract with one guard.
    """
    if len(data) != 2 * width:
        return None
    return int.from_bytes(data[:width], "big"), int.from_bytes(data[width:], "big")


@dataclass
class SchemeKeyPair:
    """A key pair under the unified layer.

    ``native`` is the scheme's own key-pair object (``CeilidhKeyPair``,
    ``EcdhKeyPair``, ``RsaKeyPair``, ``XtrKeyPair``); ``public_wire`` is the
    canonical byte encoding of its public half — the thing that would travel.
    """

    scheme: str
    public_wire: bytes
    native: Any = field(repr=False, default=None)

    @property
    def public_key_bytes(self) -> int:
        """Bytes on the wire for this public key."""
        return len(self.public_wire)


@runtime_checkable
class KeyAgreement(Protocol):
    """Diffie-Hellman-shaped key agreement: keygen, exchange publics, derive."""

    def keygen(
        self, rng: Optional[random.Random] = None, trace: Optional[OpTrace] = None
    ) -> SchemeKeyPair: ...

    def key_agreement(
        self,
        own: SchemeKeyPair,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> bytes: ...


@runtime_checkable
class PublicKeyEncryption(Protocol):
    """Hybrid public-key encryption of arbitrary byte strings."""

    def keygen(
        self, rng: Optional[random.Random] = None, trace: Optional[OpTrace] = None
    ) -> SchemeKeyPair: ...

    def encrypt(
        self,
        recipient_public: bytes,
        plaintext: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes: ...

    def decrypt(
        self, own: SchemeKeyPair, ciphertext: bytes, trace: Optional[OpTrace] = None
    ) -> bytes: ...


@runtime_checkable
class Signature(Protocol):
    """Digital signatures over arbitrary messages."""

    def keygen(
        self, rng: Optional[random.Random] = None, trace: Optional[OpTrace] = None
    ) -> SchemeKeyPair: ...

    def sign(
        self,
        own: SchemeKeyPair,
        message: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes: ...

    def verify(
        self,
        public: bytes,
        message: bytes,
        signature: bytes,
        trace: Optional[OpTrace] = None,
    ) -> bool: ...


class PkcScheme:
    """Abstract base of every scheme adapter.

    Subclasses set the identity attributes, declare their ``capabilities``
    and implement the corresponding protocol methods; unimplemented
    operations raise :class:`~repro.errors.UnsupportedOperationError` so a
    generic caller can probe with ``capabilities`` and never trip over a
    missing method.
    """

    #: Registry name, e.g. ``"ceilidh-170"``.
    name: str = "pkc-scheme"
    #: The headline operand size the paper would quote (170, 160, 1024...).
    bit_length: int = 0
    #: Approximate symmetric-equivalent security of the parameterisation.
    security_bits: int = 0
    #: The paper's Table 3 time for this row, when it has one.
    paper_ms: Optional[float] = None
    #: Human-readable name of the Table 3 operation the scheme is costed by.
    headline_operation: str = "exponentiation"
    #: Subset of {KEY_AGREEMENT, ENCRYPTION, SIGNATURE}.
    capabilities: frozenset = frozenset()
    #: The field-arithmetic backend *spec* the adapter was built with (a
    #: :mod:`repro.field.backend` object; PlainBackend unless injected).
    #: Set by the concrete adapters' constructors.
    field_backend: Any = None

    # -- keys -------------------------------------------------------------------

    def keygen(
        self, rng: Optional[random.Random] = None, trace: Optional[OpTrace] = None
    ) -> SchemeKeyPair:
        raise NotImplementedError

    def keygen_many(
        self,
        count: int,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> "list[SchemeKeyPair]":
        """N key pairs; overridden where per-key work can be batched.

        The contract every override must keep: RNG draws happen in the same
        order as N :meth:`keygen` calls and the wire keys are byte-identical
        to them — batching is an execution strategy, never a semantic.
        """
        return [self.keygen(rng, trace=trace) for _ in range(count)]

    def public_key_size(self) -> int:
        """Bytes of one wire-encoded public key."""
        raise NotImplementedError

    def decode_public(self, data: bytes) -> Any:
        """Parse (and validate) a wire-encoded public key into native form."""
        raise NotImplementedError

    def encode_public(self, public: Any) -> bytes:
        """Inverse of :meth:`decode_public`."""
        raise NotImplementedError

    # -- key agreement -----------------------------------------------------------

    def key_agreement(
        self,
        own: SchemeKeyPair,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        raise UnsupportedOperationError(f"{self.name} does not implement key agreement")

    def key_agreement_many(
        self,
        own: SchemeKeyPair,
        peer_publics,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """Derive against N peer publics; overridden where the per-peer
        work can share batch inversions.  Same byte-identity contract as
        :meth:`keygen_many`; any per-item failure (a malformed peer key)
        propagates exactly as the single call would raise it.
        """
        return [
            self.key_agreement(own, peer, info=info, length=length, trace=trace)
            for peer in peer_publics
        ]

    def key_agreement_with_many(
        self,
        owns,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """Derive N own keys against **one** peer public — the client phase
        of a coalesced batch, where every session targets the same server
        key.  Overridden where the shared base lets one precomputation
        (a fixed-base table over the peer element) serve the whole batch.
        Same byte-identity contract as :meth:`keygen_many`.
        """
        return [
            self.key_agreement(own, peer_public, info=info, length=length, trace=trace)
            for own in owns
        ]

    # -- hybrid encryption ---------------------------------------------------------

    def encrypt(
        self,
        recipient_public: bytes,
        plaintext: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        raise UnsupportedOperationError(f"{self.name} does not implement encryption")

    def decrypt(
        self, own: SchemeKeyPair, ciphertext: bytes, trace: Optional[OpTrace] = None
    ) -> bytes:
        raise UnsupportedOperationError(f"{self.name} does not implement encryption")

    # -- signatures -----------------------------------------------------------------

    def sign(
        self,
        own: SchemeKeyPair,
        message: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        raise UnsupportedOperationError(f"{self.name} does not implement signatures")

    def sign_many(
        self,
        own: SchemeKeyPair,
        messages,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """Sign N messages under one key; overridden where batching helps
        (deterministic RSA signatures share one exponentiation batch).  The
        default loop preserves the per-message RNG draw order of randomized
        schemes, so wire output stays byte-identical either way.
        """
        return [self.sign(own, message, rng=rng, trace=trace) for message in messages]

    def verify(
        self,
        public: bytes,
        message: bytes,
        signature: bytes,
        trace: Optional[OpTrace] = None,
    ) -> bool:
        raise UnsupportedOperationError(f"{self.name} does not implement signatures")

    # -- platform projection ---------------------------------------------------------

    def headline_exponentiation(self, trace: OpTrace) -> None:
        """Run the scheme's Table 3 operation once with the paper's strategy.

        Executes one real exponentiation (binary / double-and-add / the XTR
        ladder — whatever the paper costs the scheme by) over the canonical
        half-weight exponent of :func:`repro.pkc.profile.canonical_exponent`,
        tallying into ``trace``.  The profile layer projects these counts
        through the platform cost model.
        """
        raise NotImplementedError

    def platform_cycles_per_operation(self, platform) -> "tuple[int, int]":
        """(cycles per squaring, cycles per general multiplication) on the SoC.

        Both under the Type-B hierarchy, including the per-operation share of
        MicroBlaze interface overhead — the per-unit numbers Table 3 composes.
        """
        raise NotImplementedError

    def headline_modulus(self) -> int:
        """The modulus whose Table 1 row prices the headline operation.

        Used by the measured profile mode to build the
        :class:`~repro.soc.cost.ModularOpCosts` the word-operation stream is
        composed through.
        """
        raise NotImplementedError

    def headline_sequence_count(self, trace: OpTrace) -> int:
        """Level-2 sequence issues of the headline run (interface round trips).

        One per group operation for the torus/ECC/RSA shapes; XTR overrides
        because each *mixed* ladder step issues one sequence but tallies two
        of the counted Fp2 multiplications.
        """
        return trace.total

    def __repr__(self) -> str:
        caps = ",".join(sorted(self.capabilities)) or "none"
        return f"<{type(self).__name__} {self.name!r} ({self.bit_length} bit; {caps})>"
