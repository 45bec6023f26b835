"""The CEILIDH public-key cryptosystem.

Rubin and Silverberg's CEILIDH consists of the classical discrete-log
protocols instantiated in the compressed torus T6(Fp): every transmitted
group element travels as a compressed (u, v) pair, so key-agreement messages,
ciphertext headers and signature commitments are a third of the size of the
corresponding Fp6 (or RSA-modulus) encodings at the same security level.

Implemented protocols:

* **Key generation** — private x in [1, q), public key rho(g^x).
* **Diffie-Hellman key agreement** with a SHA-256 based key-derivation step.
* **Hashed-ElGamal hybrid encryption** (ephemeral DH + XOR keystream + MAC-less
  integrity check via key confirmation tag).
* **Schnorr-style signatures** over the order-q subgroup.

Exponent-blinded variants are not required by the paper and are out of scope.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from repro.audit.annotations import Secret
from repro.errors import CompressionError, DecryptionError, ParameterError, SignatureError
from repro.exp.trace import OpTrace
from repro.nt.sampling import resolve_rng, sample_exponent
from repro.torus.compression import CompressedElement
from repro.torus.encoding import encode_compressed
from repro.torus.params import TorusParameters, get_parameters
from repro.torus.t6 import T6Group, TorusElement


@dataclass
class CeilidhKeyPair:
    """A CEILIDH key pair: private exponent and compressed public key."""

    private: Secret[int]
    public: CompressedElement

    def public_bytes(self, params: TorusParameters) -> bytes:
        return encode_compressed(params, self.public)


@dataclass
class CeilidhCiphertext:
    """Hashed-ElGamal ciphertext: compressed ephemeral key, body, confirmation tag."""

    ephemeral: CompressedElement
    body: bytes
    tag: bytes


@dataclass
class CeilidhSignature:
    """Schnorr-style signature (challenge, response)."""

    challenge: int
    response: int


class CeilidhSystem:
    """All CEILIDH protocol operations for one parameter set."""

    def __init__(
        self,
        params: TorusParameters | str = "ceilidh-170",
        validate: bool = False,
        backend=None,
    ):
        if isinstance(params, str):
            params = get_parameters(params)
        self.params = params
        self.group = T6Group(params, validate=validate, backend=backend)
        self.compressor = self.group.compressor

    # -- key management ---------------------------------------------------------

    def generate_keypair(
        self, rng: Optional[random.Random] = None, count: Optional[OpTrace] = None
    ) -> CeilidhKeyPair:
        """Generate a key pair; retries on the (O(1/p)) exceptional compressions."""
        rng = resolve_rng(rng)
        for _ in range(64):
            private = sample_exponent(self.params.q, rng)
            # Fixed-base table on the generator: no online squarings.
            public_element = self.group.generator_power(private, count=count)
            try:
                public = self.compressor.compress(public_element.value)
            except CompressionError:
                continue
            return CeilidhKeyPair(private=private, public=public)
        raise ParameterError("could not generate a compressible public key")  # pragma: no cover

    def public_element(self, keypair_or_public) -> TorusElement:
        """Decompress a public key back into the torus."""
        public = (
            keypair_or_public.public
            if isinstance(keypair_or_public, CeilidhKeyPair)
            else keypair_or_public
        )
        return self.compressor.decompress_to_element(public)

    # -- Diffie-Hellman -----------------------------------------------------------

    def _encode_shared(self, value) -> bytes:
        """Canonical shared-secret encoding: rho, or the uncompressed fallback."""
        try:
            compressed = self.compressor.compress(value)
        except CompressionError:
            # Exceptional shared point: fall back to the uncompressed encoding.
            from repro.torus.encoding import encode_fp6

            return encode_fp6(self.params, value)
        return encode_compressed(self.params, compressed)

    def shared_secret(
        self,
        own: CeilidhKeyPair,
        peer_public: CompressedElement,
        count: Optional[OpTrace] = None,
    ) -> bytes:
        """Raw DH shared secret: canonical encoding of rho((g^y)^x)."""
        peer_element = self.compressor.decompress_to_element(peer_public)
        shared = self.group.exponentiate(peer_element, own.private, count=count)
        return self._encode_shared(shared.value)

    def shared_secret_many(
        self,
        own: CeilidhKeyPair,
        peer_publics,
        count: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """:meth:`shared_secret` against N peers with batched inversions.

        The N psi decompressions and N rho compressions each run through
        the batch maps (one batch inversion per direction instead of N);
        the exponentiations are unchanged, so byte output and trace tallies
        match N single calls.  An exceptional *shared* point (O(1/p))
        re-runs only the cheap compression step per item, keeping the
        per-item fallback encoding; an exceptional *peer* raises just as
        :meth:`shared_secret` would.
        """
        peers = self.compressor.decompress_many(peer_publics)
        shared_values = [
            element.value
            for element in self.group.exponentiate_many(
                [TorusElement(self.group, peer) for peer in peers],
                [own.private] * len(peers),
                count=count,
            )
        ]
        try:
            compressed = self.compressor.compress_many(shared_values)
        except CompressionError:
            return [self._encode_shared(value) for value in shared_values]
        return [encode_compressed(self.params, c) for c in compressed]

    def shared_secret_with_many(
        self,
        owns,
        peer_public: CompressedElement,
        count: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """Shared secrets of N *own* keys against one peer — the client phase
        of a coalesced batch, where every session exponentiates the same
        server public key.

        The peer is decompressed **once** and the N exponentiations share a
        single fixed-base table
        (:meth:`~repro.torus.t6.T6Group.exponentiate_shared_base`), so the
        per-session cost drops to the multiplications.  Byte-identical to
        looping :meth:`shared_secret`; trace tallies reflect the shared
        table (fewer squarings), like ``inv_many`` reflects its one
        inversion.
        """
        owns = list(owns)
        peer_element = self.compressor.decompress_to_element(peer_public)
        shared_values = [
            element.value
            for element in self.group.exponentiate_shared_base(
                peer_element, [own.private for own in owns], count=count
            )
        ]
        try:
            compressed = self.compressor.compress_many(shared_values)
        except CompressionError:
            return [self._encode_shared(value) for value in shared_values]
        return [encode_compressed(self.params, c) for c in compressed]

    def derive_key(
        self,
        own: CeilidhKeyPair,
        peer_public: CompressedElement,
        info: bytes = b"",
        length: int = 32,
        count: Optional[OpTrace] = None,
    ) -> bytes:
        """DH followed by a SHA-256 based KDF (counter mode)."""
        secret = self.shared_secret(own, peer_public, count=count)
        return _kdf(secret, info, length)

    def derive_key_many(
        self,
        own: CeilidhKeyPair,
        peer_publics,
        info: bytes = b"",
        length: int = 32,
        count: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """:meth:`derive_key` against N peers (batched, byte-identical)."""
        return [
            _kdf(secret, info, length)
            for secret in self.shared_secret_many(own, peer_publics, count=count)
        ]

    def derive_key_with_many(
        self,
        owns,
        peer_public: CompressedElement,
        info: bytes = b"",
        length: int = 32,
        count: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """:meth:`derive_key` of N own keys against one peer (shared-base)."""
        return [
            _kdf(secret, info, length)
            for secret in self.shared_secret_with_many(owns, peer_public, count=count)
        ]

    # -- hashed ElGamal -------------------------------------------------------------

    def encrypt(
        self,
        recipient_public: CompressedElement,
        plaintext: bytes,
        rng: Optional[random.Random] = None,
        count: Optional[OpTrace] = None,
    ) -> CeilidhCiphertext:
        """Hybrid encryption to a compressed public key."""
        rng = resolve_rng(rng)
        recipient = self.compressor.decompress_to_element(recipient_public)
        for _ in range(64):
            ephemeral_exponent = sample_exponent(self.params.q, rng)
            ephemeral_element = self.group.generator_power(ephemeral_exponent, count=count)
            try:
                ephemeral = self.compressor.compress(ephemeral_element.value)
                shared = self.group.exponentiate(recipient, ephemeral_exponent, count=count)
                shared_compressed = self.compressor.compress(shared.value)
            except CompressionError:
                continue
            from repro.pkc.base import seal_body

            shared_bytes = encode_compressed(self.params, shared_compressed)
            body, tag = seal_body(shared_bytes, b"ceilidh-elgamal", plaintext)
            return CeilidhCiphertext(ephemeral=ephemeral, body=body, tag=tag)
        raise ParameterError("could not find a compressible ephemeral key")  # pragma: no cover

    def decrypt(
        self,
        own: CeilidhKeyPair,
        ciphertext: CeilidhCiphertext,
        count: Optional[OpTrace] = None,
    ) -> bytes:
        """Decrypt a hashed-ElGamal ciphertext; raises on tag mismatch."""
        ephemeral_element = self.compressor.decompress_to_element(ciphertext.ephemeral)
        shared = self.group.exponentiate(ephemeral_element, own.private, count=count)
        try:
            shared_compressed = self.compressor.compress(shared.value)
        except CompressionError as exc:  # pragma: no cover - sender avoided these
            raise DecryptionError("shared point is exceptional") from exc
        from repro.pkc.base import open_body

        shared_bytes = encode_compressed(self.params, shared_compressed)
        return open_body(shared_bytes, b"ceilidh-elgamal", ciphertext.body, ciphertext.tag)

    # -- Schnorr signatures -----------------------------------------------------------

    def sign(
        self,
        own: CeilidhKeyPair,
        message: bytes,
        rng: Optional[random.Random] = None,
        count: Optional[OpTrace] = None,
    ) -> CeilidhSignature:
        """Schnorr signature: commitment in the torus, challenge from SHA-256."""
        rng = resolve_rng(rng)
        for _ in range(64):
            nonce = sample_exponent(self.params.q, rng)
            commitment = self.group.generator_power(nonce, count=count)
            try:
                commitment_compressed = self.compressor.compress(commitment.value)
            except CompressionError:
                continue
            challenge = self._challenge(commitment_compressed, own.public, message)
            response = (nonce + challenge * own.private) % self.params.q
            return CeilidhSignature(challenge=challenge, response=response)
        raise SignatureError("could not find a compressible commitment")  # pragma: no cover

    def verify(
        self,
        public: CompressedElement,
        message: bytes,
        signature: CeilidhSignature,
        count: Optional[OpTrace] = None,
    ) -> bool:
        """Verify a Schnorr signature against a compressed public key."""
        if not 0 <= signature.challenge < self.params.q:
            return False
        if not 0 <= signature.response < self.params.q:
            return False
        generator = self.group.generator()
        public_element = self.compressor.decompress_to_element(public)
        # r' = g^s * (pub)^(-e) as one Shamir double exponentiation; on the
        # torus the inverse is a Frobenius map, so negating e is free.
        candidate = self.group.double_exponentiate(
            generator, signature.response, public_element, -signature.challenge, count=count
        )
        try:
            candidate_compressed = self.compressor.compress(candidate.value)
        except CompressionError:
            return False
        return self._challenge(candidate_compressed, public, message) == signature.challenge

    def _challenge(
        self, commitment: CompressedElement, public: CompressedElement, message: bytes
    ) -> int:
        digest = hashlib.sha256()
        digest.update(encode_compressed(self.params, commitment))
        digest.update(encode_compressed(self.params, public))
        digest.update(message)
        return int.from_bytes(digest.digest(), "big") % self.params.q


def _kdf(secret: bytes, info: bytes, length: int) -> bytes:
    """SHA-256 counter-mode key derivation (the library-wide construction)."""
    from repro.pkc.base import kdf

    return kdf(secret, info, length)
