"""CEILIDH under the unified PKC layer.

The adapter wraps :class:`~repro.torus.ceilidh.CeilidhSystem` — which stays
the implementation of record — and speaks the byte-level protocol interface:
public keys travel as compressed (u, v) pairs, ciphertexts as
``ephemeral || tag || body`` and Schnorr signatures as two fixed-width
subgroup scalars.  All three protocols are supported; the Table 3 headline
operation is a ``p_bits``-bit torus exponentiation costed by the Type-B Fp6
multiplication sequence.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.errors import DecryptionError, ParameterError, ReproError
from repro.exp.trace import OpTrace
from repro.pkc.base import (
    ENCRYPTION,
    KEY_AGREEMENT,
    SIGNATURE,
    TAG_BYTES,
    PkcScheme,
    SchemeKeyPair,
    decode_scalar_pair,
    encode_scalar_pair,
)
from repro.pkc.profile import canonical_exponent
from repro.torus.ceilidh import CeilidhCiphertext, CeilidhSignature, CeilidhSystem
from repro.torus.compression import CompressedElement
from repro.torus.encoding import compressed_size_bytes, decode_compressed, encode_compressed
from repro.torus.params import TorusParameters

__all__ = ["CeilidhScheme"]


class CeilidhScheme(PkcScheme):
    """Compressed-torus CEILIDH as a registry scheme."""

    capabilities = frozenset({KEY_AGREEMENT, ENCRYPTION, SIGNATURE})
    headline_operation = "torus exponentiation (T6, binary)"

    def __init__(
        self,
        params: "TorusParameters | str" = "ceilidh-170",
        name: Optional[str] = None,
        security_bits: int = 80,
        paper_ms: Optional[float] = None,
        backend=None,
    ):
        from repro.field.backend import get_backend

        self.field_backend = get_backend(backend)
        self.system = CeilidhSystem(params, backend=self.field_backend)
        self.params = self.system.params
        self.name = name or self.params.name
        self.bit_length = self.params.p_bits
        self.security_bits = security_bits
        self.paper_ms = paper_ms
        self._scalar_width = (self.params.q.bit_length() + 7) // 8

    # -- keys -------------------------------------------------------------------

    def keygen(
        self, rng: Optional[random.Random] = None, trace: Optional[OpTrace] = None
    ) -> SchemeKeyPair:
        keypair = self.system.generate_keypair(rng, count=trace)
        return SchemeKeyPair(
            scheme=self.name,
            public_wire=encode_compressed(self.params, keypair.public),
            native=keypair,
        )

    def public_key_size(self) -> int:
        return compressed_size_bytes(self.params)

    def decode_public(self, data: bytes) -> CompressedElement:
        compressed = decode_compressed(self.params, data)
        # Decompression doubles as the membership check.
        self.system.compressor.decompress_to_element(compressed)
        return compressed

    def encode_public(self, public: CompressedElement) -> bytes:
        return encode_compressed(self.params, public)

    # -- key agreement -----------------------------------------------------------

    def key_agreement(
        self,
        own: SchemeKeyPair,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        peer = decode_compressed(self.params, peer_public)
        return self.system.derive_key(own.native, peer, info=info, length=length, count=trace)

    def key_agreement_many(
        self,
        own: SchemeKeyPair,
        peer_publics,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """N derivations sharing batched psi/rho inversions (byte-identical)."""
        peers = [decode_compressed(self.params, peer) for peer in peer_publics]
        return self.system.derive_key_many(
            own.native, peers, info=info, length=length, count=trace
        )

    def key_agreement_with_many(
        self,
        owns,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """N own keys against one peer: one decompression, one shared
        fixed-base table across the batch (byte-identical)."""
        peer = decode_compressed(self.params, peer_public)
        return self.system.derive_key_with_many(
            [own.native for own in owns], peer, info=info, length=length, count=trace
        )

    # -- hybrid encryption ---------------------------------------------------------

    def encrypt(
        self,
        recipient_public: bytes,
        plaintext: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        recipient = decode_compressed(self.params, recipient_public)
        ciphertext = self.system.encrypt(recipient, plaintext, rng, count=trace)
        return (
            encode_compressed(self.params, ciphertext.ephemeral)
            + ciphertext.tag
            + ciphertext.body
        )

    def decrypt(
        self, own: SchemeKeyPair, ciphertext: bytes, trace: Optional[OpTrace] = None
    ) -> bytes:
        element_bytes = compressed_size_bytes(self.params)
        header = element_bytes + TAG_BYTES
        if len(ciphertext) < header:
            raise ParameterError(
                f"ciphertext shorter than the {header}-byte CEILIDH header"
            )
        try:
            parsed = CeilidhCiphertext(
                ephemeral=decode_compressed(self.params, ciphertext[:element_bytes]),
                tag=ciphertext[element_bytes:header],
                body=ciphertext[header:],
            )
            return self.system.decrypt(own.native, parsed, count=trace)
        except DecryptionError:
            raise
        except ReproError as exc:
            # Out-of-range or exceptional-set ephemerals (CompressionError
            # from psi) are attacker-controlled input, not internal errors.
            raise DecryptionError("malformed ephemeral element") from exc

    # -- signatures -----------------------------------------------------------------

    def sign(
        self,
        own: SchemeKeyPair,
        message: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        signature = self.system.sign(own.native, message, rng, count=trace)
        return encode_scalar_pair(
            signature.challenge, signature.response, self._scalar_width
        )

    def verify(
        self,
        public: bytes,
        message: bytes,
        signature: bytes,
        trace: Optional[OpTrace] = None,
    ) -> bool:
        scalars = decode_scalar_pair(signature, self._scalar_width)
        if scalars is None:
            return False
        parsed = CeilidhSignature(challenge=scalars[0], response=scalars[1])
        try:
            public_element = decode_compressed(self.params, public)
            return self.system.verify(public_element, message, parsed, count=trace)
        except ReproError:
            # Covers exceptional-set publics too (CompressionError raised by
            # psi inside system.verify): malformed input reports False.
            return False

    # -- platform projection ---------------------------------------------------------

    def headline_exponentiation(self, trace: OpTrace) -> None:
        """One ``p_bits``-bit binary torus exponentiation (the 20 ms row)."""
        group = self.system.group
        group.exponentiate(
            group.generator(), canonical_exponent(self.bit_length), strategy="binary",
            count=trace,
        )

    def platform_cycles_per_operation(self, platform) -> Tuple[int, int]:
        cost = platform.fp6_multiplication_cost(self.params.p)
        return cost.type_b_cycles, cost.type_b_cycles

    def headline_modulus(self) -> int:
        return self.params.p
