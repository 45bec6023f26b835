"""Prime-field ECC under the unified PKC layer.

The adapter speaks SEC1 bytes over the existing ECDH/ECDSA entry points and
adds the hybrid encryption leg (hashed-ElGamal / ECIES-style: ephemeral ECDH
+ XOR keystream + confirmation tag) the cross-scheme comparison needs.  Key
generation, ECIES ephemerals and ECDSA nonce points run from a cached
fixed-base table on the generator — the same amortisation CEILIDH applies to
its generator powers, which is what makes the batched serving benchmark an
apples-to-apples comparison.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.errors import DecryptionError, ParameterError, ReproError
from repro.exp.group import JacobianExpGroup
from repro.exp.strategies import FixedBaseTable
from repro.exp.trace import OpTrace
from repro.nt.sampling import resolve_rng, sample_exponent
from repro.pkc.base import (
    ENCRYPTION,
    KEY_AGREEMENT,
    SIGNATURE,
    TAG_BYTES,
    PkcScheme,
    SchemeKeyPair,
    decode_scalar_pair,
    encode_scalar_pair,
    kdf,
    open_body,
    seal_body,
)
from repro.pkc.profile import canonical_exponent
from repro.ecc.curves import NamedCurve
from repro.ecc.ecdh import (
    EcdhKeyPair,
    ecdh_shared_secret,
    ecdh_shared_secret_many,
    ecdh_shared_secret_with_many,
    ecdsa_sign,
    ecdsa_verify,
)
from repro.ecc.encoding import decode_point, encode_point, point_size_bytes
from repro.ecc.point import AffinePoint, to_affine_many
from repro.ecc.scalar import scalar_mult

__all__ = ["EcdhScheme"]


class EcdhScheme(PkcScheme):
    """ECDH + ECIES + ECDSA on a named curve as a registry scheme.

    ``compressed`` selects the SEC1 form used for public keys and ciphertext
    ephemerals; the default matches the library's historical uncompressed
    examples.
    """

    capabilities = frozenset({KEY_AGREEMENT, ENCRYPTION, SIGNATURE})
    headline_operation = "ECC scalar multiplication (Jacobian, double-and-add)"

    def __init__(
        self,
        curve: NamedCurve,
        name: Optional[str] = None,
        security_bits: int = 80,
        paper_ms: Optional[float] = None,
        compressed: bool = False,
        backend=None,
    ):
        from repro.field.backend import get_backend

        self.field_backend = get_backend(backend)
        self.curve = curve
        self.name = name or curve.name
        self.bit_length = curve.p.bit_length()
        self.security_bits = security_bits
        self.paper_ms = paper_ms
        self.compressed = compressed
        self._curve_obj, self._generator = curve.build(backend=self.field_backend)
        self._exp_group = JacobianExpGroup(self._curve_obj)
        self._generator_table: Optional[FixedBaseTable] = None
        self._scalar_width = (curve.order.bit_length() + 7) // 8

    # -- fixed-base generator powers ------------------------------------------------

    def _table(self) -> FixedBaseTable:
        if self._generator_table is None:
            self._generator_table = FixedBaseTable(
                self._exp_group,
                self._generator.to_jacobian(),
                self.curve.order.bit_length(),
            )
        return self._generator_table

    def generator_power(self, exponent: int, trace: Optional[OpTrace] = None) -> AffinePoint:
        """``exponent * G`` from a cached fixed-base table (amortised doublings)."""
        return self._table().power(exponent, trace=trace).to_affine()

    def generator_powers(
        self, exponents, trace: Optional[OpTrace] = None
    ) -> "list[AffinePoint]":
        """N fixed-base powers sharing ONE batch affine conversion."""
        table = self._table()
        return to_affine_many(
            table.power(exponent, trace=trace) for exponent in exponents
        )

    # -- keys -------------------------------------------------------------------

    def keygen(
        self, rng: Optional[random.Random] = None, trace: Optional[OpTrace] = None
    ) -> SchemeKeyPair:
        private = sample_exponent(self.curve.order, rng)
        public = self.generator_power(private, trace=trace)
        keypair = EcdhKeyPair(curve=self.curve, private=private, public=public)
        return SchemeKeyPair(
            scheme=self.name,
            public_wire=encode_point(public, compressed=self.compressed),
            native=keypair,
        )

    def keygen_many(
        self,
        count: int,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> "list[SchemeKeyPair]":
        """N key pairs whose public points share one batch affine conversion.

        RNG draws happen in the same order as N :meth:`keygen` calls, so a
        seeded batch produces byte-identical wire keys.
        """
        privates = [sample_exponent(self.curve.order, rng) for _ in range(count)]
        publics = self.generator_powers(privates, trace=trace)
        return [
            SchemeKeyPair(
                scheme=self.name,
                public_wire=encode_point(public, compressed=self.compressed),
                native=EcdhKeyPair(curve=self.curve, private=private, public=public),
            )
            for private, public in zip(privates, publics)
        ]

    def public_key_size(self) -> int:
        return point_size_bytes(self.curve, compressed=self.compressed)

    def decode_public(self, data: bytes) -> AffinePoint:
        return decode_point(self.curve, data, curve=self._curve_obj)

    def encode_public(self, public: AffinePoint) -> bytes:
        return encode_point(public, compressed=self.compressed)

    # -- key agreement -----------------------------------------------------------

    def key_agreement(
        self,
        own: SchemeKeyPair,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        peer = decode_point(self.curve, peer_public, curve=self._curve_obj)
        shared = ecdh_shared_secret(own.native, peer, count=trace)
        return kdf(shared, info, length)

    def key_agreement_many(
        self,
        own: SchemeKeyPair,
        peer_publics,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """N key agreements against one private key, batching the inversions."""
        peers = [
            decode_point(self.curve, peer, curve=self._curve_obj)
            for peer in peer_publics
        ]
        shareds = ecdh_shared_secret_many(own.native, peers, count=trace)
        return [kdf(shared, info, length) for shared in shareds]

    def key_agreement_with_many(
        self,
        owns,
        peer_public: bytes,
        info: bytes = b"",
        length: int = 32,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """N own keys against one peer point: the point is decoded once and
        a shared fixed-base table serves the batch (byte-identical
        to looping :meth:`key_agreement`)."""
        peer = decode_point(self.curve, peer_public, curve=self._curve_obj)
        shareds = ecdh_shared_secret_with_many(
            [own.native for own in owns], peer, count=trace
        )
        return [kdf(shared, info, length) for shared in shareds]

    # -- hybrid encryption (hashed ElGamal over the curve) ----------------------------

    def encrypt(
        self,
        recipient_public: bytes,
        plaintext: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        rng = resolve_rng(rng)
        recipient = decode_point(self.curve, recipient_public, curve=self._curve_obj)
        ephemeral_scalar = sample_exponent(self.curve.order, rng)
        ephemeral = self.generator_power(ephemeral_scalar, trace=trace)
        ephemeral_keypair = EcdhKeyPair(
            curve=self.curve, private=ephemeral_scalar, public=ephemeral
        )
        shared = ecdh_shared_secret(ephemeral_keypair, recipient, count=trace)
        body, tag = seal_body(shared, b"ecies", plaintext)
        return encode_point(ephemeral, compressed=self.compressed) + tag + body

    def decrypt(
        self, own: SchemeKeyPair, ciphertext: bytes, trace: Optional[OpTrace] = None
    ) -> bytes:
        point_bytes = self.public_key_size()
        header = point_bytes + TAG_BYTES
        if len(ciphertext) < header:
            raise ParameterError(f"ciphertext shorter than the {header}-byte ECIES header")
        try:
            ephemeral = decode_point(self.curve, ciphertext[:point_bytes], curve=self._curve_obj)
        except ReproError as exc:
            raise DecryptionError("malformed ephemeral point") from exc
        tag = ciphertext[point_bytes:header]
        body = ciphertext[header:]
        shared = ecdh_shared_secret(own.native, ephemeral, count=trace)
        return open_body(shared, b"ecies", body, tag)

    # -- signatures -----------------------------------------------------------------

    def sign(
        self,
        own: SchemeKeyPair,
        message: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        r, s = ecdsa_sign(
            own.native, message, rng, count=trace, generator_power=self.generator_power
        )
        return encode_scalar_pair(r, s, self._scalar_width)

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
        try:
            public_point = decode_point(self.curve, public, curve=self._curve_obj)
        except ReproError:
            return False
        return ecdsa_verify(
            self.curve, public_point, message, scalars, count=trace,
            generator=self._generator,
        )

    # -- platform projection ---------------------------------------------------------

    def headline_exponentiation(self, trace: OpTrace) -> None:
        """One double-and-add scalar multiplication (the 9.4 ms row)."""
        scalar_mult(
            self._generator, canonical_exponent(self.curve.order.bit_length()), "binary", trace
        )

    def platform_cycles_per_operation(self, platform) -> Tuple[int, int]:
        pa_cost, pd_cost = platform.ecc_point_costs(self.curve.p)
        # A "squaring" is a point doubling, a "multiplication" a point addition.
        return pd_cost.type_b_cycles, pa_cost.type_b_cycles

    def headline_modulus(self) -> int:
        return self.curve.p
