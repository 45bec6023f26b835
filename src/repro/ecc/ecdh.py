"""ECDH key agreement and ECDSA signatures.

These protocols are not themselves evaluated by the paper (it times the bare
scalar multiplication), but a platform that claims to "support ECC over prime
fields" needs them to be usable, and the examples compare CEILIDH key
agreement against ECDH message sizes end to end.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.audit.annotations import Secret
from repro.errors import ParameterError, SignatureError
from repro.exp.trace import OpTrace
from repro.nt.modular import modinv
from repro.nt.sampling import resolve_rng, sample_exponent
from repro.ecc.curves import NamedCurve
from repro.ecc.point import AffinePoint
from repro.ecc.scalar import (
    double_scalar_mult,
    scalar_mult,
    scalar_mult_many,
    scalar_mult_shared_point,
)


@dataclass
class EcdhKeyPair:
    """An EC key pair: private scalar and public point."""

    curve: NamedCurve
    private: Secret[int]
    public: AffinePoint

    def public_bytes(self, compressed: bool = False) -> bytes:
        """SEC1 encoding, uncompressed ``0x04 || X || Y`` by default."""
        from repro.ecc.encoding import encode_point

        return encode_point(self.public, compressed=compressed)


def ecdh_generate(
    named: NamedCurve,
    rng: Optional[random.Random] = None,
    count: Optional[OpTrace] = None,
) -> EcdhKeyPair:
    """Generate a key pair on a named curve.

    (The scheme layer does not route through here — its keygen runs from a
    cached fixed-base table on its backend-built generator.)
    """
    rng = resolve_rng(rng)
    _, generator = named.build()
    private = sample_exponent(named.order, rng)
    public = scalar_mult(generator, private, count=count)
    return EcdhKeyPair(curve=named, private=private, public=public)


def ecdh_shared_secret(
    own: EcdhKeyPair,
    peer_public: AffinePoint,
    count: Optional[OpTrace] = None,
) -> bytes:
    """X-coordinate of the shared point (plain), fixed width big-endian."""
    shared = scalar_mult(peer_public, own.private, count=count)
    if shared.is_infinity():
        raise ParameterError("degenerate ECDH shared point")
    width = (own.curve.p.bit_length() + 7) // 8
    return shared.curve.field.exit(shared.x).to_bytes(width, "big")


def ecdh_shared_secret_many(
    own: EcdhKeyPair,
    peer_publics,
    count: Optional[OpTrace] = None,
) -> "list[bytes]":
    """:func:`ecdh_shared_secret` against N peers, batching the inversions.

    The N scalar multiplications run as usual; the N Jacobian->affine
    conversions collapse to one field inversion via
    :func:`~repro.ecc.scalar.scalar_mult_many`.  Wire bytes are identical
    to N single calls.
    """
    peer_publics = list(peer_publics)
    shareds = scalar_mult_many(
        peer_publics, [own.private] * len(peer_publics), count=count
    )
    width = (own.curve.p.bit_length() + 7) // 8
    secrets = []
    for shared in shareds:
        if shared.is_infinity():
            raise ParameterError("degenerate ECDH shared point")
        secrets.append(shared.curve.field.exit(shared.x).to_bytes(width, "big"))
    return secrets


def ecdh_shared_secret_with_many(
    owns,
    peer_public: AffinePoint,
    count: Optional[OpTrace] = None,
) -> "list[bytes]":
    """Shared secrets of N own keys against **one** peer point.

    The coalesced client phase: every session multiplies the same peer
    point, so one fixed-base table
    (:func:`~repro.ecc.scalar.scalar_mult_shared_point`) and one batched
    affine conversion serve the whole batch.  Wire bytes are identical to N
    :func:`ecdh_shared_secret` calls.
    """
    owns = list(owns)
    if not owns:
        return []
    shareds = scalar_mult_shared_point(
        peer_public, [own.private for own in owns], count=count
    )
    width = (owns[0].curve.p.bit_length() + 7) // 8
    secrets = []
    for shared in shareds:
        if shared.is_infinity():
            raise ParameterError("degenerate ECDH shared point")
        secrets.append(shared.curve.field.exit(shared.x).to_bytes(width, "big"))
    return secrets


def _hash_to_int(message: bytes, order: int) -> int:
    digest = hashlib.sha256(message).digest()
    value = int.from_bytes(digest, "big")
    excess = value.bit_length() - order.bit_length()
    if excess > 0:
        value >>= excess
    return value % order


def ecdsa_sign(
    own: EcdhKeyPair,
    message: bytes,
    rng: Optional[random.Random] = None,
    count: Optional[OpTrace] = None,
    generator: Optional[AffinePoint] = None,
    generator_power: Optional[Callable[[int, Optional[OpTrace]], AffinePoint]] = None,
) -> Tuple[int, int]:
    """ECDSA signature (r, s) with a SHA-256 message digest.

    ``generator_power(k, count)`` supplies the nonce point k*G, e.g. from a
    scheme's cached fixed-base table; without it k*G is a scalar
    multiplication of ``generator``.  Either way k, r and s are the same.
    """
    rng = resolve_rng(rng)
    named = own.curve
    if generator_power is None:
        if generator is None:
            _, generator = named.build()
        base = generator

        def wnaf_power(k: int, count: Optional[OpTrace]) -> AffinePoint:
            return scalar_mult(base, k, count=count)

        generator_power = wnaf_power
    e = _hash_to_int(message, named.order)
    for _ in range(64):
        k = sample_exponent(named.order, rng)
        point = generator_power(k, count)
        r = point.curve.field.exit(point.x) % named.order
        if r == 0:
            continue
        s = modinv(k, named.order) * (e + r * own.private) % named.order
        if s == 0:  # audit: allow[CT101] DSA-mandated rejection of zero s; the retry is protocol-visible
            continue
        return r, s
    raise SignatureError("could not produce an ECDSA signature")  # pragma: no cover


def ecdsa_verify(
    named: NamedCurve,
    public: AffinePoint,
    message: bytes,
    signature: Tuple[int, int],
    count: Optional[OpTrace] = None,
    generator: Optional[AffinePoint] = None,
) -> bool:
    """Verify an ECDSA signature."""
    r, s = signature
    if not (1 <= r < named.order and 1 <= s < named.order):
        return False
    if generator is None:
        _, generator = named.build()
    e = _hash_to_int(message, named.order)
    w = modinv(s, named.order)
    u1 = e * w % named.order
    u2 = r * w % named.order
    # Shamir double-scalar multiplication: one shared doubling chain.
    point = double_scalar_mult(generator, u1, public, u2, count=count)
    if point.is_infinity():
        return False
    return point.curve.field.exit(point.x) % named.order == r
