"""Elliptic-curve cryptography over prime fields.

The paper's platform also runs 160-bit prime-field ECC: point addition and
doubling are level-2 sequences of the same modular multiplications and
additions used by the torus, and a scalar multiplication is the level-1 loop
driving them.  This package provides the reference group arithmetic (affine
and Jacobian), scalar multiplication on the unified engine, named curves
with full self-validation and toy curves for exhaustive testing.
"""

from repro.ecc.curve import WeierstrassCurve
from repro.ecc.point import AffinePoint, JacobianPoint, INFINITY
from repro.ecc.scalar import double_scalar_mult, scalar_mult
from repro.ecc.curves import (
    NamedCurve,
    NAMED_CURVES,
    get_curve,
    validate_named_curve,
    generate_toy_curve,
)
from repro.ecc.ecdh import EcdhKeyPair, ecdh_generate, ecdh_shared_secret, ecdsa_sign, ecdsa_verify
from repro.ecc.encoding import decode_point, encode_point, point_size_bytes

__all__ = [
    "WeierstrassCurve",
    "AffinePoint",
    "JacobianPoint",
    "INFINITY",
    "scalar_mult",
    "double_scalar_mult",
    "NamedCurve",
    "NAMED_CURVES",
    "get_curve",
    "validate_named_curve",
    "generate_toy_curve",
    "EcdhKeyPair",
    "ecdh_generate",
    "ecdh_shared_secret",
    "ecdsa_sign",
    "ecdsa_verify",
    "encode_point",
    "decode_point",
    "point_size_bytes",
]
