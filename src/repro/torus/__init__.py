"""The algebraic torus T6(Fp) and the CEILIDH public-key cryptosystem.

This is the paper's primary contribution layer: arithmetic in the torus
T6(Fp) (the subgroup of Fp6* of order Phi_6(p) = p^2 - p + 1), the
Rubin-Silverberg style compression of torus elements to two Fp values
(factor-3 bandwidth compression), exponentiation through the unified
engine (:meth:`T6Group.exponentiate` takes the strategy name), parameter
generation, and the CEILIDH protocols built on top (Diffie-Hellman key
agreement, hashed-ElGamal encryption and Schnorr-style signatures).
"""

from repro.torus.params import (
    TorusParameters,
    generate_parameters,
    get_parameters,
    NAMED_PARAMETERS,
)
from repro.torus.t6 import T6Group, TorusElement
from repro.torus.compression import TorusCompressor, CompressedElement
from repro.torus.ceilidh import (
    CeilidhKeyPair,
    CeilidhSystem,
    CeilidhCiphertext,
    CeilidhSignature,
)
from repro.torus.encoding import (
    encode_compressed,
    decode_compressed,
    encode_fp6,
    decode_fp6,
    compressed_size_bytes,
)

__all__ = [
    "TorusParameters",
    "generate_parameters",
    "get_parameters",
    "NAMED_PARAMETERS",
    "T6Group",
    "TorusElement",
    "TorusCompressor",
    "CompressedElement",
    "CeilidhKeyPair",
    "CeilidhSystem",
    "CeilidhCiphertext",
    "CeilidhSignature",
    "encode_compressed",
    "decode_compressed",
    "encode_fp6",
    "decode_fp6",
    "compressed_size_bytes",
]
