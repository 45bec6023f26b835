"""RSA under the unified PKC layer.

Hybrid encryption is RSA-KEM shaped: a random residue is wrapped with the
public exponentiation and the KDF of its fixed-width encoding drives the
same XOR-keystream + confirmation-tag body as the torus and curve schemes,
so every scheme's ciphertext differs only in the header it transmits.
Signatures reuse the hash-then-sign helpers.  Diffie-Hellman-style key
agreement is deliberately *not* advertised — the capability set is how the
generic comparison loop knows — and the Table 3 headline is the full-length
private-key Montgomery exponentiation, one MicroBlaze round trip per
multiplication, exactly as the paper composes the 96 ms row.

Key generation is lazy and cached on the adapter: an RSA key pair is orders
of magnitude more expensive than a discrete-log one (two random primes), and
a served deployment holds one long-lived key rather than one per session, so
``keygen`` returns the cached pair unless asked for a ``fresh`` draw.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.errors import DecryptionError, ParameterError
from repro.exp.trace import OpTrace
from repro.field.fp import PrimeField
from repro.montgomery.domain import MontgomeryDomain
from repro.nt.sampling import resolve_rng
from repro.montgomery.exponent import montgomery_power
from repro.pkc.base import (
    ENCRYPTION,
    SIGNATURE,
    TAG_BYTES,
    PkcScheme,
    SchemeKeyPair,
    open_body,
    seal_body,
)
from repro.pkc.profile import canonical_exponent
from repro.rsa.keygen import RsaKeyPair, RsaPublicKey, generate_rsa_keypair
from repro.rsa.rsa import (
    rsa_decrypt_int_crt,
    rsa_encrypt_int,
    rsa_sign,
    rsa_sign_many,
    rsa_verify,
)
from repro.soc.system import default_rsa_modulus

__all__ = ["RsaScheme"]

#: Bytes used for the public exponent in the wire encoding of a public key.
EXPONENT_BYTES = 4


class RsaScheme(PkcScheme):
    """RSA-n encryption + signatures as a registry scheme."""

    capabilities = frozenset({ENCRYPTION, SIGNATURE})
    headline_operation = "RSA private-key exponentiation (Montgomery, binary)"

    def __init__(
        self,
        modulus_bits: int = 1024,
        name: Optional[str] = None,
        security_bits: int = 80,
        paper_ms: Optional[float] = None,
        public_exponent: int = 65537,
        backend=None,
    ):
        from repro.field.backend import get_backend

        # The backend picks the CRT halves' arithmetic (_crt_domains):
        # ordinary products on plain, Python REDC on montgomery, and
        # FIOS-streaming domains on word-counting.  Every backend runs the
        # same engine strategy, so wire bytes and tallies are identical.
        self.field_backend = get_backend(backend)
        self.modulus_bits = modulus_bits
        self.bit_length = modulus_bits
        self.name = name or f"rsa-{modulus_bits}"
        self.security_bits = security_bits
        self.paper_ms = paper_ms
        self.public_exponent = public_exponent
        self._keypair: Optional[RsaKeyPair] = None
        self._modulus_width = (modulus_bits + 7) // 8
        self._domains: dict = {}

    def _domain_for(self, modulus: int):
        """A cached per-modulus domain when the backend is word-counting.

        Returns ``None`` for the plain/montgomery backends so the public-key
        entry points keep constructing their own Montgomery domains.
        """
        if self.field_backend.name != "word-counting":
            return None
        if modulus not in self._domains:
            self._domains[modulus] = self.field_backend.bind(modulus).counting_domain
        return self._domains[modulus]

    def _crt_domains(self, key: RsaKeyPair):
        """The CRT prime halves' arithmetic, built once per key and cached.

        plain: a :class:`~repro.field.fp.PrimeField` per prime, so the
        engine runs over ordinary ``a * b % p`` products; montgomery: a
        :class:`~repro.montgomery.domain.MontgomeryDomain` per prime (the
        resident model); word-counting: counting domains.
        """
        return self._prime_arithmetic(key.p), self._prime_arithmetic(key.q)

    def _prime_arithmetic(self, prime: int):
        if self.field_backend.name == "word-counting":
            return self._domain_for(prime)
        arithmetic = self._domains.get(prime)
        if arithmetic is None:
            if self.field_backend.name == "plain":
                arithmetic = PrimeField(prime, check_prime=False)
            else:
                arithmetic = MontgomeryDomain(prime, word_bits=16)
            self._domains[prime] = arithmetic
        return arithmetic

    # -- keys -------------------------------------------------------------------

    def _wrap(self, keypair: RsaKeyPair) -> SchemeKeyPair:
        return SchemeKeyPair(
            scheme=self.name,
            public_wire=self.encode_public(keypair.public()),
            native=keypair,
        )

    def keygen(
        self,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
        fresh: bool = False,
    ) -> SchemeKeyPair:
        """The scheme's (cached) key pair; ``fresh=True`` forces a regeneration.

        Prime generation is trial-division + Miller-Rabin, not an
        exponentiation loop, so ``trace`` records no group operations here —
        faithfully: the paper's Table 3 costs RSA by its exponentiation, not
        its keygen.
        """
        if fresh or self._keypair is None:
            self._keypair = generate_rsa_keypair(
                self.modulus_bits, e=self.public_exponent, rng=rng
            )
        return self._wrap(self._keypair)

    def public_key_size(self) -> int:
        return self._modulus_width + EXPONENT_BYTES

    def decode_public(self, data: bytes) -> RsaPublicKey:
        expected = self.public_key_size()
        if len(data) != expected:
            raise ParameterError(f"an RSA-{self.modulus_bits} public key is {expected} bytes")
        n = int.from_bytes(data[: self._modulus_width], "big")
        e = int.from_bytes(data[self._modulus_width :], "big")
        if n.bit_length() != self.modulus_bits:
            raise ParameterError("modulus has the wrong bit length")
        if e < 3 or e % 2 == 0:
            raise ParameterError("public exponent must be an odd integer >= 3")
        return RsaPublicKey(n=n, e=e)

    def encode_public(self, public: RsaPublicKey) -> bytes:
        return public.n.to_bytes(self._modulus_width, "big") + public.e.to_bytes(
            EXPONENT_BYTES, "big"
        )

    # -- hybrid encryption (RSA-KEM) ---------------------------------------------

    def encrypt(
        self,
        recipient_public: bytes,
        plaintext: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        rng = resolve_rng(rng)
        public = self.decode_public(recipient_public)
        seed = rng.randrange(2, public.n - 1)
        wrapped = rsa_encrypt_int(public, seed, trace=trace, domain=self._domain_for(public.n))
        secret = seed.to_bytes(self._modulus_width, "big")
        body, tag = seal_body(secret, b"rsa-kem", plaintext)
        return wrapped.to_bytes(self._modulus_width, "big") + tag + body

    def decrypt(
        self, own: SchemeKeyPair, ciphertext: bytes, trace: Optional[OpTrace] = None
    ) -> bytes:
        header = self._modulus_width + TAG_BYTES
        if len(ciphertext) < header:
            raise ParameterError(f"ciphertext shorter than the {header}-byte RSA-KEM header")
        wrapped = int.from_bytes(ciphertext[: self._modulus_width], "big")
        key: RsaKeyPair = own.native
        if wrapped >= key.n:
            raise DecryptionError("wrapped seed out of range")
        tag = ciphertext[self._modulus_width : header]
        body = ciphertext[header:]
        seed = rsa_decrypt_int_crt(key, wrapped, trace=trace, domains=self._crt_domains(key))
        secret = seed.to_bytes(self._modulus_width, "big")
        return open_body(secret, b"rsa-kem", body, tag)

    # -- signatures -----------------------------------------------------------------

    def sign(
        self,
        own: SchemeKeyPair,
        message: bytes,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> bytes:
        return rsa_sign(own.native, message, trace=trace, domains=self._crt_domains(own.native))

    def sign_many(
        self,
        own: SchemeKeyPair,
        messages,
        rng: Optional[random.Random] = None,
        trace: Optional[OpTrace] = None,
    ) -> "list[bytes]":
        """N deterministic signatures as two CRT exponentiation batches.

        No RNG draws are involved (hash-then-sign with fixed padding), so
        batching through :func:`repro.rsa.rsa.rsa_sign_many` is
        byte-identical to looping :meth:`sign`.
        """
        return rsa_sign_many(
            own.native, messages, trace=trace, domains=self._crt_domains(own.native)
        )

    def verify(
        self,
        public: bytes,
        message: bytes,
        signature: bytes,
        trace: Optional[OpTrace] = None,
    ) -> bool:
        try:
            parsed = self.decode_public(public)
        except ParameterError:
            return False
        if len(signature) != self._modulus_width:
            return False
        return rsa_verify(
            parsed, message, signature, trace=trace, domain=self._domain_for(parsed.n)
        )

    # -- platform projection ---------------------------------------------------------

    def headline_exponentiation(self, trace: OpTrace) -> None:
        """One full-length binary Montgomery exponentiation (the 96 ms row)."""
        modulus = default_rsa_modulus(self.modulus_bits)
        domain = self._domain_for(modulus) or MontgomeryDomain(modulus, word_bits=16)
        montgomery_power(
            domain,
            0xC0FFEE % modulus,
            canonical_exponent(self.modulus_bits),
            strategy="binary",
            trace=trace,
        )

    def platform_cycles_per_operation(self, platform) -> Tuple[int, int]:
        costs = platform.measure_operation_costs(
            default_rsa_modulus(self.modulus_bits), label="RSA"
        )
        per_op = costs.modular_mult + platform.config.interface.round_trip_cycles
        return per_op, per_op

    def headline_modulus(self) -> int:
        return default_rsa_modulus(self.modulus_bits)
