"""RSA operations on top of the Montgomery exponentiation layer.

The integer-level primitives (``rsa_encrypt_int`` and friends) are exactly
what the platform executes — a modular exponentiation over Montgomery
multiplications, routed through the unified engine (sliding-window recoding
by default: ~30% fewer Montgomery products than square-and-multiply at
RSA exponent sizes, with the same operation unit the paper counts).  The
CRT helpers also accept a plain :class:`~repro.field.fp.PrimeField` per
prime, whose exp group runs the same engine strategy over ordinary
``a * b % p`` products: the same results and the same operation tallies
without a Python REDC per product.  The byte-level helpers add a minimal
deterministic padding scheme so the examples can round-trip real messages;
they are not a substitute for OAEP/PSS and say so.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

from repro.errors import DecryptionError, ParameterError
from repro.exp import strategies
from repro.exp.trace import OpTrace
from repro.field.fp import PrimeField
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.exponent import montgomery_power, montgomery_power_many
from repro.rsa.keygen import RsaKeyPair, RsaPublicKey

PublicLike = Union[RsaKeyPair, RsaPublicKey]


def _public(key: PublicLike) -> RsaPublicKey:
    return key.public() if isinstance(key, RsaKeyPair) else key


def rsa_encrypt_int(
    key: PublicLike,
    message: int,
    word_bits: int = 16,
    trace: Optional[OpTrace] = None,
    domain: Optional[MontgomeryDomain] = None,
) -> int:
    """Raw RSA: message^e mod n via Montgomery exponentiation.

    ``domain`` optionally supplies a prebuilt (possibly word-counting)
    Montgomery domain for ``n`` — the backend-aware scheme adapter passes
    its own so the word-operation stream of the exponentiation is observable.
    """
    public = _public(key)
    if not 0 <= message < public.n:
        raise ParameterError("message representative out of range")
    if domain is None:
        domain = MontgomeryDomain(public.n, word_bits=word_bits)
    elif domain.modulus != public.n:
        raise ParameterError("injected domain modulus does not match the key")
    return montgomery_power(domain, message, public.e, trace=trace)


def rsa_decrypt_int(
    key: RsaKeyPair,
    ciphertext: int,
    word_bits: int = 16,
    trace: Optional[OpTrace] = None,
    domain: Optional[MontgomeryDomain] = None,
) -> int:
    """Raw RSA decryption without CRT (the paper's 1024-bit exponentiation)."""
    if not 0 <= ciphertext < key.n:
        raise ParameterError("ciphertext representative out of range")
    if domain is None:
        domain = MontgomeryDomain(key.n, word_bits=word_bits)
    elif domain.modulus != key.n:
        raise ParameterError("injected domain modulus does not match the key")
    return montgomery_power(domain, ciphertext, key.d, trace=trace)


def _crt_arithmetic(key: RsaKeyPair, domains: Optional[tuple], word_bits: int) -> tuple:
    """The two CRT primes' arithmetic: injected, or fresh Montgomery domains."""
    if domains is None:
        return (
            MontgomeryDomain(key.p, word_bits=word_bits),
            MontgomeryDomain(key.q, word_bits=word_bits),
        )
    arithmetic_p, arithmetic_q = domains
    if _modulus(arithmetic_p) != key.p or _modulus(arithmetic_q) != key.q:  # audit: allow[CT103] config validation; injected domain and key prime share one trust domain
        raise ParameterError("injected CRT domains do not match the key's primes")
    return arithmetic_p, arithmetic_q


def _modulus(arithmetic) -> int:
    return arithmetic.p if isinstance(arithmetic, PrimeField) else arithmetic.modulus


def _crt_power(arithmetic, base: int, exponent: int, trace: Optional[OpTrace]) -> int:
    """``base^exponent`` modulo one CRT prime with the engine's default strategy.

    A :class:`PrimeField` runs it over ordinary products; anything else is a
    (possibly word-counting) Montgomery domain.  ``strategies.exponentiate``
    is looked up at call time, like every engine entry point the perfbench
    tracer wraps, so the products are attributed to the engine either way.
    """
    if isinstance(arithmetic, PrimeField):
        return strategies.exponentiate(arithmetic.exp_group(), base, exponent, trace=trace)
    return montgomery_power(arithmetic, base, exponent, trace=trace)


def _crt_power_many(arithmetic, bases, exponent: int, trace: Optional[OpTrace]) -> "list[int]":
    """:func:`_crt_power` for many bases under one exponent, as one engine batch."""
    exponents = [exponent] * len(bases)
    if isinstance(arithmetic, PrimeField):
        return strategies.exponentiate_many(
            arithmetic.exp_group(), bases, exponents, trace=trace
        )
    return montgomery_power_many(arithmetic, bases, exponents, trace=trace)


def rsa_decrypt_int_crt(
    key: RsaKeyPair,
    ciphertext: int,
    word_bits: int = 16,
    trace: Optional[OpTrace] = None,
    domains: Optional[tuple] = None,
) -> int:
    """CRT decryption: two half-size exponentiations plus recombination.

    ``domains`` optionally supplies prebuilt ``(p, q)`` arithmetic for the
    two prime halves: Montgomery domains (possibly word-counting) or plain
    :class:`PrimeField` objects.  Without it, fresh Montgomery domains of
    ``word_bits``-bit words are built for this call.
    """
    if not 0 <= ciphertext < key.n:
        raise ParameterError("ciphertext representative out of range")
    arithmetic_p, arithmetic_q = _crt_arithmetic(key, domains, word_bits)
    m_p = _crt_power(arithmetic_p, ciphertext % key.p, key.d_p, trace)
    m_q = _crt_power(arithmetic_q, ciphertext % key.q, key.d_q, trace)
    h = key.q_inv * (m_p - m_q) % key.p
    return m_q + h * key.q


# ---------------------------------------------------------------------------
# Byte-level helpers with a simple deterministic padding.
# ---------------------------------------------------------------------------

_PAD_MARKER = b"\x00\x01"


def _modulus_bytes(n: int) -> int:
    return (n.bit_length() + 7) // 8


def _pad(message: bytes, n: int) -> int:
    """Fixed-pattern padding 0x00 0x01 0xFF.. 0x00 || message (PKCS#1 v1.5 shape).

    Deterministic (no random filler) — sufficient for the examples and tests,
    explicitly not a secure encryption padding.
    """
    k = _modulus_bytes(n)
    if len(message) > k - 11:
        raise ParameterError(f"message too long for a {k}-byte modulus")
    filler = b"\xff" * (k - len(message) - 3)
    block = _PAD_MARKER + filler + b"\x00" + message
    return int.from_bytes(block, "big")


def _unpad(value: int, n: int) -> bytes:
    k = _modulus_bytes(n)
    block = value.to_bytes(k, "big")
    if not block.startswith(_PAD_MARKER):
        raise DecryptionError("bad padding header")
    try:
        separator = block.index(b"\x00", 2)
    except ValueError:
        raise DecryptionError("missing padding separator") from None
    return block[separator + 1 :]


def rsa_encrypt(key: PublicLike, message: bytes, trace: Optional[OpTrace] = None) -> bytes:
    """Encrypt a short message with the deterministic padding."""
    public = _public(key)
    value = rsa_encrypt_int(public, _pad(message, public.n), trace=trace)
    return value.to_bytes(_modulus_bytes(public.n), "big")


def rsa_decrypt(
    key: RsaKeyPair,
    ciphertext: bytes,
    use_crt: bool = True,
    trace: Optional[OpTrace] = None,
) -> bytes:
    """Decrypt and strip the padding."""
    value = int.from_bytes(ciphertext, "big")
    if value >= key.n:
        raise DecryptionError("ciphertext out of range")
    plain = (
        rsa_decrypt_int_crt(key, value, trace=trace)
        if use_crt
        else rsa_decrypt_int(key, value, trace=trace)
    )
    return _unpad(plain, key.n)


def rsa_sign(
    key: RsaKeyPair,
    message: bytes,
    trace: Optional[OpTrace] = None,
    domains: Optional[tuple] = None,
) -> bytes:
    """Hash-then-sign (SHA-256 digest, deterministic padding)."""
    digest = hashlib.sha256(message).digest()
    value = rsa_decrypt_int_crt(key, _pad(digest, key.n), trace=trace, domains=domains)
    return value.to_bytes(_modulus_bytes(key.n), "big")


def rsa_sign_many(
    key: RsaKeyPair,
    messages,
    trace: Optional[OpTrace] = None,
    domains: Optional[tuple] = None,
    word_bits: int = 16,
) -> "list[bytes]":
    """N hash-then-sign signatures batching the CRT exponentiations.

    The padding is deterministic and no RNG is involved, so the two
    half-size exponentiation streams (mod p with ``d_p``, mod q with
    ``d_q``) can run as two engine batches — one per prime, over the same
    arithmetic :func:`rsa_decrypt_int_crt` takes — and the signatures stay
    byte-identical to N :func:`rsa_sign` calls.
    """
    messages = list(messages)
    padded = [
        _pad(hashlib.sha256(message).digest(), key.n) for message in messages
    ]
    arithmetic_p, arithmetic_q = _crt_arithmetic(key, domains, word_bits)
    m_ps = _crt_power_many(arithmetic_p, [c % key.p for c in padded], key.d_p, trace)
    m_qs = _crt_power_many(arithmetic_q, [c % key.q for c in padded], key.d_q, trace)
    width = _modulus_bytes(key.n)
    signatures = []
    for m_p, m_q in zip(m_ps, m_qs):
        h = key.q_inv * (m_p - m_q) % key.p
        signatures.append((m_q + h * key.q).to_bytes(width, "big"))
    return signatures


def rsa_verify(
    key: PublicLike,
    message: bytes,
    signature: bytes,
    trace: Optional[OpTrace] = None,
    domain=None,
) -> bool:
    """Verify a hash-then-sign signature."""
    public = _public(key)
    value = int.from_bytes(signature, "big")
    if value >= public.n:
        return False
    try:
        recovered = _unpad(
            rsa_encrypt_int(public, value, trace=trace, domain=domain), public.n
        )
    except DecryptionError:
        return False
    return recovered == hashlib.sha256(message).digest()
