"""Tests for the RSA baseline."""

import random

import pytest

from repro.errors import DecryptionError, ParameterError
from repro.exp.trace import OpTrace
from repro.field.backend import CountingMontgomeryDomain
from repro.field.fp import PrimeField
from repro.montgomery.domain import MontgomeryDomain
from repro.pkc import get_scheme
from repro.rsa.keygen import generate_rsa_keypair
from repro.rsa.rsa import (
    rsa_decrypt,
    rsa_decrypt_int,
    rsa_decrypt_int_crt,
    rsa_encrypt,
    rsa_encrypt_int,
    rsa_sign,
    rsa_sign_many,
    rsa_verify,
)


@pytest.fixture(scope="module")
def keypair():
    # 512 bits: large enough for the SHA-256-based padding paths, small
    # enough to generate in well under a second.
    return generate_rsa_keypair(512, rng=random.Random(1))


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert keypair.modulus_bits == 512
        assert keypair.n == keypair.p * keypair.q

    def test_exponents_are_inverses(self, keypair):
        phi = (keypair.p - 1) * (keypair.q - 1)
        assert keypair.e * keypair.d % phi == 1

    def test_crt_components(self, keypair):
        assert keypair.d_p == keypair.d % (keypair.p - 1)
        assert keypair.d_q == keypair.d % (keypair.q - 1)
        assert keypair.q_inv * keypair.q % keypair.p == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            generate_rsa_keypair(8)
        with pytest.raises(ParameterError):
            generate_rsa_keypair(256, e=4)

    def test_public_extraction(self, keypair):
        public = keypair.public()
        assert public.n == keypair.n and public.e == keypair.e


class TestRawRsa:
    def test_encrypt_decrypt_int(self, keypair, rng):
        for _ in range(5):
            message = rng.randrange(keypair.n)
            ciphertext = rsa_encrypt_int(keypair, message)
            assert rsa_decrypt_int(keypair, ciphertext) == message

    def test_crt_matches_plain_decryption(self, keypair, rng):
        message = rng.randrange(keypair.n)
        ciphertext = rsa_encrypt_int(keypair, message)
        assert rsa_decrypt_int_crt(keypair, ciphertext) == rsa_decrypt_int(keypair, ciphertext)

    def test_range_checks(self, keypair):
        with pytest.raises(ParameterError):
            rsa_encrypt_int(keypair, keypair.n)
        with pytest.raises(ParameterError):
            rsa_decrypt_int(keypair, keypair.n + 1)

    def test_matches_builtin_pow(self, keypair, rng):
        message = rng.randrange(keypair.n)
        assert rsa_encrypt_int(keypair, message) == pow(message, keypair.e, keypair.n)


class TestPaddedRsa:
    def test_roundtrip(self, keypair):
        message = b"torus beats RSA on bandwidth"
        assert rsa_decrypt(keypair, rsa_encrypt(keypair, message)) == message

    def test_roundtrip_without_crt(self, keypair):
        message = b"no crt"
        assert rsa_decrypt(keypair, rsa_encrypt(keypair, message), use_crt=False) == message

    def test_message_too_long(self, keypair):
        with pytest.raises(ParameterError):
            rsa_encrypt(keypair, b"x" * 128)

    def test_corrupted_ciphertext_detected(self, keypair):
        ciphertext = bytearray(rsa_encrypt(keypair, b"hi"))
        ciphertext[-1] ^= 0xFF
        with pytest.raises(DecryptionError):
            rsa_decrypt(keypair, bytes(ciphertext))


class TestSignatures:
    def test_sign_verify(self, keypair):
        signature = rsa_sign(keypair, b"message")
        assert rsa_verify(keypair, b"message", signature)

    def test_wrong_message_rejected(self, keypair):
        signature = rsa_sign(keypair, b"message")
        assert not rsa_verify(keypair, b"other", signature)

    def test_garbage_signature_rejected(self, keypair):
        assert not rsa_verify(keypair, b"message", b"\x01" * ((keypair.n.bit_length() + 7) // 8))


class TestCrtArithmetic:
    """CRT halves over plain PrimeFields match the Montgomery domains exactly."""

    @staticmethod
    def _arithmetic(keypair):
        return {
            "plain": (
                PrimeField(keypair.p, check_prime=False),
                PrimeField(keypair.q, check_prime=False),
            ),
            "montgomery": (MontgomeryDomain(keypair.p), MontgomeryDomain(keypair.q)),
        }

    def test_plain_equals_montgomery_and_pow(self, keypair, rng):
        arithmetic = self._arithmetic(keypair)
        ciphertexts = [0, 1, keypair.n - 1, 5 * keypair.p] + [
            rng.randrange(keypair.n) for _ in range(4)
        ]
        for ciphertext in ciphertexts:
            traces = {}
            for backend, domains in arithmetic.items():
                traces[backend] = OpTrace()
                value = rsa_decrypt_int_crt(
                    keypair, ciphertext, trace=traces[backend], domains=domains
                )
                assert value == pow(ciphertext, keypair.d, keypair.n), (backend, ciphertext)
            assert traces["plain"].as_dict() == traces["montgomery"].as_dict()
            assert traces["plain"].squarings > 0

    def test_batched_signatures_match_on_both(self, keypair):
        messages = [b"first", b"second", b""]
        expected = [rsa_sign(keypair, message) for message in messages]
        traces = {}
        for backend, domains in self._arithmetic(keypair).items():
            traces[backend] = OpTrace()
            assert rsa_sign_many(
                keypair, messages, trace=traces[backend], domains=domains
            ) == expected
        assert traces["plain"].as_dict() == traces["montgomery"].as_dict()

    def test_mismatched_prime_field_rejected(self, keypair):
        wrong = (PrimeField(keypair.q, check_prime=False), PrimeField(keypair.p, check_prime=False))
        with pytest.raises(ParameterError):
            rsa_decrypt_int_crt(keypair, 2, domains=wrong)

    @pytest.mark.parametrize(
        "backend, kind",
        [
            ("plain", PrimeField),
            ("montgomery", MontgomeryDomain),
            ("word-counting", CountingMontgomeryDomain),
        ],
    )
    def test_scheme_builds_per_prime_arithmetic_once_per_key(self, backend, kind):
        scheme = get_scheme("rsa-512", fresh=True, backend=backend)
        key = scheme.keygen(random.Random(5))
        first = scheme._crt_domains(key.native)
        assert all(isinstance(arithmetic, kind) for arithmetic in first)
        assert all(a is b for a, b in zip(scheme._crt_domains(key.native), first))
        message = b"cached arithmetic"
        ciphertext = scheme.encrypt(key.public_wire, message, random.Random(6))
        assert scheme.decrypt(key, ciphertext) == message
        assert scheme.sign(key, message) == scheme.sign_many(key, [message])[0]
