"""Wire-encoding round trips for every scheme's transmitted values.

encode → decode → encode must be the identity for public keys, ciphertexts
and signatures of every registered scheme, including the compressed-torus
and both SEC1 point paths.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.errors import (
    DecryptionError,
    NotOnCurveError,
    ParameterError,
    ReproError,
)
from repro.pkc import ENCRYPTION, SIGNATURE, get_scheme
from repro.pkc.base import kdf, xor_bytes

WIRE_SCHEMES = ["ceilidh-toy32", "ceilidh-170", "xtr-toy32", "rsa-512", "ecdh-p160"]

MESSAGE = b"wire round trip payload"


@pytest.fixture
def rng():
    return random.Random(0x31DE)


@pytest.mark.parametrize("name", WIRE_SCHEMES)
class TestPublicKeyRoundTrip:
    def test_encode_decode_encode_is_identity(self, name, rng):
        scheme = get_scheme(name)
        keypair = scheme.keygen(rng)
        decoded = scheme.decode_public(keypair.public_wire)
        assert scheme.encode_public(decoded) == keypair.public_wire

    def test_truncated_public_rejected(self, name, rng):
        scheme = get_scheme(name)
        keypair = scheme.keygen(rng)
        with pytest.raises(ReproError):
            scheme.decode_public(keypair.public_wire[:-1])

    def test_empty_public_rejected(self, name, rng):
        scheme = get_scheme(name)
        with pytest.raises(ReproError):
            scheme.decode_public(b"")


@pytest.mark.parametrize("name", WIRE_SCHEMES)
class TestCiphertextAndSignatureWire:
    def test_ciphertext_parses_after_a_byte_level_round_trip(self, name, rng):
        scheme = get_scheme(name)
        if ENCRYPTION not in scheme.capabilities:
            pytest.skip(f"{name} has no encryption")
        keypair = scheme.keygen(rng)
        ciphertext = scheme.encrypt(keypair.public_wire, MESSAGE, rng)
        assert scheme.decrypt(keypair, bytes(bytearray(ciphertext))) == MESSAGE

    def test_header_shorter_than_minimum_rejected(self, name, rng):
        scheme = get_scheme(name)
        if ENCRYPTION not in scheme.capabilities:
            pytest.skip(f"{name} has no encryption")
        keypair = scheme.keygen(rng)
        with pytest.raises((ParameterError, DecryptionError)):
            scheme.decrypt(keypair, b"\x00\x01\x02")

    def test_signature_verifies_after_a_byte_level_round_trip(self, name, rng):
        scheme = get_scheme(name)
        if SIGNATURE not in scheme.capabilities:
            pytest.skip(f"{name} has no signatures")
        keypair = scheme.keygen(rng)
        signature = scheme.sign(keypair, MESSAGE, rng)
        assert scheme.verify(keypair.public_wire, MESSAGE, bytes(bytearray(signature)))
        assert not scheme.verify(keypair.public_wire, MESSAGE, signature + b"\x00")


class TestCompressedTorusPath:
    def test_compressed_element_coordinates_survive(self, rng):
        from repro.torus.encoding import decode_compressed

        scheme = get_scheme("ceilidh-toy32")
        keypair = scheme.keygen(rng)
        decoded = decode_compressed(scheme.params, keypair.public_wire)
        assert decoded == keypair.native.public
        assert 0 <= decoded.u < scheme.params.p
        assert 0 <= decoded.v < scheme.params.p

    def test_unreduced_coordinate_rejected(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        width = scheme.public_key_size() // 2
        bad = scheme.params.p.to_bytes(width, "big") + b"\x00" * width
        with pytest.raises(ParameterError):
            scheme.decode_public(bad)

    def _exceptional_pair(self, scheme) -> bytes:
        """A well-formed (u, v) wire pair on psi's exceptional set (c = 1)."""
        width = scheme.public_key_size() // 2
        return (scheme.params.p - 2).to_bytes(width, "big") + (5).to_bytes(width, "big")

    def test_exceptional_public_reports_false_on_verify(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        keypair = scheme.keygen(rng)
        signature = scheme.sign(keypair, MESSAGE, rng)
        assert scheme.verify(self._exceptional_pair(scheme), MESSAGE, signature) is False

    def test_exceptional_ephemeral_raises_decryption_error(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        keypair = scheme.keygen(rng)
        ciphertext = scheme.encrypt(keypair.public_wire, MESSAGE, rng)
        element = scheme.public_key_size()
        forged = self._exceptional_pair(scheme) + ciphertext[element:]
        with pytest.raises(DecryptionError):
            scheme.decrypt(keypair, forged)


class TestRsaPublicWire:
    def test_wrong_modulus_bit_length_rejected(self):
        scheme = get_scheme("rsa-512")
        with pytest.raises(ParameterError):
            scheme.decode_public(b"\x00" * scheme.public_key_size())

    def test_even_public_exponent_rejected(self, rng):
        scheme = get_scheme("rsa-512")
        keypair = scheme.keygen(rng)
        bad = keypair.public_wire[:-1] + b"\x00"  # e = 65536, even
        with pytest.raises(ParameterError):
            scheme.decode_public(bad)


class TestSec1PointPaths:
    @pytest.fixture
    def curve_and_point(self, rng):
        from repro.ecc.curves import SECP160R1
        from repro.ecc.ecdh import ecdh_generate

        return SECP160R1, ecdh_generate(SECP160R1, rng).public

    def test_uncompressed_round_trip(self, curve_and_point):
        from repro.ecc.encoding import decode_point, encode_point

        named, point = curve_and_point
        data = encode_point(point, compressed=False)
        assert data[0] == 0x04 and len(data) == 41
        assert encode_point(decode_point(named, data)) == data

    def test_compressed_round_trip_both_parities(self, curve_and_point):
        from repro.ecc.encoding import decode_point, encode_point

        named, point = curve_and_point
        for candidate in (point, -point):  # opposite Y parities
            data = encode_point(candidate, compressed=True)
            assert data[0] in (0x02, 0x03) and len(data) == 21
            decoded = decode_point(named, data)
            assert decoded.x == candidate.x and decoded.y == candidate.y

    def test_compression_halves_the_point_size(self):
        from repro.ecc.curves import SECP160R1
        from repro.ecc.encoding import point_size_bytes

        assert point_size_bytes(SECP160R1, compressed=True) == 21
        assert point_size_bytes(SECP160R1, compressed=False) == 41

    def test_non_residue_abscissa_rejected(self, curve_and_point):
        from repro.ecc.encoding import decode_point, encode_point

        named, point = curve_and_point
        data = bytearray(encode_point(point, compressed=True))
        for _ in range(64):
            data[-1] ^= 1  # perturb x until the RHS is a non-residue
            try:
                decode_point(named, bytes(data))
            except NotOnCurveError:
                return
            data[-1] += 2
        pytest.fail("never hit a non-residue abscissa")  # pragma: no cover

    def test_bad_prefix_and_infinity_rejected(self, curve_and_point):
        from repro.ecc.encoding import decode_point, encode_point
        from repro.ecc.point import INFINITY

        named, point = curve_and_point
        with pytest.raises(ParameterError):
            decode_point(named, b"\x05" + bytes(40))
        with pytest.raises(ParameterError):
            decode_point(named, b"")
        with pytest.raises(ParameterError):
            encode_point(INFINITY)

    def test_uncompressed_point_off_curve_rejected(self, curve_and_point):
        from repro.ecc.encoding import decode_point, encode_point

        named, point = curve_and_point
        data = bytearray(encode_point(point, compressed=False))
        data[-1] ^= 1
        with pytest.raises(NotOnCurveError):
            decode_point(named, bytes(data))

    def test_compressed_scheme_runs_the_whole_protocol(self, rng):
        """An EcdhScheme in compressed mode: 21-byte keys, same protocols."""
        from repro.ecc.curves import SECP160R1
        from repro.ecc.pkc import EcdhScheme

        scheme = EcdhScheme(SECP160R1, name="ecdh-p160-compressed", compressed=True)
        alice, bob = scheme.keygen(rng), scheme.keygen(rng)
        assert len(alice.public_wire) == 21
        assert scheme.key_agreement(alice, bob.public_wire) == scheme.key_agreement(
            bob, alice.public_wire
        )
        ciphertext = scheme.encrypt(bob.public_wire, MESSAGE, rng)
        assert scheme.decrypt(bob, ciphertext) == MESSAGE
        # Compressed ECIES header: 21-byte point + 16-byte tag.
        assert len(ciphertext) - len(MESSAGE) == 37


class TestXtrTraceWire:
    def test_trace_round_trip(self, rng):
        scheme = get_scheme("xtr-toy32")
        keypair = scheme.keygen(rng)
        assert scheme.decode_public(keypair.public_wire) == keypair.native.public

    def test_coefficient_exceeding_p_rejected(self):
        scheme = get_scheme("xtr-toy32")
        width = scheme.public_key_size() // 2
        bad = (scheme.params.p).to_bytes(width, "big") * 2
        with pytest.raises(ParameterError):
            scheme.decode_public(bad)


def _kdf_appending(secret: bytes, info: bytes, length: int) -> bytes:
    """The KDF as first written, growing its output with ``+=``: the reference."""
    output = b""
    counter = 0
    while len(output) < length:
        output += hashlib.sha256(counter.to_bytes(4, "big") + secret + info).digest()
        counter += 1
    return output[:length]


class TestKeystreamPrimitives:
    """The KDF and the keystream XOR every hybrid body and channel record uses."""

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4700, 8192])
    def test_kdf_matches_the_appending_loop(self, length):
        derived = kdf(b"secret", b"info", length)
        assert len(derived) == length
        assert derived == _kdf_appending(b"secret", b"info", length)

    @pytest.mark.parametrize("length", [0, 1, 77])
    def test_xor_bytes_matches_bytewise_xor(self, length):
        rng = random.Random(length)
        data = bytes([0] * (length // 2)) + bytes(
            rng.randrange(256) for _ in range(length - length // 2)
        )
        keystream = bytes(rng.randrange(256) for _ in range(length))
        assert xor_bytes(data, keystream) == bytes(d ^ k for d, k in zip(data, keystream))
        # Leading zero bytes survive the trip through an integer.
        assert xor_bytes(keystream, keystream) == bytes(length)
