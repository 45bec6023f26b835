"""Tests for the pluggable field-arithmetic backend layer.

Covers the representation contract of :mod:`repro.field.backend` (enter /
exit / resident arithmetic), resident-Montgomery parity through the whole
extension tower, the word-counting substrate and its FIOS statistics, the
cross-backend differential guarantee for every registry scheme, and the
measured-vs-analytic Table 3 projection agreement.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import FieldMismatchError, ParameterError
from repro.field import (
    CountingPrimeField,
    MontgomeryBackend,
    PrimeField,
    WordCountingBackend,
    get_backend,
    make_fp2,
    make_fp6,
)
from repro.field.backend import default_backend_name
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.fios import fios_batch_stats, fios_word_mult_count
from repro.pkc import get_scheme, measured_headline_projection
from repro.pkc.base import ENCRYPTION, KEY_AGREEMENT, SIGNATURE
from repro.pkc.registry import available_schemes

P32 = 2494740737  # toy-32 CEILIDH prime (p = 2 mod 9)
P127 = (1 << 127) - 1
P170 = 1109485483118704838530651968604888341434144398802927  # ceilidh-170 p


# ---------------------------------------------------------------------------
# Backend unit semantics.
# ---------------------------------------------------------------------------


class TestBackendContract:
    def test_get_backend_resolution(self):
        assert get_backend(None).name == "plain"
        assert get_backend("montgomery").name == "montgomery"
        spec = WordCountingBackend()
        assert get_backend(spec) is spec
        with pytest.raises(ParameterError):
            get_backend("nonsense")

    def test_field_rejects_unknown_backend_name(self):
        for name in ("native", "gmpy2"):
            with pytest.raises(ParameterError, match="available"):
                PrimeField(P32, check_prime=False, backend=name)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIELD_BACKEND", raising=False)
        assert default_backend_name() == "plain"
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "montgomery")
        assert default_backend_name() == "montgomery"
        assert default_backend_name("plain") == "plain"  # override wins

    def test_enter_exit_roundtrip(self):
        field = PrimeField(P32, check_prime=False, backend="montgomery")
        for value in (0, 1, 2, P32 - 1, 12345678):
            assert field.exit(field.enter(value)) == value

    def test_one_value_is_resident_one(self):
        plain = PrimeField(P32, check_prime=False)
        mont = PrimeField(P32, check_prime=False, backend="montgomery")
        assert plain.one_value == 1
        assert mont.exit(mont.one_value) == 1
        assert mont.one_value == MontgomeryDomain(P32).r_mod_p

    def test_resident_arithmetic_matches_plain(self):
        plain = PrimeField(P32, check_prime=False)
        mont = PrimeField(P32, check_prime=False, backend="montgomery")
        rng = random.Random(5)
        for _ in range(50):
            a, b = rng.randrange(P32), rng.randrange(1, P32)
            ra, rb = mont.enter(a), mont.enter(b)
            assert mont.exit(mont.add(ra, rb)) == plain.add(a, b)
            assert mont.exit(mont.sub(ra, rb)) == plain.sub(a, b)
            assert mont.exit(mont.neg(ra)) == plain.neg(a)
            assert mont.exit(mont.mul(ra, rb)) == plain.mul(a, b)
            assert mont.exit(mont.sqr(ra)) == plain.sqr(a)
            assert mont.exit(mont.inv(rb)) == plain.inv(b)
            assert mont.exit(mont.half(ra)) == plain.half(a)

    @pytest.mark.parametrize("p", [P32, P127, P170])
    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    def test_resident_ops_match_integer_arithmetic(self, backend, p):
        # Two, eight and eleven 16-bit Montgomery words: every resident op,
        # inv_many included, exits to Python's integer arithmetic mod p.
        field = PrimeField(p, check_prime=False, backend=backend)
        rng = random.Random(41)
        for _ in range(9):
            a, b = rng.randrange(p), rng.randrange(1, p)
            ra, rb = field.enter(a), field.enter(b)
            assert field.exit(field.add(ra, rb)) == (a + b) % p
            assert field.exit(field.sub(ra, rb)) == (a - b) % p
            assert field.exit(field.neg(ra)) == -a % p
            assert field.exit(field.mul(ra, rb)) == a * b % p
            assert field.exit(field.sqr(ra)) == a * a % p
            assert field.exit(field.inv(rb)) == pow(b, -1, p)
            assert 2 * field.exit(field.half(ra)) % p == a
        plain = [rng.randrange(1, p) for _ in range(5)]
        out = field.inv_many([field.enter(v) for v in plain])
        assert [field.exit(v) for v in out] == [pow(v, -1, p) for v in plain]

    def test_resident_pow(self):
        mont = PrimeField(P32, check_prime=False, backend="montgomery")
        base = mont.enter(987654321)
        assert mont.exit(mont.pow(base, 1000003)) == pow(987654321, 1000003, P32)
        assert mont.exit(mont.pow(base, -7)) == pow(987654321, -7, P32)
        # Every backend's pow is Python's pow, on a multi-word modulus and
        # for negative exponents too; word-counting runs its own chain.
        p127 = (1 << 127) - 1
        rng = random.Random(44)
        for name in ("plain", "montgomery", "word-counting"):
            field = PrimeField(p127, check_prime=False, backend=name)
            for e in (0, 1, 5, rng.getrandbits(120), -1, -3, -rng.getrandbits(60)):
                b = rng.randrange(1, p127)
                assert field.exit(field.pow(field.enter(b), e)) == pow(b, e, p127)

    def test_sqrt_and_is_square_resident(self):
        mont = PrimeField(P32, check_prime=False, backend="montgomery")
        value = mont.enter(1234)
        square = mont.sqr(value)
        assert mont.is_square(square)
        root = mont.sqrt(square)
        assert mont.sqr(root) == square

    def test_element_wrapper_exits_at_int(self):
        mont = PrimeField(P32, check_prime=False, backend="montgomery")
        element = mont(42)
        assert int(element) == 42
        assert element == 42
        assert int(mont(6) * mont(7)) == 42

    def test_fields_of_different_representation_are_distinct(self):
        plain = PrimeField(P32, check_prime=False)
        mont = PrimeField(P32, check_prime=False, backend="montgomery")
        assert plain != mont
        with pytest.raises(FieldMismatchError):
            plain(1) + mont(1)

    def test_montgomery_fields_with_different_r_are_distinct(self):
        # Different word geometry means different R — residents of one
        # domain are meaningless in the other, so the fields must not
        # compare equal (which would let their elements mix silently).
        # 12-bit words need 3 words for a 32-bit p (R = 2^36) vs 2 sixteen-bit
        # words (R = 2^32) — genuinely different residents.
        narrow = PrimeField(P32, check_prime=False, backend=MontgomeryBackend(word_bits=12))
        wide = PrimeField(P32, check_prime=False, backend=MontgomeryBackend(word_bits=16))
        assert narrow.backend.domain.r != wide.backend.domain.r
        assert narrow != wide
        with pytest.raises(FieldMismatchError):
            narrow(5) * wide(7)
        # Same geometry stays equal and interoperable.
        twin = PrimeField(P32, check_prime=False, backend="montgomery")
        assert twin == wide
        assert int(twin(5) * wide(7)) == 35

    def test_counting_field_requires_plain_backend(self):
        with pytest.raises(ParameterError):
            CountingPrimeField(P32, check_prime=False, backend="montgomery")

    def test_montgomery_backend_needs_odd_modulus(self):
        with pytest.raises(ParameterError):
            PrimeField(2, check_prime=False, backend="montgomery")


# ---------------------------------------------------------------------------
# Residency through the tower.
# ---------------------------------------------------------------------------


class TestTowerResidency:
    def test_fp6_multiplication_matches_plain(self):
        plain6 = make_fp6(PrimeField(P32, check_prime=False))
        mont6 = make_fp6(PrimeField(P32, check_prime=False, backend="montgomery"))
        rng1, rng2 = random.Random(11), random.Random(11)
        for _ in range(10):
            a1 = plain6.random_element(rng1)
            b1 = plain6.random_element(rng1)
            a2 = mont6.random_element(rng2)
            b2 = mont6.random_element(rng2)
            product_plain = plain6.mul(a1, b1)
            product_mont = mont6.mul(a2, b2)
            exit_ = mont6.base.exit
            assert tuple(exit_(c) for c in product_mont.coeffs) == product_plain.coeffs
            inverse = mont6.inv(a2)
            assert mont6.mul(a2, inverse).is_one()

    def test_fp2_karatsuba_matches_schoolbook(self):
        for backend in ("plain", "montgomery"):
            fp2 = make_fp2(PrimeField(P32, check_prime=False, backend=backend))
            rng = random.Random(13)
            for _ in range(20):
                a = fp2.random_element(rng)
                b = fp2.random_element(rng)
                assert fp2.mul(a, b) == fp2.mul_schoolbook(a, b)

    def test_j_invariant_plain_across_backends(self):
        from repro.ecc.curves import SECP160R1

        plain_curve, _ = SECP160R1.build()
        mont_curve, _ = SECP160R1.build(backend="montgomery")
        assert plain_curve.j_invariant() == mont_curve.j_invariant()

    def test_frobenius_and_norm_resident(self):
        mont6 = make_fp6(PrimeField(P32, check_prime=False, backend="montgomery"))
        plain6 = make_fp6(PrimeField(P32, check_prime=False))
        element_m = mont6([1, 2, 3, 4, 5, 6])
        element_p = plain6([1, 2, 3, 4, 5, 6])
        assert mont6.norm(element_m) == plain6.norm(element_p)  # both plain ints
        assert mont6.trace(element_m) == plain6.trace(element_p)
        frob_m = mont6.frobenius(element_m, 2)
        frob_p = plain6.frobenius(element_p, 2)
        assert tuple(mont6.base.exit(c) for c in frob_m.coeffs) == frob_p.coeffs


# ---------------------------------------------------------------------------
# Word-counting substrate.
# ---------------------------------------------------------------------------


class TestWordCounting:
    def test_stream_tallies_fios_word_mults(self):
        spec = WordCountingBackend()
        field = PrimeField(P32, check_prime=False, backend=spec)
        words = MontgomeryDomain(P32).num_words
        a, b = field.enter(123456), field.enter(654321)
        spec.stream.reset()
        field.mul(a, b)
        field.sqr(a)
        assert spec.stream.modular_mults == 2
        assert spec.stream.word_mults == 2 * fios_word_mult_count(words)
        field.add(a, b)
        field.sub(a, b)
        assert spec.stream.modular_adds == 1
        assert spec.stream.modular_subs == 1
        assert spec.stream.word_adds > 0
        # A counting pow streams its chain's products the same way.
        spec.stream.reset()
        field.pow(a, (1 << 20) + 7)
        assert spec.stream.modular_mults > 20
        assert spec.stream.word_mults == (
            spec.stream.modular_mults * fios_word_mult_count(words)
        )

    def test_counting_toggle_preserves_values(self):
        spec = WordCountingBackend()
        field = PrimeField(P32, check_prime=False, backend=spec)
        a, b = field.enter(13579), field.enter(24680)
        counted = field.mul(a, b)
        spec.stream.counting = False
        fast = field.mul(a, b)
        spec.stream.counting = True
        assert counted == fast
        spec.stream.reset()
        spec.stream.counting = False
        field.mul(a, b)
        assert spec.stream.modular_mults == 0  # gated off

    def test_shared_stream_across_tower(self):
        spec = WordCountingBackend()
        fp6 = make_fp6(PrimeField(P32, check_prime=False, backend=spec))
        a = fp6([1, 2, 3, 4, 5, 6])
        b = fp6([6, 5, 4, 3, 2, 1])
        spec.stream.reset()
        fp6.mul(a, b)
        # The paper's 18M algorithm: exactly 18 base-field multiplications.
        assert spec.stream.modular_mults == 18
        # ... and the A-count of the level-2 sequence (64 adds/subs).
        assert spec.stream.modular_adds + spec.stream.modular_subs == 64

    def test_rsa_counting_domain_streams(self):
        scheme = get_scheme("rsa-512", fresh=True, backend="word-counting")
        from repro.exp.trace import OpTrace

        stream = scheme.field_backend.stream
        stream.reset()
        trace = OpTrace()
        scheme.headline_exponentiation(trace)
        assert stream.modular_mults == trace.total
        assert stream.final_subtractions <= stream.modular_mults

    def test_rsa_word_counting_covers_all_protocol_legs(self):
        scheme = get_scheme("rsa-512", fresh=True, backend="word-counting")
        stream = scheme.field_backend.stream
        key = scheme.keygen(random.Random(31))
        stream.reset()
        ciphertext = scheme.encrypt(key.public_wire, b"stream me" * 2, random.Random(32))
        after_encrypt = stream.modular_mults
        assert after_encrypt > 0
        assert scheme.decrypt(key, ciphertext) == b"stream me" * 2
        after_decrypt = stream.modular_mults
        assert after_decrypt > after_encrypt  # CRT legs streamed too
        signature = scheme.sign(key, b"message", random.Random(33))
        after_sign = stream.modular_mults
        assert after_sign > after_decrypt
        assert scheme.verify(key.public_wire, b"message", signature)
        assert stream.modular_mults > after_sign

    def test_manual_batch_stats_expected_rate_unknown(self):
        from repro.montgomery.fios import FiosBatchStats, fios_trace

        domain = MontgomeryDomain(P32)
        stats = FiosBatchStats()
        stats.record(fios_trace(domain, 123456, 654321))
        assert stats.multiplications == 1
        assert stats.expected_rate is None  # domain geometry never supplied

    def test_fios_batch_stats(self):
        domain = MontgomeryDomain(P32)
        rng = random.Random(17)
        pairs = [
            (rng.randrange(P32), rng.randrange(P32)) for _ in range(400)
        ]
        stats = fios_batch_stats(domain, pairs)
        assert stats.multiplications == 400
        assert stats.word_mults == 400 * fios_word_mult_count(domain.num_words)
        # The conditional final subtraction fires for *some but not all*
        # products — the data dependence behind the constant-time caveat.
        assert 0 < stats.final_subtractions < 400
        assert 0.0 < stats.rate < 1.0
        assert stats.expected_rate > 0
        # Loose sanity band around the uniform-operand prediction p/4R.
        assert stats.rate < 8 * stats.expected_rate


# ---------------------------------------------------------------------------
# Cross-backend differential: byte-identical wire output per scheme.
# ---------------------------------------------------------------------------


class TestCrossBackendDifferential:
    @pytest.mark.parametrize("name", available_schemes())
    def test_wire_output_identical_plain_vs_montgomery(self, name):
        self._assert_wire_identical(name, "montgomery")

    @pytest.mark.parametrize("name", available_schemes())
    def test_wire_output_identical_plain_vs_word_counting(self, name):
        self._assert_wire_identical(name, "word-counting")

    @staticmethod
    def _assert_wire_identical(name, backend):
        plain = get_scheme(name, fresh=True, backend="plain")
        other = get_scheme(name, fresh=True, backend=backend)
        rng_p, rng_m = random.Random(4242), random.Random(4242)
        key_p, key_m = plain.keygen(rng_p), other.keygen(rng_m)
        assert key_p.public_wire == key_m.public_wire
        if KEY_AGREEMENT in plain.capabilities:
            peer_p, peer_m = plain.keygen(rng_p), other.keygen(rng_m)
            assert peer_p.public_wire == peer_m.public_wire
            secret_p = plain.key_agreement(key_p, peer_p.public_wire)
            secret_m = other.key_agreement(key_m, peer_m.public_wire)
            assert secret_p == secret_m
            # ... and the other backend interoperates with itself.
            assert other.key_agreement(peer_m, key_m.public_wire) == secret_m
        if ENCRYPTION in plain.capabilities:
            message = b"backend differential message"
            ct_p = plain.encrypt(key_p.public_wire, message, rng_p)
            ct_m = other.encrypt(key_m.public_wire, message, rng_m)
            assert ct_p == ct_m
            assert other.decrypt(key_m, ct_m) == message
        if SIGNATURE in plain.capabilities:
            message = b"backend differential signature"
            sig_p = plain.sign(key_p, message, rng_p)
            sig_m = other.sign(key_m, message, rng_m)
            assert sig_p == sig_m
            assert other.verify(key_m.public_wire, message, sig_m)
            assert plain.verify(key_p.public_wire, message, sig_m)


# ---------------------------------------------------------------------------
# Measured vs analytic Table 3 projection.
# ---------------------------------------------------------------------------


class TestMeasuredProjection:
    #: Fast parameterisations of all four scheme shapes (the full headline
    #: sizes run in the benchmark-smoke job).
    FAST_SCHEMES = ("ceilidh-toy32", "ecdh-p160", "rsa-512", "xtr-toy32")

    @pytest.mark.parametrize("name", FAST_SCHEMES)
    def test_measured_agrees_with_analytic_within_5_percent(self, name, platform_cls=None):
        projection = measured_headline_projection(name)
        assert projection.measured_cycles > 0
        assert projection.relative_error <= 0.05, (
            f"{name}: measured {projection.measured_cycles} vs analytic "
            f"{projection.analytic_cycles}"
        )
        # The stream really executed word-level work.
        assert projection.stream["word_mults"] > 0
        assert projection.stream["modular_mults"] > 0

    def test_measured_projection_restores_stream_counting(self):
        measured_headline_projection("ceilidh-toy32")
        scheme = get_scheme("ceilidh-toy32", backend="word-counting")
        # The cached instance's shared stream must keep tallying afterwards.
        assert scheme.field_backend.stream.counting is True

    def test_measured_projection_preserves_caller_tallies(self):
        scheme = get_scheme("ceilidh-toy32", backend="word-counting")
        stream = scheme.field_backend.stream
        stream.reset()
        scheme.keygen(random.Random(21))  # caller's in-progress accumulation
        before = stream.as_dict()
        assert before["modular_mults"] > 0
        measured_headline_projection(scheme)  # instance form, same stream
        assert stream.as_dict() == before

    def test_measured_projection_rejects_non_counting_instance(self):
        plain_scheme = get_scheme("ceilidh-toy32", backend="plain")
        with pytest.raises(ParameterError):
            measured_headline_projection(plain_scheme)

    def test_build_profile_measured_mode(self):
        scheme = get_scheme("ceilidh-toy32")
        from repro.pkc import build_profile

        profile = build_profile(scheme, include_protocols=False, projection="measured")
        assert profile.measured_cycles is not None
        assert profile.word_stream is not None
        assert profile.measured_vs_analytic_error is not None
        assert profile.measured_vs_analytic_error <= 0.05

    def test_unknown_projection_mode_rejected(self):
        scheme = get_scheme("ceilidh-toy32")
        from repro.pkc import build_profile

        with pytest.raises(ParameterError):
            build_profile(scheme, include_protocols=False, projection="mystic")


# ---------------------------------------------------------------------------
# Registry backend plumbing.
# ---------------------------------------------------------------------------


class TestRegistryBackends:
    def test_instances_cached_per_backend(self, monkeypatch):
        # Pin the env so the test means the same thing on every CI leg.
        monkeypatch.delenv("REPRO_FIELD_BACKEND", raising=False)
        plain_a = get_scheme("ceilidh-toy32")
        plain_b = get_scheme("ceilidh-toy32", backend="plain")
        mont = get_scheme("ceilidh-toy32", backend="montgomery")
        assert plain_a is plain_b
        assert mont is not plain_a
        assert mont is get_scheme("ceilidh-toy32", backend="montgomery")

    def test_env_var_steers_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "montgomery")
        scheme = get_scheme("ceilidh-toy32", fresh=True)
        assert scheme.field_backend.name == "montgomery"

    def test_unknown_backend_rejected(self):
        for name in ("abacus", "native"):
            with pytest.raises(ParameterError, match="available"):
                get_scheme("ceilidh-toy32", backend=name)

    def test_env_var_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIELD_BACKEND", "native")
        with pytest.raises(ParameterError, match="available"):
            get_scheme("ceilidh-toy32", fresh=True)

    def test_run_batch_accepts_scheme_name_and_backend(self):
        from repro.pkc.bench import run_batch

        result = run_batch(
            "ceilidh-toy32", "key-agreement", 2,
            rng=random.Random(3), backend="montgomery",
        )
        assert result.sessions == 2
        assert result.ops.total > 0

    def test_run_batch_rejects_conflicting_backend(self):
        from repro.pkc.bench import run_batch

        scheme = get_scheme("ceilidh-toy32", backend="plain")
        with pytest.raises(ParameterError):
            run_batch(scheme, "key-agreement", 1, backend="montgomery")

    def test_run_batch_rejects_backend_for_backend_unaware_scheme(self):
        from repro.pkc.base import KEY_AGREEMENT, PkcScheme
        from repro.pkc.bench import run_batch

        class Legacy(PkcScheme):
            name = "legacy"
            capabilities = frozenset({KEY_AGREEMENT})

        with pytest.raises(ParameterError):
            run_batch(Legacy(), "key-agreement", 1, backend="montgomery")

    def test_run_batch_accepts_plain_backend_for_legacy_scheme(self):
        # A scheme that never set field_backend runs plain arithmetic, so
        # asking for the plain backend is consistent (it then fails only on
        # the unimplemented keygen, not on the backend check).
        from repro.pkc.base import KEY_AGREEMENT, PkcScheme
        from repro.pkc.bench import run_batch

        class Legacy(PkcScheme):
            name = "legacy"
            capabilities = frozenset({KEY_AGREEMENT})

        with pytest.raises(NotImplementedError):
            run_batch(Legacy(), "key-agreement", 1, backend="plain")



# ---------------------------------------------------------------------------
# Batch inversion (Montgomery's trick) across backends.
# ---------------------------------------------------------------------------


class TestInvMany:
    P = 2**89 - 1  # a Mersenne prime comfortably above the toy sizes

    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    def test_matches_singles(self, backend):
        from repro.field.fp import PrimeField

        field = PrimeField(self.P, backend=backend)
        rng = random.Random(7)
        values = [field.enter(rng.randrange(1, self.P)) for _ in range(17)]
        batch = [field.exit(x) for x in field.inv_many(values)]
        singles = [field.exit(field.inv(v)) for v in values]
        assert batch == singles
        assert batch == [pow(field.exit(v), -1, self.P) for v in values]

    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    def test_empty_and_single(self, backend):
        from repro.field.fp import PrimeField

        field = PrimeField(self.P, backend=backend)
        assert field.inv_many([]) == []
        value = field.enter(424242)
        assert [field.exit(x) for x in field.inv_many([value])] == [
            field.exit(field.inv(value))
        ]

    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    def test_zero_anywhere_raises(self, backend):
        from repro.errors import NotInvertibleError
        from repro.field.fp import PrimeField

        field = PrimeField(self.P, backend=backend)
        values = [field.enter(3), field.enter(0), field.enter(5)]
        with pytest.raises(NotInvertibleError):
            field.inv_many(values)

    def test_montgomery_residents_round_trip(self):
        # The trick runs entirely on residents: entering, batch-inverting
        # and exiting under the Montgomery backend must agree with plain
        # integer inversion value for value.
        from repro.field.fp import PrimeField

        field = PrimeField(self.P, backend="montgomery")
        plain = [1, 2, 3, self.P - 1, 12345, 2**64 + 7]
        residents = [field.enter(v) for v in plain]
        out = [field.exit(x) for x in field.inv_many(residents)]
        assert out == [pow(v, -1, self.P) for v in plain]
        # ...and the residents themselves were Montgomery-form all along.
        assert residents != plain

    def test_counting_field_observes_claimed_cost(self):
        # 1 inversion + 3(N-1) multiplications, by construction.
        from repro.field.opcount import CountingPrimeField

        field = CountingPrimeField(self.P, check_prime=False)
        rng = random.Random(11)
        values = [rng.randrange(1, self.P) for _ in range(9)]
        field.reset_counts()
        field.inv_many(values)
        assert field.counts.inv == 1
        assert field.counts.mul == 3 * (len(values) - 1)


# ---------------------------------------------------------------------------
# Batch APIs: byte identity with singles, and the inversion collapse.
# ---------------------------------------------------------------------------


class TestBatchProtocolIdentity:
    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    @pytest.mark.parametrize("name", ["ecdh-p160", "ceilidh-toy32", "xtr-toy32"])
    def test_keygen_many_matches_singles(self, name, backend):
        singles_scheme = get_scheme(name, fresh=True, backend=backend)
        batch_scheme = get_scheme(name, fresh=True, backend=backend)
        # Same seed, same draw order: N batched keygens == N single keygens.
        rng_s, rng_b = random.Random(777), random.Random(777)
        singles = [singles_scheme.keygen(rng_s) for _ in range(5)]
        batch = batch_scheme.keygen_many(5, rng_b)
        assert [k.public_wire for k in batch] == [k.public_wire for k in singles]

    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    @pytest.mark.parametrize("name", ["ecdh-p160", "ceilidh-toy32"])
    def test_key_agreement_many_matches_singles(self, name, backend):
        scheme = get_scheme(name, fresh=True, backend=backend)
        rng = random.Random(888)
        server = scheme.keygen(rng)
        peers = [scheme.keygen(rng).public_wire for _ in range(6)]
        batch = scheme.key_agreement_many(server, peers)
        assert batch == [scheme.key_agreement(server, peer) for peer in peers]


class TestBatchInversionCollapse:
    def _count_field_inversions(self, field, action):
        counter = {"inv": 0}
        original = field.inv

        def counting_inv(a):
            counter["inv"] += 1
            return original(a)

        field.inv = counting_inv
        try:
            result = action()
        finally:
            del field.inv
        return counter["inv"], result

    def test_serve_batch_does_one_inversion_per_group_round(self):
        # The acceptance check of the batching tentpole: an N-session ECDH
        # key-agreement batch performs exactly ONE modular inversion for its
        # single group round (the shared Jacobian->affine normalisation),
        # where the per-item path pays one per session.
        from repro.serve.session import serve_request, serve_request_batch

        scheme = get_scheme("ecdh-p160", fresh=True, backend="plain")
        field = scheme._curve_obj.field
        rng = random.Random(1001)
        server = scheme.keygen(rng)
        payloads = [scheme.keygen(rng).public_wire for _ in range(6)]

        batch_invs, batched = self._count_field_inversions(
            field,
            lambda: serve_request_batch(scheme, server, "key-agreement", payloads),
        )
        assert batch_invs == 1

        single_invs, singles = self._count_field_inversions(
            field,
            lambda: [
                serve_request(scheme, server, "key-agreement", payload)
                for payload in payloads
            ],
        )
        assert single_invs == len(payloads)
        # Identical responses: batching is an execution strategy, not a
        # semantic change.
        assert batched == singles

    def test_serve_batch_all_or_nothing_on_bad_payload(self):
        from repro.errors import ReproError
        from repro.serve.session import serve_request_batch

        scheme = get_scheme("ecdh-p160", fresh=True, backend="plain")
        rng = random.Random(1002)
        server = scheme.keygen(rng)
        payloads = [scheme.keygen(rng).public_wire, b"\x00garbage"]
        with pytest.raises(ReproError):
            serve_request_batch(scheme, server, "key-agreement", payloads)

    def test_run_batch_coalesced_matches_loop(self):
        from repro.pkc.bench import run_batch

        loop = run_batch(
            get_scheme("ecdh-p160", fresh=True), "key-agreement", 5,
            rng=random.Random(1003), coalesce=False,
        )
        coalesced = run_batch(
            get_scheme("ecdh-p160", fresh=True), "key-agreement", 5,
            rng=random.Random(1003), coalesce=True,
        )
        assert coalesced.wire_bytes == loop.wire_bytes
        assert coalesced.sessions == loop.sessions
        # The coalesced client phase shares one fixed-base doubling chain
        # across the batch, so it performs *fewer* group operations than the
        # loop — same wire bytes, cheaper execution.
        assert 0 < coalesced.ops.total < loop.ops.total
        assert coalesced.coalesced and coalesced.batch_size == loop.sessions
        assert not loop.coalesced and loop.batch_size is None
