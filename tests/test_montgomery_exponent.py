"""Tests for Montgomery-domain exponentiation through ``montgomery_power``."""

import pytest

from repro.errors import ParameterError
from repro.exp import OpTrace
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.exponent import montgomery_power


@pytest.fixture(scope="module")
def domain(toy64_params):
    return MontgomeryDomain(toy64_params.p, word_bits=16)


class TestCorrectness:
    def test_matches_builtin_pow(self, domain, rng):
        p = domain.modulus
        for _ in range(10):
            base = rng.randrange(p)
            exponent = rng.randrange(1 << 40)
            assert montgomery_power(domain, base, exponent, strategy="binary") == pow(
                base, exponent, p
            )

    def test_ladder_matches(self, domain, rng):
        p = domain.modulus
        base, exponent = rng.randrange(p), rng.randrange(1 << 40)
        assert montgomery_power(domain, base, exponent, strategy="ladder") == pow(
            base, exponent, p
        )

    def test_window_matches(self, domain, rng):
        p = domain.modulus
        base, exponent = rng.randrange(p), rng.randrange(1 << 60)
        for width in (1, 2, 4, 6):
            assert montgomery_power(
                domain, base, exponent, strategy="window", window_bits=width
            ) == pow(base, exponent, p)

    def test_zero_and_one_exponents(self, domain):
        assert montgomery_power(domain, 12345, 0, strategy="binary") == 1
        assert montgomery_power(domain, 12345, 1, strategy="binary") == 12345
        assert montgomery_power(domain, 12345, 0, strategy="ladder") == 1
        assert montgomery_power(domain, 12345, 0, strategy="window", window_bits=4) == 1

    def test_negative_exponent_rejected(self, domain):
        for strategy in ("binary", "ladder"):
            with pytest.raises(ParameterError):
                montgomery_power(domain, 2, -1, strategy=strategy)

    def test_bad_window_rejected(self, domain):
        with pytest.raises(ParameterError):
            montgomery_power(domain, 2, 5, strategy="window", window_bits=0)


class TestTraces:
    def test_binary_trace_counts(self, domain):
        trace = OpTrace()
        exponent = 0b101101
        montgomery_power(domain, 7, exponent, strategy="binary", trace=trace)
        assert trace.squarings == exponent.bit_length() - 1
        assert trace.multiplications == bin(exponent).count("1") - 1
        assert trace.total == trace.squarings + trace.multiplications

    def test_ladder_trace_is_regular(self, domain):
        trace = OpTrace()
        exponent = 0b110011
        montgomery_power(domain, 7, exponent, strategy="ladder", trace=trace)
        assert trace.squarings == exponent.bit_length()
        assert trace.multiplications == exponent.bit_length()

    def test_rsa_sized_exponentiation_cost(self, domain):
        # The Table 3 composition assumes ~1.5 multiplications per exponent bit.
        trace = OpTrace()
        exponent = (1 << 64) - 1 - (1 << 13)
        montgomery_power(domain, 3, exponent, strategy="binary", trace=trace)
        assert trace.total <= 2 * exponent.bit_length()
        assert trace.total >= exponent.bit_length()
