"""Tests for torus exponentiation through ``T6Group.exponentiate``."""

import random

import pytest

from repro.errors import ParameterError
from repro.exp import OpTrace, expected_counts, exponentiate
from repro.field.fp6 import Fp6Field
from repro.torus.t6 import T6Group


class TestStrategiesAgree:
    @pytest.mark.parametrize("exponent", [0, 1, 2, 3, 17, 1023, 65537, 0xDEADBEEF])
    def test_all_strategies_match_group_pow(self, toy32_group, exponent):
        g = toy32_group.generator()
        reference = toy32_group.exponentiate(g, exponent)
        assert toy32_group.exponentiate(g, exponent, "binary") == reference
        assert toy32_group.exponentiate(g, exponent, "naf") == reference
        assert toy32_group.exponentiate(g, exponent, "window") == reference
        assert exponentiate(
            toy32_group.exp_group(), g.value, exponent, strategy="window", window_bits=2
        ) == reference.value

    def test_random_exponents(self, toy32_group, rng):
        g = toy32_group.generator()
        for _ in range(5):
            exponent = rng.randrange(1, toy32_group.params.q)
            reference = toy32_group.exponentiate(g, exponent)
            assert toy32_group.exponentiate(g, exponent, "binary") == reference
            assert toy32_group.exponentiate(g, exponent, "naf") == reference
            assert toy32_group.exponentiate(g, exponent, "window") == reference

    def test_negative_exponent(self, toy32_group):
        g = toy32_group.generator()
        reference = toy32_group.exponentiate(g, -7)
        assert toy32_group.exponentiate(g, -7, "binary") == reference
        assert toy32_group.exponentiate(g, -7, "naf") == reference

    def test_bad_window_rejected(self, toy32_group):
        with pytest.raises(ParameterError):
            exponentiate(
                toy32_group.exp_group(), toy32_group.generator().value, 5,
                strategy="window", window_bits=0,
            )


class TestOperationCounts:
    def test_binary_counts(self, toy32_group):
        count = OpTrace()
        exponent = 0b1011011
        toy32_group.exponentiate(toy32_group.generator(), exponent, "binary", count=count)
        assert count.squarings == exponent.bit_length() - 1
        assert count.multiplications == bin(exponent).count("1") - 1

    def test_naf_uses_fewer_multiplications_on_dense_exponents(self, toy32_group):
        dense = (1 << 48) - 1  # all ones: binary needs 47 multiplications
        binary_count = OpTrace()
        naf_count = OpTrace()
        toy32_group.exponentiate(toy32_group.generator(), dense, "binary", count=binary_count)
        toy32_group.exponentiate(toy32_group.generator(), dense, "naf", count=naf_count)
        assert naf_count.multiplications < binary_count.multiplications

    def test_closed_form_counts(self):
        binary = expected_counts("binary", 170)
        assert binary.squarings == 169
        assert binary.multiplications == 84
        naf = expected_counts("naf", 170)
        assert naf.multiplications < binary.multiplications
        window = expected_counts("window", 170, window_bits=4)
        assert window.total < binary.total
        with pytest.raises(ParameterError):
            expected_counts("bogus", 170)

    def test_paper_scale_operation_count(self):
        # ~170-bit exponent -> ~254 Fp6 multiplications, the number behind the
        # 20 ms Table 3 entry (254 * ~5908 cycles at 74 MHz).
        count = expected_counts("binary", 170)
        assert 240 <= count.total <= 260


class TestCountedFieldCalls:
    """Every product of the T6 chain is one ``Fp6Field.mul`` call and every
    squaring one ``Fp6Field.sqr`` call: the two calls perfbench's traced
    pass counts as ``field.fp6_mul``/``field.fp6_sqr``."""

    @pytest.fixture
    def spied(self, monkeypatch, ceilidh170_params):
        calls = {"mul": 0, "sqr": 0}
        for name in calls:
            original = getattr(Fp6Field, name)

            def spy(field, *args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(field, *args, **kwargs)

            monkeypatch.setattr(Fp6Field, name, spy)
        # The group is built after the spy, and the generator and its table
        # before the counts start.
        group = T6Group(ceilidh170_params)
        rng = random.Random(26)
        base = group.generator_power(rng.randrange(1, ceilidh170_params.q))
        other = group.generator_power(rng.randrange(1, ceilidh170_params.q))
        calls.update(mul=0, sqr=0)
        return group, base, other, rng, calls

    def check(self, calls, trace, squarings=True):
        assert trace.multiplications > 0
        assert (trace.squarings > 0) == squarings
        assert calls == {"mul": trace.multiplications, "sqr": trace.squarings}

    @pytest.mark.parametrize("strategy", ["split", "wnaf", "binary"])
    def test_exponentiate(self, spied, strategy):
        group, base, _, rng, calls = spied
        trace = OpTrace()
        q = group.params.q
        for exponent in (rng.randrange(1, q), -rng.randrange(1, q)):
            group.exponentiate(base, exponent, strategy, count=trace)
        self.check(calls, trace)

    def test_exponentiate_shared_base(self, spied):
        group, base, _, rng, calls = spied
        trace = OpTrace()
        exponents = [rng.randrange(1, group.params.q) for _ in range(3)]
        group.exponentiate_shared_base(base, exponents, count=trace)
        self.check(calls, trace)

    def test_generator_power(self, spied):
        group, _, _, rng, calls = spied
        trace = OpTrace()
        group.generator_power(rng.randrange(1, group.params.q), count=trace)
        self.check(calls, trace, squarings=False)

    def test_double_exponentiate(self, spied):
        group, base, other, rng, calls = spied
        trace = OpTrace()
        q = group.params.q
        group.double_exponentiate(
            base, rng.randrange(1, q), other, rng.randrange(1, q), count=trace
        )
        self.check(calls, trace)
