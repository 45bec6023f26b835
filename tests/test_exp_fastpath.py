"""The engine's null-trace fast path and the inline Fp6 multiplication.

The optimisation contract is strict: with ``trace=None`` the strategies
skip all bookkeeping (direct bound group methods), and the inline
deferred-reduction Fp6 multiplication replaces the instrumented 18M path
over plain prime fields — but the *group elements* produced must be
identical in every case, for every strategy, traced or not.
"""

from __future__ import annotations

import random

import pytest

from repro.exp import (
    FieldExpGroup,
    OpTrace,
    available_strategies,
    double_exponentiate,
    exponentiate,
)
from repro.exp.strategies import FixedBaseTable, naf_digits, wnaf_digits, wnaf_recoding
from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6
from repro.field.opcount import CountingPrimeField


@pytest.fixture(scope="module")
def fp_group():
    return FieldExpGroup(PrimeField(0xFFFFFFFB, check_prime=False))


@pytest.fixture(scope="module")
def t6():
    from repro.torus.params import get_parameters
    from repro.torus.t6 import T6Group

    return T6Group(get_parameters("toy-32"))


class TestTracedUntracedAgreement:
    """Satellite (c): traced and untraced runs return identical elements."""

    @pytest.mark.parametrize("strategy", sorted(available_strategies()))
    def test_every_strategy_on_fp(self, strategy, fp_group):
        rng = random.Random(41)
        for _ in range(5):
            base = rng.randrange(2, fp_group.field.p)
            exponent = rng.getrandbits(64)
            trace = OpTrace()
            traced = exponentiate(fp_group, base, exponent, strategy=strategy, trace=trace)
            untraced = exponentiate(fp_group, base, exponent, strategy=strategy)
            assert traced == untraced == pow(base, exponent, fp_group.field.p)
            if exponent > 1:
                assert trace.total > 0  # the traced run really recorded work

    @pytest.mark.parametrize("strategy", sorted(available_strategies()))
    def test_every_strategy_on_the_torus(self, strategy, t6):
        rng = random.Random(42)
        torus_group = t6.exp_group()
        element = t6.random_subgroup_element(rng).value
        exponent = rng.getrandbits(28) | 1
        trace = OpTrace()
        traced = exponentiate(torus_group, element, exponent, strategy=strategy, trace=trace)
        untraced = exponentiate(torus_group, element, exponent, strategy=strategy)
        assert traced == untraced
        assert trace.total > 0

    def test_double_exponentiate(self, fp_group):
        rng = random.Random(43)
        a, b = rng.randrange(2, fp_group.field.p), rng.randrange(2, fp_group.field.p)
        ea, eb = rng.getrandbits(48), rng.getrandbits(48)
        trace = OpTrace()
        traced = double_exponentiate(fp_group, a, ea, b, eb, trace=trace)
        untraced = double_exponentiate(fp_group, a, ea, b, eb)
        p = fp_group.field.p
        assert traced == untraced == pow(a, ea, p) * pow(b, eb, p) % p
        assert trace.total > 0

    def test_fixed_base_table(self, fp_group):
        base = 3
        traced_table = FixedBaseTable(fp_group, base, 48, trace=OpTrace())
        untraced_table = FixedBaseTable(fp_group, base, 48)
        for exponent in (0, 1, 5, -7, (1 << 47) - 1):
            trace = OpTrace()
            assert traced_table.power(exponent, trace=trace) == untraced_table.power(exponent)

    def test_negative_exponent_inversion_counted_once(self, t6):
        torus_group = t6.exp_group()
        element = t6.random_subgroup_element(random.Random(9)).value
        trace = OpTrace()
        traced = exponentiate(torus_group, element, -5, trace=trace)
        assert trace.inversions >= 1
        assert traced == exponentiate(torus_group, element, -5)


def per_bit_wnaf_digits(exponent, width):
    """The recoding as one loop turn per bit: the reference for the
    zero-run-skipping :func:`wnaf_digits`."""
    digits = []
    if width < 2:
        while exponent > 0:
            if exponent & 1:
                digit = 2 - (exponent % 4)
                exponent -= digit
            else:
                digit = 0
            digits.append(digit)
            exponent >>= 1
        return digits
    modulus = 1 << width
    half = 1 << (width - 1)
    while exponent > 0:
        if exponent & 1:
            digit = exponent % modulus
            if digit >= half:
                digit -= modulus
            exponent -= digit
        else:
            digit = 0
        digits.append(digit)
        exponent >>= 1
    return digits


class TestWnafRecoding:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_digits_match_the_per_bit_loop(self, width, ceilidh170_params):
        rng = random.Random(width)
        max_bits = 3 * ceilidh170_params.q.bit_length()
        exponents = [0, 1] + [1 << k for k in range(max_bits + 1)]
        exponents += [rng.getrandbits(rng.randrange(1, max_bits + 1)) for _ in range(300)]
        for exponent in exponents:
            assert wnaf_digits(exponent, width) == per_bit_wnaf_digits(exponent, width), (
                exponent
            )
        if width == 1:
            for exponent in exponents:
                assert naf_digits(exponent) == per_bit_wnaf_digits(exponent, 1), exponent

    def test_recoding_retains_no_secrets(self):
        """Security: no process-wide cache keyed by (secret) exponents."""
        assert not hasattr(wnaf_recoding, "cache_info")

    def test_recoding_reconstructs_the_exponent(self):
        for exponent in (1, 2, 0xDEADBEEF, (1 << 170) - 3):
            digits = wnaf_recoding(exponent, 5)
            value = 0
            for digit in digits:  # most-significant first
                value = (value << 1) + digit
            assert value == exponent


class TestInlineFp6Multiplication:
    def test_fast_and_instrumented_paths_agree(self):
        field = PrimeField(1109485483118704838530651968604888341434144398802927, check_prime=False)
        fp6 = make_fp6(field)
        rng = random.Random(17)
        for _ in range(50):
            a = fp6([rng.randrange(field.p) for _ in range(6)])
            b = fp6([rng.randrange(field.p) for _ in range(6)])
            assert fp6.mul(a, b).coeffs == fp6.mul_paper(a, b).coeffs
            assert fp6.sqr(a).coeffs == fp6.mul_paper(a, a).coeffs

    def test_counting_fields_keep_the_instrumented_path(self):
        counting = CountingPrimeField(2494740737, check_prime=False)
        fp6 = make_fp6(counting)
        assert not fp6._plain_base
        a = fp6([1, 2, 3, 4, 5, 6])
        counting.reset_counts()
        fp6.mul(a, a)
        # The paper's figure: exactly 18 base-field multiplications observed.
        assert counting.counts.mul == 18

    def test_plain_fields_take_the_fast_path(self):
        fp6 = make_fp6(PrimeField(2494740737, check_prime=False))
        assert fp6._plain_base
