"""Tests for scalar multiplication strategies through ``scalar_mult``."""

import pytest

from repro.errors import ParameterError
from repro.ecc.point import INFINITY
from repro.ecc.scalar import scalar_mult
from repro.exp import JacobianExpGroup, OpTrace, exponentiate


@pytest.fixture(scope="module")
def generator(toy_curve):
    return toy_curve.build()[1]


def _reference_multiply(point, scalar):
    result = INFINITY
    for _ in range(scalar):
        result = result + point
    return result


class TestStrategiesAgree:
    @pytest.mark.parametrize("scalar", [0, 1, 2, 3, 5, 8, 13, 21])
    def test_against_repeated_addition(self, generator, scalar):
        expected = _reference_multiply(generator, scalar)
        for strategy in ("binary", "naf", "window", "ladder"):
            assert scalar_mult(generator, scalar, strategy) == expected

    def test_large_scalars_agree_with_each_other(self, generator, rng):
        for _ in range(5):
            scalar = rng.randrange(1 << 40)
            reference = scalar_mult(generator, scalar, "binary")
            assert scalar_mult(generator, scalar, "naf") == reference
            assert exponentiate(
                JacobianExpGroup(generator.curve), generator.to_jacobian(), scalar,
                strategy="window", window_bits=5,
            ).to_affine() == reference
            assert scalar_mult(generator, scalar, "ladder") == reference

    def test_negative_scalar(self, generator):
        for strategy in ("binary", "naf"):
            assert scalar_mult(generator, -3, strategy) == -scalar_mult(generator, 3, strategy)

    def test_order_annihilates(self, generator, toy_curve):
        for strategy in ("binary", "naf", "ladder"):
            assert scalar_mult(generator, toy_curve.order, strategy).is_infinity()

    def test_scalar_mult_on_infinity(self):
        assert scalar_mult(INFINITY, 12345, "binary").is_infinity()

    def test_dispatch(self, generator):
        reference = scalar_mult(generator, 77, "binary")
        for name in ("binary", "naf", "window", "ladder"):
            assert scalar_mult(generator, 77, name) == reference
        with pytest.raises(ParameterError):
            scalar_mult(generator, 77, "bogus")

    def test_window_width_validation(self, generator):
        with pytest.raises(ParameterError):
            exponentiate(
                JacobianExpGroup(generator.curve), generator.to_jacobian(), 5,
                strategy="window", window_bits=0,
            )


class TestOperationCounts:
    def test_binary_counts(self, generator):
        count = OpTrace()
        scalar = 0b1100101
        scalar_mult(generator, scalar, "binary", count)
        assert count.squarings == scalar.bit_length() - 1
        assert count.multiplications == bin(scalar).count("1") - 1

    def test_paper_scale_counts(self, generator):
        # Table 3's ECC entry: ~160 doublings and ~80 additions.
        count = OpTrace()
        scalar = (1 << 160) | 0x5A5A5A5A
        scalar_mult(generator, scalar, "binary", count)
        assert count.squarings == 160
        assert count.multiplications <= 80

    def test_naf_reduces_additions(self, generator):
        dense = (1 << 32) - 1
        binary_count, naf_count = OpTrace(), OpTrace()
        scalar_mult(generator, dense, "binary", binary_count)
        scalar_mult(generator, dense, "naf", naf_count)
        assert naf_count.multiplications < binary_count.multiplications

    def test_ladder_is_regular(self, generator):
        count = OpTrace()
        scalar_mult(generator, 0b10110111, "ladder", count)
        assert count.squarings == count.multiplications == 8
