"""Tests for named curves, self-validation and toy-curve generation."""

import random

import pytest

from repro.errors import ParameterError
from repro.ecc.curves import (
    NAMED_CURVES,
    SECP160R1,
    SECP192R1,
    SECP256K1,
    NamedCurve,
    generate_toy_curve,
    get_curve,
    validate_named_curve,
)
from repro.ecc.scalar import scalar_mult


class TestNamedCurves:
    @pytest.mark.parametrize("named", [SECP160R1, SECP192R1, SECP256K1], ids=lambda c: c.name)
    def test_generator_on_curve(self, named):
        curve, generator = named.build()
        assert curve.is_on_curve(generator.x, generator.y)

    def test_secp160r1_is_the_papers_size(self):
        assert SECP160R1.bits == 160
        assert SECP160R1.cofactor == 1

    def test_full_validation_of_160_bit_curve(self):
        validate_named_curve(SECP160R1)

    @pytest.mark.slow
    @pytest.mark.parametrize("named", [SECP192R1, SECP256K1], ids=lambda c: c.name)
    def test_full_validation_of_larger_curves(self, named):
        validate_named_curve(named)

    def test_lookup(self):
        assert get_curve("secp160r1") is SECP160R1
        assert set(NAMED_CURVES) == {"secp160r1", "secp192r1", "secp256k1"}
        with pytest.raises(ParameterError):
            get_curve("brainpool999")

    def test_validation_catches_corruption(self):
        from repro.errors import ReproError

        corrupted = NamedCurve(
            name="broken",
            p=SECP160R1.p,
            a=SECP160R1.a,
            b=SECP160R1.b,
            gx=SECP160R1.gx,
            gy=SECP160R1.gy ^ 1,
            order=SECP160R1.order,
            cofactor=1,
        )
        with pytest.raises(ReproError):
            validate_named_curve(corrupted)

    def test_validation_catches_wrong_order(self):
        corrupted = NamedCurve(
            name="broken",
            p=SECP160R1.p,
            a=SECP160R1.a,
            b=SECP160R1.b,
            gx=SECP160R1.gx,
            gy=SECP160R1.gy,
            order=SECP160R1.order + 4,
            cofactor=1,
        )
        with pytest.raises(ParameterError):
            validate_named_curve(corrupted)


class TestToyCurves:
    def test_generated_curve_is_consistent(self):
        named = generate_toy_curve(1009, random.Random(5))
        curve, generator = named.build()
        assert curve.is_on_curve(generator.x, generator.y)
        assert scalar_mult(generator, named.order, "binary").is_infinity()

    def test_order_is_prime(self):
        from repro.nt.primality import is_probable_prime

        named = generate_toy_curve(601, random.Random(6))
        assert is_probable_prime(named.order)

    def test_rejects_large_fields(self):
        with pytest.raises(ParameterError):
            generate_toy_curve(1_000_003)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ParameterError):
            generate_toy_curve(1000)
