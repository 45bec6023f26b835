"""Tests for the base prime field (repro.field.fp)."""

import pytest

from repro.errors import FieldMismatchError, NotInvertibleError, ParameterError
from repro.field.fp import PrimeField


@pytest.fixture(scope="module")
def field():
    return PrimeField(10007)


class TestPrimeFieldConstruction:
    def test_rejects_composite(self):
        with pytest.raises(ParameterError):
            PrimeField(10006)

    def test_rejects_too_small(self):
        with pytest.raises(ParameterError):
            PrimeField(1)

    def test_check_can_be_skipped(self):
        assert PrimeField(10006, check_prime=False).p == 10006

    def test_equality_and_hash(self):
        assert PrimeField(13) == PrimeField(13)
        assert PrimeField(13) != PrimeField(17)
        assert hash(PrimeField(13)) == hash(PrimeField(13))


class TestPrimeFieldArithmetic:
    def test_add_wraps(self, field):
        assert field.add(field.p - 1, 5) == 4

    def test_sub_wraps(self, field):
        assert field.sub(3, 10) == field.p - 7

    def test_neg(self, field):
        assert field.neg(0) == 0
        assert field.neg(1) == field.p - 1

    def test_mul_and_sqr(self, field):
        assert field.mul(123, 456) == 123 * 456 % field.p
        assert field.sqr(321) == 321 * 321 % field.p

    def test_inv(self, field):
        for a in (1, 2, 5000, field.p - 1):
            assert field.mul(a, field.inv(a)) == 1

    def test_inv_zero_raises(self, field):
        with pytest.raises(NotInvertibleError):
            field.inv(0)

    def test_pow_negative_exponent(self, field):
        assert field.pow(3, -1) == field.inv(3)
        assert field.pow(3, -2) == field.inv(field.mul(3, 3))

    def test_half(self, field):
        for a in (0, 1, 2, 9999, field.p - 1):
            assert field.mul(field.half(a), 2) == a

    def test_sqrt_and_is_square(self, field):
        value = field.sqr(1234)
        root = field.sqrt(value)
        assert field.sqr(root) == value
        assert field.is_square(value)
        assert field.is_square(0)

    def test_reduce(self, field):
        assert field.reduce(field.p + 5) == 5
        assert field.reduce(-1) == field.p - 1

    def test_random_element_in_range(self, field, rng):
        for _ in range(20):
            assert 0 <= field.random_element(rng) < field.p
            assert 0 < field.random_nonzero(rng) < field.p


class TestFpElement:
    def test_operators(self, field):
        a, b = field(20), field(9990)
        assert (a + b).value == field.add(20, 9990)
        assert (a - b).value == field.sub(20, 9990)
        assert (a * b).value == field.mul(20, 9990)
        assert (a / b) * b == a
        assert (-a).value == field.neg(20)
        assert (a ** 3).value == field.pow(20, 3)

    def test_int_coercion(self, field):
        a = field(20)
        assert (a + 5).value == 25
        assert (5 + a).value == 25
        assert (5 - a).value == field.sub(5, 20)
        assert int(a) == 20

    def test_equality_with_int(self, field):
        assert field(20) == 20
        assert field(20) == 20 + field.p

    def test_inverse_and_sqrt(self, field):
        a = field(33)
        assert (a * a.inverse()) == 1
        assert (a * a).sqrt() in (a, -a)

    def test_zero_one_helpers(self, field):
        assert field.zero().is_zero()
        assert not field.one().is_zero()

    def test_cross_field_rejected(self, field):
        other = PrimeField(13)
        with pytest.raises(FieldMismatchError):
            _ = field(1) + other(1)

    def test_division_by_zero(self, field):
        with pytest.raises(NotInvertibleError):
            _ = field(1) / field(0)
