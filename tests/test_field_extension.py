"""Tests for the generic extension field construction."""

import pytest

from repro.errors import FieldMismatchError, ParameterError
from repro.field.extension import ExtensionField
from repro.field.fp import PrimeField


@pytest.fixture(scope="module")
def field():
    return PrimeField(1009)


@pytest.fixture(scope="module")
def ext(field):
    # 1009 = 1 mod 4, so x^2 + 1 is reducible; use x^2 + x + 7 instead if irreducible.
    # The constructor verifies irreducibility, so build one that passes.
    for c in range(2, 50):
        try:
            return ExtensionField(field, [c, 1, 1], name="Fq2", var="x")
        except ParameterError:
            continue
    raise RuntimeError("no irreducible quadratic found")


class TestConstruction:
    def test_reducible_modulus_rejected(self, field):
        with pytest.raises(ParameterError):
            ExtensionField(field, [2, 3, 1])  # (x+1)(x+2)

    def test_non_monic_modulus_normalised(self, field):
        ext = ExtensionField(field, [4, 2, 2], check_irreducible=False)
        assert ext.modulus[-1] == 1

    def test_degree(self, ext):
        assert ext.degree == 2

    def test_constant_modulus_rejected(self, field):
        with pytest.raises(ParameterError):
            ExtensionField(field, [5])


class TestArithmetic:
    def test_add_sub_neg(self, ext, rng):
        a, b = ext.random_element(rng), ext.random_element(rng)
        assert ext.sub(ext.add(a, b), b) == a
        assert ext.add(a, ext.neg(a)).is_zero()

    def test_mul_commutative_associative(self, ext, rng):
        a, b, c = (ext.random_element(rng) for _ in range(3))
        assert ext.mul(a, b) == ext.mul(b, a)
        assert ext.mul(ext.mul(a, b), c) == ext.mul(a, ext.mul(b, c))

    def test_distributivity(self, ext, rng):
        a, b, c = (ext.random_element(rng) for _ in range(3))
        assert ext.mul(a, ext.add(b, c)) == ext.add(ext.mul(a, b), ext.mul(a, c))

    def test_inverse(self, ext, rng):
        a = ext.random_nonzero(rng)
        assert ext.mul(a, ext.inv(a)).is_one()

    def test_inverse_of_zero_raises(self, ext):
        with pytest.raises(ParameterError):
            ext.inv(ext.zero())

    def test_pow_matches_repeated_multiplication(self, ext, rng):
        a = ext.random_nonzero(rng)
        expected = ext.one()
        for _ in range(7):
            expected = ext.mul(expected, a)
        assert ext.pow(a, 7) == expected

    def test_pow_negative(self, ext, rng):
        a = ext.random_nonzero(rng)
        assert ext.mul(ext.pow(a, -3), ext.pow(a, 3)).is_one()

    def test_operator_overloads(self, ext, rng):
        a, b = ext.random_nonzero(rng), ext.random_nonzero(rng)
        assert a + b == ext.add(a, b)
        assert a - b == ext.sub(a, b)
        assert a * b == ext.mul(a, b)
        assert (a / b) * b == a
        assert a ** 2 == ext.mul(a, a)
        assert -a == ext.neg(a)

    def test_cross_field_rejected(self, ext, field):
        other = ExtensionField(field, ext.modulus, check_irreducible=False)
        # Same parameters but different instance: equality holds, so arithmetic works.
        assert ext == other
        third = PrimeField(2003)
        incompatible = None
        for c in range(2, 50):
            try:
                incompatible = ExtensionField(third, [c, 1, 1])
                break
            except ParameterError:
                continue
        with pytest.raises(FieldMismatchError):
            _ = ext.one() + incompatible.one()


class TestGaloisStructure:
    def test_frobenius_is_pth_power(self, ext, rng):
        a = ext.random_element(rng)
        assert ext.frobenius(a, 1) == ext.pow(a, ext.base.p)

    def test_frobenius_order(self, ext, rng):
        a = ext.random_element(rng)
        assert ext.frobenius(ext.frobenius(a, 1), 1) == a  # degree 2

    def test_frobenius_fixes_base_field(self, ext):
        a = ext.from_base(123)
        assert ext.frobenius(a, 1) == a

    def test_norm_multiplicative(self, ext, rng):
        a, b = ext.random_nonzero(rng), ext.random_nonzero(rng)
        f = ext.base
        assert ext.norm(ext.mul(a, b)) == f.mul(ext.norm(a), ext.norm(b))

    def test_trace_additive(self, ext, rng):
        a, b = ext.random_element(rng), ext.random_element(rng)
        f = ext.base
        assert ext.trace(ext.add(a, b)) == f.add(ext.trace(a), ext.trace(b))

    def test_norm_of_base_element(self, ext):
        # N(c) = c^degree for c in Fp.
        f = ext.base
        assert ext.norm(ext.from_base(7)) == f.pow(7, ext.degree)

    def test_conjugates_product_is_norm(self, ext, rng):
        a = ext.random_nonzero(rng)
        product = ext.one()
        for conjugate in a.conjugates():
            product = ext.mul(product, conjugate)
        assert product.in_base_field()
        assert product.scalar_part() == ext.norm(a)

    def test_generator_satisfies_modulus(self, ext):
        t = ext.generator()
        # t^2 + t + c = 0  ->  t^2 = -(t + c)
        c = ext.modulus[0]
        lhs = ext.mul(t, t)
        rhs = ext.neg(ext.add(t, ext.from_base(c)))
        assert lhs == rhs
