"""Tests for the T6(Fp) group."""

import pytest

from repro.errors import NotInTorusError, ParameterError
from repro.torus.t6 import TorusElement


class TestMembership:
    def test_identity_is_member(self, toy32_group):
        assert toy32_group.contains(toy32_group.identity())

    def test_random_elements_are_members(self, toy32_group, rng):
        for _ in range(5):
            assert toy32_group.contains(toy32_group.random_element(rng))

    def test_random_unit_is_not_member(self, toy32_group, rng):
        raw = toy32_group.fp6.random_nonzero(rng)
        # A random unit lies in the torus only with probability ~1/p^4.
        assert not toy32_group.contains_raw(raw)

    def test_element_wrapper_checks(self, toy32_group, rng):
        raw = toy32_group.fp6.random_nonzero(rng)
        with pytest.raises(NotInTorusError):
            toy32_group.element(raw, check=True)
        unchecked = toy32_group.element(raw, check=False)
        assert isinstance(unchecked, TorusElement)


class TestGroupStructure:
    def test_generator_has_order_q(self, toy32_group, toy32_params):
        g = toy32_group.generator()
        assert not g.is_identity()
        assert (g ** toy32_params.q).is_identity()

    def test_generator_order_is_exactly_q(self, toy20_group, toy20_params):
        # q is prime, so it suffices that g != 1 and g^q = 1.
        g = toy20_group.generator()
        assert (g ** toy20_params.q).is_identity()
        assert not g.is_identity()

    def test_generator_cached(self, toy32_group):
        assert toy32_group.generator() is toy32_group.generator()

    def test_torus_order_annihilates_every_element(self, toy32_group, rng):
        element = toy32_group.random_element(rng)
        assert (element ** toy32_group.order).is_identity()

    def test_group_operations(self, toy32_group, rng):
        a = toy32_group.random_element(rng)
        b = toy32_group.random_element(rng)
        c = toy32_group.random_element(rng)
        assert (a * b) * c == a * (b * c)
        assert a * toy32_group.identity() == a
        assert (a / a).is_identity()

    def test_frobenius_inverse_trick(self, toy32_group, rng):
        # On the torus, alpha^(p^3) is the inverse of alpha.
        a = toy32_group.random_element(rng)
        assert (a * a.inverse()).is_identity()
        assert a.inverse() == a.frobenius(3)

    def test_inverse_matches_field_inverse(self, toy32_group, rng):
        a = toy32_group.random_element(rng)
        field_inverse = toy32_group.fp6.inv(a.value)
        assert a.inverse().value == field_inverse

    def test_square(self, toy32_group, rng):
        a = toy32_group.random_element(rng)
        assert a.square() == a * a

    def test_exponentiation_homomorphism(self, toy32_group, rng):
        g = toy32_group.generator()
        x = rng.randrange(1, 1 << 30)
        y = rng.randrange(1, 1 << 30)
        assert (g ** x) * (g ** y) == g ** (x + y)

    def test_negative_exponent(self, toy32_group):
        g = toy32_group.generator()
        assert (g ** -5) * (g ** 5) == toy32_group.identity()

    def test_subgroup_element(self, toy32_group, toy32_params, rng):
        element = toy32_group.random_subgroup_element(rng)
        assert (element ** toy32_params.q).is_identity()

    def test_cross_group_operations_rejected(self, toy32_group, toy20_group):
        with pytest.raises(ParameterError):
            _ = toy32_group.generator() * toy20_group.generator()

    def test_coefficients_roundtrip(self, toy32_group, rng):
        a = toy32_group.random_element(rng)
        rebuilt = toy32_group.element(toy32_group.fp6(list(a.coefficients())), check=False)
        assert rebuilt == a

    def test_170_bit_generator(self, ceilidh170_group, ceilidh170_params):
        g = ceilidh170_group.generator()
        assert (g ** ceilidh170_params.q).is_identity()
        assert ceilidh170_group.contains(g)
