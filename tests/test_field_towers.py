"""Tests for the tower representation F2 and the tau conversion maps."""

import random

import pytest

from repro.errors import ParameterError
from repro.field.extension import ExtensionField
from repro.field.fp import PrimeField
from repro.field.fp3 import FP3_MODULUS, make_fp3
from repro.field.fp6 import make_fp6
from repro.field.opcount import CountingPrimeField
from repro.field.towers import F1ToF2Map, TowerFp6


@pytest.fixture(scope="module")
def setup(toy32_params):
    field = PrimeField(toy32_params.p)
    fp6 = make_fp6(field)
    tower = TowerFp6(field)
    converter = F1ToF2Map(fp6, tower)
    return field, fp6, tower, converter


class TestFp3ClosedForms:
    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    def test_matches_generic_extension(self, toy32_params, backend):
        p = toy32_params.p
        field = PrimeField(p, backend=backend)
        fp3 = make_fp3(field)
        generic = ExtensionField(field, FP3_MODULUS, check_irreducible=False)
        rng = random.Random(3)
        samples = [[rng.randrange(p) for _ in range(3)] for _ in range(30)]
        samples += [[0, 0, 1], [0, 1, 0], [1, 0, 0], [p - 1, p - 1, p - 1]]
        for coeffs_a, coeffs_b in zip(samples, samples[1:] + samples[:1]):
            a, b = fp3(coeffs_a), fp3(coeffs_b)
            ga, gb = generic(coeffs_a), generic(coeffs_b)
            assert fp3.mul(a, b) == generic.mul(ga, gb)
            assert fp3.sqr(a) == generic.sqr(ga)
            assert fp3.inv(a) == generic.inv(ga)
            adj, norm = fp3.adjugate(a)
            assert fp3.mul(a, adj) == fp3._from_coeffs([norm])
            assert field.exit(norm) == generic.norm(ga)

    def test_operation_counts(self, toy32_params, rng):
        field = CountingPrimeField(toy32_params.p)
        fp3 = make_fp3(field)
        a, b = fp3.random_nonzero(rng), fp3.random_nonzero(rng)
        field.reset_counts()
        fp3.mul(a, b)
        assert (field.counts.mul, field.counts.inv) == (6, 0)
        field.reset_counts()
        fp3.inv(a)
        assert (field.counts.mul, field.counts.inv) == (12, 1)

    def test_inverse_of_zero_raises(self):
        fp3 = make_fp3(PrimeField(11))
        with pytest.raises(ParameterError):
            fp3.inv(fp3.zero())


class TestTowerArithmetic:
    def test_x_is_cube_root_of_unity(self, setup):
        _, _, tower, _ = setup
        x = tower.x()
        assert tower.mul(tower.mul(x, x), x).is_one()
        assert not x.is_one()

    def test_inverse(self, setup, rng):
        _, _, tower, _ = setup
        a = tower.random_element(rng)
        if a.is_zero():
            a = tower.one()
        assert tower.mul(a, tower.inv(a)).is_one()

    def test_inverse_of_zero_raises(self, setup):
        _, _, tower, _ = setup
        with pytest.raises(ParameterError):
            tower.inv(tower.zero())

    def test_conjugation_is_involution(self, setup, rng):
        _, _, tower, _ = setup
        a = tower.random_element(rng)
        assert a.conjugate().conjugate() == a

    def test_norm_is_conjugate_product(self, setup, rng):
        _, _, tower, _ = setup
        a = tower.random_element(rng)
        product = tower.mul(a, a.conjugate())
        assert product.is_fp3()
        assert product.a == a.norm_to_fp3()

    def test_pow(self, setup, rng):
        _, _, tower, _ = setup
        a = tower.random_element(rng)
        assert tower.pow(a, 5) == tower.mul(tower.pow(a, 2), tower.pow(a, 3))

    def test_tower_requires_p_2_mod_3(self):
        with pytest.raises(ParameterError):
            TowerFp6(PrimeField(13))


class TestConversionMaps:
    def test_roundtrip_f1_f2(self, setup, rng):
        _, fp6, _, converter = setup
        for _ in range(10):
            a = fp6.random_element(rng)
            assert converter.to_f1(converter.to_f2(a)) == a

    def test_roundtrip_f2_f1(self, setup, rng):
        _, fp6, tower, converter = setup
        u = tower.random_element(rng)
        assert converter.to_f2(converter.to_f1(u)) == u

    def test_is_ring_homomorphism(self, setup, rng):
        _, fp6, tower, converter = setup
        a, b = fp6.random_element(rng), fp6.random_element(rng)
        assert converter.to_f2(fp6.mul(a, b)) == tower.mul(
            converter.to_f2(a), converter.to_f2(b)
        )
        assert converter.to_f2(fp6.add(a, b)) == converter.to_f2(a) + converter.to_f2(b)

    def test_maps_one_to_one(self, setup):
        _, fp6, tower, converter = setup
        assert converter.to_f2(fp6.one()).is_one()
        assert converter.to_f1(tower.one()).is_one()

    def test_x_corresponds_to_z_cubed(self, setup):
        _, fp6, tower, converter = setup
        z = fp6.generator()
        assert converter.to_f2(fp6.pow(z, 3)) == tower.x()

    def test_y_relation(self, setup):
        # y = z - z^2 - z^5 satisfies y^3 - 3y + 1 = 0 in F1.
        field, fp6, tower, converter = setup
        y_in_f1 = converter.to_f1(tower.from_fp3(tower.fp3.generator()))
        expected = fp6([0, 1, field.p - 1, 0, 0, field.p - 1])
        assert y_in_f1 == expected
        cube = fp6.mul(fp6.mul(y_in_f1, y_in_f1), y_in_f1)
        three_y = fp6.scalar_mul(y_in_f1, 3)
        assert fp6.add(fp6.sub(cube, three_y), fp6.one()).is_zero()

    def test_frobenius_p3_is_conjugation(self, setup, rng):
        _, fp6, tower, converter = setup
        a = fp6.random_element(rng)
        lhs = converter.to_f2(fp6.frobenius(a, 3))
        rhs = converter.to_f2(a).conjugate()
        assert lhs == rhs
