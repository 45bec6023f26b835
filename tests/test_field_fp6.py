"""Tests for the Fp6 (F1 representation) field and the 18M multiplication."""

import itertools
import random

import pytest

from repro.errors import ParameterError
from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6, split_halves
from repro.field.fp2 import make_fp2
from repro.field.fp3 import make_fp3
from repro.field.opcount import CountingPrimeField
from repro.nt.factor import factorize
from repro.torus.params import generate_parameters, get_parameters
from repro.torus.t6 import T6Group

#: The plain fast paths and the resident Montgomery representation.
BACKENDS = ("plain", "montgomery")


class TestConstruction:
    def test_requires_p_2_or_5_mod_9(self):
        # 19 = 1 mod 9: z^6+z^3+1 splits.
        with pytest.raises(ParameterError):
            make_fp6(PrimeField(19))

    def test_accepts_admissible_primes(self, toy32_params):
        fp6 = make_fp6(PrimeField(toy32_params.p))
        assert fp6.degree == 6

    def test_fp2_requires_2_mod_3(self):
        with pytest.raises(ParameterError):
            make_fp2(PrimeField(13))  # 13 = 1 mod 3
        assert make_fp2(PrimeField(11)).degree == 2

    def test_fp3_requires_not_pm1_mod_9(self):
        with pytest.raises(ParameterError):
            make_fp3(PrimeField(17))  # 17 = 8 = -1 mod 9
        assert make_fp3(PrimeField(11)).degree == 3  # 11 = 2 mod 9


class TestPaperMultiplication:
    def test_matches_schoolbook(self, toy32_fp6, rng):
        for _ in range(20):
            a = toy32_fp6.random_element(rng)
            b = toy32_fp6.random_element(rng)
            assert toy32_fp6.mul_paper(a, b) == toy32_fp6.mul_schoolbook(a, b)

    def test_uses_exactly_18_base_multiplications(self, toy32_params, rng):
        field = CountingPrimeField(toy32_params.p)
        fp6 = make_fp6(field)
        a, b = fp6.random_element(rng), fp6.random_element(rng)
        field.reset_counts()
        fp6.mul_paper(a, b)
        assert field.counts.mul == 18
        # The paper quotes ~60 additions; the reproduction's exact schedule
        # uses a few more (20 MA and 44 MS, like the level-2 sequence of
        # repro.soc.sequences.fp6_multiplication_program) but stays in the
        # same range.
        assert 55 <= field.counts.additions_total <= 75

    def test_squaring_consistent(self, toy32_params, rng):
        p = toy32_params.p
        for backend in BACKENDS:
            fp6 = make_fp6(PrimeField(p, backend=backend))
            for _ in range(20):
                a = fp6.random_element(rng)
                assert fp6.sqr(a) == fp6.mul_schoolbook(a, a), backend
            # Coefficients in {0, 1, p-1} give the largest unreduced
            # intermediates of the 12M squaring.
            for coeffs in itertools.product((0, 1, p - 1), repeat=6):
                a = fp6(list(coeffs))
                assert fp6.sqr(a) == fp6.mul_schoolbook(a, a), (backend, coeffs)
        # Counting fields keep the paper's 18M per squaring.
        field = CountingPrimeField(p)
        fp6 = make_fp6(field)
        a = fp6.random_element(rng)
        field.reset_counts()
        fp6.sqr(a)
        assert field.counts.mul == 18

    def test_identity_and_zero(self, toy32_fp6, rng):
        a = toy32_fp6.random_element(rng)
        assert toy32_fp6.mul(a, toy32_fp6.one()) == a
        assert toy32_fp6.mul(a, toy32_fp6.zero()).is_zero()

    def test_split_halves(self, toy32_fp6):
        a = toy32_fp6([1, 2, 3, 4, 5, 6])
        lo, hi = split_halves(a)
        assert lo == (1, 2, 3) and hi == (4, 5, 6)

    def test_modulus_relation(self, toy32_fp6):
        # z^6 + z^3 + 1 = 0 for the generator z.
        z = toy32_fp6.generator()
        lhs = toy32_fp6.add(
            toy32_fp6.add(toy32_fp6.pow(z, 6), toy32_fp6.pow(z, 3)), toy32_fp6.one()
        )
        assert lhs.is_zero()

    def test_z_is_ninth_root_of_unity(self, toy32_fp6):
        z = toy32_fp6.generator()
        assert toy32_fp6.pow(z, 9).is_one()
        assert not toy32_fp6.pow(z, 3).is_one()


def _torus_elements(fp6):
    """Every element of T6(Fp), as the powers of a generator of the cyclic group."""
    order = fp6.torus_order()
    primes = factorize(order)
    shift = 1
    while True:
        generator = fp6.project_to_torus(fp6([shift, 1, 2]))
        if all(not fp6.pow(generator, order // r).is_one() for r in primes):
            break
        shift += 1
    element = fp6.one()
    for _ in range(order):
        yield element
        element = fp6.mul(element, generator)


class TestCyclotomicSquaring:
    @pytest.mark.parametrize("p", [11, 23, 47, 59])
    def test_matches_schoolbook_on_every_torus_element(self, p):
        # 11, 47 = 2 and 23, 59 = 5 (mod 9): both Frobenius permutations.
        fp6 = make_fp6(PrimeField(p))
        seen = 0
        for a in _torus_elements(fp6):
            assert fp6.sqr(a, cyclotomic=True) == fp6.mul_schoolbook(a, a), a
            seen += 1
        assert seen == p * p - p + 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_schoolbook_on_ceilidh170_elements(self, backend):
        group = T6Group(get_parameters("ceilidh-170"), backend=backend)
        fp6 = group.fp6
        rng = random.Random(170)
        for _ in range(20):
            a = group.random_element(rng).value
            assert fp6.sqr(a, cyclotomic=True) == fp6.mul_schoolbook(a, a)

    def test_counting_field_keeps_18m(self, toy32_params, rng):
        field = CountingPrimeField(toy32_params.p)
        fp6 = make_fp6(field)
        a = fp6.project_to_torus(fp6.random_nonzero(rng))
        field.reset_counts()
        square = fp6.sqr(a, cyclotomic=True)
        assert field.counts.mul == 18
        assert square == fp6.mul_schoolbook(a, a)

    def test_torus_group_squares_cyclotomically(self, toy32_group, rng):
        # The engine's squaring is the 6M formula, which is wrong off the
        # torus: a non-member shows which formula ran.
        fp6 = toy32_group.fp6
        group = toy32_group.exp_group()
        a = toy32_group.random_element(rng).value
        assert group.square(a) == fp6.mul_schoolbook(a, a)
        outside = fp6.random_nonzero(rng)
        assert not toy32_group.contains_raw(outside)
        squared = group.square(outside)
        assert squared == fp6.sqr(outside, cyclotomic=True)
        assert squared != fp6.mul_schoolbook(outside, outside)


class TestCyclotomicStructure:
    def test_orders(self, toy32_fp6, toy32_params):
        p = toy32_params.p
        assert toy32_fp6.unit_group_order() == p ** 6 - 1
        assert toy32_fp6.torus_order() == p * p - p + 1
        assert toy32_fp6.cofactor_exponent() * toy32_fp6.torus_order() == p ** 6 - 1

    def test_projection_lands_in_torus(self, toy32_fp6, rng):
        for _ in range(5):
            a = toy32_fp6.random_nonzero(rng)
            t = toy32_fp6.project_to_torus(a)
            assert toy32_fp6.is_in_torus(t)

    def test_random_element_usually_not_in_torus(self, toy32_fp6, rng):
        # The torus has index ~p^4 in the unit group; random elements are
        # essentially never members.
        hits = sum(
            toy32_fp6.is_in_torus(toy32_fp6.random_nonzero(rng)) for _ in range(10)
        )
        assert hits == 0

    def test_zero_not_in_torus(self, toy32_fp6):
        assert not toy32_fp6.is_in_torus(toy32_fp6.zero())
        with pytest.raises(ParameterError):
            toy32_fp6.project_to_torus(toy32_fp6.zero())

    def test_frobenius_is_field_automorphism(self, toy32_fp6, rng):
        a, b = toy32_fp6.random_element(rng), toy32_fp6.random_element(rng)
        lhs = toy32_fp6.frobenius(toy32_fp6.mul(a, b), 1)
        rhs = toy32_fp6.mul(toy32_fp6.frobenius(a, 1), toy32_fp6.frobenius(b, 1))
        assert lhs == rhs

    def test_frobenius_power_matches_exponentiation(self, toy32_params, rng):
        # Every named set has p = 2 (mod 9); the seeded set covers the other
        # coefficient permutation, p = 5 (mod 9).
        five_mod_9 = generate_parameters(32, random.Random(1))
        assert toy32_params.p % 9 == 2 and five_mod_9.p % 9 == 5
        for p in (toy32_params.p, five_mod_9.p):
            for backend in BACKENDS:
                fp6 = make_fp6(PrimeField(p, backend=backend))
                a = fp6.random_element(rng)
                for k in range(6):
                    assert fp6.frobenius(a, k) == fp6.pow(a, p ** k), (p, backend, k)
