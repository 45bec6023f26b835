"""Tests for repro.nt.primality."""

from repro.nt.primality import SMALL_PRIMES, is_prime, is_probable_prime, next_prime


class TestSmallPrimes:
    def test_sieve_contents(self):
        assert SMALL_PRIMES[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_sieve_has_no_composites(self):
        for p in SMALL_PRIMES:
            assert all(p % q != 0 for q in range(2, int(p ** 0.5) + 1))


class TestIsProbablePrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 997):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 100, 999, 1001):
            assert not is_probable_prime(n)

    def test_carmichael_numbers_detected(self):
        # Carmichael numbers fool the Fermat test but not Miller-Rabin.
        for n in (561, 1105, 1729, 2465, 2821, 6601, 41041, 825265):
            assert not is_probable_prime(n)

    def test_medium_primes(self):
        assert is_probable_prime(10_000_019)
        assert is_probable_prime(2_147_483_647)  # Mersenne prime 2^31 - 1

    def test_medium_composites(self):
        assert not is_probable_prime(10_000_021)  # 4001 * 2521... composite
        assert not is_probable_prime(2_147_483_649)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime((1 << 127) - 1)

    def test_large_known_composite(self):
        # 2^128 + 1 is composite (not a Fermat prime).
        assert not is_probable_prime((1 << 128) + 1)

    def test_product_of_two_large_primes(self):
        p = (1 << 127) - 1
        q = (1 << 89) - 1
        assert not is_probable_prime(p * q)

    def test_ceilidh_170_prime(self):
        from repro.torus.params import CEILIDH_170

        assert is_probable_prime(CEILIDH_170.p)
        assert is_probable_prime(CEILIDH_170.q)

    def test_is_prime_alias(self):
        assert is_prime(101) and not is_prime(100)


class TestNextPrime:
    def test_from_composite(self):
        assert next_prime(8) == 11
        assert next_prime(14) == 17

    def test_from_prime_is_strictly_greater(self):
        assert next_prime(7) == 11
        assert next_prime(2) == 3

    def test_from_small_values(self):
        assert next_prime(0) == 2
        assert next_prime(1) == 2

    def test_result_is_prime(self):
        candidate = next_prime(10 ** 12)
        assert candidate > 10 ** 12
        assert is_probable_prime(candidate)
