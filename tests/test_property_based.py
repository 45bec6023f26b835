"""Property-based tests (hypothesis) for the core algebraic invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.fios import fios_multiply
from repro.montgomery.parallel import parallel_fios_multiply
from repro.nt.words import from_words, to_words
from repro.torus.compression import CompressedElement
from repro.torus.params import TOY_20, TOY_32
from repro.torus.t6 import T6Group

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

_P32 = TOY_32.p
_FIELD32 = PrimeField(_P32, check_prime=False)
_FP6 = make_fp6(_FIELD32)
_DOMAIN = MontgomeryDomain(_P32, word_bits=16)
_GROUP20 = T6Group(TOY_20)

fp_elements = st.integers(min_value=0, max_value=_P32 - 1)
fp6_elements = st.lists(fp_elements, min_size=6, max_size=6).map(_FP6)


class TestFieldProperties:
    @given(a=fp_elements, b=fp_elements, c=fp_elements)
    @_SETTINGS
    def test_fp_ring_axioms(self, a, b, c):
        f = _FIELD32
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0

    @given(a=fp_elements)
    @_SETTINGS
    def test_fp_inverse(self, a):
        if a == 0:
            return
        assert _FIELD32.mul(a, _FIELD32.inv(a)) == 1

    @given(a=fp6_elements, b=fp6_elements)
    @_SETTINGS
    def test_fp6_paper_multiplication_matches_schoolbook(self, a, b):
        assert _FP6.mul_paper(a, b) == _FP6.mul_schoolbook(a, b)

    @given(a=fp6_elements, b=fp6_elements, c=fp6_elements)
    @_SETTINGS
    def test_fp6_distributivity(self, a, b, c):
        assert _FP6.mul(a, _FP6.add(b, c)) == _FP6.add(_FP6.mul(a, b), _FP6.mul(a, c))

    @given(a=fp6_elements)
    @_SETTINGS
    def test_fp6_frobenius_is_additive_and_multiplicative(self, a):
        b = _FP6([1, 2, 3, 4, 5, 6])
        assert _FP6.frobenius(_FP6.add(a, b)) == _FP6.add(_FP6.frobenius(a), _FP6.frobenius(b))
        assert _FP6.frobenius(_FP6.mul(a, b)) == _FP6.mul(_FP6.frobenius(a), _FP6.frobenius(b))


class TestMontgomeryProperties:
    @given(x=fp_elements, y=fp_elements)
    @_SETTINGS
    def test_fios_matches_reference(self, x, y):
        xb, yb = _DOMAIN.to_montgomery(x), _DOMAIN.to_montgomery(y)
        assert _DOMAIN.from_montgomery(fios_multiply(_DOMAIN, xb, yb)) == x * y % _P32

    @given(x=fp_elements, y=fp_elements, cores=st.integers(min_value=1, max_value=6))
    @_SETTINGS
    def test_parallel_schedule_matches_reference(self, x, y, cores):
        xb, yb = _DOMAIN.to_montgomery(x), _DOMAIN.to_montgomery(y)
        assert parallel_fios_multiply(_DOMAIN, xb, yb, cores) == _DOMAIN.mont_mul(xb, yb)

    @given(value=st.integers(min_value=0, max_value=(1 << 96) - 1), word_bits=st.sampled_from([8, 16, 32]))
    @_SETTINGS
    def test_word_vector_roundtrip(self, value, word_bits):
        words = to_words(value, 96 // word_bits, word_bits)
        assert from_words(words, word_bits) == value


class TestTorusProperties:
    @given(exponent=st.integers(min_value=1, max_value=TOY_20.q - 1))
    @_SETTINGS
    def test_compression_roundtrip_on_subgroup(self, exponent):
        from repro.errors import CompressionError

        element = _GROUP20.generator() ** exponent
        try:
            compressed = _GROUP20.compressor.compress(element.value)
        except CompressionError:
            return  # exceptional set (density ~1/p)
        assert _GROUP20.compressor.decompress(compressed) == element.value

    @given(u=st.integers(min_value=0, max_value=TOY_20.p - 1),
           v=st.integers(min_value=0, max_value=TOY_20.p - 1))
    @_SETTINGS
    def test_decompression_lands_in_torus(self, u, v):
        from repro.errors import CompressionError

        try:
            element = _GROUP20.compressor.decompress(CompressedElement(u, v))
        except CompressionError:
            return
        assert _GROUP20.contains_raw(element)

    @given(x=st.integers(min_value=0, max_value=1 << 24), y=st.integers(min_value=0, max_value=1 << 24))
    @_SETTINGS
    def test_exponent_addition_homomorphism(self, x, y):
        g = _GROUP20.generator()
        assert (g ** x) * (g ** y) == g ** (x + y)

    @given(exponent=st.integers(min_value=0, max_value=1 << 24))
    @_SETTINGS
    def test_inverse_frobenius_identity(self, exponent):
        element = _GROUP20.generator() ** exponent
        assert element.inverse() == element.frobenius(3)
