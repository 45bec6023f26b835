"""Tests for the rho/psi compression maps (the heart of CEILIDH)."""

import random
from types import SimpleNamespace

import pytest

from repro.errors import CompressionError, NotInTorusError
from repro.field.fp6 import make_fp6
from repro.field.opcount import CountingPrimeField
from repro.torus.compression import CompressedElement, TorusCompressor
from repro.torus.params import get_parameters
from repro.torus.t6 import T6Group


def reference_rho(compressor, value):
    """rho by its tower definition: c = (alpha x^2 - x)/(1 - alpha), then
    u = (c0 - 1)/c2 and v = c1/c2."""
    f, tower = compressor.fp, compressor.tower
    alpha = compressor.map.to_f2(value)
    x = tower.x()
    c = tower.mul(tower.mul(alpha, tower.mul(x, x)) - x, tower.inv(tower.one() - alpha))
    assert c.is_fp3()
    c0, c1, c2 = (f.exit(coeff) for coeff in c.a.coeffs)
    c2_inv = pow(c2, -1, f.p)
    return CompressedElement((c0 - 1) * c2_inv % f.p, c1 * c2_inv % f.p)


def reference_psi(compressor, pair):
    """psi by its tower definition: alpha = (c + x)/(c + x^2) for the point
    c = (1 + tu, tv, t), t = -(u + 2)/(u^2 + 4u + 3 + v - v^2)."""
    p, tower = compressor.fp.p, compressor.tower
    u, v = pair.u, pair.v
    t = -(u + 2) * pow(u * u + 4 * u + 3 + v - v * v, -1, p) % p
    c = tower.from_fp3(compressor.fp3([1 + t * u, t * v, t]))
    x = tower.x()
    return compressor.map.to_f1(tower.mul(c + x, tower.inv(c + tower.mul(x, x))))


class TestRoundTrips:
    def test_compress_then_decompress(self, toy32_group, rng):
        compressor = toy32_group.compressor
        for _ in range(20):
            element = toy32_group.random_element(rng)
            try:
                compressed = compressor.compress(element.value)
            except CompressionError:
                continue  # exceptional set has density ~1/p
            assert compressor.decompress(compressed) == element.value

    def test_decompress_then_compress(self, toy32_group, rng):
        compressor = toy32_group.compressor
        p = toy32_group.params.p
        hits = 0
        for _ in range(20):
            pair = CompressedElement(rng.randrange(p), rng.randrange(p))
            try:
                element = compressor.decompress(pair)
            except CompressionError:
                continue
            hits += 1
            assert compressor.compress(element) == pair
        assert hits > 10

    def test_decompressed_values_are_torus_members(self, toy32_group, rng):
        compressor = toy32_group.compressor
        p = toy32_group.params.p
        for _ in range(10):
            pair = CompressedElement(rng.randrange(p), rng.randrange(p))
            try:
                element = compressor.decompress(pair)
            except CompressionError:
                continue
            assert toy32_group.contains_raw(element)

    def test_subgroup_elements_compress(self, toy32_group, rng):
        compressor = toy32_group.compressor
        g = toy32_group.generator()
        element = g ** rng.randrange(2, toy32_group.params.q)
        compressed = compressor.compress(element.value)
        assert compressor.decompress(compressed) == element.value

    def test_170_bit_roundtrip(self, ceilidh170_group, rng):
        compressor = ceilidh170_group.compressor
        element = ceilidh170_group.generator() ** rng.randrange(1 << 100)
        compressed = compressor.compress(element.value)
        assert compressor.decompress(compressed) == element.value


class TestClosedForms:
    @pytest.mark.parametrize("backend", ["plain", "montgomery"])
    @pytest.mark.parametrize("name", ["toy-32", "ceilidh-170"])
    def test_match_tower_definitions(self, name, backend):
        group = T6Group(get_parameters(name), backend=backend)
        compressor = group.compressor
        rng = random.Random(5)
        for _ in range(8):
            value = group.random_element(rng).value
            compressed = compressor.compress(value)
            assert compressed == reference_rho(compressor, value)
            assert compressor.decompress(compressed) == reference_psi(compressor, compressed)
            assert reference_psi(compressor, compressed) == value

    @pytest.mark.parametrize("n", [1, 8])
    def test_batch_forms_invert_once_per_layer(self, toy32_params, n):
        field = CountingPrimeField(toy32_params.p, check_prime=False)
        fp6 = make_fp6(field)
        compressor = TorusCompressor(SimpleNamespace(fp=field, fp6=fp6))
        rng = random.Random(n)
        values = [fp6.project_to_torus(fp6.random_nonzero(rng)) for _ in range(n)]
        field.reset_counts()
        pairs = compressor.compress_many(values)
        assert field.counts.inv == 1
        field.reset_counts()
        assert compressor.decompress_many(pairs) == values
        assert field.counts.inv <= 2


class TestExceptionalCases:
    def test_identity_not_compressible(self, toy32_group):
        with pytest.raises(CompressionError):
            toy32_group.compressor.compress(toy32_group.fp6.one())

    def test_cube_root_of_unity_not_compressible(self, toy32_group):
        # alpha = x = z^3 corresponds to the parametrisation base point c = 1.
        z_cubed = toy32_group.fp6.pow(toy32_group.fp6.generator(), 3)
        assert toy32_group.contains_raw(z_cubed)
        with pytest.raises(CompressionError):
            toy32_group.compressor.compress(z_cubed)

    def test_non_torus_element_rejected(self, toy32_group, rng):
        raw = toy32_group.fp6.random_nonzero(rng)
        with pytest.raises(NotInTorusError):
            toy32_group.compressor.compress(raw)

    def test_exceptional_conic_detected(self, toy32_group):
        # (u, v) with u^2 + 4u + 3 + v - v^2 = 0: take v = 0, u = -1.
        compressor = toy32_group.compressor
        p = toy32_group.params.p
        with pytest.raises(CompressionError):
            compressor.decompress(CompressedElement((p - 1), 0))

    def test_exceptional_point_u_minus_two(self, toy32_group):
        compressor = toy32_group.compressor
        p = toy32_group.params.p
        with pytest.raises(CompressionError):
            compressor.decompress(CompressedElement(p - 2, 5))


class TestCompressionBandwidth:
    def test_pair_is_two_field_elements(self, toy32_group, rng):
        compressed = toy32_group.compressor.compress(
            toy32_group.random_subgroup_element(rng).value
        )
        p = toy32_group.params.p
        assert 0 <= compressed.u < p and 0 <= compressed.v < p
        assert compressed.as_tuple() == (compressed.u, compressed.v)

    def test_distinct_elements_compress_differently(self, toy32_group, rng):
        g = toy32_group.generator()
        seen = set()
        for exponent in range(2, 22):
            compressed = toy32_group.compressor.compress((g ** exponent).value)
            seen.add(compressed.as_tuple())
        assert len(seen) == 20

    def test_compressor_reachable_from_element(self, toy32_group, rng):
        element = toy32_group.random_subgroup_element(rng)
        compressed = element.compress()
        assert toy32_group.compressor.decompress_to_element(compressed) == element


def _field_method_twin(group):
    """A compressor on the same plain field that runs the field-method stages."""
    twin = TorusCompressor(group)
    twin._plain = False
    return twin


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return type(exc)


class TestPlainIntegerStages:
    """On a plain field rho/psi run as integer closed forms; they must give
    the field-method stages' values and raise their errors."""

    @pytest.mark.parametrize("name", ["toy-32", "toy-64", "ceilidh-170"])
    def test_match_field_method_stages(self, name):
        group = T6Group(get_parameters(name))
        plain, twin = group.compressor, _field_method_twin(group)
        assert plain._plain and not twin._plain
        p = group.params.p
        rng = random.Random(22)
        values = [group.random_element(rng).value for _ in range(300)]
        pairs = plain.compress_many(values)
        assert pairs == twin.compress_many(values)
        assert [plain.compress(value) for value in values[:30]] == pairs[:30]
        assert plain.decompress_many(pairs) == twin.decompress_many(pairs) == values
        # The integer rho stage is the field-method one scaled by 27.
        for value in values[:30]:
            *numerators, w2 = plain._rho_terms(value)
            *expected, expected_w2 = twin._rho_terms(value)
            assert w2 == 27 * expected_w2 % p
            assert [n * expected_w2 % p for n in numerators] == [
                e * w2 % p for e in expected
            ]
        # psi on arbitrary pairs, not only images of rho.
        arbitrary = [CompressedElement(rng.randrange(p), rng.randrange(p)) for _ in range(300)]
        assert [_outcome(plain.decompress, pair) for pair in arbitrary] == [
            _outcome(twin.decompress, pair) for pair in arbitrary
        ]

    @pytest.mark.parametrize("name", ["toy-32", "toy-64", "ceilidh-170"])
    def test_exceptional_classes_raise_alike(self, name):
        group = T6Group(get_parameters(name))
        plain, twin = group.compressor, _field_method_twin(group)
        fp6, tower = group.fp6, plain.tower
        p = group.params.p
        rng = random.Random(23)
        good = group.random_element(rng).value
        non_torus = fp6.random_nonzero(rng)
        while group.contains_raw(non_torus):  # pragma: no cover - ~1/p^4 chance
            non_torus = fp6.random_nonzero(rng)
        # A c2 = 0 point other than alpha = x: c = (c0, c1, 0) on the quadric
        # needs c0^2 - c0 - c1^2 = 0, solvable when 1 + 4 c1^2 is a square.
        c1 = next(c for c in range(2, 200) if plain.fp.is_square((1 + 4 * c * c) % p))
        c0 = (1 + plain.fp.sqrt((1 + 4 * c1 * c1) % p)) * pow(2, -1, p) % p
        c = tower.from_fp3(plain.fp3([c0, c1, 0]))
        x = tower.x()
        on_line = plain.map.to_f1(tower.mul(c + x, tower.inv(c + tower.mul(x, x))))
        rho_cases = [
            (fp6.one(), CompressionError),
            (fp6([0, 0, 0, 1]), CompressionError),
            (on_line, CompressionError),
            (non_torus, NotInTorusError),
        ]
        for value, error in rho_cases:
            for compressor in (plain, twin):
                assert _outcome(compressor.compress, value) is error
                assert _outcome(compressor.compress_many, [good, value]) is error
        psi_cases = [CompressedElement(p - 1, 0), CompressedElement(p - 2, 5)]
        for pair in psi_cases:
            for compressor in (plain, twin):
                assert _outcome(compressor.decompress, pair) is CompressionError
                assert _outcome(
                    compressor.decompress_many, [plain.compress(good), pair]
                ) is CompressionError
