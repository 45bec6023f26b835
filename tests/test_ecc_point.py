"""Tests for affine/Jacobian point arithmetic."""

import pytest

from repro.errors import NotOnCurveError, ParameterError
from repro.ecc.point import INFINITY, AffinePoint, JacobianPoint


@pytest.fixture(scope="module")
def curve_and_generator(toy_curve):
    return toy_curve.build()


class TestAffineGroupLaw:
    def test_point_validation(self, curve_and_generator):
        curve, generator = curve_and_generator
        with pytest.raises(NotOnCurveError):
            AffinePoint(curve, generator.x, generator.y + 1)

    def test_identity_laws(self, curve_and_generator):
        _, g = curve_and_generator
        assert g + INFINITY == g
        assert INFINITY + g == g
        assert (g + (-g)).is_infinity()

    def test_commutativity(self, curve_and_generator, rng):
        curve, g = curve_and_generator
        h = g.double()
        assert g + h == h + g

    def test_associativity(self, curve_and_generator):
        _, g = curve_and_generator
        a, b, c = g, g.double(), g.double().double()
        assert (a + b) + c == a + (b + c)

    def test_doubling_matches_addition(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.double() == g + g

    def test_subtraction(self, curve_and_generator):
        _, g = curve_and_generator
        assert (g.double() - g) == g

    def test_order_annihilates_generator(self, curve_and_generator, toy_curve):
        _, g = curve_and_generator
        assert (toy_curve.order * g).is_infinity()
        assert not ((toy_curve.order - 1) * g).is_infinity()

    def test_xy_accessor(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.xy() == (g.x, g.y)
        with pytest.raises(ParameterError):
            INFINITY.xy()

    def test_cross_curve_rejected(self, curve_and_generator):
        curve, g = curve_and_generator
        from repro.ecc.curves import generate_toy_curve
        import random

        other_named = generate_toy_curve(1013, random.Random(3))
        _, other_g = other_named.build()
        with pytest.raises(ParameterError):
            _ = g + other_g


class TestJacobianArithmetic:
    def test_roundtrip_affine_jacobian(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.to_jacobian().to_affine() == g

    def test_double_matches_affine(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.to_jacobian().double().to_affine() == g.double()

    def test_add_matches_affine(self, curve_and_generator):
        _, g = curve_and_generator
        h = g.double()
        assert g.to_jacobian().add(h.to_jacobian()).to_affine() == g + h

    def test_add_handles_doubling_case(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.to_jacobian().add(g.to_jacobian()).to_affine() == g.double()

    def test_add_handles_inverse_case(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.to_jacobian().add((-g).to_jacobian()).is_infinity()

    def test_add_identity(self, curve_and_generator):
        curve, g = curve_and_generator
        infinity = JacobianPoint(curve, 1, 1, 0)
        assert infinity.add(g.to_jacobian()).to_affine() == g
        assert g.to_jacobian().add(infinity).to_affine() == g

    def test_double_of_two_torsion(self, curve_and_generator):
        curve, _ = curve_and_generator
        # A point with y = 0 doubles to infinity; construct one if it exists.
        f = curve.field
        for x in range(f.p):
            if curve.right_hand_side(x) == 0:
                point = JacobianPoint(curve, x, 0, 1)
                assert point.double().is_infinity()
                break

    def test_projective_equality(self, curve_and_generator):
        curve, g = curve_and_generator
        f = curve.field
        scaled = JacobianPoint(
            curve, f.mul(g.x, f.mul(4, 1)), f.mul(g.y, 8), 2
        )  # (4X : 8Y : 2Z) represents the same point as (X : Y : Z=1)
        assert scaled == g.to_jacobian()

    def test_non_equal_points(self, curve_and_generator):
        _, g = curve_and_generator
        assert g.to_jacobian() != g.double().to_jacobian()

    def test_random_scalar_chain_consistency(self, curve_and_generator, rng):
        _, g = curve_and_generator
        jacobian = g.to_jacobian()
        affine = g
        for _ in range(8):
            jacobian = jacobian.add(g.to_jacobian())
            affine = affine + g
            assert jacobian.to_affine() == affine


class TestPlainIntegerPath:
    """Over a plain field ``double``/``add`` run on integers; every value
    must equal the field-method formulas they replace."""

    @staticmethod
    def _points(curve, generator, rng, count=40):
        """Jacobian points with assorted Z: generator multiples, rescaled."""
        f = curve.field
        points = []
        current = generator.to_jacobian()
        for _ in range(count):
            current = current.add(current).add(generator.to_jacobian())
            lam = f.enter(rng.randrange(1, f.p))
            lam2 = f.mul(lam, lam)
            points.append(
                JacobianPoint(
                    curve, f.mul(current.x, lam2), f.mul(current.y, f.mul(lam2, lam)),
                    f.mul(current.z, lam),
                )
            )
        return points

    @staticmethod
    def _cases(points):
        infinity = JacobianPoint(points[0].curve, 1, 1, 0)
        for a, b in zip(points, points[1:]):
            yield a, b
        for a in points[:8]:
            yield a, a
            yield a, JacobianPoint(a.curve, a.x, a.curve.field.sub(0, a.y), a.z)
            yield a, infinity
            yield infinity, a
        yield infinity, infinity

    @pytest.mark.parametrize("name", ["toy", "secp160r1"])
    def test_matches_field_methods_and_montgomery(self, name, toy_curve, rng):
        from repro.ecc.curves import get_curve

        named = toy_curve if name == "toy" else get_curve(name)
        plain_curve, generator = named.build()
        field_curve, _ = named.build()
        field_curve.plain_arithmetic = False
        mont_curve, mont_generator = named.build(backend="montgomery")
        assert plain_curve.plain_arithmetic and not mont_curve.plain_arithmetic
        mf = mont_curve.field

        def twin(point, curve, enter):
            return JacobianPoint(curve, enter(point.x), enter(point.y), enter(point.z))

        def coords(point, exit_):
            # Infinity's (1 : 1 : 0) is not resident under Montgomery.
            if point.is_infinity():
                return "infinity"
            return exit_(point.x), exit_(point.y), exit_(point.z)

        points = self._points(plain_curve, generator, rng)
        for a, b in self._cases(points):
            expected = twin(a, field_curve, int).add(twin(b, field_curve, int))
            result = a.add(b)
            assert coords(result, int) == coords(expected, int)
            montgomery = twin(a, mont_curve, mf.enter).add(twin(b, mont_curve, mf.enter))
            assert coords(result, int) == coords(montgomery, mf.exit)
            doubled = a.double()
            assert coords(doubled, int) == coords(twin(a, field_curve, int).double(), int)
            assert coords(doubled, int) == coords(
                twin(a, mont_curve, mf.enter).double(), mf.exit
            )

    def test_counting_field_keeps_method_path(self):
        from repro.ecc.curve import WeierstrassCurve
        from repro.field.opcount import CountingPrimeField

        curve = WeierstrassCurve(CountingPrimeField(1009), 2, 3)
        assert not curve.plain_arithmetic
