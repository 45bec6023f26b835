"""Elliptic-curve points: affine and Jacobian-projective representations.

The Jacobian formulas are the ones the platform's level-2 point-operation
sequences implement (general addition: 12M + 4S, general doubling with the
``a * Z^4`` term: ~6M + 6S in Fp); keeping the reference arithmetic in the
same coordinate system lets the microcoded sequences be validated against it
value-for-value.  Over a plain prime field the same formulas run on Python
integers, reducing once per coordinate product instead of calling a field
method per operation; every other field keeps the method path, so counted
and resident operation streams are unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import NotOnCurveError, ParameterError
from repro.ecc.curve import WeierstrassCurve


class AffinePoint:
    """An affine point (x, y) on a curve, or the point at infinity."""

    __slots__ = ("curve", "x", "y", "infinity")

    def __init__(
        self,
        curve: Optional[WeierstrassCurve],
        x: int = 0,
        y: int = 0,
        infinity: bool = False,
        check: bool = True,
    ):
        self.curve = curve
        self.infinity = infinity
        if infinity:
            self.x = 0
            self.y = 0
            return
        if curve is None:
            raise ParameterError("finite points need a curve")
        self.x = x % curve.field.p
        self.y = y % curve.field.p
        if check and not curve.is_on_curve(self.x, self.y):
            raise NotOnCurveError(f"({x}, {y}) does not satisfy the curve equation")

    # -- group law (affine, with inversions) -----------------------------------

    def __neg__(self) -> "AffinePoint":
        if self.infinity:
            return self
        return AffinePoint(self.curve, self.x, self.curve.field.neg(self.y), check=False)

    def __add__(self, other: "AffinePoint") -> "AffinePoint":
        if self.infinity:
            return other
        if other.infinity:
            return self
        if self.curve != other.curve:
            raise ParameterError("points lie on different curves")
        f = self.curve.field
        if self.x == other.x:
            if f.add(self.y, other.y) == 0:
                return INFINITY
            # Doubling.  Small-constant multiples are addition chains, as the
            # platform's modular-add microcode computes them.
            xx = f.mul(self.x, self.x)
            numerator = f.add(f.add(f.add(xx, xx), xx), self.curve.a)
            denominator = f.add(self.y, self.y)
        else:
            numerator = f.sub(other.y, self.y)
            denominator = f.sub(other.x, self.x)
        slope = f.mul(numerator, f.inv(denominator))
        x3 = f.sub(f.sub(f.mul(slope, slope), self.x), other.x)
        y3 = f.sub(f.mul(slope, f.sub(self.x, x3)), self.y)
        return AffinePoint(self.curve, x3, y3, check=False)

    def __sub__(self, other: "AffinePoint") -> "AffinePoint":
        return self + (-other)

    def __mul__(self, scalar: int) -> "AffinePoint":
        from repro.ecc.scalar import scalar_mult

        return scalar_mult(self, scalar)

    __rmul__ = __mul__

    def double(self) -> "AffinePoint":
        return self + self

    # -- conversions -------------------------------------------------------------

    def to_jacobian(self) -> "JacobianPoint":
        if self.infinity:
            return JacobianPoint(self.curve, 1, 1, 0)
        # Z = 1 must be resident in the field's representation.
        return JacobianPoint(self.curve, self.x, self.y, self.curve.field.one_value)

    def xy(self) -> Tuple[int, int]:
        if self.infinity:
            raise ParameterError("the point at infinity has no affine coordinates")
        return self.x, self.y

    def is_infinity(self) -> bool:
        return self.infinity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinePoint):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity and other.infinity
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.infinity:
            return hash("ecc-infinity")
        return hash((self.curve.field.p, self.x, self.y))

    def __repr__(self) -> str:
        if self.infinity:
            return "AffinePoint(infinity)"
        return f"AffinePoint({self.x}, {self.y})"


#: The point at infinity (usable with any curve).
INFINITY = AffinePoint(None, infinity=True, check=False)


class JacobianPoint:
    """A point in Jacobian coordinates (X : Y : Z), with x = X/Z^2, y = Y/Z^3."""

    __slots__ = ("curve", "x", "y", "z")

    def __init__(self, curve: WeierstrassCurve, x: int, y: int, z: int):
        self.curve = curve
        p = curve.field.p
        self.x = x % p
        self.y = y % p
        self.z = z % p

    def is_infinity(self) -> bool:
        return self.z == 0

    # -- group law (inversion-free) ------------------------------------------------

    def double(self) -> "JacobianPoint":
        """General Jacobian doubling (includes the a*Z^4 term).

        Small-constant multiples (2S, 3XX, 8YYYY, 2YZ) are computed as
        addition chains — exactly the MA operations of
        :func:`repro.soc.sequences.ecc_point_doubling_program` — so the
        executed Fp operation stream matches the platform sequence
        (10 MM + 13 MA/MS) and stays valid under every field backend.
        """
        if self.is_infinity() or self.y == 0:
            return JacobianPoint(self.curve, 1, 1, 0)
        if self.curve.plain_arithmetic:
            return self._double_plain()
        f = self.curve.field
        xx = f.mul(self.x, self.x)                      # X^2
        yy = f.mul(self.y, self.y)                      # Y^2
        yyyy = f.mul(yy, yy)                            # Y^4
        zz = f.mul(self.z, self.z)                      # Z^2
        t0 = f.mul(self.x, yy)                          # X*Y^2
        t1 = f.add(t0, t0)
        s = f.add(t1, t1)                               # 4*X*Y^2
        zz2 = f.mul(zz, zz)                             # Z^4
        m = f.add(f.add(f.add(xx, xx), xx), f.mul(self.curve.a, zz2))
        x3 = f.sub(f.mul(m, m), f.add(s, s))
        y4_2 = f.add(yyyy, yyyy)
        y4_4 = f.add(y4_2, y4_2)
        y3 = f.sub(f.mul(m, f.sub(s, x3)), f.add(y4_4, y4_4))
        t10 = f.mul(self.y, self.z)
        z3 = f.add(t10, t10)
        return JacobianPoint(self.curve, x3, y3, z3)

    def _double_plain(self) -> "JacobianPoint":
        """:meth:`double` on raw integers: the same values, reduced per product."""
        p = self.curve.field.p
        x, y, z = self.x, self.y, self.z
        yy = y * y % p
        zz = z * z % p
        s = 4 * x * yy % p
        m = (3 * x * x + self.curve.a * (zz * zz % p)) % p
        x3 = (m * m - 2 * s) % p
        return JacobianPoint(self.curve, x3, m * (s - x3) - 8 * yy * yy, 2 * y * z)

    def add(self, other: "JacobianPoint") -> "JacobianPoint":
        """General Jacobian addition (handles doubling and inverse cases)."""
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        if self.curve.plain_arithmetic:
            return self._add_plain(other)
        f = self.curve.field
        z1z1 = f.mul(self.z, self.z)
        z2z2 = f.mul(other.z, other.z)
        u1 = f.mul(self.x, z2z2)
        u2 = f.mul(other.x, z1z1)
        s1 = f.mul(self.y, f.mul(other.z, z2z2))
        s2 = f.mul(other.y, f.mul(self.z, z1z1))
        if u1 == u2:
            if s1 != s2:
                return JacobianPoint(self.curve, 1, 1, 0)
            return self.double()
        h = f.sub(u2, u1)
        r = f.sub(s2, s1)
        hh = f.mul(h, h)
        hhh = f.mul(h, hh)
        v = f.mul(u1, hh)
        x3 = f.sub(f.sub(f.mul(r, r), hhh), f.add(v, v))
        y3 = f.sub(f.mul(r, f.sub(v, x3)), f.mul(s1, hhh))
        z3 = f.mul(h, f.mul(self.z, other.z))
        return JacobianPoint(self.curve, x3, y3, z3)

    def _add_plain(self, other: "JacobianPoint") -> "JacobianPoint":
        """:meth:`add` on raw integers, both points finite; same values."""
        p = self.curve.field.p
        x1, y1, z1 = self.x, self.y, self.z
        x2, y2, z2 = other.x, other.y, other.z
        z1z1 = z1 * z1 % p
        z2z2 = z2 * z2 % p
        u1 = x1 * z2z2 % p
        u2 = x2 * z1z1 % p
        s1 = y1 * z2 * z2z2 % p
        s2 = y2 * z1 * z1z1 % p
        if u1 == u2:
            if s1 != s2:
                return JacobianPoint(self.curve, 1, 1, 0)
            return self.double()
        h = u2 - u1
        r = s2 - s1
        hh = h * h % p
        hhh = h * hh % p
        v = u1 * hh % p
        x3 = (r * r - hhh - 2 * v) % p
        return JacobianPoint(self.curve, x3, r * (v - x3) - s1 * hhh, h * z1 * z2)

    def __add__(self, other: "JacobianPoint") -> "JacobianPoint":
        return self.add(other)

    def __neg__(self) -> "JacobianPoint":
        return JacobianPoint(self.curve, self.x, self.curve.field.neg(self.y), self.z)

    # -- conversions ------------------------------------------------------------------

    def to_affine(self) -> AffinePoint:
        if self.is_infinity():
            return INFINITY
        f = self.curve.field
        z_inv = f.inv(self.z)
        z_inv2 = f.mul(z_inv, z_inv)
        x = f.mul(self.x, z_inv2)
        y = f.mul(self.y, f.mul(z_inv2, z_inv))
        return AffinePoint(self.curve, x, y, check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JacobianPoint):
            return NotImplemented
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        # Compare in the projective sense: X1*Z2^2 == X2*Z1^2 etc.
        f = self.curve.field
        z1z1 = f.mul(self.z, self.z)
        z2z2 = f.mul(other.z, other.z)
        if f.mul(self.x, z2z2) != f.mul(other.x, z1z1):
            return False
        return f.mul(self.y, f.mul(other.z, z2z2)) == f.mul(other.y, f.mul(self.z, z1z1))

    def __repr__(self) -> str:
        return f"JacobianPoint({self.x} : {self.y} : {self.z})"


def to_affine_many(points) -> "list[AffinePoint]":
    """Convert N Jacobian points (one curve) to affine with ONE field inversion.

    :meth:`JacobianPoint.to_affine` pays a modular inversion per point; for a
    batch of same-curve points Montgomery's trick
    (:meth:`~repro.field.fp.PrimeField.inv_many`) trades the N inversions for
    1 inversion + 3(N-1) multiplications over the Z coordinates.  Points at
    infinity pass through as :data:`INFINITY` and do not join the batch.
    This is the exit funnel the batched serving and bench paths route every
    per-session point output through.
    """
    points = list(points)
    results: "list[AffinePoint]" = [INFINITY] * len(points)
    finite = [(i, pt) for i, pt in enumerate(points) if not pt.is_infinity()]
    if not finite:
        return results
    f = finite[0][1].curve.field
    z_invs = f.inv_many([pt.z for _, pt in finite])
    for (i, pt), z_inv in zip(finite, z_invs):
        z_inv2 = f.mul(z_inv, z_inv)
        x = f.mul(pt.x, z_inv2)
        y = f.mul(pt.y, f.mul(z_inv2, z_inv))
        results[i] = AffinePoint(pt.curve, x, y, check=False)
    return results
