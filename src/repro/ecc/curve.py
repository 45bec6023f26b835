"""Short Weierstrass curves y^2 = x^3 + a*x + b over a prime field."""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.errors import NotOnCurveError, ParameterError
from repro.field.fp import PrimeField
from repro.nt.sampling import resolve_rng


class WeierstrassCurve:
    """The curve y^2 = x^3 + a*x + b over Fp (p > 3)."""

    def __init__(self, field: PrimeField, a: int, b: int):
        if field.p <= 3:
            raise ParameterError("short Weierstrass form needs p > 3")
        self.field = field
        # Domain parameters arrive as plain integers; the stored coefficients
        # are resident in the field's representation.
        self.a = field.enter(a % field.p)
        self.b = field.enter(b % field.p)
        # Point arithmetic may run on raw integers only on plain arithmetic
        # (PrimeField.plain_arithmetic).
        self.plain_arithmetic = field.plain_arithmetic
        if self.discriminant() == 0:
            raise ParameterError("singular curve: 4a^3 + 27b^2 = 0")

    def discriminant(self) -> int:
        """-16 (4a^3 + 27b^2) up to the factor -16 (only zero-ness matters)."""
        f = self.field
        return f.add(
            f.mul(f.embed(4), f.mul(self.a, f.mul(self.a, self.a))),
            f.mul(f.embed(27), f.mul(self.b, self.b)),
        )

    def j_invariant(self) -> int:
        """The j-invariant 1728 * 4a^3 / (4a^3 + 27b^2), as a plain integer."""
        f = self.field
        a_cubed_4 = f.mul(f.embed(4), f.mul(self.a, f.mul(self.a, self.a)))
        return f.exit(f.mul(f.mul(f.embed(1728), a_cubed_4), f.inv(self.discriminant())))

    def right_hand_side(self, x: int) -> int:
        """x^3 + a*x + b."""
        f = self.field
        return f.add(f.add(f.mul(f.mul(x, x), x), f.mul(self.a, x)), self.b)

    def is_on_curve(self, x: int, y: int) -> bool:
        """Check the affine equation."""
        f = self.field
        return f.mul(y, y) == self.right_hand_side(x)

    def lift_x(self, x: int) -> Tuple[int, int]:
        """The two affine points with abscissa ``x`` (raises for non-residues)."""
        f = self.field
        rhs = self.right_hand_side(x)
        if not f.is_square(rhs):
            raise NotOnCurveError(f"x = {x} is not the abscissa of a rational point")
        y = f.sqrt(rhs)
        return y, f.neg(y)

    def random_point(self, rng: Optional[random.Random] = None) -> Tuple[int, int]:
        """A uniformly-ish random affine point (random x until the rhs is a square)."""
        rng = resolve_rng(rng)
        while True:
            # Plain draw entered into the representation, so seeded runs pick
            # the same logical point under every backend.
            x = self.field.enter(rng.randrange(self.field.p))
            rhs = self.right_hand_side(x)
            if self.field.is_square(rhs):
                y = self.field.sqrt(rhs)
                if rng.randrange(2):  # audit: allow[CT101] coin flip picks the sign of a point that is published anyway
                    y = self.field.neg(y)
                return x, y

    def count_points_naive(self) -> int:
        """Exhaustive point count #E(Fp) including infinity (tiny fields only)."""
        if self.field.p > 100_000:
            raise ParameterError("naive point counting is limited to p <= 100000")
        f = self.field
        count = 1  # point at infinity
        for x_plain in range(f.p):
            rhs = self.right_hand_side(f.enter(x_plain))
            if rhs == 0:
                count += 1
            elif f.is_square(rhs):
                count += 2
        return count

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeierstrassCurve)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.a, self.b))

    def __repr__(self) -> str:
        return f"WeierstrassCurve(p~2^{self.field.p.bit_length()}, a={self.a}, b={self.b})"
