"""The cubic subfield Fp3 = Fp[y]/(y^3 - 3y + 1).

The root y corresponds to zeta_9 + zeta_9^-1 (with zeta_9 a primitive ninth
root of unity), i.e. the trace of z from Fp6 down to Fp3 in the paper's F1
representation.  The polynomial is irreducible exactly when p is not
+-1 (mod 9) — in particular for the CEILIDH primes p = 2, 5 (mod 9).

:class:`Fp3Field` replaces the generic polynomial arithmetic with closed
forms on y^3 = 3y - 1: a 6M Karatsuba product, and an inversion through the
adjugate of the multiplication matrix, 12M plus one Fp inversion.  Both are
written on the base field's ``mul``/``add``/``sub``/``inv``, so every
backend keeps its residency and a counting field sees every operation.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ParameterError
from repro.field.extension import ExtElement, ExtensionField
from repro.field.fp import PrimeField

#: Coefficients of y^3 - 3y + 1, little-endian.
FP3_MODULUS = [1, -3, 0, 1]


class Fp3Field(ExtensionField):
    """Fp3 = Fp[y]/(y^3 - 3y + 1) with closed-form product and inverse."""

    def __init__(self, base: PrimeField):
        if base.p % 9 in (1, 8):
            raise ParameterError(
                f"y^3 - 3y + 1 is reducible over F_{base.p}: need p != +-1 (mod 9)"
            )
        super().__init__(base, FP3_MODULUS, name="Fp3", var="y", check_irreducible=False)

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """Karatsuba product (6M), folded with y^3 = 3y - 1 and y^4 = 3y^2 - y."""
        f = self.base
        add, sub, mul = f.add, f.sub, f.mul
        a0, a1, a2 = a.coeffs
        b0, b1, b2 = b.coeffs
        d0 = mul(a0, b0)
        d1 = mul(a1, b1)
        d2 = mul(a2, b2)
        # The three cross sums a_i b_j + a_j b_i, one product each.
        e01 = sub(sub(mul(add(a0, a1), add(b0, b1)), d0), d1)
        e02 = sub(sub(mul(add(a0, a2), add(b0, b2)), d0), d2)
        e12 = sub(sub(mul(add(a1, a2), add(b1, b2)), d1), d2)
        # d0 + e01 y + (e02 + d1) y^2 + e12 y^3 + d2 y^4 folds to
        # (d0 - e12) + (e01 + 3 e12 - d2) y + (e02 + d1 + 3 d2) y^2.
        e12x3 = add(add(e12, e12), e12)
        d2x3 = add(add(d2, d2), d2)
        return ExtElement._raw(
            self, (sub(d0, e12), sub(add(e01, e12x3), d2), add(add(e02, d1), d2x3))
        )

    def adjugate(self, a: ExtElement) -> Tuple[ExtElement, int]:
        """``(adj(a), N(a))`` with ``a * adj(a) = N(a)`` in Fp (9M).

        ``adj(a)`` is the first column of the adjugate of multiplication by
        ``a`` in the basis {1, y, y^2}, and ``N(a)`` its determinant, the
        norm to Fp as a *resident* value.  Dividing by the norm is then one
        Fp inversion, which callers may defer or batch.
        """
        f = self.base
        add, sub, mul = f.add, f.sub, f.mul
        a0, a1, a2 = a.coeffs
        # Multiplication by a has rows (a0, -a2, -a1), (a1, s, t), (a2, a1, s).
        s = add(a0, add(add(a2, a2), a2))
        t = sub(add(add(a1, a1), a1), a2)
        adj0 = sub(mul(s, s), mul(a1, t))
        adj1 = sub(mul(a2, t), mul(a1, s))
        adj2 = sub(mul(a1, a1), mul(a2, s))
        norm = sub(sub(mul(a0, adj0), mul(a2, adj1)), mul(a1, adj2))
        return ExtElement._raw(self, (adj0, adj1, adj2)), norm

    def scale(self, a: ExtElement, c: int) -> ExtElement:
        """Multiply by the *resident* Fp value ``c`` (3M)."""
        mul = self.base.mul
        a0, a1, a2 = a.coeffs
        return ExtElement._raw(self, (mul(a0, c), mul(a1, c), mul(a2, c)))

    def inv(self, a: ExtElement) -> ExtElement:
        """Inverse through the adjugate: 12M and one Fp inversion."""
        if a.is_zero():
            raise ParameterError("cannot invert zero")
        adj, norm = self.adjugate(a)
        return self.scale(adj, self.base.inv(norm))


def make_fp3(base: PrimeField) -> Fp3Field:
    """Construct Fp3 = Fp[y]/(y^3 - 3y + 1)."""
    return Fp3Field(base)
