"""The quadratic subfield Fp2 = Fp[x]/(x^2 + x + 1).

For CEILIDH primes (p = 2 or 5 mod 9, hence p = 2 mod 3) the polynomial
x^2 + x + 1 is irreducible, and its root x is a primitive cube root of unity
— the image of z^3 under the embedding into Fp6 = Fp[z]/(z^6 + z^3 + 1).

:class:`Fp2Field` overrides the generic schoolbook multiplication with the
three-product Karatsuba form the platform microcodes
(:func:`repro.soc.sequences.xtr_fp2_multiplication_program`):

    t0 = a0*b0,  t1 = a1*b1,  t2 = (a0+a1)*(b0+b1)
    c0 = t0 - t1,  c1 = ((t2 - t0) - t1) - t1        (using x^2 = -1 - x)

— 3 multiplications plus 2 additions and 4 subtractions, executed in exactly
the order of the level-2 sequence so that measured word-operation streams
match the analytic composition operation for operation.

:meth:`Fp2Field.mul_pair` is that product on bare ``(a0, a1)`` coefficient
pairs.  The XTR ladder (:mod:`repro.xtr.trace`) calls it over resident and
counting base fields, so its word-operation stream is the sequence's; over
a plain base field the ladder runs the same steps on raw integers instead.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ParameterError
from repro.field.extension import ExtElement, ExtensionField
from repro.field.fp import PrimeField


class Fp2Field(ExtensionField):
    """Fp2 with the platform's 3M Karatsuba multiplication."""

    def __init__(self, base: PrimeField):
        if base.p % 3 != 2:
            raise ParameterError(
                f"x^2 + x + 1 is reducible over F_{base.p}: need p = 2 (mod 3)"
            )
        super().__init__(base, [1, 1, 1], name="Fp2", var="x", check_irreducible=False)

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        return ExtElement._raw(self, self.mul_pair(a.coeffs, b.coeffs))

    def mul_pair(self, a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        """The Karatsuba product of two resident coefficient pairs."""
        f = self.base
        a0, a1 = a
        b0, b1 = b
        sa = f.add(a0, a1)
        sb = f.add(b0, b1)
        t0 = f.mul(a0, b0)
        t1 = f.mul(a1, b1)
        t2 = f.mul(sa, sb)
        c0 = f.sub(t0, t1)
        # cross term a0*b1 + a1*b0 = t2 - t0 - t1; x^2 = -1 - x folds t1 in
        # once more for the x coefficient.
        c1 = f.sub(f.sub(f.sub(t2, t0), t1), t1)
        return c0, c1

    def sqr(self, a: ExtElement) -> ExtElement:
        return self.mul(a, a)

    def mul_schoolbook(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """The generic 4M schoolbook product, kept as a cross-check."""
        return super().mul(a, b)


def make_fp2(base: PrimeField) -> Fp2Field:
    """Construct Fp2 = Fp[x]/(x^2 + x + 1).

    Raises :class:`ParameterError` when p = 1 (mod 3), in which case the
    cyclotomic polynomial splits and the quotient is not a field.
    """
    return Fp2Field(base)
