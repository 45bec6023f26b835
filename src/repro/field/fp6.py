"""The representation F1: Fp6 = Fp[z]/(z^6 + z^3 + 1).

This is the representation the paper performs all torus arithmetic in
(Section 2.2).  On top of the generic extension-field machinery this module
adds the paper's multiplication algorithm: split A = A0 + A1*z^3 into two
degree-2 halves, use the three-product Karatsuba trick on the halves and a
six-multiplication Toom-style product for each half product, for a total of
exactly 18 Fp multiplications plus additions (Section 2.2.2).  Over a plain
prime field it also squares with two of those half products (12M), torus
elements with the 6M cyclotomic squaring of Granger and Scott, and in every
representation the Frobenius is a signed coefficient permutation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ParameterError
from repro.field.extension import ExtElement, ExtensionField
from repro.field.fp import PrimeField

#: Little-endian coefficients of z^6 + z^3 + 1.
FP6_MODULUS = [1, 0, 0, 1, 0, 0, 1]

#: Builds the plain kernels' results: their coefficients are already
#: reduced, so they skip ``ExtElement.__init__``'s checks, and one call per
#: product is a measurable share of a 6M squaring.
_new = object.__new__


def _signed_permutation(m: int) -> Tuple[Tuple[int, int], ...]:
    """Output coordinate ``j`` of ``z -> z^m`` as ``coeffs[plus] - coeffs[minus]``.

    Index 6 names a zero padding coordinate.  Input ``i`` lands on z^(i m
    mod 9); a landing spot t >= 6 is folded as z^t = -z^(t-6) - z^(t-3).
    """
    plus, minus = [6] * 6, [6] * 6
    for i in range(6):
        t = i * m % 9
        if t < 6:
            plus[t] = i
        else:
            minus[t - 6] = minus[t - 3] = i
    return tuple(zip(plus, minus))


class Fp6Field(ExtensionField):
    """Fp6 in the F1 representation, with the paper's 18M multiplication."""

    def __init__(self, base: PrimeField):
        if base.p % 9 not in (2, 5):
            raise ParameterError(
                f"z^6 + z^3 + 1 is irreducible over F_p only when p = 2, 5 (mod 9); "
                f"p = {base.p} = {base.p % 9} (mod 9)"
            )
        super().__init__(
            base, list(FP6_MODULUS), name="Fp6", var="z", check_irreducible=False
        )
        # The inline fast multiplication runs only on plain arithmetic
        # (PrimeField.plain_arithmetic); counting and resident base fields
        # route through the instrumented mul_paper.
        self._plain_base = base.plain_arithmetic
        self._frobenius_terms = [
            _signed_permutation(pow(base.p, k, 9)) for k in range(6)
        ]

    # -- paper multiplication ------------------------------------------------

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """The 18M multiplication of Section 2.2.2.

        Counting and resident base fields run :meth:`mul_paper`, so every
        base-field M and A stays observable.  Over a plain prime field the
        same three half products and degree-10 reduction run here on raw
        integers: every intermediate stays an unreduced Python integer
        (bounded by a few p^2, signed) and each of the six output
        coordinates is reduced once, 6 modular reductions instead of 18 and
        no per-operation field-method calls.
        """
        if not self._plain_base:
            return self.mul_paper(a, b)
        p = self.base.p
        a0, a1, a2, a3, a4, a5 = a.coeffs
        b0, b1, b2, b3, b4, b5 = b.coeffs

        # C0 = A0*B0, C1 = A1*B1, C2 = (A0-A1)(B0-B1), each via the
        # six-multiplication half product of Section 2.2.2.
        d0 = a0 * b0
        d1 = a1 * b1
        d2 = a2 * b2
        d01 = d0 + d1
        d12 = d1 + d2
        c0_0 = d0
        c0_1 = d01 - (a0 - a1) * (b0 - b1)
        c0_2 = d01 + d2 - (a0 - a2) * (b0 - b2)
        c0_3 = d12 - (a1 - a2) * (b1 - b2)
        c0_4 = d2

        e0 = a3 * b3
        e1 = a4 * b4
        e2 = a5 * b5
        e01 = e0 + e1
        e12 = e1 + e2
        c1_0 = e0
        c1_1 = e01 - (a3 - a4) * (b3 - b4)
        c1_2 = e01 + e2 - (a3 - a5) * (b3 - b5)
        c1_3 = e12 - (a4 - a5) * (b4 - b5)
        c1_4 = e2

        u0, u1, u2 = a0 - a3, a1 - a4, a2 - a5
        v0, v1, v2 = b0 - b3, b1 - b4, b2 - b5
        g0 = u0 * v0
        g1 = u1 * v1
        g2 = u2 * v2
        g01 = g0 + g1
        g12 = g1 + g2
        c2_0 = g0
        c2_1 = g01 - (u0 - u1) * (v0 - v1)
        c2_2 = g01 + g2 - (u0 - u2) * (v0 - v2)
        c2_3 = g12 - (u1 - u2) * (v1 - v2)
        c2_4 = g2

        # Middle block M = C0 + C1 - C2; product = C0 + M z^3 + C1 z^6,
        # then reduce modulo z^6 + z^3 + 1 (z^6 = -(1 + z^3), z^9 = 1).
        m0 = c0_0 + c1_0 - c2_0
        m1 = c0_1 + c1_1 - c2_1
        m2 = c0_2 + c1_2 - c2_2
        m3 = c0_3 + c1_3 - c2_3
        m4 = c0_4 + c1_4 - c2_4

        z6 = m3 + c1_0
        z7 = m4 + c1_1
        product = _new(ExtElement)
        product.field = self
        product.coeffs = (
            (c0_0 - z6 + c1_3) % p,           # 1:    -z^6, +z^9
            (c0_1 - z7 + c1_4) % p,           # z:    -z^7, +z^10
            (c0_2 - c1_2) % p,                # z^2:  -z^8
            (c0_3 + m0 - z6) % p,             # z^3:  -z^6
            (c0_4 + m1 - z7) % p,             # z^4:  -z^7
            (m2 - c1_2) % p,                  # z^5:  -z^8
        )
        return product

    def mul_schoolbook(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """Plain schoolbook multiplication (36M), kept as a cross-check."""
        return super().mul(a, b)

    def _half_product(
        self, a: Sequence[int], b: Sequence[int]
    ) -> List[int]:
        """Product of two degree-2 polynomials using 6 Fp multiplications.

        Implements the c0..c5 precomputation of Section 2.2.2:
        ``C = c0 + (c0+c1-c3)x + (c0+c1+c2-c4)x^2 + (c1+c2-c5)x^3 + c2 x^4``.
        """
        f = self.base
        a0, a1, a2 = a
        b0, b1, b2 = b
        c0 = f.mul(a0, b0)
        c1 = f.mul(a1, b1)
        c2 = f.mul(a2, b2)
        c3 = f.mul(f.sub(a0, a1), f.sub(b0, b1))
        c4 = f.mul(f.sub(a0, a2), f.sub(b0, b2))
        c5 = f.mul(f.sub(a1, a2), f.sub(b1, b2))
        c01 = f.add(c0, c1)
        c12 = f.add(c1, c2)
        return [
            c0,
            f.sub(c01, c3),
            f.sub(f.add(c01, c2), c4),
            f.sub(c12, c5),
            c2,
        ]

    def mul_paper(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """18M + ~60A multiplication in the basis {1, z, ..., z^5}.

        ``A = A0 + A1 z^3``, ``B = B0 + B1 z^3`` with degree-2 halves; then
        ``A*B = C0 + (C0 + C1 - C2) z^3 + C1 z^6`` with ``C0 = A0*B0``,
        ``C1 = A1*B1`` and ``C2 = (A0-A1)(B0-B1)``, followed by reduction
        modulo z^6 + z^3 + 1 (z^6 = -z^3 - 1, z^9 = 1).
        """
        f = self.base
        a_lo, a_hi = a.coeffs[:3], a.coeffs[3:]
        b_lo, b_hi = b.coeffs[:3], b.coeffs[3:]

        c0 = self._half_product(a_lo, b_lo)  # degree <= 4
        c1 = self._half_product(a_hi, b_hi)  # degree <= 4
        diff_a = [f.sub(x, y) for x, y in zip(a_lo, a_hi)]
        diff_b = [f.sub(x, y) for x, y in zip(b_lo, b_hi)]
        c2 = self._half_product(diff_a, diff_b)  # degree <= 4

        # Middle block C0 + C1 - C2.
        mid = [f.sub(f.add(x, y), w) for x, y, w in zip(c0, c1, c2)]

        # Assemble the degree-10 product: C0 + mid*z^3 + C1*z^6.  Only the
        # overlapping positions (3, 4 between C0 and mid; 6, 7 between mid
        # and C1) cost an addition — matching the level-2 sequence of
        # :func:`repro.soc.sequences.fp6_multiplication_program`, which
        # references the block-product registers directly elsewhere, so the
        # executed A-count equals the one the platform model composes.
        prod = [0] * 11
        for i, v in enumerate(c0):
            prod[i] = v
        for i, v in enumerate(mid):
            # mid spans z^3..z^7; only z^3, z^4 overlap C0 (degrees 0..4).
            j = 3 + i
            prod[j] = f.add(prod[j], v) if j <= 4 else v
        for i, v in enumerate(c1):
            # C1 spans z^6..z^10; only z^6, z^7 overlap mid.
            j = 6 + i
            prod[j] = f.add(prod[j], v) if j <= 7 else v

        return self._reduce_degree10(prod)

    def _reduce_degree10(self, prod: Sequence[int]) -> ExtElement:
        """Reduce a degree-<=10 polynomial modulo z^6 + z^3 + 1.

        Uses z^6 = -(z^3 + 1), z^7 = -(z^4 + z), z^8 = -(z^5 + z^2),
        z^9 = 1 and z^10 = z.
        """
        f = self.base
        out = list(prod[:6]) + [0] * (6 - min(6, len(prod)))
        high = list(prod[6:]) + [0] * (5 - max(0, len(prod) - 6))
        p6, p7, p8, p9, p10 = (high + [0] * 5)[:5]
        # z^6 -> -(1 + z^3)
        out[0] = f.sub(out[0], p6)
        out[3] = f.sub(out[3], p6)
        # z^7 -> -(z + z^4)
        out[1] = f.sub(out[1], p7)
        out[4] = f.sub(out[4], p7)
        # z^8 -> -(z^2 + z^5)
        out[2] = f.sub(out[2], p8)
        out[5] = f.sub(out[5], p8)
        # z^9 -> 1
        out[0] = f.add(out[0], p9)
        # z^10 -> z
        out[1] = f.add(out[1], p10)
        return ExtElement(self, out)

    # -- squaring -------------------------------------------------------------

    def sqr(self, a: ExtElement, cyclotomic: bool = False) -> ExtElement:
        """Squaring; ``cyclotomic=True`` promises that ``a`` lies in T6(Fp).

        The paper uses no dedicated squaring, so counting and resident
        fields square with :meth:`mul_paper` and keep its 18M tally either
        way.  Over a plain prime field any element squares with the 12M
        complex squaring of :meth:`_sqr_fast`, and a torus element with the
        6M cyclotomic squaring of Granger and Scott, "Faster squaring in the
        cyclotomic subgroup of sixth degree extensions" (PKC 2010).

        With w = z^3 a primitive cube root of unity, F1 is the cubic
        extension Fp2[z]/(z^3 - w) of Fp2 = Fp(w), their setting.  For ``a``
        in T6 their identities give each coordinate of ``a^2`` from one
        product of two coordinate combinations:

            c0 = 3(a0^2 - a3^2) - 2(a0 - a3)    c3 = 3 a3(2a0 - a3) + 2 a3
            c1 = 3 a5(a5 - 2a2) + 2 a2          c4 = 3 a2(a2 - 2a5) + 2(a2 - a5)
            c2 = 3(a1^2 - a4^2) + 2 a1          c5 = 3 a4(2a1 - a4) + 2(a1 - a4)

        The result is wrong for elements outside the torus.  c0 and c3
        factor as (a0 - a3)(3(a0 + a3) - 2) and a3(3(2a0 - a3) + 2), and
        every coordinate is reduced once, as in :meth:`mul`.
        """
        if not self._plain_base:
            return self.mul_paper(a, a)
        if not cyclotomic:
            return self._sqr_fast(a)
        p = self.base.p
        a0, a1, a2, a3, a4, a5 = a.coeffs
        d03 = a0 - a3
        d14 = a1 - a4
        d25 = a2 - a5
        square = _new(ExtElement)
        square.field = self
        square.coeffs = (
            d03 * (3 * (a0 + a3) - 2) % p,
            (3 * a5 * (a5 - a2 - a2) + a2 + a2) % p,
            (3 * d14 * (a1 + a4) + a1 + a1) % p,
            a3 * (3 * (a0 + d03) + 2) % p,
            (3 * a2 * (d25 - a5) + d25 + d25) % p,
            (3 * a4 * (a1 + d14) + d14 + d14) % p,
        )
        return square

    def _sqr_fast(self, a: ExtElement) -> ExtElement:
        """Complex squaring on raw integers: two 6M half products (12M).

        With omega = z^3 (omega^2 = -omega - 1),
        ``(A0 + A1 omega)^2 = (A0 - A1)(A0 + A1) + A1 (2 A0 - A1) omega``;
        each product is :meth:`_half_product`'s six-multiplication formula,
        reduced once per output coordinate as in :meth:`mul`.
        """
        p = self.base.p
        a0, a1, a2, a3, a4, a5 = a.coeffs

        # C0 = (A0 - A1)(A0 + A1)
        u0, u1, u2 = a0 - a3, a1 - a4, a2 - a5
        v0, v1, v2 = a0 + a3, a1 + a4, a2 + a5
        d0 = u0 * v0
        d1 = u1 * v1
        d2 = u2 * v2
        d01 = d0 + d1
        c0_1 = d01 - (u0 - u1) * (v0 - v1)
        c0_2 = d01 + d2 - (u0 - u2) * (v0 - v2)
        c0_3 = d1 + d2 - (u1 - u2) * (v1 - v2)

        # C1 = A1 (2 A0 - A1)
        w0, w1, w2 = 2 * a0 - a3, 2 * a1 - a4, 2 * a2 - a5
        e0 = a3 * w0
        e1 = a4 * w1
        e2 = a5 * w2
        e01 = e0 + e1
        c1_1 = e01 - (a3 - a4) * (w0 - w1)
        c1_2 = e01 + e2 - (a3 - a5) * (w0 - w2)
        c1_3 = e1 + e2 - (a4 - a5) * (w1 - w2)

        # C0 + C1 z^3 has degree 7: fold z^6 = -(1 + z^3), z^7 = -(z + z^4).
        return ExtElement._raw(
            self,
            (
                (d0 - c1_3) % p,
                (c0_1 - e2) % p,
                c0_2 % p,
                (c0_3 + e0 - c1_3) % p,
                (d2 + c1_1 - e2) % p,
                c1_2 % p,
            ),
        )

    # -- Frobenius ----------------------------------------------------------------

    def frobenius(self, a: ExtElement, k: int = 1) -> ExtElement:
        """``a -> a^(p^k)`` as a signed coefficient permutation.

        z is a primitive 9th root of unity, so the map sends z^i to
        z^(i p^k mod 9); exponents 6..8 fold back through z^6 = -1 - z^3,
        z^7 = -z - z^4 and z^8 = -z^2 - z^5.  Every output coordinate is the
        difference of at most two input coordinates: one base-field ``sub``
        on a counting or resident field, one ``% p`` on a plain one.
        """
        k %= 6
        if k == 0:
            return a
        coeffs = a.coeffs + (0,)
        terms = self._frobenius_terms[k]
        if self._plain_base:
            p = self.base.p
            values = tuple([(coeffs[i] - coeffs[j]) % p for i, j in terms])
        else:
            sub = self.base.sub
            values = tuple([sub(coeffs[i], coeffs[j]) for i, j in terms])
        return ExtElement._raw(self, values)

    # -- cyclotomic structure --------------------------------------------------

    def unit_group_order(self) -> int:
        """Order of the multiplicative group, p^6 - 1."""
        return self.base.p ** 6 - 1

    def torus_order(self) -> int:
        """Order of T6(Fp) = Phi_6(p) = p^2 - p + 1."""
        p = self.base.p
        return p * p - p + 1

    def cofactor_exponent(self) -> int:
        """(p^6 - 1) / Phi_6(p) — raising to this power projects into T6."""
        p = self.base.p
        return (p * p - 1) * (p * p + p + 1)

    def project_to_torus(self, a: ExtElement) -> ExtElement:
        """Map a unit of Fp6 onto T6(Fp) by powering with the cofactor."""
        if a.is_zero():
            raise ParameterError("zero is not a unit")
        return self.pow(a, self.cofactor_exponent())

    def is_in_torus(self, a: ExtElement) -> bool:
        """Membership test for T6(Fp): a^(p^2 - p + 1) == 1."""
        if a.is_zero():
            return False
        return self.pow(a, self.torus_order()).is_one()


def make_fp6(base: PrimeField) -> Fp6Field:
    """Construct the F1 representation Fp6 = Fp[z]/(z^6 + z^3 + 1)."""
    return Fp6Field(base)


def split_halves(a: ExtElement) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Split an Fp6 element into its (A0, A1) halves with A = A0 + A1 z^3."""
    return a.coeffs[:3], a.coeffs[3:]
