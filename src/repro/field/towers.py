"""The tower representation F2 = Fp3[x]/(x^2 + x + 1) and the tau maps.

Fig. 1 of the paper shows two representations of Fp6: the direct sextic
extension F1 (used for the exponentiation arithmetic) and the tower F2
(used by the compression maps rho/psi, which need the quadratic structure
over Fp3).  This module implements the tower, arithmetic in it, and the
linear isomorphisms tau: F1 -> F2 and tau^-1: F2 -> F1.

The change of basis uses the identities (z = zeta_9 a root of z^6+z^3+1):

* ``x = z^3``          (primitive cube root of unity),
* ``y = z + z^-1 = z - z^2 - z^5``  (so y^3 - 3y + 1 = 0).

The F2 basis over Fp is {1, y, y^2, x, x*y, x*y^2}; expressing each basis
vector in the z-basis gives a 6x6 matrix over Fp whose inverse provides the
reverse map.

Tower arithmetic runs on :class:`~repro.field.fp3.Fp3Field`'s closed forms,
so an inversion here is one Fp3 inversion, i.e. one Fp inversion.  The
compression maps take only tau and tau^-1 from this module and work on the
Fp3 halves of tau(alpha) directly (:mod:`repro.torus.compression`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.errors import FieldMismatchError, ParameterError
from repro.field import poly as P
from repro.field.extension import ExtElement
from repro.field.fp import PrimeField
from repro.field.fp3 import make_fp3
from repro.field.fp6 import Fp6Field


class TowerElement:
    """An element a + b*x of F2 with a, b in Fp3 and x^2 + x + 1 = 0."""

    __slots__ = ("tower", "a", "b")

    def __init__(self, tower: "TowerFp6", a: ExtElement, b: ExtElement):
        self.tower = tower
        self.a = a
        self.b = b

    def _check(self, other: "TowerElement") -> None:
        if not isinstance(other, TowerElement) or other.tower.fp3 != self.tower.fp3:
            raise FieldMismatchError("tower elements belong to different towers")

    def __add__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        return TowerElement(self.tower, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        return TowerElement(self.tower, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "TowerElement":
        return TowerElement(self.tower, -self.a, -self.b)

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        return self.tower.mul(self, other)

    def __truediv__(self, other: "TowerElement") -> "TowerElement":
        self._check(other)
        return self.tower.mul(self, self.tower.inv(other))

    def __pow__(self, e: int) -> "TowerElement":
        return self.tower.pow(self, e)

    def conjugate(self) -> "TowerElement":
        """Conjugation over Fp3 (x -> x^2 = -1 - x): a + b*x -> (a - b) - b*x."""
        return TowerElement(self.tower, self.a - self.b, -self.b)

    def norm_to_fp3(self) -> ExtElement:
        """Norm to Fp3: a^2 - a*b + b^2."""
        a, b = self.a, self.b
        return a * a - a * b + b * b

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_one(self) -> bool:
        return self.a.is_one() and self.b.is_zero()

    def is_fp3(self) -> bool:
        """True when the element lies in the subfield Fp3 (no x component)."""
        return self.b.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TowerElement)
            and self.tower.fp3 == other.tower.fp3
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"<({self.a.coeffs}) + ({self.b.coeffs})*x in F2>"


class TowerFp6:
    """The representation F2 = Fp3[x]/(x^2 + x + 1)."""

    def __init__(self, base: PrimeField):
        if base.p % 3 != 2:
            raise ParameterError("the tower needs p = 2 (mod 3)")
        self.base = base
        self.fp3 = make_fp3(base)
        self._exp_group = None

    # -- constructors ---------------------------------------------------------

    def element(self, a: ExtElement, b: Optional[ExtElement] = None) -> TowerElement:
        if b is None:
            b = self.fp3.zero()
        return TowerElement(self, a, b)

    def from_fp3(self, a: ExtElement) -> TowerElement:
        return TowerElement(self, a, self.fp3.zero())

    def from_base(self, value: int) -> TowerElement:
        return TowerElement(self, self.fp3.from_base(value), self.fp3.zero())

    def zero(self) -> TowerElement:
        return TowerElement(self, self.fp3.zero(), self.fp3.zero())

    def one(self) -> TowerElement:
        return TowerElement(self, self.fp3.one(), self.fp3.zero())

    def x(self) -> TowerElement:
        """The adjoined cube root of unity x."""
        return TowerElement(self, self.fp3.zero(), self.fp3.one())

    def random_element(self, rng: Optional[random.Random] = None) -> TowerElement:
        return TowerElement(
            self, self.fp3.random_element(rng), self.fp3.random_element(rng)
        )

    # -- arithmetic -----------------------------------------------------------

    def mul(self, u: TowerElement, v: TowerElement) -> TowerElement:
        """(a + bx)(c + dx) with x^2 = -1 - x (Karatsuba: 3 Fp3 products)."""
        a, b, c, d = u.a, u.b, v.a, v.b
        ac = a * c
        bd = b * d
        cross = (a + b) * (c + d) - ac - bd  # = ad + bc
        # x^2 = -(1 + x):  result = ac - bd + (cross - bd) x
        return TowerElement(self, ac - bd, cross - bd)

    def inv(self, u: TowerElement) -> TowerElement:
        """Inverse via the norm to Fp3: u^-1 = conj(u) / N(u), one Fp inversion."""
        if u.is_zero():
            raise ParameterError("cannot invert zero")
        norm = u.norm_to_fp3()
        norm_inv = norm.inverse()
        conj = u.conjugate()
        return TowerElement(self, conj.a * norm_inv, conj.b * norm_inv)

    def exp_group(self):
        """The tower's unit group as seen by :mod:`repro.exp`."""
        if self._exp_group is None:
            from repro.exp.group import TowerExpGroup

            self._exp_group = TowerExpGroup(self)
        return self._exp_group

    def pow(
        self, u: TowerElement, e: int, strategy: str = "auto", trace=None
    ) -> TowerElement:
        """``u^e`` via the unified engine (sliding window by default)."""
        from repro.exp.strategies import exponentiate

        return exponentiate(self.exp_group(), u, e, strategy=strategy, trace=trace)


class F1ToF2Map:
    """The isomorphism tau: F1 -> F2 and its inverse (Fig. 1's tau, tau^-1).

    Both directions are Fp-linear; the matrices are built once from the
    relations x = z^3 and y = z - z^2 - z^5.
    """

    def __init__(self, fp6: Fp6Field, tower: Optional[TowerFp6] = None):
        if not isinstance(fp6, Fp6Field):
            raise ParameterError("F1ToF2Map needs the F1 representation of Fp6")
        self.fp6 = fp6
        self.base = fp6.base
        self.tower = tower or TowerFp6(fp6.base)
        if self.tower.base != self.base:
            raise FieldMismatchError("tower and Fp6 live over different primes")
        self._matrix_f2_to_f1 = self._build_f2_to_f1_matrix()
        self._matrix_f1_to_f2 = _invert_matrix(self.base, self._matrix_f2_to_f1)

    # -- basis-change matrices -------------------------------------------------

    def _build_f2_to_f1_matrix(self) -> List[List[int]]:
        """Columns = z-basis coordinates of {1, y, y^2, x, xy, xy^2}."""
        f = self.base
        modulus = self.fp6.modulus
        one_v = f.one_value
        # y = z - z^2 - z^5 and x = z^3, as polynomials in z (coefficients
        # resident in the base field's representation).
        y_poly = [0, one_v, f.neg(one_v), 0, 0, f.neg(one_v)]
        x_poly = [0, 0, 0, one_v]
        one = [one_v]
        y2_poly = P.poly_mod(f, P.poly_mul(f, y_poly, y_poly), modulus)
        basis_polys = [
            one,
            y_poly,
            y2_poly,
            x_poly,
            P.poly_mod(f, P.poly_mul(f, x_poly, y_poly), modulus),
            P.poly_mod(f, P.poly_mul(f, x_poly, y2_poly), modulus),
        ]
        columns = []
        for poly in basis_polys:
            padded = list(poly) + [0] * (6 - len(poly))
            columns.append(padded[:6])
        return columns

    # -- conversions -------------------------------------------------------------

    def to_f2(self, a: ExtElement) -> TowerElement:
        """tau: convert an F1 element (z-basis) to the tower representation."""
        coords = _apply_matrix(self.base, self._matrix_f1_to_f2, list(a.coeffs))
        fp3 = self.tower.fp3
        # The coordinates are already resident base-field values.
        return TowerElement(self.tower, fp3._from_coeffs(coords[0:3]), fp3._from_coeffs(coords[3:6]))

    def to_f1(self, u: TowerElement) -> ExtElement:
        """tau^-1: convert a tower element back to the F1 (z-basis) form."""
        coords = list(u.a.coeffs) + list(u.b.coeffs)
        z_coords = _apply_matrix(self.base, self._matrix_f2_to_f1, coords)
        return self.fp6._from_coeffs(z_coords)


def _apply_matrix(
    field: PrimeField, columns: List[List[int]], vector: Sequence[int]
) -> List[int]:
    """Multiply the column-matrix by a coordinate vector."""
    n = len(columns)
    out = [0] * n
    for j, coeff in enumerate(vector):
        if coeff == 0:
            continue
        column = columns[j]
        for i in range(n):
            if column[i]:
                out[i] = field.add(out[i], field.mul(coeff, column[i]))
    return out


def _invert_matrix(field: PrimeField, columns: List[List[int]]) -> List[List[int]]:
    """Invert a column-major matrix over Fp by Gauss-Jordan elimination."""
    n = len(columns)
    one_v = field.one_value
    # Convert to row-major augmented matrix [M | I].
    rows = [[columns[j][i] for j in range(n)] + [one_v if k == i else 0 for k in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise ParameterError("basis-change matrix is singular (bug)")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        inv_pivot = field.inv(rows[col][col])
        rows[col] = [field.mul(v, inv_pivot) for v in rows[col]]
        for r in range(n):
            if r == col or rows[r][col] == 0:
                continue
            factor = rows[r][col]
            rows[r] = [
                field.sub(v, field.mul(factor, w)) for v, w in zip(rows[r], rows[col])
            ]
    # Extract the right half back into column-major order.
    inverse_columns = [[rows[i][n + j] for i in range(n)] for j in range(n)]
    return inverse_columns
