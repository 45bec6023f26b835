"""Compression of torus elements to two Fp values (the maps rho and psi).

Rubin and Silverberg's key observation is that T6(Fp) is a rational variety:
off a small exceptional set it is in bijection with the affine plane A^2(Fp),
so a torus element — six Fp coordinates in the F1 representation — can be
transmitted as just two Fp values, a factor-3 compression (6 / phi(6) = 3).

Construction used here (documented as a substitution in DESIGN.md: it is an
explicitly derived birational parametrisation of the same variety, equivalent
to the published CEILIDH maps):

* Every norm-1 element of Fp6 over Fp3 other than 1 can be written uniquely as
  ``alpha = (c + x) / (c + x^2)`` with ``c in Fp3`` and ``x`` the cube root of
  unity generating the quadratic step of the tower (the classical T2
  parametrisation).
* Writing ``c = c0 + c1*y + c2*y^2`` (with y^3 = 3y - 1), the extra condition
  ``N_{Fp6/Fp2}(alpha) = 1`` that cuts T6 out of T2 becomes the quadric

      c0 + 2*c2 = c0^2 + 4*c0*c2 + 3*c2^2 + c1*c2 - c1^2.

* The quadric contains the rational point ``c = 1`` (the image of alpha = x),
  so it is parametrised by the pencil of lines through that point: the
  direction ``(u, v, 1)`` meets the quadric again at

      t = -(u + 2) / (u^2 + 4u + 3 + v - v^2),
      c = (1 + t*u,  t*v,  t).

``psi(u, v)`` (decompression) evaluates exactly this; ``rho`` (compression)
recovers ``c`` from alpha and returns ``u = (c0 - 1)/c2``, ``v = c1/c2``.
Both are evaluated as closed forms in Fp3 that need one Fp inversion each
(see :class:`TorusCompressor`); over a plain prime field the same closed
forms run on Python integers.  The exceptional sets (identity, alpha = x,
the ruling lines of the quadric through c = 1, directions on the asymptotic
cone) have size O(p) out of ~p^2 elements and raise
:class:`~repro.errors.CompressionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import CompressionError, NotInTorusError
from repro.field.extension import ExtElement
from repro.field.towers import F1ToF2Map, TowerElement, TowerFp6


@dataclass(frozen=True)
class CompressedElement:
    """A compressed torus element: the pair (u, v) of Fp values."""

    u: int
    v: int

    def as_tuple(self) -> Tuple[int, int]:
        return (self.u, self.v)


def _fp3_mul(a0: int, a1: int, a2: int, b0: int, b1: int, b2: int) -> Tuple[int, int, int]:
    """Unreduced Fp3 product on integers, folded with y^3 = 3y - 1."""
    e12 = a1 * b2 + a2 * b1
    d2 = a2 * b2
    return (
        a0 * b0 - e12,
        a0 * b1 + a1 * b0 + 3 * e12 - d2,
        a0 * b2 + a2 * b0 + a1 * b1 + 3 * d2,
    )


def _fp3_adjugate(a0: int, a1: int, a2: int, p: int) -> Tuple[int, int, int, int]:
    """:meth:`~repro.field.fp3.Fp3Field.adjugate` on integers: adj(a), N(a) mod p."""
    s = a0 + 3 * a2
    t = 3 * a1 - a2
    adj0 = (s * s - a1 * t) % p
    adj1 = (a2 * t - a1 * s) % p
    adj2 = (a1 * a1 - a2 * s) % p
    return adj0, adj1, adj2, (a0 * adj0 - a2 * adj1 - a1 * adj2) % p


class TorusCompressor:
    """The maps rho (compress) and psi (decompress) for a fixed T6 group.

    Both maps are closed forms on the Fp3 halves of tau(alpha), with the
    Fp3 division cleared through the adjugate
    (:meth:`~repro.field.fp3.Fp3Field.adjugate`), so each costs one Fp
    inversion.  Each map is split at that inversion into two per-item
    stages, and the batch forms run the same stages around one
    :meth:`~repro.field.fp.PrimeField.inv_many`.  Over a plain prime field
    (the gate of :class:`~repro.field.fp6.Fp6Field`) the stages run on
    integers, with tau and tau^-1 as their small-integer rows; every other
    field keeps the field-method stages, so counted streams are unchanged.
    """

    def __init__(self, group):
        # ``group`` is a repro.torus.t6.T6Group; imported lazily to avoid a cycle.
        self.group = group
        self.fp = group.fp
        self.fp6 = group.fp6
        self.tower = TowerFp6(self.fp)
        self.map = F1ToF2Map(self.fp6, self.tower)
        self.fp3 = self.tower.fp3
        self._one3 = self.fp3.one()
        self._two3 = self.fp3.from_base(2)
        self._plain = self.fp6._plain_base

    # -- rho: T6 -> A^2 -----------------------------------------------------------

    def compress(self, value: ExtElement) -> CompressedElement:
        """Compress a torus element (given in the F1 basis) to (u, v).

        Raises :class:`CompressionError` for the exceptional elements and
        :class:`NotInTorusError` if the input is not in the norm-1 subgroup
        over Fp3 (which contains T6).
        """
        u_numerator, v_numerator, w2 = self._rho_terms(value)
        return self._rho_pair(u_numerator, v_numerator, self.fp.inv(w2))

    def compress_many(self, values) -> "list[CompressedElement]":
        """Compress N torus elements with ONE batch inversion total.

        The per-item stages of :meth:`compress`, with the N Fp inversions
        collapsed by Montgomery's trick
        (:meth:`~repro.field.fp.PrimeField.inv_many`).  Results are
        byte-identical to N single calls.  Exceptional elements are as rare
        as for :meth:`compress` (O(p) of ~p^2); any one of them raises the
        same error the single call would, so callers that must make
        progress fall back to the per-item path on failure.
        """
        terms = [self._rho_terms(value) for value in values]
        inverses = self.fp.inv_many([w2 for _, _, w2 in terms])
        return [
            self._rho_pair(u_numerator, v_numerator, w2_inv)
            for (u_numerator, v_numerator, _), w2_inv in zip(terms, inverses)
        ]

    def _rho_terms(self, value: ExtElement) -> Tuple[int, int, int]:
        """``(w0 - N, w1, w2)``, resident: u and v are the first two over w2.

        Write tau(alpha) = a + b*x.  Membership needs the norm to Fp3,
        a^2 - ab + b^2, to be 1, and then c = (alpha*x^2 - x)/(1 - alpha)
        equals (1 - a + 2b)/(2 - 2a + b).  With d = 2 - 2a + b,
        N = d*adj(d) in Fp and w = (1 - a + 2b)*adj(d), c = w/N, so
        u = (c0 - 1)/c2 = (w0 - N)/w2 and v = c1/c2 = w1/w2.
        """
        if value.is_one():
            raise CompressionError("the identity has no compressed representation")
        if self._plain:
            return self._rho_terms_plain(value)
        alpha = self.map.to_f2(value)
        fp3 = self.fp3
        a, b = alpha.a, alpha.b
        if not fp3.add(fp3.mul(fp3.sub(a, b), a), fp3.mul(b, b)).is_one():
            raise NotInTorusError("element is not in the norm-1 subgroup over Fp3")
        d = fp3.add(fp3.sub(self._two3, fp3.add(a, a)), b)
        adj, norm = fp3.adjugate(d)
        w0, w1, w2 = fp3.mul(fp3.sub(fp3.add(self._one3, fp3.add(b, b)), a), adj).coeffs
        if w2 == 0:
            raise CompressionError(
                "element lies on the exceptional line c2 = 0 (includes alpha = x)"
            )
        return self.fp.sub(w0, norm), w1, w2

    def _rho_terms_plain(self, value: ExtElement) -> Tuple[int, int, int]:
        """:meth:`_rho_terms` on integers, scaled by 27.

        3*tau has integer rows, so with A = 3a and B = 3b the norm test is
        A^2 - AB + B^2 = 9 and c = (3 - A + 2B)/(6 - 2A + B): the same u and
        v from numerators and w2 each 27 times the field-method ones.
        """
        p = self.fp.p
        t0, t1, t2, t3, t4, t5 = value.coeffs
        a0 = 3 * t0 - 2 * t1 - 4 * t2 + 4 * t4 + 2 * t5
        a1 = 2 * t1 + t2 - t4 - 2 * t5
        a2 = t1 + 2 * t2 - 2 * t4 - t5
        b0 = 3 * t3 - 4 * t1 - 2 * t2 + 2 * t4 - 2 * t5
        b1 = t1 + 2 * t2 + t4 - t5
        b2 = 2 * t1 + t2 - t4 + t5
        m0, m1, m2 = _fp3_mul(a0 - b0, a1 - b1, a2 - b2, a0, a1, a2)
        n0, n1, n2 = _fp3_mul(b0, b1, b2, b0, b1, b2)
        if (m0 + n0 - 9) % p or (m1 + n1) % p or (m2 + n2) % p:
            raise NotInTorusError("element is not in the norm-1 subgroup over Fp3")
        adj0, adj1, adj2, norm = _fp3_adjugate(
            (6 - 2 * a0 + b0) % p, (b1 - 2 * a1) % p, (b2 - 2 * a2) % p, p
        )
        w0, w1, w2 = _fp3_mul(3 - a0 + 2 * b0, 2 * b1 - a1, 2 * b2 - a2, adj0, adj1, adj2)
        w2 %= p
        if w2 == 0:
            raise CompressionError(
                "element lies on the exceptional line c2 = 0 (includes alpha = x)"
            )
        return (w0 - norm) % p, w1 % p, w2

    def _rho_pair(self, u_numerator: int, v_numerator: int, w2_inv: int) -> CompressedElement:
        # (u, v) is the wire-facing pair: exit the representation so the
        # compressed element is backend-independent (plain reduced ints).
        f = self.fp
        return CompressedElement(
            u=f.exit(f.mul(u_numerator, w2_inv)), v=f.exit(f.mul(v_numerator, w2_inv))
        )

    # -- psi: A^2 -> T6 -------------------------------------------------------------

    def decompress(self, compressed: CompressedElement) -> ExtElement:
        """Decompress (u, v) back to a torus element in the F1 basis.

        Raises :class:`CompressionError` when (u, v) lies on the exceptional
        conic u^2 + 4u + 3 + v - v^2 = 0 or parametrises the point c = 1
        (whose torus element alpha = x is itself exceptional for rho).
        """
        terms, norm = self._psi_terms(compressed)
        return self._psi_element(terms, self.fp.inv(norm))

    def decompress_many(self, compresseds) -> "list[ExtElement]":
        """Decompress N pairs with ONE batch inversion total.

        The batched dual of :meth:`compress_many`, with the same
        exceptional-set errors as :meth:`decompress` and the same fallback
        guidance.
        """
        terms = [self._psi_terms(compressed) for compressed in compresseds]
        inverses = self.fp.inv_many([norm for _, norm in terms])
        return [
            self._psi_element(item, norm_inv)
            for (item, _), norm_inv in zip(terms, inverses)
        ]

    def _psi_terms(self, compressed: CompressedElement) -> Tuple[tuple, int]:
        """``((A, B, adj(D)), N(D))`` with alpha = (A + B*x)/D.

        The pencil through c = 1 gives c = (1 + t*u, t*v, t) with
        t = s/q, s = -(u + 2) and q = q(u, v, 1).  Then
        alpha = (c + x)/(c + x^2) = ((c^2 - 1) + (2c - 1)x)/(c^2 - c + 1)
        is homogeneous of degree 2 in c, so with C = q*c = (q + s*u, s*v, s)
        it is ((C^2 - q^2) + (2qC - q^2)x)/(C^2 - qC + q^2), and t is never
        formed.  D = C^2 - qC + q^2 is q^2 times the norm of c + x^2 to Fp3,
        never zero because x^2 is not in Fp3, so N(D) is invertible.
        """
        if self._plain:
            return self._psi_terms_plain(compressed)
        f = self.fp
        fp3 = self.fp3
        # Wire values are plain integers; enter the field's representation.
        u, v = f.enter(compressed.u % f.p), f.enter(compressed.v % f.p)
        # q(u, v, 1) = u^2 + 4u + 3 + v - v^2
        q = f.add(
            f.add(f.add(f.mul(u, u), f.mul(f.embed(4), u)), f.embed(3)),
            f.sub(v, f.mul(v, v)),
        )
        if q == 0:
            raise CompressionError("(u, v) lies on the exceptional conic of psi")
        s = f.neg(f.add(u, f.embed(2)))
        if s == 0:
            raise CompressionError("(u, v) parametrises the exceptional point c = 1")
        c = ExtElement._raw(fp3, (f.add(q, f.mul(s, u)), f.mul(s, v), s))
        c_squared = fp3.sqr(c)
        qc = fp3.scale(c, q)
        q_squared = ExtElement._raw(fp3, (f.mul(q, q), 0, 0))
        a = fp3.sub(c_squared, q_squared)
        b = fp3.sub(fp3.add(qc, qc), q_squared)
        adj, norm = fp3.adjugate(fp3.add(fp3.sub(c_squared, qc), q_squared))
        return (a, b, adj), norm

    def _psi_terms_plain(self, compressed: CompressedElement) -> Tuple[tuple, int]:
        """:meth:`_psi_terms` on integers: tau^-1((A + B*x) adj(D)) and N(D).

        tau^-1 has integer rows and is linear, so it is applied before the
        division by N(D); the six F1 coordinates then need one product each.
        """
        p = self.fp.p
        u, v = compressed.u % p, compressed.v % p
        q = (u * u + 4 * u + 3 + v - v * v) % p
        if q == 0:
            raise CompressionError("(u, v) lies on the exceptional conic of psi")
        s = -(u + 2) % p
        if s == 0:
            raise CompressionError("(u, v) parametrises the exceptional point c = 1")
        c0, c1 = (q + s * u) % p, s * v % p
        cc0, cc1, cc2 = _fp3_mul(c0, c1, s, c0, c1, s)
        qc0, qc1, qc2 = q * c0, q * c1, q * s
        qq = q * q
        adj0, adj1, adj2, norm = _fp3_adjugate(
            (cc0 - qc0 + qq) % p, (cc1 - qc1) % p, (cc2 - qc2) % p, p
        )
        a0, a1, a2 = (x % p for x in _fp3_mul(cc0 - qq, cc1, cc2, adj0, adj1, adj2))
        b0, b1, b2 = (
            x % p for x in _fp3_mul(2 * qc0 - qq, 2 * qc1, 2 * qc2, adj0, adj1, adj2)
        )
        terms = (
            a0 + 2 * a2, a1 - a2 + b2, a2 - a1 + b1, b0 + 2 * b2, b1 - a2, b2 - a1
        )
        return terms, norm

    def _psi_element(self, terms: tuple, norm_inv: int) -> ExtElement:
        """alpha = (a + b*x)/D, given the terms and 1/N(D), in the F1 basis."""
        if self._plain:
            p = self.fp.p
            return ExtElement._raw(self.fp6, tuple(t * norm_inv % p for t in terms))
        fp3 = self.fp3
        a, b, adj = terms
        d_inv = fp3.scale(adj, norm_inv)
        return self.map.to_f1(TowerElement(self.tower, fp3.mul(a, d_inv), fp3.mul(b, d_inv)))

    def decompress_to_element(self, compressed: CompressedElement):
        """Decompress and wrap as a :class:`~repro.torus.t6.TorusElement`."""
        from repro.torus.t6 import TorusElement

        return TorusElement(self.group, self.decompress(compressed))
