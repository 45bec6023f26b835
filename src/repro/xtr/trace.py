"""XTR trace arithmetic.

An order-q subgroup element g of Fp6* (q | p^2 - p + 1) is represented by its
trace to Fp2:

    c_n = Tr_{Fp6/Fp2}(g^n) = g^n + g^(n*p^2) + g^(n*p^4)  in Fp2.

The conjugates g, g^(p^2), g^(p^4) are the roots of
``X^3 - c_1 X^2 + c_1^p X - 1``, so the traces satisfy the third-order linear
recurrence ``c_(n+3) = c_1 c_(n+2) - c_1^p c_(n+1) + c_n`` together with the
doubling/addition identities

    c_(2n)   = c_n^2 - 2 c_n^p,
    c_(m+n)  = c_m c_n - c_n^p c_(m-n) + c_(m-2n),
    c_(-n)   = c_n^p.

Exponentiation walks the exponent bits with the triple
``S_k = (c_(k-1), c_k, c_(k+1))`` exactly as in Lenstra-Verheul; each step
costs a handful of Fp2 multiplications, which is what makes XTR competitive
with CEILIDH (the comparison the paper cites).  Every identity used here is
cross-checked in the tests against direct Fp6 computation of the traces.

The ladder works on bare ``(a0, a1)`` coefficient pairs.  Over a plain base
field each step is raw integer arithmetic reduced once per output
coordinate (the gate :class:`~repro.field.fp6.Fp6Field` uses for its fast
product).  Over resident and counting base fields each step calls the base
field's operations in the order of the platform's level-2 step sequences,
with :meth:`~repro.field.fp2.Fp2Field.mul_pair` as the product, so the
measured word-operation stream is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ParameterError
from repro.exp.trace import OpTrace
from repro.field.extension import ExtElement
from repro.field.fp import PrimeField
from repro.field.fp2 import make_fp2
from repro.field.fp6 import Fp6Field, make_fp6
from repro.field.towers import F1ToF2Map, TowerFp6
from repro.nt.sampling import sample_exponent
from repro.torus.params import TorusParameters


@dataclass(frozen=True)
class XtrTrace:
    """A subgroup element in XTR representation: the Fp2 value Tr(g^n)."""

    coefficients: Tuple[int, int]

    def as_tuple(self) -> Tuple[int, int]:
        return self.coefficients


class XtrContext:
    """Trace arithmetic for one CEILIDH/XTR parameter set.

    The context carries the Fp2 field, the Frobenius (conjugation) map and the
    exponentiation ladder; it also knows how to compute traces directly from
    Fp6 elements, which the tests use to validate the recurrences and which
    applications use to derive an XTR representation of a torus element.
    """

    def __init__(self, params: TorusParameters, backend=None):
        self.params = params
        self._backend = backend
        self.fp = PrimeField(params.p, check_prime=False, backend=backend)
        self.fp2 = make_fp2(self.fp)
        if type(self.fp) is PrimeField and self.fp.backend.plain:
            self._steps = _plain_steps(params.p)
        else:
            self._steps = _field_steps(self.fp2)
        self._fp6: Optional[Fp6Field] = None
        self._tower: Optional[TowerFp6] = None
        self._map: Optional[F1ToF2Map] = None
        self._generator_trace: Optional[XtrTrace] = None

    # -- direct traces from Fp6 (reference path) -------------------------------------

    @property
    def fp6(self) -> Fp6Field:
        if self._fp6 is None:
            self._fp6 = make_fp6(self.fp)
            self._tower = TowerFp6(self.fp)
            self._map = F1ToF2Map(self._fp6, self._tower)
        return self._fp6

    def trace_of_fp6(self, value: ExtElement) -> XtrTrace:
        """Tr_{Fp6/Fp2} of an Fp6 element (direct computation, 3 conjugates)."""
        fp6 = self.fp6
        total = fp6.zero()
        for k in (0, 2, 4):
            total = fp6.add(total, fp6.frobenius(value, k))
        tower_value = self._map.to_f2(total)
        if not tower_value.a.in_base_field() or not tower_value.b.in_base_field():
            raise ParameterError("trace did not land in Fp2 (element not in Fp6?)")
        f = self.fp
        return XtrTrace(
            coefficients=(
                f.exit(tower_value.a.scalar_part()),
                f.exit(tower_value.b.scalar_part()),
            )
        )

    def generator_trace(self) -> XtrTrace:
        """Trace of the canonical order-q subgroup generator (shared with the torus)."""
        if self._generator_trace is None:
            from repro.torus.t6 import T6Group

            group = T6Group(self.params, backend=self._backend)
            self._generator_trace = self.trace_of_fp6(group.generator().value)
        return self._generator_trace

    # -- the XTR exponentiation ladder --------------------------------------------------

    def exponentiate(
        self, base_trace: XtrTrace, exponent: int, trace: Optional[OpTrace] = None
    ) -> XtrTrace:
        """Compute Tr(g^exponent) from c = Tr(g) using the LV triple ladder.

        ``trace``, when given, tallies the Fp2 multiplications of the ladder
        in the unified :class:`~repro.exp.trace.OpTrace` vocabulary: every
        ``c_2n`` double step is one Fp2 squaring, every off-by-one (mixed)
        step is two general Fp2 multiplications.  (The ladder has no single
        group operation the way torus/RSA/ECC do, so the counted unit here
        is the Fp2 multiplication — the quantity Lenstra-Verheul's own cost
        analysis is written in.)
        """
        conjugate, double, mixed = self._steps
        f = self.fp
        if exponent < 0:
            # c_(-n) = c_n^p
            positive = self.exponentiate(base_trace, -exponent, trace=trace)
            a0, a1 = positive.coefficients
            return self._read(conjugate((f.enter(a0), f.enter(a1))))
        a0, a1 = base_trace.coefficients
        c1 = (f.enter(a0), f.enter(a1))
        c1_conj = conjugate(c1)
        three = (f.enter(3), 0)

        if exponent == 0:
            return self._read(three)
        if exponent == 1:
            return base_trace
        if exponent == 2:
            if trace is not None:
                trace.squarings += 1
            return self._read(double(c1))

        # Triple S_k = (c_(k-1), c_k, c_(k+1)), starting at k = 1.
        c_prev, c_cur, c_next = three, c1, double(c1)
        if trace is not None:
            trace.squarings += 1
        for bit in bin(exponent)[3:]:
            # c_(2k-1) = c_(k-1) c_k - c_1^p c_k^p + c_(k+1)^p, then c_2k, then
            # c_(2k+1) = c_(k+1) c_k - c_1 c_k^p + c_(k-1)^p.
            c2k_minus_1 = mixed(c_prev, c_cur, c_next, c1_conj)
            c2k = double(c_cur)
            c2k_plus_1 = mixed(c_next, c_cur, c_prev, c1)
            if bit == "0":
                c_prev, c_cur, c_next = c2k_minus_1, c2k, c2k_plus_1
            else:
                c_prev, c_cur, c_next = c2k, c2k_plus_1, double(c_next)
            if trace is not None:
                trace.squarings += 1 if bit == "0" else 2
                trace.multiplications += 4
        return self._read(c_cur)

    def _read(self, pair: Tuple[int, int]) -> XtrTrace:
        """A resident coefficient pair read out as a (plain) trace value."""
        f = self.fp
        return XtrTrace(coefficients=(f.exit(pair[0]), f.exit(pair[1])))

    # -- operation counting ------------------------------------------------------------

    def ladder_multiplication_count(self, exponent_bits: int) -> int:
        """Fp2 multiplications per exponentiation (4 per bit in this ladder).

        Each Fp2 multiplication is 3-4 Fp multiplications, so an XTR
        exponentiation costs roughly 12-16 Fp multiplications per exponent
        bit, versus 18 * 1.5 = 27 for CEILIDH's binary method — the flavour of
        trade-off reported by Granger, Page and Stam.
        """
        return 4 * exponent_bits

    def random_exponent(self, rng: Optional[random.Random] = None) -> int:
        return sample_exponent(self.params.q, rng)


# -- the ladder's Fp2 steps on coefficient pairs --------------------------------------


def _plain_steps(p: int):
    """``(conjugate, double, mixed)`` on raw integer pairs modulo ``p``.

    Over a plain base field resident values are reduced integers, so every
    step computes its exact integer result and reduces each output
    coordinate once.  Same values as :func:`_field_steps`.
    """

    def conjugate(c):
        # The Frobenius a -> a^p on Fp2: x -> x^2 = -1 - x.
        a0, a1 = c
        return (a0 - a1) % p, -a1 % p

    def double(c):
        # c_2n = c_n^2 - 2 c_n^p, with c_n^2 = (a0^2 - a1^2, 2 a0 a1 - a1^2)
        # and c_n^p = (a0 - a1, -a1).
        a0, a1 = c
        return (a0 - a1) * (a0 + a1 - 2) % p, a1 * (2 * a0 - a1 + 2) % p

    def mixed(ca, ck, cb, cf):
        # ca * ck - cf * ck^p + cb^p, both products in Karatsuba form.
        a0, a1 = ca
        k0, k1 = ck
        f0, f1 = cf
        b0, b1 = cb
        t0 = a0 * k0
        t1 = a1 * k1
        t2 = (a0 + a1) * (k0 + k1)
        kc0 = k0 - k1  # ck^p = (kc0, -k1)
        u0 = f0 * kc0
        u1 = f1 * k1  # = -(f1 * (ck^p)_1)
        u2 = (f0 + f1) * (kc0 - k1)
        return (
            (t0 - t1 - u0 - u1 + b0 - b1) % p,
            (t2 - t0 - 2 * t1 - u2 + u0 - 2 * u1 - b1) % p,
        )

    return conjugate, double, mixed


def _field_steps(fp2):
    """``(conjugate, double, mixed)`` through the base field's operations.

    Each step performs the base-field additions, subtractions and
    multiplications of its level-2 sequence
    (:func:`repro.soc.sequences.xtr_double_step_program` and
    :func:`~repro.soc.sequences.xtr_mixed_step_program`), so resident
    backends keep their representation and counting backends tally exactly
    the analytic composition.  Negating the x coefficient of a conjugate is
    free, as on the platform.
    """
    f = fp2.base
    mul = fp2.mul_pair

    def conjugate(c):
        a0, a1 = c
        return f.sub(a0, a1), f.neg(a1)

    def double(c):
        square = mul(c, c)
        k0, k1 = conjugate(c)
        twice0, twice1 = f.add(k0, k0), f.add(k1, k1)
        return f.sub(square[0], twice0), f.sub(square[1], twice1)

    def mixed(ca, ck, cb, cf):
        term1 = mul(ca, ck)
        term2 = mul(cf, conjugate(ck))
        b0, b1 = conjugate(cb)
        d0, d1 = f.sub(term1[0], term2[0]), f.sub(term1[1], term2[1])
        return f.add(d0, b0), f.add(d1, b1)

    return conjugate, double, mixed
