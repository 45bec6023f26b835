"""The algebraic torus T6(Fp) as a group.

T6(Fp) is the subgroup of Fp6* of order Phi_6(p) = p^2 - p + 1 — equivalently
the elements whose norms to both proper subfields Fp2 and Fp3 equal 1.  The
group object wraps the F1 field representation (where all the paper's
exponentiation arithmetic happens), exposes membership tests, generators of
the prime-order subgroup, cheap inversion via the Frobenius (for alpha in T6,
alpha^-1 = alpha^(p^3)) and compression/decompression via
:mod:`repro.torus.compression`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import NotInTorusError, ParameterError
from repro.exp.group import TorusExpGroup
from repro.exp.strategies import (
    FixedBaseTable,
    double_exponentiate,
    exponentiate,
    exponentiate_many,
    exponentiate_shared_base,
)
from repro.exp.trace import OpTrace
from repro.field.extension import ExtElement
from repro.nt.sampling import resolve_rng
from repro.field.fp import PrimeField
from repro.field.fp6 import Fp6Field, make_fp6
from repro.torus.params import TorusParameters


class TorusElement:
    """An element of T6(Fp), wrapping its F1 (z-basis) representation."""

    __slots__ = ("group", "value")

    def __init__(self, group: "T6Group", value: ExtElement, check: bool = False):
        self.group = group
        self.value = value
        if check and not group.contains_raw(value):
            raise NotInTorusError(f"{value!r} is not in T6(Fp)")

    # -- group operations ------------------------------------------------------

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement) or other.group.params != self.group.params:
            raise ParameterError("torus elements belong to different groups")
        return TorusElement(self.group, self.group.fp6.mul(self.value, other.value))

    def __truediv__(self, other: "TorusElement") -> "TorusElement":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "TorusElement":
        return self.group.exponentiate(self, exponent)

    def inverse(self) -> "TorusElement":
        """Inverse via the Frobenius: alpha^-1 = alpha^(p^3) on the torus.

        T6(Fp) lies inside the norm-1 subgroup of Fp6 over Fp3, i.e.
        alpha * alpha^(p^3) = 1, so inversion costs one (linear) Frobenius map
        instead of an extended-gcd inversion.
        """
        return TorusElement(self.group, self.group.fp6.frobenius(self.value, 3))

    def square(self) -> "TorusElement":
        return TorusElement(self.group, self.group.fp6.sqr(self.value))

    def frobenius(self, k: int = 1) -> "TorusElement":
        """alpha -> alpha^(p^k); stays inside the torus."""
        return TorusElement(self.group, self.group.fp6.frobenius(self.value, k))

    # -- predicates / conversions ---------------------------------------------

    def is_identity(self) -> bool:
        return self.value.is_one()

    def coefficients(self) -> tuple:
        """The six Fp coordinates in the basis {1, z, ..., z^5}."""
        return self.value.coeffs

    def compress(self):
        """Compress to two Fp values (delegates to the group's compressor)."""
        return self.group.compressor.compress(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TorusElement)
            and self.group.params == other.group.params
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.group.params.p, self.value.coeffs))

    def __repr__(self) -> str:
        return f"TorusElement({self.value.coeffs})"


class T6Group:
    """T6(Fp) with a distinguished prime-order subgroup of order q.

    Its five exponentiation methods take and return :class:`TorusElement`
    values, but the engine computes on raw F1 values through
    :meth:`exp_group`: each method unwraps ``.value`` once on the way in and
    wraps one :class:`TorusElement` per result on the way out, and the
    cached generator table holds raw values.
    """

    def __init__(self, params: TorusParameters, validate: bool = False, backend=None):
        if validate:
            params.validate()
        self.params = params
        self.fp = PrimeField(params.p, check_prime=False, backend=backend)
        self.fp6: Fp6Field = make_fp6(self.fp)
        self._generator: Optional[TorusElement] = None
        self._compressor = None
        self._exp_group: Optional[TorusExpGroup] = None
        self._generator_table: Optional[FixedBaseTable] = None

    # -- derived objects --------------------------------------------------------

    @property
    def compressor(self):
        """The rho/psi compression map object (built lazily)."""
        if self._compressor is None:
            from repro.torus.compression import TorusCompressor

            self._compressor = TorusCompressor(self)
        return self._compressor

    @property
    def order(self) -> int:
        """|T6(Fp)| = p^2 - p + 1."""
        return self.params.torus_order

    @property
    def subgroup_order(self) -> int:
        """Order q of the working prime-order subgroup."""
        return self.params.q

    def identity(self) -> TorusElement:
        return TorusElement(self, self.fp6.one())

    # -- membership --------------------------------------------------------------

    def contains_raw(self, value: ExtElement) -> bool:
        """Membership test on a raw Fp6 element."""
        return self.fp6.is_in_torus(value)

    def contains(self, element: TorusElement) -> bool:
        return self.contains_raw(element.value)

    def element(self, value: ExtElement, check: bool = True) -> TorusElement:
        """Wrap a raw Fp6 element, optionally verifying torus membership."""
        return TorusElement(self, value, check=check)

    # -- element generation --------------------------------------------------------

    def random_element(self, rng: Optional[random.Random] = None) -> TorusElement:
        """Uniformly random element of T6(Fp) (cofactor projection of a random unit)."""
        rng = resolve_rng(rng)
        while True:
            candidate = self.fp6.random_nonzero(rng)
            projected = self.fp6.project_to_torus(candidate)
            if not projected.is_zero():
                return TorusElement(self, projected)

    def random_subgroup_element(self, rng: Optional[random.Random] = None) -> TorusElement:
        """Random element of the order-q subgroup: generator^k for random k."""
        from repro.nt.sampling import sample_exponent

        exponent = sample_exponent(self.params.q, rng)
        return self.generator_power(exponent)

    def generator(self) -> TorusElement:
        """A fixed generator of the order-q subgroup.

        Deterministic: project the element z + 3 of Fp6* into the torus and
        raise it to (p^2 - p + 1)/q; retry with z + 4, z + 5, ... in the
        (astronomically unlikely) case the result is the identity.
        """
        if self._generator is not None:
            return self._generator
        shift = 3
        while True:
            seed = self.fp6([shift, 1])
            candidate = self.fp6.project_to_torus(seed)
            candidate = self.fp6.pow(candidate, self.params.cofactor)
            if not candidate.is_one():
                self._generator = TorusElement(self, candidate)
                return self._generator
            shift += 1
            if shift > 64:  # pragma: no cover - would indicate broken parameters
                raise ParameterError("could not find a subgroup generator")

    # -- exponentiation -------------------------------------------------------------

    def exp_group(self) -> TorusExpGroup:
        """T6(Fp) as a :class:`repro.exp` group over raw F1 values."""
        if self._exp_group is None:
            self._exp_group = TorusExpGroup(self)
        return self._exp_group

    def exponentiate(
        self,
        element: TorusElement,
        exponent: int,
        strategy: str = "auto",
        count: Optional[OpTrace] = None,
    ) -> TorusElement:
        """Exponentiation in the torus through the unified engine.

        The default strategy is ``split`` for exponents wider than p: write
        e = e0 + e1*p and walk both wNAF digit strings on one ~bits(p)
        squaring chain, with the p-power Frobenius supplying ``alpha^p``.
        Narrower exponents use plain wNAF.  Inversion is a free Frobenius
        map too, so signed digits cost nothing, and negative exponents use
        the same cheap inversion.
        """
        return TorusElement(
            self,
            exponentiate(
                self.exp_group(), element.value, exponent, strategy=strategy, trace=count
            ),
        )

    def exponentiate_many(
        self,
        elements,
        exponents,
        strategy: str = "auto",
        count: Optional[OpTrace] = None,
    ) -> list:
        """Index-aligned batch exponentiation through the engine's batch entry.

        Runs sharing a base (the server's public value across a coalesced
        group, say) amortize one fixed-base table; value-identical to a loop
        of :meth:`exponentiate` calls.
        """
        values = exponentiate_many(
            self.exp_group(),
            [element.value for element in elements],
            exponents,
            strategy=strategy,
            trace=count,
        )
        return [TorusElement(self, value) for value in values]

    def exponentiate_shared_base(
        self,
        element: TorusElement,
        exponents,
        strategy: str = "auto",
        count: Optional[OpTrace] = None,
    ) -> list:
        """``element^e`` for many exponents off one shared fixed-base table."""
        values = exponentiate_shared_base(
            self.exp_group(), element.value, exponents, strategy=strategy, trace=count
        )
        return [TorusElement(self, value) for value in values]

    def generator_power(
        self, exponent: int, count: Optional[OpTrace] = None
    ) -> TorusElement:
        """``generator^exponent`` from a cached fixed-base table.

        The width-4 signed table of the generator's raw value is built once
        per group; its rows cover bits(p), and the p-power Frobenius maps
        the high half of e = e0 + e1*p.  Each call then needs ~n/4 * 15/16
        Fp6 products (~72 for the 311-bit q of ceilidh-170), a free
        Frobenius inversion per negative digit and no squarings — the fast
        path for key generation, ephemeral DH values and Schnorr
        commitments.
        """
        if self._generator_table is None:
            self._generator_table = FixedBaseTable(
                self.exp_group(), self.generator().value, self.params.q.bit_length()
            )
        return TorusElement(self, self._generator_table.power(exponent, trace=count))

    def double_exponentiate(
        self,
        element_a: TorusElement,
        exponent_a: int,
        element_b: TorusElement,
        exponent_b: int,
        count: Optional[OpTrace] = None,
    ) -> TorusElement:
        """Shamir/Straus ``a^ea * b^eb`` on one shared squaring chain."""
        return TorusElement(
            self,
            double_exponentiate(
                self.exp_group(),
                element_a.value,
                exponent_a,
                element_b.value,
                exponent_b,
                trace=count,
            ),
        )

    def __repr__(self) -> str:
        return f"T6Group({self.params!r})"
