"""The minimal group interface the exponentiation engine computes over.

Every public-key operation the paper measures is an exponentiation in *some*
group: Fp* (field powers), Fp6*/the tower (CEILIDH arithmetic), T6(Fp) (the
compressed torus), the Montgomery domain mod N (RSA), and E(Fp) (ECC, written
additively).  A :class:`Group` adapter names the three operations the engine
needs — composition, squaring/doubling and inversion — plus a
``cheap_inverse`` flag: on the torus inversion is one (free) Frobenius map and
on a curve it is a sign flip, which is what makes signed-digit recodings (NAF,
wNAF) profitable there.  A group may also declare an exact endomorphism
(``endomorphism(a) == a**endomorphism_exponent``), which the ``split``
strategy uses to shorten the squaring chain of wide exponents.

Adapters deliberately lazy-import the layers they wrap so that the engine
package itself has no dependency on any arithmetic layer (the field layer
imports the engine, not vice versa).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence


class Group:
    """Abstract multiplicative-notation group over opaque elements.

    Subclasses supply :meth:`identity`, :meth:`op` and (if supported)
    :meth:`inverse`; :meth:`square` defaults to ``op(a, a)`` but should be
    overridden when the layer has a dedicated (or dedicatedly *counted*)
    squaring.
    """

    #: Human-readable name used in reprs and error messages.
    name: str = "group"

    #: True when inversion is (nearly) free — a Frobenius application on the
    #: torus, a Y-coordinate negation on a curve — so signed-digit strategies
    #: cost nothing extra.
    cheap_inverse: bool = False

    #: ``lambda`` of an exact, (nearly) free endomorphism: ``endomorphism(a)
    #: == a**lambda`` for *every* element, or ``None`` when there is none.
    endomorphism_exponent: Optional[int] = None

    def identity(self) -> Any:
        raise NotImplementedError

    def op(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def square(self, a: Any) -> Any:
        return self.op(a, a)

    def inverse(self, a: Any) -> Any:
        raise NotImplementedError(f"{self.name} does not support inversion")

    def endomorphism(self, a: Any) -> Any:
        raise NotImplementedError(f"{self.name} declares no endomorphism")

    def is_identity(self, a: Any) -> bool:
        return a == self.identity()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FieldExpGroup(Group):
    """Fp* through a :class:`~repro.field.fp.PrimeField` (plain or counting).

    Elements are reduced integers; routing ``square`` through ``field.sqr``
    keeps the counting subclass's one-multiplication charge per squaring.
    """

    def __init__(self, field):
        self.field = field
        self.name = f"Fp(p={field.p})"

    def identity(self) -> int:
        # ``one_value`` is the field's *resident* 1 (R mod p under a
        # Montgomery backend); bare fields predating the backend layer
        # fall back to the literal.
        return getattr(self.field, "one_value", 1)

    def op(self, a: int, b: int) -> int:
        return self.field.mul(a, b)

    def square(self, a: int) -> int:
        return self.field.sqr(a)

    def inverse(self, a: int) -> int:
        return self.field.inv(a)

    def is_identity(self, a: int) -> bool:
        return a == self.identity()


class ExtensionExpGroup(Group):
    """The unit group of an :class:`~repro.field.extension.ExtensionField`.

    Also covers :class:`~repro.field.fp6.Fp6Field`, whose overridden ``mul``
    is the paper's 18M algorithm.
    """

    def __init__(self, field):
        self.field = field
        self.name = f"{field.name}(p={field.base.p})*"

    def identity(self):
        return self.field.one()

    def op(self, a, b):
        return self.field.mul(a, b)

    def square(self, a):
        return self.field.sqr(a)

    def inverse(self, a):
        return self.field.inv(a)

    def is_identity(self, a) -> bool:
        return a.is_one()


class TowerExpGroup(Group):
    """The unit group of the F2 tower representation (Fp3[x]/(x^2+x+1))."""

    def __init__(self, tower):
        self.tower = tower
        self.name = f"F2(p={tower.base.p})*"

    def identity(self):
        return self.tower.one()

    def op(self, a, b):
        return self.tower.mul(a, b)

    def inverse(self, a):
        return self.tower.inv(a)

    def is_identity(self, a) -> bool:
        return a.is_one()


class PolyModExpGroup(Group):
    """(Fp[t]/(m))* on raw little-endian coefficient lists.

    Backs :func:`repro.field.poly.poly_pow_mod`; elements are the plain
    ``Poly`` lists that module works with.
    """

    def __init__(self, field, modulus: Sequence[int]):
        from repro.field import poly as P

        self._P = P
        self.field = field
        self.modulus = list(modulus)
        self.name = f"Fp[t]/(deg {P.degree(self.modulus)})"

    def identity(self):
        return [getattr(self.field, "one_value", 1)]

    def op(self, a, b):
        P = self._P
        return P.poly_mod(self.field, P.poly_mul(self.field, a, b), self.modulus)

    def inverse(self, a):
        return self._P.poly_inverse_mod(self.field, a, self.modulus)

    def is_identity(self, a) -> bool:
        return self._P.trim(a) == self.identity()


class TorusExpGroup(Group):
    """T6(Fp) on raw F1 values (:class:`~repro.field.extension.ExtElement`).

    Every operation is one call on the group's
    :class:`~repro.field.fp6.Fp6Field`, so each product the engine makes is
    one counted ``Fp6Field.mul`` and each squaring one ``Fp6Field.sqr``:
    the cyclotomic one (6M on a plain field).  Inversion is one Frobenius
    application (``alpha^-1 = alpha^(p^3)``), so ``cheap_inverse`` is set.
    The p-power Frobenius is the declared endomorphism (``alpha^p`` for
    every element of Fp6, so of T6 too), which lets the engine's
    auto-selection split exponents wider than p.  The cyclotomic squaring
    and the Frobenius inverse hold only on T6, so operands must be torus
    members; :class:`~repro.torus.t6.T6Group` unwraps its elements'
    ``.value`` on the way in and wraps each result once on the way out.
    """

    cheap_inverse = True

    def __init__(self, group):
        self.fp6 = group.fp6
        self.name = f"T6(p={group.params.p})"
        self.endomorphism_exponent = group.params.p
        self._one = self.fp6.one()

    def identity(self):
        return self._one

    def op(self, a, b):
        return self.fp6.mul(a, b)

    def square(self, a):
        return self.fp6.sqr(a, True)

    def inverse(self, a):
        return self.fp6.frobenius(a, 3)

    def endomorphism(self, a):
        return self.fp6.frobenius(a, 1)

    def is_identity(self, a) -> bool:
        return a.is_one()


class MontgomeryExpGroup(Group):
    """(Z/N)* on Montgomery-domain residues of a ``MontgomeryDomain``.

    Callers convert in and out of the domain; every engine operation is one
    Montgomery multiplication, the unit the platform's RSA timing counts.
    """

    def __init__(self, domain):
        self.domain = domain
        self.name = f"Mont(N~2^{domain.modulus.bit_length()})"

    def identity(self) -> int:
        return self.domain.one()

    def op(self, a: int, b: int) -> int:
        return self.domain.mont_mul(a, b)

    def square(self, a: int) -> int:
        return self.domain.mont_sqr(a)

    def inverse(self, a: int) -> int:
        from repro.nt.modular import modinv

        domain = self.domain
        return domain.to_montgomery(modinv(domain.from_montgomery(a), domain.modulus))

    def is_identity(self, a: int) -> bool:
        return a == self.domain.one()


class JacobianExpGroup(Group):
    """E(Fp) in Jacobian coordinates, written multiplicatively for the engine.

    ``op`` is point addition, ``square`` is the dedicated doubling formula and
    ``inverse`` is negation (free), so signed recodings apply.
    """

    cheap_inverse = True

    def __init__(self, curve):
        from repro.ecc.point import JacobianPoint

        self._JacobianPoint = JacobianPoint
        self.curve = curve
        self.name = f"E(Fp(p={curve.field.p}))"

    def identity(self):
        return self._JacobianPoint(self.curve, 1, 1, 0)

    def op(self, a, b):
        return a.add(b)

    def square(self, a):
        return a.double()

    def inverse(self, a):
        return -a

    def is_identity(self, a) -> bool:
        return a.is_infinity()
