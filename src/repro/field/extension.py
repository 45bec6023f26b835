"""Generic extension fields Fp[t]/(f(t)).

The CEILIDH tower uses three concrete extensions (degrees 2, 3 and 6); all of
them are instances of this generic construction, which provides schoolbook
multiplication, inversion via the extended Euclidean algorithm, Frobenius
maps, norms and traces.  Each concrete field overrides the hot operations
with closed forms: Fp2 a 3M Karatsuba product (:mod:`repro.field.fp2`), Fp3
a 6M product and an adjugate inversion (:mod:`repro.field.fp3`), and Fp6 the
paper's 18M multiplication (:mod:`repro.field.fp6`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import FieldMismatchError, ParameterError
from repro.field import poly as P
from repro.field.fp import PrimeField
from repro.nt.sampling import resolve_rng


class ExtElement:
    """An element of an :class:`ExtensionField`, stored as a coefficient tuple.

    Coefficients are *resident* base-field values (see
    :mod:`repro.field.backend`): internal arithmetic constructs elements
    directly from resident coefficients, while plain integers enter the
    representation through :meth:`ExtensionField.__call__` /
    :meth:`ExtensionField.from_base`.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "ExtensionField", coeffs: Sequence[int]):
        if len(coeffs) != field.degree:
            raise ParameterError(
                f"expected {field.degree} coefficients, got {len(coeffs)}"
            )
        self.field = field
        self.coeffs: Tuple[int, ...] = tuple(c % field.base.p for c in coeffs)

    @classmethod
    def _raw(cls, field: "ExtensionField", coeffs: Tuple[int, ...]) -> "ExtElement":
        """Wrap coefficients already reduced into ``[0, p)`` without checks.

        Hot-path constructor for arithmetic that guarantees reduction itself
        (the closed-form products, and sums of base-field results); skips the
        per-coefficient ``% p`` and the length validation of ``__init__``.
        """
        element = object.__new__(cls)
        element.field = field
        element.coeffs = coeffs
        return element

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "ExtElement") -> None:
        if not isinstance(other, ExtElement) or other.field is not self.field:
            if isinstance(other, ExtElement) and other.field == self.field:
                return
            raise FieldMismatchError("elements belong to different extension fields")

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        return self.field.add(self, other)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        return self.field.sub(self, other)

    def __neg__(self) -> "ExtElement":
        return self.field.neg(self)

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        return self.field.mul(self, other)

    def __truediv__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        return self.field.mul(self, self.field.inv(other))

    def __pow__(self, exponent: int) -> "ExtElement":
        return self.field.pow(self, exponent)

    def inverse(self) -> "ExtElement":
        """Multiplicative inverse."""
        return self.field.inv(self)

    def frobenius(self, k: int = 1) -> "ExtElement":
        """Apply the Frobenius map ``a -> a^(p^k)``."""
        return self.field.frobenius(self, k)

    def conjugates(self) -> List["ExtElement"]:
        """All Galois conjugates (including the element itself)."""
        return [self.frobenius(k) for k in range(self.field.degree)]

    def norm(self) -> int:
        """Norm down to the base prime field."""
        return self.field.norm(self)

    def trace(self) -> int:
        """Trace down to the base prime field."""
        return self.field.trace(self)

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == self.field.base.one_value and all(
            c == 0 for c in self.coeffs[1:]
        )

    def scalar_part(self) -> int:
        """The constant coefficient as a *resident* base-field value."""
        return self.coeffs[0]

    def in_base_field(self) -> bool:
        """True when every non-constant coefficient vanishes."""
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.base.p, self.field.modulus_tuple, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{self.field.var}")
            else:
                terms.append(f"{c}*{self.field.var}^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in {self.field.name}>"


class ExtensionField:
    """The quotient ring Fp[t]/(f(t)) for an irreducible modulus ``f``."""

    def __init__(
        self,
        base: PrimeField,
        modulus: Sequence[int],
        name: str = "Fp^k",
        var: str = "t",
        check_irreducible: bool = True,
    ):
        # The modulus arrives as plain integer coefficients; enter them into
        # the base field's representation before any resident arithmetic.
        modulus = [base.enter(c % base.p) for c in P.trim(modulus)]
        if P.degree(modulus) < 1:
            raise ParameterError("modulus must have degree >= 1")
        if modulus[-1] != base.one_value:
            inv_lead = base.inv(modulus[-1])
            modulus = [base.mul(c, inv_lead) for c in modulus]
        if check_irreducible and not P.is_irreducible(base, modulus):
            raise ParameterError(f"modulus {modulus} is reducible over F_{base.p}")
        self.base = base
        self.modulus: List[int] = list(modulus)
        self.modulus_tuple = tuple(modulus)
        self.degree = P.degree(modulus)
        self.name = name
        self.var = var
        self._frobenius_matrices: dict = {}
        self._exp_group = None

    # -- element constructors ----------------------------------------------

    def __call__(self, coeffs: Sequence[int]) -> ExtElement:
        """Build an element from *plain* integer coefficients (any size/sign)."""
        base = self.base
        entered = [base.enter(c % base.p) for c in coeffs]
        return self._from_coeffs(entered)

    def _from_coeffs(self, coeffs: Sequence[int]) -> ExtElement:
        """Build an element from coefficients already *resident* in the base
        field (internal arithmetic and representation-aware callers)."""
        padded = list(coeffs) + [0] * (self.degree - len(coeffs))
        if len(padded) > self.degree:
            reduced = P.poly_mod(self.base, list(coeffs), self.modulus)
            padded = list(reduced) + [0] * (self.degree - len(reduced))
        return ExtElement(self, padded)

    def from_base(self, value: int) -> ExtElement:
        """Embed a plain Fp integer as a constant."""
        return self([value])

    def zero(self) -> ExtElement:
        return self([0])

    def one(self) -> ExtElement:
        return self([1])

    def generator(self) -> ExtElement:
        """The residue class of the variable ``t``."""
        return self([0, 1])

    def random_element(self, rng: Optional[random.Random] = None) -> ExtElement:
        rng = resolve_rng(rng)
        return self([rng.randrange(self.base.p) for _ in range(self.degree)])

    def random_nonzero(self, rng: Optional[random.Random] = None) -> ExtElement:
        while True:
            element = self.random_element(rng)
            if not element.is_zero():
                return element

    # -- arithmetic ---------------------------------------------------------

    # Base-field add/sub/neg return reduced residents, so the results skip
    # the re-reducing constructor.

    def add(self, a: ExtElement, b: ExtElement) -> ExtElement:
        add = self.base.add
        return ExtElement._raw(self, tuple([add(x, y) for x, y in zip(a.coeffs, b.coeffs)]))

    def sub(self, a: ExtElement, b: ExtElement) -> ExtElement:
        sub = self.base.sub
        return ExtElement._raw(self, tuple([sub(x, y) for x, y in zip(a.coeffs, b.coeffs)]))

    def neg(self, a: ExtElement) -> ExtElement:
        neg = self.base.neg
        return ExtElement._raw(self, tuple([neg(x) for x in a.coeffs]))

    def scalar_mul(self, a: ExtElement, c: int) -> ExtElement:
        """Multiply by the *plain* integer scalar ``c``."""
        base = self.base
        resident = base.embed(c)
        return ExtElement(self, [base.mul(x, resident) for x in a.coeffs])

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        product = P.poly_mul(self.base, list(a.coeffs), list(b.coeffs))
        reduced = P.poly_mod(self.base, product, self.modulus)
        return self._from_coeffs(list(reduced))

    def sqr(self, a: ExtElement) -> ExtElement:
        return self.mul(a, a)

    def inv(self, a: ExtElement) -> ExtElement:
        if a.is_zero():
            raise ParameterError("cannot invert zero")
        inverse = P.poly_inverse_mod(self.base, list(a.coeffs), self.modulus)
        return self._from_coeffs(list(inverse))

    def exp_group(self):
        """This field's unit group as seen by :mod:`repro.exp`."""
        if self._exp_group is None:
            from repro.exp.group import ExtensionExpGroup

            self._exp_group = ExtensionExpGroup(self)
        return self._exp_group

    def pow(
        self, a: ExtElement, e: int, strategy: str = "auto", trace=None
    ) -> ExtElement:
        """``a^e`` via the unified engine (sliding window by default)."""
        from repro.exp.strategies import exponentiate

        return exponentiate(self.exp_group(), a, e, strategy=strategy, trace=trace)

    # -- Galois structure ----------------------------------------------------

    def _frobenius_matrix(self, k: int) -> List[List[int]]:
        """Matrix (columns = images of basis powers) of ``a -> a^(p^k)``."""
        k %= self.degree
        if k in self._frobenius_matrices:
            return self._frobenius_matrices[k]
        p = self.base.p
        one = self.base.one_value
        # Image of t under Frobenius^k.
        t_image = P.poly_pow_mod(self.base, [0, one], p ** k, self.modulus)
        columns: List[List[int]] = []
        current: List[int] = [one]
        for _ in range(self.degree):
            padded = list(current) + [0] * (self.degree - len(current))
            columns.append(padded)
            current = P.poly_mod(
                self.base, P.poly_mul(self.base, current, t_image), self.modulus
            )
        self._frobenius_matrices[k] = columns
        return columns

    def frobenius(self, a: ExtElement, k: int = 1) -> ExtElement:
        """Apply ``a -> a^(p^k)`` using the cached linear map."""
        k %= self.degree
        if k == 0:
            return a
        columns = self._frobenius_matrix(k)
        base = self.base
        out = [0] * self.degree
        for j, coeff in enumerate(a.coeffs):
            if coeff == 0:
                continue
            column = columns[j]
            for i in range(self.degree):
                if column[i]:
                    out[i] = base.add(out[i], base.mul(coeff, column[i]))
        return ExtElement(self, out)

    def norm(self, a: ExtElement) -> int:
        """Norm to Fp: product of all conjugates, as a *plain* integer."""
        acc = self.one()
        for k in range(self.degree):
            acc = self.mul(acc, self.frobenius(a, k))
        if not acc.in_base_field():
            raise ParameterError("norm did not land in the base field (bug)")
        return self.base.exit(acc.scalar_part())

    def trace(self, a: ExtElement) -> int:
        """Trace to Fp: sum of all conjugates, as a *plain* integer."""
        acc = self.zero()
        for k in range(self.degree):
            acc = self.add(acc, self.frobenius(a, k))
        if not acc.in_base_field():
            raise ParameterError("trace did not land in the base field (bug)")
        return self.base.exit(acc.scalar_part())

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtensionField)
            and self.base == other.base
            and self.modulus_tuple == other.modulus_tuple
        )

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.base.p, self.modulus_tuple))

    def __repr__(self) -> str:
        return f"{self.name}(p={self.base.p}, modulus={self.modulus})"
