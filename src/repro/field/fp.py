"""The base prime field Fp.

All modular reductions in the library funnel through :class:`PrimeField`, so
that an operation-counting subclass (see :mod:`repro.field.opcount`) can
observe exactly how many Fp multiplications and additions a higher-level
routine performs — the quantity the paper's cost analysis is written in
(18M + 60A per Fp6 multiplication, and so on).

Since the backend refactor the field also carries a **word-level arithmetic
backend** (:mod:`repro.field.backend`): the default :class:`PlainBackend`
keeps the historical plain-integer fast path, while the Montgomery-resident
backends keep every element in Montgomery form across whole protocol runs.
Plain integers cross into the field's representation exactly once, through
:meth:`PrimeField.enter` (or the element/constant constructors, which call
it), and leave through :meth:`PrimeField.exit` at wire/encode boundaries.
The representation-linear operations (add/sub/neg/half) are shared; the
multiplicative ones delegate to the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import FieldMismatchError, NotInvertibleError, ParameterError
from repro.exp.group import FieldExpGroup
from repro.exp.strategies import exponentiate
from repro.exp.trace import OpTrace
from repro.field.backend import get_backend
from repro.nt.modular import modinv, sqrt_mod_prime, legendre_symbol
from repro.nt.primality import is_probable_prime
from repro.nt.sampling import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - typing only (post-PR 3, sampling
    # defaults route through resolve_rng; no runtime use of `random` remains)
    import random


class PrimeField:
    """The field of integers modulo a prime ``p``.

    The arithmetic methods (:meth:`add`, :meth:`mul`, ...) act on *resident*
    integers — reduced modulo ``p`` and, for a Montgomery backend, already in
    Montgomery form; :class:`FpElement` wraps them with operator syntax for
    user-facing code.  With the default plain backend "resident" simply means
    "reduced", and nothing about the historical behaviour changes.
    """

    def __init__(self, p: int, check_prime: bool = True, backend=None):
        if p < 2:
            raise ParameterError(f"field characteristic must be >= 2, got {p}")
        if check_prime and not is_probable_prime(p):
            raise ParameterError(f"{p} is not prime")
        self.p = p
        spec = get_backend(backend)
        self.backend_name = spec.name
        self.backend = spec.bind(p)
        #: The resident representation of 1 (``R mod p`` under Montgomery).
        self.one_value = self.backend.one
        #: True when field operations are unobserved plain-integer
        #: arithmetic, so a caller may run them inline on ints: a counting
        #: subclass must keep seeing every M and A, and a resident backend
        #: owns the product semantics, so both keep the field methods.
        self.plain_arithmetic = type(self) is PrimeField and self.backend.plain
        if self.backend.rebind:
            if type(self) is not PrimeField:
                raise ParameterError(
                    f"{type(self).__name__} instruments the plain arithmetic "
                    "path and only supports the plain backend"
                )
            # Rebind the multiplicative (and, for counting backends, the
            # additive) operations to the backend's resident implementations.
            # Plain fields keep the class-level fast path below untouched.
            self.add = self.backend.add
            self.sub = self.backend.sub
            self.mul = self.backend.mul
            self.sqr = self.backend.sqr
            self.inv = self.backend.inv
            self.inv_many = self.backend.inv_many
        self._exp_group: Optional[FieldExpGroup] = None

    # -- representation boundary -------------------------------------------

    def enter(self, x: int) -> int:
        """Map a plain reduced integer into the field's representation."""
        return self.backend.enter(x)

    def exit(self, x: int) -> int:
        """Map a resident value back to its plain reduced integer."""
        return self.backend.exit(x)

    def embed(self, k: int) -> int:
        """Resident representation of the integer constant ``k`` (any sign)."""
        return self.backend.enter(k % self.p)

    # -- basic arithmetic on resident integers ------------------------------

    def add(self, a: int, b: int) -> int:
        """Return ``a + b mod p``."""
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        """Return ``a - b mod p``."""
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a: int) -> int:
        """Return ``-a mod p``."""
        return (self.p - a) if a else 0

    def mul(self, a: int, b: int) -> int:
        """Return ``a * b mod p``."""
        return a * b % self.p

    def sqr(self, a: int) -> int:
        """Return ``a^2 mod p`` (counted as a multiplication)."""
        return a * a % self.p

    def inv(self, a: int) -> int:
        """Return ``a^-1 mod p``."""
        return modinv(a, self.p)

    def inv_many(self, values) -> list:
        """Invert N resident values with 1 inversion + 3(N-1) multiplications.

        Montgomery's batch-inversion trick, phrased over :meth:`mul` and
        :meth:`inv` so an operation-counting subclass observes exactly the
        claimed cost; non-plain backends rebind this to the backend's own
        :meth:`~repro.field.backend.FieldOps.inv_many`.  A zero anywhere in
        the batch raises :class:`~repro.errors.NotInvertibleError` before
        any work is done.
        """
        values = list(values)
        n = len(values)
        if n == 0:
            return []
        if n == 1:
            return [self.inv(values[0])]
        for value in values:
            if value == 0:
                raise NotInvertibleError(0, self.p)
        mul = self.mul
        prefix = values[:]
        acc = prefix[0]
        for i in range(1, n):
            acc = mul(acc, values[i])
            prefix[i] = acc
        inv_acc = self.inv(acc)
        out = [0] * n
        for i in range(n - 1, 0, -1):
            out[i] = mul(inv_acc, prefix[i - 1])
            inv_acc = mul(inv_acc, values[i])
        out[0] = inv_acc
        return out

    def exp_group(self) -> FieldExpGroup:
        """The multiplicative group Fp* as seen by :mod:`repro.exp`."""
        if self._exp_group is None:
            self._exp_group = FieldExpGroup(self)
        return self._exp_group

    def pow(
        self,
        a: int,
        e: int,
        strategy: str = "auto",
        trace: Optional[OpTrace] = None,
    ) -> int:
        """Return ``a^e mod p`` (``e`` may be negative).

        Delegates to the unified exponentiation engine when a ``strategy`` or
        ``trace`` is requested; the plain call keeps the backend's native
        power (Python's C-level ``pow``, or the resident Montgomery power —
        a single Fp power is not a loop worth recoding).
        """
        if trace is None and strategy == "auto":
            if self.backend.rebind:
                return self.backend.pow(a, e)
            if e < 0:
                return pow(self.inv(a % self.p), -e, self.p)
            return pow(a, e, self.p)
        return exponentiate(self.exp_group(), a % self.p, e, strategy=strategy, trace=trace)

    def half(self, a: int) -> int:
        """Return ``a / 2 mod p`` for odd ``p`` (representation-linear)."""
        return (a >> 1) if a % 2 == 0 else ((a + self.p) >> 1)

    # -- derived helpers ----------------------------------------------------

    def reduce(self, a: int) -> int:
        """Reduce an arbitrary *plain* integer into ``[0, p)``.

        A plain-value helper — it does not enter the representation; use
        :meth:`enter` / :meth:`embed` for that.
        """
        return a % self.p

    def sqrt(self, a: int) -> int:
        """Square root modulo ``p`` of a resident value (raises for
        non-residues); the result is resident again."""
        if self.backend.plain:
            return sqrt_mod_prime(a, self.p)
        return self.enter(sqrt_mod_prime(self.exit(a), self.p))

    def is_square(self, a: int) -> bool:
        """True when ``a`` is a quadratic residue (0 counts as a square)."""
        value = a if self.backend.plain else self.exit(a)
        return value % self.p == 0 or legendre_symbol(value, self.p) == 1

    def random_element(self, rng: Optional["random.Random"] = None) -> int:
        """Uniformly random element of the field.

        The draw is a plain integer (so seeded runs pick the same *logical*
        element under every backend) and is entered into the representation.
        """
        rng = resolve_rng(rng)
        return self.backend.enter(rng.randrange(self.p))

    def random_nonzero(self, rng: Optional["random.Random"] = None) -> int:
        """Uniformly random non-zero element of the field."""
        rng = resolve_rng(rng)
        return self.backend.enter(rng.randrange(1, self.p))

    # -- element factory ----------------------------------------------------

    def __call__(self, value: int) -> "FpElement":
        """Wrap a *plain* integer (any size/sign) as a field element."""
        return FpElement(self, self.backend.enter(value % self.p))

    def zero(self) -> "FpElement":
        return FpElement(self, 0)

    def one(self) -> "FpElement":
        return FpElement(self, self.one_value)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # Equality includes the value representation (with R for Montgomery
        # residency), so elements of representation-incompatible fields trip
        # the FieldMismatchError guards instead of silently mixing.
        return (
            isinstance(other, PrimeField)
            and self.p == other.p
            and self.backend.representation_key == other.backend.representation_key
        )

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p, self.backend.representation_key))

    def __repr__(self) -> str:
        suffix = "" if self.backend_name == "plain" else f", backend={self.backend_name!r}"
        return f"PrimeField(p={self.p}{suffix})"


class FpElement:
    """A single element of a :class:`PrimeField`, with operator overloading.

    ``value`` is the *resident* integer; :meth:`__int__` and
    :meth:`to_plain` return the plain reduced integer regardless of backend.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value % field.p

    def _coerce(self, other: object) -> "FpElement":
        if isinstance(other, FpElement):
            if other.field != self.field:
                raise FieldMismatchError("elements belong to different prime fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.field.add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other: object) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.field.sub(self.value, other.value))

    def __rsub__(self, other: object) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.field.sub(other.value, self.value))

    def __neg__(self) -> "FpElement":
        return FpElement(self.field, self.field.neg(self.value))

    def __mul__(self, other: object) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.field.mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.field.mul(self.value, self.field.inv(other.value)))

    def __rtruediv__(self, other: object) -> "FpElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.field, self.field.mul(other.value, self.field.inv(self.value)))

    def __pow__(self, exponent: int) -> "FpElement":
        return FpElement(self.field, self.field.pow(self.value, exponent))

    def inverse(self) -> "FpElement":
        """Multiplicative inverse."""
        return FpElement(self.field, self.field.inv(self.value))

    def sqrt(self) -> "FpElement":
        """A square root (raises for non-residues)."""
        return FpElement(self.field, self.field.sqrt(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def to_plain(self) -> int:
        """The plain reduced integer this element represents."""
        return self.field.exit(self.value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.to_plain() == other % self.field.p
        return (
            isinstance(other, FpElement)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.to_plain()))

    def __int__(self) -> int:
        return self.to_plain()

    def __repr__(self) -> str:
        return f"FpElement({self.to_plain()} mod {self.field.p})"
