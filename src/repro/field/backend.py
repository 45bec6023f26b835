"""Pluggable field-arithmetic backends: one word-level substrate per field.

The paper's central claim is that a single Montgomery-multiplier datapath
serves RSA, ECC, CEILIDH and XTR alike.  This module makes that claim
executable in the reproduction: every :class:`~repro.field.fp.PrimeField`
delegates its multiplicative arithmetic to an injected **backend**, so the
entire extension tower (Fp2/Fp3/Fp6/the F2 tower), the exponentiation
engine and every registry scheme inherit the substrate selection for free.

Three backends are provided:

* :class:`PlainBackend` — today's plain-integer arithmetic (``a * b % p``).
  The default fast path; nothing about the historical behaviour changes.
* :class:`MontgomeryBackend` — elements stay **resident in Montgomery
  form** (``x -> x * R mod p`` via :class:`~repro.montgomery.domain.\
  MontgomeryDomain`) across whole protocol runs.  Addition and subtraction
  are representation-linear, so only multiplication, inversion and the
  :meth:`enter`/:meth:`exit` conversions at wire/encode boundaries differ;
  a seeded protocol run produces byte-identical wire output under either
  backend.
* :class:`WordCountingBackend` — a Montgomery-resident backend whose
  multiplications execute the **word-level FIOS algorithm**
  (:func:`repro.montgomery.fios._fios`) and stream
  :class:`~repro.montgomery.fios.FiosTrace`-style word-mult/word-add
  tallies into a shared :class:`WordOpStream`.  This is what turns the
  SoC Table 3 projection from an analytic composition into a measurement
  of the word operations the schemes actually execute (see
  :meth:`repro.soc.cost.CostModel.measured_exponentiation_cycles`).

Every bound backend also exposes :meth:`FieldOps.inv_many` — batch
inversion by Montgomery's trick (1 inversion + 3(N-1) multiplications for
N values), the primitive the serve scheduler's group dispatch and the ECC
Jacobian->affine funnel use to collapse per-session inversions.

Representation contract
-----------------------

All values handed to ``add``/``sub``/``mul``/... are *resident* — already in
the backend's representation and reduced into ``[0, p)``.  Plain integers
cross into residency exactly once, through :meth:`enter` (literal
constants, wire decodes, RNG draws), and leave exactly once, through
:meth:`exit` (wire encodes, hashes, parity checks).  ``PrimeField`` exposes
these as ``field.enter`` / ``field.exit`` / ``field.one_value`` /
``field.embed`` and the higher layers funnel every boundary through them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.errors import NotInvertibleError, ParameterError
from repro.nt.modular import modinv, modinv_euclid

__all__ = [
    "WordOpStream",
    "FieldOps",
    "PlainFieldOps",
    "MontgomeryFieldOps",
    "WordCountingFieldOps",
    "PlainBackend",
    "MontgomeryBackend",
    "WordCountingBackend",
    "BACKENDS",
    "get_backend",
    "default_backend_name",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted by the scheme layer (``repro.pkc``) when no
#: backend is injected explicitly.  ``PrimeField()`` itself always defaults
#: to plain arithmetic — the env var steers protocol-level construction, not
#: every bare field a unit test builds.
BACKEND_ENV_VAR = "REPRO_FIELD_BACKEND"

@dataclass
class WordOpStream:
    """Tally of the word-level operations a counting backend executed.

    ``modular_*`` count modular operations (the units Table 1 prices);
    ``word_mults`` / ``word_adds`` accumulate the per-FIOS
    :class:`~repro.montgomery.fios.FiosTrace` tallies, and
    ``final_subtractions`` counts how many of the Montgomery products needed
    the conditional final subtraction — the data-dependent step that makes
    naive FIOS non-constant-time (see :mod:`repro.montgomery.fios`).

    ``counting`` gates the expensive word-level execution: with it off the
    backend behaves exactly like :class:`MontgomeryBackend` (fast big-int
    REDC, no tallies), so callers can warm caches cheaply and then measure
    only the operation of interest.
    """

    modular_mults: int = 0
    modular_adds: int = 0
    modular_subs: int = 0
    inversions: int = 0
    word_mults: int = 0
    word_adds: int = 0
    final_subtractions: int = 0
    counting: bool = True

    @property
    def total_modular_ops(self) -> int:
        """Modular multiplications + additions + subtractions."""
        return self.modular_mults + self.modular_adds + self.modular_subs

    @property
    def final_subtraction_rate(self) -> float:
        """Fraction of Montgomery products that needed the final subtraction.

        For uniformly random residents this sits near ``p / (4R)``; the rate
        being input-dependent is precisely the timing side channel the
        constant-time variants in :mod:`repro.montgomery.variants` close.
        """
        if not self.modular_mults:
            return 0.0
        return self.final_subtractions / self.modular_mults

    def reset(self) -> None:
        self.modular_mults = self.modular_adds = self.modular_subs = 0
        self.inversions = self.word_mults = self.word_adds = 0
        self.final_subtractions = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "modular_mults": self.modular_mults,
            "modular_adds": self.modular_adds,
            "modular_subs": self.modular_subs,
            "inversions": self.inversions,
            "word_mults": self.word_mults,
            "word_adds": self.word_adds,
            "final_subtractions": self.final_subtractions,
        }


def _identity(x: int) -> int:
    return x


class FieldOps:
    """A backend bound to one modulus: the operations ``PrimeField`` delegates.

    Subclasses fix the representation.  ``plain`` reports whether resident
    values coincide with ordinary reduced integers (True only for
    :class:`PlainFieldOps`); ``rebind`` reports
    whether ``PrimeField`` must delegate its arithmetic methods to this
    object (False only for :class:`PlainFieldOps`, which the field's
    class-level fast path already implements); ``representation`` names the
    residency for field-equality purposes — mixing elements of a plain and
    a Montgomery-resident field is a bug the field layer turns into a
    :class:`~repro.errors.FieldMismatchError`.
    """

    plain = True
    rebind = False
    representation = "plain"

    def __init__(self, modulus: int):
        self.p = modulus
        self.one = 1

    @property
    def representation_key(self):
        """Hashable identity of the value representation.

        Two fields may only exchange resident values when these match —
        for Montgomery residency that includes the constant ``R``, since
        domains with different word geometry hold incompatible residents.
        """
        return self.representation

    # -- representation boundary ------------------------------------------------

    def enter(self, x: int) -> int:
        """Plain reduced integer -> resident value."""
        return x

    def exit(self, x: int) -> int:
        """Resident value -> plain reduced integer."""
        return x

    # -- resident arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a: int) -> int:
        return (self.p - a) if a else 0

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def inv_many(self, values) -> list:
        """Invert N resident values with 1 inversion + 3(N-1) multiplications.

        Montgomery's trick: form the running prefix products, invert the
        total once, then walk back unwinding one factor at a time.  The
        algebra is representation-agnostic (products and inverses of
        residents are residents), so the same code is exact under every
        backend.  A zero anywhere in the batch raises
        :class:`~repro.errors.NotInvertibleError` before any work is done —
        callers with possibly-zero values filter first.
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

    def pow(self, a: int, e: int) -> int:
        raise NotImplementedError

    # -- array-resident batch API ----------------------------------------------
    #
    # Arrays of residents in, arrays of residents out, index-aligned.  Every
    # method is value-identical to the equivalent loop of single calls — the
    # ``inv_many`` contract — so backends are free to amortize work across
    # the batch (shared tables) without changing any byte a protocol
    # emits.  The defaults below are the correct plain-Python
    # fallback every backend inherits.

    @staticmethod
    def _paired(a, b, what: str):
        a = list(a)
        b = list(b)
        if len(a) != len(b):
            raise ParameterError(
                f"{what}: length mismatch ({len(a)} vs {len(b)})"
            )
        return a, b

    def add_many(self, a, b) -> list:
        """Element-wise ``a[i] + b[i]`` over resident arrays."""
        a, b = self._paired(a, b, "add_many")
        add = self.add
        return [add(x, y) for x, y in zip(a, b)]

    def sub_many(self, a, b) -> list:
        """Element-wise ``a[i] - b[i]`` over resident arrays."""
        a, b = self._paired(a, b, "sub_many")
        sub = self.sub
        return [sub(x, y) for x, y in zip(a, b)]

    def mul_many(self, a, b) -> list:
        """Element-wise ``a[i] * b[i]`` over resident arrays."""
        a, b = self._paired(a, b, "mul_many")
        mul = self.mul
        return [mul(x, y) for x, y in zip(a, b)]

    def sqr_many(self, values) -> list:
        """Element-wise squaring over a resident array."""
        sqr = self.sqr
        return [sqr(v) for v in values]

    def pow_many(self, bases, exponents) -> list:
        """``bases[i] ** exponents[i]`` over resident arrays.

        The default loops :meth:`pow`, so the result is byte-identical
        everywhere.
        """
        bases, exponents = self._paired(bases, exponents, "pow_many")
        pw = self.pow
        return [pw(b, e) for b, e in zip(bases, exponents)]

    def pow_many_shared_base(self, base, exponents) -> list:
        """``base ** exponents[i]`` for one resident base, many exponents.

        Backends whose single :meth:`pow` is Python-priced override this to
        build one fixed-base table (``bit_length`` squarings) and amortize
        it across the batch — the multiplicative twin of ``inv_many``'s
        Montgomery trick.  The default loops :meth:`pow`.
        """
        pw = self.pow
        return [pw(base, e) for e in exponents]


class PlainFieldOps(FieldOps):
    """Ordinary reduced-integer arithmetic — the historical behaviour."""

    plain = True
    rebind = False
    representation = "plain"

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def sqr(self, a: int) -> int:
        return a * a % self.p

    def inv(self, a: int) -> int:
        return modinv(a, self.p)

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)


class MontgomeryFieldOps(FieldOps):
    """Montgomery-resident arithmetic over a :class:`MontgomeryDomain`.

    A resident value is ``x * R mod p`` with ``R = 2^(w*s)``.  Addition,
    subtraction, negation and halving are linear in the representation, so
    the base-class implementations apply unchanged; products go through the
    domain's big-integer REDC reference, keeping every element resident with
    one reduction per multiplication and **zero** conversions inside a
    protocol run.
    """

    plain = False
    rebind = True
    representation = "montgomery"

    def __init__(self, modulus: int, word_bits: int = 16):
        from repro.montgomery.domain import MontgomeryDomain

        super().__init__(modulus)
        self.domain = MontgomeryDomain(modulus, word_bits=word_bits)
        self.one = self.domain.r_mod_p

    @property
    def representation_key(self):
        return ("montgomery", self.domain.r)

    def enter(self, x: int) -> int:
        return self.domain.to_montgomery(x)

    def exit(self, x: int) -> int:
        return self.domain.from_montgomery(x)

    def mul(self, a: int, b: int) -> int:
        return self.domain.mont_mul(a, b)

    def sqr(self, a: int) -> int:
        return self.domain.mont_sqr(a)

    def inv(self, a: int) -> int:
        # (xR)^-1 = x^-1 R^-1; one multiplication by R^2 restores residency.
        return modinv(a, self.p) * self.domain.r2_mod_p % self.p

    def pow(self, a: int, e: int) -> int:
        # A single field power is not a loop worth recoding: drop to the
        # plain representation, use the platform-native pow, re-enter.
        return self.enter(pow(self.exit(a), e, self.p))

    def pow_many(self, bases, exponents) -> list:
        bases, exponents = self._paired(bases, exponents, "pow_many")
        p = self.p
        enter = self.enter
        exit_ = self.exit
        return [enter(pow(exit_(b), e, p)) for b, e in zip(bases, exponents)]

    def pow_many_shared_base(self, base, exponents) -> list:
        """Shared-base powers without ever leaving residency.

        Residents under ``mont_mul`` form a group isomorphic to ``Z_p^*``
        (identity ``R mod p``), so one
        :class:`~repro.exp.strategies.FixedBaseTable` built over the bound
        ops — ``max_bits`` squarings, paid once — serves the whole batch
        with only multiplications per element.  Exact arithmetic makes the
        values identical to looping :meth:`pow`; negative or tiny batches
        fall back to the loop.
        """
        exponents = list(exponents)
        if len(exponents) < 2 or any(e < 0 for e in exponents):
            return [self.pow(base, e) for e in exponents]
        from repro.exp.strategies import FixedBaseTable

        max_bits = max(e.bit_length() for e in exponents)
        table = FixedBaseTable(_BoundOpsExpGroup(self), base, max_bits or 1)
        return [table.power(e) for e in exponents]


class _BoundOpsExpGroup:
    """Minimal :class:`repro.exp.group.Group`-shaped adapter over bound ops.

    Lets the counting backend run its exponentiations through the unified
    engine so every Montgomery product is executed (and therefore tallied)
    at the word level.
    """

    cheap_inverse = False
    endomorphism_exponent = None

    def __init__(self, ops: "FieldOps"):
        self.ops = ops
        self.name = f"backend({ops.representation}, p~2^{ops.p.bit_length()})"

    def identity(self) -> int:
        return self.ops.one

    def op(self, a: int, b: int) -> int:
        return self.ops.mul(a, b)

    def square(self, a: int) -> int:
        return self.ops.sqr(a)

    def inverse(self, a: int) -> int:
        return self.ops.inv(a)

    def is_identity(self, a: int) -> bool:
        return a == self.ops.one


class CountingMontgomeryDomain:
    """A :class:`MontgomeryDomain` whose products execute word-level FIOS.

    Drop-in compatible with the plain domain (it delegates every attribute),
    but ``mont_mul`` / ``mont_sqr`` run Algorithm 1 over the word vectors and
    stream the resulting :class:`~repro.montgomery.fios.FiosTrace` tallies
    into the shared :class:`WordOpStream` — unless ``stream.counting`` is
    off, in which case the fast big-integer REDC is used (same values).
    RSA's ``montgomery_power`` path accepts one of these directly.
    """

    def __init__(self, modulus: int, word_bits: int, stream: WordOpStream):
        from repro.montgomery.domain import MontgomeryDomain

        self._plain = MontgomeryDomain(modulus, word_bits=word_bits)
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self._plain, name)

    def _fios_mul(self, a: int, b: int) -> int:
        from repro.montgomery.fios import _fios

        value, trace = _fios(self._plain, a, b)
        stream = self.stream
        stream.modular_mults += 1
        stream.word_mults += trace.word_mults
        stream.word_adds += trace.word_adds
        if trace.final_subtraction:
            stream.final_subtractions += 1
        return value

    def mont_mul(self, a: int, b: int) -> int:
        if not self.stream.counting:
            return self._plain.mont_mul(a, b)
        return self._fios_mul(a, b)

    def mont_sqr(self, a: int) -> int:
        if not self.stream.counting:
            return self._plain.mont_sqr(a)
        return self._fios_mul(a, a)

    def __repr__(self) -> str:
        return f"Counting{self._plain!r}"


class WordCountingFieldOps(MontgomeryFieldOps):
    """Montgomery-resident arithmetic that executes word-level FIOS.

    Each multiplication runs Algorithm 1 (FIOS) over the domain's word
    vectors and streams its :class:`FiosTrace` tallies into the shared
    :class:`WordOpStream`; additions and subtractions are tallied as one
    modular operation plus their word-add cost (``s`` single-word additions,
    ``s`` more when the conditional correction fires — mirroring the
    coprocessor's modular add/sub microcode).  Negation and halving stay
    free, matching :class:`~repro.field.opcount.CountingPrimeField`.
    """

    plain = False
    representation = "montgomery"

    def __init__(self, modulus: int, word_bits: int, stream: WordOpStream):
        super().__init__(modulus, word_bits=word_bits)
        self.stream = stream
        #: MontgomeryDomain-compatible view whose products stream word tallies.
        self.counting_domain = CountingMontgomeryDomain(modulus, word_bits, stream)

    def mul(self, a: int, b: int) -> int:
        return self.counting_domain.mont_mul(a, b)

    def sqr(self, a: int) -> int:
        return self.counting_domain.mont_sqr(a)

    def add(self, a: int, b: int) -> int:
        s = a + b
        corrected = s >= self.p
        if self.stream.counting:
            self.stream.modular_adds += 1
            words = self.domain.num_words
            self.stream.word_adds += words * (2 if corrected else 1)
        return s - self.p if corrected else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        corrected = d < 0
        if self.stream.counting:
            self.stream.modular_subs += 1
            words = self.domain.num_words
            self.stream.word_adds += words * (2 if corrected else 1)
        return d + self.p if corrected else d

    def inv(self, a: int) -> int:
        if self.stream.counting:
            self.stream.inversions += 1
            # The schedulable extended-Euclid inverse, not the C-speed
            # ``pow(a, -1, p)`` shortcut: this backend models the
            # coprocessor, where inversion is an algorithm, not a builtin.
            return modinv_euclid(a, self.p) * self.domain.r2_mod_p % self.p
        return super().inv(a)

    def pow(self, a: int, e: int) -> int:
        if not self.stream.counting:
            return super().pow(a, e)
        from repro.exp.strategies import exponentiate

        group = _BoundOpsExpGroup(self)
        if e < 0:
            return exponentiate(group, self.inv(a), -e)
        return exponentiate(group, a, e)

    def pow_many(self, bases, exponents) -> list:
        # The Montgomery override drops to the builtin ``pow``, which would
        # bypass word-level tallying; loop the counting pow instead.  (The
        # inherited shared-base table path already runs every product
        # through the bound ops, so it tallies correctly as-is.)
        bases, exponents = self._paired(bases, exponents, "pow_many")
        pw = self.pow
        return [pw(b, e) for b, e in zip(bases, exponents)]


# ---------------------------------------------------------------------------
# Backend specifications (unbound): what callers inject and registries name.
# ---------------------------------------------------------------------------


class PlainBackend:
    """Spec for :class:`PlainFieldOps` — the default fast path."""

    name = "plain"
    representation = "plain"

    def bind(self, modulus: int) -> PlainFieldOps:
        return PlainFieldOps(modulus)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class MontgomeryBackend(PlainBackend):
    """Spec for :class:`MontgomeryFieldOps` (resident Montgomery form)."""

    name = "montgomery"
    representation = "montgomery"

    def __init__(self, word_bits: int = 16):
        self.word_bits = word_bits

    def bind(self, modulus: int) -> MontgomeryFieldOps:
        return MontgomeryFieldOps(modulus, word_bits=self.word_bits)


class WordCountingBackend(MontgomeryBackend):
    """Spec for :class:`WordCountingFieldOps`.

    One spec instance owns one :class:`WordOpStream`; every field bound from
    it (the base field under a whole CEILIDH tower, say) feeds the same
    stream, so a protocol run's word-operation total is read from a single
    place.  Use :attr:`stream` ``.counting`` to gate the expensive
    word-level execution and :meth:`stream` ``.reset()`` to scope a
    measurement window.
    """

    name = "word-counting"
    representation = "montgomery"

    def __init__(self, word_bits: int = 16):
        super().__init__(word_bits=word_bits)
        self.stream = WordOpStream()

    def bind(self, modulus: int) -> WordCountingFieldOps:
        return WordCountingFieldOps(modulus, self.word_bits, self.stream)


#: Name -> backend-spec class.
BACKENDS = {
    "plain": PlainBackend,
    "montgomery": MontgomeryBackend,
    "word-counting": WordCountingBackend,
}

BackendLike = Union[None, str, PlainBackend]


def get_backend(spec: BackendLike = None) -> PlainBackend:
    """Resolve a backend spec: ``None`` -> plain, a name, or a spec instance."""
    if spec is None:
        return PlainBackend()
    if isinstance(spec, str):
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise ParameterError(
                f"unknown field backend {spec!r}; available: {sorted(BACKENDS)}"
            ) from None
    if hasattr(spec, "bind"):
        return spec
    raise ParameterError(f"not a field backend: {spec!r}")


def default_backend_name(override: Optional[str] = None) -> str:
    """The scheme layer's default backend: ``override``, env var, or plain.

    Read at call time so a test (or the CI matrix leg) can steer the whole
    protocol stack with ``REPRO_FIELD_BACKEND=montgomery``.
    """
    if override is not None:
        return override
    return os.environ.get(BACKEND_ENV_VAR, "plain") or "plain"
