"""FIOS Montgomery multiplication (Algorithm 1 of the paper).

Finely Integrated Operand Scanning, after Koc/Acar/Kaliski: the outer loop
scans the words of Y; each iteration interleaves the partial product
``X * y_i`` with the reduction ``P * t`` and divides by the radix.  This is
the word-level reference model for the coprocessor microcode; it also powers
the single-core cycle estimates used in the analysis package and the
word-counting field backend (:mod:`repro.field.backend`).

.. admonition:: Constant-time caveat

   The final conditional subtraction (``value -= p`` when the accumulated
   result lands in ``[p, 2p)``) is **data-dependent**: whether it fires is a
   function of the secret operands, so its occurrence rate — observable as a
   timing or power difference on the real datapath — leaks information about
   the values being multiplied.  :class:`FiosBatchStats` measures that rate
   over a batch (for uniform operands it sits near ``p / 4R``, well away
   from 0 or 1, i.e. genuinely input-dependent).  Hardened implementations
   remove the branch entirely, either by always subtracting and selecting
   the result, or by sizing ``R > 4p`` and keeping results in ``[0, 2p)``
   (see the bounded variants in :mod:`repro.montgomery.variants`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ParameterError
from repro.montgomery.domain import MontgomeryDomain


@dataclass
class FiosTrace:
    """Word-operation tally of one FIOS multiplication.

    ``word_mults`` counts w x w -> 2w multiplications, ``word_adds`` counts
    single-word additions with carry; these are the quantities the
    coprocessor's MAC-based cycle counts scale with.

    ``final_subtraction`` records whether this product needed the
    conditional correction — the data-dependent step discussed in the
    module's constant-time caveat.  Aggregate its rate over a batch with
    :class:`FiosBatchStats`.
    """

    num_words: int
    word_mults: int
    word_adds: int
    final_subtraction: bool


@dataclass
class FiosBatchStats:
    """Final-subtraction statistics across a batch of FIOS multiplications.

    Feed every :class:`FiosTrace` of a protocol run (or any operand sample)
    through :meth:`record`; ``rate`` then estimates the probability that the
    conditional final subtraction fires.  For independent uniform operands
    the classical analysis (Schindler) puts it near ``p / 4R``; because the
    branch depends on the secret operands, a rate strictly between 0 and 1
    is direct evidence that the unprotected algorithm's timing is
    input-dependent.
    """

    multiplications: int = 0
    final_subtractions: int = 0
    word_mults: int = 0
    word_adds: int = 0
    num_words: int = 0
    #: The uniform-operand prediction ``p / 4R`` for the sampled domain;
    #: ``None`` when the accumulator never learned the domain geometry.
    predicted_rate: "float | None" = None

    def record(self, trace: FiosTrace) -> None:
        self.multiplications += 1
        self.word_mults += trace.word_mults
        self.word_adds += trace.word_adds
        self.num_words = trace.num_words
        if trace.final_subtraction:
            self.final_subtractions += 1

    @property
    def rate(self) -> float:
        """Fraction of products that needed the final subtraction."""
        if not self.multiplications:
            return 0.0
        return self.final_subtractions / self.multiplications

    @property
    def expected_rate(self) -> "float | None":
        """Alias of :attr:`predicted_rate` — what ``rate`` should approach
        for independent random residents (``None`` when unknown)."""
        return self.predicted_rate


def fios_batch_stats(
    domain: MontgomeryDomain, pairs: Iterable[tuple]
) -> FiosBatchStats:
    """Run FIOS over ``(x_bar, y_bar)`` operand pairs and tally the batch.

    Returns a :class:`FiosBatchStats` whose ``expected_rate`` carries the
    uniform-operand prediction ``p / 4R`` for this domain.
    """
    stats = FiosBatchStats(predicted_rate=domain.modulus / (4 * domain.r))
    for x_bar, y_bar in pairs:
        _, trace = _fios(domain, x_bar, y_bar)
        stats.record(trace)
    return stats


def fios_multiply(domain: MontgomeryDomain, x_bar: int, y_bar: int) -> int:
    """Word-level FIOS product ``x_bar * y_bar * R^-1 mod P``.

    Inputs must already be in the Montgomery domain and reduced modulo P.
    """
    result, _ = _fios(domain, x_bar, y_bar)
    return result


def fios_trace(domain: MontgomeryDomain, x_bar: int, y_bar: int) -> FiosTrace:
    """Run FIOS and return the word-operation tally."""
    _, trace = _fios(domain, x_bar, y_bar)
    return trace


def _fios(domain: MontgomeryDomain, x_bar: int, y_bar: int):
    p = domain.modulus
    if not (0 <= x_bar < p and 0 <= y_bar < p):
        raise ParameterError("FIOS operands must be reduced modulo P")
    s = domain.num_words
    w = domain.word_bits
    mask = domain.radix - 1
    x = domain.to_words(x_bar)
    y = domain.to_words(y_bar)
    pw = domain.modulus_words()
    p_prime = domain.p_prime

    z = [0] * (s + 1)  # one extra word for the running carry
    word_mults = 0
    word_adds = 0

    for i in range(s):
        yi = y[i]
        # t = (z0 + x0*yi) * p' mod r
        t0 = z[0] + x[0] * yi
        word_mults += 1
        word_adds += 1
        m = (t0 & mask) * p_prime & mask
        word_mults += 1
        # Position 0: z0 + x0*yi + p0*m, low word drops out (it is 0 mod r).
        acc = t0 + pw[0] * m
        word_mults += 1
        word_adds += 1
        carry = acc >> w
        # Positions 1..s-1.
        for j in range(1, s):
            acc = z[j] + x[j] * yi + pw[j] * m + carry
            word_mults += 2
            word_adds += 3
            z[j - 1] = acc & mask
            carry = acc >> w
        acc = z[s] + carry
        word_adds += 1
        z[s - 1] = acc & mask
        z[s] = acc >> w

    value = domain.from_words(z[:s]) + (z[s] << (w * s))
    final_subtraction = value >= p
    if final_subtraction:
        value -= p
        word_adds += s
    if value >= p:
        raise ParameterError("FIOS output out of range (bug)")
    trace = FiosTrace(
        num_words=s,
        word_mults=word_mults,
        word_adds=word_adds,
        final_subtraction=final_subtraction,
    )
    return value, trace


def fios_word_mult_count(num_words: int) -> int:
    """Closed-form number of w x w multiplications of FIOS: 2*s^2 + s."""
    return 2 * num_words * num_words + num_words
