"""Exponentiation strategies in T6(Fp) — thin wrappers over :mod:`repro.exp`.

The platform performs torus exponentiation as a sequence of Fp6
multiplications (each 18M + ~60A in Fp); the number of Fp6 multiplications is
what the Table 3 timing scales with.  All strategies now run on the unified
engine with the torus group adapter — inversion is a free Frobenius, so the
signed-digit recodings (NAF, wNAF) are the profitable fast path here — and
every function keeps its historical signature, emitting the unified
:class:`~repro.exp.trace.OpTrace` through the ``ExponentiationCount`` alias.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParameterError
from repro.exp.strategies import (
    double_exponentiate as _double_exponentiate,
    expected_counts,
    exponentiate as _exponentiate,
)
from repro.exp.trace import ExponentiationCount
from repro.torus.t6 import TorusElement

__all__ = [
    "ExponentiationCount",
    "exponentiate_binary",
    "exponentiate_naf",
    "exponentiate_wnaf",
    "exponentiate_sliding",
    "exponentiate_window",
    "exponentiate_ladder",
    "exponentiate_double",
    "multiplication_counts",
]


def _run(
    element: TorusElement,
    exponent: int,
    strategy: str,
    count: Optional[ExponentiationCount],
    window_bits: Optional[int] = None,
) -> TorusElement:
    return _exponentiate(
        element.group.exp_group(),
        element,
        exponent,
        strategy=strategy,
        trace=count,
        window_bits=window_bits,
    )


def exponentiate_binary(
    element: TorusElement, exponent: int, count: Optional[ExponentiationCount] = None
) -> TorusElement:
    """Left-to-right binary square-and-multiply (the paper's strategy)."""
    return _run(element, exponent, "binary", count)


def exponentiate_naf(
    element: TorusElement, exponent: int, count: Optional[ExponentiationCount] = None
) -> TorusElement:
    """Signed-digit (NAF) exponentiation.

    On the torus the inverse of the base is one Frobenius application, so the
    negative digits cost the same as positive ones — the average number of
    general multiplications drops from n/2 to n/3.
    """
    return _run(element, exponent, "naf", count)


def exponentiate_wnaf(
    element: TorusElement,
    exponent: int,
    window_bits: Optional[int] = None,
    count: Optional[ExponentiationCount] = None,
) -> TorusElement:
    """Width-w NAF with an odd-power table: ~n/(w+1) multiplications.

    The default fast path for torus exponentiation (free Frobenius inversion
    makes the signed digits costless).
    """
    return _run(element, exponent, "wnaf", count, window_bits)


def exponentiate_sliding(
    element: TorusElement,
    exponent: int,
    window_bits: Optional[int] = None,
    count: Optional[ExponentiationCount] = None,
) -> TorusElement:
    """Sliding-window exponentiation over an odd-power table."""
    return _run(element, exponent, "sliding", count, window_bits)


def exponentiate_window(
    element: TorusElement,
    exponent: int,
    window_bits: int = 4,
    count: Optional[ExponentiationCount] = None,
) -> TorusElement:
    """Fixed-window exponentiation with a precomputed table of 2^w entries."""
    return _run(element, exponent, "window", count, window_bits)


def exponentiate_ladder(
    element: TorusElement, exponent: int, count: Optional[ExponentiationCount] = None
) -> TorusElement:
    """Montgomery-ladder exponentiation (regular operation pattern)."""
    return _run(element, exponent, "ladder", count)


def exponentiate_double(
    element_a: TorusElement,
    exponent_a: int,
    element_b: TorusElement,
    exponent_b: int,
    count: Optional[ExponentiationCount] = None,
) -> TorusElement:
    """Shamir/Straus simultaneous exponentiation ``a^ea * b^eb``.

    One shared squaring chain instead of two — the fast path for CEILIDH
    signature verification (``g^s * y^c``)."""
    return _double_exponentiate(
        element_a.group.exp_group(),
        element_a,
        exponent_a,
        element_b,
        exponent_b,
        trace=count,
    )


def multiplication_counts(exponent_bits: int, strategy: str = "binary") -> ExponentiationCount:
    """Expected Fp6 squaring/multiplication counts for an ``exponent_bits``-bit exponent.

    These closed forms feed the analytical Table 3 cost model:

    * ``binary``: (n-1) squarings and ~(n-1)/2 multiplications,
    * ``naf``: (n) squarings and ~n/3 multiplications,
    * ``window4``: n squarings, n/4 multiplications plus 14 table entries,
    * ``wnaf4`` / ``sliding4``: n squarings, ~n/5 multiplications plus the
      odd-power table,
    * ``ladder``: n squarings and n multiplications,
    * ``fixed_base``: one power from a prebuilt width-4 signed table, no
      squarings and ~n/4 * 15/16 multiplications.
    """
    n = exponent_bits
    if strategy == "binary":
        return ExponentiationCount(squarings=n - 1, multiplications=(n - 1) // 2)
    if strategy == "naf":
        return ExponentiationCount(squarings=n, multiplications=n // 3)
    if strategy == "window4":
        return ExponentiationCount(squarings=n, multiplications=n // 4 + 14)
    if strategy in ("wnaf", "wnaf4", "sliding", "sliding4", "ladder", "fixed_base", "shamir"):
        base = strategy[:-1] if strategy.endswith("4") else strategy
        generic = expected_counts(base, n, window_bits=4)
        return ExponentiationCount(
            squarings=generic.squarings, multiplications=generic.multiplications
        )
    raise ParameterError(f"unknown strategy {strategy!r}")
