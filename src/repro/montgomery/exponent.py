"""Modular exponentiation in the Montgomery domain on :mod:`repro.exp`.

RSA on the platform is a loop of 1024-bit Montgomery multiplications
(Section 3.2); the loop itself lives in the unified exponentiation engine,
with :class:`~repro.exp.group.MontgomeryExpGroup` supplying the Montgomery
product as the group operation.  :func:`montgomery_power` is the one call:
it takes any strategy name of the engine's registry (binary reference,
constant-time ladder, fixed window, ...), and its sliding-window default
saves ~30% of the multiplications at RSA sizes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParameterError
from repro.exp.group import MontgomeryExpGroup
from repro.exp.strategies import check_window_bits, exponentiate, exponentiate_many
from repro.exp.trace import OpTrace
from repro.montgomery.domain import MontgomeryDomain

__all__ = ["montgomery_power", "montgomery_power_many"]


def montgomery_power(
    domain: MontgomeryDomain,
    base: int,
    exponent: int,
    strategy: str = "auto",
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> int:
    """``base^exponent mod P`` with any engine strategy.

    ``base`` is an ordinary residue (not in the Montgomery domain); the
    conversion in and out is handled here, matching what the MicroBlaze-side
    software does around the coprocessor calls.  Inversion in the Montgomery
    domain is an extended-gcd affair, so negative exponents stay rejected and
    the auto-selected strategy is the inversion-free sliding window.
    """
    if exponent < 0:
        raise ParameterError("negative exponents are not supported")
    if window_bits is not None:
        check_window_bits(window_bits)  # reject bad widths even for exponent 0
    p = domain.modulus
    base %= p
    if exponent == 0:
        return 1 % p
    group = MontgomeryExpGroup(domain)
    result = exponentiate(
        group,
        domain.to_montgomery(base),
        exponent,
        strategy=strategy,
        trace=trace,
        window_bits=window_bits,
    )
    return domain.from_montgomery(result)


def montgomery_power_many(
    domain: MontgomeryDomain,
    bases,
    exponents,
    strategy: str = "auto",
    trace: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> "list[int]":
    """Batch :func:`montgomery_power` through the engine's batch entry.

    One :class:`MontgomeryExpGroup` and one conversion pass serve the whole
    batch, and shared-base runs amortize a fixed-base table inside
    :func:`~repro.exp.strategies.exponentiate_many`.  RSA's CRT paths are
    the expected caller (N half-size exponentiations per prime under one
    key); results are value-identical to N single calls.
    """
    bases = list(bases)
    exponents = list(exponents)
    if len(bases) != len(exponents):
        raise ParameterError(
            f"montgomery_power_many: length mismatch ({len(bases)} vs {len(exponents)})"
        )
    for exponent in exponents:
        if exponent < 0:
            raise ParameterError("negative exponents are not supported")
    if window_bits is not None:
        check_window_bits(window_bits)
    p = domain.modulus
    results: "list[Optional[int]]" = [None] * len(bases)
    pending = []
    positions = []
    for i, (base, exponent) in enumerate(zip(bases, exponents)):
        base %= p
        if exponent == 0:
            results[i] = 1 % p
            continue
        pending.append((base, exponent))
        positions.append(i)
    if pending:
        group = MontgomeryExpGroup(domain)
        residents = exponentiate_many(
            group,
            [domain.to_montgomery(base) for base, _ in pending],
            [exponent for _, exponent in pending],
            strategy=strategy,
            trace=trace,
            window_bits=window_bits,
        )
        for i, resident in zip(positions, residents):
            results[i] = domain.from_montgomery(resident)
    return results

