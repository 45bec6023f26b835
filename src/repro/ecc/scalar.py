"""Scalar multiplication on the unified engine :mod:`repro.exp`.

The paper's 160-bit ECC timing uses the plain double-and-add loop over
Jacobian coordinates (Table 3: ~160 doublings + ~80 additions at the Type-B
cost of Table 2).  Every strategy runs on the unified engine with the
Jacobian group adapter, reached through :func:`scalar_mult` and a strategy
name; point negation is free, so the engine's default is wNAF (~n/5
additions instead of n/2), and Shamir double-scalar multiplication backs
ECDSA-style ``u1*G + u2*Q`` verification.  Counts are emitted as the
unified :class:`~repro.exp.trace.OpTrace`: a doubling is a squaring, a
point addition a multiplication.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParameterError
from repro.exp.group import JacobianExpGroup
from repro.exp.strategies import (
    check_window_bits,
    double_exponentiate as _double_exponentiate,
    exponentiate as _exponentiate,
    exponentiate_many as _exponentiate_many,
    exponentiate_shared_base as _exponentiate_shared_base,
)
from repro.exp.trace import OpTrace
from repro.ecc.point import INFINITY, AffinePoint

__all__ = [
    "scalar_mult",
    "scalar_mult_many",
    "scalar_mult_shared_point",
    "double_scalar_mult",
]

#: Strategy names accepted by :func:`scalar_mult`.
SCALAR_STRATEGIES = ("auto", "binary", "naf", "wnaf", "sliding", "window", "ladder")


def _run(
    point: AffinePoint, scalar: int, strategy: str, count: Optional[OpTrace]
) -> AffinePoint:
    if scalar == 0 or point.is_infinity():
        return INFINITY
    group = JacobianExpGroup(point.curve)
    result = _exponentiate(group, point.to_jacobian(), scalar, strategy=strategy, trace=count)
    return result.to_affine()


def scalar_mult_many(
    points,
    scalars,
    strategy: str = "auto",
    count: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> "list[AffinePoint]":
    """N same-curve scalar multiplications sharing ONE affine conversion.

    Each product runs through the unified engine exactly as
    :func:`scalar_mult` would (same strategy, same trace tallies), but the
    Jacobian results are converted together via
    :func:`repro.ecc.point.to_affine_many` — 1 field inversion + 3(N-1)
    multiplications instead of N inversions.  Zero scalars and infinite
    inputs yield :data:`~repro.ecc.point.INFINITY` without joining the batch.
    """
    from repro.ecc.point import to_affine_many

    points = list(points)
    scalars = list(scalars)
    if len(points) != len(scalars):
        raise ParameterError("scalar_mult_many needs one scalar per point")
    if window_bits is not None:
        check_window_bits(window_bits)
    results: "list[Optional[AffinePoint]]" = [None] * len(points)
    pending = []
    positions = []
    for i, (point, scalar) in enumerate(zip(points, scalars)):
        if scalar == 0 or point.is_infinity():
            results[i] = INFINITY
            continue
        pending.append((point, scalar))
        positions.append(i)
    if pending:
        # One group object serves the whole (same-curve) batch; its ops
        # delegate to the points, so this matches per-item construction.
        group = JacobianExpGroup(pending[0][0].curve)
        jacobians = _exponentiate_many(
            group,
            [point.to_jacobian() for point, _ in pending],
            [scalar for _, scalar in pending],
            strategy=strategy,
            trace=count,
            window_bits=window_bits,
        )
        for i, affine in zip(positions, to_affine_many(jacobians)):
            results[i] = affine
    return results


def scalar_mult_shared_point(
    point: AffinePoint,
    scalars,
    strategy: str = "auto",
    count: Optional[OpTrace] = None,
    window_bits: Optional[int] = None,
) -> "list[AffinePoint]":
    """One point, many scalars — the coalesced client phase on a curve.

    A single fixed-base table over the point (built once, sized by the
    widest scalar, of the cheapest width for the batch) serves every
    product, and the Jacobian results share one affine conversion.  Point values are identical to N
    :func:`scalar_mult` calls; only the operation schedule changes.
    """
    from repro.ecc.point import to_affine_many

    scalars = list(scalars)
    if window_bits is not None:
        check_window_bits(window_bits)
    results: "list[Optional[AffinePoint]]" = [None] * len(scalars)
    positions = [i for i, s in enumerate(scalars) if s != 0]
    if point.is_infinity():
        return [INFINITY] * len(scalars)
    for i, scalar in enumerate(scalars):
        if scalar == 0:
            results[i] = INFINITY
    if positions:
        group = JacobianExpGroup(point.curve)
        jacobians = _exponentiate_shared_base(
            group,
            point.to_jacobian(),
            [scalars[i] for i in positions],
            strategy=strategy,
            trace=count,
            window_bits=window_bits,
        )
        for i, affine in zip(positions, to_affine_many(jacobians)):
            results[i] = affine
    return results


def double_scalar_mult(
    point_a: AffinePoint,
    scalar_a: int,
    point_b: AffinePoint,
    scalar_b: int,
    count: Optional[OpTrace] = None,
) -> AffinePoint:
    """Shamir/Straus simultaneous multiplication ``a*P + b*Q``.

    One shared doubling chain over max(bits(a), bits(b)) instead of two —
    the standard trick for ECDSA verification's ``u1*G + u2*Q``.
    """
    if point_a.is_infinity() or scalar_a == 0:
        return _run(point_b, scalar_b, "auto", count)
    if point_b.is_infinity() or scalar_b == 0:
        return _run(point_a, scalar_a, "auto", count)
    if point_a.curve != point_b.curve:
        raise ParameterError("points lie on different curves")
    group = JacobianExpGroup(point_a.curve)
    result = _double_exponentiate(
        group,
        point_a.to_jacobian(),
        scalar_a,
        point_b.to_jacobian(),
        scalar_b,
        trace=count,
    )
    return result.to_affine()


def scalar_mult(
    point: AffinePoint,
    scalar: int,
    strategy: str = "auto",
    count: Optional[OpTrace] = None,
) -> AffinePoint:
    """Dispatch on the strategy name (auto, binary, naf, wnaf, sliding, window, ladder).

    ``auto`` resolves to wNAF for cryptographic scalar sizes — measurably
    fewer point additions than the paper's double-and-add at 160 bits."""
    if strategy not in SCALAR_STRATEGIES:
        raise ParameterError(f"unknown scalar multiplication strategy {strategy!r}")
    return _run(point, scalar, strategy, count)
