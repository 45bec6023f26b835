"""The one operation tally emitted by every exponentiation strategy.

The paper's cost story reduces torus exponentiation, RSA and ECC scalar
multiplication to the same shape — a loop of group squarings and general
multiplications — so one tally type, :class:`OpTrace`, serves all of them.
On elliptic curves a squaring is a point doubling and a multiplication a
point addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.field.opcount import OperationCounts


@dataclass
class OpTrace:
    """Tally of group operations performed by one exponentiation.

    ``squarings`` and ``multiplications`` are the two quantities the paper's
    Tables 2-3 are written in; ``inversions`` counts base/table inversions
    (free on the torus via Frobenius and on curves via negation, so they are
    kept out of :attr:`total`).
    """

    squarings: int = 0
    multiplications: int = 0
    inversions: int = 0

    # -- aggregate views ----------------------------------------------------

    @property
    def total(self) -> int:
        """Squarings plus general multiplications (the Table 3 quantity)."""
        return self.squarings + self.multiplications

    def as_dict(self) -> Dict[str, int]:
        return {
            "squarings": self.squarings,
            "multiplications": self.multiplications,
            "inversions": self.inversions,
        }

    def reset(self) -> None:
        self.squarings = self.multiplications = self.inversions = 0

    def merge(self, other: "OpTrace") -> None:
        """Accumulate another trace into this one in place."""
        self.squarings += other.squarings
        self.multiplications += other.multiplications
        self.inversions += other.inversions

    def __add__(self, other: "OpTrace") -> "OpTrace":
        return OpTrace(
            self.squarings + other.squarings,
            self.multiplications + other.multiplications,
            self.inversions + other.inversions,
        )

    def __sub__(self, other: "OpTrace") -> "OpTrace":
        return OpTrace(
            self.squarings - other.squarings,
            self.multiplications - other.multiplications,
            self.inversions - other.inversions,
        )

    # -- interop with the base-field tally ----------------------------------

    def to_operation_counts(
        self,
        mul_cost: Optional["OperationCounts"] = None,
        sqr_cost: Optional["OperationCounts"] = None,
        inv_cost: Optional["OperationCounts"] = None,
    ) -> "OperationCounts":
        """Expand the group-operation tally into base-field Fp operations.

        ``mul_cost`` / ``sqr_cost`` / ``inv_cost`` give the Fp cost of one
        group multiplication / squaring / inversion (e.g. the paper's
        18M + ~60A per Fp6 multiplication).  With no costs given, each group
        multiplication and squaring is charged as one Fp multiplication —
        the right default for exponentiation directly over Fp.
        """
        from repro.field.opcount import OperationCounts

        if mul_cost is None:
            mul_cost = OperationCounts(mul=1)
        if sqr_cost is None:
            sqr_cost = mul_cost
        out = mul_cost.scaled(self.multiplications) + sqr_cost.scaled(self.squarings)
        if inv_cost is not None:
            out = out + inv_cost.scaled(self.inversions)
        return out

