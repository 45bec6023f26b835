"""Cycle-cost model composing measured modular-operation costs (Tables 2 & 3).

Table 1 of the paper is *measured* on the coprocessor; Tables 2 and 3 are
*compositions* of those measurements through the Type-A/Type-B execution
hierarchies and the exponentiation loops.  This module holds the composition
logic:

* :class:`ModularOpCosts` — per-operation cycle counts for one bit length
  (one row group of Table 1), either measured on the cycle-accurate engine or
  taken from the paper for comparison;
* :class:`CostModel` — turns level-2 programs and operation counts into
  Type-A/Type-B cycle counts and wall-clock times at the platform clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ParameterError
from repro.soc.level2 import Level2Program, ModOpKind
from repro.soc.microblaze import MicroBlazeInterfaceModel


@dataclass
class ModularOpCosts:
    """Cycle counts of the three modular operations at one operand size."""

    bit_length: int
    modular_mult: int
    modular_add: int
    modular_sub: int
    label: str = ""

    def cost_of(self, kind: ModOpKind) -> int:
        if kind == ModOpKind.MM:
            return self.modular_mult
        if kind == ModOpKind.MA:
            return self.modular_add
        if kind == ModOpKind.MS:
            return self.modular_sub
        raise ParameterError(f"unknown operation kind {kind}")  # pragma: no cover


#: The paper's Table 1, for paper-vs-measured comparisons.
PAPER_TABLE1 = {
    "interrupt": 184,
    170: ModularOpCosts(170, modular_mult=193, modular_add=47, modular_sub=61, label="torus"),
    160: ModularOpCosts(160, modular_mult=163, modular_add=40, modular_sub=53, label="ECC"),
    1024: ModularOpCosts(1024, modular_mult=4447, modular_add=0, modular_sub=0, label="RSA"),
}

#: The paper's Table 2 (cycles per level-2 operation).
PAPER_TABLE2 = {
    ("type-a", "t6-mult"): 22348,
    ("type-a", "ecc-pa"): 7185,
    ("type-a", "ecc-pd"): 5793,
    ("type-b", "t6-mult"): 5908,
    ("type-b", "ecc-pa"): 2888,
    ("type-b", "ecc-pd"): 2665,
}

#: The paper's Table 3 (full public-key operations on the platform).
PAPER_TABLE3 = {
    "torus": {"bits": 170, "area_slices": 5419, "frequency_mhz": 74, "time_ms": 20.0},
    "rsa": {"bits": 1024, "area_slices": 5419, "frequency_mhz": 74, "time_ms": 96.0},
    "ecc": {"bits": 160, "area_slices": 5419, "frequency_mhz": 74, "time_ms": 9.4},
}


@dataclass
class SequenceCost:
    """Type-A and Type-B cycle counts of one level-2 sequence."""

    name: str
    operations: int
    compute_cycles: int
    type_a_cycles: int
    type_b_cycles: int

    @property
    def speedup(self) -> float:
        """Type-A / Type-B ratio (the paper's 3.78x for the Fp6 multiplication)."""
        return self.type_a_cycles / self.type_b_cycles if self.type_b_cycles else float("inf")


class CostModel:
    """Composes per-operation cycle counts through the execution hierarchies."""

    #: Cycles the Type-B decoder spends fetching/dispatching one level-2 entry
    #: from InsRom1 (a ROM read plus operand-address setup).
    TYPE_B_DISPATCH_CYCLES = 2

    def __init__(
        self,
        op_costs: ModularOpCosts,
        interface: Optional[MicroBlazeInterfaceModel] = None,
        clock_mhz: float = 74.0,
    ):
        self.op_costs = op_costs
        self.interface = interface or MicroBlazeInterfaceModel()
        self.clock_mhz = clock_mhz

    # -- level-2 sequences --------------------------------------------------------

    def sequence_cost(self, program: Level2Program) -> SequenceCost:
        """Type-A and Type-B cycle counts of one level-2 program."""
        compute = sum(self.op_costs.cost_of(op.kind) for op in program)
        n_ops = len(program)
        type_a = compute + self.interface.type_a_overhead(n_ops)
        type_b = (
            compute
            + self.interface.type_b_overhead(1)
            + self.TYPE_B_DISPATCH_CYCLES * n_ops
        )
        return SequenceCost(
            name=program.name,
            operations=n_ops,
            compute_cycles=compute,
            type_a_cycles=type_a,
            type_b_cycles=type_b,
        )

    # -- full public-key operations --------------------------------------------------

    def exponentiation_cycles(
        self,
        cycles_per_group_operation: int,
        squarings: int,
        multiplications: int,
    ) -> int:
        """Cycles of an exponentiation built from identical group operations.

        ``cycles_per_group_operation`` is the full per-operation cost under
        the chosen hierarchy (including its share of MicroBlaze round trips,
        i.e. :attr:`SequenceCost.type_a_cycles` or
        :attr:`SequenceCost.type_b_cycles`); the level-1 loop itself runs on
        the MicroBlaze concurrently with the coprocessor and adds no extra
        cycles beyond those round trips.
        """
        return (squarings + multiplications) * cycles_per_group_operation

    def cycles_to_ms(self, cycles: int) -> float:
        """Convert cycles to milliseconds at the platform clock."""
        return cycles / (self.clock_mhz * 1e6) * 1e3

    def cycles_to_seconds(self, cycles: int) -> float:
        return cycles / (self.clock_mhz * 1e6)

    # -- measured word-operation streams ------------------------------------------

    def stream_compute_cycles(self, stream) -> int:
        """Coprocessor compute cycles of an executed modular-operation stream.

        ``stream`` is a :class:`repro.field.backend.WordOpStream` (or
        anything with ``modular_mults`` / ``modular_adds`` /
        ``modular_subs``): the tally of the modular operations a protocol
        run *actually executed* at the word level, priced through this
        model's Table 1 row.  This is the measured counterpart of
        :meth:`sequence_cost`'s analytic composition.
        """
        return (
            stream.modular_mults * self.op_costs.modular_mult
            + stream.modular_adds * self.op_costs.modular_add
            + stream.modular_subs * self.op_costs.modular_sub
        )

    def measured_exponentiation_cycles(self, stream, sequences: int) -> int:
        """Type-B cycles of a full operation from its executed word-op stream.

        ``sequences`` is the number of level-2 sequence issues (one
        MicroBlaze round trip each); every executed modular operation pays
        the Type-B dispatch on top of its compute cycles.  With a stream
        whose per-sequence operation counts match the level-2 programs, this
        reproduces the analytic ``(squarings + multiplications) *
        type_b_cycles`` composition — the agreement the profile layer
        asserts.
        """
        return (
            self.stream_compute_cycles(stream)
            + self.interface.type_b_overhead(sequences)
            + self.TYPE_B_DISPATCH_CYCLES * stream.total_modular_ops
        )


def operation_costs_from_engine(engine, label: str = "") -> ModularOpCosts:
    """Build a :class:`ModularOpCosts` row from a cycle-accurate engine."""
    return ModularOpCosts(
        bit_length=engine.bit_length,
        modular_mult=engine.measure_multiplication().cycles,
        modular_add=engine.measure_addition().cycles,
        modular_sub=engine.measure_subtraction().cycles,
        label=label,
    )
