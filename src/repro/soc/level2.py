"""The level-2 intermediate representation: sequences of modular operations.

Section 3.2 structures a torus exponentiation in three levels; level 2 is a
sequence of modular multiplications (MM), additions (MA) and subtractions
(MS) over operands held in the coprocessor's data memory — e.g. the
18 MM + ~60 MA/MS sequence of one Fp6 multiplication, or a Jacobian point
operation for ECC.  In the Type-A architecture the MicroBlaze walks this
sequence itself; in Type-B the sequence sits in InsRom1 and is driven by the
coprocessor's decoder.

A :class:`Level2Program` is a list of :class:`ModOp` over *named* operands.
It can be

* counted (how many MM/MA/MS — the quantity the cost model composes),
* executed functionally against any backend that provides ``mont_mul`` /
  ``mod_add`` / ``mod_sub`` (a plain Montgomery domain for fast validation,
  or the cycle-accurate :class:`~repro.soc.engine.ModularEngine`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ParameterError
from repro.montgomery.domain import MontgomeryDomain


class ModOpKind(enum.Enum):
    """The three modular operations of the platform's level-2 vocabulary."""

    MM = "MM"  # Montgomery modular multiplication
    MA = "MA"  # modular addition
    MS = "MS"  # modular subtraction


@dataclass(frozen=True)
class ModOp:
    """One level-2 operation: ``dst = src1 (op) src2`` over named operands."""

    kind: ModOpKind
    dst: str
    src1: str
    src2: str
    comment: str = ""

    def __repr__(self) -> str:
        text = f"{self.kind.value} {self.dst}, {self.src1}, {self.src2}"
        if self.comment:
            text += f"  ; {self.comment}"
        return text


@dataclass
class OperationCounts2:
    """MM/MA/MS tallies of a level-2 program."""

    mm: int = 0
    ma: int = 0
    ms: int = 0

    @property
    def total(self) -> int:
        return self.mm + self.ma + self.ms

    @property
    def additions_total(self) -> int:
        """MA + MS, the paper's 'A' at level 2."""
        return self.ma + self.ms


@dataclass
class Level2Program:
    """A named sequence of modular operations."""

    name: str
    operations: List[ModOp] = field(default_factory=list)
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()

    def append(self, kind: ModOpKind, dst: str, src1: str, src2: str, comment: str = "") -> None:
        self.operations.append(ModOp(kind, dst, src1, src2, comment))

    def mm(self, dst: str, src1: str, src2: str, comment: str = "") -> None:
        self.append(ModOpKind.MM, dst, src1, src2, comment)

    def ma(self, dst: str, src1: str, src2: str, comment: str = "") -> None:
        self.append(ModOpKind.MA, dst, src1, src2, comment)

    def ms(self, dst: str, src1: str, src2: str, comment: str = "") -> None:
        self.append(ModOpKind.MS, dst, src1, src2, comment)

    def counts(self) -> OperationCounts2:
        tally = OperationCounts2()
        for op in self.operations:
            if op.kind == ModOpKind.MM:
                tally.mm += 1
            elif op.kind == ModOpKind.MA:
                tally.ma += 1
            else:
                tally.ms += 1
        return tally

    def operand_names(self) -> List[str]:
        names: List[str] = []
        for op in self.operations:
            for name in (op.dst, op.src1, op.src2):
                if name not in names:
                    names.append(name)
        return names

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    # -- functional execution ---------------------------------------------------------

    def execute(self, backend: "ModularBackend", memory: Dict[str, int]) -> Dict[str, int]:
        """Run the sequence against a backend, mutating and returning ``memory``.

        Every operand named by the program's inputs must be present in
        ``memory``; values are whatever domain the backend expects (Montgomery
        residues for the platform backends).
        """
        for name in self.inputs:
            if name not in memory:
                raise ParameterError(f"missing input operand {name!r}")
        for op in self.operations:
            a = memory[op.src1]
            b = memory[op.src2]
            if op.kind == ModOpKind.MM:
                memory[op.dst] = backend.mont_mul_value(a, b)
            elif op.kind == ModOpKind.MA:
                memory[op.dst] = backend.mod_add_value(a, b)
            else:
                memory[op.dst] = backend.mod_sub_value(a, b)
        return memory


class ModularBackend:
    """Interface of a level-2 execution backend (values only, no cycles)."""

    def mont_mul_value(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mod_add_value(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mod_sub_value(self, a: int, b: int) -> int:
        raise NotImplementedError


class SoftwareBackend(ModularBackend):
    """Fast big-integer backend used to validate level-2 sequences."""

    def __init__(self, domain: MontgomeryDomain):
        self.domain = domain

    def mont_mul_value(self, a: int, b: int) -> int:
        return self.domain.mont_mul(a, b)

    def mod_add_value(self, a: int, b: int) -> int:
        return (a + b) % self.domain.modulus

    def mod_sub_value(self, a: int, b: int) -> int:
        return (a - b) % self.domain.modulus


class EngineBackend(ModularBackend):
    """Cycle-accurate backend: every operation runs through the coprocessor."""

    def __init__(self, engine):
        self.engine = engine
        self.cycles = 0
        self.operation_count = 0

    def mont_mul_value(self, a: int, b: int) -> int:
        value, cycles = self.engine.mont_mul(a, b)
        self.cycles += cycles
        self.operation_count += 1
        return value

    def mod_add_value(self, a: int, b: int) -> int:
        value, cycles = self.engine.mod_add(a, b)
        self.cycles += cycles
        self.operation_count += 1
        return value

    def mod_sub_value(self, a: int, b: int) -> int:
        value, cycles = self.engine.mod_sub(a, b)
        self.cycles += cycles
        self.operation_count += 1
        return value
