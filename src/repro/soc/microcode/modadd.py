"""Microcode for modular addition and subtraction (single core).

The paper keeps modular additions and subtractions on one core "because
carry needs to be transferred if multiple cores are used" (Section 4); the
cost is a load/add-with-carry/store pass over the operand words, which is why
a 170-bit modular addition (47 cycles) is only ~4x cheaper than a 170-bit
Montgomery multiplication despite doing 20x less arithmetic.

Two flavours are provided:

* **lazy addition** — a single carry-propagating pass, exactly the 4s + O(1)
  cycles of the paper's Table 1.  The result equals a + b without reduction;
  callers must guarantee enough headroom (see the bounds analysis in
  :mod:`repro.soc.sequences`).
* **strict addition** — the lazy pass followed by a subtract-P pass and a
  sequencer-conditional write-back, producing a fully reduced result.
* **subtraction** — subtract pass plus a sequencer-conditional add-P-back
  pass (taken when the subtraction borrows), which is both strict and shaped
  like the paper's 61-cycle figure.

The "sequencer-conditional" tails model the decoder skipping the rest of a
routine based on core 0's carry flag; the cores themselves still have no
branch instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ParameterError
from repro.soc.assembler import CoreProgram, Schedule
from repro.soc.coprocessor import Coprocessor
from repro.soc.isa import addc, cla, ld, sha, st, subb


@dataclass
class ModAddLayout:
    """DataRAM addresses used by the add/sub microcode."""

    a_base: int
    b_base: int
    result_base: int
    modulus_base: int
    scratch_base: int


# Register assignment for the single-core routines.
_REG_A = 0
_REG_B = 1
_REG_T = 2
_REG_ZERO = 3
_REG_FLAG = 4


class _SingleCoreRoutine:
    """Shared machinery: build, cache and run main + conditional-tail schedules."""

    def __init__(self, coprocessor: Coprocessor, num_words: int, layout: ModAddLayout):
        if num_words < 1:
            raise ParameterError("operands need at least one word")
        self.coprocessor = coprocessor
        self.num_words = num_words
        self.layout = layout
        self._main_schedule: Optional[Schedule] = None
        self._tail_schedule: Optional[Schedule] = None

    def _pad(self, program: CoreProgram):
        others = [
            CoreProgram(core_id=i)
            for i in range(1, self.coprocessor.config.num_cores)
        ]
        return [program] + others

    def _main(self) -> Schedule:
        if self._main_schedule is None:
            program = CoreProgram(core_id=0)
            self._emit_main(program)
            self._main_schedule = self.coprocessor.build_schedule(self._pad(program))
            self.coprocessor.instruction_rom.store(self._main_schedule.instruction_count)
        return self._main_schedule

    def _tail(self) -> Schedule:
        if self._tail_schedule is None:
            program = CoreProgram(core_id=0)
            self._emit_tail(program)
            self._tail_schedule = self.coprocessor.build_schedule(self._pad(program))
            self.coprocessor.instruction_rom.store(self._tail_schedule.instruction_count)
        return self._tail_schedule

    # Subclasses fill these in.
    def _emit_main(self, program: CoreProgram) -> None:
        raise NotImplementedError

    def _emit_tail(self, program: CoreProgram) -> None:
        raise NotImplementedError

    # -- common cycle accounting -------------------------------------------------

    def fast_path_cycles(self) -> int:
        """Cycles when the conditional tail is not taken."""
        return self._main().cycles

    def worst_case_cycles(self) -> int:
        """Cycles when the conditional tail is taken."""
        return self._main().cycles + self._tail().cycles


class ModularAddMicrocode(_SingleCoreRoutine):
    """Modular addition: ``result = (a + b) mod P`` (strict) or ``a + b`` (lazy)."""

    def __init__(
        self,
        coprocessor: Coprocessor,
        num_words: int,
        layout: ModAddLayout,
        modulus: int,
        lazy: bool = False,
    ):
        super().__init__(coprocessor, num_words, layout)
        self.modulus = modulus
        self.lazy = lazy

    def _emit_main(self, program: CoreProgram) -> None:
        layout = self.layout
        program.append(cla())
        program.append(sha(_REG_ZERO, comment="materialise constant 0"))
        for j in range(self.num_words):
            program.append(ld(_REG_A, layout.a_base + j))
            program.append(ld(_REG_B, layout.b_base + j))
            program.append(addc(_REG_T, _REG_A, _REG_B, use_carry=(j > 0)))
            program.append(st(layout.result_base + j, _REG_T))
        # Materialise the final carry so the sequencer can test it.
        program.append(addc(_REG_FLAG, _REG_ZERO, _REG_ZERO, use_carry=True))

    def _emit_tail(self, program: CoreProgram) -> None:
        """Subtract P from the stored sum (taken when sum >= P)."""
        layout = self.layout
        for j in range(self.num_words):
            program.append(ld(_REG_A, layout.result_base + j))
            program.append(ld(_REG_B, layout.modulus_base + j))
            program.append(subb(_REG_T, _REG_A, _REG_B, use_carry=(j > 0)))
            program.append(st(layout.result_base + j, _REG_T))

    def run(self, a: int, b: int) -> Tuple[int, int]:
        """Execute the addition; returns ``(result, cycles)``."""
        ram = self.coprocessor.ram
        layout = self.layout
        ram.load_integer(layout.a_base, a, self.num_words)
        ram.load_integer(layout.b_base, b, self.num_words)
        ram.load_integer(layout.modulus_base, self.modulus, self.num_words)

        main_result = self.coprocessor.execute_schedule(self._main())
        cycles = main_result.cycles
        total = a + b
        if not self.lazy and total >= self.modulus:
            # The sequencer takes the subtract-P tail.  (With a + b < 2P a
            # single subtraction always suffices.)
            tail_result = self.coprocessor.execute_schedule(self._tail(), reset_cores=False)
            cycles += tail_result.cycles
        value = ram.read_integer(layout.result_base, self.num_words)
        return value, cycles


class ModularSubMicrocode(_SingleCoreRoutine):
    """Modular subtraction: ``result = (a - b) mod P``."""

    def __init__(
        self,
        coprocessor: Coprocessor,
        num_words: int,
        layout: ModAddLayout,
        modulus: int,
    ):
        super().__init__(coprocessor, num_words, layout)
        self.modulus = modulus

    def _emit_main(self, program: CoreProgram) -> None:
        layout = self.layout
        for j in range(self.num_words):
            program.append(ld(_REG_A, layout.a_base + j))
            program.append(ld(_REG_B, layout.b_base + j))
            program.append(subb(_REG_T, _REG_A, _REG_B, use_carry=(j > 0)))
            program.append(st(layout.result_base + j, _REG_T))

    def _emit_tail(self, program: CoreProgram) -> None:
        """Add P back (taken when the subtraction borrowed)."""
        layout = self.layout
        for j in range(self.num_words):
            program.append(ld(_REG_A, layout.result_base + j))
            program.append(ld(_REG_B, layout.modulus_base + j))
            program.append(addc(_REG_T, _REG_A, _REG_B, use_carry=(j > 0)))
            program.append(st(layout.result_base + j, _REG_T))

    def run(self, a: int, b: int) -> Tuple[int, int]:
        """Execute the subtraction; returns ``(result, cycles)``."""
        ram = self.coprocessor.ram
        layout = self.layout
        ram.load_integer(layout.a_base, a, self.num_words)
        ram.load_integer(layout.b_base, b, self.num_words)
        ram.load_integer(layout.modulus_base, self.modulus, self.num_words)

        main_result = self.coprocessor.execute_schedule(self._main())
        cycles = main_result.cycles
        if a < b:
            tail_result = self.coprocessor.execute_schedule(self._tail(), reset_cores=False)
            cycles += tail_result.cycles
        value = ram.read_integer(layout.result_base, self.num_words)
        return value, cycles
