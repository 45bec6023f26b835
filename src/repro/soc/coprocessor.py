"""The multicore coprocessor: decoder + cores + single-port DataRAM.

This is the cycle-accurate execution engine: it takes a static VLIW
:class:`~repro.soc.assembler.Schedule` (the contents of the microinstruction
ROM) and executes it one bundle per clock against the shared DataRAM,
enforcing the structural constraints the paper describes (single memory port,
no branches inside the cores) and collecting the statistics the analysis
layer turns into Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ExecutionError, ParameterError, ScheduleError
from repro.soc.assembler import CoreProgram, Schedule, schedule_programs
from repro.soc.core import Core
from repro.soc.isa import Op
from repro.soc.memory import DataRam, InstructionRom, MemoryAllocator


@dataclass
class CoprocessorConfig:
    """Structural parameters of the coprocessor.

    Defaults follow the paper where it is explicit (single-port block-RAM data
    memory, cores built around the FPGA's dedicated multipliers) and use
    documented engineering choices where it is not (16-bit words so one MAC
    maps onto one dedicated 18x18 multiplier, four cores as in Fig. 5, a
    register file large enough to hold each core's share of a 1024-bit
    operand).
    """

    word_bits: int = 16
    num_cores: int = 4
    num_registers: int = 80
    data_ram_words: int = 4096
    # The simulator stores fully unrolled routines (the real ROM would hold a
    # rolled loop plus an iteration counter in the decoder); the capacity is
    # sized for an unrolled 1024-bit Montgomery multiplication.
    ins_rom_words: int = 131072

    def validate(self) -> None:
        if self.word_bits < 4:
            raise ParameterError("word size must be at least 4 bits")
        if self.num_cores < 1:
            raise ParameterError("need at least one core")
        if self.num_registers < 8:
            raise ParameterError("register file too small for the microcode")


@dataclass
class ExecutionResult:
    """Outcome of running one schedule."""

    cycles: int
    instructions: int
    memory_accesses: int
    mac_operations: int
    core_utilization: List[float] = field(default_factory=list)
    stall_cycles: int = 0

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(cycles={self.cycles}, instrs={self.instructions}, "
            f"mem={self.memory_accesses}, macs={self.mac_operations})"
        )


class Coprocessor:
    """Decoder, cores and data memory of the platform's workhorse (Fig. 2)."""

    def __init__(self, config: Optional[CoprocessorConfig] = None):
        self.config = config or CoprocessorConfig()
        self.config.validate()
        self.ram = DataRam(self.config.data_ram_words, self.config.word_bits)
        self.cores = [
            Core(core_id, self.config.word_bits, self.config.num_registers)
            for core_id in range(self.config.num_cores)
        ]
        self.instruction_rom = InstructionRom(self.config.ins_rom_words, name="InsRom2")
        self.sequence_rom = InstructionRom(self.config.ins_rom_words, name="InsRom1")
        self.allocator = MemoryAllocator(self.config.data_ram_words)
        self.total_cycles = 0

    # -- operand staging (MicroBlaze-side, via data registers B and C) -------------

    def allocate_operand(self, name: str, num_words: int) -> int:
        """Reserve DataRAM space for a named multi-word operand."""
        return self.allocator.allocate(name, num_words)

    def write_operand(self, name: str, value: int) -> None:
        """Stage an operand value into its DataRAM region (host-side)."""
        base = self.allocator.address_of(name)
        self.ram.load_integer(base, value, self.allocator.size_of(name))

    def read_operand(self, name: str) -> int:
        """Read a multi-word operand back out of DataRAM (host-side)."""
        base = self.allocator.address_of(name)
        return self.ram.read_integer(base, self.allocator.size_of(name))

    def address_of(self, name: str) -> int:
        return self.allocator.address_of(name)

    # -- execution ---------------------------------------------------------------

    def reset_cores(self) -> None:
        for core in self.cores:
            core.reset()

    def build_schedule(self, programs: Sequence[CoreProgram]) -> Schedule:
        """Assemble per-core streams into a static schedule and account ROM space."""
        if len(programs) > self.config.num_cores:
            raise ScheduleError(
                f"{len(programs)} core programs for {self.config.num_cores} cores"
            )
        padded = list(programs) + [
            CoreProgram(core_id=i) for i in range(len(programs), self.config.num_cores)
        ]
        schedule = schedule_programs(
            padded,
            num_registers=self.config.num_registers,
            memory_size=self.config.data_ram_words,
        )
        return schedule

    def execute_schedule(self, schedule: Schedule, reset_cores: bool = True) -> ExecutionResult:
        """Run a schedule bundle-by-bundle and return cycle/operation counts."""
        if schedule.num_cores != self.config.num_cores:
            raise ExecutionError("schedule was built for a different core count")
        if reset_cores:
            self.reset_cores()
        start_instr = sum(core.executed for core in self.cores)
        start_mem = sum(core.memory_accesses for core in self.cores)
        start_mac = sum(core.mac_count for core in self.cores)

        stall_cycles = 0
        for bundle in schedule.bundles:
            # The port constraint was validated at scheduling time; re-check
            # defensively because a broadcast read touches the RAM only once.
            memory_slots = [s for s in bundle if s is not None and s.uses_memory()]
            broadcast_address = None
            if len(memory_slots) > 1:
                addresses = {s.addr for s in memory_slots}
                ops = {s.op for s in memory_slots}
                if ops != {Op.LD} or len(addresses) != 1:
                    raise ExecutionError("single-port DataRAM conflict at execution time")
                broadcast_address = memory_slots[0].addr
            if not any(slot is not None for slot in bundle):
                stall_cycles += 1
            if broadcast_address is not None:
                # One physical read, every listed core latches the value.
                value = self.ram.read(broadcast_address)
                for core_id, slot in enumerate(bundle):
                    if slot is None:
                        continue
                    if slot.op == Op.LD and slot.addr == broadcast_address:
                        self.cores[core_id].registers[slot.rd] = value
                        self.cores[core_id].executed += 1
                        self.cores[core_id].memory_accesses += 1
                    else:
                        self.cores[core_id].execute(slot, self.ram)
            else:
                for core_id, slot in enumerate(bundle):
                    if slot is not None:
                        self.cores[core_id].execute(slot, self.ram)

        self.total_cycles += schedule.cycles
        return ExecutionResult(
            cycles=schedule.cycles,
            instructions=sum(core.executed for core in self.cores) - start_instr,
            memory_accesses=sum(core.memory_accesses for core in self.cores) - start_mem,
            mac_operations=sum(core.mac_count for core in self.cores) - start_mac,
            core_utilization=schedule.utilization(),
            stall_cycles=stall_cycles,
        )

    def run_programs(self, programs: Sequence[CoreProgram]) -> ExecutionResult:
        """Convenience: schedule then execute."""
        schedule = self.build_schedule(programs)
        return self.execute_schedule(schedule)

    def __repr__(self) -> str:
        return (
            f"Coprocessor(cores={self.config.num_cores}, w={self.config.word_bits}, "
            f"ram={self.config.data_ram_words} words)"
        )
