"""Microcode generator for multi-core Montgomery modular multiplication.

Implements Algorithm 1 (FIOS) with the carry-local multi-core schedule of
Fig. 5 / reference [4]:

* the result words are split into one contiguous block per core (core 0 gets
  the smallest block because it also derives the reduction digit m each
  iteration);
* carries produced at the top of a block are *not* passed to the next core:
  they are kept in two local registers (low word + high bits) and re-injected
  by the same core one iteration later, after the division by r has shifted
  that position back into the block;
* at the end of every iteration the lowest freshly-computed word of core c is
  stored to a transfer cell and loaded by core c-1 — the word movements drawn
  in Fig. 5;
* the per-iteration reduction digit m is derived by core 0 from its always
  exact z0 word and broadcast through a DataRAM cell.

The main loop is executed cycle-accurately.  The epilogue — folding the
parked carries back in and the conditional final subtraction — is performed
functionally by the sequencer model at a documented cost
(:attr:`MontgomeryMulMicrocode.EPILOGUE_CYCLES_PER_WORD` cycles per word plus
a constant), because the paper gives no detail about it and it is a small
share of the operation: 43 of the 314 cycles of a 170-bit multiplication in
``benchmarks/results/table1_modular_ops.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ExecutionError, ParameterError
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.parallel import ParallelFiosSchedule
from repro.soc.assembler import CoreProgram
from repro.soc.coprocessor import Coprocessor
from repro.soc.isa import cla, ld, mac, sha, st


@dataclass
class ModMulLayout:
    """DataRAM addresses the multiplier microcode needs."""

    x_base: int
    y_base: int
    result_base: int
    modulus_base: int
    pprime_addr: int
    one_addr: int
    m_addr: int
    xfer_base: int  # one transfer cell per core


class MontgomeryMulMicrocode:
    """Builds and runs the multi-core Montgomery multiplication microcode."""

    #: Modeled sequencer cost of the epilogue (carry resolution + conditional
    #: subtraction): one load-modify-store style pass over the result words.
    EPILOGUE_CYCLES_PER_WORD = 3
    EPILOGUE_CYCLES_FIXED = 10

    def __init__(
        self,
        coprocessor: Coprocessor,
        domain: MontgomeryDomain,
        layout: ModMulLayout,
    ):
        if domain.word_bits != coprocessor.config.word_bits:
            raise ParameterError("domain word size differs from the coprocessor word size")
        self.coprocessor = coprocessor
        self.domain = domain
        self.layout = layout
        self.num_words = domain.num_words
        self.schedule_blocks = ParallelFiosSchedule.build(
            self.num_words, coprocessor.config.num_cores
        )
        self.num_active_cores = self.schedule_blocks.num_cores
        self._register_maps = [
            self._build_register_map(core) for core in range(self.num_active_cores)
        ]
        self._check_register_pressure()
        self.programs = self._build_programs()
        self._static_schedule = None

    # -- register allocation -------------------------------------------------------

    def _block(self, core: int) -> Tuple[int, int]:
        return self.schedule_blocks.blocks[core]

    def _build_register_map(self, core: int) -> Dict[str, int]:
        lo, hi = self._block(core)
        block_size = hi - lo + 1
        names: Dict[str, int] = {}
        index = 0
        for j in range(lo, hi + 1):
            names[f"x{j}"] = index
            index += 1
        for j in range(lo, hi + 1):
            names[f"p{j}"] = index
            index += 1
        for j in range(lo, hi + 1):
            names[f"z{j}"] = index
            index += 1
        for scalar in ("one", "yi", "m", "deflo", "defhi", "t", "thi", "pprime", "zx", "discard"):
            names[scalar] = index
            index += 1
        names["_block_size"] = block_size
        return names

    def _check_register_pressure(self) -> None:
        limit = self.coprocessor.config.num_registers
        for core, regs in enumerate(self._register_maps):
            needed = max(v for k, v in regs.items() if k != "_block_size") + 1
            if needed > limit:
                raise ParameterError(
                    f"core {core} needs {needed} registers for a {self.num_words}-word "
                    f"operand but the register file has only {limit}; use more cores "
                    f"or a larger register file"
                )

    # -- program construction ---------------------------------------------------------

    def _build_programs(self) -> List[CoreProgram]:
        programs = [CoreProgram(core_id=c) for c in range(self.coprocessor.config.num_cores)]
        for core in range(self.num_active_cores):
            self._emit_init(programs[core], core)
        for iteration in range(self.num_words):
            for core in range(self.num_active_cores):
                self._emit_iteration(programs[core], core, iteration)
        return programs

    def _emit_init(self, program: CoreProgram, core: int) -> None:
        regs = self._register_maps[core]
        layout = self.layout
        lo, hi = self._block(core)
        program.append(ld(regs["one"], layout.one_addr, comment="constant 1"))
        for j in range(lo, hi + 1):
            program.append(ld(regs[f"x{j}"], layout.x_base + j, comment=f"load x[{j}]"))
        for j in range(lo, hi + 1):
            program.append(ld(regs[f"p{j}"], layout.modulus_base + j, comment=f"load p[{j}]"))
        if core == 0:
            program.append(ld(regs["pprime"], layout.pprime_addr, comment="load p'"))
        program.append(cla(comment="zero the z block"))
        for j in range(lo, hi + 1):
            program.append(sha(regs[f"z{j}"]))
        program.append(sha(regs["deflo"]))
        program.append(sha(regs["defhi"]))
        if core == self.num_active_cores - 1:
            program.append(sha(regs["zx"]))

    def _emit_iteration(self, program: CoreProgram, core: int, i: int) -> None:
        regs = self._register_maps[core]
        layout = self.layout
        lo, hi = self._block(core)
        is_first = core == 0
        is_last = core == self.num_active_cores - 1
        single_core = self.num_active_cores == 1

        program.append(ld(regs["yi"], layout.y_base + i, comment=f"y[{i}]"))

        if is_first:
            # Derive m from the (always exact) z0 and broadcast it.
            program.append(cla())
            program.append(mac(regs["z0"], regs["one"], comment="t = z0 + x0*yi"))
            program.append(mac(regs["x0"], regs["yi"]))
            program.append(sha(regs["t"]))
            program.append(sha(regs["thi"]))
            program.append(mac(regs["t"], regs["pprime"], comment="m = t*p' mod r"))
            program.append(sha(regs["m"]))
            program.append(cla(comment="drop high part of t*p'"))
            if not single_core:
                wait = tuple(f"lm{i - 1}_c{c}" for c in range(1, self.num_active_cores)) if i > 0 else ()
                program.append(
                    st(layout.m_addr, regs["m"], tag=f"m{i}", wait_for=wait, comment="broadcast m")
                )
            # Word 0: S[0] = (t + p0*m) mod r must be zero; keep the carry.
            program.append(mac(regs["t"], regs["one"]))
            program.append(mac(regs["p0"], regs["m"]))
            program.append(sha(regs["discard"], comment="S[0] == 0"))
            program.append(mac(regs["thi"], regs["one"], comment="carry of z0 + x0*yi"))
            start_word = lo + 1
        else:
            program.append(
                ld(regs["m"], layout.m_addr, wait_for=(f"m{i}",), tag=f"lm{i}_c{core}")
            )
            # Lowest word of the block: its new value is sent down to core-1.
            program.append(mac(regs[f"z{lo}"], regs["one"]))
            program.append(mac(regs[f"x{lo}"], regs["yi"]))
            program.append(mac(regs[f"p{lo}"], regs["m"]))
            if lo == hi:
                program.append(mac(regs["deflo"], regs["one"]))
            program.append(sha(regs["t"], comment=f"S[{lo}] -> transfer"))
            wait = (f"r{i - 1}_c{core - 1}",) if i > 0 else ()
            program.append(
                st(layout.xfer_base + core, regs["t"], tag=f"x{i}_c{core}", wait_for=wait)
            )
            start_word = lo + 1

        for j in range(start_word, hi + 1):
            program.append(mac(regs[f"z{j}"], regs["one"]))
            program.append(mac(regs[f"x{j}"], regs["yi"]))
            program.append(mac(regs[f"p{j}"], regs["m"]))
            if j == hi and not is_last:
                program.append(mac(regs["deflo"], regs["one"], comment="re-inject deferred carry"))
            program.append(sha(regs[f"z{j - 1}"], comment=f"new z[{j - 1}] = S[{j}]"))

        if is_last:
            # Fold the running carry into the extra word; no deferral needed.
            program.append(mac(regs["zx"], regs["one"], comment="add the overflow word"))
            program.append(sha(regs[f"z{hi}"], comment=f"new z[{hi}] = S[{self.num_words}]"))
            program.append(sha(regs["zx"]))
        else:
            program.append(mac(regs["defhi"], regs["one"], comment="high bits of deferred carry"))
            program.append(sha(regs["deflo"]))
            program.append(sha(regs["defhi"]))
            # Receive the transfer word from the core above.
            program.append(
                ld(
                    regs[f"z{hi}"],
                    layout.xfer_base + core + 1,
                    wait_for=(f"x{i}_c{core + 1}",),
                    tag=f"r{i}_c{core}",
                    comment="Fig. 5 transfer from the core above",
                )
            )

    # -- execution ------------------------------------------------------------------

    def build_schedule(self):
        """Assemble (and cache) the static VLIW schedule."""
        if self._static_schedule is None:
            self._static_schedule = self.coprocessor.build_schedule(self.programs)
            self.coprocessor.instruction_rom.store(self._static_schedule.instruction_count)
        return self._static_schedule

    @property
    def epilogue_cycles(self) -> int:
        """Modeled cost of carry resolution + conditional final subtraction."""
        return self.EPILOGUE_CYCLES_PER_WORD * self.num_words + self.EPILOGUE_CYCLES_FIXED

    def run(self, x_bar: int, y_bar: int) -> Tuple[int, int]:
        """Execute one Montgomery multiplication.

        Operands are Montgomery-domain residues already reduced modulo P.
        Returns ``(result, total_cycles)`` where the result is also written
        to the result region of DataRAM and ``total_cycles`` includes the
        modeled epilogue.
        """
        p = self.domain.modulus
        if not (0 <= x_bar < p and 0 <= y_bar < p):
            raise ParameterError("operands must be reduced modulo P")
        ram = self.coprocessor.ram
        layout = self.layout
        ram.load_integer(layout.x_base, x_bar, self.num_words)
        ram.load_integer(layout.y_base, y_bar, self.num_words)
        ram.load_integer(layout.modulus_base, self.domain.modulus, self.num_words)
        ram.write(layout.pprime_addr, self.domain.p_prime)
        ram.write(layout.one_addr, 1)

        schedule = self.build_schedule()
        result = self.coprocessor.execute_schedule(schedule)

        value = self._resolve_epilogue()
        ram.load_integer(layout.result_base, value, self.num_words)
        total_cycles = result.cycles + self.epilogue_cycles
        return value, total_cycles

    def _resolve_epilogue(self) -> int:
        """Fold parked carries, add the overflow word, subtract P if needed."""
        w = self.domain.word_bits
        value = 0
        for core in range(self.num_active_cores):
            regs = self._register_maps[core]
            lo, hi = self._block(core)
            core_state = self.coprocessor.cores[core]
            for j in range(lo, hi + 1):
                value += core_state.read_register(regs[f"z{j}"]) << (w * j)
            if core == self.num_active_cores - 1:
                value += core_state.read_register(regs["zx"]) << (w * self.num_words)
            else:
                deferred = core_state.read_register(regs["deflo"]) + (
                    core_state.read_register(regs["defhi"]) << w
                )
                value += deferred << (w * hi)
        if value >= 2 * self.domain.modulus:
            raise ExecutionError("Montgomery microcode produced a value >= 2P (bug)")
        if value >= self.domain.modulus:
            value -= self.domain.modulus
        return value

    def cycle_count(self) -> int:
        """Total cycles of one multiplication (main loop + modeled epilogue)."""
        return self.build_schedule().cycles + self.epilogue_cycles
