"""Tests for the core ISA definitions and the memory models."""

import pytest

from repro.errors import AssemblyError, MemoryMapError, ParameterError
from repro.soc.isa import Instruction, Op, addc, cla, ld, mac, st, subb
from repro.soc.memory import DataRam, InstructionRom, MemoryAllocator


class TestInstruction:
    def test_seven_opcodes(self):
        assert len(Op) == 7

    def test_memory_flag(self):
        assert ld(0, 0).uses_memory()
        assert st(0, 0).uses_memory()
        assert not mac(0, 1).uses_memory()
        assert not cla().uses_memory()

    def test_constructors_fill_fields(self):
        instr = addc(2, 0, 1, use_carry=True)
        assert instr.op == Op.ADDC and instr.rd == 2 and instr.use_carry

    def test_validation_missing_fields(self):
        with pytest.raises(AssemblyError):
            Instruction(Op.LD, rd=0).validate(16, 64)  # no address
        with pytest.raises(AssemblyError):
            Instruction(Op.MAC, ra=0).validate(16, 64)  # missing rb

    def test_validation_register_range(self):
        with pytest.raises(AssemblyError):
            mac(0, 99).validate(16, 64)
        mac(0, 15).validate(16, 64)

    def test_validation_address_range(self):
        with pytest.raises(AssemblyError):
            ld(0, 64).validate(16, 64)
        ld(0, 63).validate(16, 64)

    def test_repr_is_readable(self):
        text = repr(subb(1, 2, 3, use_carry=True, comment="borrow chain"))
        assert "SUBB" in text and "borrow chain" in text


class TestDataRam:
    def test_read_write(self):
        ram = DataRam(16, word_bits=16)
        ram.write(3, 0xBEEF)
        assert ram.read(3) == 0xBEEF
        assert ram.reads == 1 and ram.writes == 1

    def test_bounds(self):
        ram = DataRam(4, word_bits=16)
        with pytest.raises(MemoryMapError):
            ram.read(4)
        with pytest.raises(MemoryMapError):
            ram.write(-1, 0)

    def test_word_width_enforced(self):
        ram = DataRam(4, word_bits=16)
        with pytest.raises(MemoryMapError):
            ram.write(0, 1 << 16)

    def test_multiword_staging(self):
        ram = DataRam(16, word_bits=16)
        value = 0x1234_5678_9ABC
        ram.load_integer(2, value, 4)
        assert ram.read_integer(2, 4) == value

    def test_staging_bounds(self):
        ram = DataRam(4, word_bits=16)
        with pytest.raises(MemoryMapError):
            ram.load_integer(2, 1, 4)

    def test_clear(self):
        ram = DataRam(4, word_bits=16)
        ram.write(0, 5)
        ram.clear()
        assert ram.read(0) == 0

    def test_rejects_bad_size(self):
        with pytest.raises(ParameterError):
            DataRam(0)


class TestAllocatorAndRom:
    def test_allocator_layout(self):
        allocator = MemoryAllocator(64)
        a = allocator.allocate("A", 10)
        b = allocator.allocate("B", 5)
        assert a == 0 and b == 10
        assert allocator.address_of("B") == 10
        assert allocator.size_of("A") == 10
        assert set(allocator.names()) == {"A", "B"}

    def test_allocator_duplicate_and_overflow(self):
        allocator = MemoryAllocator(8)
        allocator.allocate("A", 4)
        with pytest.raises(MemoryMapError):
            allocator.allocate("A", 1)
        with pytest.raises(MemoryMapError):
            allocator.allocate("B", 10)

    def test_allocator_unknown_name(self):
        with pytest.raises(MemoryMapError):
            MemoryAllocator(8).address_of("missing")

    def test_instruction_rom_capacity(self):
        rom = InstructionRom(100)
        rom.store(60)
        assert rom.free_words == 40
        with pytest.raises(MemoryMapError):
            rom.store(50)
