"""Disassembler, base-engine edge cases, and classic DES key properties."""

import pytest

from repro.attacks import BusProbe
from repro.core import NullEngine, XomAesEngine
from repro.core.engine import MemoryPort
from repro.crypto import DES
from repro.isa import (
    Op,
    assemble,
    disassemble,
    fibonacci_program,
    format_listing,
    secret_table_program,
)
from repro.sim import Bus, MainMemory, MemoryConfig

KEY = b"0123456789abcdef"


class TestDisassembler:
    def test_roundtrip_reassembly(self):
        """Disassembling linear code and reassembling its text reproduces
        the original bytes."""
        source = """
            MOV A, #7
            ADD A, #3
            MOV R2, A
            OUT
            JMP 0x000C
            NOP
            HALT
        """
        image = assemble(source)
        listing = disassemble(image)
        rebuilt = assemble("\n".join(inst.text for inst in listing))
        assert rebuilt == image

    def test_all_defined_opcodes_decode(self):
        from repro.isa import INSTRUCTION_LENGTHS
        for opcode, length in INSTRUCTION_LENGTHS.items():
            image = bytes([opcode]) + bytes(4)
            inst = disassemble(image)[0]
            assert inst.opcode == opcode
            assert inst.length == length
            assert inst.is_defined

    def test_undefined_opcode_renders_as_data(self):
        inst = disassemble(bytes([0xAB, 0x00]))[0]
        assert not inst.is_defined
        assert "0xab" in inst.text

    def test_addresses_formatted(self):
        inst = disassemble(bytes([Op.JMP, 0x34, 0x12]))[0]
        assert inst.text == "JMP 0x1234"

    def test_truncated_instruction(self):
        """A multi-byte opcode at the image edge decodes without crashing."""
        inst = disassemble(bytes([Op.MOV_A_DIR]))[0]
        assert inst.length == 1
        assert "????" in inst.text

    def test_listing_format(self):
        listing = format_listing(disassemble(assemble("OUT\n HALT")))
        assert "0000:" in listing and "OUT" in listing and "HALT" in listing

    def test_kuhn_dump_is_readable(self):
        """The end of the §2.3 story: the recovered dump disassembles back
        into the victim's source structure."""
        firmware = assemble(secret_table_program(seed=3, table_len=8),
                            size=512)
        listing = disassemble(firmware, 0, 24)
        texts = [inst.text for inst in listing]
        assert texts[0].startswith("MOV R0")
        assert "MOVI" in texts
        assert any(t.startswith("DJNZ") for t in texts)


class TestEngineBase:
    def make_port(self, sink=None):
        return MemoryPort(MainMemory(MemoryConfig(size=1 << 16)),
                          Bus(sink=sink))

    def test_install_pads_to_line_size(self):
        engine = XomAesEngine(KEY)
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, b"short", line_size=32)
        assert engine.decrypt_line(0, memory.dump(0, 32))[:5] == b"short"

    def test_write_partial_spanning_blocks(self):
        """An unaligned write spanning two cipher blocks RMWs the union."""
        engine = XomAesEngine(KEY)   # 16-byte blocks
        port = self.make_port()
        engine.install_image(port.memory, 0, bytes(64))
        engine.write_partial(port, 12, b"\x01" * 8, 32)   # spans blocks 0-1
        assert engine.stats.rmw_operations == 1
        plain = engine.decrypt_line(0, port.memory.dump(0, 32))
        assert plain[12:20] == b"\x01" * 8
        assert plain[:12] == bytes(12)

    def test_write_partial_aligned_fast_path(self):
        engine = XomAesEngine(KEY)
        port = self.make_port()
        engine.install_image(port.memory, 0, bytes(64))
        engine.write_partial(port, 16, bytes(range(16)), 32)
        assert engine.stats.rmw_operations == 0
        plain = engine.decrypt_line(0, port.memory.dump(0, 32))
        assert plain[16:32] == bytes(range(16))

    def test_null_engine_write_partial(self):
        engine = NullEngine()
        port = self.make_port()
        engine.write_partial(port, 3, b"\xAA", 32)
        assert port.memory.dump(3, 1) == b"\xAA"
        assert engine.stats.rmw_operations == 0

    def test_memory_port_cycles(self):
        port = self.make_port()
        data, cycles = port.read(0, 32)
        assert cycles == port.memory.config.read_cycles(32)
        assert port.write(0, bytes(8)) == port.memory.config.write_cycles(8)

    def test_bus_sees_port_traffic(self):
        probe = BusProbe()
        port = self.make_port(sink=probe)
        port.read(0x40, 16)
        port.write(0x80, b"xy")
        assert [t.op for t in probe.transactions] == ["read", "write"]
        assert probe.transactions[1].data == b"xy"


class TestDESKeyProperties:
    """The classic DES key-schedule pathologies."""

    WEAK_KEYS = [
        bytes.fromhex("0101010101010101"),
        bytes.fromhex("FEFEFEFEFEFEFEFE"),
        bytes.fromhex("E0E0E0E0F1F1F1F1"),
        bytes.fromhex("1F1F1F1F0E0E0E0E"),
    ]

    @pytest.mark.parametrize("key", WEAK_KEYS)
    def test_weak_keys_are_self_inverse(self, key):
        """E_k(E_k(x)) == x for the four weak keys (all round keys equal)."""
        des = DES(key)
        block = b"weakkey!"
        assert des.encrypt_block(des.encrypt_block(block)) == block

    def test_normal_key_is_not_self_inverse(self):
        des = DES(bytes.fromhex("133457799BBCDFF1"))
        block = b"weakkey!"
        assert des.encrypt_block(des.encrypt_block(block)) != block

    def test_semi_weak_pair(self):
        """E_k1 inverts E_k2 for the classic semi-weak pair."""
        k1 = bytes.fromhex("01FE01FE01FE01FE")
        k2 = bytes.fromhex("FE01FE01FE01FE01")
        block = b"semiweak"
        assert DES(k2).encrypt_block(DES(k1).encrypt_block(block)) == block
