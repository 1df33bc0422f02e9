"""Capstone: the whole survey narrative in one executable story.

A software editor ships firmware to a secure SoC over an open network
(Figure 1); the SoC installs it behind a modern engine stack
(stream cipher + Merkle integrity); the firmware's real execution trace
drives the simulator; a passive probe learns nothing about content; an
active attacker's modification and replay attempts are caught; and the
same firmware on the legacy DS5002FP falls to the Kuhn attack.
"""

import pytest

from repro.attacks import (
    BusProbe,
    DallasBoard,
    KuhnAttack,
    analyze_ciphertext,
)
from repro.core import (
    MerkleTamperDetected,
    MerkleTreeEngine,
    StreamCipherEngine,
    run_distribution,
)
from repro.core.engine import MemoryPort
from repro.crypto import SmallBlockCipher
from repro.isa import assemble, mcu_trace, secret_table_program
from repro.sim import Bus, CacheConfig, MainMemory, MemoryConfig, SecureSystem
from repro.traces import events_to_trace

KEY = b"0123456789abcdef"
MAC = b"capstone-mac-key"
REGION = 2048


@pytest.fixture(scope="module")
def firmware():
    return assemble(secret_table_program(seed=2005, table_len=48),
                    size=REGION)


class TestFullStory:
    def test_distribution_to_protected_execution(self, firmware):
        # -- Figure 1: ship it over the open network --------------------
        engine = MerkleTreeEngine(
            StreamCipherEngine(KEY, line_size=32), mac_key=MAC,
            region_base=0, region_size=REGION, tree_base=0x10000,
        )
        probe = BusProbe()
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 17),
            sink=probe,
        )

        processor, eve, session_key = run_distribution(
            firmware, seed=99, key_bits=512, engine=engine,
            memory=system.memory,
        )
        assert not eve.saw(session_key)
        assert not eve.saw(firmware[:16])

        # -- run the REAL firmware trace through the protected system ---
        trace = events_to_trace(
            mcu_trace(secret_table_program(seed=2005, table_len=48),
                      memory_size=REGION)
        )
        for access in trace:
            system.step(access)
        # Execution saw correct plaintext throughout (spot check a line the
        # firmware fetched).
        assert system.read_plaintext(0, 32) == firmware[:32]
        # The probe saw only high-entropy bytes, never the program.
        recon = probe.reconstruct_memory()
        code_view = b"".join(
            data for addr, data in sorted(recon.items()) if addr < REGION
        )
        assert firmware[:32] not in code_view
        # The kernel touches only a few lines; looks_random handles the
        # small-sample entropy bias.
        assert analyze_ciphertext(code_view, 8).looks_random
        assert engine.verdicts.tampers == 0

    def test_active_attacks_are_caught(self, firmware):
        engine = MerkleTreeEngine(
            StreamCipherEngine(KEY, line_size=32), mac_key=MAC,
            region_base=0, region_size=REGION, tree_base=0x10000,
        )
        port = MemoryPort(MainMemory(MemoryConfig(size=1 << 17)), Bus())
        engine.install_image(port.memory, 0, firmware)

        # Modification of a fetched instruction (§5's threat).
        flipped = port.memory.dump(0x40, 1)[0] ^ 1
        port.memory.load_image(0x40, bytes([flipped]))
        with pytest.raises(MerkleTamperDetected):
            engine.fill_line(port, 0x40, 32)
        port.memory.load_image(0x40, bytes([flipped ^ 1]))

        # Replay of a stale line + leaf after a legitimate update.
        stale_line = port.memory.dump(0x80, 32)
        stale_leaf = port.memory.dump(engine._node_addr(0, 4), 16)
        engine.write_line(port, 0x80, b"PATCHED!" * 4)
        port.memory.load_image(0x80, stale_line)
        port.memory.load_image(engine._node_addr(0, 4), stale_leaf)
        engine._node_cache.clear()
        with pytest.raises(MerkleTamperDetected):
            engine.fill_line(port, 0x80, 32)

    def test_same_firmware_falls_on_the_legacy_part(self, firmware):
        """The survey's arc in one assertion pair: the 2003-era stack
        resists the class-II attacker that strips the 1995-era part bare."""
        board = DallasBoard(SmallBlockCipher(b"legacy-factory-key"),
                            firmware, memory_size=REGION)
        report = KuhnAttack(board).run()
        assert report.plaintext == firmware           # total break
        # The secret table itself, recovered byte for byte:
        assert report.plaintext[0x100:0x130] == firmware[0x100:0x130]
