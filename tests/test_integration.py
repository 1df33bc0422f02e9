"""Cross-module integration: the survey's full story in executable form.

Each test wires several subsystems together: distribution protocol ->
engine-installed memory -> trace-driven execution -> bus observation ->
attack.
"""

import pytest

from repro.analysis import measure_overhead
from repro.attacks import (
    BusProbe,
    DallasBoard,
    KnownPlaintextDictionary,
    KuhnAttack,
    ecb_distinguisher,
)
from repro.core import (
    AegisEngine,
    DS5002FPEngine,
    GilmontEngine,
    StreamCipherEngine,
    XomAesEngine,
    run_distribution,
)
from repro.crypto import SmallBlockCipher
from repro.isa import assemble, mcu_trace, secret_table_program
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind, make_workload

KEY = b"0123456789abcdef"


def events_to_trace(events):
    """Convert MCU step events into a simulator access trace."""
    trace = []
    for ev in events:
        for addr in ev.fetched:
            trace.append(Access(AccessKind.FETCH, addr, 1))
        if ev.data_read is not None:
            trace.append(Access(AccessKind.LOAD, ev.data_read, 1))
        if ev.data_write is not None:
            trace.append(Access(AccessKind.STORE, ev.data_write, 1))
    return trace


class TestDistributionToExecution:
    """Figure 1 end to end, then the installed program actually runs."""

    def test_protocol_install_execute_probe(self):
        software = assemble(secret_table_program(seed=9, table_len=16),
                            size=1024)
        engine = XomAesEngine(KEY)
        probe = BusProbe()
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 16),
            sink=probe,
        )

        processor, eve, _ = run_distribution(
            software, seed=13, key_bits=512, engine=engine,
            memory=system.memory,
        )
        # Nothing secret crossed the network...
        assert not eve.saw(software[:16])
        # ...and executing the program leaks only ciphertext on the bus.
        events = mcu_trace(secret_table_program(seed=9, table_len=16),
                           memory_size=1024)
        for access in events_to_trace(events):
            system.step(access)
        assert software[:32] not in probe.observed_bytes("read")
        # The system still computes with correct plaintext.
        assert system.read_plaintext(0, 64) == software[:64]


class TestMcuTraceThroughSimulator:
    def test_real_instruction_trace_drives_engines(self):
        events = mcu_trace(secret_table_program(seed=4, table_len=32),
                           memory_size=2048)
        trace = events_to_trace(events)
        assert len(trace) > 100
        result = measure_overhead(
            lambda: GilmontEngine(b"0123456789abcdef01234567",
                                  functional=False),
            trace,
            workload="mcu-checksum",
            cache_config=CacheConfig(size=256, line_size=32, associativity=2),
        )
        assert result.baseline.cycles > 0
        assert result.overhead >= 0.0


class TestEngineVersusAttacks:
    def test_ds5002fp_system_falls_but_memory_was_hidden(self):
        """The full DS5002FP story: the bus/memory shows ciphertext (probe
        learns nothing), yet the class-II attack recovers everything."""
        firmware = assemble(secret_table_program(seed=21, table_len=24),
                            size=512)
        cipher = SmallBlockCipher(b"ds5002fp-key")
        board = DallasBoard(cipher, firmware, memory_size=512)

        # Passive: the ciphertext image does not reveal the firmware.
        assert firmware[:32] not in bytes(board.memory)

        # Active class-II attack: total break.
        report = KuhnAttack(board).run()
        assert report.plaintext == firmware

    def test_aegis_rewrite_hides_known_plaintext(self):
        """AEGIS's versioned IVs defeat the rewrite-recognition dictionary
        that works against deterministic engines."""
        aegis = AegisEngine(KEY)
        xom = XomAesEngine(KEY)
        d_aegis = KnownPlaintextDictionary(block_size=16)
        d_xom = KnownPlaintextDictionary(block_size=16)
        plain = bytes(range(32))

        d_xom.learn(0, plain, xom.encrypt_line(0, plain))
        assert d_xom.recover(0, xom.encrypt_line(0, plain)[:16]) is not None

        d_aegis.learn(0, plain, aegis.encrypt_line(0, plain))
        assert d_aegis.recover(0, aegis.encrypt_line(0, plain)[:16]) is None

    def test_full_memory_image_statistics(self):
        """Install a structured image through each engine; only weak or
        absent encryption leaves distinguishable structure."""
        image = (b"\x00" * 8 + b"\x11" * 8) * 256
        strong = XomAesEngine(KEY)
        system = SecureSystem(engine=strong,
                              mem_config=MemoryConfig(size=1 << 16))
        system.install_image(0, image)
        assert not ecb_distinguisher(system.memory.dump(0, len(image)), 8)

        clear = SecureSystem(mem_config=MemoryConfig(size=1 << 16))
        clear.install_image(0, image)
        assert ecb_distinguisher(clear.memory.dump(0, len(image)), 8)


class TestWorkloadSuiteSanity:
    @pytest.mark.parametrize("name", ["sequential", "branchy", "data-random"])
    def test_all_engines_complete_suite(self, name):
        trace = make_workload(name, n=800)
        for factory in (
            lambda: StreamCipherEngine(KEY, functional=False),
            lambda: AegisEngine(KEY, functional=False),
            lambda: DS5002FPEngine(KEY, functional=False),
        ):
            result = measure_overhead(
                factory, trace, workload=name,
                cache_config=CacheConfig(size=2048, line_size=32,
                                         associativity=2),
            )
            assert result.secured.cycles >= result.baseline.cycles
