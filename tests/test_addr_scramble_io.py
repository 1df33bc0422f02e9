"""Address-scrambled engine wrapper and din-format trace I/O."""

import io

import pytest

from repro.attacks import BusProbe, classify_pattern, profile_probe
from repro.core import (
    AddressScrambledEngine,
    StreamCipherEngine,
    XomAesEngine,
)
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import (
    Access,
    AccessKind,
    TraceFormatError,
    load_trace,
    make_workload,
    save_trace,
    sequential_code,
)

from .reference_model import store

KEY = b"0123456789abcdef"
REGION = 8192


def make_system(engine):
    return SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
    )


def scrambled(inner=None):
    inner = inner or StreamCipherEngine(KEY, line_size=32)
    return AddressScrambledEngine(
        inner, addr_key=b"address-key", region_lines=REGION // 32,
    )


class TestFunctional:
    def test_install_and_execute(self):
        engine = scrambled()
        system = make_system(engine)
        image = bytes((i * 7 + 3) & 0xFF for i in range(REGION))
        system.install_image(0, image)
        system.step(Access(AccessKind.LOAD, 0x140))
        assert bytes(system._line_data[0x140 // 32]) == image[0x140:0x160]

    def test_store_flush_roundtrip(self):
        engine = scrambled()
        system = make_system(engine)
        system.install_image(0, bytes(REGION))
        store(system, 0x80, b"\x11\x22\x33\x44")
        system.flush()
        # Read back through the engine (logical address).
        port_view = engine.decrypt_line(
            0x80, system.memory.dump(engine.physical(0x80), 32)
        )
        assert port_view[:4] == b"\x11\x22\x33\x44"

    def test_memory_layout_is_permuted(self):
        engine = scrambled()
        memory_scrambled = make_system(engine)
        memory_plain = make_system(StreamCipherEngine(KEY, line_size=32))
        image = bytes((i * 3) & 0xFF for i in range(REGION))
        memory_scrambled.install_image(0, image)
        memory_plain.install_image(0, image)
        assert memory_scrambled.memory.dump(0, REGION) != \
            memory_plain.memory.dump(0, REGION)

    def test_outside_region_rejected(self):
        engine = scrambled()
        with pytest.raises(ValueError):
            engine.physical(REGION + 64)

    def test_works_with_block_inner(self):
        engine = scrambled(inner=XomAesEngine(KEY))
        system = make_system(engine)
        image = bytes((i * 11) & 0xFF for i in range(REGION))
        system.install_image(0, image)
        system.step(Access(AccessKind.FETCH, 0x200))
        assert bytes(system._line_data[0x200 // 32]) == image[0x200:0x220]


class TestPatternHiding:
    def run_probe(self, engine):
        system = make_system(engine)
        probe = BusProbe()
        system.bus.attach_probe(probe)
        system.install_image(0, bytes(REGION))
        for access in sequential_code(2000, code_size=REGION):
            system.step(access)
        return probe

    def test_sequentiality_hidden(self):
        """The first-order pattern leak closes: a sequential victim reads
        as random on the scrambled bus."""
        plain_probe = self.run_probe(StreamCipherEngine(KEY, line_size=32))
        scrambled_probe = self.run_probe(scrambled())
        assert classify_pattern(plain_probe) == "sequential"
        assert classify_pattern(scrambled_probe) == "random"

    def test_working_set_still_leaks(self):
        """The honest limit: the fixed permutation hides order, not size."""
        probe = self.run_probe(scrambled())
        prof = profile_probe(probe)
        assert prof.distinct_addresses == REGION // 32 - 6  # cache-resident tail

    def test_revisit_structure_still_leaks(self):
        """Line reuse is preserved one-to-one by a fixed permutation."""
        engine = scrambled()
        system = make_system(engine)
        probe = BusProbe()
        system.bus.attach_probe(probe)
        system.install_image(0, bytes(REGION))
        # Visit the same far-apart lines repeatedly, thrashing the cache.
        stride = 16 * 32
        for _ in range(10):
            for i in range(6):
                system.step(Access(AccessKind.LOAD, i * stride))
        prof = profile_probe(probe)
        assert prof.revisit_fraction > 0.5


class TestTraceIO:
    def test_roundtrip(self):
        trace = make_workload("mixed", n=200)
        buf = io.StringIO()
        count = save_trace(trace, buf)
        buf.seek(0)
        assert load_trace(buf) == trace
        assert count == len(trace)

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.din")
        trace = sequential_code(50)
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_format(self):
        buf = io.StringIO()
        save_trace([Access(AccessKind.STORE, 0x1F4, 8)], buf)
        assert buf.getvalue() == "1 1f4 8\n"

    def test_two_column_variant(self):
        trace = load_trace(io.StringIO("2 400\n0 80\n"))
        assert trace[0] == Access(AccessKind.FETCH, 0x400, 4)
        assert trace[1] == Access(AccessKind.LOAD, 0x80, 4)

    def test_comments_and_blanks(self):
        text = "# header\n\n2 0 4  # fetch\n"
        assert len(load_trace(io.StringIO(text))) == 1

    def test_bad_label(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO("9 400 4\n"))

    def test_bad_field_count(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO("2 400 4 extra\n"))

    def test_bad_number(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO("2 zz 4\n"))


class TestBinaryTraceIO:
    """The BTRC1 binary format: bounded-memory streams, typed errors."""

    def round_trip(self, trace):
        from repro.traces import load_trace_bin, save_trace_bin

        buf = io.BytesIO()
        count = save_trace_bin(trace, buf)
        buf.seek(0)
        assert count == len(trace)
        assert load_trace_bin(buf) == trace

    def test_round_trip(self):
        self.round_trip(make_workload("mixed", n=2000))

    def test_empty_trace(self):
        self.round_trip([])

    def test_generator_input_streams(self):
        from repro.traces import iter_workload, load_trace_bin, save_trace_bin

        buf = io.BytesIO()
        save_trace_bin(iter_workload("mixed", n=300), buf)
        buf.seek(0)
        assert load_trace_bin(buf) == make_workload("mixed", n=300)

    def test_iter_is_lazy(self):
        from repro.traces import iter_trace_bin, save_trace_bin

        buf = io.BytesIO()
        save_trace_bin(sequential_code(100), buf)
        buf.seek(0)
        it = iter_trace_bin(buf)
        assert next(it) == Access(AccessKind.FETCH, 0, 4)

    def test_bad_magic(self):
        from repro.traces import iter_trace_bin

        with pytest.raises(TraceFormatError, match="magic"):
            list(iter_trace_bin(io.BytesIO(b"not-a-trace")))

    def test_truncated_trailing_record(self):
        from repro.traces import load_trace_bin, save_trace_bin

        buf = io.BytesIO()
        save_trace_bin(sequential_code(10), buf)
        clipped = io.BytesIO(buf.getvalue()[:-5])  # shear the last record
        with pytest.raises(TraceFormatError,
                           match=r"record 10: truncated record \(8 of 13"):
            load_trace_bin(clipped)

    def test_unknown_label(self):
        from repro.traces import BTRC_MAGIC, load_trace_bin

        record = bytes([9]) + (0).to_bytes(8, "big") + (4).to_bytes(4, "big")
        with pytest.raises(TraceFormatError, match="unknown access label 9"):
            load_trace_bin(io.BytesIO(BTRC_MAGIC + record))

    def test_zero_size_record(self):
        from repro.traces import BTRC_MAGIC, load_trace_bin

        record = bytes([2]) + (0).to_bytes(8, "big") + (0).to_bytes(4, "big")
        with pytest.raises(TraceFormatError, match="invalid size"):
            load_trace_bin(io.BytesIO(BTRC_MAGIC + record))


class TestDinStreaming:
    def test_iter_trace_is_lazy(self):
        from repro.traces import iter_trace

        it = iter_trace(io.StringIO("2 400 4\n0 80 4\n"))
        assert next(it) == Access(AccessKind.FETCH, 0x400, 4)

    def test_invalid_record_values(self):
        from repro.traces import iter_trace

        with pytest.raises(TraceFormatError, match="invalid record"):
            list(iter_trace(io.StringIO("2 400 0\n")))
