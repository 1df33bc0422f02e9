"""EDU placement study: CPU-cache vs cache-memory (survey Figure 7, §4).

The survey's Section 4 weighs putting the cipher unit *between the CPU and
the cache* (Figure 7b) so that even the cache holds ciphertext:

* "Modifying the cache access time directly impacts the system performance"
  — every access, hit or miss, pays the engine;
* the keystream must be available on-chip: storing it costs "an on-chip
  memory equivalent to the cache memory in term of size", which Section 5
  calls unaffordable; generating it on demand costs the generator latency
  on every access;
* "this scheme seems to provide no benefit in term of performance when
  compared to a stream cipher located between cache memory and memory
  controller."

:class:`CpuCacheStreamEngine` models both variants (stored keystream /
generated keystream); :func:`compare_placements` runs the three designs on
one workload and returns the table E12 prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.kernels import aes_kernel, ctr_pad
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.cache import CacheConfig
from ..sim.memory import MemoryConfig
from ..sim.pipeline import KEYSTREAM_UNIT, PipelinedUnit, XOM_AES_PIPE
from ..traces.trace import Trace
from .engine import BusEncryptionEngine, MemoryPort, Placement
from .stream_engine import StreamCipherEngine

# NOTE: repro.sim.system imports this package (for the engine interface), so
# the system composer is imported lazily inside compare_placements.

__all__ = ["CpuCacheStreamEngine", "PlacementComparison", "compare_placements"]


class CpuCacheStreamEngine(BusEncryptionEngine):
    """Stream cipher between CPU and cache (Figure 7b).

    The cache and external memory both hold the XOR-masked text; the CPU
    sees plaintext.  ``keystream_on_chip`` selects the stored-pad variant
    (fast per access, huge SRAM) over the generate-on-demand variant (no
    SRAM, generator latency on *every* access).
    """

    name = "cpu-cache-stream"
    placement = Placement.CPU_CACHE
    min_write_bytes = 1

    def __init__(
        self,
        key: bytes,
        cache_size: int = 16 * 1024,
        keystream_on_chip: bool = True,
        unit: PipelinedUnit = KEYSTREAM_UNIT,
        functional: bool = True,
    ):
        super().__init__(functional=functional)
        self._aes = aes_kernel(key)
        self.cache_size = cache_size
        self.keystream_on_chip = keystream_on_chip
        self.unit = unit

    # The cache-side mask: position-keyed keystream so cache contents are
    # masked; externally the same mask continues to apply (the line is
    # stored masked in memory as well — one keystream end to end).

    def _pad(self, addr: int, nbytes: int) -> bytes:
        return ctr_pad(
            self._aes, addr, nbytes,
            lambda block_addr:
                b"cpu$" + (block_addr // 16).to_bytes(12, "big"),
        )

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        return xor_bytes(plaintext, self._pad(addr, len(plaintext)))

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return xor_bytes(ciphertext, self._pad(addr, len(ciphertext)))

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        # Miss path: data flows memory -> cache unmodified (already masked);
        # nothing extra beyond the fetch.
        return 0

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return 0

    def per_access_cycles(self) -> int:
        """Cost added to every CPU access, hit or miss."""
        if self.keystream_on_chip:
            # Pad lookup in on-chip SRAM + XOR.
            return 1
        # Generate the pad on demand: the generator's fill latency lands on
        # the cache access path.
        return self.unit.latency

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        # Position-keyed keystream: one batched pad call covers the whole
        # group (the counter layout depends only on the block address).
        def decrypt(ciphertext: bytes) -> bytes:
            size = 16
            spans: List[Tuple[int, int]] = []
            material: List[bytes] = []
            for addr in addrs:
                start = addr - addr % size
                end = -(-(addr + line_size) // size) * size
                material.append(b"".join(
                    b"cpu$" + (block_addr // 16).to_bytes(12, "big")
                    for block_addr in range(start, end, size)
                ))
                spans.append((addr - start, end - start))
            pad = self._aes.encrypt_blocks(b"".join(material))
            line_pads: List[bytes] = []
            pos = 0
            for offset, span in spans:
                line_pads.append(pad[pos + offset: pos + offset + line_size])
                pos += span
            return xor_bytes(ciphertext, b"".join(line_pads))

        # No extra read cycles on this placement, so the shared group fill
        # is exactly the bus reads, the decrypt counter and the events.
        return self._fill_batch(port, addrs, line_size, decrypt)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        if self.keystream_on_chip:
            # "An on-chip memory equivalent to the cache memory in term of
            # size" — the survey's unaffordable doubling.
            est.add_sram("keystream-store", self.cache_size)
        est.add_block("aes_iterative")  # pad (re)generation path
        est.add_block("control_overhead")
        return est


@dataclass
class PlacementComparison:
    """Reports from the three design points E12 compares."""

    baseline: "SimReport"
    cache_memory: "SimReport"     # stream EDU between cache and memory (7a)
    cpu_cache_stored: "SimReport"  # EDU at CPU with on-chip keystream (7b)
    cpu_cache_generated: "SimReport"  # EDU at CPU, pad generated on demand
    areas: Dict[str, int]

    def overheads(self) -> Dict[str, float]:
        return {
            "cache-memory (7a)": self.cache_memory.overhead_vs(self.baseline),
            "cpu-cache stored pad (7b)": self.cpu_cache_stored.overhead_vs(
                self.baseline
            ),
            "cpu-cache generated pad (7b)": self.cpu_cache_generated.overhead_vs(
                self.baseline
            ),
        }


def compare_placements(
    trace: Trace,
    key: bytes = b"placement-key-16",
    cache_config: Optional[CacheConfig] = None,
    mem_config: Optional[MemoryConfig] = None,
    functional: bool = False,
) -> PlacementComparison:
    """Run the placement study on one trace.

    ``functional=False`` by default: placement is a pure timing question and
    timing-only runs keep the sweep fast.
    """
    from ..sim.fastpath import compile_trace
    from ..sim.system import SecureSystem

    cache_config = cache_config or CacheConfig()
    mem_config = mem_config or MemoryConfig()
    # All four design points replay the same compiled runs.
    compiled = compile_trace(trace, cache_config.line_size)

    def run(engine):
        system = SecureSystem(
            engine=engine, cache_config=cache_config, mem_config=mem_config
        )
        return system.run(compiled)

    baseline = run(None)
    edu_7a = StreamCipherEngine(
        key, line_size=cache_config.line_size,
        unit=XOM_AES_PIPE, functional=functional,
    )
    cache_memory = run(edu_7a)
    stored = CpuCacheStreamEngine(
        key, cache_size=cache_config.size,
        keystream_on_chip=True, functional=functional,
    )
    cpu_cache_stored = run(stored)
    generated = CpuCacheStreamEngine(
        key, cache_size=cache_config.size,
        keystream_on_chip=False, unit=XOM_AES_PIPE, functional=functional,
    )
    cpu_cache_generated = run(generated)

    return PlacementComparison(
        baseline=baseline,
        cache_memory=cache_memory,
        cpu_cache_stored=cpu_cache_stored,
        cpu_cache_generated=cpu_cache_generated,
        areas={
            "cache-memory (7a)": edu_7a.area().total,
            "cpu-cache stored pad (7b)": stored.area().total,
            "cpu-cache generated pad (7b)": generated.area().total,
        },
    )
