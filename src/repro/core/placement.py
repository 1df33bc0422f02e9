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
generated keystream); :func:`compare_placements` prices the three designs
against one plaintext baseline on one workload and returns the table E12
prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.kernels import aes_kernel, ctr_pads
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.cache import CacheConfig
from ..sim.memory import MemoryConfig
from ..sim.pipeline import KEYSTREAM_UNIT, PipelinedUnit, XOM_AES_PIPE
from ..traces.trace import Trace
from .engine import BusEncryptionEngine, Placement
from .stream_engine import StreamCipherEngine

# NOTE: repro.sim.system imports this package (for the engine interface), so
# the pricing function is imported lazily inside compare_placements.

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
    # stored masked in memory as well — one keystream end to end).  The
    # counter layout depends only on the block address, so one batched
    # pad call covers a whole fill group.

    def _pads(self, items: Sequence[Tuple[int, bytes]]) -> List[bytes]:
        return ctr_pads(
            self._aes, [(addr, len(line), None) for addr, line in items],
            lambda _, block_addr:
                b"cpu$" + (block_addr // 16).to_bytes(12, "big"),
        )

    def encrypt_lines(self, items):
        return [xor_bytes(line, pad)
                for (_, line), pad in zip(items, self._pads(items))]

    #: XOR with the position pad is its own inverse.
    decrypt_lines = encrypt_lines

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
    """The three design points E12 compares, by label: the stream EDU
    between cache and memory (7a), and the EDU at the CPU with a stored
    or generated keystream (7b), each priced against one baseline."""

    results: Dict[str, "OverheadResult"]
    areas: Dict[str, int]

    def overheads(self) -> Dict[str, float]:
        return {label: r.overhead for label, r in self.results.items()}


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
    from ..analysis.overhead import price_engines

    cache_config = cache_config or CacheConfig()
    engines = {
        "cache-memory (7a)": StreamCipherEngine(
            key, line_size=cache_config.line_size,
            unit=XOM_AES_PIPE, functional=functional,
        ),
        "cpu-cache stored pad (7b)": CpuCacheStreamEngine(
            key, cache_size=cache_config.size,
            keystream_on_chip=True, functional=functional,
        ),
        "cpu-cache generated pad (7b)": CpuCacheStreamEngine(
            key, cache_size=cache_config.size,
            keystream_on_chip=False, unit=XOM_AES_PIPE, functional=functional,
        ),
    }
    results = price_engines(
        [lambda e=engine: e for engine in engines.values()], trace,
        cache_config=cache_config, mem_config=mem_config,
    )
    return PlacementComparison(
        results=dict(zip(engines, results)),
        areas={label: e.area().total for label, e in engines.items()},
    )
