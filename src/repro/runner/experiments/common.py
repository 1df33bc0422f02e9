"""Shared configuration and helpers for the experiment registry.

The standard simulated SoC every overhead experiment uses (4 KiB 2-way
cache, 32-byte lines, 40-cycle external memory), plus the small utilities
the ported benches shared by copy-paste before the registry existed.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple, Union

from ...analysis import OverheadResult, price_engines
from ...core.registry import DEFAULT_KEYS, make_engine
from ...sim import CacheConfig, MemoryConfig
from ...traces.trace import Access

__all__ = [
    "KEY16", "KEY24", "CACHE", "MEM", "N_ACCESSES",
    "clamp", "price", "overhead_metrics",
]

KEY16 = DEFAULT_KEYS[16]
KEY24 = DEFAULT_KEYS[24]

#: The standard simulated SoC for overhead measurements.
CACHE = CacheConfig(size=4096, line_size=32, associativity=2)
MEM = MemoryConfig(size=1 << 21, latency=40)

#: Standard trace length (tasks scale it via ``ctx.n(N_ACCESSES)``).
N_ACCESSES = 4000


def clamp(trace: Iterable[Access], size: int) -> List[Access]:
    """Clamp trace addresses into a ``size``-byte image."""
    return [type(a)(a.kind, a.addr % size, a.size) for a in trace]


def price(trace, *engines: Union[str, Tuple[str, dict]],
          **kwargs: Any) -> List[OverheadResult]:
    """Registry engines (timing-only) against one plaintext baseline, with
    the standard configs; each engine is a name or a ``(name, params)``
    pair, and the results come in the same order."""
    kwargs.setdefault("cache_config", CACHE)
    kwargs.setdefault("mem_config", MEM)
    specs = [(e, {}) if isinstance(e, str) else e for e in engines]
    return list(price_engines(
        [lambda n=n, p=p: make_engine(n, functional=False, **p)
         for n, p in specs],
        trace, **kwargs,
    ))


def overhead_metrics(result: OverheadResult) -> dict:
    """The standard structured block for one overhead measurement."""
    secured = result.secured
    return {
        "overhead": round(result.overhead, 6),
        "cycles": secured.cycles,
        "baseline_cycles": result.baseline.cycles,
        "accesses": secured.accesses,
        "cache_hit_rate": round(1.0 - secured.miss_rate, 6),
        "baseline_miss_rate": round(result.baseline.miss_rate, 6),
        "bus_transactions": secured.bus_transactions,
        "bus_bytes": secured.bus_bytes,
        "bytes_enciphered": secured.bytes_enciphered,
        "rmw_operations": secured.rmw_operations,
    }
