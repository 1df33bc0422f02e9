"""Micro-benchmark for the observability fast path.

The whole design rests on one promise: with no sink attached, every emit
site reduces to a single ``is None`` test, so leaving the hooks wired
into the simulator is free.  This module measures that promise —

    python -m repro.obs.bench [--accesses N] [--repeats R]

runs the same trace through :class:`repro.sim.system.SecureSystem` with
(a) no sink, (b) a :class:`NullSink` (the count-only floor), (c) a
:class:`CounterSink` (the runner's default aggregation) and (d) a
:class:`RecordingSink` (the event-keeping path, one :class:`TraceEvent`
per event), and prints the per-access cost of each tier.  ``make smoke``
wraps it.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, List, Optional, Tuple

from .sinks import CounterSink, EventSink, NullSink, RecordingSink

__all__ = ["measure_emit_overhead", "main"]


def _run_once(sink: Optional[EventSink], accesses: int, seed: int) -> float:
    # Imported here, not at module top: repro.sim imports repro.obs.
    from ..core.registry import make_engine
    from ..sim import CacheConfig, MemoryConfig, SecureSystem
    from ..traces import make_workload

    trace = make_workload("mixed", n=accesses, seed=seed)
    system = SecureSystem(
        engine=make_engine("stream", functional=False),
        cache_config=CacheConfig(size=4096, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21, latency=40),
        sink=sink,
    )
    start = time.perf_counter()
    system.run(trace)
    return time.perf_counter() - start


def measure_emit_overhead(
    accesses: int = 20000, repeats: int = 3, seed: int = 7,
) -> List[Tuple[str, float]]:
    """Best-of-``repeats`` wall seconds per tier:
    disabled/null/counter/recording."""
    tiers: List[Tuple[str, Callable[[], Optional[EventSink]]]] = [
        ("disabled (sink=None)", lambda: None),
        ("NullSink", NullSink),
        ("CounterSink", CounterSink),
        ("RecordingSink", RecordingSink),
    ]
    results = []
    for label, factory in tiers:
        best = min(
            _run_once(factory(), accesses, seed) for _ in range(repeats)
        )
        results.append((label, best))
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.bench",
        description="measure the cost of the observability emit path",
    )
    parser.add_argument("--accesses", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    results = measure_emit_overhead(args.accesses, args.repeats)
    baseline = results[0][1]
    print(f"obs emit overhead, {args.accesses} accesses, "
          f"best of {args.repeats}:")
    for label, wall in results:
        per_access_ns = 1e9 * wall / args.accesses
        delta = (wall / baseline - 1.0) if baseline else 0.0
        print(f"  {label:22s} {wall * 1e3:8.2f} ms "
              f"({per_access_ns:7.1f} ns/access, {delta:+.1%} vs disabled)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
