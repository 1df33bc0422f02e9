"""Performance-overhead accounting across engines and workloads.

The survey's recurring metric is "performance overhead of the encryption
engine" — cycles with the EDU over cycles without, minus one.  The
"without" does not depend on the engine, so :func:`price_engines`, the
one pricing body, runs it once per trace and geometry for any number of
engines; every other overhead in the package is priced through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..core.engine import BusEncryptionEngine
from ..sim.cache import CacheConfig
from ..sim.memory import MemoryConfig
from ..sim.system import SimReport, require_replayable, run_trace
from ..traces.trace import Trace

__all__ = ["OverheadResult", "price_engines", "measure_overhead",
           "overhead_grid", "EngineFactory"]

#: A zero-argument callable producing a fresh engine (engines keep state —
#: pad caches, IV tables — so each run needs its own instance).
EngineFactory = Callable[[], Optional[BusEncryptionEngine]]


@dataclass
class OverheadResult:
    """One engine on one workload, versus the plaintext baseline."""

    engine_name: str
    workload: str
    baseline: SimReport
    secured: SimReport

    @property
    def overhead(self) -> float:
        return self.secured.overhead_vs(self.baseline)

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead

    def __str__(self) -> str:
        return (
            f"{self.engine_name} on {self.workload}: "
            f"{self.overhead_percent:+.2f}% "
            f"({self.secured.cycles} vs {self.baseline.cycles} cycles, "
            f"miss rate {self.baseline.miss_rate:.1%})"
        )


def price_engines(
    factories: Iterable[EngineFactory],
    trace: Trace,
    workload: str = "",
    *,
    image: Optional[bytes] = None,
    image_base: int = 0,
    cache_config: Optional[CacheConfig] = None,
    mem_config: Optional[MemoryConfig] = None,
    **system_kwargs,
) -> Iterator[OverheadResult]:
    """Price each factory's engine against one plaintext baseline.

    The trace is compiled once and every run replays it.  Results come
    lazily, one per factory and in order; the first secured run comes
    before the baseline, which then serves every later engine.  A one-shot
    trace stream is rejected here, before any run.
    """
    from ..sim.fastpath import compile_trace

    require_replayable(trace, "price_engines()")
    cache_config = cache_config or CacheConfig()
    kwargs = dict(image=image, image_base=image_base,
                  cache_config=cache_config,
                  mem_config=mem_config or MemoryConfig(), **system_kwargs)
    return _priced(factories, compile_trace(trace, cache_config.line_size),
                   workload, kwargs)


def _priced(factories, compiled, workload: str,
            kwargs: dict) -> Iterator[OverheadResult]:
    baseline = None
    for factory in factories:
        secured = run_trace(compiled, engine=factory(), **kwargs)
        if baseline is None:
            baseline = run_trace(compiled, engine=None, **kwargs)
        yield OverheadResult(engine_name=secured.label, workload=workload,
                             baseline=baseline, secured=secured)


def measure_overhead(
    engine_factory: EngineFactory,
    trace: Trace,
    workload: str = "",
    image: Optional[bytes] = None,
    image_base: int = 0,
    cache_config: Optional[CacheConfig] = None,
    mem_config: Optional[MemoryConfig] = None,
    **system_kwargs,
) -> OverheadResult:
    """Run one engine and the baseline on the same trace."""
    [result] = price_engines(
        [engine_factory], trace, workload, image=image,
        image_base=image_base, cache_config=cache_config,
        mem_config=mem_config, **system_kwargs,
    )
    return result


def overhead_grid(
    engines: Dict[str, EngineFactory],
    workloads: Dict[str, Trace],
    **kwargs,
) -> List[OverheadResult]:
    """Every engine on every workload, one baseline per workload; the E14
    survey-table data."""
    results = []
    for workload_name, trace in workloads.items():
        for engine_name, result in zip(engines, price_engines(
                engines.values(), trace, workload_name, **kwargs)):
            result.engine_name = engine_name
            results.append(result)
    return results
