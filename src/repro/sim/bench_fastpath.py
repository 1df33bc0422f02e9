"""Microbenchmark and differential checker for the batched fast path.

Two modes:

``python -m repro.sim.bench_fastpath``
    Times the scalar reference path (:meth:`SecureSystem.run_reference`)
    against the batched path (:meth:`SecureSystem.run`) on the same
    compiled workload, per engine, and prints accesses/second plus the
    speedup.  This is the number the quick-suite wall-time budget rests
    on; run it before and after touching :mod:`repro.sim.fastpath`.

``python -m repro.sim.bench_fastpath --check [ENGINE ...]``
    Differential equivalence run (the ``make smoke`` gate): for
    each engine the two paths must produce an identical
    :class:`~repro.sim.system.SimReport`, identical
    :class:`~repro.obs.CounterSink` aggregate totals, and an identical
    bus transaction stream — same (op, addr, payload) tuples in the same
    order.  Exits non-zero on the first divergence.  ``--check`` with no
    engine names checks the plaintext baseline plus every registry
    engine.

The module is CLI tooling, not simulator data path: results leave
through stdout, while the systems under test report through
:mod:`repro.obs` as usual.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, Tuple

from ..core.registry import engine_names, make_engine
from ..crypto.drbg import DRBG
from ..obs import CounterSink
from ..traces.stream import TraceStream, chunked
from ..traces.trace import Access, AccessKind
from .cache import CacheConfig
from .fastpath import compile_trace
from .memory import MemoryConfig
from .system import SecureSystem, SimReport

__all__ = ["differential", "main", "make_bench_trace"]

#: The workload stays inside the smallest engine-visible window (the
#: address-scrambling engine permutes a 512-line region).
REGION = 16 * 1024
_KINDS = (AccessKind.FETCH, AccessKind.LOAD, AccessKind.LOAD,
          AccessKind.STORE)


def _say(line: str) -> None:
    # CLI output only — simulator state reports via repro.obs events.
    sys.stdout.write(line + "\n")


def make_bench_trace(n: int, seed: int = 2005,
                     fetch_only: bool = False) -> List[Access]:
    """Deterministic workload inside REGION with same-line run locality.

    Each burst stays within one cache line for one to eight accesses (the
    shape real fetch/load streams have), so the trace exercises both the
    coalesced hit-run bulk path and the deferred miss batching.
    """
    rng = DRBG(b"fastpath-bench-%d" % seed)
    out: List[Access] = []
    while len(out) < n:
        line_base = (rng.randbits(14) // 32) * 32
        for _ in range(1 + rng.randbits(3)):
            if len(out) >= n:
                break
            kind = AccessKind.FETCH if fetch_only else _KINDS[rng.randbits(2)]
            out.append(Access(addr=line_base + 4 * rng.randbits(3),
                              kind=kind, size=4))
    return out


def _build(name: Optional[str], sink=None) -> SecureSystem:
    system = SecureSystem(
        engine=make_engine(name) if name else None,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
        sink=sink,
    )
    system.install_image(0, DRBG(b"fastpath-image").random_bytes(REGION))
    return system


def _run(name: Optional[str], trace, reference: bool
         ) -> Tuple[SimReport, CounterSink, List[Tuple[str, int, bytes]]]:
    sink = CounterSink()
    system = _build(name, sink=sink)
    transactions: List[Tuple[str, int, bytes]] = []
    system.bus.attach_probe(
        lambda txn: transactions.append((txn.op, txn.addr, txn.data))
    )
    report = (system.run_reference(trace) if reference
              else system.run(trace))
    return report, sink, transactions


def differential(name: Optional[str], n: int = 2000,
                 chunk: Optional[int] = None) -> List[str]:
    """Compare reference vs fast path for one engine; returns mismatches.

    With ``chunk`` set, the fast path consumes the trace as a replayable
    :class:`~repro.traces.stream.TraceStream` of that chunk size instead
    of the materialized list — the chunked-vs-whole equality gate.
    """
    trace = make_bench_trace(n, fetch_only=name == "compress")
    ref_report, ref_sink, ref_bus = _run(name, trace, reference=True)
    fast_trace = (trace if chunk is None
                  else TraceStream(lambda: chunked(trace, chunk), length=n))
    fast_report, fast_sink, fast_bus = _run(name, fast_trace,
                                            reference=False)
    problems: List[str] = []
    for field in ref_report.__dataclass_fields__:
        a, b = getattr(ref_report, field), getattr(fast_report, field)
        if a != b:
            problems.append(f"report.{field}: reference {a} != fast {b}")
    if ref_sink.summary() != fast_sink.summary():
        problems.append(
            f"event counts: {ref_sink.summary()} != {fast_sink.summary()}"
        )
    if ref_sink.bytes_summary() != fast_sink.bytes_summary():
        problems.append(
            f"event bytes: {ref_sink.bytes_summary()} != "
            f"{fast_sink.bytes_summary()}"
        )
    if ref_bus != fast_bus:
        detail = f"{len(ref_bus)} vs {len(fast_bus)} transactions"
        for i, (a, b) in enumerate(zip(ref_bus, fast_bus)):
            if a != b:
                detail = (f"first divergence at #{i}: "
                          f"{a[0]}@{a[1]:#x} vs {b[0]}@{b[1]:#x}")
                break
        problems.append(f"bus stream differs ({detail})")
    return problems


def _check(names: Sequence[str], n: int) -> int:
    targets: List[Optional[str]] = (
        list(names) if names else [None] + engine_names()
    )
    failed = 0
    for name in targets:
        problems = differential(name, n=n)
        label = name or "baseline"
        if problems:
            failed += 1
            _say(f"FAIL {label}")
            for problem in problems:
                _say(f"  {problem}")
        else:
            _say(f"ok   {label}")
    if failed:
        _say(f"fastpath check: {failed} engine(s) diverged")
    else:
        _say(f"fastpath check: {len(targets)} configuration(s) identical")
    return 1 if failed else 0


def _bench(names: Sequence[str], n: int, repeats: int) -> int:
    targets: List[Optional[str]] = (
        list(names) if names else [None, "stream", "xom", "aegis"]
    )
    _say(f"{'engine':<22} {'reference':>12} {'fast':>12} {'speedup':>9}"
         f"   ({n} accesses, best of {repeats})")
    for name in targets:
        trace = compile_trace(
            make_bench_trace(n, fetch_only=name == "compress"), 32
        )
        walls = {"ref": float("inf"), "fast": float("inf")}
        for _ in range(repeats):
            system = _build(name)
            start = time.perf_counter()
            system.run_reference(trace)
            walls["ref"] = min(walls["ref"], time.perf_counter() - start)
            system = _build(name)
            start = time.perf_counter()
            system.run(trace)
            walls["fast"] = min(walls["fast"], time.perf_counter() - start)
        _say(f"{name or 'baseline':<22}"
             f" {n / walls['ref']:>10.0f}/s"
             f" {n / walls['fast']:>10.0f}/s"
             f" {walls['ref'] / walls['fast']:>8.2f}x")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.bench_fastpath",
        description="Benchmark or differentially check the batched "
                    "trace-execution fast path.",
    )
    parser.add_argument(
        "--check", nargs="*", metavar="ENGINE", default=None,
        help="differential mode: verify reference/fast equivalence for "
             "the named engines (default when empty: baseline + all "
             "registry engines); exits non-zero on divergence",
    )
    parser.add_argument(
        "--accesses", type=int, default=None,
        help="trace length (default: 2000 in check mode, 20000 in bench "
             "mode)",
    )
    parser.add_argument(
        "--engines", nargs="*", metavar="ENGINE", default=None,
        help="bench mode: engines to time (default: baseline, stream, "
             "xom, aegis)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="bench mode: timing repeats per engine (best is reported)",
    )
    args = parser.parse_args(argv)
    if args.check is not None:
        return _check(args.check, n=args.accesses or 2000)
    return _bench(args.engines or [], n=args.accesses or 20000,
                  repeats=args.repeats)


if __name__ == "__main__":
    sys.exit(main())
