"""Synthetic workload generators.

The surveyed overheads are driven by three workload properties: miss rate,
sequentiality (how often control flow jumps, §2.2's "random data access
problem"), and write mix (§2.2's smaller-than-block write penalty).  Each
generator here sweeps one of those axes; :mod:`repro.traces.workloads` names
the standard combinations the experiments use.

Each generator exists in one form.  The ``iter_<name>`` generators yield
accesses lazily (pair them with :func:`repro.traces.stream.chunked` to
drive a 10^8-access run in bounded memory); a caller that needs a list
writes ``list(iter_<name>(...))``.

The ``iter_phased_program`` / ``iter_multi_tenant`` generators and
:func:`dma_burst_chunks` model long-horizon behaviours (phase changes,
tenant interleaving, DMA burst trains) that only show up at lengths a
list cannot hold.  ``dma_burst_chunks`` yields
:class:`~repro.traces.arrays.ArrayChunk` slabs instead of ``Access``
records; its scalar oracle lives in the tests.

All generators are deterministic given a :class:`repro.crypto.DRBG` seed.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..crypto.drbg import DRBG
from .trace import Access, AccessKind

__all__ = [
    "iter_sequential_code",
    "iter_branchy_code",
    "iter_data_stream",
    "iter_random_data",
    "iter_pointer_chase",
    "iter_write_burst",
    "iter_mixed_workload",
    "iter_phased_program",
    "iter_multi_tenant",
    "dma_burst_chunks",
]


def _check_count(n: int) -> None:
    if n <= 0:
        raise ValueError(f"n must be a positive access count, got {n}")


def iter_sequential_code(
    n: int,
    base: int = 0,
    step: int = 4,
    code_size: int = 64 * 1024,
) -> Iterator[Access]:
    """Straight-line instruction fetches wrapping within ``code_size``.

    The best case for Gilmont's fetch predictor: the next line is always the
    one the predictor guessed.
    """
    _check_count(n)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if code_size < step:
        raise ValueError(
            f"code_size must be at least step ({step}), got {code_size}"
        )
    for i in range(n):
        yield Access(AccessKind.FETCH, base + (i * step) % code_size, step)


def iter_branchy_code(
    n: int,
    rng: DRBG,
    base: int = 0,
    p_taken: float = 0.15,
    code_size: int = 64 * 1024,
    step: int = 4,
) -> Iterator[Access]:
    """Instruction fetches with probability ``p_taken`` of jumping.

    Jump targets are uniform within the code image — the survey's JUMP
    problem for chained ciphering modes and fetch predictors.
    """
    _check_count(n)
    if not 0.0 <= p_taken <= 1.0:
        raise ValueError(f"p_taken must be in [0, 1], got {p_taken}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if code_size < step:
        raise ValueError(
            f"code_size must be at least step ({step}), got {code_size}"
        )
    pc = base
    for _ in range(n):
        yield Access(AccessKind.FETCH, pc, step)
        if rng.random() < p_taken:
            pc = base + (rng.randbelow(code_size // step)) * step
        else:
            pc = base + ((pc - base) + step) % code_size


def iter_data_stream(
    n: int,
    rng: DRBG,
    base: int = 1 << 20,
    working_set: int = 256 * 1024,
    write_fraction: float = 0.3,
    size: int = 4,
    locality: float = 0.85,
) -> Iterator[Access]:
    """Loads and stores over a working set with tunable spatial locality.

    With probability ``locality`` the next access lands near the previous
    one (same or next line); otherwise it jumps uniformly in the set.
    """
    _check_count(n)
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if working_set < size:
        raise ValueError(
            f"working_set must be at least size ({size}), got {working_set}"
        )
    addr = base
    span = working_set // size
    for _ in range(n):
        kind = AccessKind.STORE if rng.random() < write_fraction else AccessKind.LOAD
        yield Access(kind, addr, size)
        if rng.random() < locality:
            addr = base + ((addr - base) + size) % working_set
        else:
            addr = base + rng.randbelow(span) * size


def iter_random_data(
    n: int,
    rng: DRBG,
    base: int = 1 << 20,
    working_set: int = 1 << 20,
    write_fraction: float = 0.0,
    size: int = 4,
) -> Iterator[Access]:
    """Uniformly random accesses — the cache-hostile extreme."""
    return iter_data_stream(
        n, rng, base=base, working_set=working_set,
        write_fraction=write_fraction, size=size, locality=0.0,
    )


def iter_pointer_chase(
    n: int,
    rng: DRBG,
    base: int = 1 << 20,
    nodes: int = 4096,
    node_size: int = 32,
) -> Iterator[Access]:
    """Follow a random permutation of nodes — serial, unpredictable loads."""
    _check_count(n)
    if nodes <= 0:
        raise ValueError(f"nodes must be positive, got {nodes}")
    order = list(range(nodes))
    rng.shuffle(order)
    node = 0
    for _ in range(n):
        yield Access(AccessKind.LOAD, base + order[node] * node_size, 4)
        node = (node + 1) % nodes


def iter_write_burst(
    n: int,
    base: int = 1 << 20,
    write_size: int = 4,
    stride: Optional[int] = None,
    region: int = 512 * 1024,
) -> Iterator[Access]:
    """Back-to-back stores of ``write_size`` bytes — isolates the §2.2
    read-modify-write penalty (E04)."""
    _check_count(n)
    if write_size <= 0:
        raise ValueError(f"write_size must be positive, got {write_size}")
    if stride is None:
        stride = write_size
    for i in range(n):
        yield Access(AccessKind.STORE, base + (i * stride) % region, write_size)


def iter_mixed_workload(
    n: int,
    rng: DRBG,
    fetch_fraction: float = 0.7,
    write_fraction: float = 0.1,
    p_taken: float = 0.12,
    code_size: int = 128 * 1024,
    working_set: int = 256 * 1024,
) -> Iterator[Access]:
    """Interleaved fetch/load/store stream resembling embedded execution.

    ``fetch_fraction`` of accesses are instruction fetches following a
    branchy PC; the rest are data accesses with ``write_fraction`` stores.

    Code and data draw from independent DRBG forks ("code"/"data"), so
    interleaving them lazily needs no lookahead.
    """
    _check_count(n)
    if not 0.0 < fetch_fraction <= 1.0:
        raise ValueError(f"fetch_fraction must be in (0, 1], got {fetch_fraction}")
    code = iter_branchy_code(
        n, rng.fork("code"), p_taken=p_taken, code_size=code_size,
    )
    data_n = max(1, int(n * (1 - fetch_fraction)))
    wf = write_fraction / max(1e-9, (1 - fetch_fraction))
    data = iter_data_stream(
        data_n, rng.fork("data"),
        write_fraction=min(1.0, wf), working_set=working_set,
    )
    threshold = (1 - fetch_fraction) / max(1e-9, fetch_fraction)
    emitted = 0
    di = 0
    for fetch in code:
        if emitted >= n:
            break
        yield fetch
        emitted += 1
        # Insert a data access after the right fraction of fetches.
        if rng.random() < threshold and di < data_n and emitted < n:
            yield next(data)
            di += 1
            emitted += 1


# --------------------------------------------------------------------------
# Long-horizon generators (streaming only).
#
# These model behaviours that need 10^7+ accesses to matter: programs that
# change phase, several tenants time-slicing one bus, and DMA engines
# moving buffers in bursts.  Each draws only a handful of DRBG values per
# phase/slice/burst so generation keeps up with the batched executor.
# --------------------------------------------------------------------------


def iter_phased_program(
    n: int,
    rng: DRBG,
    phase_len: int = 100_000,
    code_size: int = 256 * 1024,
    working_set: int = 256 * 1024,
    data_base: int = 1 << 20,
) -> Iterator[Access]:
    """A program that moves through distinct execution phases.

    Each phase lasts roughly ``phase_len`` accesses (uniform in
    [phase_len/2, 3*phase_len/2)) and is one of: branchy code, a local
    data loop, or a pointer chase.  Phase boundaries are where engines
    with warm predictors or caches lose their state — invisible in short
    traces, dominant at 10^8.
    """
    _check_count(n)
    if phase_len <= 0:
        raise ValueError(f"phase_len must be positive, got {phase_len}")
    emitted = 0
    phase = 0
    while emitted < n:
        length = min(n - emitted,
                     max(1, phase_len // 2 + rng.randbelow(phase_len)))
        shape = rng.randbelow(3)
        sub = rng.fork(f"phase-{phase}")
        if shape == 0:
            source = iter_branchy_code(
                length, sub, p_taken=0.05 + 0.2 * sub.random(),
                code_size=code_size,
            )
        elif shape == 1:
            source = iter_data_stream(
                length, sub, base=data_base, working_set=working_set,
                write_fraction=0.3, locality=0.9,
            )
        else:
            source = iter_pointer_chase(
                length, sub, base=data_base, nodes=4096,
            )
        yield from source
        emitted += length
        phase += 1


def iter_multi_tenant(
    n: int,
    rng: DRBG,
    tenants: int = 4,
    slice_len: int = 64,
    stride: int = 1 << 21,
    code_size: int = 64 * 1024,
    working_set: int = 128 * 1024,
) -> Iterator[Access]:
    """Several tenants time-slicing one encrypted bus.

    Each tenant runs its own mixed workload (independent DRBG fork) in a
    disjoint ``stride``-sized address window; the scheduler hands out
    slices of 1..``slice_len`` accesses to a uniformly chosen tenant.
    Context switches defeat spatial locality across tenants — the
    worst case for fetch predictors and the survey's chained modes.
    """
    _check_count(n)
    if tenants <= 0:
        raise ValueError(f"tenants must be positive, got {tenants}")
    if slice_len <= 0:
        raise ValueError(f"slice_len must be positive, got {slice_len}")
    streams = [
        iter_mixed_workload(
            n, rng.fork(f"tenant-{t}"),
            code_size=code_size, working_set=working_set,
        )
        for t in range(tenants)
    ]
    emitted = 0
    while emitted < n:
        t = rng.randbelow(tenants)
        quantum = min(1 + rng.randbelow(slice_len), n - emitted)
        base = t * stride
        source = streams[t]
        for _ in range(quantum):
            a = next(source)
            yield Access(a.kind, base + a.addr, a.size)
        emitted += quantum


def dma_burst_chunks(
    n: int,
    rng: DRBG,
    chunk_size: int,
    base: int = 1 << 20,
    region: int = 1 << 20,
    burst: int = 256,
    size: int = 4,
    read_fraction: float = 0.4,
    addr_mod: Optional[int] = None,
):
    """DMA burst trains: long sequential transfers at random buffer bases.

    Each burst is up to ``burst`` back-to-back same-direction accesses of
    ``size`` bytes from a random ``size``-aligned offset in ``region`` —
    the pattern VLSI's DMA-granular engine and Sealer's in-SRAM AES are
    built around.  Each burst takes three DRBG draws (length, offset,
    direction, in that order) and its address walk is one array
    expression, so this is the generator of choice for the
    10^8-access scaling bench.

    Yields :class:`~repro.traces.arrays.ArrayChunk` slabs of exactly
    ``chunk_size`` accesses (the last may be shorter); the chunking does
    not change the flattened access sequence.  ``addr_mod``, when given,
    folds every address by ``addr % addr_mod`` — the image wrap
    :func:`repro.api.run_stream` otherwise applies per access.
    """
    import numpy as np

    from .arrays import KIND_CODES, ArrayChunk

    _check_count(n)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if burst <= 0:
        raise ValueError(f"burst must be positive, got {burst}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if region < size:
        raise ValueError(
            f"region must be at least size ({size}), got {region}"
        )
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
    span = region // size
    ramp = np.arange(burst, dtype=np.int64) * size
    load_code = KIND_CODES[AccessKind.LOAD]
    store_code = KIND_CODES[AccessKind.STORE]

    addr_parts = []
    kind_parts = []
    held = 0
    emitted = 0
    while emitted < n:
        # Three draws per burst, always in this order.
        length = min(1 + rng.randbelow(burst), n - emitted)
        offset = rng.randbelow(span) * size
        code = load_code if rng.random() < read_fraction else store_code
        addrs = (offset + ramp[:length]) % region + base
        if addr_mod is not None:
            addrs = addrs % addr_mod
        addr_parts.append(addrs)
        kind_parts.append(np.full(length, code, dtype=np.uint8))
        held += length
        emitted += length
        if held >= chunk_size or emitted >= n:
            all_addrs = np.concatenate(addr_parts)
            all_kinds = np.concatenate(kind_parts)
            cut = 0
            while held - cut >= chunk_size or (emitted >= n and cut < held):
                take = min(chunk_size, held - cut)
                yield ArrayChunk(
                    all_kinds[cut: cut + take],
                    all_addrs[cut: cut + take],
                    np.full(take, size, dtype=np.int64),
                )
                cut += take
            addr_parts = [all_addrs[cut:]]
            kind_parts = [all_kinds[cut:]]
            held -= cut
