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
list cannot hold.

Two generators yield :class:`~repro.traces.arrays.ArrayChunk` slabs
instead of ``Access`` records: :func:`dma_burst_chunks` and
:func:`data_stream_chunks`, which reads the DRBG byte stream in bulk
rather than one call per draw.  ``iter_data_stream`` and
``iter_random_data`` flatten the latter's chunks.  The scalar oracles of
both live in the tests.

All generators are deterministic given a :class:`repro.crypto.DRBG` seed.
"""

from __future__ import annotations

import math
from itertools import chain
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
    "data_stream_chunks",
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
    Flattens the array chunks of :func:`data_stream_chunks`, one slab's
    worth at a time, so a consumer that takes only a prefix (each tenant
    of :func:`iter_multi_tenant`) generates little past it.
    """
    return chain.from_iterable(data_stream_chunks(
        n, rng, _SLAB_ACCESSES, base=base, working_set=working_set,
        write_fraction=write_fraction, size=size, locality=locality,
    ))


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

    from .arrays import KIND_CODES

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

    def bursts():
        emitted = 0
        while emitted < n:
            # Three draws per burst, always in this order.
            length = min(1 + rng.randbelow(burst), n - emitted)
            offset = rng.randbelow(span) * size
            code = load_code if rng.random() < read_fraction else store_code
            addrs = (offset + ramp[:length]) % region + base
            if addr_mod is not None:
                addrs = addrs % addr_mod
            yield np.full(length, code, dtype=np.uint8), addrs
            emitted += length

    yield from _cut_chunks(bursts(), chunk_size, size)


def _cut_chunks(parts, chunk_size: int, size: int):
    """Re-cut a stream of ``(kind codes, addresses)`` array parts into
    :class:`~repro.traces.arrays.ArrayChunk` slabs of exactly
    ``chunk_size`` accesses of ``size`` bytes (the last may be shorter)."""
    import numpy as np

    from .arrays import ArrayChunk

    kind_parts = []
    addr_parts = []
    held = 0
    for kinds, addrs in parts:
        kind_parts.append(kinds)
        addr_parts.append(addrs)
        held += len(addrs)
        if held >= chunk_size:
            all_kinds = np.concatenate(kind_parts)
            all_addrs = np.concatenate(addr_parts)
            cut = 0
            while held - cut >= chunk_size:
                yield ArrayChunk(all_kinds[cut: cut + chunk_size],
                                 all_addrs[cut: cut + chunk_size],
                                 np.full(chunk_size, size, dtype=np.int64))
                cut += chunk_size
            kind_parts = [all_kinds[cut:]]
            addr_parts = [all_addrs[cut:]]
            held -= cut
    if held:
        yield ArrayChunk(np.concatenate(kind_parts),
                         np.concatenate(addr_parts),
                         np.full(held, size, dtype=np.int64))


#: Accesses parsed per peeked slab in :func:`data_stream_chunks`.  Its
#: per-offset tables are a few arrays as long as the slab's bytes, so
#: this bounds their memory whatever the chunk size.
_SLAB_ACCESSES = 2048


def data_stream_chunks(
    n: int,
    rng: DRBG,
    chunk_size: int,
    *,
    base: int,
    working_set: int,
    write_fraction: float,
    size: int,
    locality: float,
    addr_mod: Optional[int] = None,
):
    """:func:`iter_data_stream`'s accesses as array chunks.

    Each access draws, in this order: its kind (``rng.random() <
    write_fraction``, 7 bytes), the next address's locality (7 bytes)
    and, on a jump, ``rng.randbelow(working_set // size)`` (rejection
    steps of ``ceil(bits / 8)`` bytes).  Instead of one DRBG call per
    draw, the generator peeks a slab of the byte stream and parses every
    byte offset of it at once into a next-offset table: where an access
    that starts there would leave the next one.  Walking that table from
    offset 0 gives the accesses' draw offsets; their kinds, jumps and
    addresses are then array expressions, and the DRBG advances by
    exactly the bytes the per-draw loop would have consumed (so a drained
    generator leaves the DRBG where the scalar loop leaves it).

    Yields :class:`~repro.traces.arrays.ArrayChunk` slabs of exactly
    ``chunk_size`` accesses (the last may be shorter); ``addr_mod``, when
    given, folds every address by ``addr % addr_mod``.
    """
    import numpy as np

    from .arrays import KIND_CODES

    _check_count(n)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
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
    span = working_set // size
    bits = span.bit_length()
    width = (bits + 7) // 8
    # ``rng.random() < p`` compares a 53-bit draw d as d / 2**53 < p,
    # which is exactly d < ceil(p * 2**53).
    store_below = np.uint64(math.ceil(write_fraction * 2.0 ** 53))
    local_below = np.uint64(math.ceil(locality * 2.0 ** 53))
    # Expected bytes per access: two 7-byte draws and, on a jump, the
    # rejection loop's 2**bits / span tries of ``width`` bytes.
    per_access = 14 + (1 - locality) * width * (1 << bits) / span
    draw_shift = np.uint64(64 - 53)
    try_shift = np.uint64(64 - bits)
    store_code = KIND_CODES[AccessKind.STORE]
    load_code = KIND_CODES[AccessKind.LOAD]
    offset = 0          # the next access's address, relative to base
    grow = 1            # slab enlargement after a slab held no access

    def parse(take: int):
        """Up to ``take`` accesses from one peeked slab, as kind codes and
        (folded) addresses; advances the DRBG past them.  ``None`` when
        the slab held no whole access."""
        nonlocal offset, grow
        slab = rng.peek(int(take * per_access * 1.05 * grow) + 64)
        end = len(slab)
        # Every draw is at most 8 bytes, so the draw at offset q is the
        # top bits of the big-endian word there: 53 for random(),
        # ``bits`` for one randbelow try.
        words = np.ndarray((end - 7,), dtype=">u8", buffer=slab,
                           strides=(1,)).astype(np.uint64)
        index = np.arange(len(words), dtype=np.int32)
        # next_ok[q]: the first accepted try at q, q + width, ... (past
        # ``end`` when that chain leaves the slab).
        next_ok = np.where((words >> try_shift) < span, index, 2 * end)
        for r in range(width):
            next_ok[r::width] = np.minimum.accumulate(
                next_ok[r::width][::-1])[::-1]
        local = (words >> draw_shift) < local_below
        # nxt[p]: where the access whose kind draw sits at p leaves the
        # next one; -1 where the slab cannot tell.
        nxt = np.full(end + 8, -1, dtype=np.int32)
        limit = len(words) - 14     # offsets whose first two draws fit
        if limit > 0:
            ahead = np.where(local[7:7 + limit], index[14:],
                             next_ok[14:] + width)
            ahead[ahead > end] = -1
            nxt[:limit] = ahead
        view = memoryview(nxt)
        starts = []
        append = starts.append
        p = 0
        for _ in range(take):
            q = view[p]
            if q < 0:
                break
            append(p)
            p = q
        m = len(starts)
        if m == 0:
            grow *= 2
            return None
        rng.advance(p)
        at = np.asarray(starts, dtype=np.int64)
        kinds = np.where((words[at] >> draw_shift) < store_below,
                         store_code, load_code).astype(np.uint8)
        # Walk the addresses: a jump resets the offset to its target, a
        # local step adds ``size`` (mod working_set) to the last one.
        jumps = ~local[at + 7]
        steps = np.arange(m + 1)
        restart = np.where(np.concatenate(([True], jumps)), steps, 0)
        np.maximum.accumulate(restart, out=restart)
        origin = np.empty(m + 1, dtype=np.int64)
        origin[0] = offset
        targets = words[next_ok[at[jumps] + 14]] >> try_shift
        origin[1:][jumps] = targets.astype(np.int64) * size
        offsets = (origin[restart] + (steps - restart) * size) % working_set
        offset = int(offsets[m])
        addrs = offsets[:m] + base
        if addr_mod is not None:
            addrs %= addr_mod
        return kinds, addrs

    def slabs():
        parsed = 0
        while parsed < n:
            part = parse(min(n - parsed, _SLAB_ACCESSES))
            if part is not None:
                parsed += len(part[0])
                yield part

    yield from _cut_chunks(slabs(), chunk_size, size)
