"""Scalar oracles for the array trace generators.

:func:`repro.traces.generator.dma_burst_chunks` computes each DMA burst's
address walk as one array expression, and
:func:`repro.traces.generator.data_stream_chunks` parses a slab of the
DRBG byte stream per batch of accesses; both yield ``ArrayChunk`` slabs.
:func:`iter_dma_bursts` and :func:`iter_data_accesses` below are the same
workloads written one ``Access`` (and one DRBG call) at a time; for the
same DRBG each must yield the same (kind, addr, size) sequence as the
flattened chunks, and leave the DRBG at the same point once drained.
"""

from typing import Iterator

from repro.crypto.drbg import DRBG
from repro.traces.trace import Access, AccessKind


def iter_dma_bursts(
    n: int,
    rng: DRBG,
    base: int = 1 << 20,
    region: int = 1 << 20,
    burst: int = 256,
    size: int = 4,
    read_fraction: float = 0.4,
) -> Iterator[Access]:
    """DMA burst trains: up to ``burst`` back-to-back same-direction
    accesses of ``size`` bytes from a random ``size``-aligned offset in
    ``region``; three DRBG draws per burst (length, offset, direction)."""
    span = region // size
    emitted = 0
    while emitted < n:
        length = min(1 + rng.randbelow(burst), n - emitted)
        start = base + rng.randbelow(span) * size
        kind = (AccessKind.LOAD if rng.random() < read_fraction
                else AccessKind.STORE)
        for i in range(length):
            yield Access(kind, base + ((start - base) + i * size) % region,
                         size)
        emitted += length


def iter_data_accesses(
    n: int,
    rng: DRBG,
    base: int = 1 << 20,
    working_set: int = 256 * 1024,
    write_fraction: float = 0.3,
    size: int = 4,
    locality: float = 0.85,
) -> Iterator[Access]:
    """Loads and stores over a working set: with probability
    ``locality`` the next access follows the previous one, otherwise it
    jumps uniformly in the set; per access the draws are kind, locality
    and, on a jump, ``randbelow``."""
    addr = base
    span = working_set // size
    for _ in range(n):
        kind = (AccessKind.STORE if rng.random() < write_fraction
                else AccessKind.LOAD)
        yield Access(kind, addr, size)
        if rng.random() < locality:
            addr = base + ((addr - base) + size) % working_set
        else:
            addr = base + rng.randbelow(span) * size
