"""Scalar oracle for the array trace generator.

:func:`repro.traces.generator.dma_burst_chunks` computes each DMA burst's
address walk as one array expression and yields ``ArrayChunk`` slabs.
:func:`iter_dma_bursts` below is the same workload written one ``Access``
at a time; for the same DRBG it must yield the same (kind, addr, size)
sequence as the flattened chunks.
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
