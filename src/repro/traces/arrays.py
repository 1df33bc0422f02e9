"""Array-backed access chunks.

A memory-access chunk does not need 65536 ``Access`` dataclass records
to describe 65536 accesses: three parallel arrays (kind codes, byte
addresses, sizes) carry the same information at a fraction of the
construction cost.  :class:`ArrayChunk` holds that representation and
*quacks like* a ``Sequence[Access]`` — ``len``, iteration and indexing
materialize the dataclass records lazily — so every scalar consumer
(``TraceStream`` flattening, ``list(chunk)``, the reference step loop)
sees ordinary accesses, while the array executor in
:mod:`repro.sim.fastpath` reads the arrays directly and never builds a
record at all.
"""

from __future__ import annotations

from typing import Iterator

from .trace import Access, AccessKind

__all__ = ["ArrayChunk", "KIND_CODES", "KIND_BY_CODE"]

#: ``AccessKind`` -> the small integer stored in a chunk's kind array.
KIND_CODES = {kind: code for code, kind in enumerate(AccessKind)}

#: Inverse of :data:`KIND_CODES`, indexable by the array payload.
KIND_BY_CODE = tuple(AccessKind)


class ArrayChunk:
    """One chunk of accesses as parallel arrays (see module docstring).

    ``kinds`` holds :data:`KIND_CODES` values (uint8), ``addrs`` byte
    addresses (int64) and ``sizes`` access sizes (int64); all three are
    the same length.  The class itself has no numpy dependency — it
    stores whatever array objects the caller built.
    """

    __slots__ = ("kinds", "addrs", "sizes")

    def __init__(self, kinds, addrs, sizes):
        if not (len(kinds) == len(addrs) == len(sizes)):
            raise ValueError(
                f"parallel arrays disagree on length: "
                f"{len(kinds)}/{len(addrs)}/{len(sizes)}"
            )
        self.kinds = kinds
        self.addrs = addrs
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.addrs)

    def __getitem__(self, index: int) -> Access:
        return Access(
            KIND_BY_CODE[int(self.kinds[index])],
            int(self.addrs[index]),
            int(self.sizes[index]),
        )

    def __iter__(self) -> Iterator[Access]:
        # tolist() converts to plain ints in one C pass; the per-access
        # cost is then just the dataclass construction the scalar
        # consumer was going to pay anyway.
        by_code = KIND_BY_CODE
        for code, addr, size in zip(self.kinds.tolist(),
                                    self.addrs.tolist(),
                                    self.sizes.tolist()):
            yield Access(by_code[code], addr, size)
