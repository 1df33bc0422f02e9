"""Merkle-tree memory integrity — where §5's future work historically led.

:class:`repro.core.integrity.IntegrityShieldEngine` stops replay by keeping
a per-line version counter **on chip**, which costs SRAM proportional to
the protected memory.  The scalable alternative (AEGIS's published design,
and everything since) is a hash tree: leaves authenticate lines, internal
nodes authenticate their children, and only the **root** lives on chip.
Replaying any stale (line, path) recording fails because the on-chip root
has moved on; tampering any stored node breaks its parent.

The engine composes with any confidentiality engine and adds:

* a binary hash tree over the protected region, nodes truncated to 16
  bytes, stored in a reserved external region (the tree is ~1 line-size of
  overhead per line at 32-byte lines);
* path verification on every fill: fetch the sibling path, hash upward,
  compare against the on-chip root — O(log n) fetches and hashes;
* path update on every writeback;
* an on-chip **node cache**: a verified node is trusted, so an upward walk
  can stop at the first cached hit — the classic optimization, exposed as
  an ablation (cache size 0 = full paths every time).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..crypto.hmac import hmac_sha256
from ..sim.area import AreaEstimate
from .engine import (BusEncryptionEngine, LineAuthEngine, MemoryPort,
                     TamperDetected)

__all__ = ["MerkleTreeEngine", "MerkleTamperDetected"]

_NODE_BYTES = 16


class MerkleTamperDetected(TamperDetected):
    """A fetched line's authentication path failed against the root."""


class MerkleTreeEngine(LineAuthEngine):
    """Hash-tree integrity over a fixed protected region."""

    name = "merkle-tree"
    #: Spoofed, relocated, flipped *and* replayed lines all fail the walk
    #: to the on-chip root — freshness comes for free from root state.
    detects = frozenset({"spoof", "splice", "replay", "glitch"})

    def __init__(
        self,
        inner: BusEncryptionEngine,
        mac_key: bytes,
        region_base: int,
        region_size: int,
        tree_base: int,
        line_size: int = 32,
        node_cache_size: int = 64,
        hash_latency: int = 64,
    ):
        super().__init__(inner)
        if region_size % line_size != 0:
            raise ValueError("region_size must be a multiple of line_size")
        n_lines = region_size // line_size
        if n_lines < 2 or n_lines & (n_lines - 1):
            raise ValueError(
                f"region must hold a power-of-two number of lines >= 2, "
                f"got {n_lines}"
            )
        self.mac_key = mac_key
        self.region_base = region_base
        self.region_size = region_size
        self.tree_base = tree_base
        self.line_size = line_size
        self.n_lines = n_lines
        self.levels = n_lines.bit_length() - 1   # root excluded
        self.node_cache_size = node_cache_size
        self.hash_latency = hash_latency
        #: The single piece of on-chip integrity state.
        self.root: bytes = b""
        #: Trusted (verified or self-written) nodes: (level, index) -> value.
        self._node_cache: "OrderedDict[Tuple[int, int], bytes]" = OrderedDict()
        self.cache_stops = 0

    # -- tree geometry -----------------------------------------------------
    #
    # Level 0 = leaves (one per line), level k has n_lines >> k nodes.
    # Node (k, i) is stored at tree_base + (level_offset(k) + i) * 16.

    def _level_offset(self, level: int) -> int:
        offset = 0
        for k in range(level):
            offset += self.n_lines >> k
        return offset

    def _node_addr(self, level: int, index: int) -> int:
        return self.tree_base + (self._level_offset(level) + index) * _NODE_BYTES

    def _leaf_value(self, addr: int, ciphertext: bytes) -> bytes:
        return hmac_sha256(
            self.mac_key, b"leaf" + addr.to_bytes(8, "big") + ciphertext
        )[:_NODE_BYTES]

    def _parent_value(self, left: bytes, right: bytes) -> bytes:
        return hmac_sha256(self.mac_key, b"node" + left + right)[:_NODE_BYTES]

    def _line_index(self, addr: int) -> int:
        index = (addr - self.region_base) // self.line_size
        if not 0 <= index < self.n_lines:
            raise ValueError(
                f"address {addr:#x} outside the protected region"
            )
        return index

    # -- node cache -----------------------------------------------------------

    def _cache_get(self, level: int, index: int) -> Optional[bytes]:
        key = (level, index)
        value = self._node_cache.get(key)
        if value is not None:
            self._node_cache.move_to_end(key)
        return value

    def _cache_put(self, level: int, index: int, value: bytes) -> None:
        if self.node_cache_size <= 0:
            return
        self._node_cache[(level, index)] = value
        while len(self._node_cache) > self.node_cache_size:
            self._node_cache.popitem(last=False)

    # -- installation -----------------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        if base_addr != self.region_base or line_size != self.line_size:
            raise ValueError(
                "image must exactly cover the engine's protected region"
            )
        if len(plaintext) != self.region_size:
            plaintext = plaintext.ljust(self.region_size, b"\x00")

        items = [
            (base_addr + i * line_size,
             plaintext[i * line_size: (i + 1) * line_size])
            for i in range(self.n_lines)
        ]
        level_values: List[bytes] = []
        for (addr, _), ciphertext in zip(items, self.encrypt_lines(items)):
            memory.load_image(addr, ciphertext)
            level_values.append(self._leaf_value(addr, ciphertext))

        level = 0
        while len(level_values) > 1:
            for i, value in enumerate(level_values):
                memory.load_image(self._node_addr(level, i), value)
            level_values = [
                self._parent_value(level_values[2 * i], level_values[2 * i + 1])
                for i in range(len(level_values) // 2)
            ]
            level += 1
        # Only the root lives on chip.
        self.root = level_values[0]

    # -- verification walk ----------------------------------------------------------

    def _fetch_node(self, port: MemoryPort, level: int, index: int
                    ) -> Tuple[bytes, int]:
        value, cycles = port.read(self._node_addr(level, index), _NODE_BYTES)
        return value, cycles

    def _verify_path(self, port: MemoryPort, addr: int, ciphertext: bytes
                     ) -> int:
        """Authenticate one line against the root; returns cycles.

        Raises :class:`MerkleTamperDetected` on any mismatch; the caller
        (:meth:`_verify_fill`) routes the outcome through the uniform
        verdict path.
        """
        cycles = 0
        leaf_index = self._line_index(addr)
        leaf = self._leaf_value(addr, ciphertext)
        cycles += self.hash_latency

        # A trusted copy of this leaf ends the walk immediately.
        cached = self._cache_get(0, leaf_index)
        if cached is not None:
            self.cache_stops += 1
            if self.functional and cached != leaf:
                raise MerkleTamperDetected(
                    f"line at {addr:#x} disagrees with its trusted leaf"
                )
            return cycles

        current, index = leaf, leaf_index
        for level in range(self.levels):
            sibling_index = index ^ 1
            sibling = self._cache_get(level, sibling_index)
            if sibling is None:
                sibling, fetch_cycles = self._fetch_node(
                    port, level, sibling_index
                )
                cycles += fetch_cycles
            left, right = (current, sibling) if index % 2 == 0 \
                else (sibling, current)
            parent = self._parent_value(left, right)
            cycles += self.hash_latency
            parent_index = index // 2
            trusted_parent = self._cache_get(level + 1, parent_index)
            if trusted_parent is not None:
                self.cache_stops += 1
                if self.functional and trusted_parent != parent:
                    raise MerkleTamperDetected(
                        f"path for {addr:#x} breaks at level {level + 1}"
                    )
                self._cache_put(0, leaf_index, leaf)
                return cycles
            current, index = parent, parent_index

        if self.functional and current != self.root:
            raise MerkleTamperDetected(
                f"path for {addr:#x} does not reach the on-chip root"
            )
        # Cache the now-trusted leaf (the root is implicitly trusted).
        self._cache_put(0, leaf_index, leaf)
        return cycles

    def _update_path(self, port: MemoryPort, addr: int, ciphertext: bytes
                     ) -> int:
        """Recompute the path after a write; returns cycles."""
        cycles = 0
        index = self._line_index(addr)
        current = self._leaf_value(addr, ciphertext)
        cycles += self.hash_latency
        self._cache_put(0, index, current)
        cycles += port.write(self._node_addr(0, index), current)

        for level in range(self.levels):
            sibling_index = index ^ 1
            sibling = self._cache_get(level, sibling_index)
            if sibling is None:
                sibling, fetch_cycles = self._fetch_node(
                    port, level, sibling_index
                )
                cycles += fetch_cycles
            left, right = (current, sibling) if index % 2 == 0 \
                else (sibling, current)
            current = self._parent_value(left, right)
            cycles += self.hash_latency
            index //= 2
            if level + 1 <= self.levels - 1:
                cycles += port.write(
                    self._node_addr(level + 1, index), current
                )
                self._cache_put(level + 1, index, current)
        self.root = current
        return cycles

    # -- verdict and write hooks ------------------------------------------------

    def _verify_fill(self, port: MemoryPort, addr: int, line_size: int,
                     ciphertext: bytes, mem_cycles: int) -> int:
        try:
            cycles = self._verify_path(port, addr, bytes(ciphertext))
        except MerkleTamperDetected:
            self.verify_line(addr, line_size, ok=False)
            raise
        self.verify_line(addr, line_size, ok=True)
        return cycles

    def _update_auth(self, port: MemoryPort, addr: int, ciphertext: bytes
                     ) -> Tuple[int, int]:
        # The path update's cycles count in the write's total only; the
        # write stall (stats and event) is the inner cipher's alone.
        return self._update_path(port, addr, ciphertext), 0

    def area(self) -> AreaEstimate:
        est = self._inner_area()
        est.add_block("hmac_sha256")
        est.add_sram("root-register", _NODE_BYTES)
        est.add_sram("node-cache", self.node_cache_size * _NODE_BYTES)
        est.add_block("control_overhead")
        return est

    def tree_overhead_bytes(self) -> int:
        """External memory consumed by the stored tree nodes."""
        return self._level_offset(self.levels) * _NODE_BYTES
