"""Fast paths for the from-scratch block ciphers.

The survey's hardware engines owe their throughput to precomputation: XOM's
14-cycle AES pipeline and AEGIS's round-pipelined AES are possible because
every round collapses into table lookups and XORs, and the DES parts bake
the bit permutations into wiring.  The same tricks have exact software
analogues, and this module applies them to the reference implementations in
:mod:`repro.crypto.aes` and :mod:`repro.crypto.des`:

* :class:`AESKernel` — whole-batch rounds over one Python int: every block
  of a call sits in its own 128-bit lane of one integer (SIMD within a
  register, the software form of Sealer's all-columns-at-once AES rounds),
  so a round is a fixed handful of C-level operations at any width —
  SubBytes is ``bytes.translate`` over S-box tables, ShiftRows and
  (Inv)MixColumns are masked shifts and rotations.  The tables are
  *derived* from the algebraically constructed ``SBOX``/``gf_mul`` of the
  reference module, so the existing S-box tests cover them.
* :class:`DESKernel` / :class:`TripleDESKernel` — bit-packed rounds: the
  IP/FP/E permutations become per-byte scatter tables and the eight S-boxes,
  in pairs, fuse with the P permutation into four 12-bit ``SP12`` tables.
  3DES additionally skips the interior FP∘IP pairs, which cancel
  algebraically.  The wide rung runs a round as one gather over all eight
  S-box+P tables, and :meth:`DESKernel.encrypt_units` runs many CBC chains
  in lockstep, one wide step per block column.
* a **key-schedule registry** (:func:`aes_kernel`, :func:`des_kernel`,
  :func:`tdes_kernel`) memoizing kernels by raw key bytes, so campaign
  scripts that rebuild engines dozens of times reuse one expanded schedule;
* **batched APIs** — :meth:`encrypt_blocks`/:meth:`decrypt_blocks` on every
  kernel (``encrypt_blocks(data, iv)`` runs a whole CBC chain in one call),
  the :func:`encrypt_blocks`/:func:`decrypt_blocks` dispatch helpers that
  fall back to per-block loops for ciphers without batched calls, and
  :func:`ctr_pads` producing a whole fill group's keystream in one call —
  the miss-path shape the engines in :mod:`repro.core` use;
* **width selection** — batches of :data:`NUMPY_MIN_BLOCKS_AES` /
  :data:`NUMPY_MIN_BLOCKS_DES` blocks or more (the measured crossovers)
  run as numpy gathers over the whole batch, narrower ones on the one-int
  AES rounds or the DES table loop.  A CBC chain is serial, so it runs one
  block at a time on the narrow rung at any width; ``encrypt_units`` over
  :data:`NUMPY_MIN_BLOCKS_DES` or more independent DES-family chains is
  the one chained call that takes the numpy rung.

Every production AES/DES/3DES object is a registry kernel; the algebraic
ciphers only derive the tables and key schedules and serve as the oracle
(through :class:`ReferenceKernel`).  Every kernel is bit-for-bit
equivalent to its reference cipher; the equivalence layer in
``tests/test_kernels.py`` proves it on the FIPS-197 / SP 800-67 known
answers and on random blocks, and
``python -m repro.crypto.bench_kernels`` measures the rung crossovers.

>>> from repro.crypto.aes import AES
>>> key = bytes(range(16))
>>> block = bytes(range(16, 32))
>>> AESKernel(key).encrypt_block(block) == AES(key).encrypt_block(block)
True
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .aes import AES, INV_SBOX, SBOX, gf_mul
from .des import (
    _E,
    _FP,
    _IP,
    _P,
    _SBOXES,
    _key_schedule,
    _permute,
)

__all__ = [
    "AESKernel", "DESKernel", "TripleDESKernel",
    "aes_kernel", "des_kernel", "tdes_kernel",
    "encrypt_blocks", "decrypt_blocks", "ctr_pads",
]


# ---------------------------------------------------------------------------
# AES over one Python int, one 128-bit lane per block; AddRoundKey is one
# XOR with the round key copied into every lane.
# ---------------------------------------------------------------------------

def _times(box: List[int], factor: int) -> bytes:
    return bytes(gf_mul(s, factor) for s in box)


_SUB, _SUB2 = bytes(SBOX), _times(SBOX, 2)
_INV_SUB = bytes(INV_SBOX)
_INV_SUB9, _INV_SUB11, _INV_SUB13, _INV_SUB14 = (
    _times(INV_SBOX, f) for f in (9, 11, 13, 14))


def _block_mask(rows, cols) -> int:
    """One block's mask over state bytes ``r + 4c`` (FIPS 197 order, most
    significant first) for r in ``rows``, c in ``cols``."""
    cells = {r + 4 * c for r in rows for c in cols}
    return int.from_bytes(
        bytes(0xFF if i in cells else 0 for i in range(16)), "big")


#: One block's masks.  ShiftRows rotates row r left by r columns: rows 2
#: and 3 swap their 64-bit halves, then rows 1 and 3 rotate left by one
#: column (32 bits); InvShiftRows runs the inverse steps in reverse order.
#: The last three select bytes of every column word, for its rotations.
_BLOCK_MASKS = (
    _block_mask((2, 3), (2, 3)),          # swap: low half of rows 2, 3
    _block_mask((1, 3), (1, 2, 3)),       # ShiftRows: one column left...
    _block_mask((1, 3), (0,)),            # ...column 0 wrapping to 3
    _block_mask((0, 2), range(4)),        # rows that stay put
    _block_mask((1, 3), (0, 1, 2)),       # InvShiftRows: one column right...
    _block_mask((1, 3), (3,)),            # ...column 3 wrapping to 0
    int.from_bytes(bytes((0, 0, 0, 0xFF)) * 4, "big"),
    int.from_bytes(bytes((0, 0, 0xFF, 0xFF)) * 4, "big"),
    int.from_bytes(bytes((0, 0xFF, 0xFF, 0xFF)) * 4, "big"),
)

#: Widest one-int pass (blocks).  A wider batch runs as consecutive slabs
#: of this width, which costs the same per block, so a kernel caches lanes
#: for at most this many widths, each at most one slab wide.
_SLAB_BLOCKS = 32


def _encrypt_int(x: int, keys: Tuple[int, ...], size: int,
                 masks: Tuple[int, ...]) -> int:
    """All AES encryption rounds over the ``size``-byte batch ``x``."""
    swap, left, wrap, keep, _, _, lo1, lo2, lo3 = masks
    frm, sub = int.from_bytes, bytes.translate
    last = len(keys) - 1
    x ^= keys[0]
    for rnd in range(1, last + 1):
        t = (x ^ (x >> 64)) & swap
        x ^= t ^ (t << 64)
        state = (((x & left) << 32) ^ ((x & wrap) >> 96)
                 ^ (x & keep)).to_bytes(size, "big")
        s = frm(sub(state, _SUB), "big")
        if rnd == last:
            return s ^ keys[rnd]
        # MixColumns on every column word: 2s_r ^ 3s_r+1 ^ s_r+2 ^ s_r+3,
        # from the words s and 2s and two byte rotations.
        s2 = frm(sub(state, _SUB2), "big")
        r16 = ((s & lo2) << 16) ^ ((s >> 16) & lo2)
        y = s2 ^ s ^ r16
        x = s2 ^ r16 ^ ((y & lo3) << 8) ^ ((y >> 24) & lo1) ^ keys[rnd]
    return x


def _decrypt_int(x: int, keys: Tuple[int, ...], size: int,
                 masks: Tuple[int, ...]) -> int:
    """All rounds of the equivalent inverse cipher over ``x``."""
    swap, _, _, keep, right, wrap, lo1, _, lo3 = masks
    frm, sub = int.from_bytes, bytes.translate
    last = len(keys) - 1
    x ^= keys[0]
    for rnd in range(1, last + 1):
        x = ((x & right) >> 32) ^ ((x & wrap) << 96) ^ (x & keep)
        t = (x ^ (x >> 64)) & swap
        state = (x ^ t ^ (t << 64)).to_bytes(size, "big")
        if rnd == last:
            return frm(sub(state, _INV_SUB), "big") ^ keys[rnd]
        # InvMixColumns, 14s_r ^ 11s_r+1 ^ 13s_r+2 ^ 9s_r+3, in Horner
        # form: three one-byte rotations of the column words.
        y = frm(sub(state, _INV_SUB9), "big")
        y = frm(sub(state, _INV_SUB13), "big") \
            ^ ((y & lo3) << 8) ^ ((y >> 24) & lo1)
        y = frm(sub(state, _INV_SUB11), "big") \
            ^ ((y & lo3) << 8) ^ ((y >> 24) & lo1)
        x = frm(sub(state, _INV_SUB14), "big") \
            ^ ((y & lo3) << 8) ^ ((y >> 24) & lo1) ^ keys[rnd]
    return x


def _whole_blocks(data: bytes, size: int) -> int:
    if len(data) % size:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size {size}"
        )
    return len(data) // size


class _Kernel:
    """What every kernel shares: a one-block call is a one-block batch,
    and the key schedule is immutable after construction, so engines
    cloned for warm-rig reuse share the instance."""

    __slots__ = ()

    block_size: int

    def __deepcopy__(self, memo):
        return self

    def _one(self, block: bytes) -> bytes:
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}")
        return block

    def encrypt_block(self, block: bytes) -> bytes:
        return self.encrypt_blocks(self._one(block))

    def decrypt_block(self, block: bytes) -> bytes:
        return self.decrypt_blocks(self._one(block))

    def encrypt_units(self, ivs: bytes, data: bytes, unit: int) -> bytes:
        """CBC-encrypt independent chains: ``data`` is k ``unit``-byte
        units and ``ivs`` their k IVs.  Here one chain after another; a
        DES-family kernel runs many at once."""
        return _unit_chains(self, ivs, data, unit)


def _unit_count(ivs: bytes, data: bytes, unit: int, size: int) -> int:
    """How many ``unit``-byte chains ``data`` holds, one IV each."""
    if unit <= 0 or unit % size:
        raise ValueError(
            f"unit must be a positive multiple of {size} bytes, got {unit}")
    count = _whole_blocks(ivs, size)
    if len(data) != count * unit:
        raise ValueError(f"{count} IVs need {count * unit} bytes of "
                         f"{unit}-byte units, got {len(data)}")
    return count


def _unit_chains(kernel, ivs: bytes, data: bytes, unit: int) -> bytes:
    """Each unit of ``data`` as its own CBC chain, one kernel call each."""
    size = kernel.block_size
    count = _unit_count(ivs, data, unit, size)
    return b"".join(
        kernel.encrypt_blocks(data[i * unit: (i + 1) * unit],
                              ivs[i * size: (i + 1) * size])
        for i in range(count))


class AESKernel(_Kernel):
    """AES over one Python int (numpy T-table gathers from
    :data:`NUMPY_MIN_BLOCKS_AES` blocks), byte-identical to
    :class:`repro.crypto.aes.AES`.  A pickled kernel holds only the two
    key schedules; the lanes cached per width rebuild on first use."""

    __slots__ = ("_ek", "_dk", "_by_width", "_np_keys")
    block_size = 16

    def __init__(self, key: bytes):
        # The reference cipher checks the key and expands its schedule.
        ref = AES(key)
        rks = [bytes(rk) for rk in ref._round_keys]
        # Equivalent-inverse-cipher keys (FIPS 197 §5.3.5): reversed order,
        # InvMixColumns on the interior rounds.  The decrypt T-tables fuse
        # InvSubBytes with it, so they take each key byte through S first.
        cols = np.frombuffer(b"".join(rks[-2:0:-1]).translate(_SUB),
                             dtype=np.uint8).reshape(-1, 4)
        t0, t1, t2, t3 = _NPT["td"]
        mixed = (t0[cols[:, 0]] ^ t1[cols[:, 1]] ^ t2[cols[:, 2]]
                 ^ t3[cols[:, 3]]).astype(">u4").tobytes()
        inner = [mixed[i: i + 16] for i in range(0, len(mixed), 16)]
        self.__setstate__((
            tuple(int.from_bytes(rk, "big") for rk in rks),
            tuple(int.from_bytes(rk, "big")
                  for rk in (rks[-1], *inner, rks[0])),
        ))

    def __getstate__(self):
        return self._ek, self._dk

    def __setstate__(self, state) -> None:
        self._ek, self._dk = state
        # Per direction: width -> (round keys, masks) in every lane.
        self._by_width: Tuple[dict, dict] = ({}, {})
        # The numpy copies of the schedules, built on the first wide call.
        self._np_keys = None

    # -- batched core ----------------------------------------------------

    def encrypt_blocks(self, data: bytes, iv: Optional[bytes] = None) -> bytes:
        """ECB-encrypt a multiple of 16 bytes in one batched pass; with
        ``iv``, CBC-encrypt them as one chain of one-block passes."""
        if iv is None:
            return self._crypt(data, decrypt=False)
        _whole_blocks(data, 16)
        if len(iv) != 16:
            raise ValueError(f"IV must be 16 bytes, got {len(iv)}")
        keys, masks = self._lanes(1, False)
        chain = int.from_bytes(iv, "big")
        out = bytearray(len(data))
        for base in range(0, len(data), 16):
            chain = _encrypt_int(
                int.from_bytes(data[base: base + 16], "big") ^ chain,
                keys, 16, masks)
            out[base: base + 16] = chain.to_bytes(16, "big")
        return bytes(out)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """ECB-decrypt a multiple of 16 bytes in one batched pass."""
        return self._crypt(data, decrypt=True)

    def _crypt(self, data: bytes, decrypt: bool) -> bytes:
        blocks = _whole_blocks(data, 16)
        if blocks >= NUMPY_MIN_BLOCKS_AES:
            return _np_aes_crypt(self, data, encrypt=not decrypt)
        return self._narrow(data, decrypt)

    def _narrow(self, data: bytes, decrypt: bool) -> bytes:
        """The one-int rung at any width (the numpy rung's oracle)."""
        size = len(data)
        if size > 16 * _SLAB_BLOCKS:
            slab = 16 * _SLAB_BLOCKS
            return b"".join(self._narrow(data[i: i + slab], decrypt)
                            for i in range(0, size, slab))
        keys, masks = self._lanes(size // 16, decrypt)
        crypt = _decrypt_int if decrypt else _encrypt_int
        return crypt(int.from_bytes(data, "big"), keys, size,
                     masks).to_bytes(size, "big")

    def _lanes(self, blocks: int, decrypt: bool):
        """This direction's round keys and the masks, ``blocks`` lanes
        wide: a one-block value times ``rep`` is that value in every
        lane."""
        cache = self._by_width[decrypt]
        lanes = cache.get(blocks)
        if lanes is None:
            rep = int.from_bytes((bytes(15) + b"\x01") * blocks, "big")
            lanes = cache[blocks] = (
                tuple(k * rep for k in (self._dk if decrypt else self._ek)),
                tuple(m * rep for m in _BLOCK_MASKS))
        return lanes


# ---------------------------------------------------------------------------
# DES: per-byte scatter tables for IP/FP/E, fused S-box+P tables.  All
# derived from the FIPS tables (and `_permute` itself) in repro.crypto.des.
# ---------------------------------------------------------------------------

def _scatter_tables(table, in_width: int) -> List[List[int]]:
    """Per-input-byte lookup tables computing a FIPS bit permutation."""
    out_width = len(table)
    tabs = [[0] * 256 for _ in range(in_width // 8)]
    for out_pos, in_pos in enumerate(table):
        byte_idx = (in_pos - 1) // 8
        bit = 7 - ((in_pos - 1) % 8)          # within the byte, from LSB
        target = 1 << (out_width - 1 - out_pos)
        tab = tabs[byte_idx]
        for value in range(256):
            if (value >> bit) & 1:
                tab[value] |= target
    return tabs


_IP_TAB = _scatter_tables(_IP, 64)
_FP_TAB = _scatter_tables(_FP, 64)
_E_TAB = _scatter_tables(_E, 32)

def _sp6_tables() -> List[List[int]]:
    """S-boxes fused with P: ``_SP6[i][w]`` is S-box i's output on the
    6-bit window ``w`` of E(R) xor K, put in place, then P-permuted."""
    sp6 = []
    for i in range(8):
        tab = []
        for chunk in range(64):
            row = ((chunk & 0x20) >> 4) | (chunk & 1)
            col = (chunk >> 1) & 0xF
            tab.append(_permute(_SBOXES[i][row][col] << (28 - 4 * i), 32, _P))
        sp6.append(tab)
    return sp6


def _sp12_tables(sp6: List[List[int]]) -> List[List[int]]:
    """S-box pairs fused with P: ``_SP12[j][w]`` is the P-permuted output of
    S-boxes 2j and 2j+1 on the 12-bit window ``w`` of E(R) xor K.

    One lookup per S-box pair makes a round 4 lookups instead of 8.  A
    table's 4096 entries take at most 16 x 16 distinct values; equal
    values share one ``int`` object, which keeps the tables small.
    """
    fused = []
    for j in range(4):
        shared: dict = {}
        fused.append([shared.setdefault(hi ^ lo, hi ^ lo)
                      for hi in sp6[2 * j] for lo in sp6[2 * j + 1]])
    return fused


_SP6 = _sp6_tables()
_SP12 = _sp12_tables(_SP6)


def _perm64(v: int, tabs: List[List[int]]) -> int:
    """A 64-bit FIPS permutation of one block through per-byte tables."""
    return (
        tabs[0][(v >> 56) & 0xFF] | tabs[1][(v >> 48) & 0xFF]
        | tabs[2][(v >> 40) & 0xFF] | tabs[3][(v >> 32) & 0xFF]
        | tabs[4][(v >> 24) & 0xFF] | tabs[5][(v >> 16) & 0xFF]
        | tabs[6][(v >> 8) & 0xFF] | tabs[7][v & 0xFF]
    )


def _des_rounds(value: int, round_keys, e_tab=_E_TAB, sp_tab=_SP12) -> int:
    """16 Feistel rounds (incl. the final half swap), no IP/FP, on one
    block (the tables are defaults only to make them fast locals).

    Input and output are in post-IP bit order, so passes compose directly
    — which is how :class:`TripleDESKernel` drops the interior FP∘IP pairs
    and how a CBC chain stays in the IP domain (see :func:`_des_crypt`).
    """
    e0, e1, e2, e3 = e_tab
    sp0, sp1, sp2, sp3 = sp_tab
    left = (value >> 32) & 0xFFFFFFFF
    right = value & 0xFFFFFFFF
    for key in round_keys:
        x = (e0[right >> 24] | e1[(right >> 16) & 0xFF]
             | e2[(right >> 8) & 0xFF] | e3[right & 0xFF]) ^ key
        f = (sp0[x >> 36] ^ sp1[(x >> 24) & 0xFFF]
             ^ sp2[(x >> 12) & 0xFFF] ^ sp3[x & 0xFFF])
        left, right = right, left ^ f
    return (right << 32) | left


def _des_crypt(data: bytes, schedules, iv: Optional[bytes] = None) -> bytes:
    """Scalar DES-family blocks: one IP, 16 rounds per schedule, one FP.

    ``schedules`` holds one round-key tuple for DES and three for 3DES.
    With ``iv`` the blocks form one CBC chain.  IP is linear over XOR, so
    IP(P_i xor C_{i-1}) = IP(P_i) xor IP(C_{i-1}), and IP(C_{i-1}) is the
    previous block's pre-FP round output: the chain register never leaves
    the IP domain, as in a hardware TDES core.
    """
    _whole_blocks(data, 8)
    chain = 0
    if iv is not None:
        if len(iv) != 8:
            raise ValueError(f"IV must be 8 bytes, got {len(iv)}")
        chain = _perm64(int.from_bytes(iv, "big"), _IP_TAB)
    out = bytearray(len(data))
    for base in range(0, len(data), 8):
        v = _perm64(int.from_bytes(data[base: base + 8], "big"),
                    _IP_TAB) ^ chain
        for keys in schedules:
            v = _des_rounds(v, keys)
        if iv is not None:
            chain = v
        out[base: base + 8] = _perm64(v, _FP_TAB).to_bytes(8, "big")
    return bytes(out)


# ---------------------------------------------------------------------------
# numpy array kernels: the wide half of every kernel.  AES as T-table
# gathers, DES as one gather per round over stacked S-box+P tables — every
# per-block loop replaced by a gather over the whole batch, the software
# analogue of the survey engines' wide data-parallel datapaths.  An
# import-time equivalence check (:func:`_check_array_kernels`) pins them to
# the narrow kernels.
# ---------------------------------------------------------------------------

#: Minimum batch width (blocks) for the array paths, and for DES-family
#: CBC chains run in lockstep (:meth:`DESKernel.encrypt_units`): the
#: crossovers that ``python -m repro.crypto.bench_kernels`` measures
#: (2-core VM: AES about 2 us per block narrow against ~650 us + 1 us per
#: block in numpy; a numpy 3DES call about 0.25 ms + 1.5 us per block
#: against ~30 us per block narrow, DES a third of both, so DES and 3DES
#: cross near 10 blocks and k chains in lockstep beat k serial chains from
#: about 10 chains).  A numpy round costs roughly the same at any width,
#: so the per-line fill / writeback shape stays narrow and only installs,
#: fill groups and page-sized batches take the gathers.
NUMPY_MIN_BLOCKS_AES = 512
NUMPY_MIN_BLOCKS_DES = 10


def _np_t_tables(column: Tuple[bytes, ...]) -> Tuple[np.ndarray, ...]:
    """One direction's four T-tables.  ``column`` holds the byte tables of
    the column word a row-0 byte contributes, most significant first; the
    row-r table is that word rotated right by r bytes."""
    word = np.zeros(256, dtype=np.uint64)
    for table in column:
        word = (word << 8) | np.frombuffer(table, dtype=np.uint8)
    return tuple(
        (((word >> (8 * r)) | (word << (32 - 8 * r))) & 0xFFFFFFFF)
        .astype(np.uint32) for r in range(4))


#: numpy lookup tables: AES T-tables fusing SubBytes with (Inv)MixColumns,
#: and mirrors of the DES tables above.
_NPT = {
    "te": _np_t_tables((_SUB2, _SUB, _SUB, _times(SBOX, 3))),
    "td": _np_t_tables((_INV_SUB14, _INV_SUB9, _INV_SUB13, _INV_SUB11)),
    "sbox": np.array(SBOX, dtype=np.uint32),
    "inv_sbox": np.array(INV_SBOX, dtype=np.uint32),
    # DES, over int64 lanes: IP and FP as the 8 per-byte tables stacked
    # (entry 256*i + b is byte i's share), S-boxes+P as _SP6 stacked
    # (entry 64*i + w).
    "ip": np.array(_IP_TAB, dtype=np.uint64).view(np.int64).ravel(),
    "fp": np.array(_FP_TAB, dtype=np.uint64).view(np.int64).ravel(),
    "sp": np.array(_SP6, dtype=np.int64).ravel(),
}

#: Where S-box i's 6-bit window of E(R) sits in ``R * 0x100000001`` (R
#: doubled into 64 bits): E's wrap-around bits 32 and 1 are neighbours
#: there, so every window is one shift and mask.
_WINDOW_SHIFTS = np.array([27, 23, 19, 15, 11, 7, 3, 31],
                          dtype=np.int64)[:, None]
_BYTE_ROWS = 256 * np.arange(8, dtype=np.int64)


def _np_aes_crypt(kernel: "AESKernel", data: bytes, encrypt: bool) -> bytes:
    """All AES rounds as T-table gathers over the whole batch at once."""
    if kernel._np_keys is None:
        kernel._np_keys = tuple(
            np.frombuffer(b"".join(k.to_bytes(16, "big") for k in keys),
                          dtype=">u4").astype(np.uint32).reshape(-1, 4)
            for keys in (kernel._ek, kernel._dk))
    ks = kernel._np_keys[not encrypt]
    if encrypt:
        t0, t1, t2, t3 = _NPT["te"]
        last = _NPT["sbox"]
    else:
        t0, t1, t2, t3 = _NPT["td"]
        last = _NPT["inv_sbox"]
    w = np.frombuffer(data, dtype=">u4").astype(np.uint32).reshape(-1, 4)
    cols = tuple(w[:, i] ^ ks[0][i] for i in range(4))
    # Encrypt rows rotate left through the columns (ShiftRows), decrypt
    # rows rotate right (InvShiftRows).
    a, c = (1, 3) if encrypt else (3, 1)
    rounds = len(ks) - 1
    for k in ks[1:rounds]:
        cols = tuple(
            t0[cols[i] >> 24] ^ t1[(cols[(i + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[(i + 2) & 3] >> 8) & 0xFF]
            ^ t3[cols[(i + c) & 3] & 0xFF] ^ k[i] for i in range(4))
    k = ks[rounds]
    out = np.empty(w.shape, dtype=np.uint32)
    for i in range(4):
        out[:, i] = (
            (last[cols[i] >> 24] << 24)
            | (last[(cols[(i + a) & 3] >> 16) & 0xFF] << 16)
            | (last[(cols[(i + 2) & 3] >> 8) & 0xFF] << 8)
            | last[cols[(i + c) & 3] & 0xFF]
        ) ^ k[i]
    return out.astype(">u4").tobytes()


def _np_permute(octets: np.ndarray, table: np.ndarray) -> np.ndarray:
    """A 64-bit FIPS permutation of ``(n, 8)`` big-endian block bytes: one
    gather over the stacked per-byte tables and one OR-reduce."""
    return np.bitwise_or.reduce(table[octets + _BYTE_ROWS], axis=1)


def _np_blocks(data: bytes) -> np.ndarray:
    """IP of every 8-byte block of ``data``, as int64 lanes."""
    return _np_permute(np.frombuffer(data, dtype=np.uint8).reshape(-1, 8),
                       _NPT["ip"])


def _np_bytes(v: np.ndarray) -> bytes:
    """FP of every IP-domain lane of ``v``, as block bytes."""
    octets = v.astype(">i8").view(np.uint8).reshape(-1, 8)
    return _np_permute(octets, _NPT["fp"]).astype(">i8").tobytes()


def _np_folded_keys(schedules) -> np.ndarray:
    """Per pass and round, S-box i's 6 subkey bits ORed with its table row
    offset ``64*i``: one XOR then both keys a window and selects its
    table.  Shape (passes, 16, 8, 1)."""
    return np.array(
        [[[((key >> (42 - 6 * i)) & 63) | (64 * i) for i in range(8)]
          for key in keys] for keys in schedules],
        dtype=np.int64)[..., None]


def _np_des_rounds(v: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """:func:`_des_rounds` for every schedule, over int64 lanes in the IP
    domain.  A round is one gather: the 8 windows of the doubled R, XORed
    with the folded keys, index the stacked tables at once, and one
    XOR-reduce gives f(R, K)."""
    sp = _NPT["sp"]
    left = (v >> 32) & 0xFFFFFFFF
    right = v & 0xFFFFFFFF
    for rounds in folded:
        for keys in rounds:
            windows = ((right * 0x100000001) >> _WINDOW_SHIFTS) & 63
            left, right = right, left ^ np.bitwise_xor.reduce(
                sp[windows ^ keys], axis=0)
        left, right = right, left
    return (left << 32) | right


def _np_des_crypt(kernel: "DESKernel", data: bytes,
                  decrypt: bool = False) -> bytes:
    """:func:`_des_crypt` without a chain, over the whole batch at once."""
    return _np_bytes(_np_des_rounds(_np_blocks(data),
                                    kernel._np_schedule(decrypt)))


def _np_des_units(kernel: "DESKernel", ivs: bytes, data: bytes,
                  unit: int) -> bytes:
    """k CBC chains in lockstep: column j holds block j of every unit,
    and each column is one k-wide pass whose chain register never leaves
    the IP domain (see :func:`_des_crypt`)."""
    chain = _np_blocks(ivs)
    columns = _np_blocks(data).reshape(len(chain), unit // 8).T
    folded = kernel._np_schedule(False)
    out = np.empty_like(columns)
    for j, column in enumerate(columns):
        out[j] = chain = _np_des_rounds(column ^ chain, folded)
    return _np_bytes(out.T.ravel())


def _check_array_kernels() -> None:
    """Import-time equivalence check: the array kernels reproduce the
    narrow kernels bit-for-bit on a batch covering every byte value, for
    AES-128/256, DES and 3DES, both directions; a mismatch is one error
    line."""
    data = bytes((i * 37 + 11) & 0xFF for i in range(1024))
    pairs = []
    for key_len in (16, 32):
        kernel = AESKernel(bytes(range(key_len)))
        ct = kernel._narrow(data, decrypt=False)
        pairs += [(_np_aes_crypt(kernel, data, encrypt=True), ct),
                  (_np_aes_crypt(kernel, ct, encrypt=False), data)]
    for kernel in (DESKernel(bytes(range(8))),
                   TripleDESKernel(bytes(range(24)))):
        ct = _des_crypt(data, kernel._enc)
        ivs, units = data[:16], data[16:64]
        pairs += [(_np_des_crypt(kernel, data), ct),
                  (_np_des_crypt(kernel, ct, decrypt=True), data),
                  (_np_des_units(kernel, ivs, units, 24),
                   _unit_chains(kernel, ivs, units, 24))]
    if any(got != want for got, want in pairs):
        raise RuntimeError(
            f"numpy {np.__version__}: array cipher kernels disagree with "
            "the narrow kernels; install a numpy that reproduces them"
        )


class DESKernel(_Kernel):
    """Bit-packed DES, byte-identical to :class:`repro.crypto.des.DES`.
    A pickled kernel holds only the round keys; the numpy copies of the
    schedules rebuild on first wide use."""

    block_size = 8

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        self._schedule(key)

    def _schedule(self, *keys: bytes) -> None:
        """Round keys for the chain E(K1) -> D(K2) -> E(K3) of one or three
        DES passes; decryption runs the chain backwards, each pass in the
        other direction."""
        passes = [tuple(_key_schedule(int.from_bytes(key, "big")))
                  for key in keys]
        enc = tuple(ks[::-1] if i % 2 else ks for i, ks in enumerate(passes))
        self.__setstate__((enc, tuple(ks[::-1] for ks in reversed(enc))))

    def __getstate__(self):
        return self._enc, self._dec

    def __setstate__(self, state) -> None:
        self._enc, self._dec = state
        self._np_keys = None

    def _np_schedule(self, decrypt: bool) -> np.ndarray:
        """One direction's folded keys (:func:`_np_folded_keys`)."""
        if self._np_keys is None:
            self._np_keys = (_np_folded_keys(self._enc),
                             _np_folded_keys(self._dec))
        return self._np_keys[decrypt]

    def encrypt_blocks(self, data: bytes, iv: Optional[bytes] = None) -> bytes:
        """ECB-encrypt a multiple of 8 bytes; with ``iv``, CBC-encrypt them
        as one chain (scalar at any width)."""
        if iv is None and len(data) >= NUMPY_MIN_BLOCKS_DES * 8 \
                and len(data) % 8 == 0:
            return _np_des_crypt(self, data)
        return _des_crypt(data, self._enc, iv)

    def decrypt_blocks(self, data: bytes) -> bytes:
        if len(data) >= NUMPY_MIN_BLOCKS_DES * 8 and len(data) % 8 == 0:
            return _np_des_crypt(self, data, decrypt=True)
        return _des_crypt(data, self._dec)

    def encrypt_units(self, ivs: bytes, data: bytes, unit: int) -> bytes:
        """CBC-encrypt k independent ``unit``-byte chains; from
        :data:`NUMPY_MIN_BLOCKS_DES` chains on, all of them in lockstep."""
        count = _unit_count(ivs, data, unit, 8)
        if count < NUMPY_MIN_BLOCKS_DES:
            return _unit_chains(self, ivs, data, unit)
        return _np_des_units(self, ivs, data, unit)


class TripleDESKernel(DESKernel):
    """Bit-packed 3DES-EDE, byte-identical to
    :class:`repro.crypto.des.TripleDES`.

    The interior FP∘IP permutation pairs of the EDE composition cancel
    (FP is IP's inverse), so each block pays one IP, 48 packed rounds and
    one FP.
    """

    def __init__(self, key: bytes):
        if len(key) not in (8, 16, 24):
            raise ValueError(
                f"3DES key must be 8, 16 or 24 bytes, got {len(key)}"
            )
        # An 8-byte key is K1 = K2 = K3; a 16-byte key reuses K1 as K3.
        self._schedule(key[:8], key[8:16] or key[:8], key[16:] or key[:8])


def _per_block(crypt: Callable[[bytes], bytes], size: int, data: bytes,
               iv: Optional[bytes] = None) -> bytes:
    """``crypt`` over each ``size``-byte block of ``data``; with ``iv``, as
    one CBC chain (each block XORed with the previous output first)."""
    _whole_blocks(data, size)
    if iv is None:
        return b"".join(
            crypt(data[i: i + size]) for i in range(0, len(data), size))
    if len(iv) != size:
        raise ValueError(f"IV must be {size} bytes, got {len(iv)}")
    prev = iv
    out = []
    for i in range(0, len(data), size):
        prev = crypt((int.from_bytes(data[i: i + size], "big")
                      ^ int.from_bytes(prev, "big")).to_bytes(size, "big"))
        out.append(prev)
    return b"".join(out)


class ReferenceKernel(_Kernel):
    """Per-block adapter giving an algebraic reference cipher the batched
    kernel API.  The ``reference_ciphers`` oracle in ``tests/conftest.py``
    makes the registry hand these out instead of the table kernels, so
    every block goes through the reference GF(2^8) / Feistel arithmetic
    while the engines keep calling one interface.  A CBC chain runs one
    reference block at a time, independent of the table kernels' chains."""

    __slots__ = ("_cipher", "block_size")

    def __init__(self, cipher):
        self._cipher = cipher
        self.block_size = cipher.block_size

    def encrypt_blocks(self, data: bytes, iv: Optional[bytes] = None) -> bytes:
        return _per_block(self._cipher.encrypt_block, self.block_size,
                          data, iv)

    def decrypt_blocks(self, data: bytes) -> bytes:
        return _per_block(self._cipher.decrypt_block, self.block_size, data)


# ---------------------------------------------------------------------------
# Key-schedule registry: kernels memoized by raw key bytes.  Engines are
# rebuilt wholesale by fault campaigns and sweeps; the registry makes the
# (tables + schedule) cost a once-per-key event for the whole process.
# ---------------------------------------------------------------------------

_REGISTRY: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()
_REGISTRY_MAX = 128


def _registered(kind: str, key: bytes, factory: Callable):
    entry = (kind, bytes(key))
    kernel = _REGISTRY.get(entry)
    if kernel is None:
        kernel = factory(key)
        _REGISTRY[entry] = kernel
        while len(_REGISTRY) > _REGISTRY_MAX:
            _REGISTRY.popitem(last=False)
    else:
        _REGISTRY.move_to_end(entry)
    return kernel


def aes_kernel(key: bytes) -> "AESKernel":
    """Registry-cached AES kernel for ``key``."""
    return _registered("aes", key, AESKernel)


def des_kernel(key: bytes) -> "DESKernel":
    """Registry-cached DES kernel for ``key``."""
    return _registered("des", key, DESKernel)


def tdes_kernel(key: bytes) -> "TripleDESKernel":
    """Registry-cached 3DES kernel for ``key``."""
    return _registered("3des", key, TripleDESKernel)


# ---------------------------------------------------------------------------
# Dispatch: a kernel's own batched calls, or per-block loops for any other
# cipher (the algebraic references, the small Feistel ciphers...).
# ---------------------------------------------------------------------------

def encrypt_blocks(cipher, data: bytes, iv: Optional[bytes] = None) -> bytes:
    """ECB-encrypt ``data`` through ``cipher``'s batched ``encrypt_blocks``
    if it has one, else block by block; with ``iv``, CBC-encrypt it as one
    chain (one call on a kernel)."""
    batched = getattr(cipher, "encrypt_blocks", None)
    if batched is None:
        return _per_block(cipher.encrypt_block, cipher.block_size, data, iv)
    # Positional: perfbench's tracer counts blocks from the first argument.
    return batched(data, iv)


def decrypt_blocks(cipher, data: bytes) -> bytes:
    """ECB-decrypt ``data`` through ``cipher``'s batched ``decrypt_blocks``
    if it has one, else block by block."""
    batched = getattr(cipher, "decrypt_blocks", None)
    if batched is None:
        return _per_block(cipher.decrypt_block, cipher.block_size, data)
    return batched(data)


def ctr_pads(cipher, spans: Sequence[Tuple[int, int, object]],
             counter_block: Callable[[object, int], bytes]) -> List[bytes]:
    """Keystreams covering each ``(addr, nbytes, tag)`` span, in one pass.

    ``counter_block(tag, block_addr)`` formats the counter block for a
    cipher-block-aligned address — each engine keeps its own layout (pad
    tag, version, line index...).  Every span's blocks are enciphered
    through one :func:`encrypt_blocks` call instead of a per-block loop,
    which is the fill-group shape of the stream engines' miss path.
    """
    size = cipher.block_size
    blocks: List[bytes] = []
    cuts: List[Tuple[int, int, int]] = []
    for addr, nbytes, tag in spans:
        start = addr - addr % size
        end = -(-(addr + nbytes) // size) * size
        blocks.extend(counter_block(tag, block_addr)
                      for block_addr in range(start, end, size))
        cuts.append((addr - start, nbytes, end - start))
    pad = encrypt_blocks(cipher, b"".join(blocks))
    out: List[bytes] = []
    pos = 0
    for offset, nbytes, span in cuts:
        out.append(pad[pos + offset: pos + offset + nbytes])
        pos += span
    return out


# Every kernel class the check needs is defined by now.
_check_array_kernels()
