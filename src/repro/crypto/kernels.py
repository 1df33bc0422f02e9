"""Table-driven fast paths for the from-scratch block ciphers.

The survey's hardware engines owe their throughput to precomputation: XOM's
14-cycle AES pipeline and AEGIS's round-pipelined AES are possible because
every round collapses into table lookups and XORs, and the DES parts bake
the bit permutations into wiring.  The same tricks have exact software
analogues, and this module applies them to the reference implementations in
:mod:`repro.crypto.aes` and :mod:`repro.crypto.des`:

* :class:`AESKernel` — the classic T-table formulation: SubBytes, ShiftRows
  and MixColumns fuse into four 256-entry word tables, so one round is 16
  lookups and 20 XORs instead of per-byte GF(2^8) arithmetic.  The tables
  are *derived* from the algebraically constructed ``SBOX``/``gf_mul`` of
  the reference module, so the existing S-box tests cover them.
* :class:`DESKernel` / :class:`TripleDESKernel` — bit-packed rounds: the
  IP/FP/E permutations become per-byte scatter tables and the eight S-boxes,
  in pairs, fuse with the P permutation into four 12-bit ``SP12`` tables.
  3DES additionally skips the interior FP∘IP pairs, which cancel
  algebraically.
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
  :data:`NUMPY_MIN_BLOCKS_DES` blocks or more run as numpy gathers over the
  whole batch, narrower ones on the scalar table loops.  A CBC chain is
  serial, so it runs on the scalar loop at any width.

Every production AES/DES/3DES object is a registry kernel; the algebraic
ciphers only derive the tables and key schedules and serve as the oracle
(through :class:`ReferenceKernel`).  Every kernel is bit-for-bit
equivalent to its reference cipher; the equivalence layer in
``tests/test_kernels.py`` proves it on the FIPS-197 / SP 800-67 known
answers and on random blocks, and
``python -m repro.crypto.bench_kernels`` measures the speedup.

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
# AES T-tables, derived from the reference S-box and GF(2^8) arithmetic.
# T0..T3 fuse SubBytes + MixColumns for the byte in state rows 0..3; the
# inverse tables fuse InvSubBytes + InvMixColumns.
# ---------------------------------------------------------------------------

def _build_aes_tables() -> Tuple[List[List[int]], List[List[int]], List[int]]:
    enc = [[0] * 256 for _ in range(4)]
    dec = [[0] * 256 for _ in range(4)]
    imix = [0] * 256  # InvMixColumns of a single byte, for the decrypt schedule
    for x in range(256):
        s = SBOX[x]
        s2 = gf_mul(s, 2)
        s3 = s2 ^ s
        # MixColumns contribution of the byte landing in row 0..3.
        enc[0][x] = (s2 << 24) | (s << 16) | (s << 8) | s3
        enc[1][x] = (s3 << 24) | (s2 << 16) | (s << 8) | s
        enc[2][x] = (s << 24) | (s3 << 16) | (s2 << 8) | s
        enc[3][x] = (s << 24) | (s << 16) | (s3 << 8) | s2
        i = INV_SBOX[x]
        e, n = gf_mul(i, 14), gf_mul(i, 9)
        t, l = gf_mul(i, 13), gf_mul(i, 11)
        dec[0][x] = (e << 24) | (n << 16) | (t << 8) | l
        dec[1][x] = (l << 24) | (e << 16) | (n << 8) | t
        dec[2][x] = (t << 24) | (l << 16) | (e << 8) | n
        dec[3][x] = (n << 24) | (t << 16) | (l << 8) | e
        imix[x] = (gf_mul(x, 14) << 24) | (gf_mul(x, 9) << 16) \
            | (gf_mul(x, 13) << 8) | gf_mul(x, 11)
    return enc, dec, imix


(_TE, _TD, _IMIX) = _build_aes_tables()


def _pack_words(round_key: List[int]) -> List[int]:
    """One 16-byte round key -> four big-endian column words."""
    return [
        (round_key[4 * c] << 24) | (round_key[4 * c + 1] << 16)
        | (round_key[4 * c + 2] << 8) | round_key[4 * c + 3]
        for c in range(4)
    ]


def _inv_mix_word(word: int) -> int:
    return (
        _IMIX[(word >> 24) & 0xFF]
        ^ _rotr32(_IMIX[(word >> 16) & 0xFF], 8)
        ^ _rotr32(_IMIX[(word >> 8) & 0xFF], 16)
        ^ _rotr32(_IMIX[word & 0xFF], 24)
    )


def _rotr32(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


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


class AESKernel(_Kernel):
    """T-table AES, byte-identical to :class:`repro.crypto.aes.AES`.

    Batches of :data:`NUMPY_MIN_BLOCKS_AES` blocks or more run every round
    as vectorized table gathers over the whole batch at once; smaller
    batches stay on the scalar loop (a numpy round
    costs the same regardless of width, so gathers only pay for
    themselves on wide calls).
    """

    block_size = 16

    def __init__(self, key: bytes):
        # The reference cipher checks the key and expands its schedule.
        ref = AES(key)
        self._rounds = ref._rounds
        # Encrypt keys: flat list of words, 4 per round.
        self._ek: List[int] = []
        for rk in ref._round_keys:
            self._ek.extend(_pack_words(rk))
        # Equivalent-inverse-cipher keys: reversed order, InvMixColumns
        # applied to the interior rounds.
        self._dk: List[int] = list(_pack_words(ref._round_keys[self._rounds]))
        for rnd in range(self._rounds - 1, 0, -1):
            self._dk.extend(
                _inv_mix_word(w) for w in _pack_words(ref._round_keys[rnd])
            )
        self._dk.extend(_pack_words(ref._round_keys[0]))
        # Lazily-built numpy copies of the schedules for the wide path.
        self._ek_np = None
        self._dk_np = None

    # -- batched core ----------------------------------------------------

    def encrypt_blocks(self, data: bytes, iv: Optional[bytes] = None) -> bytes:
        """ECB-encrypt a multiple of 16 bytes in one batched pass; with
        ``iv``, CBC-encrypt them as one chain (scalar at any width)."""
        if iv is None and len(data) >= NUMPY_MIN_BLOCKS_AES * 16 \
                and len(data) % 16 == 0:
            return _np_aes_crypt(self, data, encrypt=True)
        return self._encrypt_blocks_scalar(data, iv)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """ECB-decrypt a multiple of 16 bytes in one batched pass."""
        if len(data) >= NUMPY_MIN_BLOCKS_AES * 16 and len(data) % 16 == 0:
            return _np_aes_crypt(self, data, encrypt=False)
        return self._decrypt_blocks_scalar(data)

    def _encrypt_blocks_scalar(self, data: bytes,
                               iv: Optional[bytes] = None) -> bytes:
        if len(data) % 16:
            raise ValueError(
                f"data length {len(data)} is not a multiple of block size 16"
            )
        t0, t1, t2, t3 = _TE
        sbox = SBOX
        ek = self._ek
        rounds = self._rounds
        # The CBC chain register, as four column words (zero for ECB).
        c0 = c1 = c2 = c3 = 0
        if iv is not None:
            if len(iv) != 16:
                raise ValueError(f"IV must be 16 bytes, got {len(iv)}")
            c0, c1, c2, c3 = (int.from_bytes(iv[i: i + 4], "big")
                              for i in (0, 4, 8, 12))
        out = bytearray(len(data))
        for base in range(0, len(data), 16):
            w0 = int.from_bytes(data[base: base + 4], "big") ^ ek[0] ^ c0
            w1 = int.from_bytes(data[base + 4: base + 8], "big") ^ ek[1] ^ c1
            w2 = int.from_bytes(data[base + 8: base + 12], "big") ^ ek[2] ^ c2
            w3 = int.from_bytes(data[base + 12: base + 16], "big") \
                ^ ek[3] ^ c3
            k = 4
            for _ in range(rounds - 1):
                n0 = (t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                      ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ ek[k])
                n1 = (t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                      ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ ek[k + 1])
                n2 = (t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                      ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ ek[k + 2])
                n3 = (t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                      ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ ek[k + 3])
                w0, w1, w2, w3 = n0, n1, n2, n3
                k += 4
            # Final round: SubBytes + ShiftRows only.
            o0 = ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 0xFF] << 16)
                  | (sbox[(w2 >> 8) & 0xFF] << 8) | sbox[w3 & 0xFF]) ^ ek[k]
            o1 = ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 0xFF] << 16)
                  | (sbox[(w3 >> 8) & 0xFF] << 8) | sbox[w0 & 0xFF]) ^ ek[k + 1]
            o2 = ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 0xFF] << 16)
                  | (sbox[(w0 >> 8) & 0xFF] << 8) | sbox[w1 & 0xFF]) ^ ek[k + 2]
            o3 = ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 0xFF] << 16)
                  | (sbox[(w1 >> 8) & 0xFF] << 8) | sbox[w2 & 0xFF]) ^ ek[k + 3]
            if iv is not None:
                c0, c1, c2, c3 = o0, o1, o2, o3
            out[base: base + 16] = (
                (o0 << 96) | (o1 << 64) | (o2 << 32) | o3
            ).to_bytes(16, "big")
        return bytes(out)

    def _decrypt_blocks_scalar(self, data: bytes) -> bytes:
        if len(data) % 16:
            raise ValueError(
                f"data length {len(data)} is not a multiple of block size 16"
            )
        t0, t1, t2, t3 = _TD
        inv = INV_SBOX
        dk = self._dk
        rounds = self._rounds
        out = bytearray(len(data))
        for base in range(0, len(data), 16):
            w0 = int.from_bytes(data[base: base + 4], "big") ^ dk[0]
            w1 = int.from_bytes(data[base + 4: base + 8], "big") ^ dk[1]
            w2 = int.from_bytes(data[base + 8: base + 12], "big") ^ dk[2]
            w3 = int.from_bytes(data[base + 12: base + 16], "big") ^ dk[3]
            k = 4
            for _ in range(rounds - 1):
                n0 = (t0[w0 >> 24] ^ t1[(w3 >> 16) & 0xFF]
                      ^ t2[(w2 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ dk[k])
                n1 = (t0[w1 >> 24] ^ t1[(w0 >> 16) & 0xFF]
                      ^ t2[(w3 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ dk[k + 1])
                n2 = (t0[w2 >> 24] ^ t1[(w1 >> 16) & 0xFF]
                      ^ t2[(w0 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ dk[k + 2])
                n3 = (t0[w3 >> 24] ^ t1[(w2 >> 16) & 0xFF]
                      ^ t2[(w1 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ dk[k + 3])
                w0, w1, w2, w3 = n0, n1, n2, n3
                k += 4
            o0 = ((inv[w0 >> 24] << 24) | (inv[(w3 >> 16) & 0xFF] << 16)
                  | (inv[(w2 >> 8) & 0xFF] << 8) | inv[w1 & 0xFF]) ^ dk[k]
            o1 = ((inv[w1 >> 24] << 24) | (inv[(w0 >> 16) & 0xFF] << 16)
                  | (inv[(w3 >> 8) & 0xFF] << 8) | inv[w2 & 0xFF]) ^ dk[k + 1]
            o2 = ((inv[w2 >> 24] << 24) | (inv[(w1 >> 16) & 0xFF] << 16)
                  | (inv[(w0 >> 8) & 0xFF] << 8) | inv[w3 & 0xFF]) ^ dk[k + 2]
            o3 = ((inv[w3 >> 24] << 24) | (inv[(w2 >> 16) & 0xFF] << 16)
                  | (inv[(w1 >> 8) & 0xFF] << 8) | inv[w0 & 0xFF]) ^ dk[k + 3]
            out[base: base + 16] = (
                (o0 << 96) | (o1 << 64) | (o2 << 32) | o3
            ).to_bytes(16, "big")
        return bytes(out)


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

def _sp12_tables() -> List[List[int]]:
    """S-box pairs fused with P: ``_SP12[j][w]`` is the P-permuted output of
    S-boxes 2j and 2j+1 on the 12-bit window ``w`` of E(R) xor K.

    One lookup per S-box pair makes a round 4 lookups instead of 8.  A
    table's 4096 entries take at most 16 x 16 distinct values; equal
    values share one ``int`` object, which keeps the tables small.
    """
    sp6 = []  # sp6[i][chunk]: S-box i on a 6-bit chunk, placed, then P
    for i in range(8):
        tab = []
        for chunk in range(64):
            row = ((chunk & 0x20) >> 4) | (chunk & 1)
            col = (chunk >> 1) & 0xF
            tab.append(_permute(_SBOXES[i][row][col] << (28 - 4 * i), 32, _P))
        sp6.append(tab)
    fused = []
    for j in range(4):
        shared: dict = {}
        fused.append([shared.setdefault(hi ^ lo, hi ^ lo)
                      for hi in sp6[2 * j] for lo in sp6[2 * j + 1]])
    return fused


_SP12 = _sp12_tables()


def _perm64(v: int, tabs: List[List[int]]) -> int:
    return (
        tabs[0][(v >> 56) & 0xFF] | tabs[1][(v >> 48) & 0xFF]
        | tabs[2][(v >> 40) & 0xFF] | tabs[3][(v >> 32) & 0xFF]
        | tabs[4][(v >> 24) & 0xFF] | tabs[5][(v >> 16) & 0xFF]
        | tabs[6][(v >> 8) & 0xFF] | tabs[7][v & 0xFF]
    )


def _des_rounds(value: int, round_keys) -> int:
    """16 Feistel rounds (incl. the final half swap), no IP/FP.

    Input and output are in post-IP bit order, so passes compose directly
    — which is how :class:`TripleDESKernel` drops the interior FP∘IP pairs
    and how a CBC chain stays in the IP domain (see :func:`_des_crypt`).
    """
    e0, e1, e2, e3 = _E_TAB
    sp0, sp1, sp2, sp3 = _SP12
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
    if len(data) % 8:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size 8"
        )
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
# numpy array kernels: the wide half of every kernel.  The same T-table /
# bit-packed formulations as above, with every per-block loop replaced by a
# gather over the whole batch — the software analogue of the survey
# engines' wide data-parallel datapaths.  An import-time equivalence check
# (:func:`_check_array_kernels`) pins them to the scalar loops.
# ---------------------------------------------------------------------------

#: Minimum batch width (blocks) for the array paths.  A numpy round costs
#: roughly the same at any width, so narrow calls — the per-line fill /
#: writeback shape — stay on the scalar kernels and wide calls (installs,
#: region decrypts, pad batches) take the gathers.
NUMPY_MIN_BLOCKS_AES = 32
NUMPY_MIN_BLOCKS_DES = 32


#: numpy mirrors of the lookup tables above.
_NPT = {
    "te": tuple(np.array(t, dtype=np.uint32) for t in _TE),
    "td": tuple(np.array(t, dtype=np.uint32) for t in _TD),
    "sbox": np.array(SBOX, dtype=np.uint32),
    "inv_sbox": np.array(INV_SBOX, dtype=np.uint32),
    "ip": tuple(np.array(t, dtype=np.uint64) for t in _IP_TAB),
    "fp": tuple(np.array(t, dtype=np.uint64) for t in _FP_TAB),
    "e": tuple(np.array(t, dtype=np.uint64) for t in _E_TAB),
    "sp12": tuple(np.array(t, dtype=np.uint64) for t in _SP12),
}


def _np_aes_crypt(kernel: "AESKernel", data: bytes, encrypt: bool) -> bytes:
    """All AES rounds as gathers over the whole batch at once."""
    if encrypt:
        t0, t1, t2, t3 = _NPT["te"]
        last = _NPT["sbox"]
        ks = kernel._ek_np
        if ks is None:
            ks = kernel._ek_np = np.array(
                kernel._ek, dtype=np.uint32).reshape(-1, 4)
    else:
        t0, t1, t2, t3 = _NPT["td"]
        last = _NPT["inv_sbox"]
        ks = kernel._dk_np
        if ks is None:
            ks = kernel._dk_np = np.array(
                kernel._dk, dtype=np.uint32).reshape(-1, 4)
    w = np.frombuffer(data, dtype=">u4").astype(np.uint32).reshape(-1, 4)
    k = ks[0]
    w0 = w[:, 0] ^ k[0]
    w1 = w[:, 1] ^ k[1]
    w2 = w[:, 2] ^ k[2]
    w3 = w[:, 3] ^ k[3]
    # Encrypt rows rotate left through the columns, decrypt rows rotate
    # right — mirror the scalar loops' index patterns exactly.
    a, b, c = (1, 2, 3) if encrypt else (3, 2, 1)
    cols = (w0, w1, w2, w3)
    for rnd in range(1, kernel._rounds):
        k = ks[rnd]
        w0, w1, w2, w3 = (
            t0[cols[0] >> 24] ^ t1[(cols[a] >> 16) & 0xFF]
            ^ t2[(cols[2] >> 8) & 0xFF] ^ t3[cols[c] & 0xFF] ^ k[0],
            t0[cols[1] >> 24] ^ t1[(cols[(1 + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[3] >> 8) & 0xFF] ^ t3[cols[(1 + c) & 3] & 0xFF] ^ k[1],
            t0[cols[2] >> 24] ^ t1[(cols[(2 + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[0] >> 8) & 0xFF] ^ t3[cols[(2 + c) & 3] & 0xFF] ^ k[2],
            t0[cols[3] >> 24] ^ t1[(cols[(3 + a) & 3] >> 16) & 0xFF]
            ^ t2[(cols[1] >> 8) & 0xFF] ^ t3[cols[(3 + c) & 3] & 0xFF] ^ k[3],
        )
        cols = (w0, w1, w2, w3)
    k = ks[kernel._rounds]
    out = np.empty(w.shape, dtype=np.uint32)
    for i in range(4):
        out[:, i] = (
            (last[cols[i] >> 24] << 24)
            | (last[(cols[(i + a) & 3] >> 16) & 0xFF] << 16)
            | (last[(cols[(i + 2) & 3] >> 8) & 0xFF] << 8)
            | last[cols[(i + c) & 3] & 0xFF]
        ) ^ k[i]
    return out.astype(">u4").tobytes()


def _np_perm64(v, tabs):
    r = tabs[0][(v >> 56) & 0xFF] | tabs[1][(v >> 48) & 0xFF]
    r |= tabs[2][(v >> 40) & 0xFF] | tabs[3][(v >> 32) & 0xFF]
    r |= tabs[4][(v >> 24) & 0xFF] | tabs[5][(v >> 16) & 0xFF]
    r |= tabs[6][(v >> 8) & 0xFF] | tabs[7][v & 0xFF]
    return r


def _np_des_crypt(data: bytes, chains) -> bytes:
    """One IP, 16 gathered rounds per chain link, one FP — whole batch.

    ``chains`` is a tuple of uint64 round-key arrays: one entry for DES,
    three (the EDE composition with the interior FP∘IP pairs dropped) for
    3DES, mirroring the scalar kernels exactly.
    """
    e0, e1, e2, e3 = _NPT["e"]
    sp0, sp1, sp2, sp3 = _NPT["sp12"]
    v = _np_perm64(np.frombuffer(data, dtype=">u8").astype(np.uint64),
                   _NPT["ip"])
    left = v >> 32
    right = v & 0xFFFFFFFF
    for keys in chains:
        for key in keys:
            x = (e0[right >> 24] | e1[(right >> 16) & 0xFF]
                 | e2[(right >> 8) & 0xFF] | e3[right & 0xFF]) ^ key
            f = (sp0[x >> 36] ^ sp1[(x >> 24) & 0xFFF]
                 ^ sp2[(x >> 12) & 0xFFF] ^ sp3[x & 0xFFF])
            left, right = right, left ^ f
        # The final half swap of each 16-round pass.
        left, right = right, left
    return _np_perm64((left << 32) | right,
                      _NPT["fp"]).astype(">u8").tobytes()


def _array_kernels_match() -> bool:
    """The array kernels reproduce the scalar kernels bit-for-bit on a
    batch covering every byte value, for AES-128/256, DES and 3DES, both
    directions."""
    data = bytes((i * 37 + 11) & 0xFF for i in range(1024))
    for key_len in (16, 32):
        kernel = AESKernel(bytes(range(key_len)))
        ct = kernel._encrypt_blocks_scalar(data)
        if _np_aes_crypt(kernel, data, encrypt=True) != ct:
            return False
        if _np_aes_crypt(kernel, ct, encrypt=False) != data:
            return False
    des = DESKernel(bytes(range(8)))
    tdes = TripleDESKernel(bytes(range(24)))
    for kernel in (des, tdes):
        ct = _des_crypt(data, kernel._enc)
        enc_np, dec_np = _np_schedules(kernel)
        if _np_des_crypt(data, enc_np) != ct:
            return False
        if _np_des_crypt(ct, dec_np) != data:
            return False
    return True


def _check_array_kernels() -> None:
    """Import-time equivalence check; a mismatch is one error line."""
    if not _array_kernels_match():
        raise RuntimeError(
            f"numpy {np.__version__}: array cipher kernels disagree with "
            "the scalar kernels; install a numpy that reproduces them"
        )


def _np_schedules(kernel):
    """A DES-family kernel's (encrypt, decrypt) schedules as uint64 arrays,
    built on first wide call."""
    if kernel._enc_np is None:
        kernel._enc_np = tuple(np.array(k, dtype=np.uint64)
                               for k in kernel._enc)
        kernel._dec_np = tuple(np.array(k, dtype=np.uint64)
                               for k in kernel._dec)
    return kernel._enc_np, kernel._dec_np


class DESKernel(_Kernel):
    """Bit-packed DES, byte-identical to :class:`repro.crypto.des.DES`."""

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
        self._enc = tuple(ks[::-1] if i % 2 else ks
                          for i, ks in enumerate(passes))
        self._dec = tuple(ks[::-1] for ks in reversed(self._enc))
        self._enc_np = self._dec_np = None

    def encrypt_blocks(self, data: bytes, iv: Optional[bytes] = None) -> bytes:
        """ECB-encrypt a multiple of 8 bytes; with ``iv``, CBC-encrypt them
        as one chain (scalar at any width)."""
        if iv is None and len(data) >= NUMPY_MIN_BLOCKS_DES * 8 \
                and len(data) % 8 == 0:
            return _np_des_crypt(data, _np_schedules(self)[0])
        return _des_crypt(data, self._enc, iv)

    def decrypt_blocks(self, data: bytes) -> bytes:
        if len(data) >= NUMPY_MIN_BLOCKS_DES * 8 and len(data) % 8 == 0:
            return _np_des_crypt(data, _np_schedules(self)[1])
        return _des_crypt(data, self._dec)


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
    if len(data) % size:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size {size}"
        )
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
