"""Rung crossovers + equivalence sanity for the cipher kernels.

Run as ``python -m repro.crypto.bench_kernels``.  Two jobs:

1. **Equivalence**: every kernel is checked bit-for-bit against its
   reference cipher on random blocks (encrypt and decrypt, every key
   size), at the batch width asked for and at widths straddling the
   rung switch (1, 5 and 31 blocks, and one below, at and above the
   cipher's ``NUMPY_MIN_BLOCKS_*``), and as one CBC chain against the
   chain built block by block from the reference cipher; every DES-family
   kernel's ``encrypt_units`` against per-unit reference chains, on both
   sides of its switch and forced into lockstep; also the DS5002FP byte
   cipher's one-pass array path against its per-byte methods.  Any
   mismatch makes the process exit non-zero, which is what ``make smoke``
   relies on.
2. **Crossover**: per-call time of the narrow rung against the numpy
   rung, each forced at widths from 1 to 1024 blocks, for AES-128, DES
   and 3DES; the measured crossover (the narrowest width from which numpy
   is never slower) is printed beside ``NUMPY_MIN_BLOCKS_AES``/``_DES``.
   Likewise for 3DES ``encrypt_units``: serial chains against lockstep,
   from 1 to 64 units.

``--quick`` shrinks both jobs to a CI-friendly sanity run.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import kernels
from .aes import AES
from .des import DES, TripleDES
from .feistel import SmallBlockCipher
from .kernels import AESKernel, DESKernel, ReferenceKernel, TripleDESKernel

_CASES: List[Tuple[str, int, Callable, Callable]] = [
    ("aes-128", 16, AES, AESKernel),
    ("aes-192", 24, AES, AESKernel),
    ("aes-256", 32, AES, AESKernel),
    ("des", 8, DES, DESKernel),
    ("3des-ede2", 16, TripleDES, TripleDESKernel),
    ("3des-ede3", 24, TripleDES, TripleDESKernel),
]


def check_equivalence(blocks_per_key: int, seed: int = 0x5EED) -> List[str]:
    """Random-block equivalence sweep; returns a list of failure strings."""
    rng = random.Random(seed)
    failures = []
    for name, key_len, make_ref, make_kernel in _CASES:
        key = bytes(rng.randrange(256) for _ in range(key_len))
        ref = ReferenceKernel(make_ref(key))
        kernel = make_kernel(key)
        size = ref.block_size
        data = bytes(
            rng.randrange(256) for _ in range(size * blocks_per_key)
        )
        expected_ct = ref.encrypt_blocks(data)
        if kernel.encrypt_blocks(data) != expected_ct:
            failures.append(f"{name}: encrypt mismatch")
        if kernel.decrypt_blocks(expected_ct) != data:
            failures.append(f"{name}: decrypt mismatch")
        # Narrow widths, and both sides of the rung switch.
        switch = _switch(size)
        widths = (1, 5, 31, switch - 1, switch, switch + 1)
        narrow = bytes(rng.randrange(256) for _ in range(size * max(widths)))
        narrow_ct = ref.encrypt_blocks(narrow)
        for width in widths:
            part = width * size
            if kernel.encrypt_blocks(narrow[:part]) != narrow_ct[:part]:
                failures.append(f"{name}: encrypt mismatch at {width} blocks")
            if kernel.decrypt_blocks(narrow_ct[:part]) != narrow[:part]:
                failures.append(f"{name}: decrypt mismatch at {width} blocks")
        # A whole CBC chain in one kernel call.
        iv = bytes(rng.randrange(256) for _ in range(size))
        if kernel.encrypt_blocks(data, iv) != ref.encrypt_blocks(data, iv):
            failures.append(f"{name}: cbc chain mismatch")
    failures.extend(_check_byte_cipher(rng, blocks_per_key))
    return failures


def _unit_counts() -> Tuple[int, ...]:
    """Unit counts the units check runs: one and two chains, both sides
    of the lockstep switch, and many."""
    switch = kernels.NUMPY_MIN_BLOCKS_DES
    return tuple(sorted({1, 2, switch - 1, switch, switch + 1, 17, 64}))


def check_units(rng: random.Random, unit: int = 16) -> List[str]:
    """Each DES-family kernel's ``encrypt_units`` (and its lockstep body,
    forced at every count) against one reference CBC chain per unit."""
    failures = []
    for name, key_len, make_ref, make_kernel in _CASES:
        if make_ref is AES:
            continue
        key = bytes(rng.randrange(256) for _ in range(key_len))
        ref = ReferenceKernel(make_ref(key))
        kernel = make_kernel(key)
        for count in _unit_counts():
            ivs = bytes(rng.randrange(256) for _ in range(8 * count))
            data = bytes(rng.randrange(256) for _ in range(unit * count))
            expected = b"".join(
                ref.encrypt_blocks(data[i * unit: (i + 1) * unit],
                                   ivs[8 * i: 8 * i + 8])
                for i in range(count))
            if kernel.encrypt_units(ivs, data, unit) != expected:
                failures.append(f"{name}: units mismatch at {count} units")
            if kernels._np_des_units(kernel, ivs, data, unit) != expected:
                failures.append(
                    f"{name}: lockstep units mismatch at {count} units")
    return failures


def _switch(block_size: int) -> int:
    """The width (blocks) from which a kernel takes the numpy rung."""
    return (kernels.NUMPY_MIN_BLOCKS_AES if block_size == 16
            else kernels.NUMPY_MIN_BLOCKS_DES)


def _check_byte_cipher(rng: random.Random, nbytes: int) -> List[str]:
    """The byte cipher's array path against per-byte calls, at address 0
    and where the tweak product wraps 2^64 (near 2^32 and 2^40)."""
    failures = []
    cipher = SmallBlockCipher(bytes(rng.randrange(256) for _ in range(16)))
    for base in (0, (1 << 32) - nbytes // 2, (1 << 40) - nbytes // 2):
        data = bytes(rng.randrange(256) for _ in range(nbytes))
        addrs = range(base, base + nbytes)
        expected_ct = bytes(
            cipher.encrypt_byte(addr, b) for addr, b in zip(addrs, data)
        )
        if cipher.encrypt(base, data) != expected_ct:
            failures.append(f"feistel-8 @ {base:#x}: encrypt mismatch")
        expected_pt = bytes(
            cipher.decrypt_byte(addr, b) for addr, b in zip(addrs, data)
        )
        if cipher.decrypt(base, data) != expected_pt:
            failures.append(f"feistel-8 @ {base:#x}: decrypt mismatch")
    return failures


def _throughput(crypt: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        crypt()
        best = min(best, time.perf_counter() - start)
    return best


#: Widths (blocks) at which the two rungs are timed against each other.
CROSSOVER_WIDTHS = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 32, 40, 64, 128, 256,
                    384, 512,
                    640, 768, 1024)


def _rungs(name: str, key: bytes) -> Tuple[Callable, Callable]:
    """ECB encryption of one cipher forced onto (narrow, numpy) rung."""
    if name == "aes-128":
        aes = AESKernel(key)
        return (lambda data: aes._narrow(data, False),
                lambda data: kernels._np_aes_crypt(aes, data, True))
    des = (TripleDESKernel if name == "3des" else DESKernel)(key)
    return (lambda data: kernels._des_crypt(data, des._enc),
            lambda data: kernels._np_des_crypt(des, data))


def _per_call(crypt: Callable[[bytes], bytes], data: bytes, calls: int,
              repeats: int) -> float:
    return _throughput(
        lambda: [crypt(data) for _ in range(calls)], repeats) / calls


def crossovers(widths=CROSSOVER_WIDTHS, repeats: int = 5
               ) -> Tuple[List[dict], Dict[str, Optional[int]]]:
    """Per-call seconds of each rung at each width, and per cipher the
    narrowest measured width from which numpy is never slower (None if
    numpy loses at every width)."""
    rng = random.Random(0xC055)
    rows, found = [], {}
    for name, key_len, size in (("aes-128", 16, 16), ("des", 8, 8),
                                ("3des", 24, 8)):
        narrow, wide = _rungs(name, bytes(rng.randrange(256)
                                          for _ in range(key_len)))
        crossover = None
        for width in widths:
            data = bytes(rng.randrange(256) for _ in range(size * width))
            calls = max(1, 64 // width)
            row = {"cipher": name, "blocks": width,
                   "narrow_s": _per_call(narrow, data, calls, repeats),
                   "numpy_s": _per_call(wide, data, calls, repeats)}
            rows.append(row)
            if row["numpy_s"] > row["narrow_s"]:
                crossover = None
            elif crossover is None:
                crossover = width
        found[name] = crossover
    return rows, found


#: Unit counts at which serial and lockstep chains are timed.
UNIT_COUNTS = (1, 2, 4, 8, 10, 12, 16, 32, 64)


def unit_crossover(counts=UNIT_COUNTS, unit: int = 256, repeats: int = 5
                   ) -> Tuple[List[dict], Optional[int]]:
    """Per-call seconds of 3DES ``encrypt_units`` as serial chains and in
    lockstep, at each unit count, and the fewest measured units from
    which lockstep is never slower (None if it always loses)."""
    rng = random.Random(0xC4A1)
    kernel = TripleDESKernel(bytes(rng.randrange(256) for _ in range(24)))
    rows, crossover = [], None
    for count in counts:
        ivs = bytes(rng.randrange(256) for _ in range(8 * count))
        data = bytes(rng.randrange(256) for _ in range(unit * count))
        row = {"units": count,
               "serial_s": _throughput(lambda: kernels._unit_chains(
                   kernel, ivs, data, unit), repeats),
               "lockstep_s": _throughput(lambda: kernels._np_des_units(
                   kernel, ivs, data, unit), repeats)}
        rows.append(row)
        if row["lockstep_s"] > row["serial_s"]:
            crossover = None
        elif crossover is None:
            crossover = count
    return rows, crossover


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crypto.bench_kernels",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--check-blocks", type=int, default=200,
                        help="random blocks per key in the equivalence sweep")
    parser.add_argument("--quick", action="store_true",
                        help="CI sanity mode: small sweep, one timing pass")
    args = parser.parse_args(argv)
    if args.quick:
        args.check_blocks = min(args.check_blocks, 50)

    failures = (check_equivalence(args.check_blocks)
                + check_units(random.Random(0x0717)))
    if failures:
        for failure in failures:
            print(f"EQUIVALENCE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"equivalence: ok ({len(_CASES)} ciphers x "
          f"{args.check_blocks} random blocks, encrypt+decrypt, also at "
          f"1/5/31 blocks and around each rung switch, and one CBC chain; "
          f"DES-family encrypt_units at {list(_unit_counts())} units; "
          f"feistel-8 array path vs per-byte)")

    rows, found = crossovers(repeats=1 if args.quick else 5)
    print(f"{'cipher':<8} {'blocks':>6} {'narrow':>10} {'numpy':>10}")
    for row in rows:
        print(f"{row['cipher']:<8} {row['blocks']:>6} "
              f"{row['narrow_s'] * 1e6:>8.1f}us {row['numpy_s'] * 1e6:>8.1f}us")
    for name, switch in (("aes-128", kernels.NUMPY_MIN_BLOCKS_AES),
                         ("des", kernels.NUMPY_MIN_BLOCKS_DES),
                         ("3des", kernels.NUMPY_MIN_BLOCKS_DES)):
        where = found[name] or f"none up to {CROSSOVER_WIDTHS[-1]}"
        print(f"crossover {name}: {where} blocks (switch at {switch})")

    unit_rows, unit_found = unit_crossover(
        unit=64 if args.quick else 256, repeats=1 if args.quick else 5)
    print(f"{'units':>6} {'serial':>10} {'lockstep':>10}")
    for row in unit_rows:
        print(f"{row['units']:>6} {row['serial_s'] * 1e3:>8.2f}ms "
              f"{row['lockstep_s'] * 1e3:>8.2f}ms")
    where = unit_found or f"none up to {UNIT_COUNTS[-1]}"
    print(f"crossover 3des units: {where} units "
          f"(switch at {kernels.NUMPY_MIN_BLOCKS_DES})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
