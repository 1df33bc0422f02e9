"""Microbenchmark + equivalence sanity for the cipher kernels.

Run as ``python -m repro.crypto.bench_kernels``.  Two jobs:

1. **Equivalence**: every kernel is checked bit-for-bit against its
   reference cipher on random blocks (encrypt and decrypt, every key
   size), at the batch width asked for and at narrow widths (1, 5 and 31
   blocks, the scalar loops), and as one CBC chain against the chain
   built block by block from the reference cipher; also the DS5002FP
   byte cipher's one-pass array path against its per-byte methods.  Any
   mismatch makes the process exit non-zero, which is what ``make smoke``
   relies on.
2. **Timing**: per-block throughput of the reference loop vs the batched
   kernel path, reported as a small table with the speedup factor; a
   128-block 3DES-CBC chain (the General Instrument region shape) is timed
   as a per-block reference chain vs one kernel call; the byte cipher is
   timed at one cache line (32 B) and one page (8 KB).

``--quick`` shrinks both jobs to a CI-friendly sanity run.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, List, Tuple

from .aes import AES
from .des import DES, TripleDES
from .feistel import SmallBlockCipher
from .kernels import AESKernel, DESKernel, TripleDESKernel
from .modes import xor_bytes

_CASES: List[Tuple[str, int, Callable, Callable]] = [
    ("aes-128", 16, lambda k: AES(k), lambda k: AESKernel(k)),
    ("aes-192", 24, lambda k: AES(k), lambda k: AESKernel(k)),
    ("aes-256", 32, lambda k: AES(k), lambda k: AESKernel(k)),
    ("des", 8, lambda k: DES(k), lambda k: DESKernel(k)),
    ("3des-ede2", 16, lambda k: TripleDES(k), lambda k: TripleDESKernel(k)),
    ("3des-ede3", 24, lambda k: TripleDES(k), lambda k: TripleDESKernel(k)),
]


def _reference_ecb(ref, data: bytes) -> bytes:
    size = ref.block_size
    return b"".join(
        ref.encrypt_block(data[i: i + size]) for i in range(0, len(data), size)
    )


def _reference_cbc(ref, iv: bytes, data: bytes) -> bytes:
    """CBC by its definition, one reference block at a time."""
    size = ref.block_size
    prev, out = iv, []
    for i in range(0, len(data), size):
        prev = ref.encrypt_block(xor_bytes(data[i: i + size], prev))
        out.append(prev)
    return b"".join(out)


def check_equivalence(blocks_per_key: int, seed: int = 0x5EED) -> List[str]:
    """Random-block equivalence sweep; returns a list of failure strings."""
    rng = random.Random(seed)
    failures = []
    for name, key_len, make_ref, make_kernel in _CASES:
        key = bytes(rng.randrange(256) for _ in range(key_len))
        ref = make_ref(key)
        kernel = make_kernel(key)
        size = ref.block_size
        data = bytes(
            rng.randrange(256) for _ in range(size * blocks_per_key)
        )
        expected_ct = _reference_ecb(ref, data)
        if kernel.encrypt_blocks(data) != expected_ct:
            failures.append(f"{name}: encrypt mismatch")
        if kernel.decrypt_blocks(expected_ct) != data:
            failures.append(f"{name}: decrypt mismatch")
        # Narrow widths run the scalar loops, below NUMPY_MIN_BLOCKS_*.
        narrow = bytes(rng.randrange(256) for _ in range(size * 31))
        narrow_ct = _reference_ecb(ref, narrow)
        for width in (1, 5, 31):
            part = width * size
            if kernel.encrypt_blocks(narrow[:part]) != narrow_ct[:part]:
                failures.append(f"{name}: encrypt mismatch at {width} blocks")
            if kernel.decrypt_blocks(narrow_ct[:part]) != narrow[:part]:
                failures.append(f"{name}: decrypt mismatch at {width} blocks")
        # A whole CBC chain in one kernel call.
        iv = bytes(rng.randrange(256) for _ in range(size))
        if kernel.encrypt_blocks(data, iv) != _reference_cbc(ref, iv, data):
            failures.append(f"{name}: cbc chain mismatch")
    failures.extend(_check_byte_cipher(rng, blocks_per_key))
    return failures


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


def _row(cipher: str, blocks: int, ref_s: float, kern_s: float) -> dict:
    return {
        "cipher": cipher,
        "blocks": blocks,
        "reference_s": round(ref_s, 4),
        "kernel_s": round(kern_s, 4),
        "speedup": round(ref_s / kern_s, 1) if kern_s else float("inf"),
    }


def bench(nblocks: int, repeats: int = 3) -> List[dict]:
    """Reference-loop vs kernel-batch timing; returns one row per cipher."""
    rows = []
    rng = random.Random(0xBE7C)
    for name, key_len, make_ref, make_kernel in _CASES:
        key = bytes(rng.randrange(256) for _ in range(key_len))
        ref = make_ref(key)
        kernel = make_kernel(key)
        data = bytes(rng.randrange(256)
                     for _ in range(ref.block_size * nblocks))
        rows.append(_row(
            name, nblocks,
            _throughput(lambda: _reference_ecb(ref, data), repeats),
            _throughput(lambda: kernel.encrypt_blocks(data), repeats)))
    key = bytes(rng.randrange(256) for _ in range(24))
    ref, kernel = TripleDES(key), TripleDESKernel(key)
    data = bytes(rng.randrange(256) for _ in range(8 * 128))
    iv = bytes(8)
    rows.append(_row(
        "3des-cbc", 128,
        _throughput(lambda: _reference_cbc(ref, iv, data), repeats),
        _throughput(lambda: kernel.encrypt_blocks(data, iv), repeats)))
    for nbytes in (32, 8192):
        cipher = SmallBlockCipher(bytes(rng.randrange(256) for _ in range(16)))
        data = bytes(rng.randrange(256) for _ in range(nbytes))

        def byte_loop():
            return bytes(
                cipher.encrypt_byte(0x400 + i, b) for i, b in enumerate(data)
            )

        rows.append(_row(
            "feistel-8", nbytes, _throughput(byte_loop, repeats),
            _throughput(lambda: cipher.encrypt(0x400, data), repeats)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crypto.bench_kernels",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--blocks", type=int, default=2000,
                        help="blocks per cipher in the timing run")
    parser.add_argument("--check-blocks", type=int, default=200,
                        help="random blocks per key in the equivalence sweep")
    parser.add_argument("--quick", action="store_true",
                        help="CI sanity mode: small sweep, tiny timing run")
    args = parser.parse_args(argv)
    if args.quick:
        args.blocks = min(args.blocks, 200)
        args.check_blocks = min(args.check_blocks, 50)

    failures = check_equivalence(args.check_blocks)
    if failures:
        for failure in failures:
            print(f"EQUIVALENCE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"equivalence: ok ({len(_CASES)} ciphers x "
          f"{args.check_blocks} random blocks, encrypt+decrypt, also at "
          f"1/5/31 blocks, and one CBC chain; "
          f"feistel-8 array path vs per-byte)")

    print(f"{'cipher':<10} {'blocks':>7} {'reference':>10} "
          f"{'kernel':>9} {'speedup':>8}")
    for row in bench(args.blocks):
        print(f"{row['cipher']:<10} {row['blocks']:>7} "
              f"{row['reference_s']:>9.4f}s {row['kernel_s']:>8.4f}s "
              f"{row['speedup']:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
