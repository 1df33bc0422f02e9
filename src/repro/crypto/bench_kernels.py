"""Microbenchmark + equivalence sanity for the cipher kernels.

Run as ``python -m repro.crypto.bench_kernels``.  Two jobs:

1. **Equivalence**: every kernel is checked bit-for-bit against its
   reference cipher on random blocks (encrypt and decrypt, every key
   size).  Any mismatch makes the process exit non-zero, which is what
   ``make smoke`` relies on.
2. **Timing**: per-block throughput of the reference loop vs the batched
   kernel path, reported as a small table with the speedup factor.

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
from .kernels import AESKernel, DESKernel, TripleDESKernel

_CASES: List[Tuple[str, int, Callable, Callable]] = [
    ("aes-128", 16, lambda k: AES(k), lambda k: AESKernel(k)),
    ("aes-192", 24, lambda k: AES(k), lambda k: AESKernel(k)),
    ("aes-256", 32, lambda k: AES(k), lambda k: AESKernel(k)),
    ("des", 8, lambda k: DES(k), lambda k: DESKernel(k)),
    ("3des-ede2", 16, lambda k: TripleDES(k), lambda k: TripleDESKernel(k)),
    ("3des-ede3", 24, lambda k: TripleDES(k), lambda k: TripleDESKernel(k)),
]


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
        expected_ct = b"".join(
            ref.encrypt_block(data[i: i + size])
            for i in range(0, len(data), size)
        )
        if kernel.encrypt_blocks(data) != expected_ct:
            failures.append(f"{name}: encrypt mismatch")
        if kernel.decrypt_blocks(expected_ct) != data:
            failures.append(f"{name}: decrypt mismatch")
    return failures


def _throughput(crypt: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        crypt()
        best = min(best, time.perf_counter() - start)
    return best


def bench(nblocks: int, repeats: int = 3) -> List[dict]:
    """Reference-loop vs kernel-batch timing; returns one row per cipher."""
    rows = []
    rng = random.Random(0xBE7C)
    for name, key_len, make_ref, make_kernel in _CASES:
        key = bytes(rng.randrange(256) for _ in range(key_len))
        ref = make_ref(key)
        kernel = make_kernel(key)
        size = ref.block_size
        data = bytes(rng.randrange(256) for _ in range(size * nblocks))

        def ref_loop():
            return b"".join(
                ref.encrypt_block(data[i: i + size])
                for i in range(0, len(data), size)
            )

        ref_s = _throughput(ref_loop, repeats)
        kern_s = _throughput(lambda: kernel.encrypt_blocks(data), repeats)
        rows.append({
            "cipher": name,
            "blocks": nblocks,
            "reference_s": round(ref_s, 4),
            "kernel_s": round(kern_s, 4),
            "speedup": round(ref_s / kern_s, 1) if kern_s else float("inf"),
        })
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
          f"{args.check_blocks} random blocks, encrypt+decrypt)")

    print(f"{'cipher':<10} {'blocks':>7} {'reference':>10} "
          f"{'kernel':>9} {'speedup':>8}")
    for row in bench(args.blocks):
        print(f"{row['cipher']:<10} {row['blocks']:>7} "
              f"{row['reference_s']:>9.4f}s {row['kernel_s']:>8.4f}s "
              f"{row['speedup']:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
