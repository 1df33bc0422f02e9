"""Cipher-kernel microbenchmarks — the tentpole speedup, measured.

Thin wrapper: the equivalence sweep lives in
:mod:`repro.crypto.bench_kernels` (shared with ``python -m
repro.crypto.bench_kernels``).  Each bench times a 2000-block kernel call,
after asserting the kernels still match the reference ciphers
bit-for-bit.
"""

_NBLOCKS = 2000


def _data(block_size: int) -> bytes:
    return bytes(range(256)) * (block_size * _NBLOCKS // 256)


def test_kernel_equivalence(benchmark):
    from repro.crypto.bench_kernels import check_equivalence

    failures = benchmark.pedantic(
        lambda: check_equivalence(blocks_per_key=200), rounds=1, iterations=1
    )
    assert failures == []


def test_aes_kernel_throughput(benchmark):
    from repro.crypto.kernels import aes_kernel

    kernel = aes_kernel(bytes(range(16)))
    data = _data(16)
    out = benchmark(kernel.encrypt_blocks, data)
    assert kernel.decrypt_blocks(out) == data
    print(f"\naes-128 kernel: {_NBLOCKS} blocks per round\n")


def test_tdes_kernel_throughput(benchmark):
    from repro.crypto.kernels import tdes_kernel

    kernel = tdes_kernel(bytes(range(24)))
    data = _data(8)
    out = benchmark(kernel.encrypt_blocks, data)
    assert kernel.decrypt_blocks(out) == data
    print(f"\n3des-ede3 kernel: {_NBLOCKS} blocks per round\n")
