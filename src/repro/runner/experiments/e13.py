"""E13 — Figure 8 / §4: compression before encryption.

Paper claims reproduced:
* CodePack-class code compression: "an increase of memory density of 35%"
  — measured from the packed image;
* "The performance impact is claimed to be about +/- 10% (depends on the
  type of memory used)" — the sign flips across the memory-latency sweep;
* "The compression has to be done before ciphering, if not, compression
  will have a very poor ratio due to the strong stochastic properties of
  encrypted data" — compress-then-encrypt vs encrypt-then-compress ratios;
* "compression increases the message entropy" — entropy columns.
"""

from __future__ import annotations

from ...analysis import format_percent, format_table
from ...compression import CodePack, lz77_compress, shannon_entropy
from ...crypto import CTR, aes_kernel
from ...sim import CacheConfig, MemoryConfig
from ...traces import iter_sequential_code, synthetic_code_image
from ..base import Experiment, TaskContext
from .common import KEY16, N_ACCESSES, overhead_metrics, price

CACHE = CacheConfig(size=1024, line_size=32, associativity=2)
IMAGE_SIZE = 32 * 1024

#: "Depends on the type of memory used": (label, latency, bus bytes/beat,
#: cycles/beat) from fast wide SDR down to slow narrow ROM-class memory.
MEMORY_TYPES = (
    ("fast wide (8B/beat)", 10, 8, 1),
    ("moderate (4B/beat)", 40, 4, 1),
    ("slow narrow (2B, 2cyc)", 40, 2, 2),
    ("serial ROM (1B, 4cyc)", 60, 1, 4),
)


def task_density_ordering(ctx: TaskContext) -> dict:
    image = synthetic_code_image(size=IMAGE_SIZE)
    compressed = CodePack(block_size=32).compress_image(image)
    ciphertext = CTR(aes_kernel(KEY16), nonce=bytes(12)).encrypt(image)

    compress_then_encrypt = len(lz77_compress(image))  # encrypt keeps size
    encrypt_then_compress = len(lz77_compress(ciphertext))
    return {
        "codepack_ratio": round(compressed.ratio, 6),
        "density_gain": round(compressed.density_gain, 6),
        "plain_entropy": round(shannon_entropy(image), 6),
        "compressed_entropy":
            round(shannon_entropy(b"".join(compressed.blocks)), 6),
        "cipher_entropy": round(shannon_entropy(ciphertext), 6),
        "cte_ratio": round(compress_then_encrypt / len(image), 6),
        "etc_ratio": round(encrypt_then_compress / len(ciphertext), 6),
    }


def task_memory_sweep(ctx: TaskContext) -> dict:
    image = synthetic_code_image(size=IMAGE_SIZE)
    trace = list(iter_sequential_code(ctx.n(N_ACCESSES), code_size=IMAGE_SIZE))
    rows = []
    for label, latency, width, cpb in MEMORY_TYPES:
        mem = MemoryConfig(size=1 << 20, latency=latency, bus_width=width,
                           cycles_per_beat=cpb)
        [result] = price(trace, "compress", image=image,
                         cache_config=CACHE, mem_config=mem)
        rows.append({"memory": label, **overhead_metrics(result)})
    return {"rows": rows}


def render(results: dict) -> str:
    stats = results["density-ordering"]
    density = format_table(
        ["metric", "value"],
        [
            ["CodePack compression ratio", f"{stats['codepack_ratio']:.2f}"],
            ["memory density gain", format_percent(stats["density_gain"])],
            ["plain image entropy (bits/B)",
             f"{stats['plain_entropy']:.2f}"],
            ["compressed entropy", f"{stats['compressed_entropy']:.2f}"],
            ["ciphertext entropy", f"{stats['cipher_entropy']:.2f}"],
            ["compress-then-encrypt size ratio",
             f"{stats['cte_ratio']:.2f}"],
            ["encrypt-then-compress size ratio",
             f"{stats['etc_ratio']:.2f}"],
        ],
        title="E13a: density, entropy and the ordering rule (survey Fig. 8)",
    )
    rows = results["memory-sweep"]["rows"]
    sweep = format_table(
        ["memory type", "compress+encrypt overhead"],
        [[r["memory"], format_percent(r["overhead"])] for r in rows],
        title="E13b: the '+/- 10%' — sign depends on the type of memory "
              "(survey §4)",
    )
    return density + "\n\n" + sweep


def check(results: dict) -> None:
    stats = results["density-ordering"]
    # The survey's 35% density figure: our code-like image lands nearby.
    assert stats["density_gain"] > 0.20
    # Compression raises entropy toward the cipher's.
    assert stats["compressed_entropy"] > stats["plain_entropy"]
    # Ordering: compressing ciphertext achieves (essentially) nothing.
    assert stats["etc_ratio"] > 0.95
    assert stats["cte_ratio"] < 0.7
    overheads = [r["overhead"] for r in results["memory-sweep"]["rows"]]
    # The sweep crosses zero: a loss on a fast wide bus (the decoder can't
    # hide behind the few saved beats), a win on transfer-bound memory.
    assert overheads[0] > 0.0       # fast wide: compression costs
    assert overheads[-1] < 0.0      # slow narrow: compression pays
    # Monotone: the narrower/slower the transfer, the better compression
    # looks.
    assert overheads == sorted(overheads, reverse=True)


EXPERIMENT = Experiment(
    id="e13",
    title="Compression before encryption",
    section="§4 / Fig. 8",
    tasks={"density-ordering": task_density_ordering,
           "memory-sweep": task_memory_sweep},
    render=render,
    check=check,
)
