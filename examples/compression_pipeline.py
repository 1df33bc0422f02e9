"""Figure 8 walkthrough: compression before encryption on the bus path.

Shows the three claims of the survey's §4 on real data:
1. code compresses, ciphertext does not (the ordering rule);
2. compression buys memory density (CodePack's ~35%);
3. the performance sign flips with the memory type (the "+/- 10%").

Run:  python examples/compression_pipeline.py
"""

from repro.analysis import format_percent, format_table, measure_overhead
from repro.api import make_engine
from repro.compression import CodePack, lz77_compress, shannon_entropy
from repro.crypto import CTR, aes_kernel
from repro.sim import CacheConfig, MemoryConfig
from repro.traces import iter_sequential_code, synthetic_code_image

KEY = b"0123456789abcdef"
IMAGE_SIZE = 32 * 1024


def main() -> None:
    image = synthetic_code_image(size=IMAGE_SIZE)
    ciphertext = CTR(aes_kernel(KEY), nonce=bytes(12)).encrypt(image)

    print(format_table(
        ["pipeline order", "input entropy", "compressed size", "ratio"],
        [
            ["compress THEN encrypt",
             f"{shannon_entropy(image):.2f} b/B",
             len(lz77_compress(image)),
             f"{len(lz77_compress(image)) / len(image):.2f}"],
            ["encrypt THEN compress",
             f"{shannon_entropy(ciphertext):.2f} b/B",
             len(lz77_compress(ciphertext)),
             f"{len(lz77_compress(ciphertext)) / len(ciphertext):.2f}"],
        ],
        title='1. "The compression has to be done before ciphering"',
    ))

    compressed = CodePack(block_size=32).compress_image(image)
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["original image", f"{len(image):,} bytes"],
            ["packed (incl. LAT + dictionaries)",
             f"{compressed.compressed_size:,} bytes"],
            ["memory density gain",
             format_percent(compressed.density_gain)],
        ],
        title="2. Memory density (survey: CodePack ~= 35%)",
    ))

    trace = list(iter_sequential_code(4000, code_size=IMAGE_SIZE))
    cache = CacheConfig(size=1024, line_size=32, associativity=2)
    rows = []
    for label, latency, width, cpb in (
        ("fast wide bus", 10, 8, 1),
        ("moderate bus", 40, 4, 1),
        ("slow narrow bus", 40, 2, 2),
    ):
        result = measure_overhead(
            lambda: make_engine("compress", key=KEY, functional=False),
            trace, image=image, cache_config=cache,
            mem_config=MemoryConfig(size=1 << 20, latency=latency,
                                    bus_width=width, cycles_per_beat=cpb),
        )
        rows.append([label, format_percent(result.overhead)])
    print()
    print(format_table(
        ["memory type", "compress+encrypt overhead"],
        rows,
        title='3. "+/- 10% (depends on the type of memory used)"',
    ))


if __name__ == "__main__":
    main()
