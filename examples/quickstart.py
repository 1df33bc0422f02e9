"""Quickstart: protect a program image with a bus-encryption engine.

Builds a simulated SoC (CPU + cache + bus + external RAM) with an
AEGIS-style per-cache-line AES-CBC engine, installs a program, runs a
workload, and shows what an attacker probing the bus actually sees.

Engines come from the registry facade (``repro.api.make_engine``); see
``python -m repro.cli list`` for the available names.

Run:  python examples/quickstart.py
"""

from repro.analysis import format_percent, format_table
from repro.api import make_engine
from repro.attacks import BusProbe, analyze_ciphertext
from repro.sim import CacheConfig, MemoryConfig, SecureSystem, run_trace
from repro.traces import make_workload, synthetic_code_image


def main() -> None:
    key = b"0123456789abcdef"            # stays on-chip, Best's rule
    image = synthetic_code_image(size=64 * 1024)
    trace = make_workload("mixed", n=5000)

    # A system with the engine, and the plaintext baseline to compare.
    probe = BusProbe()                    # the attacker's logic analyzer
    system = SecureSystem(
        engine=make_engine("aegis", key=key),
        cache_config=CacheConfig(size=4096, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21, latency=40),
        sink=probe,
    )

    system.install_image(0, image)        # offline encryption (§2.1 step 6)
    report = system.run(list(trace))
    baseline = run_trace(
        list(trace), engine=None, image=image,
        cache_config=system.cache.config, mem_config=system.memory.config,
    )

    print(format_table(
        ["metric", "value"],
        [
            ["engine", system.engine.name],
            ["accesses simulated", report.accesses],
            ["cache miss rate", f"{report.miss_rate:.1%}"],
            ["cycles (plaintext baseline)", baseline.cycles],
            ["cycles (with engine)", report.cycles],
            ["performance overhead",
             format_percent(report.overhead_vs(baseline))],
            ["engine area", f"{system.engine.area().total:,} gates"],
        ],
        title="Simulation summary",
    ))

    # What did the wire expose?  Analyze the program-region reads (the
    # data region was never initialized, so its lines are zero-filled).
    observed = probe.observed_bytes("read")
    # Reconstruct the attacker's view of the program image (one entry per
    # address — re-fetches of an unmodified line repeat the same
    # ciphertext, which is redundancy, not structure).
    recon = probe.reconstruct_memory()
    code_view = b"".join(
        data for addr, data in sorted(recon.items()) if addr < len(image)
    )
    stats = analyze_ciphertext(code_view[:16384], block_size=8)
    print()
    print(format_table(
        ["bus observation", "value"],
        [
            ["bytes captured", probe.bytes_observed],
            ["plaintext visible?", image[:32] in observed],
            ["program-read entropy", f"{stats.entropy_bits_per_byte:.2f} "
                                     "bits/byte"],
            ["looks like random noise?", stats.looks_random],
        ],
        title="Attacker's bus probe",
    ))

    # The chip itself still reads its program perfectly.
    assert system.read_plaintext(0, 64) == image[:64]
    print("\nOn-chip view decrypts correctly; the bus shows only noise.")


if __name__ == "__main__":
    main()
