"""What encryption does NOT hide: the access-pattern side channel.

Runs the same two victims (a sequential code walk and a random-access
lookup) through the strongest engine in the package, then shows a passive
probe classifying the workload, counting its working set, and — for the
page-DMA engine — reading off the page access order outright.

The survey's threat model stops at content confidentiality; this demo marks
the boundary of what every engine in it can deliver.

Run:  python examples/side_channel_demo.py
"""

from repro.analysis import format_table
from repro.api import make_engine
from repro.attacks import BusProbe, classify_pattern, page_sequence, profile_probe
from repro.crypto import DRBG
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind, random_data, sequential_code

KEY = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"


def observe(trace, engine):
    system = SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
    )
    probe = BusProbe()
    system.bus.attach_probe(probe)
    system.install_image(0, bytes(32 * 1024))
    system.run(trace)
    return probe


def main() -> None:
    victims = {
        "straight-line code": sequential_code(2000, code_size=32 * 1024),
        "random table lookups": random_data(
            1500, DRBG(7), base=0, working_set=32 * 1024
        ),
    }
    rows = []
    for label, trace in victims.items():
        probe = observe(trace, make_engine("aegis", key=KEY))
        prof = profile_probe(probe)
        rows.append([
            label,
            classify_pattern(probe),
            prof.distinct_addresses,
            f"{prof.sequential_fraction:.0%}",
            f"{prof.write_fraction:.0%}",
        ])
    print(format_table(
        ["victim behaviour", "probe's verdict", "distinct lines seen",
         "sequential transitions", "write mix"],
        rows,
        title="Through AEGIS encryption, a passive probe still learns:",
    ))

    # -- the page-DMA engine broadcasts page order --------------------------
    engine = make_engine("vlsi", key=KEY24, page_size=1024, buffer_pages=2)
    system = SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=512, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
    )
    probe = BusProbe()
    system.bus.attach_probe(probe)
    system.install_image(0, bytes(8192))
    secret_page_order = [0, 3, 1, 6, 2]
    for page in secret_page_order:
        system.step(Access(AccessKind.LOAD, page * 1024))
    recovered = page_sequence(probe, page_size=1024)

    print()
    print(format_table(
        ["", "pages"],
        [["victim's secret access order", secret_page_order],
         ["probe's reconstruction", recovered]],
        title="VLSI page-DMA: the access pattern IS the bus traffic",
    ))
    assert recovered == secret_page_order
    print("\nEvery engine in the survey closes the content channel; none "
          "closes this one.")


if __name__ == "__main__":
    main()
