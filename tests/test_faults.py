"""Tests for the fault-injection subsystem (`repro.faults`).

Three layers: plan validation and injector trigger mechanics on a bare
memory, deterministic campaign behaviour per engine (the E19 conformance
surface), and property-based checks that the whole pipeline is a pure
function of its seeds.
"""

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAULT_KINDS,
    CampaignResult,
    FaultInjector,
    FaultPlan,
    campaign_labels,
    detection_matrix,
    run_campaign,
)
from repro.faults import campaign as campaign_mod
from repro.obs import CounterSink
from repro.sim.memory import PAGE_SIZE, MainMemory, MemoryConfig

#: Labels whose ``detects`` claim covers every fault kind — the engines the
#: survey credits with real integrity (plus the ablation that adds it).
DETECTORS = ("gi-auth", "integrity-stream", "integrity-xom", "merkle-stream")

_CAMPAIGN_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _memory(size=4096, fill=b"\x00"):
    memory = MainMemory(MemoryConfig(size=size))
    memory.load_image(0, fill * size)
    return memory


# -- FaultPlan validation --------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan("rowhammer", 0)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="size"):
            FaultPlan("spoof", 0, size=0)
        with pytest.raises(ValueError, match="addr"):
            FaultPlan("spoof", -32)

    def test_splice_requires_source(self):
        with pytest.raises(ValueError, match="source"):
            FaultPlan("splice", 0)
        FaultPlan("splice", 0, source=64)  # fine with a donor

    def test_glitch_requires_bits(self):
        with pytest.raises(ValueError, match="bits"):
            FaultPlan("glitch", 0, bits=0)

    def test_triggers_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            FaultPlan("spoof", 0, nth_read=1, after_ops=10)
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan("spoof", 0, nth_read=0)

    def test_armed_mode_and_overlap(self):
        plan = FaultPlan("spoof", 64, size=32)
        assert plan.armed_mode
        assert not FaultPlan("spoof", 64, nth_read=1).armed_mode
        assert plan.overlaps(32, 33)
        assert plan.overlaps(95, 1)
        assert not plan.overlaps(32, 32)
        assert not plan.overlaps(96, 32)


# -- injector trigger mechanics on a bare memory ---------------------------


class TestFaultInjector:
    def test_nth_read_fires_on_exactly_that_read(self):
        memory = _memory()
        plan = FaultPlan("spoof", 0, size=32, nth_read=2)
        with FaultInjector(memory, [plan], sink=None) as injector:
            first = memory.read(0, 32)
            assert injector.injected == 0
            second = memory.read(0, 32)
            assert injector.injected == 1
            assert first == b"\x00" * 32
            assert second != first
        record = injector.faults[0]
        assert (record.kind, record.addr, record.read_addr) == ("spoof", 0, 0)

    def test_nth_read_counts_only_overlapping_reads(self):
        memory = _memory()
        plan = FaultPlan("spoof", 0, size=32, nth_read=2)
        with FaultInjector(memory, [plan], sink=None) as injector:
            memory.read(512, 32)  # elsewhere: not eligible
            memory.read(0, 32)
            assert injector.injected == 0
            memory.read(0, 32)
            assert injector.injected == 1

    def test_after_ops_counts_all_traffic(self):
        memory = _memory()
        plan = FaultPlan("spoof", 0, size=32, after_ops=3)
        with FaultInjector(memory, [plan], sink=None) as injector:
            memory.read(0, 32)        # op 1: eligible but below threshold
            memory.write(512, b"x")   # op 2: writes count as traffic
            assert injector.injected == 0
            memory.read(0, 32)        # op 3: fires
            assert injector.injected == 1

    def test_armed_mode_waits_for_arm_and_fires_once(self):
        memory = _memory()
        plan = FaultPlan("spoof", 0, size=32)
        with FaultInjector(memory, [plan], sink=None) as injector:
            memory.read(0, 32)
            assert injector.injected == 0
            injector.arm()
            memory.read(0, 32)
            memory.read(0, 32)
            assert injector.injected == 1  # plans are one-shot

    def test_spoof_is_persistent_and_seed_deterministic(self):
        results = []
        for _ in range(2):
            memory = _memory()
            plan = FaultPlan("spoof", 0, size=32, nth_read=1, seed=7)
            with FaultInjector(memory, [plan], sink=None):
                returned = memory.read(0, 32)
            assert memory.dump(0, 32) == returned  # stored, not transient
            results.append(returned)
        assert results[0] == results[1]

    def test_splice_copies_donor_bytes(self):
        memory = _memory()
        memory.load_image(64, b"\xab" * 32)
        plan = FaultPlan("splice", 0, size=32, source=64, nth_read=1)
        with FaultInjector(memory, [plan], sink=None):
            assert memory.read(0, 32) == b"\xab" * 32
        assert memory.dump(64, 32) == b"\xab" * 32  # donor untouched

    def test_replay_restores_snapshot(self):
        memory = _memory()
        plan = FaultPlan("replay", 0, size=32, nth_read=1)
        with FaultInjector(memory, [plan], sink=None) as injector:
            injector.snapshot()
            memory.write(0, b"\xff" * 32)
            assert memory.read(0, 32) == b"\x00" * 32  # rolled back
        assert memory.dump(0, 32) == b"\x00" * 32

    def test_replay_rolls_back_every_touched_page(self):
        """The snapshot keeps only the pages touched so far; a page first
        written after it reads as zeros again after the replay."""
        size = 16 * PAGE_SIZE
        memory = MainMemory(MemoryConfig(size=size))
        memory.load_image(0, b"\x11" * (2 * PAGE_SIZE))
        memory.write(5 * PAGE_SIZE, b"\x22" * 32)
        before = memory.dump(0, size)
        plan = FaultPlan("replay", 0, size=32, nth_read=1)
        with FaultInjector(memory, [plan], sink=None) as injector:
            injector.snapshot()
            assert sorted(injector._snapshot) == [0, PAGE_SIZE, 5 * PAGE_SIZE]
            memory.write(0, b"\xff" * 32)
            memory.write(9 * PAGE_SIZE + 64, b"\xee" * 32)
            memory.write(12 * PAGE_SIZE - 16, b"\xdd" * 32)
            assert memory.read(0, 32) == b"\x11" * 32     # rolled back
        assert memory.dump(0, size) == before
        assert memory.dump(9 * PAGE_SIZE + 64, 32) == bytes(32)

    def test_replay_without_snapshot_is_an_error(self):
        memory = _memory()
        plan = FaultPlan("replay", 0, size=32, nth_read=1)
        with FaultInjector(memory, [plan], sink=None):
            with pytest.raises(RuntimeError, match="snapshot"):
                memory.read(0, 32)

    def test_glitch_is_transient(self):
        memory = _memory()
        plan = FaultPlan("glitch", 0, size=32, nth_read=1, bits=3, seed=11)
        with FaultInjector(memory, [plan], sink=None):
            garbled = memory.read(0, 32)
        assert garbled != b"\x00" * 32
        assert sum(bin(b).count("1") for b in garbled) == 3
        assert memory.dump(0, 32) == b"\x00" * 32  # the wires, not the chip
        # Same plan seed flips the same bits.
        memory2 = _memory()
        with FaultInjector(memory2, [plan], sink=None):
            assert memory2.read(0, 32) == garbled

    def test_injected_event_reaches_the_sink(self):
        memory = _memory()
        sink = CounterSink()
        plan = FaultPlan("spoof", 0, size=32, nth_read=1)
        with FaultInjector(memory, [plan], sink=sink):
            memory.read(0, 32)
        assert sink.counts["fault.injected"] == 1


# -- campaigns: the E19 conformance surface --------------------------------


class TestCampaigns:
    @pytest.mark.parametrize("label", campaign_labels())
    def test_fault_free_baseline_is_clean(self, label):
        result = run_campaign(label, None, quick=True)
        assert result.verdict == "clean"
        assert result.conforms
        assert result.injected == 0
        assert result.tampers == 0

    def test_known_replay_hole_stays_open(self):
        # E15's finding: tags without on-chip versions pass a stale MAC.
        result = run_campaign("integrity-stream-unversioned", "replay",
                              quick=True)
        assert result.verdict == "silent-corruption"
        assert result.conforms  # the engine never claimed replay detection

    def test_compress_replay_is_a_no_op(self):
        # Compressed code is read-only; replaying memory that never
        # changed serves the very bytes the audit expects.
        result = run_campaign("compress", "replay", quick=True)
        assert result.verdict == "missed"
        assert result.conforms

    def test_detection_emits_events(self):
        sink = CounterSink()
        result = run_campaign("integrity-stream", "spoof", quick=True,
                              sink=sink)
        assert result.verdict == "detected"
        assert result.tampers == 1
        assert sink.counts["fault.injected"] == 1
        assert sink.counts["fault.detected"] == 1
        assert "fault.silent" not in sink.counts

    def test_silent_corruption_emits_events(self):
        sink = CounterSink()
        result = run_campaign("stream", "spoof", quick=True, sink=sink)
        assert result.verdict == "silent-corruption"
        assert sink.counts["fault.injected"] == 1
        assert sink.counts["fault.silent"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            run_campaign("stream", "rowhammer", quick=True)

    @settings(max_examples=6, **_CAMPAIGN_SETTINGS)
    @given(
        label=st.sampled_from(DETECTORS),
        kind=st.sampled_from(FAULT_KINDS),
    )
    def test_integrity_engines_detect_every_fault(self, label, kind):
        result = run_campaign(label, kind, quick=True)
        assert result.expected_detect
        assert result.verdict == "detected"
        assert result.conforms
        assert result.injected == 1
        assert result.tampers >= 1

    def test_recon_windows_live_and_die_with_their_rig(self, monkeypatch):
        # Recon windows ride in the bounded pristine-rig cache: a
        # long-lived process cannot grow them without bound, and an
        # evicted label recomputes the same windows.
        monkeypatch.setattr(campaign_mod, "_PRISTINE_CACHE", OrderedDict())
        label = "addr-scramble-stream"   # recon finds a moved window
        first = run_campaign(label, "splice", seed=1, quick=True)
        bound = campaign_mod._PRISTINE_CACHE_MAX
        for seed in range(2, bound + 4):
            run_campaign("ds5002fp", None, seed=seed, quick=True)
        cache = campaign_mod._PRISTINE_CACHE
        assert len(cache) == bound
        assert all(entry.windows is not None for entry in cache.values())
        assert (label, 1) not in cache
        assert not hasattr(campaign_mod, "_RECON_CACHE")
        again = run_campaign(label, "splice", seed=1, quick=True)
        assert again.to_metrics() == first.to_metrics()

    @settings(max_examples=4, **_CAMPAIGN_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        kind=st.sampled_from((None,) + FAULT_KINDS),
    )
    def test_campaigns_are_pure_functions_of_the_seed(self, seed, kind):
        first = run_campaign("ds5002fp", kind, seed=seed, quick=True)
        second = run_campaign("ds5002fp", kind, seed=seed, quick=True)
        assert first.to_metrics() == second.to_metrics()


# -- matrix assembly -------------------------------------------------------


class TestDetectionMatrix:
    def _results(self):
        return [
            run_campaign("ds5002fp", None, quick=True),
            run_campaign("ds5002fp", "spoof", quick=True),
        ]

    def test_accepts_results_and_their_dict_form(self):
        results = self._results()
        from_objects = detection_matrix(results)
        from_dicts = detection_matrix([r.to_metrics() for r in results])
        assert from_objects == from_dicts
        assert from_objects["attack_kinds"] == list(FAULT_KINDS)
        entry = from_objects["engines"]["ds5002fp"]
        assert set(entry["attacks"]) == {"baseline", "spoof"}
        assert entry["attacks"]["baseline"]["verdict"] == "clean"

    def test_verdict_taxonomy(self):
        base = dict(label="x", engine_name="x", kind="spoof",
                    expected_detect=True, injected=1)
        assert CampaignResult(**base, detected=True,
                              corrupted=False).verdict == "detected"
        assert CampaignResult(**base, detected=False,
                              corrupted=True).verdict == "silent-corruption"
        assert CampaignResult(**base, detected=False,
                              corrupted=False).verdict == "missed"
        clean = dict(base, kind=None, expected_detect=False, injected=0)
        assert CampaignResult(**clean, detected=False,
                              corrupted=False).verdict == "clean"
        assert CampaignResult(**clean, detected=False,
                              corrupted=True).verdict == "broken"
