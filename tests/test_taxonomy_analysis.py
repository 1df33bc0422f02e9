"""IBM taxonomy ratings and the analysis layer (overhead grids, security
scoring, report tables)."""

import pytest

from repro.analysis import (
    format_gates,
    format_percent,
    format_table,
    measure_overhead,
    overhead_grid,
    score_engine_ciphertext,
)
from repro.attacks import (
    CLASS_CAPABILITIES,
    ENGINE_RATINGS,
    AttackerClass,
    Capability,
    rate_engine,
)
from repro.core import BestEngine, NullEngine, XomAesEngine
from repro.sim import CacheConfig
from repro.traces import iter_sequential_code, synthetic_code_image

KEY = b"0123456789abcdef"


class TestTaxonomy:
    def test_capabilities_are_cumulative(self):
        c1 = CLASS_CAPABILITIES[AttackerClass.CLASS_I]
        c2 = CLASS_CAPABILITIES[AttackerClass.CLASS_II]
        c3 = CLASS_CAPABILITIES[AttackerClass.CLASS_III]
        assert c1 < c2 < c3

    def test_plaintext_broken_by_everyone(self):
        rating = rate_engine("plaintext")
        assert rating.highest_class_withstood == 0

    def test_ds5002fp_falls_to_class_ii(self):
        """§2.3: 'only attacks and adversaries classified in class II are
        taken into account' — and the DS5002FP fails exactly there."""
        rating = rate_engine("ds5002fp")
        assert rating.withstands(AttackerClass.CLASS_I)
        assert not rating.withstands(AttackerClass.CLASS_II)
        assert rating.highest_class_withstood == 1

    def test_best_falls_to_class_i(self):
        rating = rate_engine("best-1979")
        assert rating.highest_class_withstood == 0

    def test_ds5240_survives_class_ii(self):
        rating = rate_engine("ds5240")
        assert rating.withstands(AttackerClass.CLASS_II)
        assert not rating.withstands(AttackerClass.CLASS_III)

    def test_aes_engines_survive_the_model(self):
        for name in ("xom-aes", "aegis-aes-cbc", "stream-ctr"):
            assert rate_engine(name).highest_class_withstood >= 2

    def test_all_builtin_engines_rated(self):
        assert len(ENGINE_RATINGS) >= 11

    def test_unknown_engine(self):
        with pytest.raises(KeyError):
            rate_engine("quantum-engine")

    def test_describe_text(self):
        text = AttackerClass.CLASS_II.describe()
        assert "insider" in text


class TestOverheadAnalysis:
    def test_measure_overhead_null_is_zero(self):
        trace = list(iter_sequential_code(300))
        result = measure_overhead(lambda: NullEngine(), trace, "seq")
        assert result.overhead == pytest.approx(0.0)
        assert "seq" in str(result)

    def test_grid_shape(self):
        engines = {
            "plain": lambda: NullEngine(),
            "xom": lambda: XomAesEngine(KEY, functional=False),
        }
        workloads = {
            "seq": list(iter_sequential_code(300)),
            "seq2": list(iter_sequential_code(300, base=1 << 16)),
        }
        grid = overhead_grid(
            engines, workloads,
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        )
        assert len(grid) == 4
        names = {(r.engine_name, r.workload) for r in grid}
        assert ("xom", "seq") in names

    def test_overhead_percent(self):
        trace = list(iter_sequential_code(300))
        result = measure_overhead(
            lambda: XomAesEngine(KEY, functional=False), trace,
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        )
        assert result.overhead_percent == pytest.approx(100 * result.overhead)


class TestSecurityScoring:
    def test_best_scores_worse_than_xom(self):
        image = (b"\x00" * 64 + b"\xFF" * 64) * 64  # repetitive
        best = score_engine_ciphertext(BestEngine(KEY, num_alphabets=4), image)
        xom = score_engine_ciphertext(XomAesEngine(KEY), image)
        assert best.block_collision_rate > xom.block_collision_rate
        assert best.entropy_bits_per_byte < xom.entropy_bits_per_byte
        assert best.leak_count >= xom.leak_count

    def test_xom_identical_line_leak(self):
        """Deterministic engines re-encrypt identical lines identically."""
        image = synthetic_code_image(size=4096)
        xom = score_engine_ciphertext(XomAesEngine(KEY), image)
        assert xom.identical_line_leak

    def test_stream_engine_hides_rewrites(self):
        from repro.core import StreamCipherEngine
        image = synthetic_code_image(size=4096)
        score = score_engine_ciphertext(
            StreamCipherEngine(KEY, line_size=32), image
        )
        assert not score.identical_line_leak


class TestReportFormatting:
    def test_format_percent(self):
        assert format_percent(0.253) == "+25.3%"
        assert format_percent(-0.1) == "-10.0%"
        assert format_percent(0.5, signed=False) == "50.0%"

    def test_format_gates(self):
        assert format_gates(500) == "500 gates"
        assert format_gates(312_345) == "312k gates"
        assert format_gates(1_500_000) == "1.50M gates"

    def test_format_table_alignment(self):
        table = format_table(
            ["engine", "overhead"],
            [["xom", "+26%"], ["aegis-aes-cbc", "+60%"]],
            title="Survey",
        )
        lines = table.splitlines()
        assert lines[0] == "Survey"
        assert "engine" in lines[2]
        assert all("aegis" in line for line in lines if "+60%" in line)
