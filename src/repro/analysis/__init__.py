"""Analysis layer: overhead grids, security scoring and report tables."""

from .overhead import (EngineFactory, OverheadResult, measure_overhead,
                       overhead_grid, price_engines)
from .randomness import (
    FipsResult,
    fips_140_1,
    long_run_test,
    monobit_test,
    poker_test,
    runs_test,
)
from .plot import ascii_plot
from .report import format_gates, format_percent, format_table
from .security import SecurityScore, pad_reuse_leak, score_engine_ciphertext

__all__ = [
    "EngineFactory", "OverheadResult", "measure_overhead", "overhead_grid",
    "price_engines",
    "FipsResult", "fips_140_1", "long_run_test", "monobit_test",
    "poker_test", "runs_test",
    "ascii_plot",
    "format_gates", "format_percent", "format_table",
    "SecurityScore", "pad_reuse_leak", "score_engine_ciphertext",
]
