"""Hardware simulation substrate: cache, bus, external memory, pipelined
cipher-unit timing, area estimation and the full-system composer."""

from .area import GATES, AreaEstimate, combine, sram_gates
from .bus import Bus, BusTransaction
from .energy import DEFAULT_ENERGY, EnergyModel, EnergyReport, estimate_run
from .hierarchy import EDU_L1_L2, EDU_L2_MEMORY, TwoLevelSystem
from .cache import Cache, CacheConfig, WritePolicy
from .memory import MainMemory, MemoryConfig
from .pipeline import (
    AEGIS_AES_PIPE,
    AES_ITERATIVE,
    BYTE_SUBST_UNIT,
    DES_ITERATIVE,
    KEYSTREAM_UNIT,
    TDES_ITERATIVE,
    TDES_PIPE,
    XOM_AES_PIPE,
    PipelinedUnit,
)
from .streaming import StreamExecutor
from .system import SecureSystem, SimReport, run_trace

__all__ = [
    "GATES", "AreaEstimate", "combine", "sram_gates",
    "Bus", "BusTransaction",
    "DEFAULT_ENERGY", "EnergyModel", "EnergyReport", "estimate_run",
    "EDU_L1_L2", "EDU_L2_MEMORY", "TwoLevelSystem",
    "Cache", "CacheConfig", "WritePolicy",
    "MainMemory", "MemoryConfig",
    "PipelinedUnit", "XOM_AES_PIPE", "AEGIS_AES_PIPE", "TDES_PIPE",
    "TDES_ITERATIVE", "DES_ITERATIVE", "AES_ITERATIVE", "KEYSTREAM_UNIT",
    "BYTE_SUBST_UNIT",
    "SecureSystem", "SimReport", "run_trace",
    "StreamExecutor",
]
