"""Workload substrate: access-trace records, synthetic generators (one
lazy form each) and the named workload suite the experiments share."""

from .generator import (
    data_stream_chunks,
    dma_burst_chunks,
    iter_branchy_code,
    iter_data_stream,
    iter_mixed_workload,
    iter_multi_tenant,
    iter_phased_program,
    iter_pointer_chase,
    iter_random_data,
    iter_sequential_code,
    iter_write_burst,
)
from .io import (
    BTRC_MAGIC,
    TraceFormatError,
    iter_trace,
    iter_trace_bin,
    save_trace,
    save_trace_bin,
)
from .stream import DEFAULT_CHUNK_SIZE, TraceStream, chunked
from .trace import Access, AccessKind, Trace, trace_stats
from .workloads import (
    LONG_HORIZON_NAMES,
    MCU_KERNELS,
    STREAM_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    events_to_trace,
    iter_workload,
    make_workload,
    mcu_workload,
    standard_suite,
    stream_workload,
    synthetic_code_image,
    trace_to_events,
)

__all__ = [
    "iter_branchy_code", "iter_data_stream", "iter_mixed_workload",
    "iter_pointer_chase", "iter_random_data", "iter_sequential_code",
    "iter_write_burst", "iter_phased_program", "iter_multi_tenant",
    "data_stream_chunks", "dma_burst_chunks",
    "Access", "AccessKind", "Trace", "trace_stats",
    "TraceStream", "chunked", "DEFAULT_CHUNK_SIZE",
    "TraceFormatError", "save_trace", "iter_trace",
    "save_trace_bin", "iter_trace_bin", "BTRC_MAGIC",
    "MCU_KERNELS", "WORKLOAD_NAMES", "LONG_HORIZON_NAMES",
    "STREAM_WORKLOAD_NAMES", "events_to_trace", "trace_to_events",
    "make_workload", "iter_workload", "stream_workload", "mcu_workload",
    "standard_suite", "synthetic_code_image",
]
