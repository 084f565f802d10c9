"""Workload generation and trace handling (Lublin model, SWF, HPC2N)."""

from .characterization import (
    WorkloadCharacterization,
    characterization_table,
    characterize,
    characterize_stream,
    size_histogram,
)
from .cpu import CpuNeedModel
from .hpc2n import (
    HPC2N_CLUSTER,
    WEEK_SECONDS,
    Hpc2nLikeTraceGenerator,
    Hpc2nPreprocessingOptions,
    record_to_jobspec,
    swf_to_dfrs_jobs,
)
from .lublin import LublinModelParameters, LublinWorkloadGenerator
from .memory import MemoryRequirementModel
from .model import Workload, offered_load
from .scaling import DEFAULT_LOAD_LEVELS, load_sweep, scale_to_load
from .swf import (
    SwfHeader,
    SwfRecord,
    iter_swf_records,
    open_trace_text,
    parse_swf,
    parse_swf_lines,
    parse_swf_with_header,
    read_swf_header,
    swf_header,
    write_swf,
)

__all__ = [
    "WorkloadCharacterization",
    "characterization_table",
    "characterize",
    "characterize_stream",
    "size_histogram",
    "CpuNeedModel",
    "HPC2N_CLUSTER",
    "WEEK_SECONDS",
    "Hpc2nLikeTraceGenerator",
    "Hpc2nPreprocessingOptions",
    "record_to_jobspec",
    "swf_to_dfrs_jobs",
    "LublinModelParameters",
    "LublinWorkloadGenerator",
    "MemoryRequirementModel",
    "Workload",
    "offered_load",
    "DEFAULT_LOAD_LEVELS",
    "load_sweep",
    "scale_to_load",
    "SwfHeader",
    "SwfRecord",
    "iter_swf_records",
    "open_trace_text",
    "parse_swf",
    "parse_swf_lines",
    "parse_swf_with_header",
    "read_swf_header",
    "swf_header",
    "write_swf",
]
