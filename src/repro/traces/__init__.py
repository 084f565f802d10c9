"""Workloads: generators, trace intake, streaming sources, and transforms.

This package is the workload seam of the reproduction — every generator, the
SWF / HPC2N intake and the offered-load rescale exist once, here:

* :mod:`~repro.traces.model` — :class:`Workload` (a named, materialized job
  list for one cluster) and the paper's :func:`offered_load` (§IV-C);
* :mod:`~repro.traces.lublin`, :mod:`~repro.traces.cpu`,
  :mod:`~repro.traces.memory` — the Lublin–Feitelson model with the paper's
  CPU-need and memory-requirement annotations;
* :mod:`~repro.traces.swf`, :mod:`~repro.traces.hpc2n` — the Standard
  Workload Format reader / writer (gzip-aware), the HPC2N preprocessing
  rules and the synthetic HPC2N-like log;
* :mod:`~repro.traces.source` — the :class:`JobSource` streaming protocol
  (arrival-ordered, bounded-memory iterators of job specs with a canonical
  ``to_dict``/``from_dict`` spec form) plus its adapters: Lublin,
  HPC2N-like, SWF files, internal JSON traces, in-memory workloads,
  arbitrary callables, and sequential splicing — and
  :func:`load_trace_source`, which resolves a trace path for the CLIs;
* :mod:`~repro.traces.generators` — synthetic models beyond the paper:
  a Feitelson/Downey-style log-uniform runtime + parallelism model
  (``"downey"``) and a diurnal/bursty Markov-modulated Poisson arrival
  process (``"diurnal-poisson"``);
* :mod:`~repro.traces.transforms` — composable, spec-expressible trace
  surgery (time-window slice, load rescale, seeded perturbation, filters,
  head, bootstrap resample) chained over any source via
  :class:`TransformedSource`, and :func:`scale_to_load`;
* :mod:`~repro.traces.io` — the internal JSON trace format and (lossy)
  SWF export;
* :mod:`~repro.traces.characterization` — the workload profile of the
  paper's motivation, computed in one bounded-memory streaming pass.

Sources plug into the campaign layer through the ``generator`` and
``transform`` scenario source types (:mod:`repro.campaign.scenario`), into
the CLI through ``repro-dfrs trace``, and into the engine through
:meth:`repro.core.engine.Simulator.run_stream`, which admits jobs lazily so
peak resident state is O(active jobs) even on million-job traces.
"""

from .characterization import (
    WorkloadCharacterization,
    characterization_table,
    characterize_stream,
)
from .cpu import CpuNeedModel
from .generators import DiurnalPoissonTraceSource, DowneyTraceSource
from .hpc2n import (
    HPC2N_CLUSTER,
    WEEK_SECONDS,
    Hpc2nLikeTraceGenerator,
    Hpc2nPreprocessingOptions,
    record_to_jobspec,
    swf_to_dfrs_jobs,
)
from .io import (
    TRACE_JSON_FORMAT,
    load_trace_json,
    trace_json_payload_to_workload,
    workload_to_swf_records,
    write_trace_json,
    write_workload_swf,
)
from .lublin import LublinModelParameters, LublinWorkloadGenerator
from .memory import MemoryRequirementModel
from .model import Workload, offered_load
from .source import (
    CallableTraceSource,
    ConcatTraceSource,
    Hpc2nLikeTraceSource,
    JobSource,
    JsonTraceSource,
    LublinTraceSource,
    SwfTraceSource,
    WorkloadTraceSource,
    available_trace_sources,
    load_trace_source,
    register_trace_source,
    trace_source_from_dict,
)
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
from .transforms import (
    BootstrapResample,
    FilterJobs,
    Head,
    Perturb,
    PredicateFilter,
    RescaleLoad,
    ScaleInterarrival,
    TimeWindow,
    TraceTransform,
    TransformedSource,
    available_transforms,
    register_transform,
    rescale_to_load,
    scale_to_load,
    transform_from_dict,
)

__all__ = [
    "Workload",
    "offered_load",
    "LublinModelParameters",
    "LublinWorkloadGenerator",
    "CpuNeedModel",
    "MemoryRequirementModel",
    "HPC2N_CLUSTER",
    "WEEK_SECONDS",
    "Hpc2nLikeTraceGenerator",
    "Hpc2nPreprocessingOptions",
    "record_to_jobspec",
    "swf_to_dfrs_jobs",
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
    "WorkloadCharacterization",
    "characterization_table",
    "characterize_stream",
    "JobSource",
    "LublinTraceSource",
    "Hpc2nLikeTraceSource",
    "SwfTraceSource",
    "JsonTraceSource",
    "WorkloadTraceSource",
    "CallableTraceSource",
    "ConcatTraceSource",
    "register_trace_source",
    "trace_source_from_dict",
    "load_trace_source",
    "available_trace_sources",
    "DowneyTraceSource",
    "DiurnalPoissonTraceSource",
    "TraceTransform",
    "TimeWindow",
    "ScaleInterarrival",
    "rescale_to_load",
    "scale_to_load",
    "RescaleLoad",
    "Perturb",
    "FilterJobs",
    "PredicateFilter",
    "Head",
    "BootstrapResample",
    "TransformedSource",
    "register_transform",
    "transform_from_dict",
    "available_transforms",
    "TRACE_JSON_FORMAT",
    "write_trace_json",
    "load_trace_json",
    "trace_json_payload_to_workload",
    "workload_to_swf_records",
    "write_workload_swf",
]
