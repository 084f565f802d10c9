"""Trace persistence: the internal JSON format and SWF export.

SWF is the archive interchange format, but it cannot carry the DFRS
annotations (fractional CPU needs, per-task memory fractions) losslessly.
The internal JSON format stores exactly the fields of
:class:`~repro.core.job.JobSpec` plus the target cluster, so a preprocessed
or transformed trace can be saved once and replayed bit-identically::

    {
      "format": "repro-dfrs-trace-v1",
      "name": "downey-seed7+rescale-load",
      "cluster": {"nodes": 128, "cores_per_node": 4, "node_memory_gb": 8.0},
      "jobs": [
        {"job_id": 0, "submit_time": 12.5, "num_tasks": 4,
         "cpu_need": 1.0, "mem_requirement": 0.1, "execution_time": 360.0},
        ...
      ]
    }

SWF export (``workload_to_swf_records``) is lossy by construction and
documented as such: tasks map to processors, the memory fraction maps to KB
per processor against the cluster's node memory, and CPU needs are dropped
(re-importing applies the paper's preprocessing afresh).  ``.gz`` suffixes
compress transparently in both directions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, List, Mapping, Optional, Union

from ..core.cluster import PAPER_CLUSTER, Cluster
from ..core.job import JobSpec
from ..exceptions import TraceFormatError
from .model import Workload
from .swf import SwfRecord, open_trace_text, swf_header, write_swf

__all__ = [
    "TRACE_JSON_FORMAT",
    "write_trace_json",
    "load_trace_json",
    "trace_json_payload_to_workload",
    "workload_to_swf_records",
    "write_workload_swf",
]

TRACE_JSON_FORMAT = "repro-dfrs-trace-v1"

_JOB_FIELDS = (
    "job_id",
    "submit_time",
    "num_tasks",
    "cpu_need",
    "mem_requirement",
    "execution_time",
)


def _read_text(path: Path) -> str:
    with open_trace_text(path, "rt") as handle:
        return handle.read()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_trace_text(path, "wt") as handle:
        handle.write(text)


def write_trace_json(workload: Workload, destination: Union[str, Path]) -> Path:
    """Write a workload to the internal JSON trace format."""
    path = Path(destination)
    payload = {
        "format": TRACE_JSON_FORMAT,
        "name": workload.name,
        "cluster": {
            "nodes": workload.cluster.num_nodes,
            "cores_per_node": workload.cluster.cores_per_node,
            "node_memory_gb": workload.cluster.node_memory_gb,
        },
        "jobs": [
            {field: getattr(spec, field) for field in _JOB_FIELDS}
            for spec in workload.jobs
        ],
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_trace_json(
    source: Union[str, Path], *, cluster: Optional[Cluster] = None
) -> Workload:
    """Load a workload from the internal JSON trace format.

    With ``cluster`` given, the stored cluster is overridden (the job specs
    themselves are cluster-independent fractions).
    """
    path = Path(source)
    if not path.exists():
        raise TraceFormatError(f"trace file not found: {path}")
    try:
        payload = json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise TraceFormatError(f"cannot read JSON trace {path}: {error}") from None
    return trace_json_payload_to_workload(
        payload, cluster=cluster, origin=str(path), name_fallback=path.stem
    )


def trace_json_payload_to_workload(
    payload: Any,
    *,
    cluster: Optional[Cluster] = None,
    origin: str = "<payload>",
    name_fallback: str = "trace",
) -> Workload:
    """Build a workload from an already-parsed internal-format payload.

    The parsing half of :func:`load_trace_json`, for callers (the CLI's
    format sniffing) that already hold the decoded JSON and should not read
    the file a second time.
    """
    if not isinstance(payload, Mapping) or payload.get("format") != TRACE_JSON_FORMAT:
        raise TraceFormatError(
            f"{origin} is not a {TRACE_JSON_FORMAT!r} trace "
            "(missing or unknown 'format' field)"
        )
    cluster_spec = payload.get("cluster", {})
    stored_cluster = Cluster(
        num_nodes=int(cluster_spec.get("nodes", PAPER_CLUSTER.num_nodes)),
        cores_per_node=int(cluster_spec.get("cores_per_node", PAPER_CLUSTER.cores_per_node)),
        node_memory_gb=float(cluster_spec.get("node_memory_gb", PAPER_CLUSTER.node_memory_gb)),
    )
    jobs: List[JobSpec] = []
    for entry in payload.get("jobs", []):
        try:
            jobs.append(JobSpec(**{field: entry[field] for field in _JOB_FIELDS}))
        except (KeyError, TypeError) as error:
            raise TraceFormatError(
                f"{origin}: malformed job entry {entry!r}: {error}"
            ) from None
    return Workload(
        str(payload.get("name", name_fallback)),
        cluster if cluster is not None else stored_cluster,
        jobs,
    )


def workload_to_swf_records(workload: Workload) -> List[SwfRecord]:
    """Convert a workload to SWF records (lossy: CPU needs are dropped).

    Tasks map to (requested and allocated) processors; the per-task memory
    fraction maps to KB per processor against the workload cluster's node
    memory, which round-trips through the §IV-C preprocessing's memory rule.
    """
    node_kb = workload.cluster.node_memory_gb * 1024 * 1024
    records: List[SwfRecord] = []
    for spec in workload.jobs:
        memory_kb = round(spec.mem_requirement * node_kb, 1)
        records.append(
            SwfRecord(
                job_number=spec.job_id + 1,
                submit_time=spec.submit_time,
                wait_time=0.0,
                run_time=spec.execution_time,
                allocated_processors=spec.num_tasks,
                average_cpu_time=spec.execution_time,
                used_memory_kb=memory_kb,
                requested_processors=spec.num_tasks,
                requested_time=spec.execution_time,
                requested_memory_kb=memory_kb,
                status=1,
            )
        )
    return records


def write_workload_swf(workload: Workload, destination: Union[str, Path]) -> Path:
    """Write a workload as an SWF file (``.gz`` compresses transparently)."""
    path = Path(destination)
    header = swf_header(
        computer=workload.name,
        max_nodes=workload.cluster.num_nodes,
        max_procs=workload.cluster.num_nodes * workload.cluster.cores_per_node,
        note="exported by repro-dfrs trace (DFRS CPU-need annotations are not preserved)",
    )
    write_swf(workload_to_swf_records(workload), path, header=header)
    return path
