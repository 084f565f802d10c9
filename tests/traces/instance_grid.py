"""The workload-instance grid pinned in ``golden/instances.json``.

The fixture was written by this module's ``main()`` at commit b3a25be — the
last one with a ``workloads`` package beside ``repro.traces``, three
copies of the inter-arrival rescale and three record→spec loops — so it
judges the single implementations against all of their predecessors: every
scenario source type × cluster × offered load, through the materialized path
(``workloads()`` + ``scale_to_load``), the streamed path
(``streaming_sources()`` + a measured factor) and the ``rescale-load``
transform, plus the SWF reader / writer round trips.  Never regenerate it
from the current tree to make a test pass: a difference is a regression.
(``PYTHONPATH=src python -m tests.traces.instance_grid`` rewrites it — at a
reference commit only.  Since then only the import block and the two lines
of ``_measured_rescale`` have followed the names to their new home.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import HPC2N_CLUSTER, Workload, parse_swf, scale_to_load, write_swf
from repro.campaign import (
    CustomSource,
    GeneratorSource,
    Hpc2nLikeSource,
    LublinSource,
    SwfSource,
    TransformSource,
    WorkloadSource,
)
from repro.core.cluster import Cluster
from repro.core.job import JobSpec
from repro.traces import (
    WEEK_SECONDS,
    BootstrapResample,
    DowneyTraceSource,
    FilterJobs,
    Head,
    Hpc2nLikeTraceGenerator,
    JobSource,
    LublinTraceSource,
    LublinWorkloadGenerator,
    Perturb,
    RescaleLoad,
    ScaleInterarrival,
    TimeWindow,
    iter_swf_records,
    offered_load,
    open_trace_text,
    read_swf_header,
    rescale_to_load,
    swf_header,
)

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "instances.json"

CLUSTERS: Dict[str, Cluster] = {
    "16-nodes": Cluster(16, 4, 8.0),
    "128-nodes": Cluster(128, 4, 8.0),
    "hpc2n": HPC2N_CLUSTER,
}
LOADS: Tuple[Optional[float], ...] = (None, 0.3, 0.7)
SWF_SUFFIXES = (".swf", ".swf.gz")


def write_pin_swf(directory: pathlib.Path, suffix: str) -> pathlib.Path:
    """A two-week HPC2N-like log; every seventh record is unusable (no runtime)."""
    records = [
        dataclasses.replace(record, run_time=-1.0) if index % 7 == 3 else record
        for index, record in enumerate(
            Hpc2nLikeTraceGenerator(jobs_per_week=60).iter_records(2, seed=5)
        )
    ]
    path = directory / f"pin{suffix}"
    header = swf_header(computer="pin", max_nodes=120, max_procs=240, note="instance pin")
    write_swf(records, path, header=header)
    return path


#: ``custom`` cases built by the materializing generator entry points with the
#: parameters of a stream-backed case: their job digests must be that case's.
MATERIALIZED_TWINS = {"custom-lublin": "lublin", "custom-hpc2n-like": "hpc2n-like"}
SEEDS = (2010, 2011)


def _generated_lublin(cluster: Cluster) -> List[Workload]:
    return [LublinWorkloadGenerator(cluster).generate(40, seed=seed) for seed in SEEDS]


def _generated_hpc2n_like(cluster: Cluster) -> List[Workload]:
    generator = Hpc2nLikeTraceGenerator(cluster, jobs_per_week=50)
    return [generator.generate_workload(1, seed=seed) for seed in SEEDS]


def sources(directory: pathlib.Path) -> Dict[str, WorkloadSource]:
    """One entry per scenario source type (and per SWF spelling)."""
    swf, swf_gz = (str(write_pin_swf(directory, suffix)) for suffix in SWF_SUFFIXES)
    generators = {
        f"generator-{model}": GeneratorSource(
            model=model, instances=2, seed_base=7, options={"num_jobs": 40}
        )
        for model in ("downey", "diurnal-poisson", "lublin")
    }
    return {
        "lublin": LublinSource(num_traces=2, num_jobs=40, seed_base=SEEDS[0]),
        "hpc2n-like": Hpc2nLikeSource(weeks=2, jobs_per_week=50, seed_base=SEEDS[0]),
        "swf": SwfSource(path=swf),
        "swf-gz": SwfSource(path=swf_gz),
        "swf-segments": SwfSource(path=swf, segment_seconds=WEEK_SECONDS),
        "swf-gz-segments": SwfSource(path=swf_gz, segment_seconds=WEEK_SECONDS),
        **generators,
        "transform-buffering": TransformSource(
            source=DowneyTraceSource(num_jobs=60, seed=3).transformed(
                Perturb(runtime_factor=0.2, width_factor=0.1, seed=4),
                RescaleLoad(target_load=0.5),
                BootstrapResample(seed=2),
                Head(count=40),
            )
        ),
        "transform-streaming": TransformSource(
            source=LublinTraceSource(num_jobs=60, seed=11).transformed(
                TimeWindow(start=3600.0),
                ScaleInterarrival(factor=1.5),
                FilterJobs(max_tasks=12),
                Head(count=40),
            )
        ),
        "custom-lublin": CustomSource(factory=_generated_lublin, key="pin-lublin"),
        "custom-hpc2n-like": CustomSource(
            factory=_generated_hpc2n_like, key="pin-hpc2n-like"
        ),
    }


def jobs_digest(instances: Iterable[Iterable[JobSpec]]) -> str:
    """sha256 over every job's six fields, instance boundaries included."""
    digest = hashlib.sha256()
    for jobs in instances:
        digest.update(b"instance\n")
        for spec in jobs:
            fields = (
                spec.job_id, spec.submit_time, spec.num_tasks,
                spec.cpu_need, spec.mem_requirement, spec.execution_time,
            )
            digest.update(repr(fields).encode("ascii") + b"\n")
    return digest.hexdigest()


def materialized(
    source: WorkloadSource, cluster: Cluster, load: Optional[float]
) -> Dict[str, Any]:
    workloads = source.workloads(cluster)
    if load is not None:
        workloads = [scale_to_load(workload, load) for workload in workloads]
    return {
        "names": [workload.name for workload in workloads],
        "jobs": jobs_digest(workload.jobs for workload in workloads),
    }


def _measured_rescale(source: JobSource, cluster: Cluster, load: float) -> JobSource:
    """What the streaming executor runs for a ``load`` axis value."""
    measured = offered_load(source.jobs(cluster), cluster)
    return source.transformed(rescale_to_load(source.default_name(), measured, load)[0])


def streamed(
    source: WorkloadSource, cluster: Cluster, load: Optional[float]
) -> Optional[Dict[str, Any]]:
    streams: Optional[Sequence[JobSource]] = source.streaming_sources(cluster)
    if streams is None:
        return None
    entry = {"names": [stream.default_name() for stream in streams]}
    if load is None:
        entry["jobs"] = jobs_digest(stream.jobs(cluster) for stream in streams)
        return entry
    entry["jobs"] = jobs_digest(
        _measured_rescale(stream, cluster, load).jobs(cluster) for stream in streams
    )
    entry["rescale-load"] = jobs_digest(
        stream.transformed(RescaleLoad(target_load=load)).jobs(cluster)
        for stream in streams
    )
    return entry


def instance_grid(directory: pathlib.Path) -> Dict[str, Any]:
    return {
        case: {
            label: {
                str(load): {
                    "materialized": materialized(source, cluster, load),
                    "streamed": streamed(source, cluster, load),
                }
                for load in LOADS
            }
            for label, cluster in CLUSTERS.items()
        }
        for case, source in sources(directory).items()
    }


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def swf_round_trips(directory: pathlib.Path) -> Dict[str, Any]:
    """The four readers and the writer on the pinned log, per file spelling."""
    out: Dict[str, Any] = {}
    for suffix in SWF_SUFFIXES:
        path = write_pin_swf(directory, suffix)
        records = parse_swf(path)
        header = read_swf_header(path)
        rewritten = directory / f"rewritten{suffix}"
        write_swf(
            records, rewritten, header=[f"; {key}: {value}" for key, value in header.directives]
        )
        with open_trace_text(path) as original, open_trace_text(rewritten) as copy:
            out[suffix] = {
                "records": _text_digest(repr(records)),
                "iter_equals_parse": list(iter_swf_records(path)) == records,
                "header": _text_digest(repr(header)),
                "text": _text_digest(original.read()),
                "rewritten_text": _text_digest(copy.read()),
            }
    return out


def pinned() -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch)
        return {"instances": instance_grid(directory), "swf": swf_round_trips(directory)}


def main() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(pinned(), sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
