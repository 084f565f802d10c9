"""HPC2N real-world workload: preprocessing rules and a synthetic stand-in.

The paper's real-world experiments use the HPC2N trace from the Parallel
Workloads Archive: 182 weeks of jobs from a 120-node dual-core Linux cluster
with 2 GB of memory per node.  Two pieces are implemented here:

* :func:`swf_to_dfrs_jobs` applies the paper's exact preprocessing (§IV-C) to
  any SWF record list — in particular to a genuine HPC2N file if one is
  available locally:

  - per-processor memory = ``max(requested, used) / 2 GB``, floored at 10 %;
    ~1 % of jobs report no memory at all and are assigned 10 %;
  - jobs with an even processor count and per-processor memory below 50 %
    become ``processors / 2`` dual-threaded tasks with a 100 % CPU need and a
    doubled memory requirement;
  - all other jobs keep one task per processor with a 50 % CPU need (one of
    the two cores).

* :class:`Hpc2nLikeTraceGenerator` produces a *synthetic HPC2N-like* SWF
  trace with the characteristics the paper relies on (many short serial
  jobs, nearly complete memory information, 120 dual-core nodes), for use
  when the real log cannot be redistributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import WorkloadError
from .model import Workload
from .swf import SwfRecord

__all__ = [
    "HPC2N_CLUSTER",
    "Hpc2nPreprocessingOptions",
    "record_to_jobspec",
    "records_to_jobspecs",
    "swf_to_dfrs_jobs",
    "Hpc2nLikeTraceGenerator",
    "WEEK_SECONDS",
]

#: The HPC2N cluster as described in the paper: 120 dual-core nodes, 2 GB.
HPC2N_CLUSTER = Cluster(num_nodes=120, cores_per_node=2, node_memory_gb=2.0)

#: One week, used to split the long trace into independent instances.
WEEK_SECONDS = 7 * 24 * 3600.0


@dataclass(frozen=True)
class Hpc2nPreprocessingOptions:
    """Knobs of the §IV-C preprocessing (defaults reproduce the paper)."""

    node_memory_kb: float = 2.0 * 1024 * 1024
    minimum_memory_fraction: float = 0.10
    #: Per-processor memory threshold below which an even-processor job is
    #: converted to multi-threaded dual-core tasks.
    pairing_threshold: float = 0.50
    #: CPU need of a task occupying a single core of a dual-core node.
    single_core_need: float = 0.50


def record_to_jobspec(
    record: SwfRecord,
    cluster: Cluster = HPC2N_CLUSTER,
    *,
    job_id: int,
    options: Optional[Hpc2nPreprocessingOptions] = None,
) -> Optional[JobSpec]:
    """Convert a single SWF record with the paper's §IV-C rules.

    Returns ``None`` for unusable records (no runtime or processor count).
    This is the per-record kernel of :func:`records_to_jobspecs`.
    """
    opts = options or Hpc2nPreprocessingOptions()
    if not record.is_usable():
        return None
    processors = record.processors
    per_proc_memory = _per_processor_memory(record, opts)
    if processors % 2 == 0 and per_proc_memory < opts.pairing_threshold:
        num_tasks = processors // 2
        cpu_need = 1.0
        memory = min(1.0, 2.0 * per_proc_memory)
    else:
        num_tasks = processors
        cpu_need = opts.single_core_need
        memory = min(1.0, per_proc_memory)
    num_tasks = min(num_tasks, cluster.num_nodes)
    return JobSpec(
        job_id=job_id,
        submit_time=float(record.submit_time),
        num_tasks=int(num_tasks),
        cpu_need=cpu_need,
        mem_requirement=memory,
        execution_time=float(record.run_time),
    )


def records_to_jobspecs(
    records: Iterable[SwfRecord],
    cluster: Cluster = HPC2N_CLUSTER,
    *,
    options: Optional[Hpc2nPreprocessingOptions] = None,
) -> Iterator[JobSpec]:
    """Stream the usable records as specs, job ids renumbered from zero.

    The one record→spec loop: :func:`swf_to_dfrs_jobs` collects it, and the
    ``hpc2n-like`` and ``swf`` trace sources stream it, so arbitrarily long
    traces convert in bounded memory.
    """
    opts = options or Hpc2nPreprocessingOptions()
    job_id = 0
    for record in records:
        spec = record_to_jobspec(record, cluster, job_id=job_id, options=opts)
        if spec is not None:
            yield spec
            job_id += 1


def swf_to_dfrs_jobs(
    records: Iterable[SwfRecord],
    cluster: Cluster = HPC2N_CLUSTER,
    *,
    options: Optional[Hpc2nPreprocessingOptions] = None,
    name: str = "hpc2n",
) -> Workload:
    """Convert SWF records to a DFRS workload using the paper's rules."""
    jobs = list(records_to_jobspecs(records, cluster, options=options))
    if not jobs:
        raise WorkloadError("no usable jobs found in the SWF records")
    return Workload(name, cluster, jobs)


def _per_processor_memory(
    record: SwfRecord, opts: Hpc2nPreprocessingOptions
) -> float:
    """Per-processor memory fraction, floored at the paper's 10 % minimum."""
    observed_kb = max(record.used_memory_kb, record.requested_memory_kb)
    if observed_kb <= 0:
        return opts.minimum_memory_fraction
    fraction = observed_kb / opts.node_memory_kb
    return min(1.0, max(opts.minimum_memory_fraction, fraction))


class Hpc2nLikeTraceGenerator:
    """Synthetic stand-in for the HPC2N SWF log.

    The generated trace mimics the properties the paper's discussion depends
    on rather than the exact distributions of the original log:

    * a large majority of short, serial (single-processor) jobs — the trait
      the paper invokes to explain why greedy algorithms do comparatively
      well on HPC2N;
    * a minority of parallel jobs with power-of-two processor counts up to
      the full machine;
    * memory information present for ~99 % of jobs, expressed in KB per
      processor against 2 GB nodes;
    * Poisson-like arrivals tuned to a configurable weekly job count.
    """

    def __init__(
        self,
        cluster: Cluster = HPC2N_CLUSTER,
        *,
        serial_fraction: float = 0.75,
        short_job_fraction: float = 0.60,
        missing_memory_fraction: float = 0.01,
        jobs_per_week: int = 1100,
    ) -> None:
        if not (0.0 <= serial_fraction <= 1.0):
            raise WorkloadError("serial_fraction must be in [0, 1]")
        if not (0.0 <= short_job_fraction <= 1.0):
            raise WorkloadError("short_job_fraction must be in [0, 1]")
        if not (0.0 <= missing_memory_fraction <= 1.0):
            raise WorkloadError("missing_memory_fraction must be in [0, 1]")
        if jobs_per_week < 1:
            raise WorkloadError("jobs_per_week must be >= 1")
        self.cluster = cluster
        self.serial_fraction = serial_fraction
        self.short_job_fraction = short_job_fraction
        self.missing_memory_fraction = missing_memory_fraction
        self.jobs_per_week = jobs_per_week

    @property
    def total_processors(self) -> int:
        return self.cluster.num_nodes * self.cluster.cores_per_node

    def _sample_processors(self, rng: np.random.Generator) -> int:
        if rng.random() < self.serial_fraction:
            return 1
        max_log = int(math.log2(self.total_processors))
        log_size = rng.integers(1, max_log + 1)
        processors = int(2 ** log_size)
        if rng.random() < 0.2:
            # A minority of odd, non-power-of-two sizes.
            processors = max(1, processors - int(rng.integers(1, 4)))
        return min(processors, self.total_processors)

    def _sample_runtime(self, rng: np.random.Generator) -> float:
        if rng.random() < self.short_job_fraction:
            # Short jobs: seconds to a few minutes (many fail right away).
            return float(max(1.0, rng.lognormal(mean=3.0, sigma=1.2)))
        # Long jobs: tens of minutes to a couple of days.
        return float(min(2 * 24 * 3600.0, rng.lognormal(mean=9.0, sigma=1.0)))

    def _sample_memory_kb(self, rng: np.random.Generator) -> float:
        if rng.random() < self.missing_memory_fraction:
            return -1.0
        node_kb = self.cluster.node_memory_gb * 1024 * 1024
        # Most jobs use a small share of the node memory; a few use most of it.
        fraction = min(1.0, max(0.02, rng.beta(1.2, 6.0)))
        return float(fraction * node_kb)

    def iter_records(
        self, num_weeks: int = 1, *, seed: int = 0
    ) -> Iterator[SwfRecord]:
        """Stream SWF records spanning ``num_weeks`` weeks one at a time.

        This is the bounded-memory intake used by the streaming trace
        sources of :mod:`repro.traces`.
        """
        if num_weeks < 1:
            raise WorkloadError(f"num_weeks must be >= 1, got {num_weeks}")
        rng = np.random.default_rng(seed)
        total_jobs = self.jobs_per_week * num_weeks
        mean_gap = (num_weeks * WEEK_SECONDS) / total_jobs
        current_time = 0.0
        for job_number in range(1, total_jobs + 1):
            current_time += float(rng.exponential(mean_gap))
            processors = self._sample_processors(rng)
            runtime = self._sample_runtime(rng)
            memory_kb = self._sample_memory_kb(rng)
            yield SwfRecord(
                job_number=job_number,
                submit_time=round(current_time, 1),
                wait_time=0.0,
                run_time=round(runtime, 1),
                allocated_processors=processors,
                average_cpu_time=round(runtime, 1),
                used_memory_kb=round(memory_kb, 1),
                requested_processors=processors,
                requested_time=round(runtime * 1.5, 1),
                requested_memory_kb=round(memory_kb, 1),
                status=1,
            )

    def generate_workload(
        self, num_weeks: int = 1, *, seed: int = 0, name: str = "hpc2n-like"
    ) -> Workload:
        """Generate records and convert them with the paper's preprocessing."""
        records = self.iter_records(num_weeks, seed=seed)
        return swf_to_dfrs_jobs(records, self.cluster, name=f"{name}-seed{seed}")
