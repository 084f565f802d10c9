"""Lublin–Feitelson synthetic workload model (JPDC 2003; paper §IV-C).

The model generates *rigid* parallel jobs with three correlated attributes:

* **size** (number of tasks): a fixed probability of serial jobs, a strong
  bias towards powers of two, and a two-stage log-uniform distribution of
  ``log2(size)``;
* **runtime**: a hyper-gamma distribution (mixture of two gamma
  distributions) of the *log* runtime, whose mixing probability depends
  linearly on the job size so that larger jobs tend to run longer;
* **inter-arrival times**: log-gamma distributed gaps modulated by a daily
  cycle (arrivals are more likely during working hours).

The default constants below are the published values fitted by Lublin and
Feitelson on several production traces.  For a 128-node cluster and 1,000
jobs the generated submission span is on the order of 4–6 days, matching the
figure quoted in the paper.

This is a faithful re-implementation in spirit; the original C program
(``lublin99.c``) has a few additional refinements (separate interactive/batch
classes, weekend modelling) that do not affect the scheduling comparison and
are left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import ConfigurationError
from .cpu import CpuNeedModel
from .memory import MemoryRequirementModel
from .model import Workload

__all__ = ["LublinModelParameters", "LublinWorkloadGenerator"]


@dataclass(frozen=True)
class LublinModelParameters:
    """Published constants of the Lublin–Feitelson model."""

    # --- job size -----------------------------------------------------------
    #: Probability that a job is serial (one task).
    serial_probability: float = 0.244
    #: Probability that a parallel job size is an exact power of two.
    power_of_two_probability: float = 0.576
    #: Lower bound of log2(size) for parallel jobs.
    uniform_low: float = 0.8
    #: Breakpoint of the two-stage uniform distribution of log2(size).
    uniform_med: float = 4.5
    #: Probability of drawing from the low segment of the two-stage uniform.
    uniform_prob: float = 0.86

    # --- runtime (log-seconds, hyper-gamma) ----------------------------------
    gamma1_shape: float = 4.2
    gamma1_scale: float = 0.94
    gamma2_shape: float = 312.0
    gamma2_scale: float = 0.03
    #: Mixing probability p = clamp(pa * size + pb).
    mix_slope: float = -0.0054
    mix_intercept: float = 0.78

    # --- inter-arrival times (log-seconds, gamma) ----------------------------
    #: Shape of the log-gamma inter-arrival distribution.  The original model
    #: uses two job classes with separate arrival processes; this single-class
    #: simplification is calibrated so that a 1,000-job trace on 128 nodes
    #: spans roughly 4-6 days, the figure quoted in the paper (§IV-C).
    arrival_shape: float = 8.72
    arrival_scale: float = 0.4871
    #: Relative arrival intensity of the quietest hour vs. the busiest hour.
    daily_cycle_depth: float = 0.5
    #: Hour of peak submission activity.
    daily_cycle_peak_hour: float = 14.0

    #: Bounds on generated runtimes (seconds).
    min_runtime: float = 1.0
    max_runtime: float = 7 * 24 * 3600.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.serial_probability <= 1.0):
            raise ConfigurationError("serial_probability must be in [0, 1]")
        if not (0.0 <= self.power_of_two_probability <= 1.0):
            raise ConfigurationError("power_of_two_probability must be in [0, 1]")
        if not (0.0 <= self.uniform_prob <= 1.0):
            raise ConfigurationError("uniform_prob must be in [0, 1]")
        if not (0.0 <= self.daily_cycle_depth < 1.0):
            raise ConfigurationError("daily_cycle_depth must be in [0, 1)")
        if self.min_runtime <= 0 or self.max_runtime <= self.min_runtime:
            raise ConfigurationError("invalid runtime bounds")


class LublinWorkloadGenerator:
    """Generate annotated synthetic workloads for a given cluster.

    The generator composes the Lublin model (size, runtime, arrivals) with
    the paper's CPU-need and memory-requirement annotations (§IV-C), which
    are injected as :class:`CpuNeedModel` and :class:`MemoryRequirementModel`
    collaborators so that ablations can swap them out.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        parameters: Optional[LublinModelParameters] = None,
        cpu_model: Optional[CpuNeedModel] = None,
        memory_model: Optional[MemoryRequirementModel] = None,
    ) -> None:
        self.cluster = cluster
        self.parameters = parameters or LublinModelParameters()
        self.cpu_model = cpu_model or CpuNeedModel(cores_per_node=cluster.cores_per_node)
        self.memory_model = memory_model or MemoryRequirementModel()

    # -- individual attribute samplers ----------------------------------------
    def sample_size(self, rng: np.random.Generator) -> int:
        """Number of tasks of one job."""
        p = self.parameters
        if rng.random() < p.serial_probability:
            return 1
        high = math.log2(self.cluster.num_nodes)
        low = min(p.uniform_low, high)
        med = min(max(p.uniform_med, low), high)
        if rng.random() < p.uniform_prob:
            log_size = rng.uniform(low, med)
        else:
            log_size = rng.uniform(med, high)
        if rng.random() < p.power_of_two_probability:
            size = 2 ** int(round(log_size))
        else:
            size = int(round(2 ** log_size))
        return int(min(max(size, 1), self.cluster.num_nodes))

    def sample_runtime(self, size: int, rng: np.random.Generator) -> float:
        """Runtime in seconds, correlated with the job size."""
        p = self.parameters
        mix = p.mix_slope * size + p.mix_intercept
        mix = min(0.95, max(0.05, mix))
        if rng.random() < mix:
            log_runtime = rng.gamma(p.gamma1_shape, p.gamma1_scale)
        else:
            log_runtime = rng.gamma(p.gamma2_shape, p.gamma2_scale)
        runtime = math.exp(log_runtime)
        return float(min(max(runtime, p.min_runtime), p.max_runtime))

    def sample_interarrival(self, current_time: float, rng: np.random.Generator) -> float:
        """Gap until the next submission, in seconds.

        The base gap is log-gamma distributed; a sinusoidal daily cycle
        stretches gaps at night and compresses them around the peak hour.
        """
        p = self.parameters
        gap = math.exp(rng.gamma(p.arrival_shape, p.arrival_scale))
        hour = (current_time / 3600.0) % 24.0
        phase = math.cos(2.0 * math.pi * (hour - p.daily_cycle_peak_hour) / 24.0)
        # intensity in [1 - depth, 1]: 1 at the peak hour, lowest at night.
        intensity = 1.0 - p.daily_cycle_depth * (1.0 - phase) / 2.0
        return float(gap / max(intensity, 1e-6))

    # -- workload assembly -----------------------------------------------------
    def iter_jobs(self, num_jobs: int, *, seed: int = 0) -> Iterator[JobSpec]:
        """Stream ``num_jobs`` annotated jobs one at a time, arrival-ordered.

        Byte-identical to :meth:`generate` (same RNG draw order); this is the
        bounded-memory intake used by the streaming trace sources of
        :mod:`repro.traces`.
        """
        if num_jobs < 1:
            raise ConfigurationError(f"num_jobs must be >= 1, got {num_jobs}")
        rng = np.random.default_rng(seed)
        current_time = 0.0
        for job_id in range(num_jobs):
            current_time += self.sample_interarrival(current_time, rng)
            size = self.sample_size(rng)
            runtime = self.sample_runtime(size, rng)
            cpu_need = self.cpu_model.cpu_need(size, rng)
            memory = self.memory_model.memory_requirement(rng)
            yield JobSpec(
                job_id=job_id,
                submit_time=current_time,
                num_tasks=size,
                cpu_need=cpu_need,
                mem_requirement=memory,
                execution_time=runtime,
            )

    def generate(
        self,
        num_jobs: int,
        *,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> Workload:
        """Generate ``num_jobs`` annotated jobs for the configured cluster."""
        jobs = list(self.iter_jobs(num_jobs, seed=seed))
        return Workload(name or f"lublin-seed{seed}", self.cluster, jobs)
