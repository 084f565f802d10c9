"""New synthetic workload models beyond the paper's Lublin/HPC2N pair.

Two streaming generators are provided, both registered as spec-expressible
trace source types (usable from ``repro-dfrs run`` via the campaign layer's
``generator``/``transform`` sources and from ``repro-dfrs trace``):

* :class:`DowneyTraceSource` (``"downey"``) — a Feitelson/Downey-style
  runtime + parallelism model: job runtimes are log-uniform between
  configurable bounds (Downey's observation that the cumulative runtime
  distribution of production logs is close to uniform in log space), and
  parallelism is log-uniform over the machine width with an explicit serial
  fraction and a bias towards powers of two.  Arrivals are a homogeneous
  Poisson process.

* :class:`DiurnalPoissonTraceSource` (``"diurnal-poisson"``) — a
  non-homogeneous (diurnal) and optionally bursty Poisson arrival process: a
  sinusoidal daily cycle modulates the base rate, and a two-state
  Markov-modulated overlay multiplies it during exponentially-distributed
  burst episodes.  Job shapes are lognormal runtimes with the same
  parallelism model as above.

Both models reuse the paper's CPU-need and memory-requirement annotations
(:class:`~repro.traces.cpu.CpuNeedModel`,
:class:`~repro.traces.memory.MemoryRequirementModel`) so generated jobs
drop straight into every DFRS and batch scheduler.  All randomness comes
from one seeded :func:`numpy.random.default_rng`, drawn in a fixed order, so
a (seed, parameters) pair is a complete, reproducible description of the
trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

import numpy as np

from ..core.cluster import Cluster
from ..core.job import JobSpec
from ..exceptions import ConfigurationError
from .cpu import CpuNeedModel
from .memory import MemoryRequirementModel
from .source import JobSource, register_trace_source

__all__ = ["DowneyTraceSource", "DiurnalPoissonTraceSource"]


def _sample_width(
    rng: np.random.Generator,
    num_nodes: int,
    serial_fraction: float,
    power_of_two_fraction: float,
) -> int:
    """Log-uniform parallelism over [1, num_nodes] with a serial spike."""
    if num_nodes <= 1 or rng.random() < serial_fraction:
        return 1
    log_size = rng.uniform(0.0, math.log2(num_nodes))
    if rng.random() < power_of_two_fraction:
        size = 2 ** int(round(log_size))
    else:
        size = int(round(2 ** log_size))
    return int(min(max(size, 1), num_nodes))


def _annotation_models(cluster: Cluster) -> Tuple[CpuNeedModel, MemoryRequirementModel]:
    """The paper's §IV-C CPU-need and memory models, built once per stream."""
    return (
        CpuNeedModel(cores_per_node=cluster.cores_per_node),
        MemoryRequirementModel(),
    )


@dataclass(frozen=True)
class DowneyTraceSource(JobSource):
    """Feitelson/Downey-style log-uniform runtime + parallelism model."""

    num_jobs: int = 1000
    seed: int = 2010
    #: Mean gap of the homogeneous Poisson arrival process, in seconds.
    #: The defaults put a 128-node cluster near offered load 1; chain a
    #: ``rescale-load`` transform for an exact target.
    mean_interarrival_seconds: float = 900.0
    #: Bounds of the log-uniform runtime distribution, in seconds.
    min_runtime_seconds: float = 30.0
    max_runtime_seconds: float = 12 * 3600.0
    #: Fraction of single-task jobs.
    serial_fraction: float = 0.25
    #: Probability that a parallel width is rounded to a power of two.
    power_of_two_fraction: float = 0.6

    kind = "downey"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_jobs < 1:
            raise ConfigurationError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if self.mean_interarrival_seconds <= 0:
            raise ConfigurationError("mean_interarrival_seconds must be > 0")
        if not (0 < self.min_runtime_seconds < self.max_runtime_seconds):
            raise ConfigurationError(
                "need 0 < min_runtime_seconds < max_runtime_seconds"
            )
        if not (0.0 <= self.serial_fraction <= 1.0):
            raise ConfigurationError("serial_fraction must be in [0, 1]")
        if not (0.0 <= self.power_of_two_fraction <= 1.0):
            raise ConfigurationError("power_of_two_fraction must be in [0, 1]")

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        def _stream() -> Iterator[JobSpec]:
            rng = np.random.default_rng(self.seed)
            cpu_model, memory_model = _annotation_models(cluster)
            log_low = math.log(self.min_runtime_seconds)
            log_high = math.log(self.max_runtime_seconds)
            current_time = 0.0
            for job_id in range(self.num_jobs):
                current_time += float(
                    rng.exponential(self.mean_interarrival_seconds)
                )
                size = _sample_width(
                    rng,
                    cluster.num_nodes,
                    self.serial_fraction,
                    self.power_of_two_fraction,
                )
                runtime = math.exp(rng.uniform(log_low, log_high))
                cpu_need = cpu_model.cpu_need(size, rng)
                memory = memory_model.memory_requirement(rng)
                yield JobSpec(
                    job_id=job_id,
                    submit_time=current_time,
                    num_tasks=size,
                    cpu_need=cpu_need,
                    mem_requirement=memory,
                    execution_time=runtime,
                )

        return _stream()

    def default_name(self) -> str:
        return f"downey-seed{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "num_jobs": self.num_jobs,
            "seed": self.seed,
            "mean_interarrival_seconds": self.mean_interarrival_seconds,
            "min_runtime_seconds": self.min_runtime_seconds,
            "max_runtime_seconds": self.max_runtime_seconds,
            "serial_fraction": self.serial_fraction,
            "power_of_two_fraction": self.power_of_two_fraction,
        }


@dataclass(frozen=True)
class DiurnalPoissonTraceSource(JobSource):
    """Diurnal + bursty (Markov-modulated) Poisson arrival process.

    The instantaneous arrival rate is::

        rate(t) = base_rate(t) * diurnal(t) * (burst_factor if bursting else 1)

    where ``diurnal(t)`` is a sinusoid dipping to ``1 - diurnal_depth`` at
    the quietest hour and peaking at 1 around ``peak_hour``, and the burst
    overlay is a two-state process with exponentially distributed episode
    durations.  Arrivals are drawn by thinning against the peak rate, which
    keeps the stream exact, ordered, and O(1) per job.
    """

    num_jobs: int = 1000
    seed: int = 2010
    #: Mean gap at the (non-burst) peak rate, in seconds.
    mean_interarrival_seconds: float = 360.0
    #: Relative depth of the daily trough: 0 = flat, 0.9 = nights nearly idle.
    diurnal_depth: float = 0.6
    #: Hour of peak submission activity.
    peak_hour: float = 14.0
    #: Arrival-rate multiplier during burst episodes (1 = no bursts).
    burst_factor: float = 3.0
    #: Mean duration of a burst episode, in seconds.
    mean_burst_seconds: float = 1800.0
    #: Mean gap between burst episodes, in seconds.
    mean_quiet_seconds: float = 4 * 3600.0
    #: Lognormal runtime model (log-seconds).
    runtime_log_mean: float = 7.0
    runtime_log_sigma: float = 1.4
    max_runtime_seconds: float = 2 * 24 * 3600.0
    serial_fraction: float = 0.4
    power_of_two_fraction: float = 0.6

    kind = "diurnal-poisson"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_jobs < 1:
            raise ConfigurationError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if self.mean_interarrival_seconds <= 0:
            raise ConfigurationError("mean_interarrival_seconds must be > 0")
        if not (0.0 <= self.diurnal_depth < 1.0):
            raise ConfigurationError("diurnal_depth must be in [0, 1)")
        if self.burst_factor < 1.0:
            raise ConfigurationError("burst_factor must be >= 1")
        if self.mean_burst_seconds <= 0 or self.mean_quiet_seconds <= 0:
            raise ConfigurationError("burst/quiet durations must be > 0")
        if self.runtime_log_sigma < 0:
            raise ConfigurationError("runtime_log_sigma must be >= 0")
        if self.max_runtime_seconds <= 0:
            raise ConfigurationError("max_runtime_seconds must be > 0")
        if not (0.0 <= self.serial_fraction <= 1.0):
            raise ConfigurationError("serial_fraction must be in [0, 1]")
        if not (0.0 <= self.power_of_two_fraction <= 1.0):
            raise ConfigurationError("power_of_two_fraction must be in [0, 1]")

    def _intensity(self, time_seconds: float, bursting: bool) -> float:
        """Relative arrival intensity at ``time_seconds``, in (0, burst_factor]."""
        hour = (time_seconds / 3600.0) % 24.0
        phase = math.cos(2.0 * math.pi * (hour - self.peak_hour) / 24.0)
        diurnal = 1.0 - self.diurnal_depth * (1.0 - phase) / 2.0
        return diurnal * (self.burst_factor if bursting else 1.0)

    def jobs(self, cluster: Cluster) -> Iterator[JobSpec]:
        def _stream() -> Iterator[JobSpec]:
            rng = np.random.default_rng(self.seed)
            cpu_model, memory_model = _annotation_models(cluster)
            peak_rate = self.burst_factor / self.mean_interarrival_seconds
            current_time = 0.0
            bursting = False
            # Next instant at which the burst overlay flips state.
            flip_time = float(rng.exponential(self.mean_quiet_seconds))
            for job_id in range(self.num_jobs):
                # Thinning: candidate gaps at the peak rate, accepted with
                # probability rate(t)/peak_rate.
                while True:
                    current_time += float(rng.exponential(1.0 / peak_rate))
                    while current_time >= flip_time:
                        bursting = not bursting
                        mean = (
                            self.mean_burst_seconds
                            if bursting
                            else self.mean_quiet_seconds
                        )
                        flip_time += float(rng.exponential(mean))
                    accept = self._intensity(current_time, bursting) / self.burst_factor
                    if rng.random() < accept:
                        break
                size = _sample_width(
                    rng,
                    cluster.num_nodes,
                    self.serial_fraction,
                    self.power_of_two_fraction,
                )
                runtime = min(
                    self.max_runtime_seconds,
                    max(1.0, float(rng.lognormal(
                        self.runtime_log_mean, self.runtime_log_sigma
                    ))),
                )
                cpu_need = cpu_model.cpu_need(size, rng)
                memory = memory_model.memory_requirement(rng)
                yield JobSpec(
                    job_id=job_id,
                    submit_time=current_time,
                    num_tasks=size,
                    cpu_need=cpu_need,
                    mem_requirement=memory,
                    execution_time=runtime,
                )

        return _stream()

    def default_name(self) -> str:
        return f"diurnal-poisson-seed{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "num_jobs": self.num_jobs,
            "seed": self.seed,
            "mean_interarrival_seconds": self.mean_interarrival_seconds,
            "diurnal_depth": self.diurnal_depth,
            "peak_hour": self.peak_hour,
            "burst_factor": self.burst_factor,
            "mean_burst_seconds": self.mean_burst_seconds,
            "mean_quiet_seconds": self.mean_quiet_seconds,
            "runtime_log_mean": self.runtime_log_mean,
            "runtime_log_sigma": self.runtime_log_sigma,
            "max_runtime_seconds": self.max_runtime_seconds,
            "serial_fraction": self.serial_fraction,
            "power_of_two_fraction": self.power_of_two_fraction,
        }


register_trace_source("downey", DowneyTraceSource)
register_trace_source("diurnal-poisson", DiurnalPoissonTraceSource)
