"""Dynamic Fractional Resource Scheduling (DFRS) for HPC workloads.

Reproduction of Stillwell, Vivien, and Casanova, *Dynamic Fractional Resource
Scheduling for HPC Workloads*, IEEE IPDPS 2010.

The package is organised in four layers:

* :mod:`repro.core` — discrete-event cluster simulator, job/allocation model,
  cost accounting; :mod:`repro.metrics` holds the paper's metrics (bounded
  stretch, degradation factor) beside its online statistics;
* :mod:`repro.packing` — the MCB8 multi-capacity bin-packing heuristic and
  the binary searches on yield / estimated stretch;
* :mod:`repro.schedulers` — the seven DFRS algorithms plus the FCFS and EASY
  batch baselines;
* :mod:`repro.traces` and :mod:`repro.campaign` — the Lublin synthetic
  workload model, SWF/HPC2N trace handling, and the scenario / campaign layer
  whose studies (:data:`repro.campaign.studies.STUDIES`) regenerate the
  paper's Figure 1, Table I, and Table II.

Quickstart::

    from repro import Cluster, LublinWorkloadGenerator, run_instance

    cluster = Cluster(num_nodes=32)
    workload = LublinWorkloadGenerator(cluster).generate(100, seed=1)
    outcome = run_instance(workload, ["easy", "dynmcb8-asap-per-600"],
                           penalty_seconds=300.0)
    print(outcome.max_stretches())
"""

from .core import (
    Cluster,
    FIVE_MINUTE_PENALTY,
    JobSpec,
    JobState,
    NO_PENALTY,
    ReschedulingPenaltyModel,
    SimulationConfig,
    SimulationResult,
    Simulator,
)
from .exceptions import (
    AllocationError,
    ConfigurationError,
    InfeasibleAllocationError,
    ReproError,
    SchedulingError,
    SimulationError,
    TraceFormatError,
    WorkloadError,
)
from .metrics import bounded_stretch, degradation_factors
from .campaign.executor import run_algorithm, run_instance
from .campaign.studies import (
    ExperimentConfig,
    run_extensions_comparison,
    run_packing_ablation,
    run_paper,
    run_period_sweep,
    run_timing_study,
    run_utilization_study,
)
from .platform import (
    ExponentialFailureSource,
    HomogeneousPlatform,
    NodeClass,
    NodeClassesPlatform,
    Platform,
    WeibullFailureSource,
    platform_from_dict,
)
from .schedulers import (
    PAPER_ALGORITHMS,
    available_algorithms,
    create_scheduler,
)
from .traces import (
    HPC2N_CLUSTER,
    Hpc2nLikeTraceGenerator,
    LublinWorkloadGenerator,
    Workload,
    parse_swf,
    scale_to_load,
    swf_to_dfrs_jobs,
    write_swf,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Cluster",
    "FIVE_MINUTE_PENALTY",
    "JobSpec",
    "JobState",
    "NO_PENALTY",
    "ReschedulingPenaltyModel",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "bounded_stretch",
    "degradation_factors",
    # exceptions
    "AllocationError",
    "ConfigurationError",
    "InfeasibleAllocationError",
    "ReproError",
    "SchedulingError",
    "SimulationError",
    "TraceFormatError",
    "WorkloadError",
    # campaign studies and single-workload helpers
    "ExperimentConfig",
    "run_algorithm",
    "run_extensions_comparison",
    "run_instance",
    "run_packing_ablation",
    "run_paper",
    "run_period_sweep",
    "run_timing_study",
    "run_utilization_study",
    # platform
    "Platform",
    "HomogeneousPlatform",
    "NodeClass",
    "NodeClassesPlatform",
    "ExponentialFailureSource",
    "WeibullFailureSource",
    "platform_from_dict",
    # schedulers
    "PAPER_ALGORITHMS",
    "available_algorithms",
    "create_scheduler",
    # workloads
    "HPC2N_CLUSTER",
    "Hpc2nLikeTraceGenerator",
    "LublinWorkloadGenerator",
    "Workload",
    "parse_swf",
    "scale_to_load",
    "swf_to_dfrs_jobs",
    "write_swf",
]
