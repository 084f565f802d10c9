"""Experiment harness: regenerates every table and figure of the paper.

Beyond the paper artifacts (Figure 1, Table I, Table II, the §V timing
study), the harness also provides the ablation and extension studies called
out in DESIGN.md §4: the scheduling-period sweep, the packing-heuristic
ablation, the utilization/energy study, and the extension-scheduler
comparison.

Each of the eight drivers builds its scenario(s) in
:mod:`repro.campaign.studies` (where :class:`ExperimentConfig` and its three
scales live), runs them through :class:`repro.campaign.executor.Campaign`
— the only fan-out of instances × algorithms — and formats the rows with
:mod:`repro.analysis.report`; :mod:`.runner` keeps the single-workload
helpers.  This package is the top of the stack: nothing below it imports it.
"""

from .extensions import EXTENSION_ALGORITHMS, ExtensionsResult, run_extensions_comparison
from .figure1 import Figure1Result, run_figure1
from .packing_ablation import (
    PackingAblationResult,
    generate_packing_instances,
    run_packing_ablation,
)
from .period_sweep import DEFAULT_PERIODS, PeriodSweepResult, run_period_sweep
from .runner import (
    InstanceResult,
    resolve_simulation_config,
    run_algorithm,
    run_instance,
)
from .table1 import Table1Result, run_table1
from .table2 import TABLE2_ALGORITHMS, CostStatistics, Table2Result, run_table2
from .timing import TimingResult, run_timing_study
from .utilization_study import (
    AlgorithmUtilization,
    UtilizationStudyResult,
    run_utilization_study,
)

__all__ = [
    "EXTENSION_ALGORITHMS",
    "ExtensionsResult",
    "run_extensions_comparison",
    "Figure1Result",
    "run_figure1",
    "PackingAblationResult",
    "generate_packing_instances",
    "run_packing_ablation",
    "DEFAULT_PERIODS",
    "PeriodSweepResult",
    "run_period_sweep",
    "InstanceResult",
    "resolve_simulation_config",
    "run_algorithm",
    "run_instance",
    "Table1Result",
    "run_table1",
    "TABLE2_ALGORITHMS",
    "CostStatistics",
    "Table2Result",
    "run_table2",
    "TimingResult",
    "run_timing_study",
    "AlgorithmUtilization",
    "UtilizationStudyResult",
    "run_utilization_study",
]
