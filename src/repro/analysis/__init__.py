"""Post-simulation analysis toolkit.

Everything in this package consumes finished simulation artifacts —
:class:`~repro.core.records.SimulationResult` objects, observer recorders, or
per-instance metric mappings — and produces derived statistics:

* :mod:`repro.analysis.timeseries` — step-function series of cluster
  utilization quantities (busy nodes, allocated CPU, memory, running jobs);
* :mod:`repro.analysis.stats` — summary statistics, geometric means, and
  bootstrap confidence intervals for metric samples;
* :mod:`repro.analysis.fairness` — Jain / Gini fairness over per-job
  stretches and yields;
* :mod:`repro.analysis.energy` — energy consumption and idle power-down
  savings under a simple node power model (paper §II-B2);
* :mod:`repro.analysis.compare` — head-to-head algorithm comparisons
  (win fractions, dominance ratios, degradation summaries);
* :mod:`repro.analysis.report` — plain-text and Markdown rendering of the
  above and of the studies' tables and figure series.

This package never imports from :mod:`repro.campaign`, so the campaign layer
and its studies are free to build on it.
"""

from .compare import AlgorithmComparison, compare_instances
from .energy import EnergyReport, NodePowerModel, energy_from_recorder, energy_from_result
from .export import (
    allocation_intervals_to_csv,
    degradation_factors_to_csv,
    job_records_to_csv,
    result_summary_to_json,
    utilization_samples_to_csv,
)
from .gantt import job_gantt, node_occupancy, yield_profile
from .fairness import (
    FairnessReport,
    gini_coefficient,
    jain_index,
    mean_yields_from_trace,
    stretch_fairness,
)
from .report import (
    comparison_report,
    energy_report_table,
    fairness_report_table,
    format_figure_series,
    format_table,
    markdown_table,
)
from .stats import (
    SummaryStatistics,
    bootstrap_confidence_interval,
    geometric_mean,
    paired_win_fractions,
    summarize,
)
from .timeseries import (
    StepSeries,
    busy_nodes_series,
    cpu_allocated_series,
    memory_used_series,
    min_yield_series,
    running_jobs_series,
)

__all__ = [
    # compare
    "AlgorithmComparison",
    "compare_instances",
    # energy
    "EnergyReport",
    "NodePowerModel",
    "energy_from_recorder",
    "energy_from_result",
    # export
    "allocation_intervals_to_csv",
    "degradation_factors_to_csv",
    "job_records_to_csv",
    "result_summary_to_json",
    "utilization_samples_to_csv",
    # gantt
    "job_gantt",
    "node_occupancy",
    "yield_profile",
    # fairness
    "FairnessReport",
    "gini_coefficient",
    "jain_index",
    "mean_yields_from_trace",
    "stretch_fairness",
    # report
    "comparison_report",
    "energy_report_table",
    "fairness_report_table",
    "format_figure_series",
    "format_table",
    "markdown_table",
    # stats
    "SummaryStatistics",
    "bootstrap_confidence_interval",
    "geometric_mean",
    "paired_win_fractions",
    "summarize",
    # timeseries
    "StepSeries",
    "busy_nodes_series",
    "cpu_allocated_series",
    "memory_used_series",
    "min_yield_series",
    "running_jobs_series",
]
