"""Post-simulation analysis toolkit.

Everything in this package consumes finished simulation artifacts —
:class:`~repro.core.records.SimulationResult` objects, observer recorders, or
campaign row payloads — and produces derived statistics:

* :mod:`repro.analysis.timeseries` — step-function series of cluster
  utilization quantities (busy nodes, allocated CPU);
* :mod:`repro.analysis.fairness` — Jain / Gini fairness over per-job
  stretches;
* :mod:`repro.analysis.energy` — energy consumption and idle power-down
  savings under a simple node power model (paper §II-B2);
* :mod:`repro.analysis.export` — JSON / CSV persistence of campaign results;
* :mod:`repro.analysis.report` — plain-text and Markdown rendering of the
  above and of the studies' tables and figure series.

This package never imports from :mod:`repro.campaign`, so the campaign layer
and its studies are free to build on it.
"""

from .energy import EnergyReport, NodePowerModel, energy_from_recorder, energy_from_result
from .fairness import FairnessReport, gini_coefficient, jain_index, stretch_fairness
from .report import (
    energy_report_table,
    fairness_report_table,
    format_figure_series,
    format_table,
)
from .timeseries import (
    StepSeries,
    busy_nodes_series,
    cpu_allocated_series,
)

__all__ = [
    # energy
    "EnergyReport",
    "NodePowerModel",
    "energy_from_recorder",
    "energy_from_result",
    # fairness
    "FairnessReport",
    "gini_coefficient",
    "jain_index",
    "stretch_fairness",
    # report
    "energy_report_table",
    "fairness_report_table",
    "format_figure_series",
    "format_table",
    # timeseries
    "StepSeries",
    "busy_nodes_series",
    "cpu_allocated_series",
]
