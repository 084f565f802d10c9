"""Declarative Scenario/Campaign execution layer.

Every study in this repository — the paper's artifacts and the ablation and
extension studies alike — is one shape repeated: a workload source crossed
with a cluster, an algorithm set, a penalty, and sweep axes, executed over
the ``instances × algorithms`` grid and aggregated.  This package makes that
shape *data*:

* :class:`Scenario` — a frozen, hashable description of one study (workload
  source, cluster, algorithms, penalty, sweep axes, metric collectors,
  engine options);
* :class:`Campaign` — the executor: expands a scenario into its run grid,
  fans it out over its process pool (``executor.map_tasks``), attaches the
  requested metric collectors (each bringing its own
  :mod:`repro.core.observers` observers), and returns a typed
  :class:`CampaignResult`;
* :class:`CampaignResult` — tidy per-run rows plus aggregation helpers, with
  JSON/CSV persistence via :mod:`repro.analysis.export`;
* resumable run-caching keyed by the stable :func:`scenario_hash`.

The repository's studies — the paper's artifacts and the ablations — are
scenario builders plus report functions over this API, listed in one table
(:data:`repro.campaign.studies.STUDIES`), and the ``repro-dfrs run``
subcommand executes a scenario described in a JSON/TOML file with zero new
driver code.

``Campaign(streaming=True)`` (CLI ``--streaming-metrics``) swaps in the
bounded-memory execution path: per-instance :class:`repro.traces.JobSource`
streams feed :meth:`~repro.core.engine.Simulator.run_stream` with online
metrics (:mod:`repro.metrics`), and per-cell accumulator partials merge
exactly across the worker pool — campaign memory is independent of trace
length.
"""

from .collectors import (
    AvailabilityCollector,
    CostCollector,
    FairnessCollector,
    MetricCollector,
    StretchCollector,
    TimingCollector,
    UtilizationCollector,
    available_collectors,
    create_collector,
    register_collector,
)
from .executor import Campaign, export_campaign_artifacts
from .result import CampaignResult, RunRecord
from .scenario import (
    Cell,
    CollectorSpec,
    CustomSource,
    GeneratorSource,
    Hpc2nLikeSource,
    LublinSource,
    Scenario,
    SwfSource,
    TransformSource,
    WorkloadSource,
    scenario_from_dict,
    scenario_hash,
)
from .spec import load_scenario, scenario_from_spec_text
from . import studies

__all__ = [
    "Campaign",
    "CampaignResult",
    "Cell",
    "AvailabilityCollector",
    "CollectorSpec",
    "CostCollector",
    "CustomSource",
    "FairnessCollector",
    "GeneratorSource",
    "Hpc2nLikeSource",
    "LublinSource",
    "MetricCollector",
    "RunRecord",
    "Scenario",
    "StretchCollector",
    "SwfSource",
    "TimingCollector",
    "TransformSource",
    "UtilizationCollector",
    "WorkloadSource",
    "available_collectors",
    "create_collector",
    "export_campaign_artifacts",
    "load_scenario",
    "register_collector",
    "scenario_from_dict",
    "scenario_from_spec_text",
    "scenario_hash",
    "studies",
]
