"""Typed campaign results: tidy per-run rows plus aggregation helpers.

A :class:`CampaignResult` holds one :class:`RunRecord` per executed
``(cell, instance, algorithm)`` run, in deterministic grid order (cell-major,
then instance, then algorithm).  Rows are tidy: sweep-axis values live in
``params``, measured values in ``metrics``, which makes the result directly
exportable to CSV/JSON (via :mod:`repro.analysis.export`) and reloadable with
full fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from ..analysis.report import format_table
from ..exceptions import ConfigurationError
from ..metrics import DegradationStats, aggregate_degradation, degradation_factors

__all__ = ["RunRecord", "CampaignResult"]


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one simulation run: one tidy row of a campaign."""

    cell_index: int
    instance_index: int
    workload: str
    algorithm: str
    params: Tuple[Tuple[str, Any], ...] = ()
    metrics: Mapping[str, Any] = field(default_factory=dict)

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def metric(self, name: str) -> Any:
        try:
            return self.metrics[name]
        except KeyError:
            raise ConfigurationError(
                f"run {self.key()!r} recorded no metric {name!r}; available: "
                f"{', '.join(sorted(self.metrics))}"
            ) from None

    def key(self) -> str:
        """Stable cache/export key of this run within its scenario."""
        return f"{self.cell_index}/{self.instance_index}/{self.algorithm}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell_index": self.cell_index,
            "instance_index": self.instance_index,
            "workload": self.workload,
            "algorithm": self.algorithm,
            "params": [[axis, value] for axis, value in self.params],
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            cell_index=int(data["cell_index"]),
            instance_index=int(data["instance_index"]),
            workload=str(data["workload"]),
            algorithm=str(data["algorithm"]),
            params=tuple((axis, value) for axis, value in data.get("params", ())),
            metrics=dict(data.get("metrics", {})),
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced, in analysis-ready form."""

    scenario: Dict[str, Any]
    scenario_hash: str
    rows: List[RunRecord] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.scenario.get("name", "campaign"))

    def __len__(self) -> int:
        return len(self.rows)

    # -- selection -------------------------------------------------------------
    def algorithms(self) -> List[str]:
        """Algorithm names in first-seen (grid) order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.algorithm, None)
        return list(seen)

    def axes(self) -> List[str]:
        """Sweep axis names in first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            for axis, _ in row.params:
                seen.setdefault(axis, None)
        return list(seen)

    def select(
        self,
        *,
        algorithm: Optional[str] = None,
        where: Optional[Callable[[RunRecord], bool]] = None,
        **params: Any,
    ) -> List[RunRecord]:
        """Rows matching an algorithm, arbitrary predicate, and/or axis values.

        An axis no row carries (a misspelling, or a value the scenario fixed
        rather than swept) is refused, not read as "matches nothing"; an
        empty result selects nothing.
        """
        if params and self.rows:
            axes = self.axes()
            unknown = [axis for axis in params if axis not in axes]
            if unknown:
                raise ConfigurationError(
                    f"no row carries the axis filter {', '.join(map(repr, unknown))}; "
                    f"the rows carry: {', '.join(axes) or 'no axis'}"
                )
        selected = []
        for row in self.rows:
            if algorithm is not None and row.algorithm != algorithm:
                continue
            if params:
                row_params = row.params_dict()
                if any(row_params.get(axis) != value for axis, value in params.items()):
                    continue
            if where is not None and not where(row):
                continue
            selected.append(row)
        return selected

    def metric_values(self, metric: str, **filters: Any) -> List[Any]:
        """Metric values of the selected rows, in grid order."""
        return [row.metric(metric) for row in self.select(**filters)]

    # -- per-instance grouping and degradation ---------------------------------
    def instances(self, **filters: Any) -> List[Dict[str, RunRecord]]:
        """Group rows into per-``(cell, instance)`` algorithm→row mappings.

        Groups come back in grid order, algorithms within each group in run
        order — the shape of one
        :class:`~repro.campaign.executor.InstanceResult` per group.
        """
        grouped: Dict[Tuple[int, int], Dict[str, RunRecord]] = {}
        for row in self.select(**filters):
            grouped.setdefault((row.cell_index, row.instance_index), {})[
                row.algorithm
            ] = row
        return [grouped[key] for key in sorted(grouped)]

    def degradation_factors(self, **filters: Any) -> List[Dict[str, float]]:
        """Per-instance degradation factors (needs the ``max_stretch`` metric)."""
        return [
            degradation_factors(
                {name: row.metric("max_stretch") for name, row in group.items()}
            )
            for group in self.instances(**filters)
        ]

    def degradation_stats(self, **filters: Any) -> Dict[str, DegradationStats]:
        """Avg/std/max degradation factor per algorithm over selected instances."""
        pooled: Dict[str, List[float]] = {}
        for factors in self.degradation_factors(**filters):
            for algorithm, factor in factors.items():
                pooled.setdefault(algorithm, []).append(factor)
        return {
            algorithm: aggregate_degradation(values)
            for algorithm, values in pooled.items()
        }

    def degradation_averages(self, **filters: Any) -> Dict[str, float]:
        """Average degradation factor per algorithm (the Figure 1 ordinate)."""
        return {
            name: stats.average
            for name, stats in self.degradation_stats(**filters).items()
        }

    # -- generic aggregation ---------------------------------------------------
    def aggregate(
        self,
        metric: str,
        *,
        by: str = "algorithm",
        statistic: str = "mean",
        **filters: Any,
    ) -> Dict[Any, float]:
        """Aggregate one scalar metric grouped by ``algorithm`` or a sweep axis.

        ``statistic`` is one of ``mean``, ``std``, ``max``, ``min``; group
        keys come back in grid order.
        """
        reducers = {
            "mean": lambda values: float(np.mean(values)),
            "std": lambda values: float(np.std(values)),
            "max": lambda values: float(np.max(values)),
            "min": lambda values: float(np.min(values)),
        }
        try:
            reduce = reducers[statistic]
        except KeyError:
            raise ConfigurationError(
                f"unknown statistic {statistic!r}; known: {', '.join(sorted(reducers))}"
            ) from None
        grouped: Dict[Any, List[float]] = {}
        for row in self.select(**filters):
            if by == "algorithm":
                key = row.algorithm
            else:
                key = row.params_dict().get(by)
            grouped.setdefault(key, []).append(float(row.metric(metric)))
        return {key: reduce(values) for key, values in grouped.items()}

    # -- presentation ----------------------------------------------------------
    def format_summary(self) -> str:
        """Generic per-algorithm summary table of every scalar metric."""
        algorithms = self.algorithms()
        if not algorithms:
            return f"Campaign {self.name!r} ({self.scenario_hash}): no runs"
        # Sorted, not first-seen: JSON persistence canonicalises key order, so
        # a reloaded result must summarise identically to the in-memory one.
        names: set = set()
        for row in self.rows:
            for name, value in row.metrics.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    names.add(name)
        scalar_metrics = sorted(names)
        headers = ["algorithm", "runs"] + [f"{name} (mean)" for name in scalar_metrics]
        rows: List[List[object]] = []
        for algorithm in algorithms:
            selected = self.select(algorithm=algorithm)
            row: List[object] = [algorithm, len(selected)]
            for name in scalar_metrics:
                values = [
                    float(r.metrics[name]) for r in selected if name in r.metrics
                ]
                row.append(float(np.mean(values)) if values else "-")
            rows.append(row)
        title = (
            f"Campaign {self.name!r} ({self.scenario_hash}): "
            f"{len(self.rows)} runs"
        )
        return format_table(headers, rows, title=title)

    # -- persistence -----------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CampaignResult":
        return cls(
            scenario=dict(data.get("scenario", {})),
            scenario_hash=str(data.get("scenario_hash", "")),
            rows=[RunRecord.from_dict(row) for row in data.get("rows", ())],
        )

    def to_json(
        self, destination: Optional[Union[str, Path, TextIO]] = None
    ) -> Optional[str]:
        """Write (or return) the full result as JSON via ``analysis.export``."""
        from ..analysis.export import campaign_result_to_json

        return campaign_result_to_json(self.to_json_dict(), destination)

    @classmethod
    def from_json(cls, source: Union[str, Path, TextIO]) -> "CampaignResult":
        """Load a result previously written with :meth:`to_json`."""
        from ..analysis.export import campaign_result_from_json

        return cls.from_json_dict(campaign_result_from_json(source))

    def rows_to_csv(
        self, destination: Optional[Union[str, Path, TextIO]] = None
    ) -> Optional[str]:
        """Write (or return) the tidy rows as CSV via ``analysis.export``."""
        from ..analysis.export import campaign_rows_to_csv

        return campaign_rows_to_csv([row.to_dict() for row in self.rows], destination)

    @classmethod
    def rows_from_csv(cls, source: Union[str, Path, TextIO]) -> List[RunRecord]:
        """Parse rows previously written with :meth:`rows_to_csv`."""
        from ..analysis.export import campaign_rows_from_csv

        return [RunRecord.from_dict(row) for row in campaign_rows_from_csv(source)]
