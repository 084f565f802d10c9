"""Energy accounting for finished simulations.

The paper observes (§II-B2) that once the minimum yield has been maximized,
an under-subscribed cluster can power down idle nodes to save energy.  This
module quantifies that observation: given the busy-node profile of a run (from
a :class:`~repro.core.observers.UtilizationRecorder` or from the engine's
aggregate idle-node integral) and a simple node power model, it computes the
energy consumed with and without idle-node power-down and the corresponding
savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.cluster import Cluster
from ..core.observers import UtilizationRecorder
from ..core.records import SimulationResult
from ..exceptions import ConfigurationError, ReproError
from .timeseries import StepSeries, busy_nodes_series

__all__ = ["NodePowerModel", "EnergyReport", "energy_from_recorder", "energy_from_result"]

#: Joules per kilowatt-hour, used for the human-readable report fields.
_JOULES_PER_KWH = 3_600_000.0


@dataclass(frozen=True)
class NodePowerModel:
    """Three-state power model of one cluster node.

    Parameters
    ----------
    busy_watts:
        Power drawn by a node hosting at least one running task.
    idle_watts:
        Power drawn by a powered-on node hosting no task.
    off_watts:
        Power drawn by a powered-down node (0 for a full shutdown, a few watts
        for suspend-to-RAM).
    """

    busy_watts: float = 300.0
    idle_watts: float = 180.0
    off_watts: float = 10.0

    def __post_init__(self) -> None:
        if self.busy_watts <= 0:
            raise ConfigurationError(f"busy_watts must be > 0, got {self.busy_watts}")
        if self.idle_watts < 0 or self.off_watts < 0:
            raise ConfigurationError("idle_watts and off_watts must be >= 0")
        if self.idle_watts > self.busy_watts:
            raise ConfigurationError("idle_watts must not exceed busy_watts")
        if self.off_watts > self.idle_watts:
            raise ConfigurationError("off_watts must not exceed idle_watts")


@dataclass(frozen=True)
class EnergyReport:
    """Energy consumed by one run under a given node power model."""

    algorithm: str
    duration_seconds: float
    busy_node_seconds: float
    idle_node_seconds: float
    #: Energy with every node always powered on, in joules.
    always_on_joules: float
    #: Energy with idle nodes powered down (optimistic, instant transitions).
    power_down_joules: float

    @property
    def always_on_kwh(self) -> float:
        return self.always_on_joules / _JOULES_PER_KWH

    @property
    def power_down_kwh(self) -> float:
        return self.power_down_joules / _JOULES_PER_KWH

    @property
    def savings_joules(self) -> float:
        return self.always_on_joules - self.power_down_joules

    @property
    def savings_fraction(self) -> float:
        """Relative energy saving of idle power-down over always-on."""
        if self.always_on_joules <= 0:
            return 0.0
        return self.savings_joules / self.always_on_joules

    def as_dict(self) -> Dict[str, float]:
        return {
            "duration_seconds": self.duration_seconds,
            "busy_node_seconds": self.busy_node_seconds,
            "idle_node_seconds": self.idle_node_seconds,
            "always_on_kwh": self.always_on_kwh,
            "power_down_kwh": self.power_down_kwh,
            "savings_fraction": self.savings_fraction,
        }


def _report(
    algorithm: str,
    duration: float,
    total_node_seconds: float,
    busy_node_seconds: float,
    model: NodePowerModel,
) -> EnergyReport:
    """The one energy arithmetic: the materialized reports below and the
    streaming ``utilization`` collector (pooled node-second totals) share it."""
    if duration < 0:
        raise ReproError(f"duration must be >= 0, got {duration}")
    busy_node_seconds = min(busy_node_seconds, total_node_seconds)
    idle_node_seconds = total_node_seconds - busy_node_seconds
    always_on = busy_node_seconds * model.busy_watts + idle_node_seconds * model.idle_watts
    power_down = busy_node_seconds * model.busy_watts + idle_node_seconds * model.off_watts
    return EnergyReport(
        algorithm=algorithm,
        duration_seconds=duration,
        busy_node_seconds=busy_node_seconds,
        idle_node_seconds=idle_node_seconds,
        always_on_joules=always_on,
        power_down_joules=power_down,
    )


def energy_from_recorder(
    recorder: UtilizationRecorder,
    cluster: Cluster,
    *,
    algorithm: str = "unknown",
    model: Optional[NodePowerModel] = None,
    end: Optional[float] = None,
) -> EnergyReport:
    """Energy report from a utilization trace (exact busy-node profile)."""
    model = model or NodePowerModel()
    series: StepSeries = busy_nodes_series(recorder, end=end)
    duration = series.duration
    busy_node_seconds = series.integral()
    return _report(
        algorithm, duration, cluster.num_nodes * duration, busy_node_seconds, model
    )


def energy_from_result(
    result: SimulationResult,
    *,
    model: Optional[NodePowerModel] = None,
) -> EnergyReport:
    """Energy report from the engine's aggregate idle-node accounting.

    This uses the ``idle_node_seconds`` integral that every simulation records
    even without observers; it is exact but offers no time resolution.
    """
    model = model or NodePowerModel()
    duration = result.makespan
    total_node_seconds = result.cluster.num_nodes * duration
    busy_node_seconds = max(0.0, total_node_seconds - result.idle_node_seconds)
    return _report(result.algorithm, duration, total_node_seconds, busy_node_seconds, model)
