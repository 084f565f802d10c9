"""Unit tests for the per-instance degradation factors of ``InstanceResult``."""

from __future__ import annotations

import pytest

from repro.core.records import CostSummary, SimulationResult
from repro.core.cluster import Cluster
from repro.campaign.executor import InstanceResult

from ..core.test_records import record


def instance(name: str, stretches: dict) -> InstanceResult:
    """Build an InstanceResult whose per-algorithm max stretch is prescribed."""
    result = InstanceResult(workload_name=name)
    for algorithm, stretch in stretches.items():
        # One job whose bounded stretch equals the prescribed value.
        runtime = 1000.0
        completion = runtime * stretch
        result.results[algorithm] = SimulationResult(
            algorithm=algorithm,
            cluster=Cluster(4),
            jobs=[record(0, submit=0.0, start=0.0, end=completion, runtime=runtime)],
            costs=CostSummary(),
            makespan=completion,
        )
    return result


class TestInstanceResult:
    def test_max_stretches_and_factors(self):
        inst = instance("i0", {"a": 2.0, "b": 8.0})
        assert inst.max_stretches() == {"a": pytest.approx(2.0), "b": pytest.approx(8.0)}
        factors = inst.degradation_factors()
        assert factors["a"] == pytest.approx(1.0)
        assert factors["b"] == pytest.approx(4.0)
