"""Tests for the Lublin synthetic workload generator and its annotations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.traces import characterize_stream
from repro.traces.cpu import CpuNeedModel
from repro.traces.lublin import LublinModelParameters, LublinWorkloadGenerator
from repro.traces.memory import MemoryRequirementModel


class TestCpuNeedModel:
    def test_paper_values(self):
        model = CpuNeedModel(cores_per_node=4)
        assert model.cpu_need(1) == pytest.approx(0.25)
        assert model.cpu_need(2) == pytest.approx(1.0)
        assert model.cpu_need(64) == pytest.approx(1.0)

    def test_dual_core(self):
        model = CpuNeedModel(cores_per_node=2)
        assert model.sequential_need == pytest.approx(0.5)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            CpuNeedModel(cores_per_node=0)
        with pytest.raises(ConfigurationError):
            CpuNeedModel(parallel_task_need=0.0)
        with pytest.raises(ConfigurationError):
            CpuNeedModel(partial_need_fraction=2.0)

    def test_invalid_task_count(self):
        with pytest.raises(ConfigurationError):
            CpuNeedModel().cpu_need(0)

    def test_partial_need_fraction(self):
        model = CpuNeedModel(partial_need_fraction=1.0, partial_need_value=0.5)
        rng = np.random.default_rng(0)
        assert model.cpu_need(8, rng) == pytest.approx(0.5)


class TestMemoryModel:
    def test_support_matches_paper(self):
        model = MemoryRequirementModel()
        assert model.support() == [
            pytest.approx(0.1 * x) for x in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        ]

    def test_small_fraction_is_roughly_55_percent(self):
        model = MemoryRequirementModel()
        rng = np.random.default_rng(7)
        samples = [model.memory_requirement(rng) for _ in range(4000)]
        small = sum(1 for value in samples if value == pytest.approx(0.1))
        assert 0.50 <= small / len(samples) <= 0.60

    def test_values_always_in_support(self):
        model = MemoryRequirementModel()
        rng = np.random.default_rng(3)
        support = {round(v, 6) for v in model.support()}
        for _ in range(500):
            assert round(model.memory_requirement(rng), 6) in support

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            MemoryRequirementModel(small_probability=1.5)
        with pytest.raises(ConfigurationError):
            MemoryRequirementModel(large_multipliers=())
        with pytest.raises(ConfigurationError):
            MemoryRequirementModel(large_multipliers=(20,))


class TestLublinGenerator:
    @pytest.fixture(scope="class")
    def workload(self):
        cluster = Cluster(128, cores_per_node=4, node_memory_gb=8.0)
        return LublinWorkloadGenerator(cluster).generate(1000, seed=11)

    def test_basic_shape(self, workload):
        assert workload.num_jobs == 1000
        assert all(spec.num_tasks >= 1 for spec in workload)
        assert all(spec.num_tasks <= 128 for spec in workload)
        assert all(spec.execution_time > 0 for spec in workload)

    def test_submission_span_matches_paper_ballpark(self, workload):
        """1,000 jobs should span on the order of 4-6 days (paper §IV-C)."""
        days = workload.span_seconds / 86400.0
        assert 2.0 <= days <= 12.0

    def test_cpu_need_annotation(self, workload):
        for spec in workload:
            if spec.num_tasks == 1:
                assert spec.cpu_need == pytest.approx(0.25)
            else:
                assert spec.cpu_need == pytest.approx(1.0)

    def test_memory_annotation_in_support(self, workload):
        support = {round(0.1 * x, 6) for x in range(1, 11)}
        for spec in workload:
            assert round(spec.mem_requirement, 6) in support

    def test_serial_fraction_plausible(self, workload):
        profile, _ = characterize_stream(workload.jobs, workload.cluster)
        assert 0.10 <= profile.serial_fraction <= 0.45

    def test_power_of_two_bias(self, workload):
        parallel = [spec.num_tasks for spec in workload if spec.num_tasks > 1]
        powers = sum(1 for size in parallel if (size & (size - 1)) == 0)
        assert powers / len(parallel) >= 0.5

    def test_determinism(self):
        cluster = Cluster(32)
        first = LublinWorkloadGenerator(cluster).generate(50, seed=3)
        second = LublinWorkloadGenerator(cluster).generate(50, seed=3)
        assert [s.submit_time for s in first] == [s.submit_time for s in second]
        assert [s.num_tasks for s in first] == [s.num_tasks for s in second]
        different = LublinWorkloadGenerator(cluster).generate(50, seed=4)
        assert [s.submit_time for s in first] != [s.submit_time for s in different]

    def test_invalid_num_jobs(self):
        with pytest.raises(ConfigurationError):
            LublinWorkloadGenerator(Cluster(8)).generate(0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LublinModelParameters(serial_probability=1.5)
        with pytest.raises(ConfigurationError):
            LublinModelParameters(daily_cycle_depth=1.0)
        with pytest.raises(ConfigurationError):
            LublinModelParameters(min_runtime=10.0, max_runtime=1.0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_generated_specs_are_always_valid_property(self, seed):
        cluster = Cluster(16)
        workload = LublinWorkloadGenerator(cluster).generate(20, seed=seed)
        previous = -1.0
        for spec in workload:
            assert spec.submit_time >= previous
            previous = spec.submit_time
            assert 1 <= spec.num_tasks <= 16
            assert 0.0 < spec.cpu_need <= 1.0
            assert 0.0 < spec.mem_requirement <= 1.0
            assert spec.execution_time >= 1.0
