"""Tests for the yield / estimated-stretch binary searches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.job import MINIMUM_YIELD
from repro.exceptions import AllocationError
from repro.obs.telemetry import Telemetry, push_telemetry
from repro.packing.mcb8 import mcb8_pack, mcb8_pack_jobs
from repro.packing.variants import mcb_family_pack
from repro.packing.yield_search import (
    PackingJob,
    YIELD_SEARCH_ACCURACY,
    maximize_min_yield,
    minimize_estimated_stretch,
    stretch_target_yields,
)


def job(job_id, tasks=1, cpu=1.0, mem=0.1, flow=0.0, vt=0.0):
    return PackingJob(
        job_id=job_id,
        num_tasks=tasks,
        cpu_need=cpu,
        mem_requirement=mem,
        flow_time=flow,
        virtual_time=vt,
    )


class TestMaximizeMinYield:
    def test_empty(self):
        result = maximize_min_yield([], 4)
        assert result.success
        assert result.yield_value == pytest.approx(1.0)

    def test_underloaded_cluster_gives_full_yield(self):
        jobs = [job(0, tasks=2, cpu=0.5), job(1, tasks=1, cpu=0.25)]
        result = maximize_min_yield(jobs, 8)
        assert result.success
        assert result.yield_value == pytest.approx(1.0)
        assert set(result.assignments) == {0, 1}

    def test_two_jobs_on_one_node_share_cpu(self):
        jobs = [job(0, cpu=1.0, mem=0.4), job(1, cpu=1.0, mem=0.4)]
        result = maximize_min_yield(jobs, 1)
        assert result.success
        # Both CPU-bound tasks must share a single node: yield ~ 0.5.
        assert result.yield_value == pytest.approx(0.5, abs=YIELD_SEARCH_ACCURACY)

    def test_memory_infeasible_reports_failure(self):
        jobs = [job(0, mem=0.9), job(1, mem=0.9)]
        result = maximize_min_yield(jobs, 1)
        assert not result.success

    def test_yield_never_below_minimum(self):
        jobs = [job(i, cpu=1.0, mem=0.01) for i in range(40)]
        result = maximize_min_yield(jobs, 1)
        assert result.success
        assert result.yield_value >= MINIMUM_YIELD

    @given(
        num_jobs=st.integers(min_value=1, max_value=10),
        num_nodes=st.integers(min_value=1, max_value=8),
        cpu=st.floats(min_value=0.05, max_value=1.0),
        mem=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_found_yield_is_feasible_property(self, num_jobs, num_nodes, cpu, mem):
        jobs = [job(i, cpu=cpu, mem=mem) for i in range(num_jobs)]
        result = maximize_min_yield(jobs, num_nodes)
        if not result.success:
            return
        # Re-checking feasibility at the returned yield must succeed: the
        # assignments returned are exactly a witness packing.
        loads = {}
        memories = {}
        for job_id, nodes in result.assignments.items():
            for node in nodes:
                loads[node] = loads.get(node, 0.0) + cpu * result.yield_value
                memories[node] = memories.get(node, 0.0) + mem
        assert all(value <= 1.0 + 1e-6 for value in loads.values())
        assert all(value <= 1.0 + 1e-6 for value in memories.values())


class TestStretchTargetYields:
    def test_fresh_job_needs_full_yield_for_stretch_one(self):
        jobs = [job(0, flow=0.0, vt=0.0)]
        yields = stretch_target_yields(jobs, target_stretch=1.0, period=600.0)
        assert yields[0] == pytest.approx(1.0)

    def test_negative_requirement_clamped_to_minimum(self):
        # A job whose virtual time already exceeds what the target requires.
        jobs = [job(0, flow=100.0, vt=1e6)]
        yields = stretch_target_yields(jobs, target_stretch=10.0, period=600.0)
        assert yields[0] == pytest.approx(MINIMUM_YIELD)

    def test_monotone_in_target(self):
        jobs = [job(0, flow=3000.0, vt=600.0)]
        lenient = stretch_target_yields(jobs, target_stretch=10.0, period=600.0)[0]
        strict = stretch_target_yields(jobs, target_stretch=2.0, period=600.0)[0]
        assert strict >= lenient

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stretch_target_yields([job(0)], target_stretch=0.0, period=600.0)
        with pytest.raises(ValueError):
            stretch_target_yields([job(0)], target_stretch=1.0, period=0.0)


class TestMinimizeEstimatedStretch:
    def test_empty(self):
        result = minimize_estimated_stretch([], 4, 600.0)
        assert result.success

    def test_light_load_achieves_stretch_one(self):
        jobs = [job(0, cpu=0.5), job(1, cpu=0.5)]
        result = minimize_estimated_stretch(jobs, 4, 600.0)
        assert result.success
        assert result.target_stretch == pytest.approx(1.0)
        assert all(abs(y - 1.0) < 1e-9 for y in result.yields.values())

    def test_contended_node_raises_target(self):
        jobs = [job(i, cpu=1.0, mem=0.3) for i in range(3)]
        result = minimize_estimated_stretch(jobs, 1, 600.0)
        assert result.success
        assert result.target_stretch > 1.0
        total_cpu = sum(result.yields.values())
        assert total_cpu <= 1.0 + 0.05

    def test_memory_infeasible_fails(self):
        jobs = [job(0, mem=0.9), job(1, mem=0.9)]
        result = minimize_estimated_stretch(jobs, 1, 600.0)
        assert not result.success

    def test_jobs_with_history_need_less(self):
        # A job far ahead of schedule (large virtual time) can tolerate a low
        # yield, freeing CPU for the others.
        jobs = [
            job(0, cpu=1.0, mem=0.3, flow=600.0, vt=600.0),
            job(1, cpu=1.0, mem=0.3, flow=600.0, vt=10.0),
        ]
        result = minimize_estimated_stretch(jobs, 1, 600.0)
        assert result.success
        assert result.yields[1] > result.yields[0]


class TestProbeCounters:
    """Probes and arithmetic refusals are counted on the ambient sink."""

    @staticmethod
    def _searches():
        # 12 full-CPU tasks on 4 nodes: the full-yield probe and the upper
        # bisection probes ask for more CPU than the cluster owns.
        jobs = [job(i, tasks=3, cpu=1.0, mem=0.05, flow=100.0 * i) for i in range(4)]
        packs = []

        def counting(jobs, cpus, num_bins, capacities=None):
            result = mcb8_pack_jobs(jobs, cpus, num_bins, capacities)
            packs.append(result)
            return result

        maximize_min_yield(jobs, 4, packer=counting)
        minimize_estimated_stretch(jobs, 4, 600.0, packer=counting)
        return packs

    def test_counts_probes_and_pruned_probes(self):
        sink = Telemetry()
        previous = push_telemetry(sink)
        try:
            packs = self._searches()
        finally:
            push_telemetry(previous)
        probes = sink.counters["packing.probes"]
        pruned = sink.counters["packing.probes_pruned"]
        assert pruned >= 2 and probes - pruned == len(packs)
        # One tally per pack that ran: every probe is either refused by
        # arithmetic or packed.
        assert sink.counters["packing.packs"] == probes - pruned
        failures = sum(not result.success for result in packs)
        assert 0 < failures < len(packs)
        assert sink.counters["packing.pack_failures"] == failures
        assert sink.counters["packing.items"] == 12 * len(packs)
        assert sink.counters["packing.runs"] == 4 * len(packs)
        assert sink.counters["packing.bins_used"] == sum(r.bins_used for r in packs)

    def test_degenerate_packs_are_counted_too(self):
        sink = Telemetry()
        previous = push_telemetry(sink)
        try:
            assert mcb8_pack([], 4).success
            assert not mcb8_pack(job(0, tasks=3).items(1.0), 0).success
        finally:
            push_telemetry(previous)
        assert sink.counters["packing.packs"] == 2
        assert sink.counters["packing.pack_failures"] == 1
        assert sink.counters["packing.items"] == 3
        assert sink.counters["packing.runs"] == sink.counters["packing.bins_used"] == 0


class TestNanRequirements:
    """``min(1.0, nan)`` is 1.0: a NaN CPU need used to pack as a full-CPU task,
    and a NaN memory requirement as an item that fits no bin."""

    @pytest.mark.parametrize("need, memory", [(float("nan"), 0.3), (0.5, float("nan"))])
    def test_the_searches_refuse_a_nan_requirement(self, need, memory):
        jobs = [job(0, tasks=2, cpu=0.25, mem=0.25), job(1, tasks=2, cpu=need, mem=memory)]
        with pytest.raises(AllocationError):
            maximize_min_yield(jobs, 4)
        with pytest.raises(AllocationError):
            maximize_min_yield(jobs, 4, packer=mcb_family_pack)  # another MCB ordering
        with pytest.raises(AllocationError):
            minimize_estimated_stretch(jobs, 4, 600.0)

    def test_the_clamp_gives_min_bits_for_every_other_value(self):
        for need in (-0.0, 0.0, 0.3, 0.999, 1.0, 1.7, float("inf")):
            for yield_value in (MINIMUM_YIELD, 0.5, 1.0):
                clamped = job(0, cpu=need).cpu_requirement(yield_value)
                assert clamped.hex() == min(1.0, need * yield_value).hex()
