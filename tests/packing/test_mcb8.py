"""Unit and property tests for the MCB8 packing heuristic."""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.packing.first_fit import best_fit_decreasing_pack, first_fit_decreasing_pack
from repro.packing.item import PackingItem, PackingJob, job_items
from repro.packing.mcb8 import mcb8_pack


def _records(items: List[PackingItem]) -> Tuple[List[PackingJob], List[float]]:
    """The ``(jobs, cpus)`` of items built job by job with :func:`job_items`."""
    heads = [item for item in items if item.task_index == 0]
    jobs = [
        PackingJob(head.job_id, sum(item.job_id == head.job_id for item in items), 1.0, head.memory)
        for head in heads
    ]
    return jobs, [head.cpu for head in heads]


def _validate_packing(items: List[PackingItem], assignments: Dict[int, Tuple[int, ...]], num_bins: int):
    """Check that a claimed-successful packing respects all capacities."""
    per_job: Dict[int, List[PackingItem]] = {}
    for item in items:
        per_job.setdefault(item.job_id, []).append(item)
    cpu = {}
    memory = {}
    for job_id, job_item_list in per_job.items():
        assert job_id in assignments
        nodes = assignments[job_id]
        assert len(nodes) == len(job_item_list)
        for item, node in zip(sorted(job_item_list, key=lambda i: i.task_index), nodes):
            assert 0 <= node < num_bins
            cpu[node] = cpu.get(node, 0.0) + item.cpu
            memory[node] = memory.get(node, 0.0) + item.memory
    for node, used in cpu.items():
        assert used <= 1.0 + 1e-6
    for node, used in memory.items():
        assert used <= 1.0 + 1e-6


class TestMcb8Basic:
    def test_empty_input(self):
        result = mcb8_pack([], 4)
        assert result.success
        assert result.assignments == {}
        assert result.bins_used == 0

    def test_zero_bins_fails_for_nonempty(self):
        items = job_items(0, 1, 0.5, 0.5)
        assert not mcb8_pack(items, 0).success

    def test_single_item(self):
        items = job_items(0, 1, 0.5, 0.5)
        result = mcb8_pack(items, 1)
        assert result.success
        assert result.assignments[0] == (0,)
        assert result.bins_used == 1

    def test_item_too_large_fails(self):
        items = [PackingItem(0, 0, cpu=1.2, memory=0.1)]
        assert not mcb8_pack(items, 4).success

    def test_exact_fit_two_bins(self):
        items = job_items(0, 4, cpu=0.5, memory=0.5)
        result = mcb8_pack(items, 2)
        assert result.success
        assert result.bins_used == 2
        _validate_packing(items, result.assignments, 2)

    def test_infeasible_when_not_enough_bins(self):
        items = job_items(0, 5, cpu=0.6, memory=0.6)
        assert not mcb8_pack(items, 2).success

    def test_multiple_jobs(self):
        items = (
            job_items(0, 2, cpu=0.6, memory=0.2)
            + job_items(1, 2, cpu=0.2, memory=0.6)
            + job_items(2, 1, cpu=0.3, memory=0.3)
        )
        result = mcb8_pack(items, 3)
        assert result.success
        _validate_packing(items, result.assignments, 3)

    def test_balancing_beats_naive_stacking(self):
        """MCB8 pairs CPU-heavy with memory-heavy items on the same node."""
        items = (
            job_items(0, 2, cpu=0.9, memory=0.1)
            + job_items(1, 2, cpu=0.1, memory=0.9)
        )
        result = mcb8_pack(items, 2)
        assert result.success
        _validate_packing(items, result.assignments, 2)
        # Each bin must hold one CPU-heavy and one memory-heavy task.
        nodes_cpu_heavy = sorted(result.assignments[0])
        nodes_mem_heavy = sorted(result.assignments[1])
        assert nodes_cpu_heavy == nodes_mem_heavy == [0, 1]

    def test_deterministic(self):
        items = job_items(0, 3, cpu=0.4, memory=0.3) + job_items(1, 2, cpu=0.2, memory=0.5)
        first = mcb8_pack(items, 4)
        second = mcb8_pack(items, 4)
        assert first.assignments == second.assignments


@st.composite
def packing_instances(draw):
    num_jobs = draw(st.integers(min_value=1, max_value=8))
    items: List[PackingItem] = []
    for job_id in range(num_jobs):
        tasks = draw(st.integers(min_value=1, max_value=4))
        cpu = draw(st.floats(min_value=0.01, max_value=1.0))
        memory = draw(st.floats(min_value=0.01, max_value=1.0))
        items.extend(job_items(job_id, tasks, cpu, memory))
    num_bins = draw(st.integers(min_value=1, max_value=16))
    return items, num_bins


class TestMcb8Properties:
    @given(packing_instances())
    @settings(max_examples=200, deadline=None)
    def test_successful_packings_are_valid(self, instance):
        items, num_bins = instance
        result = mcb8_pack(items, num_bins)
        if result.success:
            _validate_packing(items, result.assignments, num_bins)
            assert result.bins_used <= num_bins

    @given(packing_instances())
    @settings(max_examples=100, deadline=None)
    def test_one_bin_per_item_always_succeeds(self, instance):
        """With as many bins as items, any instance of unit-sized items packs."""
        items, _ = instance
        result = mcb8_pack(items, len(items))
        assert result.success

    @given(packing_instances())
    @settings(max_examples=100, deadline=None)
    def test_baselines_agree_on_validity(self, instance):
        items, num_bins = instance
        for packer in (first_fit_decreasing_pack, best_fit_decreasing_pack):
            result = packer(*_records(items), num_bins)
            if result.success:
                _validate_packing(items, result.assignments, num_bins)


class TestBaselinePackers:
    def test_first_fit_simple(self):
        items = job_items(0, 2, cpu=0.5, memory=0.5)
        result = first_fit_decreasing_pack(*_records(items), 2)
        assert result.success

    def test_best_fit_prefers_fuller_bin(self):
        items = (
            job_items(0, 1, cpu=0.6, memory=0.1)
            + job_items(1, 1, cpu=0.3, memory=0.1)
            + job_items(2, 1, cpu=0.35, memory=0.1)
        )
        result = best_fit_decreasing_pack(*_records(items), 2)
        assert result.success

    def test_failure_on_too_few_bins(self):
        items = job_items(0, 3, cpu=0.9, memory=0.9)
        assert not first_fit_decreasing_pack(*_records(items), 2).success
        assert not best_fit_decreasing_pack(*_records(items), 2).success
