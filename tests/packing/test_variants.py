"""Tests for the MCB-family variants, worst-fit, and the packer registry."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.packing import (
    PACKER_NAMES,
    get_packer,
    maximize_min_yield,
    mcb_family_pack,
    worst_fit_decreasing_pack,
    PackingJob,
)
from repro.packing.mcb8 import mcb8_pack_jobs


def _records(spec):
    """``(jobs, cpus)`` from a list of (job_id, tasks, cpu, mem) tuples."""
    jobs = [PackingJob(job_id, tasks, 1.0, mem) for job_id, tasks, _, mem in spec]
    return jobs, [cpu for _, _, cpu, _ in spec]


def _assert_valid_packing(spec, result, num_bins):
    """Common validity checks: all tasks placed, capacities respected."""
    assert result.success
    placed = 0
    usage = {}
    shapes = {job_id: (tasks, cpu, mem) for job_id, tasks, cpu, mem in spec}
    for job_id, nodes in result.assignments.items():
        tasks, task_cpu, task_mem = shapes[job_id]
        assert len(nodes) == tasks
        for node in nodes:
            assert 0 <= node < num_bins
            cpu, mem = usage.get(node, (0.0, 0.0))
            usage[node] = (cpu + task_cpu, mem + task_mem)
            placed += 1
    assert placed == sum(tasks for _, tasks, _, _ in spec)
    for node, (cpu, mem) in usage.items():
        assert cpu <= 1.0 + 1e-6
        assert mem <= 1.0 + 1e-6


item_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    min_size=1,
    max_size=10,
).map(
    lambda raw: [
        (job_id, tasks, cpu, mem) for job_id, (tasks, cpu, mem) in enumerate(raw)
    ]
)


class TestMcbFamilyPack:
    @pytest.mark.parametrize("ordering", ["max", "sum", "cpu", "memory", "difference"])
    def test_orderings_produce_valid_packings(self, ordering):
        spec = [(0, 3, 0.4, 0.3), (1, 2, 0.7, 0.2), (2, 4, 0.2, 0.6)]
        result = mcb_family_pack(*_records(spec), 16, ordering=ordering)
        _assert_valid_packing(spec, result, 16)

    def test_max_ordering_matches_mcb8(self):
        jobs, cpus = _records([(0, 3, 0.4, 0.3), (1, 2, 0.7, 0.2), (2, 4, 0.2, 0.6)])
        family = mcb_family_pack(jobs, cpus, 16, ordering="max")
        original = mcb8_pack_jobs(jobs, cpus, 16)
        assert family.success == original.success
        assert family.bins_used == original.bins_used
        assert family.assignments == original.assignments

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            mcb_family_pack([], [], 4, ordering="nope")

    def test_empty_items_succeed(self):
        result = mcb_family_pack([], [], 4)
        assert result.success
        assert result.bins_used == 0

    def test_zero_bins_fail_with_items(self):
        assert not mcb_family_pack(*_records([(0, 1, 0.5, 0.5)]), 0).success

    def test_failure_when_not_enough_bins(self):
        assert not mcb_family_pack(*_records([(0, 4, 0.9, 0.9)]), 2).success

    @given(item_lists, st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_never_violates_capacities(self, spec, num_bins):
        for ordering in ("max", "sum", "difference"):
            result = mcb_family_pack(*_records(spec), num_bins, ordering=ordering)
            if result.success:
                _assert_valid_packing(spec, result, num_bins)


class TestWorstFit:
    def test_valid_packing(self):
        spec = [(0, 4, 0.3, 0.3), (1, 2, 0.5, 0.1)]
        result = worst_fit_decreasing_pack(*_records(spec), 16)
        _assert_valid_packing(spec, result, 16)

    def test_spreads_items_across_bins(self):
        # Four small items, plenty of bins: worst-fit opens a new bin only
        # when an item does not fit, so it keeps filling the emptiest; with
        # tiny items it still uses a single bin less than or equal to mcb8.
        result = worst_fit_decreasing_pack(*_records([(0, 4, 0.2, 0.2)]), 8)
        assert result.success

    def test_empty_items(self):
        assert worst_fit_decreasing_pack([], [], 4).success

    def test_zero_bins_fail(self):
        assert not worst_fit_decreasing_pack(*_records([(0, 1, 0.5, 0.5)]), 0).success

    @given(item_lists, st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_never_violates_capacities(self, spec, num_bins):
        result = worst_fit_decreasing_pack(*_records(spec), num_bins)
        if result.success:
            _assert_valid_packing(spec, result, num_bins)


class TestPackerRegistry:
    def test_all_registered_names_resolve(self):
        for name in PACKER_NAMES:
            packer = get_packer(name)
            assert callable(packer)

    def test_mcb8_is_registered(self):
        assert "mcb8" in PACKER_NAMES
        assert get_packer("mcb8") is mcb8_pack_jobs

    def test_lookup_is_case_insensitive(self):
        assert get_packer("MCB8") is mcb8_pack_jobs

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_packer("quantum-annealer")

    @pytest.mark.parametrize("name", ["mcb8", "mcb-sum", "first-fit", "best-fit", "worst-fit"])
    def test_registered_packers_produce_valid_packings(self, name):
        spec = [(0, 3, 0.5, 0.3), (1, 2, 0.3, 0.6), (2, 1, 1.0, 0.1)]
        result = get_packer(name)(*_records(spec), 16)
        _assert_valid_packing(spec, result, 16)

    def test_every_packer_survives_a_pickle_round_trip(self):
        # The packing-ablation study ships packer names to worker processes;
        # every registry entry stays a module-level function or a partial.
        for name in PACKER_NAMES:
            packer = get_packer(name)
            restored = pickle.loads(pickle.dumps(packer))
            spec = [(0, 3, 0.5, 0.3), (1, 2, 0.3, 0.6)]
            assert restored(*_records(spec), 4) == packer(*_records(spec), 4)

    def test_yield_search_works_with_every_packer(self):
        jobs = [
            PackingJob(0, 3, 0.8, 0.3),
            PackingJob(1, 2, 0.6, 0.4),
            PackingJob(2, 1, 1.0, 0.2),
        ]
        for name in PACKER_NAMES:
            result = maximize_min_yield(jobs, 3, packer=get_packer(name))
            assert result.success
            assert 0.0 < result.yield_value <= 1.0

    def test_mcb8_not_worse_than_single_dimension_orderings_on_balanced_mix(self):
        # A mix designed so that balance-aware packing matters: CPU-heavy and
        # memory-heavy items in equal numbers.
        jobs, cpus = _records(
            [(0, 4, 0.8, 0.2), (1, 4, 0.2, 0.8), (2, 2, 0.6, 0.4), (3, 2, 0.4, 0.6)]
        )
        mcb8_bins = mcb8_pack_jobs(jobs, cpus, 64).bins_used
        cpu_only_bins = mcb_family_pack(jobs, cpus, 64, ordering="cpu").bins_used
        assert mcb8_bins <= cpu_only_bins + 1
