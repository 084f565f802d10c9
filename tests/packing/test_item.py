"""Unit tests for :mod:`repro.packing.item`."""

from __future__ import annotations

import ast
import pickle

import pytest

import repro.packing.item as item_module
from repro.exceptions import AllocationError
from repro.packing.item import PackingItem, PackingResult, job_items


class TestPackingItem:
    def test_properties(self):
        item = PackingItem(job_id=1, task_index=0, cpu=0.6, memory=0.3)
        assert item.max_requirement == pytest.approx(0.6)
        assert item.cpu_dominant
        item = PackingItem(job_id=1, task_index=1, cpu=0.2, memory=0.9)
        assert item.max_requirement == pytest.approx(0.9)
        assert not item.cpu_dominant

    def test_negative_requirements_rejected(self):
        with pytest.raises(AllocationError):
            PackingItem(1, 0, cpu=-0.1, memory=0.1)
        with pytest.raises(AllocationError):
            PackingItem(1, 0, cpu=0.1, memory=-0.1)

    def test_memory_above_node_rejected(self):
        with pytest.raises(AllocationError):
            PackingItem(1, 0, cpu=0.1, memory=1.5)

    def test_job_items(self):
        items = job_items(7, 3, cpu=0.5, memory=0.2)
        assert len(items) == 3
        assert [item.task_index for item in items] == [0, 1, 2]
        assert all(item.job_id == 7 for item in items)

    def test_job_items_invalid_count(self):
        with pytest.raises(AllocationError):
            job_items(7, 0, cpu=0.5, memory=0.2)


class TestPackingItemContract:
    """Tuple-backed, but still the validated immutable value it always was."""

    BAD_SHAPES = [
        (-0.1, 0.1), (0.1, -0.1), (0.1, 1.5), (0.1, 1.0 + 2e-9),
        (float("nan"), 0.5), (0.5, float("nan")),
    ]

    @pytest.mark.parametrize("cpu, memory", BAD_SHAPES)
    def test_bad_requirements_rejected_on_both_paths(self, cpu, memory):
        with pytest.raises(AllocationError):
            PackingItem(3, 0, cpu, memory)
        with pytest.raises(AllocationError):
            PackingItem(job_id=3, task_index=0, cpu=cpu, memory=memory)
        for num_tasks in (1, 4):
            with pytest.raises(AllocationError):
                job_items(3, num_tasks, cpu, memory)

    def test_memory_within_the_tolerance_of_a_full_node_is_accepted(self):
        assert PackingItem(1, 0, cpu=0.0, memory=1.0 + 1e-9).memory > 1.0

    def test_job_items_stamps_equal_validated_items(self):
        items = job_items(7, 3, cpu=0.5, memory=0.2)
        assert items == [PackingItem(7, index, 0.5, 0.2) for index in range(3)]
        assert all(type(item) is PackingItem for item in items)

    def test_immutable(self):
        for item in job_items(1, 2, cpu=0.5, memory=0.2):
            with pytest.raises(AttributeError):
                item.cpu = 0.9
            with pytest.raises(AttributeError):
                item.note = "x"

    def test_keywords_equality_and_hash(self):
        item = PackingItem(job_id=1, task_index=2, cpu=0.5, memory=0.2)
        assert item == PackingItem(1, 2, 0.5, 0.2)
        assert hash(item) == hash(PackingItem(1, 2, 0.5, 0.2))
        assert item != PackingItem(1, 2, 0.5, 0.25)
        assert (item.job_id, item.task_index, item.cpu, item.memory) == (1, 2, 0.5, 0.2)
        assert len({item, PackingItem(1, 2, 0.5, 0.2), PackingItem(1, 3, 0.5, 0.2)}) == 2

    def test_pickle_round_trip(self):
        items = job_items(7, 3, cpu=0.5, memory=0.2)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(items, protocol))
            assert restored == items
            assert all(type(item) is PackingItem for item in restored)

    def test_module_parses_under_the_python_3_9_grammar(self):
        with open(item_module.__file__, encoding="utf-8") as handle:
            ast.parse(handle.read(), feature_version=(3, 9))


class TestPackingResult:
    def test_failure_constructor(self):
        result = PackingResult.failure()
        assert not result.success
        assert result.assignments == {}
