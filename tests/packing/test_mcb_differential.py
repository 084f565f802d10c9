"""The run-grouped MCB kernel against the per-item scan it replaced.

``reference_mcb.py`` keeps the parent commit's packers verbatim; every test
here requires the live ones to return the *same* ``PackingResult`` —
``success``, ``assignments`` and ``bins_used`` — or the same search result
when the oracle is injected through ``packer=``.  The generators aim at what
the shortcut could get wrong: identical ``(cpu, memory)`` across different
jobs, equal sort values, bins filled to within ``epsilon`` of full, zero-CPU
items, one job carrying differently-shaped tasks, shuffled input, gaps and
duplicates in the task indices, and variable capacities with zero-capacity
and too-small bins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing import (
    PackingItem,
    PackingJob,
    maximize_min_yield,
    mcb8_pack,
    mcb_family_pack,
    minimize_estimated_stretch,
)

from . import reference_mcb

ORDERINGS = ("max", "sum", "cpu", "memory", "difference")

#: Requirements that collide on purpose: exact fractions of a node, values a
#: few 1e-10 either side of them (the bins' epsilon is 1e-9), zero, and pairs
#: with equal max / sum / difference.
_GRID = [0.0, 0.1, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.6, 0.7, 0.75, 1.0]
_NUDGES = [0.0, 0.0, 0.0, 2.5e-10, -2.5e-10, 4e-10, 5e-10, 1e-9, -1e-9, 1.5e-9]


@st.composite
def requirements(draw) -> float:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    value = draw(st.sampled_from(_GRID)) + draw(st.sampled_from(_NUDGES))
    return min(1.0, max(0.0, value))


@st.composite
def item_lists(draw) -> List[PackingItem]:
    """Items of a few jobs, each job one to three differently-shaped segments."""
    items: List[PackingItem] = []
    for job_id in range(draw(st.integers(1, 7))):
        task_index = 0
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
            cpu, memory = draw(requirements()), draw(requirements())
            for _ in range(draw(st.integers(1, 5))):
                items.append(PackingItem(job_id, task_index, cpu, memory))
                task_index += 1
    disorder = draw(st.sampled_from(["none", "none", "shuffle", "gap", "duplicate"]))
    if disorder == "shuffle":
        items = draw(st.permutations(items))
    elif disorder == "gap":
        # Non-consecutive task indices (the packing then fails to assemble,
        # on both sides, after the same fill).
        items.pop(draw(st.integers(0, len(items) - 1)))
    elif disorder == "duplicate":
        # A repeated (job, task) id with its own shape: equal sort keys, so
        # only input order separates the twins.
        twin = draw(st.sampled_from(items))
        items.insert(
            draw(st.integers(0, len(items))),
            PackingItem(twin.job_id, twin.task_index, draw(requirements()), twin.memory),
        )
    return list(items)


@st.composite
def bin_capacities(draw) -> Optional[List[Tuple[float, float]]]:
    """None (unit bins) or per-bin capacities: down, tiny, unit and large nodes."""
    if draw(st.booleans()):
        return None
    sizes = [(0.0, 0.0), (0.05, 0.05), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 1.5)]
    return draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=10))


def _pack_kwargs(capacities: Optional[Sequence[Tuple[float, float]]]) -> dict:
    return {} if capacities is None else {"capacities": capacities}


class TestPackersMatchTheOracle:
    @given(item_lists(), st.integers(0, 12), bin_capacities())
    @settings(max_examples=400, deadline=None)
    def test_mcb8(self, items, num_bins, capacities):
        if capacities is not None:
            num_bins = len(capacities)
        kwargs = _pack_kwargs(capacities)
        expected = reference_mcb.mcb8_pack(list(items), num_bins, **kwargs)
        assert mcb8_pack(items, num_bins, **kwargs) == expected

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @given(item_lists(), st.integers(0, 12), bin_capacities())
    @settings(max_examples=300, deadline=None)
    def test_family(self, ordering, items, num_bins, capacities):
        if capacities is not None:
            num_bins = len(capacities)
        kwargs = _pack_kwargs(capacities)
        expected = reference_mcb.mcb_family_pack(
            list(items), num_bins, ordering=ordering, **kwargs
        )
        assert mcb_family_pack(items, num_bins, ordering=ordering, **kwargs) == expected

    @pytest.mark.parametrize(
        "shapes, num_bins",
        [
            # A (job, task) id repeated *before* the run that ends on it, with
            # an equal sort value: run order and item order part ways, so the
            # kernel must notice the tie and sort item by item.
            ([(0, 2, 0.4, 0.4), (0, 0, 0.6, 0.3), (0, 1, 0.5, 0.4), (0, 2, 0.5, 0.4)], 2),
            (
                [(1, 1, 0.4, 0.3), (0, 0, 0.1, 0.2), (0, 1, 0.1, 0.2),
                 (1, 0, 0.3, 0.3), (1, 1, 0.3, 0.3)],
                4,
            ),
        ],
    )
    def test_twin_ids_before_their_run(self, shapes, num_bins):
        items = [PackingItem(*shape) for shape in shapes]
        expected = reference_mcb.mcb_family_pack(list(items), num_bins, ordering="memory")
        assert mcb_family_pack(items, num_bins, ordering="memory") == expected

    @given(item_lists(), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_input_is_left_alone(self, items, num_bins):
        before = list(items)
        mcb8_pack(items, num_bins)
        assert items == before


@st.composite
def packing_jobs(draw) -> List[PackingJob]:
    cpu_needs = [0.05, 0.25, 0.5, 0.75, 1.0]
    return [
        PackingJob(
            job_id=job_id,
            num_tasks=draw(st.integers(1, 6)),
            cpu_need=draw(st.sampled_from(cpu_needs)),
            mem_requirement=draw(requirements()),
            flow_time=draw(st.floats(min_value=0.0, max_value=5000.0)),
            virtual_time=draw(st.floats(min_value=0.0, max_value=500.0)),
        )
        for job_id in range(draw(st.integers(1, 8)))
    ]


class TestSearchesMatchTheOracle:
    @given(packing_jobs(), st.integers(1, 10), bin_capacities())
    @settings(max_examples=300, deadline=None)
    def test_maximize_min_yield(self, jobs, num_nodes, capacities):
        if capacities is not None:
            num_nodes = len(capacities)
        expected = maximize_min_yield(
            jobs, num_nodes, packer=reference_mcb.mcb8_pack, capacities=capacities
        )
        assert maximize_min_yield(jobs, num_nodes, capacities=capacities) == expected

    @given(packing_jobs(), st.integers(1, 10), bin_capacities())
    @settings(max_examples=300, deadline=None)
    def test_minimize_estimated_stretch(self, jobs, num_nodes, capacities):
        if capacities is not None:
            num_nodes = len(capacities)
        expected = minimize_estimated_stretch(
            jobs, num_nodes, 600.0, packer=reference_mcb.mcb8_pack, capacities=capacities
        )
        actual = minimize_estimated_stretch(jobs, num_nodes, 600.0, capacities=capacities)
        assert actual == expected
