"""The run-grouped MCB kernel against the per-item scan it replaced.

``reference_mcb.py`` keeps the parent commit's packers verbatim; every test
here requires the live ones — ``mcb8_pack`` on items, ``mcb8_pack_jobs`` and
``mcb_family_pack`` on job records — to return the *same* ``PackingResult``
— ``success``, ``assignments`` and ``bins_used`` — as the oracle on the same
items, or the same search result as ``reference_search.py`` packing with the
oracle.  The generators aim at what
the shortcut could get wrong: identical ``(cpu, memory)`` across different
jobs, equal sort values, bins filled to within ``epsilon`` of full, zero-CPU
items, one job carrying differently-shaped tasks, shuffled input, gaps and
duplicates in the task indices, and variable capacities with zero-capacity
and too-small bins (the item disorders reach ``mcb8_pack`` alone: a job
record has none).  Results are compared with ``==`` *and* by the order of
their ``assignments`` keys, which the schedulers turn into decision order.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing import (
    PackingItem,
    PackingJob,
    PackingResult,
    job_items,
    maximize_min_yield,
    mcb8_pack,
    mcb_family_pack,
    minimize_estimated_stretch,
)
from repro.packing.mcb8 import mcb8_pack_jobs

from . import reference_mcb, reference_search

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


def items_of(jobs: Sequence[PackingJob], cpus: Sequence[float]) -> List[PackingItem]:
    """The items a packer of job records stands for, job by job."""
    return [
        item
        for job, cpu in zip(jobs, cpus)
        for item in job_items(job.job_id, job.num_tasks, cpu, job.mem_requirement)
    ]


def records_of(items: Sequence[PackingItem]) -> Tuple[List[PackingJob], List[float]]:
    """The ``(jobs, cpus)`` of items built job by job with :func:`job_items`."""
    heads = [item for item in items if item.task_index == 0]
    jobs = [
        PackingJob(head.job_id, sum(item.job_id == head.job_id for item in items), 1.0, head.memory)
        for head in heads
    ]
    return jobs, [head.cpu for head in heads]


@st.composite
def job_records(draw) -> Tuple[List[PackingJob], List[float]]:
    """Up to seven jobs (none in one draw of ten) with distinct ids in any
    order, and each one's task CPU.

    The jobs take their ``(cpu, memory)`` from a palette of up to four
    shapes and have up to eight tasks, so equal bins and equal slacks recur;
    a shape is now and then all zero (it fits any epsilon, but no down node)
    or more CPU than a whole node."""
    palette = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["grid"] * 8 + ["zero", "big"]))
        if kind == "zero":
            palette.append((0.0, 0.0))
        else:
            cpu = draw(st.sampled_from([1.5, 2.0])) if kind == "big" else draw(requirements())
            palette.append((cpu, draw(requirements())))
    ids: List[int] = []
    if draw(st.integers(0, 9)):
        ids = draw(st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=7))
    shapes = [draw(st.sampled_from(palette)) for _ in ids]
    jobs = [
        PackingJob(job_id, draw(st.integers(1, 8)), 1.0, memory)
        for job_id, (_, memory) in zip(ids, shapes)
    ]
    return jobs, [cpu for cpu, _ in shapes]


@st.composite
def bin_capacities(draw) -> Optional[List[Tuple[float, float]]]:
    """None (unit bins) or per-bin capacities: down, tiny, unit and large nodes."""
    if draw(st.booleans()):
        return None
    sizes = [(0.0, 0.0), (0.05, 0.05), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 1.5)]
    return draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=10))


def _pack_kwargs(capacities: Optional[Sequence[Tuple[float, float]]]) -> dict:
    return {} if capacities is None else {"capacities": capacities}


def _assert_same(actual: PackingResult, expected: PackingResult) -> None:
    assert actual == expected
    # dict equality ignores insertion order; the schedulers do not.
    assert list(actual.assignments) == list(expected.assignments)


class TestPackersMatchTheOracle:
    @given(item_lists(), st.integers(0, 12), bin_capacities())
    @settings(max_examples=400, deadline=None)
    def test_mcb8(self, items, num_bins, capacities):
        if capacities is not None:
            num_bins = len(capacities)
        kwargs = _pack_kwargs(capacities)
        expected = reference_mcb.mcb8_pack(list(items), num_bins, **kwargs)
        _assert_same(mcb8_pack(items, num_bins, **kwargs), expected)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @given(job_records(), st.integers(0, 12), bin_capacities())
    @settings(max_examples=300, deadline=None)
    def test_family(self, ordering, records, num_bins, capacities):
        jobs, cpus = records
        if capacities is not None:
            num_bins = len(capacities)
        kwargs = _pack_kwargs(capacities)
        expected = reference_mcb.mcb_family_pack(
            items_of(jobs, cpus), num_bins, ordering=ordering, **kwargs
        )
        _assert_same(
            mcb_family_pack(jobs, cpus, num_bins, capacities, ordering=ordering), expected
        )

    @pytest.mark.parametrize(
        "shapes, num_bins",
        [
            # A (job, task) id repeated *before* the run that ends on it, with
            # an equal sort value: run order and item order part ways, so the
            # kernel must notice the tie and sort item by item.
            ([(0, 2, 0.3, 0.5), (0, 0, 0.6, 0.3), (0, 1, 0.5, 0.4), (0, 2, 0.5, 0.4)], 2),
            (
                [(1, 1, 0.3, 0.2), (0, 0, 0.1, 0.2), (0, 1, 0.1, 0.2),
                 (1, 0, 0.3, 0.3), (1, 1, 0.3, 0.3)],
                4,
            ),
        ],
    )
    def test_twin_ids_before_their_run(self, shapes, num_bins):
        items = [PackingItem(*shape) for shape in shapes]
        expected = reference_mcb.mcb8_pack(list(items), num_bins)
        _assert_same(mcb8_pack(items, num_bins), expected)

    @given(item_lists(), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_input_is_left_alone(self, items, num_bins):
        before = list(items)
        mcb8_pack(items, num_bins)
        assert items == before


def _engine_scale_instances(count: int):
    """What a DYNMCB8 repack hands the packer: 20-40 jobs of 1-32 tasks on
    16-128 nodes, a third of the time with uneven and down nodes."""
    rng = random.Random(20100419)
    memories = [0.0, 0.01, 0.03125, 0.05, 0.05, 0.1, 0.1, 0.125, 0.2, 0.25, 0.3, 0.5]
    sizes = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.0), (2.0, 1.5)]
    for index in range(count):
        jobs = [
            PackingJob(
                job_id=job_id,
                num_tasks=rng.randint(1, 32),
                cpu_need=rng.choice([0.05, 0.05, 0.1, 0.25, 0.25, 0.5, 1.0]),
                mem_requirement=rng.choice(memories),
            )
            for job_id in rng.sample(range(100), rng.randint(20, 40))
        ]
        num_bins = rng.choice([16, 64, 128, 128])
        capacities = None
        if index % 3 == 2:
            capacities = [(0.0, 0.0)] + [rng.choice(sizes) for _ in range(num_bins - 1)]
        yield jobs, num_bins, capacities


class TestEngineScale:
    """Fixed instances at the size the schedulers pack (no hypothesis: the
    property tests above shrink towards a handful of items and bins)."""

    @staticmethod
    def _sweep(count: int, oracle, item_packer=None, job_packer=None) -> set:
        """Compare on ``count`` instances at three yields; the outcomes seen."""
        outcomes = set()
        for jobs, num_bins, capacities in _engine_scale_instances(count):
            kwargs = _pack_kwargs(capacities)
            for yield_value in (0.01, 0.5, 1.0):
                items = [item for job in jobs for item in job.items(yield_value)]
                expected = oracle(list(items), num_bins, **kwargs)
                if item_packer is not None:
                    _assert_same(item_packer(items, num_bins, **kwargs), expected)
                if job_packer is not None:
                    cpus = [job.cpu_requirement(yield_value) for job in jobs]
                    _assert_same(job_packer(jobs, cpus, num_bins, capacities), expected)
                outcomes.add((expected.success, capacities is None, yield_value))
        return outcomes

    def test_sweep_matches_the_oracle(self):
        outcomes = self._sweep(210, reference_mcb.mcb8_pack, item_packer=mcb8_pack)
        # not 630 easy successes: both outcomes, on both kinds of bins
        assert {outcome[:2] for outcome in outcomes} == {
            (True, True), (False, True), (True, False), (False, False)
        }
        assert {outcome[2] for outcome in outcomes if outcome[0]} == {0.01, 0.5, 1.0}

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_family_sweep_matches_the_oracle(self, ordering):
        self._sweep(
            30,
            partial(reference_mcb.mcb_family_pack, ordering=ordering),
            job_packer=partial(mcb_family_pack, ordering=ordering),
        )


def _items(*shapes: Tuple[int, int, float, float]) -> List[PackingItem]:
    """``(job_id, num_tasks, cpu, memory)`` per job, in the order given."""
    return [
        PackingItem(job_id, task_index, cpu, memory)
        for job_id, num_tasks, cpu, memory in shapes
        for task_index in range(num_tasks)
    ]


class TestNamedFills:
    """Hand-walked fills, one per thing the loop keeps in a local variable.
    Every requirement is a binary fraction, so every sum below is exact."""

    @staticmethod
    def _pack(items, num_bins, ordering="max", capacities=None) -> PackingResult:
        kwargs = _pack_kwargs(capacities)
        expected = reference_mcb.mcb_family_pack(
            list(items), num_bins, ordering=ordering, **kwargs
        )
        jobs, cpus = records_of(items)
        actual = mcb_family_pack(jobs, cpus, num_bins, capacities, ordering=ordering)
        _assert_same(actual, expected)
        if ordering == "max":
            _assert_same(mcb8_pack(items, num_bins, **kwargs), expected)
            _assert_same(mcb8_pack_jobs(jobs, cpus, num_bins, capacities), expected)
        return actual

    def test_run_exhausted_mid_bin_with_the_other_cursor_past_its_start(self):
        items = _items(
            (0, 1, 0.625, 0.125),  # seeds bin 0; free memory now exceeds free CPU
            (1, 2, 0.0625, 0.03125),
            (2, 2, 0.03125, 0.03125),
            (3, 2, 0.125, 0.5),  # one fits, its twin is refused: cursor moves on
            (4, 1, 0.03125, 0.25),  # ... to this run, which fits and is used up
        )
        result = self._pack(items, 2)
        # Then the CPU list: job 1 runs out mid-bin and job 2 takes its slot,
        # filling memory to exactly 1.0.  Bin 1 must rewind to job 3's twin.
        assert result.assignments == {0: (0,), 3: (0, 1), 4: (0,), 1: (0, 0), 2: (0, 0)}
        assert list(result.assignments) == [0, 3, 4, 1, 2]
        assert result.bins_used == 2

    @pytest.mark.parametrize("ordering", ["max", "sum", "difference"])
    def test_seed_tie_goes_to_the_cpu_list(self, ordering):
        # Equal sort values under all three orderings; one bin hosts both, so
        # only the key order tells which list seeded it.
        result = self._pack(_items((1, 1, 0.25, 0.5), (0, 1, 0.5, 0.25)), 1, ordering)
        assert list(result.assignments) == [0, 1]

    def test_larger_memory_item_seeds_from_the_memory_list(self):
        result = self._pack(_items((0, 1, 0.5, 0.25), (1, 1, 0.25, 0.5625)), 1)
        assert list(result.assignments) == [1, 0]

    def test_balance_tie_draws_from_the_cpu_list(self):
        # After the seed, free CPU == free memory: not "favours memory".
        items = _items((0, 1, 0.5, 0.5), (2, 1, 0.125, 0.25), (1, 1, 0.25, 0.125))
        assert list(self._pack(items, 1).assignments) == [0, 1, 2]

    def test_secondary_list_is_tried_when_the_primary_refuses(self):
        # Free memory (0.5) exceeds free CPU (0.25), the memory item needs
        # 0.625 of it, and the CPU item fits.
        items = _items((0, 1, 0.75, 0.5), (1, 1, 0.125, 0.625), (2, 1, 0.25, 0.125))
        result = self._pack(items, 2)
        assert result.assignments == {0: (0,), 2: (0,), 1: (1,)}

    @pytest.mark.parametrize("dimension", ["cpu", "memory"])
    def test_bin_filled_to_exactly_one_plus_epsilon_and_one_ulp_above(self, dimension):
        limit = 1.0 + 1e-9  # what a unit bin accepts
        at_limit = limit - 0.5
        above = math.nextafter(limit, math.inf) - 0.5
        assert 0.5 + at_limit == limit and 0.5 + above > limit

        def pack(second: float) -> PackingResult:
            shapes = [(0, 1, 0.5, 0.125), (1, 1, second, 0.125)]
            if dimension == "memory":
                shapes = [(job, n, memory, cpu) for job, n, cpu, memory in shapes]
            return self._pack(_items(*shapes), 2)

        # (the second job is the larger one, so it seeds)
        assert pack(at_limit).assignments == {1: (0,), 0: (0,)}
        assert pack(above).assignments == {1: (0,), 0: (1,)}

    def test_zero_capacity_first_bin_refuses_everything(self):
        items = _items((0, 2, 0.5, 0.25), (1, 1, 0.125, 0.5))
        capacities = [(0.0, 0.0), (0.0, 0.0), (2.0, 1.0)]
        result = self._pack(items, 3, capacities=capacities)
        assert result.assignments == {0: (2, 2), 1: (2,)}
        assert result.bins_used == 1
        assert not self._pack(items, 2, capacities=capacities[:2]).success


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
        expected = reference_search.maximize_min_yield(
            jobs, num_nodes, packer=reference_mcb.mcb8_pack, capacities=capacities
        )
        assert maximize_min_yield(jobs, num_nodes, capacities=capacities) == expected

    @given(packing_jobs(), st.integers(1, 10), bin_capacities())
    @settings(max_examples=300, deadline=None)
    def test_minimize_estimated_stretch(self, jobs, num_nodes, capacities):
        if capacities is not None:
            num_nodes = len(capacities)
        expected = reference_search.minimize_estimated_stretch(
            jobs, num_nodes, 600.0, packer=reference_mcb.mcb8_pack, capacities=capacities
        )
        actual = minimize_estimated_stretch(jobs, num_nodes, 600.0, capacities=capacities)
        assert actual == expected
