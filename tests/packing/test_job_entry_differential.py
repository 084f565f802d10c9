"""MCB8's job-level entry against its item entry and the per-item oracle.

The yield searches pack through ``mcb8_pack_jobs(jobs, cpus, num_bins)``: one
run record per job goes to the shared fill, which places a run's consecutive
tasks in one step while the scan would pick the run again.  ``mcb8_pack``
builds, cuts and sorts items first, and ``reference_mcb.mcb8_pack`` scans item
by item.  Every case requires the three to return the same
:class:`PackingResult` — ``success``, ``bins_used`` and every assignment, in
the same key order — and the two live entries to leave the same per-pack
tally.  The draws aim at what placing a run in one step could get wrong:
unit and variable-capacity bins with zero-capacity (down) bins, equal sort
values across jobs, ``cpu == memory``, a CPU requirement clamped at 1.0 and
``-0.0``, single-task jobs, and runs long enough to straddle bins.  Jobs of
many tile-sized tasks make bins repeat, and a bin budget that ends
mid-repeat or a down node inside a stretch of unit bins puts a copy record
mid-list: the lazy job entry and the eager item entry both expand it
between the steps around it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AllocationError
from repro.obs import Telemetry, push_telemetry
from repro.packing import PackingJob, PackingResult, job_items, mcb8_pack
from repro.packing.mcb8 import mcb8_pack_jobs

from . import reference_mcb
from .test_bin_repeat_differential import _lists, job_shapes
from .test_mcb_differential import _engine_scale_instances, bin_capacities, requirements

#: What one pack tallies; ``packing.mcb8`` is the phase's call count.
TALLY = ("packing.packs", "packing.pack_failures", "packing.items", "packing.runs",
         "packing.bins_used", "packing.bins_repeated", "packing.mcb8")


def _fields(result: PackingResult) -> Tuple:
    """Every field, assignments as an ordered list: the schedulers read the order."""
    return result.success, result.bins_used, list(result.assignments.items())


def _tallied(pack, *args, **kwargs) -> Tuple[PackingResult, dict]:
    sink = Telemetry()
    previous = push_telemetry(sink)
    try:
        result = pack(*args, **kwargs)
    finally:
        push_telemetry(previous)
    phase = sink.phases().get("packing.mcb8")
    counts = dict(sink.counters, **{"packing.mcb8": phase.count if phase else 0})
    return result, {name: counts.get(name, 0) for name in TALLY}


def _items(jobs: Sequence[PackingJob], cpus: Sequence[float]):
    return [
        item
        for job, cpu in zip(jobs, cpus)
        for item in job_items(job.job_id, job.num_tasks, cpu, job.mem_requirement)
    ]


def assert_entries_agree(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: Optional[Sequence[Tuple[float, float]]] = None,
) -> PackingResult:
    kwargs = {} if capacities is None else {"capacities": capacities}
    items = _items(jobs, cpus)
    expected = reference_mcb.mcb8_pack(list(items), num_bins, **kwargs)
    by_items, item_tally = _tallied(mcb8_pack, items, num_bins, **kwargs)
    by_jobs, job_tally = _tallied(mcb8_pack_jobs, list(jobs), list(cpus), num_bins, capacities)
    assert _fields(by_items) == _fields(expected)
    assert _fields(by_jobs) == _fields(expected)
    assert job_tally == item_tally
    return by_jobs


#: Small binary fractions: several tasks share a bin, so runs interleave.
_SMALL = [0.0625, 0.09375, 0.125, 0.1875, 0.25, 0.3125, 0.375]


@st.composite
def small_or_any(draw) -> float:
    return draw(st.one_of(st.sampled_from(_SMALL), requirements()))


@st.composite
def jobs_and_cpus(draw) -> Tuple[List[PackingJob], List[float]]:
    """A few jobs with distinct, unordered ids and each one's CPU requirement."""
    count = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 60), min_size=count, max_size=count, unique=True))
    shared = draw(small_or_any())  # one value several jobs may carry: sort-value ties
    jobs, cpus = [], []
    for job_id in ids:
        memory = draw(st.sampled_from([shared, -0.0, draw(small_or_any())]))
        shape = draw(st.sampled_from(["drawn", "shared", "equal", "clamped", "-0.0"]))
        need, yield_value = draw(small_or_any()), 1.0
        if shape == "shared":
            need = shared
        elif shape == "equal":
            need = memory
        elif shape == "clamped":
            need = draw(st.sampled_from([1.0, 1.5, 2.0, 3.75]))
            yield_value = draw(st.sampled_from([0.5, 0.75, 1.0]))
        elif shape == "-0.0":
            need = -0.0
            yield_value = draw(st.sampled_from([0.01, 0.5, 1.0]))
        job = PackingJob(
            job_id=job_id,
            num_tasks=draw(st.sampled_from([1, 1, 2, 3, 4, 7, 12])),
            cpu_need=need,
            mem_requirement=memory,
        )
        jobs.append(job)
        cpus.append(job.cpu_requirement(yield_value))
    return jobs, cpus


class TestDrawnInstances:
    @given(jobs_and_cpus(), st.integers(0, 12), bin_capacities())
    @settings(max_examples=600, deadline=None)
    def test_the_three_entries_agree(self, drawn, num_bins, capacities):
        jobs, cpus = drawn
        if capacities is not None:
            num_bins = len(capacities)
        assert_entries_agree(jobs, cpus, num_bins, capacities)

    @given(jobs_and_cpus(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_inputs_are_left_alone(self, drawn, num_bins):
        jobs, cpus = drawn
        before = (list(jobs), list(cpus))
        mcb8_pack_jobs(jobs, cpus, num_bins)
        assert (jobs, cpus) == before


def _shaped_jobs(shapes) -> Tuple[List[PackingJob], List[float]]:
    jobs = [PackingJob(job_id, *shape) for job_id, shape in enumerate(shapes)]
    return jobs, [job.cpu_need for job in jobs]


class TestCopyRecordsMidList:
    @given(job_shapes(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_a_budget_that_ends_mid_repeat(self, shapes, short):
        roomy = reference_mcb._fill(_lists(shapes), 400, None)
        if roomy.success:
            assert_entries_agree(*_shaped_jobs(shapes), max(0, roomy.bins_used - short))

    @given(job_shapes(), st.integers(1, 12), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_a_down_node_breaks_a_stretch(self, shapes, before, after):
        capacities = [(1.0, 1.0)] * before + [(0.0, 0.0)] + [(1.0, 1.0)] * after
        assert_entries_agree(*_shaped_jobs(shapes), len(capacities), capacities)


def test_engine_scale_sweep():
    """What a DYNMCB8 repack packs: 20-40 jobs of 1-32 tasks on 16-128 nodes."""
    outcomes = set()
    repeated = 0
    for jobs, num_bins, capacities in _engine_scale_instances(120):
        for yield_value in (0.01, 0.5, 1.0):
            cpus = [job.cpu_requirement(yield_value) for job in jobs]
            result = assert_entries_agree(jobs, cpus, num_bins, capacities)
            outcomes.add((result.success, capacities is None))
            _, tally = _tallied(mcb8_pack_jobs, jobs, cpus, num_bins, capacities)
            repeated += tally["packing.bins_repeated"]
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}
    assert repeated > 0  # the fills copied bins, and both entries tallied them alike


def _job(job_id: int, num_tasks: int, cpu: float, memory: float) -> PackingJob:
    return PackingJob(job_id, num_tasks, cpu, memory)


class TestNamedRuns:
    """Hand-walked fills; every requirement is a binary fraction, so every sum
    below is exact."""

    @staticmethod
    def _pack(shapes, num_bins, capacities=None) -> PackingResult:
        jobs = [_job(*shape) for shape in shapes]
        return assert_entries_agree(jobs, [job.cpu_need for job in jobs], num_bins, capacities)

    def test_the_balance_rule_interleaves_two_runs(self):
        # Equal sort values, so the CPU-heavy run seeds.  After each of its
        # tasks free memory exceeds free CPU and the memory-heavy run takes
        # the next slot, and back: the runs alternate, and the fourth task of
        # each is left for bin 1.  (Run by run, bin 0 would take all of job 0.)
        result = self._pack([(0, 4, 0.25, 0.0625), (1, 4, 0.0625, 0.25)], 2)
        assert result.assignments == {0: (0, 0, 0, 1), 1: (0, 0, 0, 1)}

    def test_a_run_straddles_three_bins(self):
        result = self._pack([(0, 5, 0.5, 0.125), (1, 1, 0.25, 0.5)], 3)
        assert result.assignments == {0: (0, 1, 1, 2, 2), 1: (0,)}
        assert result.bins_used == 3

    def test_a_run_stops_at_the_first_task_that_does_not_fit(self):
        # The memory list is empty (the run is alone), so only the fit test
        # ends the step: two tasks per bin.
        assert self._pack([(0, 4, 0.5, 0.25)], 2).assignments == {0: (0, 0, 1, 1)}
        assert not self._pack([(0, 5, 0.5, 0.25)], 2).success

    def test_a_run_outlasts_the_other_lists_last_fitting_run(self):
        # Bin 0: job 1 seeds, job 0 fills; job 0's last task opens bin 1.
        result = self._pack([(0, 4, 0.25, 0.0625), (1, 1, 0.125, 0.75)], 2)
        assert result.assignments == {1: (0,), 0: (0, 0, 0, 1)}

    def test_down_bins_are_skipped_mid_run(self):
        capacities = [(1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
        result = self._pack([(0, 3, 0.5, 0.25)], 3, capacities)
        assert result.assignments == {0: (0, 0, 2)} and result.bins_used == 2

    def test_equal_sort_values_go_by_job_id_and_cpu_wins_the_seed(self):
        result = self._pack([(7, 1, 0.5, 0.5), (3, 1, 0.5, 0.5), (5, 1, 0.25, 0.5)], 2)
        assert list(result.assignments) == [3, 7, 5]

    def test_empty_and_binless_packs(self):
        assert self._pack([], 4).success
        assert not self._pack([(0, 2, 0.5, 0.5)], 0).success


class TestRefusals:
    @pytest.mark.parametrize(
        "num_tasks, cpu, memory",
        [(0, 0.5, 0.5), (2, -0.25, 0.5), (2, math.nan, 0.5), (2, 0.5, math.nan), (2, 0.5, 1.5)],
    )
    def test_what_the_item_entry_refuses(self, num_tasks, cpu, memory):
        jobs = [_job(0, 1, 0.25, 0.25), _job(1, num_tasks, cpu, memory)]
        with pytest.raises(AllocationError):
            _items(jobs, [0.25, cpu])
        with pytest.raises(AllocationError):
            mcb8_pack_jobs(jobs, [0.25, cpu], 4)

    def test_capacities_must_match_the_bin_count(self):
        with pytest.raises(AllocationError):
            mcb8_pack_jobs([_job(0, 1, 0.5, 0.5)], [0.5], 2, [(1.0, 1.0)])
