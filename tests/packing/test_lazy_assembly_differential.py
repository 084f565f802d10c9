"""The job entry's lazy per-job tuples against eager assembly, on drawn searches.

``mcb8_pack_jobs`` returns a success whose ``assignments`` are built from the
fill's steps on first read, and the yield searches read them only for the
probe they return.  Every probe a live search packs is recorded; after the
search:

* exactly the returned probe has been assembled (none when the search
  fails), and the result carries that probe's very mapping;
* every recorded probe, read now, equals the eager item-route pack of the
  same items by ``reference_mcb.mcb8_pack`` — success, bins used, and the
  assignments with their key order;
* the search result equals ``reference_search``'s search over that eager
  packer.
"""

from __future__ import annotations

import inspect
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing import PackingResult, maximize_min_yield, minimize_estimated_stretch
from repro.packing import mcb8, yield_search
from repro.packing.item import job_items

from . import reference_mcb, reference_search
from .test_mcb_differential import bin_capacities
from .test_search_differential import overloaded_jobs, packing_jobs


class _Recorder:
    """``mcb8_pack_jobs`` that keeps every probe and its (lazy) result."""

    def __init__(self) -> None:
        self.probes: List[Tuple[tuple, tuple, int, object, PackingResult]] = []

    def __call__(self, jobs, cpus, num_bins, capacities=None):
        result = mcb8.mcb8_pack_jobs(jobs, cpus, num_bins, capacities)
        self.probes.append((tuple(jobs), tuple(cpus), num_bins, capacities, result))
        return result


def _assembled(result: PackingResult) -> bool:
    return result._assemble is None


def _eager(jobs, cpus, num_bins, capacities) -> PackingResult:
    items = [
        item
        for job, cpu in zip(jobs, cpus)
        for item in job_items(job.job_id, job.num_tasks, cpu, job.mem_requirement)
    ]
    kwargs = {} if capacities is None else {"capacities": capacities}
    return reference_mcb.mcb8_pack(items, num_bins, **kwargs)


def _check_search(search, reference, jobs, *args, capacities=None) -> int:
    # The searches pack with ``mcb8_pack_jobs`` unless told otherwise.
    assert inspect.signature(search).parameters["packer"].default is mcb8.mcb8_pack_jobs
    recorder = _Recorder()
    result = search(jobs, *args, packer=recorder, capacities=capacities)
    successes = [probe[-1] for probe in recorder.probes if probe[-1].success]
    assembled = [packed for packed in successes if _assembled(packed)]
    if result.success and successes:
        assert len(assembled) == 1
        assert result.assignments is assembled[0].assignments
    else:
        assert assembled == []
    for probe_jobs, cpus, num_bins, probe_capacities, packed in recorder.probes:
        expected = _eager(probe_jobs, cpus, num_bins, probe_capacities)
        assert (packed.success, packed.bins_used) == (expected.success, expected.bins_used)
        assert list(packed.assignments.items()) == list(expected.assignments.items())
    assert result == reference(jobs, *args, packer=reference_mcb.mcb8_pack, capacities=capacities)
    return len(successes)


class TestOnlyTheReturnedProbeIsAssembled:
    @given(packing_jobs(), st.integers(1, 10), bin_capacities())
    @settings(max_examples=300, deadline=None)
    def test_drawn_searches(self, jobs, num_nodes, capacities):
        if capacities is not None:
            num_nodes = len(capacities)
        _check_search(
            maximize_min_yield, reference_search.maximize_min_yield, jobs, num_nodes,
            capacities=capacities,
        )
        _check_search(
            minimize_estimated_stretch, reference_search.minimize_estimated_stretch,
            jobs, num_nodes, 600.0, capacities=capacities,
        )

    @given(overloaded_jobs())
    @settings(max_examples=100, deadline=None)
    def test_bisections_discard_successful_probes_unread(self, instance):
        """Overloaded instances bisect, so several probes succeed; only the
        last successful one is read."""
        jobs, num_nodes = instance
        successes = _check_search(
            maximize_min_yield, reference_search.maximize_min_yield, jobs, num_nodes
        )
        assert successes >= 1

    def test_a_bisection_with_several_successes(self):
        # Six one-task jobs at need 1 on four unit nodes: every yield up to
        # 2/3 packs, so the bisection succeeds on several probes.
        jobs = [yield_search.PackingJob(job_id, 1, 1.0, 0.1) for job_id in range(6)]
        assert _check_search(
            maximize_min_yield, reference_search.maximize_min_yield, jobs, 4
        ) > 2

    def test_a_lazy_result_reads_like_the_eager_one(self):
        jobs = [yield_search.PackingJob(0, 3, 0.5, 0.25), yield_search.PackingJob(1, 1, 0.5, 0.5)]
        lazy = mcb8.mcb8_pack_jobs(jobs, [0.5, 0.5], 4)
        assert not _assembled(lazy)
        eager = _eager(jobs, [0.5, 0.5], 4, None)
        assert lazy == eager and repr(lazy) == repr(eager)
        assert _assembled(lazy) and lazy.assignments == {0: (0, 0, 1), 1: (1,)}
