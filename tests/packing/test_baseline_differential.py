"""Every registry packer on job records against its item-route oracle.

Each packer of :data:`repro.packing.PACKER_NAMES` takes ``(jobs, cpus,
num_bins, capacities)``.  Its oracle is the per-task packer it replaced, kept
verbatim: the decreasing-fit baselines in ``reference_baselines.py`` (with
the ``Bin`` they fill) and the MCB family's per-item scan in
``reference_mcb.py``.  Every test requires the *same* ``PackingResult`` —
``success``, ``assignments`` and ``bins_used`` — with ``==``.

The draws aim at what a per-job loop could get wrong: requirements on a grid
of node fractions and within a few epsilons of it (the bins' epsilon is
1e-9), zero requirements, CPU beyond a whole node, unit bins and
variable-capacity bins with down ``(0, 0)`` and too-small nodes, no bins and
no jobs, and job ids out of order.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AllocationError
from repro.packing import PACKER_NAMES, PackingJob, get_packer

from . import reference_baselines, reference_mcb
from .test_mcb_differential import bin_capacities, items_of, job_records

#: The per-task packer each registry packer replaced.
ITEM_ROUTE = {
    "mcb8": reference_mcb.mcb8_pack,
    "mcb-sum": partial(reference_mcb.mcb_family_pack, ordering="sum"),
    "mcb-cpu": partial(reference_mcb.mcb_family_pack, ordering="cpu"),
    "mcb-memory": partial(reference_mcb.mcb_family_pack, ordering="memory"),
    "mcb-difference": partial(reference_mcb.mcb_family_pack, ordering="difference"),
    "first-fit": reference_baselines.first_fit_decreasing_pack,
    "best-fit": reference_baselines.best_fit_decreasing_pack,
    "worst-fit": reference_baselines.worst_fit_decreasing_pack,
}


def item_route(name, jobs, cpus, num_bins, capacities=None):
    """``name``'s oracle on the items of ``jobs``."""
    kwargs = {} if capacities is None else {"capacities": capacities}
    return ITEM_ROUTE[name](items_of(jobs, cpus), num_bins, **kwargs)


def test_every_registry_packer_has_an_oracle():
    assert sorted(ITEM_ROUTE) == list(PACKER_NAMES)


@pytest.mark.parametrize("name", PACKER_NAMES)
@given(job_records(), st.integers(0, 12), bin_capacities())
@settings(max_examples=400)
def test_same_result_as_the_item_route(name, records, num_bins, capacities):
    jobs, cpus = records
    if capacities is not None:
        num_bins = len(capacities)
    expected = item_route(name, jobs, cpus, num_bins, capacities)
    assert get_packer(name)(jobs, cpus, num_bins, capacities) == expected


@pytest.mark.parametrize("name", PACKER_NAMES)
@pytest.mark.parametrize(
    "jobs, cpus",
    [
        ([PackingJob(0, 0, 1.0, 0.5)], [0.5]),  # no task
        ([PackingJob(0, 2, 1.0, 0.5)], [-0.25]),  # negative CPU
        ([PackingJob(0, 2, 1.0, 0.5)], [float("nan")]),
        ([PackingJob(0, 2, 1.0, 1.0 + 2e-9)], [0.5]),  # more memory than a node
    ],
)
def test_invalid_records_are_refused_like_items(name, jobs, cpus):
    with pytest.raises(AllocationError):
        item_route(name, jobs, cpus, 4)
    with pytest.raises(AllocationError):
        get_packer(name)(jobs, cpus, 4)


@pytest.mark.parametrize("name", PACKER_NAMES)
def test_a_capacity_list_of_the_wrong_length_is_refused(name):
    jobs, cpus = [PackingJob(0, 2, 1.0, 0.5)], [0.5]
    capacities: Optional[List[Tuple[float, float]]] = [(1.0, 1.0)] * 3
    with pytest.raises(AllocationError):
        item_route(name, jobs, cpus, 4, capacities)
    with pytest.raises(AllocationError):
        get_packer(name)(jobs, cpus, 4, capacities)


class TestNamedBaselineFills:
    """Hand-walked fills of the decreasing-fit baselines; every requirement is
    a binary fraction, so every sum below is exact."""

    @staticmethod
    def _pack(name, shapes, num_bins, capacities=None):
        """``(job_id, num_tasks, cpu, memory)`` per job, in the order given."""
        jobs = [PackingJob(job_id, tasks, 1.0, memory) for job_id, tasks, _, memory in shapes]
        cpus = [cpu for _, _, cpu, _ in shapes]
        result = get_packer(name)(jobs, cpus, num_bins, capacities)
        assert result == item_route(name, jobs, cpus, num_bins, capacities)
        return result

    def test_best_fit_takes_the_first_of_equal_slacks(self):
        shapes = [(0, 1, 0.75, 0.125), (1, 1, 0.75, 0.125), (2, 1, 0.5, 0.125)]
        result = self._pack("best-fit", shapes, 3)
        assert result.assignments == {0: (0,), 1: (1,), 2: (2,)}
        # Bins 0 and 1 both have 0.25 of CPU left: a 0.25 task fills either.
        shapes.append((3, 1, 0.25, 0.125))
        assert self._pack("best-fit", shapes, 3).assignments[3] == (0,)

    @pytest.mark.parametrize("name, bin_", [("first-fit", 0), ("best-fit", 1), ("worst-fit", 0)])
    def test_the_fit_rule_picks_the_bin(self, name, bin_):
        # Bin 0 has 0.5 of CPU left, bin 1 0.4375: the CPU-heavy task fits both.
        shapes = [(0, 1, 0.5, 0.625), (1, 1, 0.5625, 0.125), (2, 1, 0.25, 0.125)]
        result = self._pack(name, shapes, 2)
        assert result.assignments == {0: (0,), 1: (1,), 2: (bin_,)}

    def test_worst_fit_takes_the_first_of_equal_slacks(self):
        shapes = [(0, 1, 0.75, 0.125), (1, 1, 0.75, 0.125), (2, 1, 0.25, 0.125)]
        assert self._pack("worst-fit", shapes, 2).assignments[2] == (0,)

    def test_worst_fit_opens_a_bin_only_when_no_open_bin_fits(self):
        shapes = [(0, 1, 0.75, 0.125), (1, 3, 0.125, 0.125)]
        assert self._pack("worst-fit", shapes, 2).assignments == {0: (0,), 1: (0, 0, 1)}

    def test_a_job_s_tasks_may_land_out_of_bin_order(self):
        # Job 2's first task goes to the emptier bin 1, which is then fuller.
        shapes = [(0, 1, 0.625, 0.125), (1, 1, 0.5, 0.125), (2, 2, 0.25, 0.125)]
        result = self._pack("worst-fit", shapes, 2)
        assert result.assignments == {0: (0,), 1: (1,), 2: (1, 0)}

    @pytest.mark.parametrize("name", ["first-fit", "best-fit", "worst-fit"])
    def test_a_down_bin_stays_open_and_empty(self, name):
        # Zero requirements fit within any epsilon, but not on a down node.
        shapes = [(0, 2, 0.0, 0.0), (1, 1, 0.5, 0.25)]
        result = self._pack(name, shapes, 3, [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)])
        assert result.assignments == {1: (1,), 0: (1, 1)}
        assert result.bins_used == 1

    @pytest.mark.parametrize("name, bin_", [("first-fit", 0), ("best-fit", 1), ("worst-fit", 0)])
    def test_a_too_small_bin_stays_open_for_a_later_task(self, name, bin_):
        shapes = [(0, 1, 0.75, 0.25), (1, 1, 0.25, 0.25)]
        result = self._pack(name, shapes, 2, [(0.5, 0.5), (1.0, 1.0)])
        assert result.assignments == {0: (1,), 1: (bin_,)}
        assert result.bins_used == 2 - bin_

    @pytest.mark.parametrize("name", ["first-fit", "best-fit", "worst-fit"])
    def test_a_task_beyond_every_bin_fails(self, name):
        assert not self._pack(name, [(0, 1, 1.5, 0.25)], 3).success
        assert not self._pack(name, [(0, 3, 0.5, 0.5)], 1).success
