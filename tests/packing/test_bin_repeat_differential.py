"""The fill that repeats bins against the fill that fills every bin.

``reference_mcb._fill`` is the run-grouped fill as it stood before a bin that
emptied no run was copied into the next bins of equal capacity.  Both fills
get the same record lists; they must return the same ``(success, bins_used,
assignments)`` — assignments in key order — and leave the lists in the same
state.  The draws aim at what the repeat count could get wrong: runs whose
``left - 1`` (or ``left``) is an exact multiple of what a bin takes, a bin
budget that ends mid-repeat, equal-capacity stretches broken by another pair
or a down node, and one run placed twice in a bin.

The copies of a bin are one ``_Copies`` record in the fill's step list,
expanded only when the per-job tuples are assembled.  Fills run both ways:
eagerly (the item entry's) and lazily (the job entry's, whose step list the
tests read before assembling it).  On the lazy side every job's written-out
steps must count up from task 0, and the assembler must join them in its
in-order pass without falling back to placing task by task.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing import mcb8
from repro.packing.mcb8 import _Copies, _fill, _written_out

from . import reference_mcb
from .test_mcb_differential import _engine_scale_instances, requirements

Capacities = Optional[List[Tuple[float, float]]]

#: Binary fractions that tile a unit bin: bins fill alike, so they repeat.
_TILES = [0.03125, 0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5]


def _lists(shapes: Sequence[Tuple[int, float, float]]) -> Tuple[List[list], List[list]]:
    """MCB8's two sorted record lists for ``(num_tasks, cpu, memory)`` per job
    (job ids in order): ``[cpu, memory, job_id, next task, left, sort value]``."""
    lists: Tuple[List[list], List[list]] = ([], [])
    for job_id, (num_tasks, cpu, memory) in enumerate(shapes):
        lists[0 if cpu >= memory else 1].append(
            [cpu, memory, job_id, 0, num_tasks, max(cpu, memory)]
        )
    for runs in lists:
        runs.sort(key=lambda record: (-record[5], record[2]))
    return lists


def _steps(result) -> list:
    """The steps and copy records a lazy success assembles on first read."""
    return result._assemble.args[0]


def _mid_list_records(steps: list) -> int:
    """Copy records with a placing step after them."""
    return sum(type(step) is _Copies for step in steps[:-1])


@contextlib.contextmanager
def _no_task_by_task_fallback():
    """Fail if the assembler leaves its in-order pass: a lazy fill's steps
    and records count every job up from task 0."""
    def fallback(steps):
        raise AssertionError("the job entry's steps fell back to task by task")
    with mock.patch.object(mcb8, "_written_out", fallback):
        yield


def assert_fills_agree(
    shapes, num_bins: int, capacities: Capacities = None, whole_jobs: bool = False
) -> Tuple:
    """Fill both ways; returns the live result, how many bins it repeated and,
    for a lazy success, its step list."""
    reference_lists, live_lists = _lists(shapes), _lists(shapes)
    expected = reference_mcb._fill(reference_lists, num_bins, capacities)
    actual, repeated = _fill(live_lists, num_bins, capacities, whole_jobs)
    steps = _steps(actual) if whole_jobs and actual.success else []
    placed: dict = {}
    for job_id, task_index, count, _ in _written_out(steps):
        assert task_index == placed.get(job_id, 0)
        placed[job_id] = task_index + count
    with _no_task_by_task_fallback() if steps else contextlib.nullcontext():
        assignments = list(actual.assignments.items())
    assert (actual.success, actual.bins_used, assignments) == (
        expected.success, expected.bins_used, list(expected.assignments.items())
    )
    assert live_lists == reference_lists
    return actual, repeated, steps


@st.composite
def tiles_or_any(draw) -> float:
    return draw(st.one_of(st.sampled_from(_TILES), requirements()))


@st.composite
def job_shapes(draw) -> List[Tuple[int, float, float]]:
    """1-6 jobs of 1-40 tasks; a task count is often a multiple of what a bin
    takes of the job alone, plus -1, 0, 1 or 2."""
    shapes = []
    for _ in range(draw(st.integers(1, 6))):
        cpu, memory = draw(tiles_or_any()), draw(tiles_or_any())
        per_bin = int(1.0 / max(cpu, memory, 1.0 / 64))
        if draw(st.booleans()):
            num_tasks = draw(st.integers(1, 40))
        else:
            num_tasks = per_bin * draw(st.integers(1, 6)) + draw(st.sampled_from([-1, 0, 1, 2]))
        shapes.append((max(1, min(40, num_tasks)), cpu, memory))
    return shapes


@st.composite
def capacity_stretches(draw) -> List[Tuple[float, float]]:
    """Stretches of equal pairs, broken by another pair or a down node."""
    sizes = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 1.5), (0.75, 0.75)]
    capacities: List[Tuple[float, float]] = []
    for _ in range(draw(st.integers(1, 6))):
        capacities += [draw(st.sampled_from(sizes))] * draw(st.integers(1, 12))
    return capacities


class TestDrawnFills:
    """Each draw fills lazily (the job entry's way) or eagerly (the item
    entry's)."""

    @given(job_shapes(), st.integers(8, 128), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_unit_bins(self, shapes, num_bins, whole_jobs):
        assert_fills_agree(shapes, num_bins, whole_jobs=whole_jobs)

    @given(job_shapes(), capacity_stretches(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_capacity_stretches(self, shapes, capacities, whole_jobs):
        assert_fills_agree(shapes, len(capacities), capacities, whole_jobs=whole_jobs)

    @given(job_shapes(), st.integers(0, 3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_the_bin_budget_ends_mid_repeat(self, shapes, short, whole_jobs):
        """Exactly the bins a roomy fill uses, or up to three fewer: a copy
        record often has the last bins' steps after it."""
        roomy = reference_mcb._fill(_lists(shapes), 400, None)
        if roomy.success:
            assert_fills_agree(shapes, max(0, roomy.bins_used - short), whole_jobs=whole_jobs)

    @given(job_shapes(), st.integers(1, 12), st.integers(1, 40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_a_down_node_breaks_a_unit_stretch(self, shapes, before, after, whole_jobs):
        """The copies stop at the down node and the fill goes on after it, so
        a copy record has steps after it."""
        capacities = [(1.0, 1.0)] * before + [(0.0, 0.0)] + [(1.0, 1.0)] * after
        assert_fills_agree(shapes, len(capacities), capacities, whole_jobs=whole_jobs)


class TestNamedRepeats:
    """Hand-walked fills; every requirement is a binary fraction, so every sum
    below is exact."""

    def test_a_lone_run_repeats_until_one_bin_would_empty_it(self):
        # Two tasks a bin: bin 0 leaves 6, (6 - 1) // 2 = 2 copies leave 2,
        # and bin 3 empties the run.
        result, repeated, _ = assert_fills_agree([(8, 0.5, 0.25)], 4)
        assert result.assignments == {0: (0, 0, 1, 1, 2, 2, 3, 3)}
        assert (result.bins_used, repeated) == (4, 2)

    @pytest.mark.parametrize("left, repeated", [(7, 3), (8, 3), (9, 4)])
    def test_left_is_a_multiple_of_what_a_bin_takes(self, left, repeated):
        # Bin 0 takes two tasks and leaves ``left``; (left - 1) // 2 bins are
        # copies.  At 8, a multiple of 2, the fourth copy would empty the run:
        # that bin is filled normally.
        result, copies, _ = assert_fills_agree([(left + 2, 0.5, 0.25)], 20)
        assert result.success and copies == repeated

    def test_one_run_placed_twice_in_a_bin(self):
        # The balance rule alternates the two runs: a bin takes job 0, 1, 0,
        # 1, 0 — three tasks of one run and two of the other.
        result, repeated, _ = assert_fills_agree([(30, 0.25, 0.125), (20, 0.125, 0.25)], 10)
        assert result.assignments[0][:6] == (0, 0, 0, 1, 1, 1)
        assert result.assignments[1][:4] == (0, 0, 1, 1)
        assert repeated == 8

    @pytest.mark.parametrize(
        "num_bins, success, repeated", [(3, False, 2), (5, False, 4), (6, True, 4), (7, True, 4)]
    )
    def test_the_budget_caps_the_copies(self, num_bins, success, repeated):
        # Six bins of two tasks; bin 0's copies stop at the budget.
        result, copies, _ = assert_fills_agree([(12, 0.5, 0.25)], num_bins)
        assert (result.success, copies) == (success, repeated)

    def test_copied_bins_are_one_record(self):
        # Four tasks a bin: bin 0 leaves 60, (60 - 1) // 4 = 14 copies leave
        # 4, and bin 15 empties the run.  The steps are bin 0's, one record
        # for bins 1-14, and bin 15's.
        result, repeated, steps = assert_fills_agree([(64, 0.25, 0.125)], 16, whole_jobs=True)
        assert repeated == 14
        assert steps == [(0, 0, 4, 0), _Copies([(0, 0, 4, 0)], [4], 0, 14), (0, 60, 4, 15)]
        assert result.assignments == {0: tuple(b for b in range(16) for _ in range(4))}

    def test_every_bin_repeats_and_keeps_one_record(self):
        # Bin 0 takes five steps (job 0, 1, 0, 1, 0) and bins 1-8 copy it;
        # bin 9 empties both runs.  One step per copied step would be 40.
        _, repeated, steps = assert_fills_agree(
            [(30, 0.25, 0.125), (20, 0.125, 0.25)], 10, whole_jobs=True
        )
        assert repeated == 8
        assert [type(step) is _Copies for step in steps] == [False] * 5 + [True] + [False] * 5
        assert steps[5].shifts == [3, 2, 3, 2, 3] and steps[5].copies == 8

    def test_copies_stop_at_a_different_capacity_or_a_down_node(self):
        capacities = [(1.0, 1.0)] * 2 + [(0.0, 0.0)] + [(1.0, 1.0)] * 2 + [(2.0, 1.0)]
        result, repeated, _ = assert_fills_agree([(11, 0.5, 0.25)], 6, capacities)
        assert result.assignments == {0: (0, 0, 1, 1, 3, 3, 4, 4, 5, 5, 5)}
        assert repeated == 2

    def test_a_down_node_hosts_nothing(self):
        # The parent fill granted the (0, 0) bin its epsilon.
        result, _, _ = assert_fills_agree([(1, 1e-10, 1e-10)], 3, [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])
        assert result.assignments == {0: (1,)}


def test_engine_scale_sweep_repeats_bins():
    """What a DYNMCB8 repack packs, at three yields: the differential is not
    vacuous on either kind of bins."""
    repeated = {True: 0, False: 0}
    for jobs, num_bins, capacities in _engine_scale_instances(60):
        for yield_value in (0.01, 0.5, 1.0):
            shapes = [
                (job.num_tasks, job.cpu_requirement(yield_value), job.mem_requirement)
                for job in jobs
            ]
            _, copies, _ = assert_fills_agree(shapes, num_bins, capacities)
            repeated[capacities is None] += copies
    assert repeated[True] > 0 and repeated[False] > 0


def test_engine_scale_sweep_expands_records_mid_list():
    """What a DYNMCB8 repack packs, on a bin budget cut to what the fill uses
    and on unit bins with every seventh one down: records land mid-list, and
    lazy and eager fills agree with the oracle."""
    mid_list = {"budget": 0, "down": 0}
    for jobs, num_bins, _ in _engine_scale_instances(30):
        for yield_value in (0.01, 0.5):
            shapes = [
                (job.num_tasks, job.cpu_requirement(yield_value), job.mem_requirement)
                for job in jobs
            ]
            roomy = reference_mcb._fill(_lists(shapes), 400, None)
            down = [(0.0, 0.0) if b % 7 == 6 else (1.0, 1.0) for b in range(num_bins)]
            for kind, bins, capacities in [
                ("budget", roomy.bins_used, None), ("down", num_bins, down)
            ]:
                assert_fills_agree(shapes, bins, capacities)
                _, _, steps = assert_fills_agree(shapes, bins, capacities, whole_jobs=True)
                mid_list[kind] += _mid_list_records(steps)
    assert mid_list["budget"] > 0 and mid_list["down"] > 0
