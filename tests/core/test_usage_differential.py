"""The bulk usage tally against the task-by-task tally it replaced.

``reference_usage.py`` keeps the parent commit's scalar ``add_task`` /
``remove_task`` / ``add_job`` bodies, its ``usage_from_placements`` and its
``validate_decision`` verbatim.  The live code reads and writes the same
arrays through memoryviews and tallies a whole decision in one loop; that is
only an optimisation if nothing can tell: on every generated input the live
code must leave the same *bytes* in all four vectors when the oracle accepts,
and raise the same exception type with the same text when it refuses.

The generators collide on purpose: few nodes, memory and CPU values from a
short grid that includes per-node sums of exactly ``1 + CAPACITY_EPSILON`` and
one ulp above, repeated nodes within a job, down nodes, node-class capacity
vectors, pre-filled tallies passed as ``usage=``, unknown jobs, wrong arities
and out-of-range nodes on either side of a capacity violation.

``add_jobs`` takes a list of at least ``BULK_MIN_TASKS`` tasks through a
vector pass (``np.add.at`` plus a verdict on the final vectors) and falls back
to its loop on any refusal.  Every property that reaches ``add_jobs`` runs on
both sides — ``_tally_path("loop")`` never takes the vector pass,
``_tally_path("vector")`` takes it for every list — and the two must leave the
same bytes and raise the same error; the large draws cross the real constant.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import product
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.cluster as cluster_module
from repro.core.allocation import AllocationDecision, JobAllocation, validate_decision
from repro.core.cluster import CAPACITY_EPSILON, Cluster, ClusterUsage
from repro.exceptions import AllocationError, InfeasibleAllocationError
from repro.schedulers.dfrs.placement import greedy_place_job, usage_from_placements

from ..conftest import least_loaded
from . import reference_usage
from .reference_usage import ReferenceUsage

#: The homogeneous capacity limit exactly as the tally computes it.
LIMIT = 1.0 + CAPACITY_EPSILON
#: ``0.5 + EDGE == LIMIT`` exactly (Sterbenz); ``0.5 + OVER`` is the next
#: double above the limit.
EDGE = LIMIT - 0.5
OVER = EDGE
while 0.5 + OVER <= LIMIT:
    OVER = math.nextafter(OVER, 2.0)

_AMOUNTS = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, EDGE, OVER, 0.7, 1.0]
_YIELDS = [0.01, 0.1, 0.3, 0.5, EDGE, OVER, 1.0]
_CAPACITIES = [0.5, 1.0, 2.0]

Task = Tuple[int, float, float, float]


@contextmanager
def _tally_path(path: str):
    """Move ``BULK_MIN_TASKS`` so that ``add_jobs`` takes ``path``."""
    saved = cluster_module.BULK_MIN_TASKS
    cluster_module.BULK_MIN_TASKS = {"loop": 2**62, "vector": 1}[path]
    try:
        yield
    finally:
        cluster_module.BULK_MIN_TASKS = saved


def test_the_edge_values_straddle_the_limit():
    assert 0.5 + EDGE == LIMIT
    assert 0.5 + OVER == math.nextafter(LIMIT, 2.0)


@st.composite
def clusters(draw) -> Cluster:
    nodes = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return Cluster(nodes)
    capacity = st.lists(st.sampled_from(_CAPACITIES), min_size=nodes, max_size=nodes)
    return Cluster(nodes, cpu_capacities=draw(capacity), mem_capacities=draw(capacity))


def down_sets(cluster: Cluster):
    return st.sets(st.integers(0, cluster.num_nodes - 1), max_size=2)


def tasks(cluster: Cluster):
    return st.tuples(
        st.integers(0, cluster.num_nodes - 1),
        st.sampled_from(_AMOUNTS),
        st.sampled_from(_AMOUNTS),
        st.sampled_from(_YIELDS),
    )


def _pair(cluster: Cluster, down, prefill: List[Task]) -> Tuple[ClusterUsage, ReferenceUsage]:
    """The live tally and the oracle, equally pre-filled (unchecked)."""
    live, oracle = cluster.usage(down), ReferenceUsage(cluster, down)
    for usage in (live, oracle):
        for task in prefill:
            usage.add_task(*task, check=False)
    return live, oracle


def _vectors(usage: ClusterUsage) -> Tuple[bytes, bytes, bytes, bytes]:
    return (
        usage.memory_vector().tobytes(),
        usage.cpu_alloc_vector().tobytes(),
        usage.cpu_load_vector().tobytes(),
        usage._tasks.tobytes(),
    )


def _outcome(call: Callable[[], ClusterUsage]):
    try:
        return _vectors(call())
    except AllocationError as exc:
        return type(exc), str(exc)


# --------------------------------------------------------------------------- #
# validate_decision
# --------------------------------------------------------------------------- #
@st.composite
def decisions(draw):
    """A cluster, a down set, a pre-fill, a decision and the specs it is
    checked against — wrong in every way the validator knows, often.  Some
    decisions are large enough to cross ``BULK_MIN_TASKS`` unpatched."""
    cluster = draw(clusters())
    max_jobs, max_tasks = draw(st.sampled_from([(6, 4), (40, 6)]))
    n = cluster.num_nodes
    # Mostly in range; -1 and n are the wrap-around and one-past-the-end cases.
    node = st.one_of(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-1, n))
    running: Dict[int, JobAllocation] = {}
    specs: Dict[int, SimpleNamespace] = {}
    for job_id in draw(st.permutations(range(draw(st.integers(1, max_jobs))))):
        nodes = tuple(draw(st.lists(node, min_size=1, max_size=max_tasks)))
        running[job_id] = JobAllocation(nodes, draw(st.sampled_from(_YIELDS)))
        if draw(st.integers(0, 11)) == 0:
            continue  # unknown job
        arity = len(nodes) + (draw(st.integers(0, 11)) == 0)
        specs[job_id] = SimpleNamespace(
            num_tasks=arity,
            cpu_need=draw(st.sampled_from(_AMOUNTS)),
            mem_requirement=draw(st.sampled_from(_AMOUNTS)),
        )
    prefill = draw(st.lists(tasks(cluster), max_size=3))
    return cluster, draw(down_sets(cluster)), prefill, AllocationDecision(running), specs


@given(decisions(), st.booleans())
def test_validate_decision_matches_the_scalar_oracle(drawn, pass_usage):
    """The vector pass gives the loop's verdict, text and — on a tally
    passed in — partial vectors; the verdict and text are the oracle's."""
    cluster, down, prefill, decision, specs = drawn
    results = []
    for path in ("loop", "vector"):
        live = _pair(cluster, down, prefill)[0] if pass_usage else None
        with _tally_path(path):
            outcome = _outcome(lambda: validate_decision(decision, specs, cluster, usage=live))
        results.append((outcome, None if live is None else _vectors(live)))
    assert results[0] == results[1]
    oracle = _pair(cluster, down, prefill)[1] if pass_usage else None
    assert results[0][0] == _outcome(
        lambda: reference_usage.validate_decision(decision, specs, cluster, usage=oracle)
    )


def _specs(**jobs):
    return {
        int(name[1:]): SimpleNamespace(num_tasks=tasks, cpu_need=cpu, mem_requirement=mem)
        for name, (tasks, cpu, mem) in jobs.items()
    }


_NAMED = {
    # job 1 overcommits node 0 before job 2 names a node that does not exist
    "capacity-then-range": (
        {0: ((0,), 1.0), 1: ((0,), 1.0), 2: ((4,), 1.0)},
        _specs(j0=(1, 0.1, 0.6), j1=(1, 0.1, 0.6), j2=(1, 0.1, 0.1)),
        (InfeasibleAllocationError, "job 1: node 0: memory 0.6000 + 0.6000 exceeds capacity"),
    ),
    # the same jobs, the out-of-range one first
    "range-then-capacity": (
        {2: ((4,), 1.0), 0: ((0,), 1.0), 1: ((0,), 1.0)},
        _specs(j0=(1, 0.1, 0.6), j1=(1, 0.1, 0.6), j2=(1, 0.1, 0.1)),
        (AllocationError, "job 2: node index 4 out of range [0, 4)"),
    ),
    # a job's nodes are range-checked before any of its tasks is tallied
    "range-inside-a-violating-job": (
        {0: ((0,), 1.0), 1: ((0, -1), 1.0)},
        _specs(j0=(1, 0.1, 0.6), j1=(2, 0.1, 0.6)),
        (AllocationError, "job 1: node index -1 out of range [0, 4)"),
    ),
    "unknown-after-capacity": (
        {0: ((1, 1), 1.0), 9: ((0,), 1.0)},
        _specs(j0=(2, 0.6, 0.1)),
        (InfeasibleAllocationError, "job 0: node 1: CPU allocation 0.6000 + 0.6000 exceeds capacity"),
    ),
    "arity-before-capacity": (
        {0: ((0,), 1.0), 1: ((1, 1), 1.0)},
        _specs(j0=(2, 0.1, 0.1), j1=(2, 0.1, 0.6)),
        (AllocationError, "job 0: allocation places 1 tasks but the job has 2"),
    ),
    # exactly 1 + epsilon on memory and on CPU: accepted
    "edge-accepted": (
        {0: ((0,), 0.5), 1: ((0,), EDGE)},
        _specs(j0=(1, 1.0, 0.5), j1=(1, 1.0, EDGE)),
        None,
    ),
    "one-ulp-over-memory": (
        {0: ((0,), 0.5), 1: ((0,), 0.5)},
        _specs(j0=(1, 0.1, 0.5), j1=(1, 0.1, OVER)),
        (InfeasibleAllocationError, "job 1: node 0: memory 0.5000 + 0.5000 exceeds capacity"),
    ),
    "one-ulp-over-cpu": (
        {0: ((0,), 0.5), 1: ((0,), OVER)},
        _specs(j0=(1, 1.0, 0.1), j1=(1, 1.0, 0.1)),
        (InfeasibleAllocationError, "job 1: node 0: CPU allocation 0.5000 + 0.5000 exceeds capacity"),
    ),
}


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_named_decisions(name):
    running, specs, expected = _NAMED[name]
    cluster = Cluster(4)
    decision = AllocationDecision(
        {job_id: JobAllocation(nodes, y) for job_id, (nodes, y) in running.items()}
    )
    for path in ("loop", "vector"):
        with _tally_path(path):
            live = _outcome(lambda: validate_decision(decision, specs, cluster))
        assert live == _outcome(
            lambda: reference_usage.validate_decision(decision, specs, cluster)
        )
        if expected is not None:
            assert live == expected
        else:
            assert isinstance(live[0], bytes)


def test_a_down_node_is_refused_by_name():
    cluster = Cluster(4)
    decision = AllocationDecision({7: JobAllocation((1, 2), 1.0)})
    specs = _specs(j7=(2, 0.1, 0.1))
    for path in ("loop", "vector"):
        usage = cluster.usage({2})
        with _tally_path(path), pytest.raises(
            InfeasibleAllocationError, match=r"^job 7: node 2 is unavailable \(down\)$"
        ):
            validate_decision(decision, specs, cluster, usage=usage)
        # the task on node 1 came first and stays
        assert [usage.task_count(node) for node in range(4)] == [0, 1, 0, 0]


# --------------------------------------------------------------------------- #
# add_job / add_task / remove_task / usage_from_placements
# --------------------------------------------------------------------------- #
@st.composite
def job_sequences(draw):
    cluster = draw(clusters())
    nodes = st.lists(st.integers(0, cluster.num_nodes - 1), min_size=1, max_size=5)
    job = st.tuples(
        nodes,
        st.sampled_from(_AMOUNTS),
        st.sampled_from(_AMOUNTS),
        st.sampled_from(_YIELDS),
        st.booleans(),
    )
    return cluster, draw(down_sets(cluster)), draw(st.lists(job, min_size=1, max_size=8))


@given(job_sequences())
def test_add_job_matches_the_scalar_oracle_rollbacks_included(drawn):
    """A refused job is removed task by task on both sides, so the residue a
    rollback leaves — ``(a + b) - b`` — is the oracle's, byte for byte."""
    cluster, down, jobs = drawn
    live, oracle = _pair(cluster, down, [])
    for nodes, cpu, mem, yield_value, check in jobs:
        outcomes = []
        for usage in (live, oracle):
            try:
                usage.add_job(nodes, cpu, mem, yield_value, check=check)
                outcomes.append(None)
            except InfeasibleAllocationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert _vectors(live) == _vectors(oracle)


@given(st.data())
def test_add_and_remove_task_match_the_scalar_oracle(data):
    cluster = data.draw(clusters())
    live, oracle = _pair(cluster, data.draw(down_sets(cluster)), [])
    placed: List[Task] = []
    for _ in range(data.draw(st.integers(1, 12))):
        if placed and data.draw(st.booleans()):
            task = placed.pop(data.draw(st.integers(0, len(placed) - 1)))
            live.remove_task(*task)
            oracle.remove_task(*task)
        else:
            task = data.draw(tasks(cluster))
            check = data.draw(st.booleans())
            outcomes = []
            for usage in (live, oracle):
                try:
                    usage.add_task(*task, check=check)
                    outcomes.append(None)
                except InfeasibleAllocationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is None:
                placed.append(task)
        assert _vectors(live) == _vectors(oracle)


@given(st.data())
def test_usage_from_placements_matches_the_scalar_oracle(data):
    cluster = data.draw(clusters())
    down = data.draw(down_sets(cluster))
    nodes = st.lists(st.integers(0, cluster.num_nodes - 1), min_size=1, max_size=8)
    job_ids = st.integers(0, 60)
    placements = data.draw(st.dictionaries(job_ids, nodes.map(tuple), max_size=30))
    jobs = {
        job_id: SimpleNamespace(
            cpu_need=data.draw(st.sampled_from(_AMOUNTS)),
            mem_requirement=data.draw(st.sampled_from(_AMOUNTS)),
        )
        for job_id in placements
    }
    oracle = reference_usage.usage_from_placements(placements, jobs, cluster, unavailable=down)
    for path in ("loop", "vector"):
        with _tally_path(path):
            live = usage_from_placements(placements, jobs, cluster, unavailable=down)
        assert _vectors(live) == _vectors(oracle)
        assert live.unavailable_nodes() == oracle.unavailable_nodes() == frozenset(down)


#: ``add_jobs`` addends: the shared grid plus a negative one, which the
#: vector verdict cannot judge from the final sums (the loop must run).
_ADDENDS = _AMOUNTS + [-0.25]


@given(st.data())
def test_add_jobs_matches_the_scalar_oracle_on_both_paths(data):
    """Any pre-fill (over capacity too), checked or not: the tally and the
    first error are the task-by-task oracle's on both sides of the size
    switch, refusals included."""
    cluster = data.draw(clusters())
    down = data.draw(down_sets(cluster))
    prefill = data.draw(st.lists(tasks(cluster), max_size=2 * cluster.num_nodes))
    nodes = st.lists(st.integers(0, cluster.num_nodes - 1), min_size=0, max_size=8)
    amount = st.sampled_from(_ADDENDS)
    entries = data.draw(
        st.lists(st.tuples(nodes.map(tuple), amount, amount, st.sampled_from(_YIELDS)), max_size=24)
    )
    check = data.draw(st.booleans())
    outcomes = []
    for path in ("loop", "vector", "oracle"):
        live, oracle = _pair(cluster, down, prefill)
        try:
            if path == "oracle":
                for nodes_of_job, cpu, mem, yield_value in entries:
                    for node in nodes_of_job:
                        oracle.add_task(node, cpu, mem, yield_value, check=check)
            else:
                with _tally_path(path):
                    live.add_jobs(entries, check=check)
            error = None
        except InfeasibleAllocationError as exc:
            error = str(exc)
        outcomes.append((error, _vectors(oracle if path == "oracle" else live)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_the_vector_pass_adds_onto_the_tally_in_order():
    """``np.add.at`` continues from the tally's own sums: a per-node sum of
    the new tasks added on at the end would round differently."""
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    entries = [((0,), 0.2, 0.2, 1.0), ((0,), 0.3, 0.3, 1.0)]
    for path in ("loop", "vector"):
        live, oracle = _pair(Cluster(2), (), [(0, 0.1, 0.1, 1.0)])
        with _tally_path(path):
            live.add_jobs(entries)
        for entry in entries:
            oracle.add_job(*entry)
        assert _vectors(live) == _vectors(oracle)
        assert live.memory_used(0) == (0.1 + 0.2) + 0.3


def test_a_refused_vector_pass_leaves_the_loops_partial_tally():
    """The vector pass is undone and the loop re-runs: the tasks before the
    refused one stay, the rest are not stored."""
    entries = [((0, 1), 0.5, 0.4, 1.0), ((1, 0), 0.5, 0.4, 1.0), ((0,), 0.5, 0.4, 1.0)]
    results = []
    for path in ("loop", "vector"):
        usage = Cluster(2).usage()
        with _tally_path(path), pytest.raises(
            InfeasibleAllocationError, match="^node 0: memory 0.8000 [+] 0.4000 exceeds capacity$"
        ):
            usage.add_jobs(entries)
        assert [usage.task_count(node) for node in range(2)] == [2, 2]
        results.append(_vectors(usage))
    assert results[0] == results[1]


def test_tasks_are_tallied_in_the_order_given():
    """Per-node float sums depend on the order of the additions; the bulk
    loop keeps the caller's job order and task order."""
    amounts = [0.1, 0.2, 0.3]
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    for order, path in product((amounts, amounts[::-1]), ("loop", "vector")):
        live, oracle = _pair(Cluster(2), (), [])
        entries = [((1, 0), amount, amount, 1.0) for amount in order]
        with _tally_path(path):
            live.add_jobs(entries, check=False)
        for entry in entries:
            oracle.add_job(*entry, check=False)
        assert _vectors(live) == _vectors(oracle)
    # ... and a job's own tasks in tuple order: the first task refused is the
    # first one in the tuple that does not fit.
    for path in ("loop", "vector"):
        usage = Cluster(3).usage()
        usage.add_task(2, 0.1, 0.9, 0.0)
        usage.add_task(0, 0.1, 0.9, 0.0)
        with _tally_path(path), pytest.raises(InfeasibleAllocationError, match="^node 2: memory"):
            usage.add_jobs([((1, 2, 0), 0.1, 0.5, 0.0)])
        assert [usage.task_count(node) for node in range(3)] == [1, 1, 1]


# --------------------------------------------------------------------------- #
# node indices the tally refuses
# --------------------------------------------------------------------------- #
class TestNodeRange:
    @pytest.mark.parametrize("node", [-1, 4, -5, 400])
    @pytest.mark.parametrize("check", [True, False])
    def test_add_task_refuses_and_stores_nothing(self, node, check):
        usage = Cluster(4).usage()
        with pytest.raises(AllocationError, match=rf"^node index {node} out of range \[0, 4\)$") as info:
            usage.add_task(node, 0.5, 0.5, 1.0, check=check)
        assert not isinstance(info.value, InfeasibleAllocationError)
        assert _vectors(usage) == _vectors(Cluster(4).usage())

    @pytest.mark.parametrize("node", [-1, 4, -5, 400])
    def test_remove_task_refuses_and_debits_nothing(self, node):
        """-1 used to wrap around and debit the last node."""
        usage, untouched = Cluster(4).usage(), Cluster(4).usage()
        for each in (usage, untouched):
            each.add_task(3, 0.5, 0.5, 1.0)
        with pytest.raises(AllocationError, match=rf"^node index {node} out of range \[0, 4\)$") as info:
            usage.remove_task(node, 0.5, 0.5, 1.0)
        assert not isinstance(info.value, InfeasibleAllocationError)
        assert _vectors(usage) == _vectors(untouched)

    @pytest.mark.parametrize("check", [True, False])
    def test_add_job_refuses_before_charging_any_node(self, check):
        usage = Cluster(4).usage()
        with pytest.raises(AllocationError, match=r"^node index 7 out of range \[0, 4\)$"):
            usage.add_job([0, 7], 0.5, 0.5, 1.0, check=check)
        assert _vectors(usage) == _vectors(Cluster(4).usage())

    def test_add_jobs_names_the_first_offender_of_the_first_bad_entry(self):
        for path, check in product(("loop", "vector"), (True, False)):
            usage = Cluster(4).usage()
            with _tally_path(path), pytest.raises(
                AllocationError, match=r"^node index -2 out of range \[0, 4\)$"
            ):
                usage.add_jobs(
                    [((0, 1), 0.1, 0.1, 1.0), ((3, -2, 9), 0.1, 0.1, 1.0)], check=check
                )
            # the entry before it is tallied, the bad one not at all
            assert [usage.task_count(node) for node in range(4)] == [1, 1, 0, 0]

    def test_numpy_indices_are_accepted(self):
        usage = Cluster(4).usage()
        usage.add_job(np.array([1, 3]), 0.1, 0.1, 1.0)
        usage.add_task(np.int64(1), 0.1, 0.1, 1.0)
        assert [usage.task_count(node) for node in range(4)] == [0, 2, 0, 1]

    def test_add_job_is_all_or_nothing_for_any_exception(self):
        class Exploding(frozenset):
            def __contains__(self, node):
                if node == 2:
                    raise RuntimeError("boom")
                return False

        usage = Cluster(4).usage()
        usage._down = Exploding()
        with pytest.raises(RuntimeError, match="boom"):
            usage.add_job([0, 1, 2, 3], 0.5, 0.5, 1.0)
        assert _vectors(usage) == _vectors(Cluster(4).usage())


# --------------------------------------------------------------------------- #
# the views alias the arrays
# --------------------------------------------------------------------------- #
class TestAliasing:
    def test_scalar_writes_are_visible_to_every_vector_reader(self):
        usage = Cluster(3).usage()
        usage.add_task(0, 0.5, 0.9, 1.0)
        usage.add_jobs([((1,), 0.25, 0.2, 1.0)])
        assert usage.memory_vector().tolist() == [0.9, 0.2, 0.0]
        assert usage.cpu_load_vector().tolist() == [0.5, 0.25, 0.0]
        assert usage.cpu_alloc_vector().tolist() == [0.5, 0.25, 0.0]
        assert usage.busy_nodes() == 2 and usage.max_cpu_load() == 0.5
        # node 2 is the least loaded; once it is full node 1 is; node 0 never fits
        assert least_loaded(usage, 0.5) == 2
        usage.add_task(2, 0.1, 0.9, 0.0)
        assert least_loaded(usage, 0.5) == 1
        clone = usage.snapshot()
        assert _vectors(clone) == _vectors(usage)
        usage.remove_task(2, 0.1, 0.9, 0.0)
        assert least_loaded(usage, 0.5) == 2
        assert least_loaded(clone, 0.5) == 1

    def test_copy_from_keeps_the_views_valid(self):
        source, target = Cluster(3).usage(), Cluster(3).usage()
        source.add_task(1, 0.5, 0.5, 1.0)
        target.add_task(0, 0.1, 0.1, 1.0)
        target.copy_from(source)
        target.add_task(1, 0.25, 0.25, 1.0)  # through the views, after the copy
        assert target.memory_vector().tolist() == [0.0, 0.75, 0.0]
        assert target.memory_used(1) == 0.75 and target.task_count(1) == 2
        assert source.memory_vector().tolist() == [0.0, 0.5, 0.0]

    def test_vector_accessors_still_return_copies(self):
        usage = Cluster(2).usage()
        usage.add_task(0, 0.5, 0.5, 1.0)
        for vector in (usage.memory_vector(), usage.cpu_load_vector(), usage.cpu_alloc_vector()):
            vector[0] = 99.0
        assert _vectors(usage) == _vectors(_pair(Cluster(2), (), [(0, 0.5, 0.5, 1.0)])[1])

    def test_capacity_views_read_the_node_class_limits(self):
        cluster = Cluster(2, cpu_capacities=[2.0, 0.5], mem_capacities=[0.5, 2.0])
        usage = cluster.usage()
        usage.add_jobs([((0, 1), 1.0, 0.25, 0.5)])
        with pytest.raises(InfeasibleAllocationError, match="^node 0: memory 0.2500"):
            usage.add_task(0, 0.1, 0.3, 0.0)
        with pytest.raises(InfeasibleAllocationError, match="^node 1: CPU allocation 0.5000"):
            usage.add_jobs([((1,), 0.1, 0.1, 1.0)])


# --------------------------------------------------------------------------- #
# GREEDY: a failed placement leaves the oracle's residue
# --------------------------------------------------------------------------- #
#: Job memory sizes: several slots a node (0.1, 0.2, 0.25), one (0.5, 0.7,
#: 1.0), two whose second lands exactly on the limit, or one ulp past it
#: (``HALF`` + ``HALF`` == ``LIMIT``), and zero (a fitting node never fills).
HALF = LIMIT / 2
_PLACE_MEMS = _AMOUNTS + [HALF, math.nextafter(HALF, 2.0)]
#: Needs: a tiny negative one takes a load below zero and back, so a removal
#: other than the last passes a clamp.
_PLACE_NEEDS = _AMOUNTS + [-4e-10]


@contextmanager
def _fast_path_verdicts():
    """Record what each ``ClusterUsage._write_failed_placement`` call returned
    (True: the residue was written and nothing placed)."""
    verdicts: List[bool] = []
    original = ClusterUsage._write_failed_placement

    def spy(self, *args):
        verdicts.append(original(self, *args))
        return verdicts[-1]

    with mock.patch.object(ClusterUsage, "_write_failed_placement", spy):
        yield verdicts


def _placed(usage: ClusterUsage, place: Callable[[], object]):
    """What ``place()`` returned or raised, and the four vectors after it."""
    try:
        outcome = place()
    except AllocationError as exc:
        outcome = (type(exc), str(exc))
    return outcome, _vectors(usage)


@given(st.data())
def test_failed_greedy_placement_leaves_the_oracle_residue(data):
    """``place_least_loaded`` against the parent's (which placed every slot and
    removed each task again) and the per-task scan: the same nodes or None,
    the same bytes in all four vectors, and the same error.  Later
    least-loaded ties see the ``(a + b) - b`` rounding a failure leaves, and
    the pinned placement logs were produced with it.

    Nodes hold zero to several slots of the job's size; jobs often have more
    tasks than fitting nodes, so the slot count decides; node classes, down
    nodes, zero-memory jobs and slots ending exactly on ``limit +
    CAPACITY_EPSILON`` are drawn, and a node's pre-fill at a drawn yield may
    over-allocate its CPU (``add_task`` then refuses it)."""
    cluster = data.draw(clusters())
    prefill = [
        (node, cpu, mem, yield_value if data.draw(st.integers(0, 5)) == 0 else 0.0)
        for node, cpu, mem, yield_value in data.draw(
            st.lists(tasks(cluster), max_size=2 * cluster.num_nodes)
        )
    ]
    down = data.draw(down_sets(cluster))
    live, oracle = _pair(cluster, down, prefill)
    scan = _pair(cluster, down, prefill)[1]
    for _ in range(data.draw(st.integers(1, 4))):
        view = SimpleNamespace(
            num_tasks=data.draw(st.integers(1, 4 * cluster.num_nodes + 2)),
            cpu_need=data.draw(st.sampled_from(_PLACE_NEEDS)),
            mem_requirement=data.draw(st.sampled_from(_PLACE_MEMS)),
        )
        expected = _placed(oracle, lambda: oracle.place_least_loaded(
            view.num_tasks, view.cpu_need, view.mem_requirement
        ))
        assert _placed(live, lambda: greedy_place_job(view, live)) == expected
        assert _placed(scan, lambda: reference_usage.greedy_place_job(view, scan)) == expected


def test_a_failed_placement_does_leave_a_residue():
    """Non-vacuity for the test above: the fast path writes the residue, and
    the residue exists and is kept."""
    live, oracle = _pair(Cluster(2), (), [(0, 0.1, 0.6, 0.0), (1, 0.1, 0.6, 0.0)])
    view = SimpleNamespace(num_tasks=3, cpu_need=0.2, mem_requirement=0.3)
    with _fast_path_verdicts() as verdicts:
        assert greedy_place_job(view, live) is None
    assert verdicts == [True]
    assert reference_usage.greedy_place_job(view, oracle) is None
    assert live.cpu_load(0) == (0.1 + 0.2) - 0.2 != 0.1
    assert _vectors(live) == _vectors(oracle)


def test_the_clamps_run_after_every_removal():
    """Node 0 has two slots for three tasks; a need of -4e-10 takes its load
    to -8e-10, and the first removal's -4e-10 is clamped to 0.0 before the
    second adds 4e-10 back."""
    live, oracle = _pair(Cluster(2), (), [(1, 0.1, 1.0, 0.0)])
    with _fast_path_verdicts() as verdicts:
        assert live.place_least_loaded(3, -4e-10, 0.5) is None
    assert verdicts == [True]
    assert oracle.place_least_loaded(3, -4e-10, 0.5) is None
    assert live.cpu_load(0) == 4e-10
    assert _vectors(live) == _vectors(oracle)


def test_an_over_allocated_node_takes_the_task_by_task_path():
    """Five slots for six tasks, but node 0's CPU allocation already exceeds
    its limit: the task-by-task placement fills node 2, then node 1, and
    ``add_task`` refuses node 0.  The fast path declines, so the error and
    the partial tally are that placement's."""
    prefill = [(0, 1.5, 0.6, 1.0), (1, 0.1, 0.6, 0.0)]
    live, oracle = _pair(Cluster(3), (), prefill)
    with _fast_path_verdicts() as verdicts:
        outcome = _placed(live, lambda: live.place_least_loaded(6, 0.2, 0.3))
    assert verdicts == [False]
    assert outcome == _placed(oracle, lambda: oracle.place_least_loaded(6, 0.2, 0.3))
    assert outcome[0] == (
        InfeasibleAllocationError, "node 0: CPU allocation 1.5000 + 0.0000 exceeds capacity"
    )
    assert [live.task_count(node) for node in range(3)] == [1, 2, 3]


def test_a_fitting_node_at_infinite_load_takes_the_task_by_task_path():
    """Node 1 has room but an infinite key: once node 2 is full every key is
    ``inf``, the argmin lands on node 0, which is full, and the placement
    stops with node 1 untouched.  It did not fill every slot, so the fast
    path declines."""
    prefill = [(0, 0.1, 1.0, 0.0), (1, math.inf, 0.1, 0.0), (2, 0.0, 0.7, 0.0)]
    live, oracle = _pair(Cluster(3), (), prefill)
    with _fast_path_verdicts() as verdicts:
        assert live.place_least_loaded(6, 0.1, 0.2) is None
    assert verdicts == [False]
    assert oracle.place_least_loaded(6, 0.1, 0.2) is None
    assert live.memory_used(1) == 0.1
    assert _vectors(live) == _vectors(oracle)


@pytest.mark.parametrize("num_tasks, placed", [(5, [2, 2, 2, 1, 0]), (6, None)])
def test_the_slot_count_decides_only_a_failure(num_tasks, placed):
    """Three fitting nodes hold five slots: five tasks are placed task by
    task, six fail without placing one."""
    live, oracle = _pair(Cluster(3), (), [(0, 0.3, 0.6, 0.0), (1, 0.2, 0.6, 0.0)])
    with _fast_path_verdicts() as verdicts:
        assert live.place_least_loaded(num_tasks, 0.05, 0.3) == placed
    assert verdicts == [placed is None]
    assert oracle.place_least_loaded(num_tasks, 0.05, 0.3) == placed
    assert _vectors(live) == _vectors(oracle)


@pytest.mark.parametrize("memory, placed", [(HALF, [0, 0]), (math.nextafter(HALF, 2.0), None)])
def test_a_slot_ending_exactly_on_the_limit_counts(memory, placed):
    """Two tasks on one empty node: the second of ``HALF`` lands exactly on
    ``LIMIT`` and fits; one ulp more and the job fails."""
    live, oracle = _pair(Cluster(1), (), [])
    assert live.place_least_loaded(2, 0.5, memory) == placed
    assert oracle.place_least_loaded(2, 0.5, memory) == placed
    assert _vectors(live) == _vectors(oracle)


def test_a_zero_memory_job_on_few_nodes_is_placed():
    """One up node and no memory per task: the slot count reaches the task
    count, so the placement goes task by task and succeeds."""
    live = Cluster(3).usage((0, 2))
    with _fast_path_verdicts() as verdicts:
        assert live.place_least_loaded(4, 0.5, 0.0) == [1, 1, 1, 1]
    assert verdicts == [False]


def test_the_down_mask_follows_every_way_the_down_set_is_set():
    """The fit mask is the one the down set gives, however the set was last
    assigned (``__init__``, ``snapshot``, ``set_unavailable``, ``copy_from``)."""

    def mask(usage: ClusterUsage) -> List[bool]:
        fits = usage.memory_vector() + 0.5 <= LIMIT
        fits[sorted(usage.unavailable_nodes())] = False
        return fits.tolist()

    def check(usage: ClusterUsage, expected: List[bool]) -> None:
        assert usage._memory_fits(usage._memory, 0.5).tolist() == mask(usage) == expected

    usage = Cluster(5).usage((3, 1))
    check(usage, [True, False, True, False, True])
    clone = usage.snapshot()
    usage.set_unavailable([4])
    check(usage, [True, True, True, True, False])
    check(clone, [True, False, True, False, True])
    usage.copy_from(Cluster(5).usage((0, 2)))
    check(usage, [False, True, False, True, True])
    usage.set_unavailable([])
    check(usage, [True] * 5)
