"""The leftover-CPU finalize against the recounting one it replaced.

``reference_yield_opt.py`` keeps the parent commit's ``fair_yields``,
``task_counts``, ``raise_yields_in_order`` and ``build_allocations``
verbatim.  The live finalize reads each job's ``(node, count × need)`` pairs
(carried across decisions by :class:`CarriedLoads`), tests eligibility and
takes the smallest quotient in one scan, and hands back a live allocation
the decision keeps.  Held here, yields compared with ``==`` and dicts in key
order:

* the ordered pass in its three orders — smallest total need, heaviest
  weight, and a key that reads the input yields (the stretch order) — on
  node CPU capacities up to 2000, mixed speeds and repeated nodes per job;
* the nudge branch (an increase ``<= 1e-9`` while eligible) on instances
  built to reach it, with a line trace of the oracle asserting it ran;
* carried loads over decision sequences where a job keeps its nodes (the
  same tuple or an equal one), reorders them, moves, or returns under its id
  with another ``cpu_need``;
* ``build_allocations`` against live allocations that match, differ in
  yield, differ only in node order, or place the job elsewhere;
* the GREEDY family's decisions over drawn context sequences with down
  nodes, against the same schedulers finalizing through the oracle.
"""

from __future__ import annotations

import inspect
import math
import sys
from typing import Dict, List, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.allocation import JobAllocation
from repro.core.cluster import CAPACITY_EPSILON, Cluster
from repro.core.context import SchedulingContext
from repro.core.job import MINIMUM_YIELD, JobState
from repro.schedulers.dfrs.greedy import GreedyScheduler
from repro.schedulers.dfrs.greedy_pmtn import GreedyPmtnMigrScheduler, GreedyPmtnScheduler
from repro.schedulers.dfrs.yield_opt import (
    CarriedLoads,
    build_allocations,
    fair_yields,
    improve_average_yield,
    job_loads,
    raise_yields_in_order,
)

from . import reference_yield_opt as reference
from .conftest import view

#: Node CPU capacities: slow, reference, fast, and far above 10.
_CAPACITIES = [0.5, 1.0, 2.0, 12.0, 16.0, 2000.0]
#: Per-task CPU needs, some whose task-by-task sum over six or seven tasks
#: rounds away from ``count × need``; ``count × need`` stays far below 1000
#: here, so only the constructed nudge instances can take the nudge branch.
_NEEDS = [0.1, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.4, 0.5, 0.7, 1.0, 3.0]
_NUDGE_LINE = "improved[job_id] = min(1.0, improved[job_id] + 1e-9)"


@st.composite
def _placed_jobs(draw, max_nodes: int = 6):
    """A cluster, job views and placements with repeated nodes per job; equal
    total needs, equal weights and equal stretches are common."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    capacities = draw(
        st.none()
        | st.lists(st.sampled_from(_CAPACITIES), min_size=num_nodes, max_size=num_nodes)
    )
    cluster = Cluster(num_nodes, cpu_capacities=capacities)
    jobs, placements = {}, {}
    for job_id in draw(st.lists(st.integers(0, 40), max_size=9, unique=True)):
        tasks = draw(st.integers(min_value=1, max_value=8))
        jobs[job_id] = view(
            job_id,
            tasks=tasks,
            cpu=draw(st.sampled_from(_NEEDS)),
            submit=draw(st.sampled_from([0.0, 100.0, 300.0])),
            vt=draw(st.sampled_from([0.0, 50.0, 200.0])),
        )
        placements[job_id] = tuple(
            draw(st.integers(0, num_nodes - 1)) for _ in range(tasks)
        )
    return cluster, jobs, placements


def _start_yields(data, placements, jobs, cluster) -> Dict[int, float]:
    """The fair start, each scaled by a drawn factor (just below saturation
    included), or a drawn yield anywhere in [MINIMUM_YIELD, 1]."""
    fair = fair_yields(placements, jobs, cluster)
    return {
        job_id: data.draw(
            st.sampled_from([value, value * 0.5, value * 0.999999999, 1.0])
            | st.floats(min_value=MINIMUM_YIELD, max_value=1.0)
        )
        for job_id, value in fair.items()
    }


def _keys(jobs, yields, weights):
    """The pass's three orders: smallest total need, heaviest weight (then
    smaller need), and worst estimated stretch at the *input* yields."""
    return {
        "average": lambda job_id: jobs[job_id].total_cpu_need,
        "weighted": lambda job_id: (-weights[job_id], jobs[job_id].total_cpu_need),
        "stretch": lambda job_id: -(
            (1000.0 - jobs[job_id].submit_time + 600.0)
            / max(jobs[job_id].virtual_time + yields[job_id] * 600.0, 1e-9)
        ),
    }


def _assert_same_yields(live: Dict[int, float], expected: Dict[int, float]) -> None:
    assert list(live) == list(expected)
    assert all(live[job_id] == expected[job_id] for job_id in expected)


def _reference_loads(placements, jobs) -> Dict[int, List[Tuple[int, float]]]:
    """The pairs the oracle charges: ``count * need`` per counted node."""
    return {
        job_id: [(node, count * jobs[job_id].cpu_need) for node, count in counts.items()]
        for job_id, counts in reference.task_counts(placements).items()
    }


def _call_tracing(function, marker: str, *args):
    """``function(*args)`` and how many times its line holding ``marker`` ran."""
    lines, first = inspect.getsourcelines(function)
    targets = {first + index for index, text in enumerate(lines) if marker in text}
    assert len(targets) == 1, targets
    code = function.__code__
    hits: List[int] = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in targets:
            hits.append(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = function(*args)
    finally:
        sys.settrace(previous)
    return result, len(hits)


class TestOrderedPass:
    @given(case=_placed_jobs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_three_orders_from_fresh_and_carried_loads(self, case, data):
        cluster, jobs, placements = case
        yields = _start_yields(data, placements, jobs, cluster)
        weights = {job_id: data.draw(st.sampled_from([0.5, 1.0, 3.0])) for job_id in jobs}
        carried = CarriedLoads()
        for name, key in _keys(jobs, yields, weights).items():
            expected = reference.raise_yields_in_order(placements, yields, jobs, cluster, key)
            _assert_same_yields(
                raise_yields_in_order(placements, yields, jobs, cluster, key), expected
            )
            _assert_same_yields(
                raise_yields_in_order(placements, yields, jobs, cluster, key, carried), expected
            )
        _assert_same_yields(
            improve_average_yield(placements, yields, jobs, cluster, carried),
            reference.improve_average_yield(placements, yields, jobs, cluster),
        )

    @given(case=_placed_jobs())
    @settings(max_examples=200, deadline=None)
    def test_fair_yields(self, case):
        cluster, jobs, placements = case
        _assert_same_yields(
            fair_yields(placements, jobs, cluster),
            reference.fair_yields(placements, jobs, cluster),
        )


@st.composite
def _nudge_cases(draw):
    """An ordinary instance plus one extra node where a heavy job (``count ×
    need`` above 1000, yield a few 1e-9 below the bar) has between
    ``CAPACITY_EPSILON`` and ``count × need × 1e-9`` of room, beside
    saturated co-tenants: its largest increase is at most 1e-9, so it takes
    the nudge branch, a few steps up to the bar."""
    cluster, jobs, placements = draw(_placed_jobs(max_nodes=4))
    heavy_node = cluster.num_nodes
    need = draw(st.sampled_from([400.0, 750.0, 1500.0]))
    count = draw(st.integers(min_value=2, max_value=4))
    load = count * need
    assume(load > 1100.0)
    heavy = 100
    entries = [(heavy, view(heavy, tasks=count, cpu=need, vt=draw(st.sampled_from([0.0, 50.0]))),
                (heavy_node,) * count)]
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        tasks = draw(st.integers(min_value=1, max_value=2))
        job_id = 101 + index
        entries.append(
            (job_id, view(job_id, tasks=tasks, cpu=draw(st.sampled_from([0.5, 1.0, 7.0]))),
             (heavy_node,) * tasks)
        )
    # The extra jobs go anywhere in placement order.
    order = list(placements.items())
    for job_id, job_view, nodes in entries:
        order.insert(draw(st.integers(min_value=0, max_value=len(order))), (job_id, nodes))
        jobs[job_id] = job_view
    placements = dict(order)

    start = {job_id: 1.0 for job_id in placements}
    start.update(fair_yields({j: placements[j] for j in placements if j < 100}, jobs, cluster))
    start[heavy] = 1.0 - draw(st.sampled_from([2, 3, 5])) * 1e-9
    # The extra node's charge, summed as the pass sums it; room sits inside
    # (CAPACITY_EPSILON, load × 1e-9].
    used = 0.0
    for job_id, nodes in placements.items():
        if nodes[0] == heavy_node:
            used += len(nodes) * jobs[job_id].cpu_need * start[job_id]
    room = CAPACITY_EPSILON + draw(st.sampled_from([0.25, 0.5, 0.75])) * (
        load * 1e-9 - CAPACITY_EPSILON
    )
    speeds = list(cluster.cpu_capacities or [1.0] * cluster.num_nodes)
    nudged = Cluster(cluster.num_nodes + 1, cpu_capacities=speeds + [used + room])
    actual_room = nudged.cpu_capacities[heavy_node] - used
    assume(CAPACITY_EPSILON < actual_room and actual_room / load <= 1e-9)
    return nudged, jobs, placements, start


@st.composite
def _limit_cases(draw):
    """An ordinary instance plus one extra node whose charge ends exactly at,
    one ulp below, or one ulp above its eligibility limit ``capacity −
    CAPACITY_EPSILON``: a saturated filler beside an unsaturated job."""
    cluster, jobs, placements = draw(_placed_jobs(max_nodes=4))
    edge_node = cluster.num_nodes
    capacity = draw(st.sampled_from(_CAPACITIES))
    limit = capacity - CAPACITY_EPSILON
    need, tasks = draw(st.sampled_from(_NEEDS)), draw(st.integers(min_value=1, max_value=3))
    start = {job_id: 1.0 for job_id in placements}
    start.update(fair_yields(placements, jobs, cluster))
    charge = tasks * need * 0.5
    assume(charge < limit)
    # The filler is placed first, so the node's charge is filler + charge.
    filler = limit - charge
    for _ in range(4):
        total = filler + charge
        if total == limit:
            break
        filler = math.nextafter(filler, limit if total < limit else 0.0)
    assume(filler + charge == limit)
    side = draw(st.sampled_from(["at", "below", "above"]))
    if side != "at":
        filler = math.nextafter(filler, 0.0 if side == "below" else capacity)
    jobs[200] = view(200, cpu=filler)
    jobs[201] = view(201, tasks=tasks, cpu=need)
    placements = {200: (edge_node,), **placements, 201: (edge_node,) * tasks}
    start[200], start[201] = 1.0, 0.5
    speeds = list(cluster.cpu_capacities or [1.0] * cluster.num_nodes)
    edged = Cluster(cluster.num_nodes + 1, cpu_capacities=speeds + [capacity])
    return edged, jobs, placements, start


class TestEligibilityLimit:
    @given(case=_limit_cases(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_node_charged_exactly_to_its_limit(self, case, data):
        cluster, jobs, placements, yields = case
        weights = {job_id: data.draw(st.sampled_from([0.5, 1.0, 3.0])) for job_id in jobs}
        carried = CarriedLoads()
        for key in _keys(jobs, yields, weights).values():
            _assert_same_yields(
                raise_yields_in_order(placements, yields, jobs, cluster, key, carried),
                reference.raise_yields_in_order(placements, yields, jobs, cluster, key),
            )


class TestNudgeBranch:
    @given(case=_nudge_cases(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_reached_and_matched_in_every_order(self, case, data):
        cluster, jobs, placements, yields = case
        weights = {job_id: data.draw(st.sampled_from([0.5, 1.0, 3.0])) for job_id in jobs}
        carried = CarriedLoads()
        for name, key in _keys(jobs, yields, weights).items():
            expected, nudges = _call_tracing(
                reference.raise_yields_in_order, _NUDGE_LINE,
                placements, yields, jobs, cluster, key,
            )
            assert nudges >= 1, name
            _assert_same_yields(
                raise_yields_in_order(placements, yields, jobs, cluster, key, carried), expected
            )
            # The stepped job ends at the bar; its node was never charged for it.
            assert expected[100] >= 1.0 - 1e-9

    def test_the_trace_sees_no_nudge_on_an_ordinary_pass(self):
        cluster = Cluster(1)
        jobs = {0: view(0, cpu=0.7), 1: view(1, cpu=0.4)}
        placements = {0: (0,), 1: (0,)}
        _, nudges = _call_tracing(
            reference.raise_yields_in_order, _NUDGE_LINE, placements, {0: 0.5, 1: 0.5},
            jobs, cluster, lambda job_id: jobs[job_id].total_cpu_need,
        )
        assert nudges == 0


def _next_placements(data, placements, jobs, num_nodes):
    """The next decision's placements: each job keeps its tuple, an equal
    copy, a reordering, or moves a task; some leave, some arrive, and some
    return under their id with another need."""
    following, views = {}, dict(jobs)
    for job_id, nodes in placements.items():
        change = data.draw(st.sampled_from(["same", "copy", "reorder", "move", "need", "leave"]))
        if change == "leave":
            continue
        if change == "copy":
            nodes = tuple(list(nodes))
        elif change == "reorder":
            nodes = tuple(reversed(nodes))
        elif change == "move":
            index = data.draw(st.integers(0, len(nodes) - 1))
            nodes = nodes[:index] + (data.draw(st.integers(0, num_nodes - 1)),) + nodes[index + 1:]
        elif change == "need":
            views[job_id] = jobs[job_id]._replace(cpu_need=data.draw(st.sampled_from(_NEEDS)))
        following[job_id] = nodes
    for job_id in data.draw(st.lists(st.integers(41, 60), max_size=3, unique=True)):
        tasks = data.draw(st.integers(1, 4))
        views[job_id] = view(job_id, tasks=tasks, cpu=data.draw(st.sampled_from(_NEEDS)))
        following[job_id] = tuple(data.draw(st.integers(0, num_nodes - 1)) for _ in range(tasks))
    return following, views


class TestCarriedLoads:
    @given(case=_placed_jobs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_decision_sequence_reads_the_fresh_counts(self, case, data):
        cluster, jobs, placements = case
        carried = CarriedLoads()
        for _ in range(4):
            loads = carried(placements, jobs)
            assert loads == job_loads(placements, jobs) == _reference_loads(placements, jobs)
            assert list(loads) == list(placements)
            yields = _start_yields(data, placements, jobs, cluster)
            _assert_same_yields(
                improve_average_yield(placements, yields, jobs, cluster, carried),
                reference.improve_average_yield(placements, yields, jobs, cluster),
            )
            placements, jobs = _next_placements(data, placements, jobs, cluster.num_nodes)

    def test_unchanged_nodes_keep_their_pairs_and_the_rest_are_recounted(self):
        carried = CarriedLoads()
        jobs = {0: view(0, tasks=3, cpu=0.5), 1: view(1, tasks=2, cpu=0.25)}
        first = carried({0: (2, 2, 5), 1: (1, 0)}, jobs)
        assert first == {0: [(2, 1.0), (5, 0.5)], 1: [(1, 0.25), (0, 0.25)]}
        again = carried({0: (2, 2, 5), 1: (0, 1)}, jobs)
        assert again[0] is first[0]  # an equal tuple: the pairs are kept
        assert again[1] == [(0, 0.25), (1, 0.25)]  # reordered: first-use order
        jobs[0] = view(0, tasks=3, cpu=0.4)  # the id returns with another need
        assert carried({0: (2, 2, 5)}, jobs) == {0: [(2, 0.8), (5, 0.4)]}


def _live_variants(data, placements, yields):
    """Live allocations per job: matching (nodes in order and clamped yield),
    another yield, the same nodes in another order, other nodes, or none."""
    live = {}
    for job_id, nodes in placements.items():
        clamped = min(1.0, max(MINIMUM_YIELD, yields[job_id]))
        kind = data.draw(st.sampled_from(["match", "yield", "order", "nodes", "none"]))
        if kind == "match":
            live[job_id] = JobAllocation.create(nodes, clamped)
        elif kind == "yield":
            live[job_id] = JobAllocation.create(nodes, clamped * 0.5)
        elif kind == "order" and len(set(nodes)) > 1:
            live[job_id] = JobAllocation.create(tuple(reversed(nodes)), clamped)
        elif kind == "nodes":
            live[job_id] = JobAllocation.create(tuple(node + 1 for node in nodes), clamped)
    return live


class TestBuildAllocations:
    @given(case=_placed_jobs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_live_allocations_come_back_only_when_unchanged(self, case, data):
        _, _, placements = case
        yields = {
            job_id: data.draw(st.sampled_from([1.0, 1.0 + 5e-10, 0.5, MINIMUM_YIELD, 1e-9]))
            for job_id in placements
        }
        live = _live_variants(data, placements, yields)
        expected = reference.build_allocations(placements, yields)
        for allocations in (build_allocations(placements, yields, live),
                            build_allocations(placements, yields)):
            assert list(allocations) == list(expected)
            for job_id, allocation in allocations.items():
                assert allocation == expected[job_id]
                assert allocation.yield_value == expected[job_id].yield_value
                assert type(allocation.nodes) is tuple
                assert all(type(node) is int for node in allocation.nodes)
        reused = build_allocations(placements, yields, live)
        for job_id, allocation in reused.items():
            current = live.get(job_id)
            assert (allocation is current) == (
                current is not None and current == expected[job_id]
            )

    def test_a_reordering_is_not_reused(self):
        live = {0: JobAllocation.create((1, 0), 0.5)}
        allocations = build_allocations({0: (0, 1)}, {0: 0.5}, live)
        assert allocations[0].nodes == (0, 1) and allocations[0] is not live[0]


class _ReferenceFinalize:
    """A GREEDY-family scheduler that finalizes through the oracle."""

    def _finalize(self, placements, context, decision):
        yields = reference.fair_yields(placements, context.jobs, context.cluster)
        yields = reference.improve_average_yield(placements, yields, context.jobs, context.cluster)
        decision.running = reference.build_allocations(placements, yields)
        return decision


_FAMILY = {
    "greedy": (GreedyScheduler, type("RefGreedy", (_ReferenceFinalize, GreedyScheduler), {})),
    "greedy-pmtn": (
        GreedyPmtnScheduler,
        type("RefGreedyPmtn", (_ReferenceFinalize, GreedyPmtnScheduler), {}),
    ),
    "greedy-pmtn-migr": (
        GreedyPmtnMigrScheduler,
        type("RefGreedyPmtnMigr", (_ReferenceFinalize, GreedyPmtnMigrScheduler), {}),
    ),
}


def _context(views, cluster, now, down, live) -> SchedulingContext:
    context = SchedulingContext(
        time=now, cluster=cluster, jobs={v.job_id: v for v in views}, down_nodes=frozenset(down)
    )
    # As the engine does: the RUNNING jobs' applied allocations, live objects.
    context._allocations = {
        v.job_id: live[v.job_id] for v in views if v.state is JobState.RUNNING
    }
    return context


class TestGreedyFamilyDecisions:
    @given(
        algorithm=st.sampled_from(sorted(_FAMILY)),
        num_nodes=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_decision_sequences_with_down_nodes(self, algorithm, num_nodes, data):
        capacities = data.draw(
            st.none()
            | st.lists(st.sampled_from(_CAPACITIES), min_size=num_nodes, max_size=num_nodes)
        )
        cluster = Cluster(num_nodes, cpu_capacities=capacities)
        live_class, oracle_class = _FAMILY[algorithm]
        live_scheduler, oracle_scheduler = live_class(), oracle_class()
        live_scheduler.start(cluster, 0.0)
        oracle_scheduler.start(cluster, 0.0)
        views: Dict[int, object] = {}
        applied: Dict[int, JobAllocation] = {}
        next_id, now = 0, 0.0
        for _ in range(5):
            down = set(data.draw(st.lists(st.integers(0, num_nodes - 1), max_size=2)))
            # Jobs on a down node leave; some others complete.
            for job_id in list(views):
                gone = job_id in applied and down & set(applied[job_id].nodes)
                if gone or data.draw(st.integers(0, 5)) == 0:
                    views.pop(job_id)
                    applied.pop(job_id, None)
            for _ in range(data.draw(st.integers(0, 3))):
                views[next_id] = view(
                    next_id,
                    tasks=data.draw(st.integers(1, 4)),
                    cpu=data.draw(st.sampled_from([0.25, 0.5, 1.0])),
                    mem=data.draw(st.sampled_from([0.1, 0.3, 0.6])),
                    submit=now,
                )
                next_id += 1
            contexts = [
                _context(list(views.values()), cluster, now, down, applied) for _ in range(2)
            ]
            decision = live_scheduler.schedule(contexts[0])
            expected = oracle_scheduler.schedule(contexts[1])
            assert list(decision.running) == list(expected.running)
            for job_id, allocation in decision.running.items():
                assert allocation.nodes == expected.running[job_id].nodes
                assert allocation.yield_value == expected.running[job_id].yield_value
            assert decision.wakeups == expected.wakeups
            # Apply it as the engine would: a reordering keeps the applied
            # order, and an unchanged allocation keeps its object.
            for job_id, job_view in list(views.items()):
                allocation = decision.running.get(job_id)
                if allocation is None:
                    if job_view.state is JobState.RUNNING:
                        views[job_id] = job_view._replace(
                            state=JobState.PAUSED, assignment=None, current_yield=0.0
                        )
                        del applied[job_id]
                    continue
                current = applied.get(job_id)
                nodes = allocation.nodes
                if current is not None and sorted(current.nodes) == sorted(nodes):
                    nodes = current.nodes
                if current is None or (current.nodes, current.yield_value) != (
                    nodes, allocation.yield_value
                ):
                    applied[job_id] = JobAllocation.create(nodes, allocation.yield_value)
                views[job_id] = job_view._replace(
                    state=JobState.RUNNING,
                    assignment=applied[job_id].nodes,
                    current_yield=applied[job_id].yield_value,
                    last_assignment=applied[job_id].nodes,
                )
            now += data.draw(st.sampled_from([1.0, 60.0, 5000.0]))
