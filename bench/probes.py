"""Outside-in probes: timing proxies a caller may inject, and kernel replays.

Nothing here touches ``src/``.  Each proxy wraps an object the public API
already lets a caller pass in (a scheduler, an observer, a bound method of a
service the caller owns) and forwards every call unchanged, recording a span
around it.  The replays feed captured :class:`SchedulingContext` objects back
into the public placement/packing/validation kernels *after* the timed spans,
so they cost the traced run nothing but the references it keeps.

A kernel whose public entry point no longer exists reports 0 for its
metrics instead of failing the run (the result contract wants numbers, so 0
stands in for "not measured"); only the top-level calls of the workload table
are load-bearing.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from spans import SpanRecorder

#: Contexts kept per traced run (references only; thinned by doubling the stride).
CAPTURE_LIMIT = 96


class TimingScheduler:
    """Transparent scheduler proxy: one leaf span per ``schedule`` call.

    Every attribute the engine reads (``name``, ``requires_runtime_estimates``,
    ``exclusive_node_allocation``, ...) is forwarded to the wrapped scheduler,
    so the engine cannot tell the difference — pinned by ``test_harness.py``.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder, capture: bool = True) -> None:
        self._inner = inner
        self._recorder = recorder
        self._capture = capture
        self._stride = 1
        self.jobs_per_call: List[int] = []
        #: Sampled ``(context, decision)`` pairs for the kernel replays.
        self.captured: List[Tuple[Any, Any]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def start(self, cluster: Any, start_time: float) -> None:
        self._inner.start(cluster, start_time)

    def schedule(self, context: Any) -> Any:
        start = perf_counter()
        decision = self._inner.schedule(context)
        self._recorder.add("schedulers.schedule", start, perf_counter())
        calls = self.jobs_per_call
        calls.append(len(context.jobs))
        if self._capture and len(calls) % self._stride == 0:
            self.captured.append((context, decision))
            if len(self.captured) > CAPTURE_LIMIT:
                del self.captured[::2]
                self._stride *= 2
        return decision


class TimedObserver:
    """Forward every ``on_*`` observer callback to ``inner`` inside a leaf span."""

    def __init__(self, inner: Any, recorder: SpanRecorder, span_name: str) -> None:
        add = recorder.add
        for attribute in dir(inner):
            if not attribute.startswith("on_"):
                continue
            setattr(self, attribute, _timed_leaf(getattr(inner, attribute), add, span_name))


def _timed_leaf(function: Callable, add: Callable, span_name: str) -> Callable:
    def wrapper(*args: Any) -> None:
        start = perf_counter()
        function(*args)
        add(span_name, start, perf_counter())

    return wrapper


class TimedAdmission:
    """Forward ``admit`` to the wrapped admission policy inside a leaf span."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._add = recorder.add

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def admit(self, spec: Any, load: Any) -> Any:
        start = perf_counter()
        decision = self._inner.admit(spec, load)
        self._add("serve.admission.admit", start, perf_counter())
        return decision


def timed_coroutine(function: Callable, recorder: SpanRecorder, span_name: str) -> Callable:
    """Wrap a coroutine function in a span that may get children."""

    @functools.wraps(function)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.begin(span_name)
        try:
            return await function(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


class TimedIterator:
    """Time each ``next()`` of a lazy job stream (trace generation inside a run)."""

    def __init__(self, iterator: Any, recorder: SpanRecorder, span_name: str) -> None:
        self._next = iter(iterator).__next__
        self._add = recorder.add
        self._name = span_name

    def __iter__(self) -> "TimedIterator":
        return self

    def __next__(self) -> Any:
        start = perf_counter()
        try:
            return self._next()
        finally:
            self._add(self._name, start, perf_counter())


# --------------------------------------------------------------------------- #
# Kernel replays                                                               #
# --------------------------------------------------------------------------- #
def _replay(
    metrics: Dict[str, float], names: List[str], body: Callable[[], Dict[str, float]]
) -> None:
    """Run one replay; a vanished entry point zeroes its metrics, nothing else."""
    try:
        metrics.update(body())
    except (ImportError, AttributeError):
        metrics.update({name: 0.0 for name in names})


def replay_kernels(
    captured: List[Tuple[Any, Any]], budget_seconds: float
) -> Dict[str, float]:
    """Feed captured contexts into the public kernels; per-layer metrics out.

    ``budget_seconds`` bounds each replay (backlogged contexts make a single
    packing call expensive); every replay makes at least one call.
    """
    metrics: Dict[str, float] = {}
    _replay(
        metrics,
        [
            "schedulers.dfrs.placement.greedy_place_us_per_task",
            "schedulers.dfrs.placement.replay_calls",
            "schedulers.dfrs.placement.fail_share",
            "core.cluster.usage_snapshot_us",
        ],
        lambda: _replay_placement(captured, budget_seconds),
    )
    _replay(
        metrics,
        [
            "packing.maximize_min_yield_ms_per_call",
            "packing.mcb8_pack_ms_per_call",
            "packing.mcb8_us_per_item",
            "packing.items_per_call_mean",
            "packing.pack_success_share",
            "packing.replay_calls",
        ],
        lambda: _replay_packing(captured, budget_seconds),
    )
    _replay(
        metrics,
        ["core.allocation.validate_us_per_call"],
        lambda: _replay_validation(captured, budget_seconds),
    )
    _replay(metrics, ["metrics.job_accumulator_add_us"], _replay_accumulator)
    return metrics


def _replay_placement(captured: List[Tuple[Any, Any]], budget: float) -> Dict[str, float]:
    from repro.schedulers.dfrs.placement import greedy_place_job, usage_from_placements

    place_seconds = snapshot_seconds = 0.0
    tasks = attempts = failures = snapshots = 0
    deadline = perf_counter() + budget
    for context, _ in captured:
        placements = {
            view.job_id: view.assignment for view in context.running_jobs()
        }
        usage = usage_from_placements(
            placements, context.jobs, context.cluster, unavailable=context.down_nodes
        )
        start = perf_counter()
        usage.snapshot()
        snapshot_seconds += perf_counter() - start
        snapshots += 1
        for view in context.jobs.values():
            if view.is_running:
                continue
            start = perf_counter()
            nodes = greedy_place_job(view, usage)
            place_seconds += perf_counter() - start
            tasks += view.num_tasks
            attempts += 1
            failures += nodes is None
            if perf_counter() > deadline:
                break
        if perf_counter() > deadline:
            break
    return {
        "schedulers.dfrs.placement.greedy_place_us_per_task": (
            place_seconds / tasks * 1e6 if tasks else 0.0
        ),
        "schedulers.dfrs.placement.replay_calls": float(attempts),
        "schedulers.dfrs.placement.fail_share": failures / attempts if attempts else 0.0,
        "core.cluster.usage_snapshot_us": (
            snapshot_seconds / snapshots * 1e6 if snapshots else 0.0
        ),
    }


def _replay_packing(captured: List[Tuple[Any, Any]], budget: float) -> Dict[str, float]:
    from repro.packing import PackingJob, maximize_min_yield, mcb8_pack

    search_seconds = pack_seconds = 0.0
    searches = successes = packs = items_total = 0
    deadline = perf_counter() + budget
    for context, _ in captured:
        jobs = [
            PackingJob(
                job_id=view.job_id,
                num_tasks=view.num_tasks,
                cpu_need=view.cpu_need,
                mem_requirement=view.mem_requirement,
            )
            for view in context.jobs.values()
        ]
        if not jobs:
            continue
        capacities = context.packing_capacities()
        start = perf_counter()
        result = maximize_min_yield(jobs, context.cluster.num_nodes, capacities=capacities)
        search_seconds += perf_counter() - start
        searches += 1
        successes += bool(result.success)
        # One bare MCB8 pass at the yield the search settled on (or the
        # memory-only problem when it failed) isolates the packer itself.
        yield_value = result.yield_value if result.success else 0.0
        items = [item for job in jobs for item in job.items(yield_value)]
        start = perf_counter()
        if capacities is None:
            mcb8_pack(items, context.cluster.num_nodes)
        else:
            mcb8_pack(items, context.cluster.num_nodes, capacities=capacities)
        pack_seconds += perf_counter() - start
        packs += 1
        items_total += len(items)
        if perf_counter() > deadline:
            break
    return {
        "packing.maximize_min_yield_ms_per_call": (
            search_seconds / searches * 1e3 if searches else 0.0
        ),
        "packing.mcb8_pack_ms_per_call": pack_seconds / packs * 1e3 if packs else 0.0,
        "packing.mcb8_us_per_item": pack_seconds / items_total * 1e6 if items_total else 0.0,
        "packing.items_per_call_mean": items_total / packs if packs else 0.0,
        "packing.pack_success_share": successes / searches if searches else 0.0,
        "packing.replay_calls": float(searches),
    }


def _replay_validation(captured: List[Tuple[Any, Any]], budget: float) -> Dict[str, float]:
    from repro.core.allocation import validate_decision

    seconds = 0.0
    calls = 0
    deadline = perf_counter() + budget
    for context, decision in captured:
        if decision is None:
            continue
        # validate_decision reads only num_tasks / cpu_need / mem_requirement
        # of each spec, which the context's job views carry under the same
        # names — no need to keep the whole trace around for the replay.
        start = perf_counter()
        validate_decision(decision, context.jobs, context.cluster)
        seconds += perf_counter() - start
        calls += 1
        if perf_counter() > deadline:
            break
    return {"core.allocation.validate_us_per_call": seconds / calls * 1e6 if calls else 0.0}


def _replay_accumulator() -> Dict[str, float]:
    from repro.metrics import JobMetricsAccumulator

    accumulator = JobMetricsAccumulator()
    count = 2000
    start = perf_counter()
    for index in range(count):
        accumulator.observe(
            job_id=index,
            stretch=1.0 + index * 0.01,
            turnaround=60.0 + index,
            wait=float(index % 7),
        )
    return {"metrics.job_accumulator_add_us": (perf_counter() - start) / count * 1e6}
