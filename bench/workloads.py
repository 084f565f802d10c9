"""The six benchmark workloads.

Each workload has a ``setup(seed, quick)`` that generates its inputs from the
seed and a ``run_unit(tracer)`` that executes one *unit* — one complete run of
the public entry point the workload is about — and returns a :class:`Unit`.
``run.py`` repeats units for the measured interval and reports medians.

Why every workload pins its base trace: the regime *is* the workload.  On raw
Lublin seeds the same 1,500-job FCFS run has a mean backlog anywhere from 150
to 540 active jobs and a 3x spread in events/s, so a seed-to-seed comparison
would measure the trace, not the simulator.  The base trace is the one the
regimes were profiled on (generator seed 2010; Lublin rescaled to load 0.7)
and ``--seed`` drives a lognormal runtime jitter (``Perturb``) on top of it:
every seed is a different input that keeps the backlog depth / memory
pressure / arrival pattern the workload exists for.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.campaign import Campaign, CollectorSpec, Scenario, TransformSource
from repro.core.clock import SimulatedClock
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.invariants import InvariantCheckingObserver
from repro.core.penalties import ReschedulingPenaltyModel
from repro.schedulers import PAPER_ALGORITHMS, create_scheduler
from repro.serve import PlacementLogObserver, SchedulerService
from repro.serve.protocol import ServiceServer
from repro.traces import (
    DiurnalPoissonTraceSource,
    LublinTraceSource,
    Perturb,
    RescaleLoad,
)

from probes import (
    TimedAdmission,
    TimedIterator,
    TimedObserver,
    TimingScheduler,
    timed_coroutine,
)
from spans import SpanRecorder

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Generator seed of the base traces every regime was profiled on.
BASE_TRACE_SEED = 2010
#: The paper's non-zero rescheduling penalty (seconds).
PENALTY_SECONDS = 300.0
#: Lognormal sigma of the per-seed runtime jitter on the pinned base trace.
JITTER = 0.05


@dataclass
class Unit:
    """Outcome of one timed unit of a workload."""

    #: Host seconds of the timed section.
    wall_s: float
    #: Jobs the program completed in the timed section.
    jobs: int
    #: Operations attempted / failed (jobs not completed, non-ok replies,
    #: missing or unequal cold-vs-warm campaign rows).
    attempted: int
    failed: int
    #: Simulated statistics that repeat exactly for a given seed; compared
    #: across units and against ``expected.json``.  Empty where the program
    #: makes no such promise (the live service).
    sim: Dict[str, Any] = field(default_factory=dict)
    #: Workload-specific raw material for the per-layer metrics.
    extra: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """What a traced unit injects: the span recorder plus the proxies it built."""

    def __init__(
        self, capture: bool = True, placement_log: bool = True, run: int = 0
    ) -> None:
        self.recorder = SpanRecorder()
        #: Spans of one traced unit share this identifier.
        self.recorder.run = run
        self.capture = capture
        self.scheduler: Optional[TimingScheduler] = None
        self.placement_log = PlacementLogObserver() if placement_log else None

    def wrap_scheduler(self, scheduler: Any) -> TimingScheduler:
        self.scheduler = TimingScheduler(scheduler, self.recorder, capture=self.capture)
        return self.scheduler

    def observers(self) -> List[Any]:
        if self.placement_log is None:
            return []
        return [
            TimedObserver(
                self.placement_log, self.recorder, "core.observers.placement_log"
            )
        ]

    def digest(self) -> str:
        """sha256 of the canonical placement log (the decisions, byte for byte)."""
        assert self.placement_log is not None
        return hashlib.sha256(self.placement_log.to_json_bytes()).hexdigest()


def _lublin_jobs(cluster: Cluster, num_jobs: int, seed: int) -> list:
    source = LublinTraceSource(num_jobs=num_jobs, seed=BASE_TRACE_SEED).transformed(
        Perturb(runtime_factor=JITTER, seed=seed), RescaleLoad(target_load=0.7)
    )
    return list(source.jobs(cluster))


def _diurnal_source(num_jobs: int, seed: int) -> Any:
    # The BENCH_engine / BENCH_serve recipe: sub-critical arrivals, so the
    # cluster stays near-empty and the backlog bounded.  Perturb streams, so
    # generation stays lazy.
    return DiurnalPoissonTraceSource(
        num_jobs=num_jobs,
        seed=BASE_TRACE_SEED,
        mean_interarrival_seconds=360.0,
        runtime_log_mean=5.0,
        runtime_log_sigma=1.0,
        max_runtime_seconds=7200.0,
        serial_fraction=0.6,
    ).transformed(Perturb(runtime_factor=JITTER, seed=seed))


class SimWorkload:
    """One ``Simulator.run`` / ``run_stream`` of one algorithm over one trace."""

    def __init__(
        self,
        name: str,
        algorithm: str,
        nodes: int,
        num_jobs: int,
        quick_jobs: int,
        stream: bool = False,
    ) -> None:
        self.name = name
        self.algorithm = algorithm
        self.nodes = nodes
        #: (full, quick) job counts.
        self.sizes = (num_jobs, quick_jobs)
        self.stream = stream

    def setup(self, seed: int, quick: bool = False) -> Dict[str, float]:
        self.cluster = Cluster(self.nodes, 4, 8.0)
        self.num_jobs = self.sizes[bool(quick)]
        start = perf_counter()
        if self.stream:
            # Lazy intake is part of what this workload times: the source is
            # built here, its jobs are generated inside the run.
            self.source = _diurnal_source(self.num_jobs, seed)
            self.jobs = None
        else:
            self.jobs = _lublin_jobs(self.cluster, self.num_jobs, seed)
        self.params = {
            "algorithm": self.algorithm,
            "nodes": self.nodes,
            "num_jobs": self.num_jobs,
        }
        return {"traces.generate_s": perf_counter() - start}

    def run_unit(
        self,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Dict[str, Any]] = None,
        check_invariants: bool = False,
    ) -> Unit:
        scheduler = create_scheduler(self.algorithm)
        observers: List[Any] = []
        if tracer is not None:
            scheduler = tracer.wrap_scheduler(scheduler)
            observers = tracer.observers()
        if check_invariants:
            observers.append(InvariantCheckingObserver())
        config = SimulationConfig(
            penalty_model=ReschedulingPenaltyModel(0.0 if self.stream else PENALTY_SECONDS),
            streaming_metrics=self.stream,
            telemetry=telemetry,
        )
        simulator = Simulator(self.cluster, scheduler, config, observers=observers)
        if self.stream:
            jobs = self.source.jobs(self.cluster)
            if tracer is not None:
                jobs = TimedIterator(jobs, tracer.recorder, "traces.generate")
            run = simulator.run_stream
        else:
            jobs, run = self.jobs, simulator.run
        span = tracer.recorder.begin("core.engine.run") if tracer is not None else -1
        start = perf_counter()
        result = run(jobs)
        wall = perf_counter() - start
        if tracer is not None:
            tracer.recorder.end(span)
        completed = result.num_jobs
        return Unit(
            wall_s=wall,
            jobs=completed,
            attempted=self.num_jobs,
            failed=self.num_jobs - completed,
            sim={
                "sim.events": simulator.events_processed,
                "sim.max_stretch": result.max_stretch,
                "sim.makespan_s": result.makespan,
                "sim.preemptions": result.costs.preemption_count,
                "sim.migrations": result.costs.migration_count,
            },
            extra={
                "peak_resident_jobs": simulator.peak_resident_jobs,
                "telemetry": simulator.telemetry,
            },
        )


class CampaignWorkload:
    """A mini Figure 1 through the campaign layer: cold pass, then warm cache."""

    name = "paper-matrix"
    sizes = (40, 12)

    def setup(self, seed: int, quick: bool = False) -> Dict[str, float]:
        self.num_jobs = self.sizes[bool(quick)]
        self.params = {"num_jobs": self.num_jobs, "loads": [0.3, 0.7], "nodes": 128}
        self.scenario = self._scenario(seed, tuple(PAPER_ALGORITHMS))
        self._seed = seed
        # Traces are generated lazily inside Campaign.run (a warm rerun never
        # touches the source), so generation is part of the timed cold pass.
        return {"traces.generate_s": 0.0}

    def _scenario(self, seed: int, algorithms: tuple) -> Scenario:
        source = TransformSource(
            source=LublinTraceSource(
                num_jobs=self.num_jobs, seed=BASE_TRACE_SEED
            ).transformed(Perturb(runtime_factor=JITTER, seed=seed))
        )
        return Scenario(
            name="paper-matrix",
            source=source,
            cluster=Cluster(128, 4, 8.0),
            algorithms=algorithms,
            penalty_seconds=PENALTY_SECONDS,
            sweep=(("load", (0.3, 0.7)),),
            collectors=(CollectorSpec("stretch"), CollectorSpec("costs")),
        )

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        os.makedirs(OUT_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="campaign-cache-", dir=OUT_DIR)
        recorder = tracer.recorder if tracer is not None else None
        try:
            cold, cold_s = _timed_run(recorder, "campaign.cold_run", cache_dir, self.scenario)
            warm, warm_s = _timed_run(recorder, "campaign.warm_run", cache_dir, self.scenario)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cold_rows = {row.key(): _canonical(row) for row in cold.rows}
        warm_rows = {row.key(): _canonical(row) for row in warm.rows}
        cells = len(self.scenario.expand()) * len(self.scenario.algorithms)
        unequal = sum(
            1 for key, row in cold_rows.items() if warm_rows.get(key) != row
        ) + abs(cells - len(cold_rows))
        digest = hashlib.sha256(
            "\n".join(cold_rows[key] for key in sorted(cold_rows)).encode("utf-8")
        ).hexdigest()
        return Unit(
            wall_s=cold_s + warm_s,
            jobs=sum(int(row.metrics["num_jobs"]) for row in cold.rows),
            attempted=2 * cells,
            failed=unequal,
            sim={"campaign.cells": len(cold_rows), "campaign.rows_sha256": digest},
            extra={"cold_s": cold_s, "warm_s": warm_s},
        )

    def per_algorithm_walls(self) -> Dict[str, float]:
        """Run the scenario once per algorithm: which kernel a move came from."""
        walls = {}
        for algorithm in PAPER_ALGORITHMS:
            scenario = self._scenario(self._seed, (algorithm,))
            start = perf_counter()
            Campaign(workers=1).run(scenario)
            walls[f"campaign.alg.{algorithm}.wall_s"] = perf_counter() - start
        return walls


def _timed_run(
    recorder: Optional[SpanRecorder], span_name: str, cache_dir: str, scenario: Scenario
) -> tuple:
    span = recorder.begin(span_name) if recorder is not None else -1
    start = perf_counter()
    result = Campaign(workers=1, cache_dir=cache_dir).run(scenario)
    wall = perf_counter() - start
    if recorder is not None:
        recorder.end(span)
    return result, wall


def _canonical(row: Any) -> str:
    return json.dumps(row.to_dict(), sort_keys=True)


class ServeWorkload:
    """Closed loop over the JSON-lines socket: 1 client, reads beside writes.

    One connection because callers of this service wait for their reply
    (closed loop) and the box has two cores: the server and its one client
    share an event loop, so a second client would only queue.
    """

    name = "serve-socket-fcfs"
    sizes = (3000, 400)
    #: One ``status`` per this many submits, one ``metrics`` per that many.
    STATUS_EVERY = 10
    METRICS_EVERY = 1000

    def setup(self, seed: int, quick: bool = False) -> Dict[str, float]:
        self.cluster = Cluster(64, 4, 8.0)
        self.num_jobs = self.sizes[bool(quick)]
        self.params = {"algorithm": "fcfs", "nodes": 64, "num_jobs": self.num_jobs}
        start = perf_counter()
        self.specs = list(_diurnal_source(self.num_jobs, seed).jobs(self.cluster))
        return {"traces.generate_s": perf_counter() - start}

    def run_unit(self, tracer: Optional[Tracer] = None) -> Unit:
        return asyncio.run(self._session(tracer))

    async def _session(self, tracer: Optional[Tracer]) -> Unit:
        recorder = tracer.recorder if tracer is not None else None
        scheduler: Any = create_scheduler("fcfs")
        observers: List[Any] = []
        if tracer is not None:
            scheduler = tracer.wrap_scheduler(scheduler)
            observers = tracer.observers()
        service = SchedulerService(self.cluster, scheduler, observers=observers)
        if recorder is not None:
            service.submit = timed_coroutine(  # type: ignore[method-assign]
                service.submit, recorder, "serve.service.submit"
            )
            service.admission = TimedAdmission(service.admission, recorder)
        await service.start(clock=SimulatedClock())
        server = ServiceServer(service)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        latencies: Dict[str, List[float]] = {
            "submit": [], "status": [], "metrics": [], "drain": []
        }
        client_seconds = 0.0
        errors = 0

        async def call(op: str, request: Dict[str, Any]) -> Dict[str, Any]:
            """One request, one reply; latency as the caller sees it."""
            nonlocal client_seconds, errors
            span = recorder.begin("serve.protocol." + op) if recorder is not None else -1
            start = perf_counter()
            line = (json.dumps(request) + "\n").encode("utf-8")
            encoded = perf_counter()
            writer.write(line)
            await writer.drain()
            raw = await reader.readline()
            received = perf_counter()
            reply = json.loads(raw) if raw else {"ok": False}
            end = perf_counter()
            latencies[op].append(end - start)
            client_seconds += (encoded - start) + (end - received)
            if recorder is not None:
                recorder.add("harness.client", start, encoded)
                recorder.add("harness.client", received, end)
                recorder.end(span)
            if not reply.get("ok"):
                errors += 1
            return reply

        try:
            timed_start = perf_counter()
            for index, spec in enumerate(self.specs):
                reply = await call(
                    "submit",
                    {
                        "op": "submit",
                        "job": {
                            "job_id": spec.job_id,
                            "submit_time": spec.submit_time,
                            "num_tasks": spec.num_tasks,
                            "cpu_need": spec.cpu_need,
                            "mem_requirement": spec.mem_requirement,
                            "execution_time": spec.execution_time,
                        },
                    },
                )
                if reply.get("ok") and not reply.get("accepted"):
                    errors += 1
                if index % self.STATUS_EVERY == self.STATUS_EVERY - 1:
                    await call("status", {"op": "status", "job_id": spec.job_id})
                if index % self.METRICS_EVERY == self.METRICS_EVERY - 1:
                    await call("metrics", {"op": "metrics"})
            await call("drain", {"op": "drain"})
            final = await call("metrics", {"op": "metrics"})
            wall = perf_counter() - timed_start
        finally:
            writer.close()
            await writer.wait_closed()
            await server.close()
            result = await service.shutdown()
        completions = int(final.get("metrics", {}).get("completions", 0))
        requests = sum(len(samples) for samples in latencies.values())
        return Unit(
            wall_s=wall,
            jobs=completions,
            attempted=requests,
            failed=errors + (self.num_jobs - completions),
            extra={
                "latencies": latencies,
                "client_s": client_seconds,
                "requests": requests,
                "errors": errors,
                "sim": {
                    "sim.events": 0,
                    "sim.max_stretch": result.max_stretch,
                    "sim.makespan_s": result.makespan,
                    "sim.preemptions": result.costs.preemption_count,
                    "sim.migrations": result.costs.migration_count,
                },
            },
        )


#: name -> factory, in the order rounds interleave them.  Sizes are the
#: smallest that keep each regime (backlog depth, memory pressure, the
#: dynmcb8 memory cliff at ~80 jobs): 0.7-5 s a unit on the 2-core build box,
#: so a 12 s run takes its median over 3-18 units.
WORKLOADS = {
    "paper-matrix": CampaignWorkload,
    "sim-backlog-fcfs": partial(SimWorkload, "sim-backlog-fcfs", "fcfs", 128, 700, 150),
    "sim-loaded-greedy": partial(
        SimWorkload, "sim-loaded-greedy", "greedy-pmtn-migr", 128, 150, 60
    ),
    "sim-loaded-dynmcb8": partial(
        SimWorkload, "sim-loaded-dynmcb8", "dynmcb8-asap-per-600", 128, 80, 30
    ),
    "stream-light-greedy": partial(
        SimWorkload, "stream-light-greedy", "greedy-pmtn-migr", 64, 2000, 500, stream=True
    ),
    "serve-socket-fcfs": ServeWorkload,
}
