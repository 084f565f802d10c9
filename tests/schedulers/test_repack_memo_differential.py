"""DYNMCB8's repack memo against the memo-free repack it replaced.

``reference_repack.py`` keeps the parent commit's ``repack``, one fresh
``maximize_min_yield`` per eviction round, as a mixin.  The live ``repack``
answers a round from the previous repack's searches when the round's job set,
node count and bin capacities are unchanged, and ``_repack_all`` then reuses
the allocations it made of that round last time.  The mixin never marks a
round reused, so its ``_repack_all`` runs ``improve_average_yield`` and
``build_allocations`` at every repack: it is the oracle for both memos.  That
is only an optimisation if nothing can tell: on every case below the two
schedulers produce the same placement-log bytes, the same cost floats and the
same observer events, every field, in the same order, and the live one must
really have reused searches — and, where ``_repack_all`` is not overridden,
allocations — for a periodic case to count.

Cases: the five memo-capable algorithms on Lublin traces with and without the
rescheduling penalty, plus DYNMCB8-STRETCH-PER, which must never reach the
memo; node failures under both policies with and without repack-on-failure,
where capacities change while the job set does not; a three-class cluster;
``run_stream``; an online drive that cancels jobs between ticks.  Then the
memo's own contracts: a service replay never holds more than one repack's
rounds, and one instance reused across runs and clusters behaves like fresh
ones; and the packing tallies still read what they read before the yield
search packed jobs instead of items.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.penalties import ReschedulingPenaltyModel
from repro.packing.yield_search import YieldSearchResult
from repro.platform import ExponentialFailureSource, NodeClass, NodeClassesPlatform
from repro.schedulers.dfrs.dynmcb8 import DynMcb8Scheduler
from repro.schedulers.registry import create_scheduler
from repro.serve import PlacementLogObserver, SchedulerService
from repro.traces import DiurnalPoissonTraceSource

from ..core.test_engine_index_differential import (
    CallLog,
    _bits,
    _lublin,
    _online_with_cancels,
    _run,
    _run_stream,
)
from . import reference_repack
from .reference_repack import reference_scheduler

#: Every algorithm whose yield searches go through ``DynMcb8Scheduler.repack``.
MEMO_ALGORITHMS = [
    "dynmcb8",
    "dynmcb8-per-600",
    "dynmcb8-asap-per-600",
    "dynmcb8-asap-throttled-per-600",
    "dynmcb8-asap-weighted-per-600",
]
REUSED = "packing.searches_reused"
YIELDS_REUSED = "packing.yields_reused"
#: The memo-capable algorithms whose ``_repack_all`` shares CPU its own way.
OWN_YIELDS = {"dynmcb8-asap-throttled-per-600", "dynmcb8-asap-weighted-per-600"}


def _observe(scheduler, cluster, specs, *, driver=_run, **config) -> Tuple[Dict, Dict]:
    """One run; everything an outsider can see of it, and the packing counters."""
    placements, events = PlacementLogObserver(), CallLog()
    # A mutant that stops starting jobs makes a periodic scheduler tick forever:
    # fail in seconds (every case here takes well under 2,000 events).
    config.setdefault("max_events", 20_000)
    simulator = Simulator(
        cluster,
        scheduler,
        SimulationConfig(telemetry={"type": "stats"}, **config),
        observers=[placements, events],
    )
    result = driver(simulator, specs)
    seen = {
        "placement_log": placements.to_json_bytes(),
        "costs": {name: _bits(value) for name, value in asdict(result.costs).items()},
        "events": _bits(events),
    }
    counters = simulator.telemetry.counters
    # Every probe is still either refused by arithmetic or packed.
    probes = counters.get("packing.probes", 0)
    assert probes - counters.get("packing.probes_pruned", 0) == counters.get("packing.packs", 0)
    return seen, counters


def _differential(algorithm, cluster, specs, **kwargs) -> Tuple[Dict, int]:
    """Run the live and the reference scheduler; the live one must be indistinguishable.

    Returns what was seen and how many searches the live one reused.
    """
    want, reference_counters = _observe(reference_scheduler(algorithm), cluster, specs, **kwargs)
    got, counters = _observe(create_scheduler(algorithm), cluster, specs, **kwargs)
    for key in want:
        assert got[key] == want[key], key
    assert REUSED not in reference_counters and YIELDS_REUSED not in reference_counters
    reused, yields_reused = counters.get(REUSED, 0), counters.get(YIELDS_REUSED, 0)
    # Only a reused successful round has allocations to reuse.
    assert yields_reused <= reused
    if algorithm in OWN_YIELDS:
        assert yields_reused == 0
    else:
        assert (yields_reused > 0) == (reused > 0)
    return got, reused


def _actions(seen: Dict[str, Any]) -> set:
    return {event[0] for event in seen["events"]}


# --------------------------------------------------------------------------- #
# (a) the memo-capable algorithms, and the stretch variant that must bypass it #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("penalty", [0.0, 300.0])
@pytest.mark.parametrize("seed", [11, 42])
@pytest.mark.parametrize("algorithm", MEMO_ALGORITHMS)
def test_lublin(algorithm, seed, penalty):
    cluster = Cluster(num_nodes=16, cores_per_node=4, node_memory_gb=8.0)
    _, reused = _differential(
        algorithm,
        cluster,
        _lublin(cluster, 36, seed),
        penalty_model=ReschedulingPenaltyModel(penalty),
    )
    # Event-driven DYNMCB8 sees a changed job set at nearly every event.
    assert reused > 0 or algorithm == "dynmcb8"


def test_stretch_per_never_reaches_the_memo():
    """Its search reads flow and virtual time, which move between ticks."""
    cluster = Cluster(num_nodes=16, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 36, 11)
    want, _ = _observe(reference_scheduler("dynmcb8-stretch-per-600"), cluster, specs)
    scheduler = create_scheduler("dynmcb8-stretch-per-600")
    got, counters = _observe(scheduler, cluster, specs)
    assert got == want
    assert REUSED not in counters and scheduler._searches == {}


# --------------------------------------------------------------------------- #
# (b) node failures: capacities change under an unchanged job set              #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("repack", [False, True])
@pytest.mark.parametrize("policy", ["resubmit", "migrate"])
def test_node_failures(policy, repack):
    cluster = Cluster(num_nodes=12, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 36, seed=7)
    horizon = max(spec.submit_time for spec in specs) + 20_000.0
    seen, reused = _differential(
        "dynmcb8-asap-per-600",
        cluster,
        specs,
        penalty_model=ReschedulingPenaltyModel(300.0),
        node_events=ExponentialFailureSource(
            mtbf_seconds=horizon / 3.0, mttr_seconds=1800.0, horizon_seconds=horizon, seed=5
        ),
        failure_policy=policy,
        repack_on_failure=repack,
    )
    eviction = "failure-kill" if policy == "resubmit" else "checkpoint"
    assert {"node-down", "node-up", eviction} <= _actions(seen)
    assert reused > 0


# --------------------------------------------------------------------------- #
# (c) a node-class cluster: per-node capacities in every key                   #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", MEMO_ALGORITHMS)
def test_node_class_cluster(algorithm):
    cluster = NodeClassesPlatform(
        classes=(
            NodeClass("fast", 4, cpu=2.0, memory=1.0),
            NodeClass("standard", 8, cpu=1.0, memory=1.0),
            NodeClass("small", 4, cpu=0.5, memory=0.5),
        )
    ).build_cluster()
    _differential(
        algorithm,
        cluster,
        _lublin(cluster, 40, seed=2010),
        penalty_model=ReschedulingPenaltyModel(300.0),
    )


# --------------------------------------------------------------------------- #
# (d) the streaming and online drivers                                         #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ["dynmcb8-per-600", "dynmcb8-asap-per-600"])
def test_run_stream(algorithm):
    cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
    _, reused = _differential(algorithm, cluster, _lublin(cluster, 30, seed=3), driver=_run_stream)
    assert reused > 0


@pytest.mark.parametrize("algorithm", ["dynmcb8-per-600", "dynmcb8-asap-per-600"])
def test_online_drive_cancelling_between_ticks(algorithm):
    cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 40, seed=3)
    cancelled: List[List[tuple]] = []

    def driver(simulator, specs):
        cancelled.append([])
        return _online_with_cancels(simulator, specs, cancelled[-1])

    seen, reused = _differential(
        algorithm, cluster, specs, driver=driver, penalty_model=ReschedulingPenaltyModel(300.0)
    )
    assert cancelled[0] == cancelled[1] and len(cancelled[0]) == 4
    assert "cancel" in _actions(seen) and reused > 0


@pytest.mark.parametrize("algorithm, most_rounds", [("dynmcb8", 15), ("dynmcb8-per-600", 16)])
def test_repacks_with_many_eviction_rounds(algorithm, most_rounds, monkeypatch):
    """Four nodes for 36 jobs: memory alone evicts jobs round after round.
    The live repack reads each round's verdict from one prefix pass; the
    oracle re-sums ``memory_feasible`` per round, which is what is counted.
    A verdict that let a hopeless round through would move no decision, so
    the rounds each side searches are counted too."""
    rounds: List[int] = []
    searched = {"reference": 0, "live": 0}
    memory_feasible = reference_repack.memory_feasible
    search_evicting = reference_repack.ReferenceRepack._search_evicting
    reference_search = reference_repack.maximize_min_yield
    live_search = DynMcb8Scheduler._reused_search

    def counted_feasible(*args, **kwargs):
        rounds[-1] += 1
        return memory_feasible(*args, **kwargs)

    def counted_search_evicting(*args):
        rounds.append(0)
        return search_evicting(*args)

    def counted_reference_search(*args, **kwargs):
        searched["reference"] += 1
        return reference_search(*args, **kwargs)

    def counted_live_search(*args, **kwargs):
        searched["live"] += 1
        return live_search(*args, **kwargs)

    monkeypatch.setattr(reference_repack, "memory_feasible", counted_feasible)
    monkeypatch.setattr(
        reference_repack.ReferenceRepack, "_search_evicting", staticmethod(counted_search_evicting)
    )
    monkeypatch.setattr(reference_repack, "maximize_min_yield", counted_reference_search)
    monkeypatch.setattr(DynMcb8Scheduler, "_reused_search", counted_live_search)
    cluster = Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)
    _differential(algorithm, cluster, _lublin(cluster, 36, seed=11))
    assert max(rounds) == most_rounds
    assert sum(count >= 5 for count in rounds) > 20
    assert searched["live"] == searched["reference"] < sum(rounds)


# --------------------------------------------------------------------------- #
# (e) the memo's own contracts                                                 #
# --------------------------------------------------------------------------- #
def _held_results(scheduler) -> int:
    """Search results reachable from the scheduler's attributes."""
    return sum(
        len(value)
        for value in vars(scheduler).values()
        if isinstance(value, dict)
        and any(
            isinstance(entry, YieldSearchResult)
            or isinstance(entry, list) and isinstance(entry[0], YieldSearchResult)
            for entry in value.values()
        )
    )


def test_service_replay_holds_one_repacks_rounds():
    scheduler = create_scheduler("dynmcb8-asap-per-600")
    rounds: List[int] = []
    held: List[int] = []
    live_search, live_repack = scheduler._reused_search, scheduler.repack

    def search(previous, jobs, num_nodes, *, capacities):
        rounds[-1] += 1
        return live_search(previous, jobs, num_nodes, capacities=capacities)

    def repack(context, candidates):
        rounds.append(0)
        placements = live_repack(context, candidates)
        held.append(_held_results(scheduler))
        return placements

    scheduler._reused_search, scheduler.repack = search, repack
    service = SchedulerService(
        Cluster(16, 4, 8.0), scheduler, config=SimulationConfig(telemetry={"type": "stats"})
    )
    source = DiurnalPoissonTraceSource(
        num_jobs=500, seed=7, mean_interarrival_seconds=120.0, max_runtime_seconds=7200.0
    )
    report = service.replay(source)
    assert report.completions == 500
    assert len(held) == len(rounds) > 100
    assert all(kept <= searched for kept, searched in zip(held, rounds))
    assert service.telemetry.counters[REUSED] > 0


def test_one_instance_across_runs_and_clusters_equals_fresh_ones():
    """16 nodes, then 8, then 16 again: the same trace, which fits all three."""
    reused_instance = create_scheduler("dynmcb8-asap-per-600")
    specs = _lublin(Cluster(8, 4, 8.0), 30, seed=5)
    penalty = ReschedulingPenaltyModel(300.0)
    for nodes in (16, 8, 16):
        cluster = Cluster(nodes, 4, 8.0)
        fresh = create_scheduler("dynmcb8-asap-per-600")
        want = _observe(fresh, cluster, specs, penalty_model=penalty)
        got = _observe(reused_instance, cluster, specs, penalty_model=penalty)
        assert got == want  # events, costs, placement log and every counter
        assert got[1][REUSED] > 0


#: What the packing tallies read at the commit before the yield search packed
#: whole jobs (``_probe`` then built one item per task): DYNMCB8-ASAP-PER on 36
#: Lublin jobs with a 300 s penalty, on 16 nodes (seed 11) and on 12 failing
#: nodes (seed 7, the capacity route).  The job-level entry tallies the items
#: and the runs a pack is offered, so nothing here may move.
PARENT_PACKING_TALLIES = {
    "16-nodes": {
        "packing.packs": 156, "packing.items": 6873, "packing.runs": 833,
        "packing.bins_used": 1467, "packing.pack_failures": 39, "packing.probes": 199,
        "packing.probes_pruned": 43, "packing.searches_reused": 67, "packing.mcb8": 156,
    },
    "12-failing-nodes": {
        "packing.packs": 696, "packing.items": 24420, "packing.runs": 3256,
        "packing.bins_used": 5786, "packing.pack_failures": 128, "packing.probes": 932,
        "packing.probes_pruned": 236, "packing.searches_reused": 56, "packing.mcb8": 696,
    },
}


@pytest.mark.parametrize("fixture", list(PARENT_PACKING_TALLIES))
def test_packing_tallies_equal_the_item_entrys(fixture):
    nodes, seed, extra = 16, 11, {}
    if fixture == "12-failing-nodes":
        nodes, seed = 12, 7
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    specs = _lublin(cluster, 36, seed)
    if fixture == "12-failing-nodes":
        horizon = max(spec.submit_time for spec in specs) + 20_000.0
        extra = dict(
            node_events=ExponentialFailureSource(
                mtbf_seconds=horizon / 3.0, mttr_seconds=1800.0, horizon_seconds=horizon, seed=5
            ),
            failure_policy="migrate",
            repack_on_failure=True,
        )
    simulator = Simulator(
        cluster,
        create_scheduler("dynmcb8-asap-per-600"),
        SimulationConfig(
            telemetry={"type": "stats"}, penalty_model=ReschedulingPenaltyModel(300.0), **extra
        ),
    )
    simulator.run(specs)
    counters = dict(simulator.telemetry.counters)
    counters["packing.mcb8"] = simulator.telemetry.phases()["packing.mcb8"].count
    want = PARENT_PACKING_TALLIES[fixture]
    assert {name: counters.get(name) for name in want} == want
    assert 0 < counters[YIELDS_REUSED] <= counters[REUSED]
