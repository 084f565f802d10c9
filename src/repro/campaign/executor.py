"""Campaign executor: expand a scenario, fan it out, collect tidy rows.

The executor turns a :class:`~repro.campaign.scenario.Scenario` into the
``cells × instances × algorithms`` run grid and pushes it through a
process pool (:func:`map_tasks`, the one fan-out primitive of the
repository: every simulation is deterministic given its task, so
``workers=N`` is bit-for-bit equal to ``workers=1``).  Each worker builds
its collectors and their observers locally, simulates, evaluates the
collectors, and ships back only a plain metrics dictionary — so the grid
parallelises even when collectors need observers attached.

With a ``cache_dir``, finished runs are persisted under the stable
:func:`~repro.campaign.scenario.scenario_hash` after every cell; a rerun of
the same scenario loads finished cells from disk and only simulates what is
missing, which makes long campaigns resumable after an interruption.

``Campaign(streaming=True)`` selects the bounded-memory execution path
instead: each worker feeds a per-instance :class:`repro.traces.JobSource`
straight into :meth:`~repro.core.engine.Simulator.run_stream` with
``SimulationConfig(streaming_metrics=True)`` — no instance is ever
materialized, no per-job record is ever kept — and ships back a bundle of
mergeable :class:`repro.metrics.Accumulator` partials.  The executor merges
the partials of a cell's instances exactly (the accumulators' associative
``merge``) and emits **one row per (cell, algorithm)** with
``instance_index = -1`` marking the merge.  Campaign memory is
O(cells × accumulators), independent of trace length; a ``load`` sweep axis
is honoured by measuring the stream's offered load in one extra pass and
chaining the streaming inter-arrival rescale that
:func:`~repro.traces.scale_to_load` applies to a materialized instance.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import multiprocessing.pool
import os
import re
import warnings
from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..core.cluster import Cluster
from ..core.engine import SimulationConfig, Simulator
from ..core.observers import SimulationObserver
from ..core.penalties import ReschedulingPenaltyModel
from ..core.records import SimulationResult
from ..exceptions import ConfigurationError, ReproError
from ..metrics import bundle_from_dict, bundle_to_dict, degradation_factors, merge_bundles
from ..obs.telemetry import merge_telemetry_bundles, summarize_bundle
from ..schedulers.registry import create_scheduler
from ..traces import (
    JobSource,
    ScaleInterarrival,
    Workload,
    offered_load,
    rescale_to_load,
    scale_to_load,
)
from .collectors import MetricCollector, create_collector
from .result import CampaignResult, RunRecord
from .scenario import CollectorSpec, Scenario, payload_hash, scenario_hash

__all__ = [
    "Campaign",
    "InstanceResult",
    "export_campaign_artifacts",
    "map_tasks",
    "resolve_simulation_config",
    "resolve_workers",
    "run_algorithm",
    "run_instance",
]

_LOGGER = logging.getLogger(__name__)

#: On-disk run-cache payload format.  Bumped whenever a collector's output
#: shape changes (e.g. the ``costs`` overhead columns of the models seam),
#: so resumed campaigns never mix rows with inconsistent metric columns;
#: caches with another format are ignored and regenerated.
_CACHE_FORMAT = 3

#: One unit of pool work: everything a worker needs to simulate and measure.
_RunTask = Tuple[Workload, str, SimulationConfig, Tuple[CollectorSpec, ...]]

#: One unit of streaming pool work: (job source, cluster, algorithm,
#: engine config, collector specs, inter-arrival rescale step or None).
_StreamTask = Tuple[
    JobSource, Cluster, str, SimulationConfig, Tuple[CollectorSpec, ...],
    Optional[ScaleInterarrival],
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request: ``None``/``1`` serial, ``<=0`` all CPUs."""
    if workers is None:
        return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _pool(workers: int) -> multiprocessing.pool.Pool:
    # fork keeps the warm interpreter (and is the only start method that
    # does not require the callables to be importable from __main__ on
    # every platform); fall back to the default context where missing.
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return context.Pool(processes=workers)


def map_tasks(
    fn: Callable[[_T], _R], tasks: Sequence[_T], *, workers: Optional[int] = None
) -> List[_R]:
    """Map a picklable, deterministic function over tasks, possibly in parallel.

    Results come back in task order, and ``workers=1`` (or a single task)
    degenerates to an in-process loop with simple stack traces.  ``fn`` must
    be importable at module level (pool workers pickle it by reference) and
    must not read global RNG state: all randomness lives in seeded task
    payloads, which is what makes the pool invisible in the results.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    _LOGGER.debug("running %d tasks on %d workers", len(tasks), workers)
    with _pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=1)


_Measured = List[Tuple[MetricCollector, Dict[str, SimulationObserver]]]


def _measured_simulator(
    cluster: Cluster,
    algorithm: str,
    simulation_config: SimulationConfig,
    collector_specs: Sequence[CollectorSpec],
    streaming: bool,
) -> Tuple[Simulator, _Measured]:
    """A simulator carrying every collector's fresh observers, and the
    ``(collector, observers)`` pairs to evaluate once it has run."""
    measured: _Measured = []
    for spec in collector_specs:
        collector = create_collector(spec.name, **spec.options_dict())
        measured.append((collector, collector.observers(streaming)))
    simulator = Simulator(
        cluster,
        create_scheduler(algorithm),
        simulation_config,
        observers=[obs for _, observers in measured for obs in observers.values()],
    )
    return simulator, measured


def _execute_run(task: _RunTask) -> Dict[str, Any]:
    """Run one (workload, algorithm) cell and evaluate its collectors.

    Module-level so the pool can pickle it by reference; each collector's
    observers are built per run from the collector's options.
    """
    workload, algorithm, simulation_config, collector_specs = task
    simulator, measured = _measured_simulator(
        workload.cluster, algorithm, simulation_config, collector_specs, False
    )
    result = simulator.run(workload.jobs)
    metrics: Dict[str, Any] = {}
    for collector, observers in measured:
        metrics.update(collector.collect(result, observers, workload))
    if simulator.telemetry is not None:
        # Timings travel in their own row field, never among the metric
        # columns — results stay a pure function of the spec (DET103).
        metrics["telemetry"] = simulator.telemetry.summary()
    return metrics


# -- single-workload helpers -----------------------------------------------------
# "Run this workload under that name", in process: what the examples and the
# integration tests use.  Grids of instances × algorithms go through Campaign,
# which owns the fan-out, the cache and the aggregation.
@dataclass
class InstanceResult:
    """All algorithm runs for one workload instance."""

    workload_name: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    def max_stretches(self) -> Dict[str, float]:
        """Maximum bounded stretch per algorithm."""
        return {name: result.max_stretch for name, result in self.results.items()}

    def degradation_factors(self) -> Dict[str, float]:
        """Per-algorithm degradation factors for this instance."""
        return degradation_factors(self.max_stretches())


def resolve_simulation_config(
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
) -> SimulationConfig:
    """Engine configuration for one run.

    An explicit ``simulation_config`` wins wholesale (its own penalty model
    included) so per-scenario engine options such as
    ``record_scheduler_times`` reach single-run paths; otherwise a default
    configuration carrying ``penalty_seconds`` is built.
    """
    if simulation_config is not None:
        return simulation_config
    return SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty_seconds))


def run_algorithm(
    workload: Workload,
    algorithm: str,
    *,
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate one workload under one algorithm."""
    simulator = Simulator(
        workload.cluster,
        create_scheduler(algorithm),
        resolve_simulation_config(penalty_seconds, simulation_config),
    )
    return simulator.run(workload.jobs)


def run_instance(
    workload: Workload,
    algorithms: Sequence[str],
    *,
    penalty_seconds: float = 0.0,
    simulation_config: Optional[SimulationConfig] = None,
) -> InstanceResult:
    """Simulate one workload under every requested algorithm."""
    instance = InstanceResult(workload_name=workload.name)
    for algorithm in algorithms:
        _LOGGER.debug("running %s on %s", algorithm, workload.name)
        instance.results[algorithm] = run_algorithm(
            workload,
            algorithm,
            penalty_seconds=penalty_seconds,
            simulation_config=simulation_config,
        )
    return instance


def _check_arrival_order(source: JobSource, cluster: Cluster) -> None:
    """Fail fast if a convention-ordered stream is not actually sorted.

    One cheap streaming pass over the submit times; raises a targeted
    ConfigurationError (with a fix) instead of letting the engine abort the
    campaign mid-simulation.
    """
    previous = -float("inf")
    for position, spec in enumerate(source.jobs(cluster)):
        if spec.submit_time < previous:
            raise ConfigurationError(
                f"stream {source.default_name()!r} is not arrival-ordered: "
                f"job {spec.job_id} (record {position}) is submitted at "
                f"{spec.submit_time:.3f}, before its predecessor "
                f"({previous:.3f}); sort the trace first, e.g. "
                "'repro-dfrs trace convert TRACE sorted.json.gz', or run "
                "without streaming"
            )
        previous = spec.submit_time


def _execute_streaming_run(task: _StreamTask) -> Dict[str, Any]:
    """Simulate one (source, algorithm) streaming cell; ship back partials.

    The worker never materializes the instance: the source streams into
    ``run_stream`` (admitting O(active jobs)), the engine reduces per-job
    outcomes online, and only serialized accumulator bundles travel back
    over the pool.  ``rescale`` (when set) is the lazy inter-arrival
    rescale of a ``load`` axis value — the executor built it from one load
    measurement per instance, so workers never pay a measurement pass.
    """
    source, cluster, algorithm, simulation_config, collector_specs, rescale = task
    simulator, measured = _measured_simulator(
        cluster, algorithm, simulation_config, collector_specs, True
    )
    stream_source = source if rescale is None else source.transformed(rescale)
    result = simulator.run_stream(stream_source.jobs(cluster))
    outcome = {
        "workload": source.default_name(),
        "partials": {
            collector.name: bundle_to_dict(
                collector.stream_partials(result, observers)
            )
            for collector, observers in measured
        },
        "peak_resident_jobs": simulator.peak_resident_jobs,
    }
    if simulator.telemetry is not None:
        # Telemetry ships as a serialized accumulator bundle, exactly like
        # the metric partials, so per-worker sinks merge exactly.
        outcome["telemetry"] = bundle_to_dict(simulator.telemetry.bundle())
    return outcome


class _Plan:
    """What an execution mode tells the one grid loop, ``Campaign._run_cells``.

    Which ``worker`` simulates a task, which tasks a row needs (``count``
    instances per cell, ``merged`` into one row or not; one ``task`` per
    instance and algorithm), and how a row's outcomes ``fold`` into its entry.
    """

    merged = False
    worker: Callable[[Any], Dict[str, Any]]

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        return config

    def before_first_run(self) -> None:
        """Called before any cell's pending tasks are simulated."""

    def count(self, cluster: Cluster) -> int:
        raise NotImplementedError

    def task(
        self, instance: int, algorithm: str, cluster: Cluster, load: Any,
        config: SimulationConfig,
    ) -> Any:
        raise NotImplementedError

    def fold(
        self, tasks: Sequence[Any], outcomes: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        raise NotImplementedError


class _MaterializedPlan(_Plan):
    """Whole instances in memory: one task and one row per (instance, algorithm).

    Workloads are generated once per *distinct cluster*, so sweeping only the
    failure model of a templated platform still generates every instance
    exactly once; the ``load`` axis rescales them with ``scale_to_load``.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.worker = _execute_run
        self._raw: Dict[Cluster, List[Workload]] = {}
        # Memoised per (cluster, load) value, not per cell: in a cross sweep
        # many cells share a load, and rescaling every instance once per cell
        # would repeat identical work.
        self._scaled: Dict[Tuple[Cluster, Any], List[Workload]] = {}

    def count(self, cluster: Cluster) -> int:
        return len(self._workloads(cluster, None))

    def _workloads(self, cluster: Cluster, load: Any) -> List[Workload]:
        if load is None:
            if cluster not in self._raw:
                workloads = self.scenario.source.workloads(cluster)
                if not workloads:
                    raise ReproError(
                        f"scenario {self.scenario.name!r}: workload source "
                        "produced no instances"
                    )
                self._raw[cluster] = workloads
            return self._raw[cluster]
        key = (cluster, load)
        if key not in self._scaled:
            self._scaled[key] = [
                scale_to_load(workload, float(load))
                for workload in self._workloads(cluster, None)
            ]
        return self._scaled[key]

    def task(
        self, instance: int, algorithm: str, cluster: Cluster, load: Any,
        config: SimulationConfig,
    ) -> _RunTask:
        workload = self._workloads(cluster, load)[instance]
        return (workload, algorithm, config, self.scenario.collectors)

    def fold(
        self, tasks: Sequence[Any], outcomes: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        (task,) = tasks
        return {"workload": task[0].name, "metrics": outcomes[0]}


class _StreamingPlan(_Plan):
    """Bounded memory: instances stream, a row folds accumulator partials.

    ``merged`` rows fold every instance of a cell; per-instance rows fold a
    group of one (``merge_bundles`` of one bundle is the identity).
    """

    def __init__(self, scenario: Scenario, merged: bool) -> None:
        if scenario.has_platform_template:
            raise ConfigurationError(
                "platform sweep templating resolves one platform per cell, "
                "which the streaming executor does not support; drop the "
                "{axis} placeholders from the platform block or run without "
                "streaming"
            )
        sources = scenario.source.streaming_sources(scenario.cluster)
        if sources is None:
            raise ConfigurationError(
                f"workload source {scenario.source.kind!r} cannot stream "
                "(no per-instance JobSources); use a generator/transform/"
                "swf source or run without streaming"
            )
        if not sources:
            raise ConfigurationError(
                f"scenario {scenario.name!r}: workload source produced no "
                "streaming instances"
            )
        # Built once and reused for validation and every row's finalize —
        # collectors are stateless between runs by contract.
        collectors = [
            create_collector(spec.name, **spec.options_dict())
            for spec in scenario.collectors
        ]
        for collector in collectors:
            if not collector.streaming_capable:
                raise ConfigurationError(
                    f"metric collector {collector.name!r} needs the full "
                    "per-job population and cannot run in a streaming "
                    "campaign; drop it or run without streaming"
                )

        self.scenario = scenario
        self.merged = merged
        self.worker = _execute_streaming_run
        self._sources = sources
        self._collectors = collectors
        # Offered load is a per-instance constant: measured lazily, once per
        # instance, with a single O(1)-memory pass — not once per
        # (cell × algorithm × load) worker task.
        self._measured_loads: List[Optional[float]] = [None] * len(sources)
        self._order_checked = False

    def configure(self, config: SimulationConfig) -> SimulationConfig:
        return dataclasses_replace(config, streaming_metrics=True)

    def count(self, cluster: Cluster) -> int:
        return len(self._sources)

    def _rescale(self, instance: int, load: Any) -> Optional[ScaleInterarrival]:
        if load is None:
            return None
        source = self._sources[instance]
        measured = self._measured_loads[instance]
        if measured is None:
            measured = self._measured_loads[instance] = offered_load(
                source.jobs(self.scenario.cluster), self.scenario.cluster
            )
        return rescale_to_load(source.default_name(), measured, float(load))[0]

    def task(
        self, instance: int, algorithm: str, cluster: Cluster, load: Any,
        config: SimulationConfig,
    ) -> _StreamTask:
        return (
            self._sources[instance],
            cluster,
            algorithm,
            config,
            self.scenario.collectors,
            self._rescale(instance, load),
        )

    def before_first_run(self) -> None:
        """Order-check convention-ordered streams before the first simulation.

        SWF archives (directly or under transforms/concat) are arrival-ordered
        by convention only, so a stray out-of-order record should fail in
        seconds instead of aborting a potentially hours-long run — but
        lazily, only when some row actually needs simulating: a fully cached
        rerun must not re-parse a gigabyte archive just to resume.
        """
        if self._order_checked:
            return
        self._order_checked = True
        for source in self._sources:
            # The JobSource protocol flag: SWF archives set it, wrapper
            # sources propagate it from their bases; the check runs on the
            # outer stream so order-restoring buffering transforms
            # correctly pass.
            if getattr(source, "order_by_convention", False):
                _check_arrival_order(source, self.scenario.cluster)

    def fold(
        self, tasks: Sequence[Any], outcomes: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        metrics: Dict[str, Any] = {}
        for collector in self._collectors:
            merged = merge_bundles(
                [
                    bundle_from_dict(outcome["partials"][collector.name])
                    for outcome in outcomes
                ]
            )
            metrics.update(collector.stream_finalize(merged))
        telemetry_bundles = [
            outcome["telemetry"] for outcome in outcomes if outcome.get("telemetry")
        ]
        if telemetry_bundles:
            # Union-wise merge: instrument sets legitimately differ between
            # shards (see merge_telemetry_bundles).
            metrics["telemetry"] = summarize_bundle(
                merge_telemetry_bundles(telemetry_bundles)
            )
        metrics["peak_resident_jobs"] = max(
            outcome["peak_resident_jobs"] for outcome in outcomes
        )
        workload_name = str(outcomes[0]["workload"])
        if any(str(outcome["workload"]) != workload_name for outcome in outcomes):
            workload_name = f"{workload_name}(+{len(outcomes) - 1})"
        return {"workload": workload_name, "metrics": metrics}


class Campaign:
    """Execute scenarios into :class:`~repro.campaign.result.CampaignResult`.

    Parameters
    ----------
    workers:
        Worker processes for the run-grid fan-out (``None``/1 = serial,
        ``<= 0`` = one per CPU); results are identical either way.
    cache_dir:
        Directory for the resumable run cache, keyed by scenario hash.
        ``None`` disables caching.
    streaming:
        Select the bounded-memory execution path (see the module docstring):
        instances stream straight into ``run_stream`` with online metrics,
        per-cell accumulators merge exactly across workers, and rows come
        back one per ``(cell, algorithm)`` with ``instance_index = -1``.
        Requires a source with ``streaming_sources`` and collectors with
        ``streaming_capable``.
    merge_instances:
        Streaming campaigns merge each cell's per-instance accumulator
        bundles into **one row per (cell, algorithm)** with
        ``instance_index = -1`` (the default).  ``merge_instances=False``
        finalizes every instance's bundle separately instead, emitting one
        row per ``(cell, instance, algorithm)`` with the real
        ``instance_index`` — the materialized path's row shape, with
        sketched quantile columns.  Only read when ``streaming``.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        streaming: bool = False,
        merge_instances: bool = True,
    ) -> None:
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.streaming = streaming
        self.merge_instances = merge_instances

    # -- cache -----------------------------------------------------------------
    def _cache_path(self, digest: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{digest}.json"

    def _load_cache(
        self, digest: str
    ) -> Tuple[Dict[str, Dict[str, Any]], Optional[int], Dict[str, int]]:
        """Cached run entries (``{"workload": name, "metrics": {...}}`` per
        key) plus the instance counts — scenario-wide, and per cell for
        sweep-templated platforms — so fully cached reruns skip workload
        generation entirely."""
        path = self._cache_path(digest)
        if path is None or not path.exists():
            return {}, None, {}
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            _LOGGER.warning("ignoring unreadable campaign cache %s: %s", path, error)
            return {}, None, {}
        if payload.get("scenario_hash") != digest:
            _LOGGER.warning("ignoring mismatched campaign cache %s", path)
            return {}, None, {}
        if payload.get("format") != _CACHE_FORMAT:
            _LOGGER.warning(
                "ignoring campaign cache %s with format %r (current: %r)",
                path, payload.get("format"), _CACHE_FORMAT,
            )
            return {}, None, {}
        runs = dict(payload.get("runs", {}))
        if any(
            not isinstance(entry, Mapping)
            or "metrics" not in entry
            or "workload" not in entry
            for entry in runs.values()
        ):
            _LOGGER.warning("ignoring incompatible campaign cache %s", path)
            return {}, None, {}
        num_instances = payload.get("num_instances")
        cell_counts = payload.get("cell_instances", {})
        if not (
            isinstance(cell_counts, Mapping)
            and all(isinstance(count, int) for count in cell_counts.values())
        ):
            cell_counts = {}
        return (
            runs,
            num_instances if isinstance(num_instances, int) else None,
            dict(cell_counts),
        )

    def _store_cache(
        self,
        digest: str,
        scenario: Scenario,
        runs: Mapping[str, Mapping[str, Any]],
        num_instances: Optional[int],
        cell_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        path = self._cache_path(digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _CACHE_FORMAT,
            "scenario_hash": digest,
            "scenario": scenario.to_dict(),
            "num_instances": num_instances,
            "runs": dict(runs),
        }
        if cell_counts:
            payload["cell_instances"] = dict(cell_counts)
        # The whole file is rewritten after every finished cell (that is what
        # makes interrupted campaigns resumable), so keep it compact — with
        # sample-vector collectors the accumulated payload can get large.
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        )
        tmp.replace(path)

    # -- execution -------------------------------------------------------------
    def run(self, scenario: Scenario) -> CampaignResult:
        """Run one scenario (or load/complete it from the cache).

        Workload generation is lazy: a rerun whose runs are all cached reads
        everything (metrics and workload names) from the cache file and never
        touches the workload source.
        """
        plan: _Plan
        if self.streaming and not self._must_materialize_stream(scenario):
            plan = _StreamingPlan(scenario, self.merge_instances)
            digest = self._streaming_digest(scenario)
        else:
            plan = _MaterializedPlan(scenario)
            digest = scenario_hash(scenario)
        return self._run_cells(scenario, digest, plan)

    def _run_cells(
        self, scenario: Scenario, digest: str, plan: _Plan
    ) -> CampaignResult:
        """The one grid loop: cells × row groups × algorithms, through the cache.

        A sweep-templated platform makes the cluster (and the engine's
        failure trace) a per-cell quantity, sweep-templated models the engine
        config; static blocks resolve to the same values for every cell.
        Instance counts are cached — scenario-wide, or per cell when clusters
        differ — so a fully cached rerun never asks the plan for instances.
        """
        cached, num_instances, cell_counts = self._load_cache(digest)
        templated = scenario.has_platform_template
        rows: List[RunRecord] = []
        for cell in scenario.expand():
            params = cell.params_dict()
            load = params.get("load")
            algorithms = scenario.resolved_algorithms(params)
            platform = scenario.resolved_platform(params)
            cluster = platform.build_cluster() if templated else scenario.cluster
            if templated:
                count = cell_counts.get(str(cell.index))
                if count is None:
                    count = plan.count(cluster)
                cell_counts[str(cell.index)] = count
            else:
                if num_instances is None:
                    num_instances = plan.count(cluster)
                count = num_instances

            # One row per (group, algorithm); a group is the instances whose
            # outcomes fold into that row — all of them (instance_index -1
            # marks "merged across every instance of the cell") or just one.
            groups: List[Tuple[str, int, List[int]]] = (
                [("merged", -1, list(range(count)))]
                if plan.merged
                else [(str(index), index, [index]) for index in range(count)]
            )
            row_keys = [
                (f"{cell.index}/{label}/{algorithm}", instance_index, members, algorithm)
                for label, instance_index, members in groups
                for algorithm in algorithms
            ]
            pending = [row for row in row_keys if row[0] not in cached]
            if pending:
                config = plan.configure(scenario.simulation_config(params))
                tasks = [
                    plan.task(instance, algorithm, cluster, load, config)
                    for _, _, members, algorithm in pending
                    for instance in members
                ]
                plan.before_first_run()
                _LOGGER.debug(
                    "scenario %s cell %d: running %d tasks for %d of %d rows",
                    scenario.name, cell.index, len(tasks), len(pending),
                    len(row_keys),
                )
                outcomes = map_tasks(plan.worker, tasks, workers=self.workers)
                start = 0
                for key, _, members, _ in pending:
                    stop = start + len(members)
                    cached[key] = plan.fold(tasks[start:stop], outcomes[start:stop])
                    start = stop
                # Persist after every cell so an interrupted campaign resumes
                # from the last finished cell instead of from scratch.  The
                # scenario-wide instance count only holds when every cell
                # shares one cluster; templated platforms record per-cell
                # counts instead.
                self._store_cache(
                    digest, scenario, cached,
                    None if templated else num_instances,
                    cell_counts if templated else None,
                )

            for key, instance_index, _, algorithm in row_keys:
                entry = cached[key]
                rows.append(
                    RunRecord(
                        cell_index=cell.index,
                        instance_index=instance_index,
                        workload=str(entry["workload"]),
                        algorithm=algorithm,
                        params=cell.params,
                        metrics=entry["metrics"],
                    )
                )

        return CampaignResult(
            scenario=scenario.to_dict(), scenario_hash=digest, rows=rows
        )

    # -- streaming execution ---------------------------------------------------
    @staticmethod
    def _must_materialize_stream(scenario: Scenario) -> bool:
        """True when a streaming request must fall back to the materialized path.

        Sources declare the condition themselves
        (:meth:`~repro.campaign.scenario.WorkloadSource
        .materialize_stream_reason`; today: ``swf`` with ``segment_seconds``,
        whose fixed-duration segmentation the per-instance streaming protocol
        cannot express — a windowed splitter is a ROADMAP follow-on).  The
        fallback is announced with a targeted warning — rows come back per
        instance (materialized shape), not merged per cell.
        """
        reason = scenario.source.materialize_stream_reason()
        if reason is None:
            return False
        warnings.warn(
            f"scenario {scenario.name!r}: {reason}; falling back to the "
            "materialized execution path — rows will be per-instance, not "
            "merged per cell",
            stacklevel=4,
        )
        return True

    def _streaming_digest(self, scenario: Scenario) -> str:
        # The streaming rows are a different shape (merged per cell, sketched
        # quantile columns), so the cache must never be shared with the
        # materialized path: fold the execution mode into the digest.  The
        # sketch accuracy entry is the constant every streaming run has used
        # (``DEFAULT_RELATIVE_ERROR``), kept literal so existing streaming
        # caches still hit.  Per-instance mode changes the row shape again;
        # folded in only when non-default so pre-existing merged-mode digests
        # are unchanged.
        digest_payload: Dict[str, Any] = {
            "execution": "streaming-metrics",
            "metrics_relative_error": 0.01,
            "scenario": scenario.to_dict(),
        }
        if not self.merge_instances:
            digest_payload["merge_instances"] = False
        return payload_hash(digest_payload)

    def run_many(self, scenarios: Iterable[Scenario]) -> Dict[str, CampaignResult]:
        """Run several scenarios, returned as a name-keyed mapping."""
        results: Dict[str, CampaignResult] = {}
        for scenario in scenarios:
            if scenario.name in results:
                raise ReproError(f"duplicate scenario name {scenario.name!r}")
            results[scenario.name] = self.run(scenario)
        return results


def export_campaign_artifacts(
    results: Sequence[CampaignResult],
    directory: Union[str, Path],
) -> List[Path]:
    """Write each result's tidy rows (CSV) and full payload (JSON) to a directory.

    File names are ``<scenario-name>-<hash>.rows.csv`` / ``.json``; the paths
    written are returned in order.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for result in results:
        # Scenario names are validated to a filename-safe charset, but a
        # hand-built CampaignResult can carry anything — sanitise defensively.
        safe_name = re.sub(r"[^A-Za-z0-9._-]", "_", result.name) or "campaign"
        stem = f"{safe_name}-{result.scenario_hash}"
        json_path = target / f"{stem}.json"
        result.to_json(json_path)
        written.append(json_path)
        csv_path = target / f"{stem}.rows.csv"
        result.rows_to_csv(csv_path)
        written.append(csv_path)
    return written
