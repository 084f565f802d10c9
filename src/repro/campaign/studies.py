"""The repository's standard studies: scenario builders, reports, one table.

The paper's evaluation is Figure 1, Tables I and II, and the §V timing
study; this repository adds four ablation / extension studies and an
exploratory single-trace comparison.  Each study is a scenario builder (an
:class:`ExperimentConfig` in, frozen :class:`~repro.campaign.scenario.Scenario`
objects out) plus one ``run_*`` function that runs them through a
:class:`~repro.campaign.executor.Campaign` and renders
the printed table straight from :class:`~repro.campaign.result.CampaignResult`
queries.  Every ``run_*`` returns the same :class:`StudyReport` — the text and
the campaigns behind it — so a number that is not in the text is one
``report.campaigns[0].degradation_stats()`` / ``aggregate()`` / ``select()``
away.

:data:`STUDIES` is the one table of them (name → help text, runner, CLI
options).  The CLI builds its study subcommands and dispatches from it, and
the golden-output tests and their regeneration script iterate it: a new
study is one entry here plus one golden file.

The :class:`ExperimentConfig` defaults are deliberately small so that every
study runs in minutes on a laptop.  The ``paper`` study's scenarios
(:func:`paper_scenarios`) have the shape of the paper's own grid, the
scenario file ``examples/scenarios/paper_grid.json`` (128 nodes, Lublin
traces of 1,000 jobs, load 0.1–0.9, penalty 0 and 300 s, run with
``repro-dfrs run``), and both print through one per-penalty section,
:func:`paper_section`: :func:`run_paper` at any size, and
:func:`render_paper_grid` for the committed result of that file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import format_figure_series, format_table
from ..core.cluster import PAPER_CLUSTER, Cluster
from ..exceptions import ConfigurationError
from ..packing import (
    PACKER_NAMES,
    PackingJob,
    cpu_capacity_yield_bound,
    get_packer,
    maximize_min_yield,
)
from ..schedulers.registry import BATCH_ALGORITHMS, PAPER_ALGORITHMS
from ..traces import HPC2N_CLUSTER, MemoryRequirementModel
from .executor import Campaign, map_tasks
from .result import CampaignResult, RunRecord
from .scenario import (
    CollectorSpec,
    Hpc2nLikeSource,
    LublinSource,
    Scenario,
    payload_hash,
)

__all__ = [
    "ExperimentConfig",
    "lublin_source",
    "paper_scenarios",
    "extensions_scenario",
    "period_sweep_scenario",
    "utilization_scenario",
    "timing_scenario",
    "compare_scenario",
    "StudyReport",
    "run_paper",
    "figure1_section",
    "table1_section",
    "table2_section",
    "paper_section",
    "render_paper_grid",
    "run_timing_study",
    "run_compare",
    "run_period_sweep",
    "generate_packing_instances",
    "run_packing_ablation",
    "run_utilization_study",
    "run_extensions_comparison",
    "TABLE2_ALGORITHMS",
    "TABLE2_METRICS",
    "HIGH_LOAD_THRESHOLD",
    "DEFAULT_PERIODS",
    "EXTENSION_ALGORITHMS",
    "Study",
    "StudyOption",
    "STUDIES",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and content of a reproduction campaign."""

    #: Cluster simulated for the synthetic (Lublin) experiments.
    cluster: Cluster = PAPER_CLUSTER
    #: Number of independent synthetic traces per load level.
    num_traces: int = 3
    #: Number of jobs per synthetic trace.
    num_jobs: int = 150
    #: Offered-load levels for the scaled-trace experiments (Figure 1).
    load_levels: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    #: Algorithms to evaluate, by registry name.
    algorithms: Tuple[str, ...] = tuple(PAPER_ALGORITHMS)
    #: Rescheduling penalty in seconds (0 or 300 in the paper).
    penalty_seconds: float = 300.0
    #: Base random seed; trace ``i`` uses ``seed_base + i``.
    seed_base: int = 2010
    #: Number of 1-week HPC2N-like segments for the real-world column.
    hpc2n_weeks: int = 2
    #: Jobs per HPC2N-like week (the real trace averages ~1,100).
    hpc2n_jobs_per_week: int = 400
    #: Worker processes for instance x algorithm fan-out (1 = serial,
    #: 0 or negative = one worker per CPU); results are identical either way.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.num_traces < 1:
            raise ConfigurationError("num_traces must be >= 1")
        if self.num_jobs < 2:
            raise ConfigurationError("num_jobs must be >= 2")
        if not self.load_levels:
            raise ConfigurationError("load_levels must not be empty")
        for level in self.load_levels:
            if not (0.0 < level):
                raise ConfigurationError(f"invalid load level {level}")
        if not self.algorithms:
            raise ConfigurationError("algorithms must not be empty")
        if self.penalty_seconds < 0:
            raise ConfigurationError("penalty_seconds must be >= 0")
        if self.hpc2n_weeks < 1:
            raise ConfigurationError("hpc2n_weeks must be >= 1")
        if self.hpc2n_jobs_per_week < 2:
            raise ConfigurationError("hpc2n_jobs_per_week must be >= 2")


_STRETCH_AND_COSTS = (CollectorSpec("stretch"), CollectorSpec("costs"))


def lublin_source(config: ExperimentConfig, *, num_traces: Optional[int] = None) -> LublinSource:
    """The synthetic-trace source of an experiment configuration."""
    return LublinSource(
        num_traces=config.num_traces if num_traces is None else num_traces,
        num_jobs=config.num_jobs,
        seed_base=config.seed_base,
    )


def paper_scenarios(config: ExperimentConfig) -> Dict[str, Scenario]:
    """The paper's evaluation in the shape of ``examples/scenarios/paper_grid.json``:
    Table I's three workload families, keyed by column name.

    ``scaled`` sweeps the Lublin traces over ``config.load_levels`` (it is
    also Figure 1's and Table II's campaign), ``unscaled`` runs the same
    traces at their own load, and ``real`` the HPC2N-like 1-week segments on
    the HPC2N machine itself.  Each sweeps a one-value ``penalty`` axis,
    charged through a constant overhead model, as the grid file does.
    """
    penalty = ("penalty", (config.penalty_seconds,))
    hpc2n = Hpc2nLikeSource(
        weeks=config.hpc2n_weeks,
        jobs_per_week=config.hpc2n_jobs_per_week,
        seed_base=config.seed_base,
    )
    columns = {
        "scaled": (lublin_source(config), config.cluster, (penalty, ("load", config.load_levels))),
        "unscaled": (lublin_source(config), config.cluster, (penalty,)),
        "real": (hpc2n, HPC2N_CLUSTER, (penalty,)),
    }
    return {
        column: Scenario(
            name=f"paper-{column}",
            source=source,
            cluster=cluster,
            models={"overhead": {
                "type": "constant",
                "resume_seconds": "{penalty}",
                "migration_seconds": "{penalty}",
            }},
            algorithms=config.algorithms,
            sweep=sweep,
            collectors=_STRETCH_AND_COSTS,
        )
        for column, (source, cluster, sweep) in columns.items()
    }


def extensions_scenario(
    config: ExperimentConfig, *, penalty_seconds: float, algorithms: Sequence[str]
) -> Scenario:
    """The extension-scheduler comparison over the scaled synthetic traces."""
    if not algorithms:
        raise ConfigurationError("algorithms must not be empty")
    return Scenario(
        name="extensions",
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=algorithms,
        penalty_seconds=penalty_seconds,
        sweep=(("load", config.load_levels),),
    )


def period_sweep_scenario(
    config: ExperimentConfig,
    *,
    base_algorithm: str,
    periods: Sequence[float],
    load: float,
    penalty_seconds: float,
) -> Scenario:
    """The scheduling-period sensitivity sweep for one periodic algorithm."""
    if not periods:
        raise ConfigurationError("periods must not be empty")
    for period in periods:
        if period <= 0:
            raise ConfigurationError(f"periods must be > 0, got {period}")
    return Scenario(
        name="period-sweep",
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=(f"{base_algorithm}-{{period}}",),
        penalty_seconds=penalty_seconds,
        sweep=(("load", (load,)), ("period", tuple(int(p) for p in periods))),
        collectors=_STRETCH_AND_COSTS,
    )


def utilization_scenario(
    config: ExperimentConfig,
    *,
    load: float,
    penalty_seconds: float,
    algorithms: Optional[Sequence[str]] = None,
) -> Scenario:
    """The utilization/energy/fairness study on one synthetic trace."""
    names = tuple(algorithms if algorithms is not None else config.algorithms)
    if not names:
        raise ConfigurationError("algorithms must not be empty")
    return Scenario(
        name="utilization",
        source=lublin_source(config, num_traces=1),
        cluster=config.cluster,
        algorithms=names,
        penalty_seconds=penalty_seconds,
        sweep=(("load", (load,)),),
        collectors=(CollectorSpec("stretch"), CollectorSpec("utilization")),
    )


def timing_scenario(config: ExperimentConfig, *, algorithm: str) -> Scenario:
    """The §V scheduling-time study on the unscaled synthetic traces."""
    return Scenario(
        name="timing",
        source=lublin_source(config),
        cluster=config.cluster,
        algorithms=(algorithm,),
        penalty_seconds=0.0,
        collectors=(CollectorSpec("timing"),),
    )


def compare_scenario(config: ExperimentConfig, *, load: float) -> Scenario:
    """Single-trace exploratory comparison (the ``compare`` subcommand)."""
    return Scenario(
        name="compare",
        source=lublin_source(config, num_traces=1),
        cluster=config.cluster,
        algorithms=tuple(config.algorithms),
        penalty_seconds=config.penalty_seconds,
        sweep=(("load", (load,)),),
        collectors=_STRETCH_AND_COSTS,
    )


# -- reports -------------------------------------------------------------------
@dataclass(frozen=True)
class StudyReport:
    """What every study returns: the printed table and the campaigns behind it."""

    text: str
    #: What the text was rendered from (``--export-dir`` persists them; the
    #: ``paper`` study has three, Table I's columns, every other study one).
    campaigns: Tuple[CampaignResult, ...]

    def format(self) -> str:
        return self.text

    @property
    def outcome(self) -> CampaignResult:
        """The campaign of a single-scenario study."""
        (outcome,) = self.campaigns
        return outcome


def _penalty(config: ExperimentConfig, penalty_seconds: Optional[float]) -> float:
    return config.penalty_seconds if penalty_seconds is None else penalty_seconds


def _run(
    config: ExperimentConfig, campaign: Optional[Campaign], scenario: Scenario
) -> CampaignResult:
    return (campaign or Campaign(workers=config.workers)).run(scenario)


def figure1_section(outcome: CampaignResult, penalty_seconds: float, **filters: Any) -> str:
    """Figure 1's text over the rows of ``outcome`` that match ``filters``
    (``penalty=`` picks one panel of a grid that sweeps the penalty)."""
    series: Dict[str, Dict[float, float]] = {}
    for load in dict.fromkeys(row.params_dict()["load"] for row in outcome.select(**filters)):
        for algorithm, average in outcome.degradation_averages(load=load, **filters).items():
            series.setdefault(algorithm, {})[load] = average
    label = "no" if penalty_seconds == 0 else f"{penalty_seconds:.0f}-second"
    title = f"Figure 1: average stretch degradation factor vs. load ({label} rescheduling penalty)"
    return format_figure_series(series, title=title)


def table1_section(
    columns: Mapping[str, CampaignResult], penalty_seconds: float, **filters: Any
) -> str:
    """Table I's text: one avg/std/max column group per ``columns`` entry,
    each over that campaign's rows matching ``filters``."""
    stats = [outcome.degradation_stats(**filters) for outcome in columns.values()]
    headers = ["algorithm"]
    for column in columns:
        headers += [f"{column}.avg", f"{column}.std", f"{column}.max"]
    rows = [
        [algorithm] + [value for column in stats for value in column[algorithm].as_row()]
        for algorithm in stats[0]
    ]
    title = (
        "Table I: degradation factor (avg/std/max), "
        f"{penalty_seconds:.0f}-second rescheduling penalty"
    )
    return format_table(headers, rows, title=title)


#: Algorithms reported in Table II (those that preempt and/or migrate).
TABLE2_ALGORITHMS = (
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per-600",
    "dynmcb8-asap-per-600",
    "dynmcb8-stretch-per-600",
)

#: Load levels considered "high load" by Table II.
HIGH_LOAD_THRESHOLD = 0.7

#: The ``costs`` collector columns Table II reports, in column order.
TABLE2_METRICS = (
    "pmtn_bandwidth_gb_per_sec",
    "migr_bandwidth_gb_per_sec",
    "pmtn_per_hour",
    "migr_per_hour",
    "pmtn_per_job",
    "migr_per_job",
)


def _high_load(row: RunRecord) -> bool:
    return bool(row.params_dict()["load"] >= HIGH_LOAD_THRESHOLD)


def table2_section(outcome: CampaignResult, penalty_seconds: float, **filters: Any) -> str:
    """Table II's text: the :data:`TABLE2_ALGORITHMS`' costs over the rows of
    ``outcome`` that match ``filters`` and have offered load at least
    :data:`HIGH_LOAD_THRESHOLD`."""
    cells = [
        (
            outcome.aggregate(metric, where=_high_load, **filters),
            outcome.aggregate(metric, statistic="max", where=_high_load, **filters),
        )
        for metric in TABLE2_METRICS
    ]
    rows = [
        [name] + [f"{mean[name]:.2f} ({worst[name]:.2f})" for mean, worst in cells]
        for name in outcome.algorithms()
        if name in TABLE2_ALGORITHMS
    ]
    return format_table(
        ["algorithm"] + [f"{metric} (avg/max)" for metric in TABLE2_METRICS],
        rows,
        title=(
            "Table II: preemption and migration costs, scaled synthetic traces "
            f"with load >= {HIGH_LOAD_THRESHOLD}, {penalty_seconds:.0f}-second penalty"
        ),
    )


_FENCE = "```text\n{}\n```"


def paper_section(columns: Mapping[str, CampaignResult], penalty: Any) -> str:
    """The paper's evaluation at one penalty, over the rows of ``columns``
    (Table I's columns by name; Figure 1 and Table II read ``scaled``) that
    carry ``penalty=penalty``.

    The best batch over best preemptive DFRS max-stretch ratios and the most
    memory one run moves, then :func:`figure1_section`,
    :func:`table1_section` and :func:`table2_section`.  The ratios cover the
    algorithms the rows have (the line is left out when they have no batch
    or no preemptive DFRS algorithm), and a run without a load of at least
    :data:`HIGH_LOAD_THRESHOLD` gets one line instead of Table II.
    """
    scaled = columns["scaled"]
    batch = [name for name in scaled.algorithms() if name in BATCH_ALGORITHMS]
    dfrs = [name for name in scaled.algorithms() if name in TABLE2_ALGORITHMS]
    summary = ""
    if batch and dfrs:
        ratios = [
            min(group[name].metric("max_stretch") for name in batch)
            / min(group[name].metric("max_stretch") for name in dfrs)
            for group in scaled.instances(penalty=penalty)
        ]
        summary = (
            "Best batch (FCFS/EASY) max stretch over best preemptive DFRS (GREEDY-PMTN, "
            "-MIGR, the DYNMCB8 family) max stretch, per trace and load: min "
            f"{min(ratios):.2f}, median {float(np.median(ratios)):.2f}, max {max(ratios):.2f}.  "
        )
    rows = scaled.select(penalty=penalty)
    moved = max(
        row.metric("pmtn_bandwidth_gb_per_sec") + row.metric("migr_bandwidth_gb_per_sec")
        for row in rows
    )
    parts = [
        f"## Penalty {penalty:g} s",
        f"{summary}The most one run moves is {moved:.2f} GB/s.",
        _FENCE.format(figure1_section(scaled, penalty, penalty=penalty)),
        _FENCE.format(table1_section(columns, penalty, penalty=penalty)),
    ]
    if any(_high_load(row) for row in rows):
        parts.append(_FENCE.format(table2_section(scaled, penalty, penalty=penalty)))
    else:
        loads = dict.fromkeys(f"{row.params_dict()['load']:g}" for row in rows)
        parts.append(
            f"Table II needs a load of at least {HIGH_LOAD_THRESHOLD}; "
            f"this run's loads are {', '.join(loads)}."
        )
    return "\n\n".join(parts)


def run_paper(config: ExperimentConfig, *, campaign: Optional[Campaign] = None) -> StudyReport:
    """Figure 1, Table I and Table II at ``config.penalty_seconds``: the
    :func:`paper_scenarios` campaigns, printed by :func:`paper_section`."""
    columns = {
        column: _run(config, campaign, scenario)
        for column, scenario in paper_scenarios(config).items()
    }
    return StudyReport(
        paper_section(columns, config.penalty_seconds), tuple(columns.values())
    )


def render_paper_grid(payload: Mapping[str, Any]) -> str:
    """``results/paper_grid.md`` from ``results/paper_grid.json`` alone.

    The JSON is the export of ``repro-dfrs run examples/scenarios/paper_grid.json``
    plus a ``measured`` block (``wall_seconds``, ``command``, ``host``): a
    provenance header, then :func:`paper_section` per penalty, the grid
    being Table I's scaled column.
    """
    result = CampaignResult.from_json_dict(payload)
    if any(row.instance_index < 0 for row in result.rows):
        raise ValueError(
            "rows merged across instances (instance_index -1, from "
            "--streaming-metrics) carry no per-trace degradation from best"
        )
    measured, wall = payload["measured"], payload["measured"]["wall_seconds"]
    source, cluster = result.scenario["source"], result.scenario["cluster"]
    sweep = dict(result.scenario["sweep"])
    text = (
        f"# The paper grid\n\n`examples/scenarios/paper_grid.json` (scenario hash "
        f"`{result.scenario_hash}`): {len(result.algorithms())} algorithms on "
        f"{cluster['nodes']} nodes × {cluster['cores_per_node']} cores, "
        f"{source['num_traces']} Lublin traces of {source['num_jobs']} jobs (seeds from "
        f"{source['seed_base']}), loads {min(sweep['load'])}–{max(sweep['load'])}, "
        f"penalty {' and '.join(f'{p} s' for p in sweep['penalty'])}.\n\n"
        f"{len(result.rows)} cells (one algorithm on one trace at one load and penalty) "
        f"in {wall:.0f} s wall, {len(result.rows) / wall:.3f} cells/s: "
        f"`{measured['command']}` on {measured['host']}.\n\n"
        "Each penalty's sections are `paper_section`'s rendering of that penalty's rows, "
        "as the `paper` study prints them.  Degradation from best is an algorithm's "
        "maximum bounded stretch over the best one's on the same trace, load and "
        "penalty: Figure 1 averages it over the traces at each load, Table I pools all "
        "loads.  Table II averages (worst run in parentheses) over the runs at high "
        "load the preemptions and migrations per hour of makespan and per job, and the "
        "memory they move per second of makespan (GB/s).\n"
    )
    return text + "".join(
        f"\n{paper_section({'scaled': result}, penalty)}\n" for penalty in sweep["penalty"]
    )


#: §V's claim: allocations for 10 or fewer jobs in under a millisecond.
_SMALL_JOB_THRESHOLD = 10
_FAST_THRESHOLD_SECONDS = 0.001


def run_timing_study(
    config: ExperimentConfig,
    *,
    algorithm: str = "dynmcb8",
    campaign: Optional[Campaign] = None,
) -> StudyReport:
    """The §V scheduling-time study on the unscaled synthetic traces.

    The paper reports that DYNMCB8 computes allocations for 10 or fewer jobs
    in under a millisecond for two thirds of the events, with a mean around
    0.25 s and a maximum under 4.5 s — orders of magnitude below typical job
    inter-arrival times.  Absolute numbers depend on the host; the claim is
    about the shape.  The ``timing`` collector ships the raw per-event
    timings and inter-arrival gaps as row metrics; they are pooled here.

    Runs are always serial: the statistics are wall-clock measurements, and
    fanning them out over a pool would inflate them with core contention.
    (For the same reason, a cache replays the timings of the host that
    originally ran the scenario.)
    """
    cache_dir = campaign.cache_dir if campaign is not None else None
    outcome = Campaign(workers=1, cache_dir=cache_dir).run(
        timing_scenario(config, algorithm=algorithm)
    )

    def pooled(metric: str) -> "np.ndarray[Any, Any]":
        values = [value for row in outcome.rows for value in row.metric(metric)]
        return np.asarray(values, dtype=float)

    def mean(values: "np.ndarray[Any, Any]") -> float:
        return float(values.mean()) if values.size else 0.0

    times = pooled("scheduler_times")
    small = times[pooled("scheduler_job_counts") <= _SMALL_JOB_THRESHOLD]
    rows = [
        ["observations", int(times.size)],
        ["mean scheduling time (s)", mean(times)],
        ["max scheduling time (s)", float(times.max()) if times.size else 0.0],
        [
            f"fraction of <= {_SMALL_JOB_THRESHOLD}-job events under "
            f"{_FAST_THRESHOLD_SECONDS * 1000:.0f} ms",
            mean(small <= _FAST_THRESHOLD_SECONDS),
        ],
        ["mean job inter-arrival time (s)", mean(pooled("interarrivals"))],
    ]
    title = f"Scheduling-time study for {algorithm} (§V)"
    text = format_table(["statistic", "value"], rows, title=title, float_format="{:.4f}")
    return StudyReport(text, (outcome,))


def run_compare(
    config: ExperimentConfig, *, load: float = 0.7, campaign: Optional[Campaign] = None
) -> StudyReport:
    """One synthetic trace under every configured algorithm, one row per run."""
    outcome = _run(config, campaign, compare_scenario(config, load=load))
    metrics = ("max_stretch", "mean_stretch", "mean_turnaround", "pmtn_per_job", "migr_per_job")
    rows = [
        [record.algorithm] + [record.metric(metric) for metric in metrics]
        for record in outcome.rows
    ]
    workload_name = outcome.rows[0].workload if outcome.rows else "?"
    text = format_table(
        ["algorithm", "max stretch", "mean stretch", "mean turnaround (s)", "pmtn/job", "migr/job"],
        rows,
        title=(
            f"Single-trace comparison ({workload_name}, load {load}, "
            f"{config.penalty_seconds:.0f}-second penalty)"
        ),
    )
    return StudyReport(text, (outcome,))


#: The periods evaluated by the paper (seconds).
DEFAULT_PERIODS: Tuple[float, ...] = (60.0, 600.0, 3600.0)


def run_period_sweep(
    config: ExperimentConfig,
    *,
    base_algorithm: str = "dynmcb8-asap-per",
    periods: Sequence[float] = DEFAULT_PERIODS,
    load: float = 0.7,
    penalty_seconds: Optional[float] = None,
    campaign: Optional[Campaign] = None,
) -> StudyReport:
    """Scheduling-period sensitivity (paper §III-B, last paragraph).

    The paper finds T = 600 s close to T = 60 s in quality and to T = 3600 s
    in overhead.  ``base_algorithm`` is the unsuffixed name of a periodic
    algorithm (``dynmcb8-per``, ``dynmcb8-asap-per``, ...); the period is a
    sweep axis feeding the ``{period}`` algorithm-name template, so every
    column is ``outcome.aggregate(metric, by="period")``.
    """
    penalty = _penalty(config, penalty_seconds)
    scenario = period_sweep_scenario(
        config,
        base_algorithm=base_algorithm,
        periods=periods,
        load=load,
        penalty_seconds=penalty,
    )
    outcome = _run(config, campaign, scenario)
    columns = [
        outcome.aggregate("max_stretch", by="period"),
        outcome.aggregate("max_stretch", by="period", statistic="max"),
        outcome.aggregate("pmtn_per_hour", by="period"),
        outcome.aggregate("migr_per_hour", by="period"),
    ]
    rows = [
        [f"{period:.0f}"] + [column[int(period)] for column in columns]
        for period in periods
    ]
    text = format_table(
        ["period (s)", "mean max stretch", "worst max stretch", "pmtn/h", "migr/h"],
        rows,
        title=(
            f"Period sensitivity of {base_algorithm} "
            f"(load {load:g}, {penalty:.0f}-second penalty)"
        ),
    )
    return StudyReport(text, (outcome,))


def generate_packing_instances(
    num_instances: int,
    jobs_per_instance: int,
    *,
    seed: int = 0,
    cores_per_node: int = 4,
) -> List[List[PackingJob]]:
    """Random packing instances drawn from the paper's job distributions.

    Job widths follow a power-of-two mix, CPU needs follow the quad-core rule
    (25 % for sequential tasks, 100 % otherwise), and memory requirements
    follow the Setia-style model of §IV-C.
    """
    if num_instances < 1 or jobs_per_instance < 1:
        raise ConfigurationError("num_instances and jobs_per_instance must be >= 1")
    rng = np.random.default_rng(seed)
    memory_model = MemoryRequirementModel()
    instances: List[List[PackingJob]] = []
    for _ in range(num_instances):
        jobs: List[PackingJob] = []
        for job_id in range(jobs_per_instance):
            tasks = int(rng.choice([1, 2, 4, 8, 16], p=[0.4, 0.2, 0.2, 0.15, 0.05]))
            jobs.append(
                PackingJob(
                    job_id=job_id,
                    num_tasks=tasks,
                    cpu_need=(1.0 / cores_per_node) if tasks == 1 else 1.0,
                    mem_requirement=memory_model.memory_requirement(rng),
                )
            )
        instances.append(jobs)
    return instances


def _score_packing_cell(task: Tuple[str, List[PackingJob], int]) -> Dict[str, float]:
    """One ``packer × instance`` grid cell (module-level for the pool)."""
    packer_name, jobs, num_nodes = task
    bound = cpu_capacity_yield_bound(jobs, num_nodes)
    outcome = maximize_min_yield(jobs, num_nodes, packer=get_packer(packer_name))
    if not outcome.success:
        return {"min_yield": 0.0, "bound_ratio": 0.0, "bound": bound, "success": 0}
    return {
        "min_yield": outcome.yield_value,
        "bound_ratio": outcome.yield_value / bound if bound > 0 else 1.0,
        "bound": bound,
        "success": 1,
    }


def run_packing_ablation(
    config: Optional[ExperimentConfig] = None,
    *,
    num_nodes: int = 32,
    num_instances: int = 25,
    jobs_per_instance: int = 24,
    seed: Optional[int] = None,
    packers: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    campaign: Optional[Campaign] = None,
) -> StudyReport:
    """Packing-heuristic ablation: how much does MCB8's balancing matter?

    Every requested packer (default: all of
    :data:`repro.packing.PACKER_NAMES`) runs the same minimum-yield binary
    search on a shared population of random instances; the achieved yields
    are compared with each other and with the heuristic-independent
    CPU-capacity upper bound.

    The study has no simulation behind it, so it builds no
    :class:`~repro.campaign.scenario.Scenario` and ignores ``campaign``: it
    rides :func:`~repro.campaign.executor.map_tasks` (one task per
    ``packer × instance`` cell) and materialises its rows as a
    :class:`~repro.campaign.result.CampaignResult` for uniform queries and
    export.  ``seed`` and ``workers`` default to the configuration's when one
    is given (seed 9, serial otherwise).
    """
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
    names = tuple(packers) if packers is not None else PACKER_NAMES
    if not names:
        raise ConfigurationError("packers must not be empty")
    if seed is None:
        seed = config.seed_base if config is not None else 9
    if workers is None and config is not None:
        workers = config.workers
    instances = generate_packing_instances(num_instances, jobs_per_instance, seed=seed)
    spec = {
        "name": "packing-ablation",
        "source": {
            "type": "packing-random",
            "num_instances": num_instances,
            "jobs_per_instance": jobs_per_instance,
            "seed": seed,
        },
        "num_nodes": num_nodes,
        "packers": list(names),
    }
    tasks = [(name, jobs, num_nodes) for name in names for jobs in instances]
    metrics = iter(map_tasks(_score_packing_cell, tasks, workers=workers))
    rows = [
        RunRecord(
            cell_index=cell_index,
            instance_index=instance_index,
            workload=f"packing-{instance_index:03d}",
            algorithm=name,
            params=(("packer", name),),
            metrics=next(metrics),
        )
        for cell_index, name in enumerate(names)
        for instance_index in range(len(instances))
    ]
    outcome = CampaignResult(scenario=spec, scenario_hash=payload_hash(spec), rows=rows)
    mean_yield = outcome.aggregate("min_yield")
    worst_yield = outcome.aggregate("min_yield", statistic="min")
    bound_ratio = outcome.aggregate("bound_ratio")
    table = [
        [
            name,
            mean_yield[name],
            worst_yield[name],
            bound_ratio[name],
            sum(1 for ok in outcome.metric_values("success", algorithm=name) if not ok),
        ]
        for name in sorted(mean_yield, key=lambda name: -mean_yield[name])
    ]
    text = format_table(
        ["packer", "mean min-yield", "worst min-yield", "vs. capacity bound", "failures"],
        table,
        title=(
            f"Packing ablation: achievable minimum yield on {len(instances)} "
            f"instances, {num_nodes} nodes"
        ),
    )
    return StudyReport(text, (outcome,))


def run_utilization_study(
    config: ExperimentConfig,
    *,
    load: float = 0.5,
    penalty_seconds: Optional[float] = None,
    algorithms: Optional[Sequence[str]] = None,
    campaign: Optional[Campaign] = None,
) -> StudyReport:
    """Utilization, energy and fairness per algorithm (paper §II-B2 remark).

    Once the minimum yield is maximized, leftover capacity either raises the
    average yield or — on an under-subscribed cluster — lets idle nodes be
    powered down.  One synthetic trace (the first of the configuration) is
    scaled to ``load`` and run under every algorithm with the ``utilization``
    collector attached (at its default node power model); each printed row
    is one run's metrics.
    """
    penalty = _penalty(config, penalty_seconds)
    scenario = utilization_scenario(
        config,
        load=load,
        penalty_seconds=penalty,
        algorithms=algorithms,
    )
    outcome = _run(config, campaign, scenario)
    rows = [
        [
            record.algorithm,
            record.metric("max_stretch"),
            record.metric("mean_busy_nodes"),
            int(record.metric("peak_busy_nodes")),
            record.metric("mean_cpu_allocated"),
            f"{100.0 * record.metric('energy_savings_fraction'):.1f}%",
            record.metric("jain_stretch"),
        ]
        for record in outcome.rows
    ]
    headers = [
        "algorithm", "max stretch", "mean busy nodes", "peak busy nodes",
        "mean CPU alloc", "idle power-down savings", "Jain(stretch)",
    ]
    title = (
        f"Utilization and energy study ({config.cluster.num_nodes} nodes, load "
        f"{load:g}, {penalty:.0f}-second penalty)"
    )
    return StudyReport(format_table(headers, rows, title=title), (outcome,))


#: The default extension set: paper baselines, the paper's winner, and the
#: three extensions implemented beyond the paper.
EXTENSION_ALGORITHMS: Tuple[str, ...] = (
    "easy",
    "conservative",
    "dynmcb8-asap-per-600",
    "dynmcb8-asap-throttled-per-600",
    "dynmcb8-asap-weighted-per-600",
)


def run_extensions_comparison(
    config: ExperimentConfig,
    *,
    algorithms: Sequence[str] = EXTENSION_ALGORITHMS,
    penalty_seconds: Optional[float] = None,
    campaign: Optional[Campaign] = None,
) -> StudyReport:
    """Extension schedulers vs. the paper's winner, Table I methodology.

    The paper's conclusion sketches long-job throttling and user priorities;
    this repository adds conservative backfilling.  All are compared with
    DYNMCB8-ASAP-PER and EASY on the scaled synthetic traces by
    ``outcome.degradation_stats()``, best average first.
    """
    penalty = _penalty(config, penalty_seconds)
    scenario = extensions_scenario(config, penalty_seconds=penalty, algorithms=algorithms)
    outcome = _run(config, campaign, scenario)
    ranked = sorted(outcome.degradation_stats().items(), key=lambda pair: pair[1].average)
    text = format_table(
        ["algorithm", "deg. avg", "deg. std", "deg. max"],
        [[name] + stats.as_row() for name, stats in ranked],
        title=(
            "Extensions vs. paper algorithms: degradation factors "
            f"(loads {', '.join(f'{level:g}' for level in config.load_levels)}, "
            f"{penalty:.0f}-second penalty)"
        ),
    )
    return StudyReport(text, (outcome,))


# -- the table -----------------------------------------------------------------
class StudyOption(NamedTuple):
    """One CLI option of a study and the runner keyword it feeds."""

    flag: str
    keyword: str
    type: Callable[[str], Any]
    default: Any
    help: str


class Study(NamedTuple):
    """One row of :data:`STUDIES`: ``run(config, campaign=..., **options)``."""

    help: str
    run: Callable[..., StudyReport]
    options: Tuple[StudyOption, ...] = ()
    #: ``--algorithms``, when given, replaces the study's own default set
    #: (otherwise the flag only reaches studies that read ``config.algorithms``).
    algorithms_option: bool = False


def _periods(text: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _load_option(default: float) -> StudyOption:
    return StudyOption("--load", "load", float, default, "offered load")


#: Every study of the repository by CLI name, in ``--help`` order.
STUDIES: Dict[str, Study] = {
    "paper": Study("Figure 1, Table I and Table II at one penalty", run_paper),
    "timing": Study("scheduling computation time study", run_timing_study),
    "compare": Study(
        "run one synthetic trace under several algorithms",
        run_compare,
        (_load_option(0.7),),
    ),
    "period-sweep": Study(
        "scheduling-period sensitivity study",
        run_period_sweep,
        (
            StudyOption(
                "--base-algorithm", "base_algorithm", str, "dynmcb8-asap-per",
                "unsuffixed periodic algorithm name",
            ),
            _load_option(0.7),
            StudyOption(
                "--periods", "periods", _periods, DEFAULT_PERIODS,
                "comma-separated periods in seconds",
            ),
        ),
    ),
    "packing-ablation": Study(
        "compare packing heuristics on random instances",
        run_packing_ablation,
        (
            StudyOption("--pack-nodes", "num_nodes", int, 32, "bins per packing instance"),
            StudyOption(
                "--pack-instances", "num_instances", int, 25, "number of packing instances"
            ),
            StudyOption("--pack-jobs", "jobs_per_instance", int, 24, "jobs per packing instance"),
        ),
    ),
    "utilization": Study(
        "busy nodes, energy, and fairness per algorithm",
        run_utilization_study,
        (_load_option(0.5),),
    ),
    "extensions": Study(
        "extension schedulers vs. the paper's best algorithm",
        run_extensions_comparison,
        algorithms_option=True,
    ),
}
