"""``repro-dfrs profile`` — single-run engine profiling.

``profile run SPEC`` executes one ``(instance, algorithm)`` simulation of a
scenario spec under tracing telemetry and prints the phase-timing profile
(engine phases, packer phases, counters, sustained events/sec);
``profile replay SPEC`` replays the same workload through the serving layer
instead, so the profile includes the service's intake path.

``--trace-out trace.json`` additionally writes the span timeline in Chrome
trace-event format — load it at ``chrome://tracing`` or
https://ui.perfetto.dev to see the run as a flame chart.

``--flight-out flight.json`` records the per-job flight log
(:mod:`repro.obs.flight`) alongside: ``*.jsonl`` writes the raw event
lines, any other extension writes a Chrome trace with one Perfetto lane
per job — run slices bounded by preempt/migrate/failure markers, each
carrying its cause.

The profiled run is a *real* run: the same engine, schedulers, and platform
that ``repro-dfrs run`` drives, with the scenario's own penalty model,
platform events, and overhead models applied.  Only the telemetry sink
differs from an unprofiled run, and the disabled path is pinned
byte-identical by ``tests/obs/test_disabled_path.py``.
"""

from __future__ import annotations

import argparse
from dataclasses import replace as dataclasses_replace
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.report import format_table
from ..campaign.scenario import Scenario
from ..campaign.spec import load_scenario
from ..core.cluster import Cluster
from ..core.engine import SimulationConfig, Simulator
from ..exceptions import ConfigurationError
from ..schedulers.registry import create_scheduler
from .flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightRecorder,
    write_flight_jsonl,
    write_flight_trace,
)
from .telemetry import Telemetry, as_telemetry
from .timing import perf_counter
from .tracing import write_chrome_trace

__all__ = ["add_profile_subparser", "run_profile_command"]


def add_profile_subparser(subparsers: "argparse._SubParsersAction") -> None:
    """Wire ``profile run`` / ``profile replay`` into the main CLI parser."""
    profile = subparsers.add_parser(
        "profile",
        help="profile one simulation of a scenario spec (phase timings, "
        "events/sec, optional Chrome trace)",
    )
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)
    for mode, help_text in (
        ("run", "profile one materialized engine run of the scenario"),
        ("replay", "profile a streaming replay through the serving layer"),
    ):
        sub = profile_sub.add_parser(mode, help=help_text)
        sub.add_argument("spec", type=str, help="scenario spec file (.json/.toml)")
        sub.add_argument(
            "--algorithm",
            default=None,
            help="algorithm to profile (default: the scenario's first)",
        )
        sub.add_argument(
            "--instance",
            type=int,
            default=0,
            help="workload instance index to profile (default 0)",
        )
        sub.add_argument(
            "--trace-out",
            default=None,
            help="write the span timeline as Chrome trace-event JSON here",
        )
        sub.add_argument(
            "--max-spans",
            type=int,
            default=200_000,
            help="span-event capture bound for --trace-out (default 200000)",
        )
        sub.add_argument(
            "--flight-out",
            default=None,
            help=(
                "record the per-job flight log and write it here: *.jsonl "
                "= JSON lines, anything else = Chrome trace-event JSON "
                "with one Perfetto lane per job"
            ),
        )
        sub.add_argument(
            "--flight-capacity",
            type=int,
            default=None,
            help=(
                "flight-recorder ring capacity for --flight-out "
                f"(default {DEFAULT_FLIGHT_CAPACITY})"
            ),
        )
        if mode == "replay":
            sub.add_argument(
                "--acceleration",
                type=float,
                default=None,
                help=(
                    "simulated seconds per wall second; omit to replay flat "
                    "out (max-throughput mode)"
                ),
            )


def _resolve_cell(
    scenario: Scenario, algorithm: Optional[str]
) -> Tuple[Dict[str, Any], str]:
    """First sweep cell's parameters and the algorithm under profile."""
    cell = scenario.expand()[0]
    params = dict(cell.params)
    algorithms = scenario.resolved_algorithms(cell.params)
    if algorithm is None:
        return params, algorithms[0]
    return params, algorithm


def _profiled_config(
    scenario: Scenario, params: Dict[str, Any], telemetry: Telemetry
) -> SimulationConfig:
    return dataclasses_replace(scenario.simulation_config(params), telemetry=telemetry)


def _pick_workload(scenario: Scenario, cluster: Cluster, instance: int) -> Any:
    workloads = scenario.source.workloads(cluster)
    if not 0 <= instance < len(workloads):
        raise ConfigurationError(
            f"--instance {instance} out of range: the scenario source has "
            f"{len(workloads)} instance(s)"
        )
    return workloads[instance]


def _format_profile(
    telemetry: Telemetry, *, events: int, wall_seconds: float, title: str
) -> str:
    summary = telemetry.summary()
    rows: List[List[str]] = []
    for name, stats in summary["phases"].items():
        if stats["count"] == 0:
            continue
        share = (
            stats["total_seconds"] / wall_seconds * 100.0
            if wall_seconds > 0.0
            else 0.0
        )
        rows.append(
            [
                name,
                f"{stats['count']}",
                f"{stats['total_seconds']:.4f}",
                f"{stats['mean_ms']:.4f}",
                f"{stats['max_ms']:.4f}",
                f"{share:.1f}%",
            ]
        )
    rows.sort(key=lambda row: -float(row[2]))
    lines = [
        format_table(
            ["phase", "count", "total s", "mean ms", "max ms", "wall %"],
            rows,
            title=title,
        )
    ]
    for name, value in sorted(summary["counters"].items()):
        lines.append(f"{name:<32} {value}")
    for name, stats in sorted(summary["gauges"].items()):
        if stats["n"]:
            lines.append(
                f"{name:<32} mean {stats['mean']:.1f}  max {stats['max']:.1f}"
            )
    lines.append(f"{'wall seconds':<32} {wall_seconds:.3f}")
    if events:
        lines.append(f"{'events/sec':<32} {events / wall_seconds:.0f}")
    if summary.get("dropped_spans"):
        lines.append(
            f"{'dropped spans':<32} {summary['dropped_spans']} "
            "(raise --max-spans for a complete trace)"
        )
    return "\n".join(lines)


def _profile_sink(args: argparse.Namespace) -> Telemetry:
    """The profiled run's sink: tracing under ``--trace-out``, stats
    otherwise, with a flight recorder under ``--flight-out``."""
    spec: Dict[str, Any] = {"type": "stats"}
    if args.trace_out is not None:
        spec = {"type": "tracing", "max_spans": args.max_spans}
    if args.flight_out is not None:
        spec["flight"] = (
            args.flight_capacity
            if args.flight_capacity is not None
            else DEFAULT_FLIGHT_CAPACITY
        )
    elif args.flight_capacity is not None:
        raise ConfigurationError(
            "--flight-capacity only makes sense with --flight-out"
        )
    telemetry = as_telemetry(spec)
    assert telemetry is not None  # only an "off" spec builds no sink
    return telemetry


def _write_flight(
    args: argparse.Namespace, recorder: Optional[FlightRecorder]
) -> None:
    if recorder is None:
        return
    if args.flight_out.endswith(".jsonl"):
        count = write_flight_jsonl(recorder, args.flight_out)
        print(f"wrote {args.flight_out} ({count} events)")
    else:
        write_flight_trace(recorder, args.flight_out)
        print(
            f"wrote {args.flight_out} ({len(recorder)} events as per-job "
            "Perfetto lanes)"
        )
    if recorder.dropped:
        print(
            f"flight ring dropped {recorder.dropped} oldest events; raise "
            "--flight-capacity for a complete log"
        )


def _profile_run(args: argparse.Namespace, scenario: Scenario) -> int:
    params, algorithm = _resolve_cell(scenario, args.algorithm)
    telemetry = _profile_sink(args)
    cluster = scenario.cluster
    workload = _pick_workload(scenario, cluster, args.instance)
    simulator = Simulator(
        cluster,
        create_scheduler(algorithm),
        _profiled_config(scenario, params, telemetry),
    )
    start = perf_counter()
    result = simulator.run(workload.jobs)
    wall = perf_counter() - start
    print(
        _format_profile(
            telemetry,
            events=simulator.events_processed,
            wall_seconds=wall,
            title=(
                f"profile run: {scenario.name} / {algorithm} "
                f"({len(workload.jobs)} jobs, {cluster.num_nodes} nodes, "
                f"makespan {result.makespan:.0f} s)"
            ),
        )
    )
    if args.trace_out is not None:
        write_chrome_trace(telemetry, args.trace_out)
        print(f"wrote {args.trace_out}")
    _write_flight(args, telemetry.flight)
    return 0


def _profile_replay(args: argparse.Namespace, scenario: Scenario) -> int:
    from ..serve.service import SchedulerService
    from ..traces.source import WorkloadTraceSource

    params, algorithm = _resolve_cell(scenario, args.algorithm)
    telemetry = _profile_sink(args)
    cluster = scenario.cluster
    sources = scenario.source.streaming_sources(cluster)
    if sources is not None and 0 <= args.instance < len(sources):
        source = sources[args.instance]
    else:
        source = WorkloadTraceSource(
            workload=_pick_workload(scenario, cluster, args.instance)
        )
    service = SchedulerService(
        cluster,
        algorithm,
        config=_profiled_config(scenario, params, telemetry),
    )
    report = service.replay(source, acceleration=args.acceleration)
    print(
        _format_profile(
            telemetry,
            events=service.metrics.placements + report.completions,
            wall_seconds=report.wall_seconds,
            title=(
                f"profile replay: {scenario.name} / {algorithm} "
                f"({report.submitted} jobs, {cluster.num_nodes} nodes, "
                f"{report.placements_per_wall_sec:.0f} placements/sec)"
            ),
        )
    )
    if args.trace_out is not None:
        write_chrome_trace(telemetry, args.trace_out)
        print(f"wrote {args.trace_out}")
    _write_flight(args, telemetry.flight)
    return 0


def run_profile_command(args: argparse.Namespace) -> int:
    """Entry point of ``repro-dfrs profile``."""
    scenario = load_scenario(args.spec)
    if args.profile_command == "replay":
        return _profile_replay(args, scenario)
    return _profile_run(args, scenario)
