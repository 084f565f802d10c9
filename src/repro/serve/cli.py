"""``repro-dfrs serve`` / ``loadtest`` / ``soak`` — the serving commands.

``serve`` runs a live :class:`~repro.serve.service.SchedulerService` behind
the JSON-lines socket front end until a client sends ``{"op": "shutdown"}``
(or Ctrl-C).  ``loadtest`` replays a trace through the service layer at a
configurable acceleration and prints sustained placements/sec, admission
outcomes, and queue-latency quantiles; ``--bench-json`` writes the same
numbers as a JSON file.  ``soak`` is the long-haul
variant: it runs the full serve stack (live service, real socket, wall
clock) for a wall-time budget while scraping health samples, and asserts
the :mod:`repro.obs.soak` invariants — flat RSS, sustained placement rate,
bounded queue depth.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.clock import WallClock
from ..core.cluster import Cluster
from ..core.engine import SimulationConfig
from ..core.penalties import ReschedulingPenaltyModel
from ..exceptions import ConfigurationError
from ..traces import DiurnalPoissonTraceSource, JobSource, LublinTraceSource, load_trace_source
from .admission import AdmissionPolicy, admission_policy_from_dict
from .loadtest import bench_payload
from .protocol import ServiceServer
from .service import SchedulerService

__all__ = [
    "add_serve_subparsers",
    "run_serve_command",
    "run_loadtest_command",
    "run_soak_command",
]

_DEFAULT_ALGORITHM = "dynmcb8-asap-per-600"
_DEFAULT_NODES = 64


def add_serve_subparsers(subparsers: "argparse._SubParsersAction") -> None:
    """Wire ``serve`` and ``loadtest`` into the main CLI parser."""
    serve = subparsers.add_parser(
        "serve",
        help="run the scheduler as a live service on a local socket",
    )
    serve.add_argument(
        "--algorithm",
        default=_DEFAULT_ALGORITHM,
        help=f"scheduling algorithm to serve (default {_DEFAULT_ALGORITHM})",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7077, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--admission",
        default=None,
        help=(
            "admission policy spec: inline JSON "
            "('{\"type\": \"bounded-queue\", \"max_pending\": 32}') or "
            "@file.json; default accept-all"
        ),
    )
    serve.add_argument(
        "--acceleration",
        type=float,
        default=1.0,
        help="simulated seconds per wall second (default 1.0 = real time)",
    )
    serve.add_argument(
        "--slo-factor",
        type=float,
        default=10.0,
        help=(
            "SLO deadline multiplier: a job attains its SLO when it "
            "completes within slo-factor x its nominal runtime (default 10)"
        ),
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        help=(
            "telemetry spec: inline JSON ('{\"type\": \"stats\"}') or "
            "@file.json; instrumented engines include phase timings in "
            "metrics and metrics-prom replies (default off)"
        ),
    )

    loadtest = subparsers.add_parser(
        "loadtest",
        help="replay a trace through the service layer and report throughput",
    )
    loadtest.add_argument(
        "--trace",
        default=None,
        help=(
            "trace to replay: SWF file, internal JSON trace, or trace-source "
            "spec JSON; default is a synthetic Lublin trace"
        ),
    )
    loadtest.add_argument(
        "--algorithm",
        default=_DEFAULT_ALGORITHM,
        help=f"scheduling algorithm under test (default {_DEFAULT_ALGORITHM})",
    )
    loadtest.add_argument(
        "--admission",
        default=None,
        help="admission policy spec (inline JSON or @file.json)",
    )
    loadtest.add_argument(
        "--acceleration",
        type=float,
        default=None,
        help=(
            "simulated seconds per wall second; omit to replay flat out "
            "(max-throughput mode)"
        ),
    )
    loadtest.add_argument(
        "--slo-factor",
        type=float,
        default=10.0,
        help=(
            "SLO deadline multiplier for the slo_attainment report column "
            "(default 10)"
        ),
    )
    loadtest.add_argument(
        "--bench-json",
        default=None,
        help="write the report as a JSON bench entry here",
    )
    loadtest.add_argument(
        "--prom-out",
        default=None,
        help=(
            "write the final metrics as a Prometheus text page here "
            "(enables stats telemetry: engine phase timings are included)"
        ),
    )

    soak = subparsers.add_parser(
        "soak",
        help=(
            "long-haul soak: run the live serve stack for a wall-time "
            "budget, scrape health samples, assert flat RSS and sustained "
            "throughput"
        ),
    )
    soak.add_argument(
        "--trace",
        default=None,
        help=(
            "trace to feed: SWF file, internal JSON trace, or trace-source "
            "spec JSON; default is a synthetic diurnal Poisson trace"
        ),
    )
    soak.add_argument(
        "--algorithm",
        default=_DEFAULT_ALGORITHM,
        help=f"scheduling algorithm under soak (default {_DEFAULT_ALGORITHM})",
    )
    soak.add_argument(
        "--acceleration",
        type=float,
        default=3600.0,
        help="simulated seconds per wall second (default 3600)",
    )
    soak.add_argument(
        "--wall-seconds",
        type=float,
        default=60.0,
        help="wall-clock feed budget before draining (default 60)",
    )
    soak.add_argument(
        "--scrape-interval",
        type=float,
        default=2.0,
        help="seconds between health scrapes (default 2)",
    )
    soak.add_argument(
        "--slo-factor",
        type=float,
        default=10.0,
        help="SLO deadline multiplier (default 10)",
    )
    soak.add_argument(
        "--max-drain-seconds",
        type=float,
        default=None,
        help=(
            "cap on the post-budget drain; omit to wait for every admitted "
            "job to complete"
        ),
    )
    soak.add_argument(
        "--max-rss-slope",
        type=float,
        default=30.0,
        help="health bound: max RSS growth in MB per minute (default 30)",
    )
    soak.add_argument(
        "--min-placements-per-sec",
        type=float,
        default=1.0,
        help="health floor: min placements per wall second (default 1)",
    )
    soak.add_argument(
        "--max-queue-depth",
        type=int,
        default=10_000,
        help="health ceiling: max instantaneous queue depth (default 10000)",
    )
    soak.add_argument(
        "--health-log",
        default=None,
        help="append one JSON health sample per scrape to this file",
    )
    soak.add_argument(
        "--bench-json",
        default=None,
        help="write the report as a JSON bench entry here",
    )
    soak.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-scrape progress line",
    )


def _parse_spec_arg(text: Optional[str], flag: str) -> Optional[Dict[str, Any]]:
    """Parse an inline-JSON-or-``@file.json`` spec argument into an object."""
    if text is None:
        return None
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"{flag} cannot read spec file {text[1:]!r}: {error}"
            ) from None
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{flag} is neither valid JSON nor an @file: {error}"
            ) from None
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{flag} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _parse_admission(text: Optional[str]) -> Optional[AdmissionPolicy]:
    payload = _parse_spec_arg(text, "--admission")
    if payload is None:
        return None
    return admission_policy_from_dict(payload)


def _serve_cluster(args: argparse.Namespace) -> Cluster:
    nodes = args.nodes if args.nodes is not None else _DEFAULT_NODES
    return Cluster(nodes, 4, 8.0)


def _engine_config(
    args: argparse.Namespace, telemetry: Optional[Dict[str, Any]] = None
) -> SimulationConfig:
    penalty = args.penalty if args.penalty is not None else 0.0
    return SimulationConfig(
        penalty_model=ReschedulingPenaltyModel(penalty),
        streaming_metrics=True,
        telemetry=telemetry,
    )


def _trace_source(
    args: argparse.Namespace, default: Callable[..., JobSource], default_jobs: int
) -> Tuple[JobSource, Cluster]:
    """Resolve the trace to replay and the cluster to replay it on.

    ``--trace`` names a trace file or spec, replayed on its own cluster unless
    ``--nodes`` is given; without it, a ``default`` generator trace of
    ``--num-jobs`` (``default_jobs``) jobs and ``--seed`` (2010) runs on the
    serve cluster.
    """
    if args.trace is not None:
        source, cluster = load_trace_source(args.trace)
        if args.nodes is None:
            return source, cluster
    else:
        num_jobs = args.num_jobs if args.num_jobs is not None else default_jobs
        seed = args.seed if args.seed is not None else 2010
        source = default(num_jobs=num_jobs, seed=seed)
    return source, _serve_cluster(args)


async def _serve_async(args: argparse.Namespace) -> int:
    cluster = _serve_cluster(args)
    telemetry = _parse_spec_arg(args.telemetry, "--telemetry")
    service = SchedulerService(
        cluster,
        args.algorithm,
        config=_engine_config(args, telemetry),
        admission=_parse_admission(args.admission),
        slo_factor=args.slo_factor,
    )
    await service.start(clock=WallClock(args.acceleration))
    server = ServiceServer(service, host=args.host, port=args.port)
    host, port = await server.start()
    print(
        f"serving {args.algorithm} on {host}:{port} "
        f"({cluster.num_nodes} nodes, x{args.acceleration:g} clock); "
        'send {"op": "shutdown"} to stop'
    )
    try:
        await server.serve_until_shutdown()
    finally:
        await server.close()
        await service.shutdown()
    snapshot = service.metrics_snapshot()
    print(
        f"served {snapshot['accepted']}/{snapshot['submitted']} jobs "
        f"({snapshot['rejected']} rejected, {snapshot['shed']} shed), "
        f"{snapshot['placements']} placements, "
        f"{snapshot['completions']} completions"
    )
    return 0


def run_serve_command(args: argparse.Namespace) -> int:
    """Entry point of ``repro-dfrs serve``."""
    try:
        return asyncio.run(_serve_async(args))
    except KeyboardInterrupt:
        print("interrupted; shutting down")
        return 0


def _format_report(report_dict: Dict[str, Any]) -> str:
    latency = report_dict["queue_latency"]
    lines = [
        f"algorithm            {report_dict['algorithm']}",
        f"clock                {report_dict['clock']}"
        + (
            f" (x{report_dict['acceleration']:g})"
            if report_dict["acceleration"] is not None
            else ""
        ),
        f"jobs submitted       {report_dict['submitted']}",
        f"jobs accepted        {report_dict['accepted']}",
        f"jobs rejected        {report_dict['rejected']}",
        f"jobs shed            {report_dict['shed']}",
        f"placements           {report_dict['placements']}",
        f"completions          {report_dict['completions']}",
        f"simulated span       {report_dict['sim_seconds']:.1f} s",
        f"wall time            {report_dict['wall_seconds']:.3f} s",
        f"placements/sec       {report_dict['placements_per_wall_sec']:.1f}",
    ]
    if latency:
        lines.append(
            "queue latency        "
            f"p50 {latency['p50']:.1f} s, p90 {latency['p90']:.1f} s, "
            f"p99 {latency['p99']:.1f} s, mean {latency['mean']:.1f} s"
        )
    jct = report_dict["jct"]
    if jct:
        lines.append(
            "jct                  "
            f"p50 {jct['p50']:.1f} s, p90 {jct['p90']:.1f} s, "
            f"p99 {jct['p99']:.1f} s, mean {jct['mean']:.1f} s"
        )
    if report_dict["completions"]:
        lines.append(
            "slo attainment       "
            f"{report_dict['slo_attainment'] * 100.0:.1f}% "
            f"({report_dict['slo_attained']}/{report_dict['completions']} "
            f"within {report_dict['slo_factor']:g}x runtime)"
        )
    return "\n".join(lines)


def run_loadtest_command(args: argparse.Namespace) -> int:
    """Entry point of ``repro-dfrs loadtest``."""
    source, cluster = _trace_source(args, LublinTraceSource, 10_000)
    telemetry = {"type": "stats"} if args.prom_out is not None else None
    service = SchedulerService(
        cluster,
        args.algorithm,
        config=_engine_config(args, telemetry),
        admission=_parse_admission(args.admission),
        slo_factor=args.slo_factor,
    )
    report = service.replay(
        source, acceleration=args.acceleration, keep_result=False
    )
    print(_format_report(report.to_dict()))
    if args.prom_out is not None and report.prometheus is not None:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(report.prometheus)
        print(f"wrote {args.prom_out}")
    if args.bench_json is not None:
        workload = args.trace if args.trace is not None else "lublin-synthetic"
        payload = bench_payload(
            report, workload=workload, nodes=cluster.num_nodes
        )
        with open(args.bench_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_json}")
    return 0


def run_soak_command(args: argparse.Namespace) -> int:
    """Entry point of ``repro-dfrs soak``."""
    from ..obs.soak import SoakConfig, run_soak

    # Default: an effectively endless diurnal feed.
    source, cluster = _trace_source(args, DiurnalPoissonTraceSource, 100_000)
    soak_config = SoakConfig(
        acceleration=args.acceleration,
        wall_seconds=args.wall_seconds,
        scrape_interval_seconds=args.scrape_interval,
        max_drain_seconds=args.max_drain_seconds,
        max_rss_slope_mb_per_min=args.max_rss_slope,
        min_placements_per_sec=args.min_placements_per_sec,
        max_queue_depth=args.max_queue_depth,
        slo_factor=args.slo_factor,
    )

    def _progress(sample: Dict[str, Any]) -> None:
        rss = sample["rss_mb"]
        rss_text = f"{rss:.1f}MB" if rss is not None else "n/a"
        print(
            f"  t={sample['wall_seconds']:6.1f}s "
            f"sim={sample['sim_time']:.0f}s "
            f"queue={sample['queue_depth']} "
            f"placed={sample['placements']} "
            f"done={sample['completions']} "
            f"rss={rss_text}"
        )

    print(
        f"soaking {args.algorithm} on {cluster.num_nodes} nodes "
        f"(x{args.acceleration:g} clock, {args.wall_seconds:g}s wall budget)"
    )
    report = run_soak(
        cluster,
        args.algorithm,
        source,
        config=soak_config,
        engine_config=_engine_config(args),
        health_log=args.health_log,
        on_sample=None if args.quiet else _progress,
    )
    print(
        f"soaked {report.sim_seconds:.0f} simulated seconds in "
        f"{report.wall_seconds:.1f}s wall: {report.submitted} submitted, "
        f"{report.placements} placements "
        f"({report.placements_per_wall_sec:.1f}/s), "
        f"{report.completions} completions, "
        f"slo attainment {report.slo_attainment * 100.0:.1f}%"
    )
    print(
        f"rss slope {report.rss_slope_mb_per_min:+.2f} MB/min, "
        f"max queue depth {report.max_queue_depth_seen}, "
        f"{len(report.samples)} health samples"
    )
    if not report.drained:
        print("note: drain capped by --max-drain-seconds; tail jobs cut off")
    if args.bench_json is not None:
        with open(args.bench_json, "w", encoding="utf-8") as handle:
            json.dump(report.bench_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_json}")
    if not report.healthy:
        for violation in report.violations:
            print(f"UNHEALTHY: {violation}")
        return 1
    print("healthy: all soak invariants held")
    return 0
