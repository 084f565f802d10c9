"""Command-line interface: ``repro-dfrs <experiment> [options]``.

Subcommands regenerate each artifact of the paper's evaluation section at a
configurable scale and print the corresponding table or figure series (the
study subcommands, their help texts and their options are the entries of
:data:`repro.campaign.studies.STUDIES`; nothing here names one):

* ``paper``   — Figure 1 (degradation factor vs. load), Table I
  (degradation statistics on scaled / unscaled / HPC2N-like workloads) and
  Table II (preemption and migration costs under high load) at one penalty
  (``--penalty`` 0 for Figure 1 (a), 300 seconds for (b));
* ``timing``  — scheduling-decision computation time (§V);
* ``compare`` — run a single generated trace under chosen algorithms and
  print per-algorithm stretch statistics (useful for quick exploration).

Ablation and extension studies beyond the paper's artifacts:

* ``period-sweep``     — scheduling-period sensitivity (T ∈ {60, 600, 3600});
* ``packing-ablation`` — MCB8 vs. the other registered packing heuristics;
* ``utilization``      — busy nodes, energy, and fairness per algorithm;
* ``extensions``       — throttled / weighted / conservative extensions vs.
  the paper's best algorithm.

Campaign-layer subcommands:

* ``run``        — execute any scenario described in a JSON/TOML spec file
  (see :mod:`repro.campaign.spec`) with zero new driver code; the file sets
  the size, so ``run`` refuses the sizing flags (``_SCALE_FLAGS``);
* ``algorithms`` — list the scheduler registry with its name grammar.

Platform subcommands (``repro-dfrs platform <command>``, see
:mod:`repro.platform`):

* ``platform inspect``  — node classes, per-class capacities, aggregate
  capacity, and a preview of the availability (failure/repair) trace of a
  platform spec — or of the ``platform`` block of a scenario spec;
* ``platform validate`` — build the platform, round-trip its canonical spec
  form through the registry, and fully check the availability trace
  (ordering, node ranges).

Trace subcommands (``repro-dfrs trace <command>``, see :mod:`repro.traces`):

* ``trace inspect``       — SWF header directives and stream statistics;
* ``trace characterize``  — the §I workload statistics (memory/CPU under-use,
  width histogram) for any trace file or trace-source spec (synthetic
  generators and transform chains included).  Both commands read an SWF
  file or a spec's trace in one bounded-memory streaming pass, so gzipped
  million-job archives profile without blowing RAM;
* ``trace transform``     — materialize a trace-source spec (e.g. a
  transform chain over a generator) to an SWF or internal JSON trace file;
* ``trace convert``       — convert between SWF and the internal JSON trace
  format (``.gz`` handled transparently in both directions).

Every experiment subcommand honours ``--export-dir PATH`` (write the tidy
per-run rows and full campaign payloads as CSV/JSON).  The
simulation-backed subcommands also honour ``--cache-dir PATH`` (resume
interrupted campaigns from the on-disk run cache).  ``run`` and
``compare`` additionally honour ``--streaming-metrics`` (bounded-memory
execution: instances stream into the engine, per-job records reduce to
mergeable online statistics, rows merge per cell — see
:mod:`repro.metrics`); the other studies refuse the flag because merged
rows would change their per-instance aggregation semantics.
``packing-ablation`` runs no simulations and keeps no run cache.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis.report import format_table
from .campaign.executor import Campaign, export_campaign_artifacts
from .campaign.result import CampaignResult
from .campaign.spec import load_scenario
from .campaign.studies import STUDIES, ExperimentConfig
from .core.cluster import Cluster
from .devtools.cli import add_dev_subparser, run_dev_command
from .obs.cli import add_profile_subparser, run_profile_command
from .schedulers.registry import algorithm_catalog
from .serve.cli import (
    add_serve_subparsers,
    run_loadtest_command,
    run_serve_command,
    run_soak_command,
)
from .traces import (
    characterization_table,
    characterize_stream,
    load_trace_source,
    read_swf_header,
    write_trace_json,
    write_workload_swf,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-dfrs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dfrs",
        description=(
            "Reproduce the evaluation of 'Dynamic Fractional Resource "
            "Scheduling for HPC Workloads' (IPDPS 2010)."
        ),
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="cluster size (default 128)"
    )
    parser.add_argument(
        "--num-traces", type=int, default=None, help="synthetic traces per load level"
    )
    parser.add_argument(
        "--num-jobs", type=int, default=None, help="jobs per synthetic trace"
    )
    parser.add_argument(
        "--loads",
        type=str,
        default=None,
        help="comma-separated offered-load levels, e.g. 0.1,0.5,0.9",
    )
    parser.add_argument(
        "--algorithms",
        type=str,
        default=None,
        help=(
            "comma-separated algorithm names "
            "(run 'repro-dfrs algorithms' for the full list)"
        ),
    )
    parser.add_argument(
        "--penalty",
        type=float,
        default=None,
        help="rescheduling penalty in seconds (0 or 300 in the paper)",
    )
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the instance x algorithm fan-out "
            "(default 1 = serial, 0 = one per CPU); results are identical "
            "to a serial run"
        ),
    )
    parser.add_argument(
        "--export-dir",
        type=str,
        default=None,
        help=(
            "write the campaign artifacts behind the printed output "
            "(tidy per-run rows as CSV, full payload as JSON) to this directory"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help=(
            "resumable campaign run cache: finished cells are persisted here "
            "(keyed by scenario hash) and reloaded on rerun"
        ),
    )
    parser.add_argument(
        "--streaming-metrics",
        action="store_true",
        help=(
            "bounded-memory campaign execution (run/compare only): "
            "instances stream straight into the engine, per-job records "
            "are reduced to mergeable online statistics (exact max/mean, "
            "sketched p50/p90/p99), and each cell's rows are merged across "
            "instances; memory is independent of trace length"
        ),
    )

    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, study in STUDIES.items():
        study_parser = subparsers.add_parser(name, help=study.help)
        for option in study.options:
            study_parser.add_argument(
                option.flag, type=option.type, default=option.default, help=option.help
            )

    run = subparsers.add_parser(
        "run", help="execute a scenario described in a JSON/TOML spec file"
    )
    run.add_argument("spec", type=str, help="path to the scenario spec file")

    subparsers.add_parser(
        "algorithms", help="list the scheduler registry and its name grammar"
    )

    platform = subparsers.add_parser(
        "platform", help="inspect and validate platform specs (see repro.platform)"
    )
    platform_sub = platform.add_subparsers(dest="platform_command", required=True)
    platform_inspect = platform_sub.add_parser(
        "inspect",
        help="print a platform's node classes, capacities, and availability model",
    )
    platform_inspect.add_argument(
        "spec",
        type=str,
        help="platform spec JSON (a platform object, or a scenario spec with a 'platform' block)",
    )
    platform_inspect.add_argument(
        "--events",
        type=int,
        default=10,
        help="number of availability events to preview (default 10)",
    )
    platform_validate = platform_sub.add_parser(
        "validate",
        help="build the platform and fully check its availability trace",
    )
    platform_validate.add_argument(
        "spec", type=str, help="platform spec JSON (as for 'platform inspect')"
    )

    trace = subparsers.add_parser(
        "trace", help="inspect, characterize, transform, and convert traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_inspect = trace_sub.add_parser(
        "inspect", help="print SWF header directives and stream statistics"
    )
    trace_inspect.add_argument("path", type=str, help="trace file (.swf[.gz] or .json[.gz])")
    trace_char = trace_sub.add_parser(
        "characterize",
        help="workload statistics (§I) for a trace file or trace-source spec",
    )
    trace_char.add_argument(
        "path",
        type=str,
        help="trace file (.swf[.gz]/.json[.gz]) or trace-source spec JSON",
    )
    trace_transform = trace_sub.add_parser(
        "transform",
        help="materialize a trace-source spec (e.g. a transform chain) to a file",
    )
    trace_transform.add_argument(
        "source",
        type=str,
        help="trace-source spec JSON file, or a trace file to transform from",
    )
    trace_transform.add_argument(
        "--output",
        type=str,
        required=True,
        help="output trace path (.json or .swf, optionally .gz)",
    )
    trace_convert = trace_sub.add_parser(
        "convert", help="convert between SWF and the internal JSON trace format"
    )
    trace_convert.add_argument("input", type=str, help="input trace file")
    trace_convert.add_argument("output", type=str, help="output trace file")

    add_dev_subparser(subparsers)
    add_serve_subparsers(subparsers)
    add_profile_subparser(subparsers)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    if args.nodes is not None:
        config = replace(config, cluster=Cluster(args.nodes, 4, 8.0))
    if args.num_traces is not None:
        config = replace(config, num_traces=args.num_traces)
    if args.num_jobs is not None:
        config = replace(config, num_jobs=args.num_jobs)
    if args.loads is not None:
        levels = tuple(float(part) for part in args.loads.split(",") if part.strip())
        config = replace(config, load_levels=levels)
    if args.algorithms is not None:
        names = tuple(part.strip() for part in args.algorithms.split(",") if part.strip())
        config = replace(config, algorithms=names)
    if args.penalty is not None:
        config = replace(config, penalty_seconds=args.penalty)
    if args.seed is not None:
        config = replace(config, seed_base=args.seed)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    return config


def _campaign_from_args(
    args: argparse.Namespace, config: ExperimentConfig
) -> Campaign:
    return Campaign(
        workers=config.workers,
        cache_dir=args.cache_dir,
        streaming=bool(getattr(args, "streaming_metrics", False)),
    )


def _trace_cluster(args: argparse.Namespace, default: Cluster) -> Cluster:
    """Cluster for trace operations: ``--nodes`` wins, then the default."""
    if args.nodes is not None:
        return Cluster(args.nodes, 4, 8.0)
    return default


def _run_trace_inspect(args: argparse.Namespace) -> None:
    path = Path(args.path)
    lines: List[str] = [f"trace: {path}"]
    if path.name.lower().endswith((".swf", ".swf.gz")):
        header = read_swf_header(path)
        if header.directives:
            lines.append("header directives:")
            for key, value in header.directives:
                lines.append(f"  {key}: {value}")
        else:
            lines.append("header directives: (none)")
    source, default_cluster = load_trace_source(args.path)
    cluster = _trace_cluster(args, default_cluster)
    lines.append(
        f"cluster: {cluster.num_nodes} nodes x {cluster.cores_per_node} cores, "
        f"{cluster.node_memory_gb:g} GB"
    )
    jobs = iter(source.jobs(cluster))
    first = next(jobs, None)
    if first is None:
        # characterize_stream refuses an empty stream; a trace with no usable
        # record is still inspectable.
        lines.append("usable jobs: 0")
    else:
        profile, _ = characterize_stream(itertools.chain((first,), jobs), cluster)
        lines.append(f"usable jobs: {profile.num_jobs}")
        lines.append(f"span: {profile.span_seconds / 3600.0:.1f} hours")
        lines.append(f"offered load: {profile.offered_load:.3f}")
        lines.append(
            f"widths: mean {profile.mean_tasks:.1f}, max {profile.max_tasks}, "
            f"serial fraction {profile.serial_fraction:.2f}"
        )
        lines.append(
            f"runtimes: mean {profile.mean_runtime_seconds:.0f} s, "
            f"median {profile.median_runtime_seconds:.0f} s"
        )
    print("\n".join(lines))


def _run_trace_characterize(args: argparse.Namespace) -> None:
    source, default_cluster = load_trace_source(args.path)
    cluster = _trace_cluster(args, default_cluster)
    # Single streaming pass: statistics and the width histogram accumulate
    # online, so a gzipped million-job archive trace never needs to be
    # resident (the runtime median/p95 come from a 0.1 %-accuracy sketch).
    profile, histogram = characterize_stream(
        source.jobs(cluster), cluster, name=source.default_name()
    )
    lines = [characterization_table([profile]), "", "job width histogram:"]
    total = profile.num_jobs
    for label, count in histogram:
        bar = "#" * max(1, round(40 * count / total))
        lines.append(f"  {label:>9s} tasks  {count:6d}  {bar}")
    print("\n".join(lines))


def _write_trace(workload, output: str) -> Path:
    from .exceptions import ConfigurationError

    name = Path(output).name.lower()
    if name.endswith((".swf", ".swf.gz")):
        return write_workload_swf(workload, output)
    if name.endswith((".json", ".json.gz")):
        return write_trace_json(workload, output)
    raise ConfigurationError(
        f"output {output!r} must end in .swf[.gz] or .json[.gz]"
    )


def _run_trace_transform(args: argparse.Namespace, source_path: str, output: str) -> None:
    source, default_cluster = load_trace_source(source_path)
    workload = source.materialize(_trace_cluster(args, default_cluster))
    written = _write_trace(workload, output)
    print(f"wrote {written} ({workload.num_jobs} jobs, load {workload.load():.3f})")


def _load_platform_spec(path_text: str):
    """Resolve a CLI platform argument to a built ``Platform``.

    Accepts a platform spec object (``{"type": ...}``) or a full scenario
    spec carrying a ``platform`` block, so the same file drives both
    ``repro-dfrs run`` and ``repro-dfrs platform inspect``.  Templated
    scenario platforms are resolved with the first value of each sweep axis
    (the representative cell), which is stated in the output.
    """
    from .exceptions import ConfigurationError
    from .platform import platform_from_dict

    path = Path(path_text)
    if not path.exists():
        raise ConfigurationError(f"platform spec not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid JSON in {path}: {error}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{path}: expected a platform or scenario spec object"
        )
    note = ""
    if "platform" not in payload and "type" not in payload:
        if "source" in payload or "algorithms" in payload:
            raise ConfigurationError(
                f"{path}: this scenario spec has no 'platform' block to "
                "inspect (it runs on a plain homogeneous cluster)"
            )
        raise ConfigurationError(
            f"{path}: expected a platform spec (a 'type' field) or a "
            "scenario spec with a 'platform' block"
        )
    if "platform" in payload and "type" not in payload:
        # A scenario spec: pull the platform block out and resolve templates
        # with the representative (first-value) cell.
        from .campaign.scenario import scenario_from_dict

        scenario = scenario_from_dict(payload)
        if scenario.platform is None:
            # An event-free homogeneous platform is demoted to the plain
            # cluster form inside Scenario; describe the spec's own block.
            return platform_from_dict(payload["platform"]), note
        first = {axis: values[0] for axis, values in scenario.sweep}
        if scenario.has_platform_template:
            note = (
                f"(templated platform resolved with representative cell "
                f"{first})"
            )
        return scenario.resolved_platform(first), note
    return platform_from_dict(payload), note


def _describe_platform(platform, *, max_events: int) -> str:
    """Human-readable summary used by ``platform inspect``."""
    from .platform import NodeClassesPlatform

    cluster = platform.build_cluster()
    lines: List[str] = [f"platform: {platform.kind}"]
    lines.append(
        f"nodes: {cluster.num_nodes} x {cluster.cores_per_node} cores, "
        f"reference node {cluster.node_memory_gb:g} GB"
    )
    if isinstance(platform, NodeClassesPlatform):
        lines.append("node classes:")
        for node_class in platform.classes:
            lines.append(
                f"  {node_class.name:>12s}  count {node_class.count:4d}  "
                f"cpu x{node_class.cpu:g}  memory x{node_class.memory:g}"
            )
    lines.append(
        f"aggregate capacity: {cluster.total_cpu_capacity():g} CPU units, "
        f"{cluster.total_mem_capacity():g} memory units"
    )
    if platform.events is None:
        lines.append("availability: static (no failure trace)")
        return "\n".join(lines)
    events = platform.events.materialize(cluster)
    downs = sum(1 for event in events if not event.up)
    lines.append(
        f"availability: {platform.events.kind} trace, {len(events)} events "
        f"({downs} failures), failure policy '{platform.failure_policy}'"
    )
    for event in events[:max_events]:
        lines.append(
            f"  t={event.time:12.1f}s  node {event.node:4d}  {event.kind}"
        )
    if len(events) > max_events:
        lines.append(f"  ... {len(events) - max_events} more")
    return "\n".join(lines)


def _run_platform_inspect(args: argparse.Namespace) -> None:
    platform, note = _load_platform_spec(args.spec)
    if note:
        print(note)
    print(_describe_platform(platform, max_events=max(0, args.events)))


def _run_platform_validate(args: argparse.Namespace) -> None:
    from .platform import platform_from_dict

    platform, note = _load_platform_spec(args.spec)
    if note:
        print(note)
    # Round-trip through the registry: the canonical form must rebuild.
    rebuilt = platform_from_dict(platform.to_dict())
    cluster = rebuilt.build_cluster()
    if rebuilt.events is not None:
        # materialize() runs the full ordering/node-range validation.
        events = rebuilt.events.materialize(cluster)
        print(
            f"platform OK: {cluster.num_nodes} nodes, {len(events)} "
            "availability events, spec round-trips"
        )
    else:
        print(f"platform OK: {cluster.num_nodes} nodes, static, spec round-trips")


def _format_algorithms() -> str:
    """The ``algorithms`` subcommand body: registry listing with grammar."""
    rows: List[List[object]] = []
    for entry in algorithm_catalog():
        if entry["periodic"]:
            note = (
                "periodic: optional -<seconds> suffix "
                f"(default {entry['default_period']:.0f})"
            )
        elif entry["integer_suffix"]:
            note = "optional -<rows> multiprogramming-level suffix"
        else:
            note = "fixed name"
        rows.append(
            [
                entry["name"],
                entry["grammar"],
                "yes" if entry["paper"] else "-",
                note,
            ]
        )
    return format_table(
        ["name", "grammar", "paper", "notes"],
        rows,
        title="Registered scheduling algorithms (pass with --algorithms)",
    )


#: Subcommands whose output semantics are well-defined for merged streaming
#: rows.  The studies (``paper`` and the others) aggregate *per-instance*
#: degradation factors; a merged pseudo-instance row would silently change
#: the estimator, so they refuse the flag instead.
_STREAMING_COMMANDS = ("run", "compare")

#: Global flags that size an experiment.  ``run`` refuses them: the spec file
#: sets its own cluster, traces, loads, algorithms, penalty and seeds.
_SCALE_FLAGS = ("nodes", "num_traces", "num_jobs", "loads", "algorithms", "penalty", "seed")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-dfrs`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "dev":
        # Static analysis neither builds an experiment config nor touches a
        # campaign cache; dispatch before either is constructed.
        return run_dev_command(args)
    if args.command == "serve":
        # The serving commands drive the engine directly (no campaign layer).
        return run_serve_command(args)
    if args.command == "loadtest":
        return run_loadtest_command(args)
    if args.command == "soak":
        # The soak harness drives the live serve stack directly.
        return run_soak_command(args)
    if args.command == "profile":
        # Profiling drives one engine run directly from the scenario spec;
        # the experiment-config and campaign machinery never enter the path.
        return run_profile_command(args)
    if getattr(args, "streaming_metrics", False) and args.command not in _STREAMING_COMMANDS:
        parser.error(
            f"--streaming-metrics only applies to {' / '.join(_STREAMING_COMMANDS)}: "
            "paper and the other studies average per-instance degradation "
            "factors, which the merged per-cell streaming rows would "
            "silently change"
        )
    given = [
        f"--{flag.replace('_', '-')}" for flag in _SCALE_FLAGS if getattr(args, flag) is not None
    ]
    if args.command == "run" and given:
        parser.error(f"run takes its size from the spec file; drop {', '.join(given)}")
    config = _config_from_args(args)
    campaign = _campaign_from_args(args, config)

    campaigns: Sequence[CampaignResult] = ()
    study = STUDIES.get(args.command)
    if study is not None:
        options = {
            option.keyword: getattr(args, option.flag[2:].replace("-", "_"))
            for option in study.options
        }
        if study.algorithms_option and args.algorithms is not None:
            options["algorithms"] = config.algorithms
        report = study.run(config, campaign=campaign, **options)
        print(report.format())
        campaigns = report.campaigns
    elif args.command == "run":
        scenario = load_scenario(args.spec)
        outcome = campaign.run(scenario)
        print(outcome.format_summary())
        campaigns = (outcome,)
    elif args.command == "algorithms":
        print(_format_algorithms())
    elif args.command == "platform":
        if args.platform_command == "inspect":
            _run_platform_inspect(args)
        elif args.platform_command == "validate":
            _run_platform_validate(args)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown platform command {args.platform_command!r}")
    elif args.command == "trace":
        if args.trace_command == "inspect":
            _run_trace_inspect(args)
        elif args.trace_command == "characterize":
            _run_trace_characterize(args)
        elif args.trace_command == "transform":
            _run_trace_transform(args, args.source, args.output)
        elif args.trace_command == "convert":
            _run_trace_transform(args, args.input, args.output)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown trace command {args.trace_command!r}")
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")

    if campaigns and args.export_dir is not None:
        for path in export_campaign_artifacts(campaigns, args.export_dir):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
