#!/usr/bin/env python3
"""The repository's benchmark: one command, six workloads, every metric by name.

Two ways in:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload (the form ``BENCHMARK.json`` names).  Generates
    the inputs from ``--seed``, repeats the workload's unit for ``--seconds``
    seconds, checks the simulated outputs, and prints one JSON object as the
    last line of stdout: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` — the end-to-end metrics with ``--trace 0`` (no tracing code
    in the process), the per-layer metrics with ``--trace 1`` (timing proxies
    injected from outside, kernel replays, a Chrome trace in ``bench/out/``).

``python3 bench/run.py [--rounds N] [--quick] [--update-expected]``
    The whole suite: interleaved rounds over all six workloads, one fresh
    interpreter per (workload, round), then one traced run per workload;
    prints median / quartiles / sample count per metric (see ``suite.py``).

Host time is what this benchmark gates; simulated statistics repeat exactly
and must not move under a speed-only change — they are checked, not gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: ``run_seconds`` of BENCHMARK.json; also the suite's default per run.
RUN_SECONDS = 12
#: Set-up is measured this many times per run (fresh interpreters); the
#: median is reported, so one slow start does not read as a regression.
SETUP_PROBES = 3
#: What the calibration loop takes on the quiet build box (2.1 GHz Xeon,
#: CPython 3.11).  Only a scale: it makes corrected times read as seconds of
#: that box; every comparison is a ratio, in which it cancels.
CALIB_REFERENCE_S = 0.0057
#: Calibration passes between units (~45 ms).
CALIB_SAMPLES = 8
#: The seed ``expected.json`` pins exact simulated results for.
EXPECTED_SEED = 2010
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Host seconds each kernel replay may take in a traced run.
REPLAY_BUDGET_SECONDS = 1.0
#: Allowed disagreement between the outside schedule spans and the program's
#: own telemetry sink timing the same calls.
SINK_TOLERANCE = 0.05


class _CalibItem:
    __slots__ = ("key", "rank", "value")

    def __init__(self, key: int, rank: int, value: float) -> None:
        self.key = key
        self.rank = rank
        self.value = value


def calibration_loop() -> float:
    """Seconds one pass of the reference work takes on this host, right now.

    Half integer arithmetic, half what the simulator does all day: allocate
    small objects, build and probe dicts, sort by key.  It shares no code with
    the program, so no change to the program can move it.  The collector is
    off inside, or a full collection would scan the *program's* heap and the
    reference would depend on what is being measured.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for index in range(45_000):
            total += index * index % 7
        items = [_CalibItem(i, (i * 7919) % 1000, float(i)) for i in range(6000)]
        by_key = {item.key: item for item in items}
        for item in sorted(items, key=lambda item: item.rank):
            total += by_key[item.key].value
        views = {key: (item.key, item.rank) for key, item in by_key.items() if item.rank % 3}
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate() -> list:
    """``CALIB_SAMPLES`` back-to-back passes of the calibration loop."""
    return [calibration_loop() for _ in range(CALIB_SAMPLES)]


def host_factor(before: list, after: list) -> float:
    """How much slower than the reference host this host ran between two
    calibrations (median of their samples over the reference time)."""
    return statistics.median(before + after) / CALIB_REFERENCE_S


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_workload(name: str, seed: int, quick: bool):
    """Import the program, build the workload, generate its inputs: set-up."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setup_info = workload.setup(seed, quick)
    return workload, setup_info


def measure_setup(args: argparse.Namespace) -> list:
    """Corrected wall seconds of fresh interpreters doing set-up only.

    Timed from spawn to exit, so interpreter start, imports, trace generation
    and construction all count — work moved into any of them shows.  Each
    sample is divided by the host factor measured right around it.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--quick"] if args.quick else [])
    samples = []
    before = calibrate()
    for _ in range(1 if args.quick else SETUP_PROBES):
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        wall = perf_counter() - start
        after = calibrate()
        samples.append(wall / host_factor(before, after))
        before = after
    return samples


def check_outputs(workload, seed: int, units: list, digest, update: bool) -> list:
    """Problems with the simulated outputs (empty list = correct).

    Always: every unit of the run produced identical simulated statistics
    (the program is deterministic) and no operation failed.  At the pinned
    seed and sizes: the statistics (and, traced, the placement-log digest)
    equal ``expected.json`` exactly.
    """
    problems = []
    first = units[0].sim
    for index, unit in enumerate(units[1:], start=1):
        if unit.sim != first:
            problems.append(f"unit {index} simulated {unit.sim}, unit 0 {first}")
    failed = sum(unit.failed for unit in units)
    if failed:
        problems.append(f"{failed} operations failed")
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    if update:
        entry = {"params": workload.params, "sim": first}
        if digest is not None and first:
            entry["digest"] = digest
        expected[workload.name] = entry
        with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return problems
    entry = expected.get(workload.name)
    if entry is None or seed != EXPECTED_SEED or entry["params"] != workload.params:
        return problems
    if entry["sim"] != first:
        problems.append(f"simulated {first}, expected {entry['sim']}")
    if digest is not None and "digest" in entry and entry["digest"] != digest:
        problems.append(f"placement-log digest {digest}, expected {entry['digest']}")
    return problems


def run_untraced(args: argparse.Namespace) -> dict:
    """End-to-end metrics: no tracing code anywhere in the process."""
    setup_samples = measure_setup(args)
    workload, _ = load_workload(args.workload, args.seed, args.quick)
    units, factors = [], []
    start = perf_counter()
    before = calibrate()
    while True:
        units.append(workload.run_unit())
        after = calibrate()
        factors.append(host_factor(before, after))
        before = after
        if perf_counter() - start >= args.seconds:
            break
    raw_rates = [unit.jobs / unit.wall_s for unit in units]
    problems = check_outputs(workload, args.seed, units, None, update=False)
    note(
        args, units[0].sim, None, problems,
        host_factor=statistics.median(factors),
        raw_jobs_per_s=statistics.median(raw_rates),
    )
    return {
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": {
            # Median over units of the unit's rate on a reference-speed host.
            "jobs_per_s": {
                "value": statistics.median(
                    rate * factor for rate, factor in zip(raw_rates, factors)
                ),
                "unit": "1/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        },
    }


def run_traced(args: argparse.Namespace) -> dict:
    """Per-layer metrics: proxies injected from outside, replays afterwards."""
    from layers import PER_LAYER, layer_metrics
    from probes import replay_kernels
    from spans import totals, write_chrome_trace
    from workloads import OUT_DIR, CampaignWorkload, SimWorkload, Tracer

    calib_s = statistics.median(calibrate())
    workload, setup_info = load_workload(args.workload, args.seed, args.quick)
    reference, traced = [], []
    start = perf_counter()
    while True:
        # Untraced and traced units alternate so host drift lands on both
        # sides of the overhead ratio.
        reference.append(workload.run_unit())
        tracer = Tracer(run=len(traced))
        traced.append(workload.run_unit(tracer))
        if perf_counter() - start >= args.seconds / 2:
            break
    units = reference + traced
    digest = tracer.digest() if tracer.scheduler is not None else None
    problems = []

    sink_ratio = 0.0
    if isinstance(workload, SimWorkload):
        # Cross-check the outside spans against the program's own sink, in a
        # run of its own so the two overheads do not stack on the traced one.
        light = Tracer(capture=False, placement_log=False)
        unit = workload.run_unit(light, telemetry={"type": "stats"}, check_invariants=True)
        units.append(unit)
        sink_s = unit.extra["telemetry"].phases()["engine.schedule"].total
        spans_s = totals(light.recorder.spans, light.recorder.run)["schedulers.schedule"][0]
        sink_ratio = spans_s / sink_s
        if abs(sink_ratio - 1.0) > SINK_TOLERANCE:
            problems.append(f"schedule spans are {sink_ratio:.3f}x the sink's engine.schedule")

    replays = {}
    if tracer.scheduler is not None:
        replays = replay_kernels(tracer.scheduler.captured, REPLAY_BUDGET_SECONDS)
    walls = workload.per_algorithm_walls() if isinstance(workload, CampaignWorkload) else {}
    measured = {
        **layer_metrics(
            setup_info=setup_info,
            num_jobs=workload.num_jobs,
            reference=reference,
            traced=traced,
            tracer=tracer,
        ),
        **replays,
        **walls,
        "harness.schedule_span_vs_sink": sink_ratio,
        "harness.calib_spin_s": calib_s,
        "harness.rounds": len(units),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    write_chrome_trace(
        tracer.recorder.spans,
        os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
    )
    problems += check_outputs(workload, args.seed, units, digest, args.update_expected)
    note(args, units[0].sim, digest, problems)
    return {
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        # Every name, in table order; what does not apply to this workload is 0.
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        },
    }


def note(args: argparse.Namespace, sim: dict, digest, problems: list, **extra) -> None:
    """Exact simulated results, problems and uncorrected numbers, on stderr
    for the suite and the user (the result line holds only the metrics)."""
    print(
        "note: " + json.dumps(
            {"workload": args.workload, "seed": args.seed, "sim": sim,
             "digest": digest, "problems": problems, **extra},
            sort_keys=True,
        ),
        file=sys.stderr,
    )


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (else: the whole suite)")
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured interval per run (default {RUN_SECONDS}; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: each unit well under 2 s (numbers mean nothing)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="suite: timed rounds per workload (shrink this, not job counts)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from a traced run at the pinned seed")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(RUN_SECONDS)
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    try:
        import repro
    except ImportError as error:
        print(f"bench: cannot import the program from {ROOT}/src: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"bench: 'repro' resolves to {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        from suite import run_suite

        return run_suite(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        load_workload(args.workload, args.seed, args.quick)
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
