"""The whole suite: interleaved rounds, noise qualification, the report.

Rounds interleave the six workloads, so slow host drift (this box swings by
10-80 % over seconds to minutes, CPU time tracking wall) lands on all of them
instead of on whichever ran last.  Every (workload, round) is a fresh
interpreter, so ``setup_s`` and ``peak_rss_mb`` belong to that run alone, and
nothing is discarded as warm-up.  Round ``r`` runs with ``--seed`` + ``r``:
the same command twice gives the same inputs twice, and only round 0 (the
pinned seed) is compared with ``expected.json``.

A metric whose interquartile range over the rounds exceeds its bound (as a
share of its median) is printed ``unresolved``: at that spread a difference
of one bound cannot be told from noise, so it must not be read as "unchanged".
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from layers import END_TO_END, PER_LAYER
from workloads import OUT_DIR, WORKLOADS

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_child(name: str, seed: int, seconds: float, trace: int, flags: List[str]) -> dict:
    """One run in a fresh interpreter; its result plus the stderr note."""
    command = [
        sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + flags
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    notes = [line for line in done.stderr.splitlines() if line.startswith("note: ")]
    result["note"] = json.loads(notes[-1][len("note: "):]) if notes else {}
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and IQR/median of one metric's rounds."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_suite(args) -> int:
    flags = ["--quick"] if args.quick else []
    rounds = 1 if args.quick else max(1, args.rounds)
    names = list(WORKLOADS)
    timed: Dict[str, List[dict]] = {name: [] for name in names}
    traced: Dict[str, dict] = {}
    if not args.update_expected:
        for round_index in range(rounds):
            for name in names:
                print(f"[round {round_index + 1}/{rounds}] {name}", file=sys.stderr)
                timed[name].append(
                    run_child(name, args.seed + round_index, args.seconds, 0, flags)
                )
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        traced[name] = run_child(
            name, args.seed, args.seconds, 1,
            flags + (["--update-expected"] if args.update_expected else []),
        )

    failures = 0
    report = {"seed": args.seed, "rounds": rounds, "workloads": {}}
    for name in names:
        print(f"\n== {name} ==")
        entry = {"end_to_end": {}, "per_layer": {}, "notes": []}
        runs = timed[name] + [traced[name]]
        for run in runs:
            entry["notes"].append(run["note"])
            if not run["correct"] or run["failed"]:
                failures += 1
                print(f"  INCORRECT: {run['note'].get('problems')}")
        for metric, unit, better, bound in END_TO_END:
            values = [run["metrics"][metric]["value"] for run in timed[name]]
            if not values:
                continue
            stats = summarize(values)
            stats["unresolved"] = stats["spread"] > bound
            entry["end_to_end"][metric] = stats
            print(
                f"  {metric:<46} {stats['median']:>14.4f} {unit:<6}"
                f" q1={stats['q1']:.4f} q3={stats['q3']:.4f} n={stats['n']}"
                f" iqr/med={stats['spread']:.3f} bound={bound:.2f} ({better} is better)"
                + ("  unresolved" if stats["unresolved"] else "")
            )
        for key in ("raw_jobs_per_s", "host_factor"):
            values = [run["note"][key] for run in timed[name] if key in run["note"]]
            if values:
                stats = summarize(values)
                print(
                    f"  ({key:<44} {stats['median']:>14.4f}"
                    f"        iqr/med={stats['spread']:.3f}  uncorrected, for reference)"
                )
        for metric, unit, _ in PER_LAYER:
            value = traced[name]["metrics"][metric]["value"]
            entry["per_layer"][metric] = value
            print(f"  {metric:<46} {value:>14.4f} {unit}")
        note = traced[name]["note"]
        print(f"  digest {note.get('digest')}  sim {note.get('sim')}")
        report["workloads"][name] = entry

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "latest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}", file=sys.stderr)
    if failures:
        print(f"{failures} run(s) incorrect or with failed operations", file=sys.stderr)
        return 1
    return 0
