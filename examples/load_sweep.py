#!/usr/bin/env python3
"""Load sweep: a miniature Figure 1 on your terminal.

Generates a handful of synthetic traces, scales each of them to a range of
offered loads, runs every algorithm of the paper, and prints the ``paper``
study at each of the two regimes the paper discusses (with and without the
5-minute rescheduling penalty): Figure 1's average stretch degradation
factor per (algorithm, load), Tables I and II, and a crude ASCII rendering
of the Figure 1 series.

Run with::

    python examples/load_sweep.py [--traces 2] [--jobs 80] [--nodes 32]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro import PAPER_ALGORITHMS, Cluster, ExperimentConfig, run_paper


def ascii_series(points, loads, width: int = 40) -> str:
    """Render {load: {algorithm: degradation factor}} as crude bar charts."""
    import math

    lines = []
    peak = max(max(values.values()) for values in points.values())
    log_peak = math.log10(max(peak, 10.0))
    for name in points[loads[0]]:
        bars = []
        for load in loads:
            value = points[load][name]
            length = int(round(width * math.log10(max(value, 1.0)) / log_peak))
            bars.append(f"{load:>4.1f} |" + "#" * length + f" {value:.1f}")
        lines.append(f"{name}")
        lines.extend("  " + bar for bar in bars)
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=80)
    parser.add_argument("--nodes", type=int, default=32)
    parser.add_argument("--loads", type=str, default="0.3,0.6,0.9")
    args = parser.parse_args()

    loads = tuple(float(part) for part in args.loads.split(","))
    config = ExperimentConfig(
        cluster=Cluster(args.nodes, 4, 8.0),
        num_traces=args.traces,
        num_jobs=args.jobs,
        load_levels=loads,
        algorithms=tuple(PAPER_ALGORITHMS),
        hpc2n_weeks=args.traces,
        hpc2n_jobs_per_week=args.jobs,
    )

    for penalty, label in ((0.0, "Figure 1(a): no rescheduling penalty"),
                           (300.0, "Figure 1(b): 5-minute rescheduling penalty")):
        print("=" * 72)
        print(label)
        print("=" * 72)
        result = run_paper(replace(config, penalty_seconds=penalty))
        print(result.format())
        print()
        scaled = result.campaigns[0]
        points = {load: scaled.degradation_averages(load=load) for load in loads}
        print(ascii_series(points, loads))
        print()


if __name__ == "__main__":
    main()
