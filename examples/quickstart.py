#!/usr/bin/env python3
"""Quickstart: simulate one synthetic workload under DFRS and batch scheduling.

This is the 5-minute tour of the library:

1. describe a cluster,
2. generate a Lublin synthetic workload annotated with CPU needs and memory
   requirements (paper §IV-C),
3. scale it to a target offered load,
4. run it under EASY backfilling (batch baseline, perfect runtime estimates)
   and under DYNMCB8-ASAP-PER (the paper's best DFRS algorithm) with the
   pessimistic 5-minute rescheduling penalty,
5. compare maximum bounded stretches — the paper's headline metric.

Run with::

    python examples/quickstart.py [--jobs 120] [--nodes 32] [--load 0.7]
"""

from __future__ import annotations

import argparse

from repro import Cluster, LublinWorkloadGenerator, run_instance, scale_to_load
from repro.analysis.report import format_table
from repro.traces import characterize_stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=120, help="number of jobs")
    parser.add_argument("--nodes", type=int, default=32, help="cluster size")
    parser.add_argument("--load", type=float, default=0.7, help="offered load")
    parser.add_argument("--seed", type=int, default=42, help="random seed")
    args = parser.parse_args()

    # 1. A homogeneous cluster of quad-core nodes with 8 GB of memory each.
    cluster = Cluster(num_nodes=args.nodes, cores_per_node=4, node_memory_gb=8.0)

    # 2-3. A synthetic workload, rescaled to the requested offered load.
    workload = LublinWorkloadGenerator(cluster).generate(args.jobs, seed=args.seed)
    workload = scale_to_load(workload, args.load)
    profile, _ = characterize_stream(workload.jobs, cluster)
    print(
        f"Workload: {profile.num_jobs} jobs, offered load {profile.offered_load:.2f}, "
        f"{profile.serial_fraction:.0%} serial, "
        f"median runtime {profile.median_runtime_seconds:.0f}s"
    )

    # 4. Simulate under a batch baseline and under the best DFRS algorithm.
    algorithms = ["easy", "dynmcb8-asap-per-600"]
    outcome = run_instance(workload, algorithms, penalty_seconds=300.0)

    # 5. Report the metrics the paper reports.
    rows = []
    for name, result in outcome.results.items():
        rows.append(
            [
                name,
                result.max_stretch,
                result.mean_stretch,
                result.mean_turnaround,
                result.preemptions_per_job(),
                result.migrations_per_job(),
            ]
        )
    print()
    print(
        format_table(
            ["algorithm", "max stretch", "mean stretch", "mean turnaround (s)",
             "pmtn/job", "migr/job"],
            rows,
            title="EASY backfilling vs. DYNMCB8-ASAP-PER (5-minute penalty)",
        )
    )
    factors = outcome.degradation_factors()
    best = min(factors, key=factors.get)
    print(f"\nBest algorithm on this instance: {best}")
    for name, factor in sorted(factors.items(), key=lambda item: item[1]):
        print(f"  {name:24s} degradation factor {factor:8.2f}")


if __name__ == "__main__":
    main()
