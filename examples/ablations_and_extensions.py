#!/usr/bin/env python3
"""Run the ablation and extension studies that go beyond the paper's tables.

Four questions the paper answers only in prose, quantified at laptop scale:

1. **Does MCB8's balancing matter?**  Compare every registered packing
   heuristic on the same random instances (``run_packing_ablation``).
2. **Is T = 600 s the right period?**  Sweep the scheduling period of
   DYNMCB8-ASAP-PER (``run_period_sweep``).
3. **Do the future-work extensions help?**  Long-job throttling, user
   priorities (weighted yields), and conservative backfilling vs. the paper's
   best algorithm (``run_extensions_comparison``).
4. **What does it cost in energy?**  Utilization and idle power-down savings
   per algorithm (``run_utilization_study``).

Run with::

    python examples/ablations_and_extensions.py [--nodes 32] [--jobs 80]
"""

from __future__ import annotations

import argparse

from repro import (
    Cluster,
    ExperimentConfig,
    run_extensions_comparison,
    run_packing_ablation,
    run_period_sweep,
    run_utilization_study,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=32, help="cluster size")
    parser.add_argument("--jobs", type=int, default=80, help="jobs per trace")
    parser.add_argument("--traces", type=int, default=1, help="traces per load level")
    parser.add_argument("--seed", type=int, default=2010, help="base random seed")
    args = parser.parse_args()

    config = ExperimentConfig(
        cluster=Cluster(args.nodes, 4, 8.0),
        num_traces=args.traces,
        num_jobs=args.jobs,
        load_levels=(0.5, 0.7),
        seed_base=args.seed,
        hpc2n_weeks=1,
        hpc2n_jobs_per_week=args.jobs,
    )

    print("1. Packing-heuristic ablation")
    ablation = run_packing_ablation(num_nodes=16, num_instances=15, jobs_per_instance=20)
    print(ablation.format())
    mean_yield = ablation.outcome.aggregate("min_yield")
    print(f"Best packer by mean achieved yield: {max(mean_yield, key=mean_yield.get)}")

    print("\n2. Scheduling-period sensitivity (DYNMCB8-ASAP-PER)")
    sweep = run_period_sweep(
        config, periods=(60.0, 600.0, 3600.0), load=0.7, penalty_seconds=300.0
    )
    print(sweep.format())
    stretch = sweep.outcome.aggregate("max_stretch", by="period")
    print(f"Best period on these traces: {min(stretch, key=stretch.get)} s")

    print("\n3. Extension schedulers vs. the paper's best algorithm")
    extensions = run_extensions_comparison(config, penalty_seconds=300.0)
    print(extensions.format())
    averages = extensions.outcome.degradation_averages()
    print(f"Best algorithm: {min(averages, key=averages.get)}")

    print("\n4. Utilization and energy")
    study = run_utilization_study(
        config,
        load=0.5,
        penalty_seconds=300.0,
        algorithms=("easy", "greedy-pmtn", "dynmcb8-asap-per-600"),
    )
    print(study.format())


if __name__ == "__main__":
    main()
