#!/usr/bin/env python3
"""Memory pressure study: when does fractional scheduling stop paying off?

The paper's motivation (§I) is that most HPC jobs use a small fraction of a
node's memory, which is what makes co-location — and therefore DFRS —
possible.  This example quantifies that argument by sweeping the memory
model: the same job mix is annotated with increasingly memory-hungry tasks
and simulated under EASY (batch) and two DFRS algorithms.  As the memory
requirement grows towards a full node, co-location opportunities vanish and
the DFRS advantage shrinks — exactly the trade-off the introduction appeals
to.

Run with::

    python examples/memory_pressure_study.py [--jobs 80] [--nodes 32]
"""

from __future__ import annotations

import argparse

from repro import Cluster, run_instance, scale_to_load
from repro.analysis.report import format_table
from repro.traces import LublinWorkloadGenerator, MemoryRequirementModel

ALGORITHMS = ["easy", "greedy-pmtn", "dynmcb8-asap-per-600"]

#: Memory scenarios: from the paper's distribution to pathological pressure.
SCENARIOS = {
    "paper (55% of jobs at 10%)": MemoryRequirementModel(),
    "moderate (25% or 50% per task)": MemoryRequirementModel(
        small_probability=0.5, small_requirement=0.25, large_multipliers=(2,)
    ),
    "heavy (all jobs 50%)": MemoryRequirementModel(
        small_probability=1.0, small_requirement=0.50, large_multipliers=(2,)
    ),
    "full node (all jobs 100%)": MemoryRequirementModel(
        small_probability=1.0, small_requirement=1.00, large_multipliers=(1,)
    ),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=80)
    parser.add_argument("--nodes", type=int, default=32)
    parser.add_argument("--load", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--penalty", type=float, default=300.0)
    args = parser.parse_args()

    cluster = Cluster(args.nodes, 4, 8.0)
    rows = []
    for label, memory_model in SCENARIOS.items():
        generator = LublinWorkloadGenerator(cluster, memory_model=memory_model)
        workload = scale_to_load(
            generator.generate(args.jobs, seed=args.seed), args.load
        )
        outcome = run_instance(workload, ALGORITHMS, penalty_seconds=args.penalty)
        stretches = outcome.max_stretches()
        advantage = stretches["easy"] / min(
            stretches["greedy-pmtn"], stretches["dynmcb8-asap-per-600"]
        )
        for name in ALGORITHMS:
            rows.append([label, name, stretches[name]])
        rows.append([label, "-> batch/DFRS max-stretch ratio", advantage])

    print(
        format_table(
            ["memory scenario", "algorithm", "max stretch"],
            rows,
            title=(
                "Memory pressure vs. the DFRS advantage "
                f"(load {args.load}, {args.penalty:.0f}-second penalty)"
            ),
        )
    )
    print(
        "\nReading: the larger the per-task memory requirement, the fewer "
        "co-location opportunities exist, and the smaller the batch/DFRS gap "
        "becomes — the paper's motivating observation in reverse."
    )


if __name__ == "__main__":
    main()
