#!/usr/bin/env python3
"""Write your own DFRS scheduling policy and race it against the paper's.

The simulation engine treats schedulers as pure policies: at every event they
receive a read-only :class:`~repro.core.context.SchedulingContext` and return
an :class:`~repro.core.allocation.AllocationDecision`.  This example shows the
full recipe:

1. subclass :class:`repro.schedulers.base.Scheduler`,
2. place tasks under the memory constraint (here: least-loaded node first),
3. hand out CPU with the fair-share rule ``1 / max(1, Λ)`` and the
   average-yield improvement heuristic — both reusable from
   :mod:`repro.schedulers.dfrs.yield_opt`,
4. run it head-to-head against GREEDY-PMTN and DYNMCB8-ASAP-PER.

The toy policy below ("RoundRobinShares") never preempts or migrates: jobs
that cannot be placed immediately simply wait for the next event.  It is a
deliberately simple starting point for experimentation, not a recommendation.

Run with::

    python examples/custom_scheduler.py [--jobs 100] [--nodes 24] [--load 0.7]
"""

from __future__ import annotations

import argparse

from repro import Cluster, LublinWorkloadGenerator, scale_to_load
from repro.analysis.report import format_table
from repro.core import SimulationConfig, Simulator, ReschedulingPenaltyModel
from repro.core.allocation import AllocationDecision
from repro.core.context import SchedulingContext
from repro.schedulers import create_scheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.dfrs.placement import greedy_place_job, usage_from_placements
from repro.schedulers.dfrs.yield_opt import (
    build_allocations,
    fair_yields,
    improve_average_yield,
)


class RoundRobinShares(Scheduler):
    """Start jobs in submission order on the least-loaded nodes; never preempt."""

    name = "round-robin-shares"

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        decision = AllocationDecision()

        # Keep every running job where it is.
        placements = {
            view.job_id: view.assignment for view in context.running_jobs()
        }

        # Admit pending jobs greedily, oldest first, under the memory constraint.
        usage = usage_from_placements(placements, context.jobs, context.cluster)
        for view in sorted(
            context.pending_jobs(), key=lambda v: (v.submit_time, v.job_id)
        ):
            nodes = greedy_place_job(view, usage)
            if nodes is not None:
                placements[view.job_id] = tuple(nodes)

        # Fair CPU shares plus the paper's average-yield improvement heuristic.
        yields = fair_yields(placements, context.jobs, context.cluster)
        yields = improve_average_yield(placements, yields, context.jobs, context.cluster)
        decision.running = build_allocations(placements, yields)
        return decision


def run(workload, scheduler, penalty_seconds: float):
    simulator = Simulator(
        workload.cluster,
        scheduler,
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty_seconds)),
    )
    return simulator.run(workload.jobs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=100, help="number of jobs")
    parser.add_argument("--nodes", type=int, default=24, help="cluster size")
    parser.add_argument("--load", type=float, default=0.7, help="offered load")
    parser.add_argument("--penalty", type=float, default=300.0, help="rescheduling penalty (s)")
    parser.add_argument("--seed", type=int, default=11, help="random seed")
    args = parser.parse_args()

    cluster = Cluster(num_nodes=args.nodes, cores_per_node=4, node_memory_gb=8.0)
    workload = LublinWorkloadGenerator(cluster).generate(args.jobs, seed=args.seed)
    workload = scale_to_load(workload, args.load)
    print(f"Workload: {workload.num_jobs} jobs at offered load {workload.load():.2f}\n")

    contenders = {
        "round-robin-shares (custom)": RoundRobinShares(),
        "greedy-pmtn": create_scheduler("greedy-pmtn"),
        "dynmcb8-asap-per-600": create_scheduler("dynmcb8-asap-per-600"),
    }
    rows = []
    for label, scheduler in contenders.items():
        result = run(workload, scheduler, args.penalty)
        rows.append(
            [
                label,
                result.max_stretch,
                result.mean_stretch,
                result.preemptions_per_job(),
                result.migrations_per_job(),
            ]
        )
    print(
        format_table(
            ["policy", "max stretch", "mean stretch", "pmtn/job", "migr/job"],
            rows,
            title=f"Custom policy vs. paper algorithms ({args.penalty:.0f}-second penalty)",
        )
    )
    print(
        "\nThe custom policy usually loses on max stretch because it cannot\n"
        "preempt: once a long job occupies memory, later short jobs must wait.\n"
        "That is precisely the paper's argument for preemption (§III-A)."
    )


if __name__ == "__main__":
    main()
