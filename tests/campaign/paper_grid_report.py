"""Render ``results/paper_grid.md`` from ``results/paper_grid.json`` alone.

The JSON is the export of ``repro-dfrs run examples/scenarios/paper_grid.json``
plus a ``measured`` block (wall time, command, host).  After a new grid run:
``PYTHONPATH=src python tests/campaign/paper_grid_report.py``.
"""

from __future__ import annotations

import json
import pathlib
import statistics

import numpy as np

from repro.campaign.result import CampaignResult

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "results"
BATCH = ("fcfs", "easy")
#: Not preemptive, so left out of "best DFRS" as the paper's Figure 1 does.
NON_PREEMPTIVE = BATCH + ("greedy",)
LOAD_BANDS = ((0.1, 0.3), (0.4, 0.6), (0.7, 0.9))
#: The ``costs`` columns, in the paper's Table II order.
COST_METRICS = (
    "pmtn_per_hour", "migr_per_hour", "pmtn_per_job", "migr_per_job",
    "pmtn_bandwidth_gb_per_sec", "migr_bandwidth_gb_per_sec",
)
#: Every metric the rendering reads.
RENDERED_METRICS = ("max_stretch",) + COST_METRICS
HEADER = (
    "| algorithm | loads | degr. mean | degr. σ | degr. max | pmtn/h | migr/h "
    "| pmtn/job | migr/job | pmtn GB/s | migr GB/s |\n" + "|---" * 11 + "|"
)


def in_band(low, high):
    return lambda row: low - 1e-9 <= row.params_dict()["load"] <= high + 1e-9


def batch_over_dfrs(result, penalty):
    """Per (load, trace): best batch max stretch over best preemptive DFRS."""
    ratios = []
    for group in result.instances(penalty=penalty):
        stretch = {name: row.metric("max_stretch") for name, row in group.items()}
        dfrs = min(v for name, v in stretch.items() if name not in NON_PREEMPTIVE)
        ratios.append(min(stretch[name] for name in BATCH) / dfrs)
    return ratios


def render(payload) -> str:
    result = CampaignResult.from_json_dict(payload)
    if any(row.instance_index < 0 for row in result.rows):
        raise ValueError(
            "rows merged across instances (instance_index -1, from "
            "--streaming-metrics) carry no per-trace degradation from best"
        )
    measured, wall = payload["measured"], payload["measured"]["wall_seconds"]
    source, cluster = result.scenario["source"], result.scenario["cluster"]
    sweep = dict(result.scenario["sweep"])
    text = (
        f"# The paper grid\n\n`examples/scenarios/paper_grid.json` (scenario hash "
        f"`{result.scenario_hash}`): {len(result.algorithms())} algorithms on "
        f"{cluster['nodes']} nodes × {cluster['cores_per_node']} cores, "
        f"{source['num_traces']} Lublin traces of {source['num_jobs']} jobs (seeds from "
        f"{source['seed_base']}), loads {min(sweep['load'])}–{max(sweep['load'])}, "
        f"penalty {' and '.join(f'{p} s' for p in sweep['penalty'])}.\n\n"
        f"{len(result.rows)} cells (one algorithm on one trace at one load and penalty) "
        f"in {wall:.0f} s wall, {len(result.rows) / wall:.3f} cells/s: "
        f"`{measured['command']}` on {measured['host']}.\n\n"
        "Degradation from best is an algorithm's maximum bounded stretch over the best "
        "one's on the same trace, load and penalty, pooled over the band's loads and "
        "traces.  Preemptions and migrations are per hour of makespan and per job; GB/s "
        "is the memory they move per second of makespan, averaged over the band's runs.\n"
    )
    for penalty in sweep["penalty"]:
        ratios = batch_over_dfrs(result, penalty)
        overall = result.degradation_stats(penalty=penalty)
        moved = max(row.metric(COST_METRICS[4]) + row.metric(COST_METRICS[5])
                    for row in result.select(penalty=penalty))
        text += (
            f"\n## Penalty {penalty} s\n\nBest batch (FCFS/EASY) max stretch over best "
            "preemptive DFRS (GREEDY-PMTN, -MIGR, the DYNMCB8 family) max stretch, per "
            f"trace and load: min {min(ratios):.2f}, median "
            f"{statistics.median(ratios):.2f}, max {max(ratios):.2f}.  Mean degradation "
            "from best over all loads: " + ", ".join(
                f"{name} {overall[name].average:.2f}"
                for name in sorted(overall, key=lambda name: overall[name].average)
            ) + f".  The most one run moves is {moved:.2f} GB/s.\n\n{HEADER}\n"
        )
        bands = {
            band: result.degradation_stats(penalty=penalty, where=in_band(*band))
            for band in LOAD_BANDS
            if result.select(where=in_band(*band))
        }
        for algorithm in result.algorithms():
            for (low, high), by_algorithm in bands.items():
                rows = {"algorithm": algorithm, "penalty": penalty, "where": in_band(low, high)}
                costs = [np.mean(result.metric_values(m, **rows)) for m in COST_METRICS]
                stats = by_algorithm[algorithm]
                text += (
                    f"| {algorithm} | {low}–{high} | {stats.average:.2f} | {stats.std:.2f} "
                    f"| {stats.maximum:.2f} | "
                    + " | ".join(f"{v:.2f}" for v in costs[:4]) + " | "
                    + " | ".join(f"{v:.4f}" for v in costs[4:]) + " |\n"
                )
    return text


def main() -> None:
    payload = json.loads((RESULTS_DIR / "paper_grid.json").read_text(encoding="utf-8"))
    (RESULTS_DIR / "paper_grid.md").write_text(render(payload), encoding="utf-8")
    print(f"wrote {RESULTS_DIR / 'paper_grid.md'}")


if __name__ == "__main__":
    main()
