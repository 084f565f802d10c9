"""GREEDY-PMTN and GREEDY-PMTN-MIGR: greedy DFRS with preemption (§III-A).

Both algorithms force the admission of newly submitted jobs: when a job
cannot be placed because of memory constraints, currently running jobs are
considered for pausing in *increasing* priority order until enough memory
would be freed, then the marked jobs are re-examined in *decreasing* priority
order and any that can be kept running (the incoming job still fits) is
unmarked.  The remaining marked jobs are paused and the new job starts.

Paused jobs are resumed, in decreasing priority order, at any later event
where memory allows.  GREEDY-PMTN-MIGR additionally allows a job paused at
the current event to be restarted *within the same event* on a different set
of nodes, which the engine accounts for as a migration rather than a
preemption/resume cycle.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...core.allocation import AllocationDecision
from ...core.cluster import ClusterUsage
from ...core.context import JobView, SchedulingContext
from .greedy import GreedyScheduler
from .placement import can_place_job, greedy_place_job, usage_from_placements
from .priority import sort_by_decreasing_priority, sort_by_increasing_priority

__all__ = ["GreedyPmtnScheduler", "GreedyPmtnMigrScheduler"]


class GreedyPmtnScheduler(GreedyScheduler):
    """GREEDY-PMTN: greedy placement with forced admission via preemption."""

    name = "greedy-pmtn"
    resumes_paused_jobs = True
    #: Whether jobs paused at this event may be restarted within the event
    #: on other nodes (the MIGR variant flips this to True).
    resume_within_event = False

    def schedule(self, context: SchedulingContext) -> AllocationDecision:
        self._drop_departed(context)
        decision = AllocationDecision()
        placements: Dict[int, Tuple[int, ...]] = {
            view.job_id: view.assignment  # type: ignore[misc]
            for view in context.running_jobs()
        }
        usage = usage_from_placements(
            placements, context.jobs, context.cluster,
            unavailable=context.down_nodes,
        )
        #: Jobs that were running before this event (eligible for pausing).
        previously_running: Set[int] = set(placements)
        paused_now: List[JobView] = []

        for view in self._eligible_pending(context):
            if self._admit(view, context, placements, usage, previously_running,
                           paused_now):
                self._forget(view.job_id)
            else:
                self._postpone(view, context, decision)

        # Resume jobs paused at earlier events, most deserving first.
        for view in sort_by_decreasing_priority(context.paused_jobs(), context.time):
            nodes = greedy_place_job(view, usage)
            if nodes is not None:
                placements[view.job_id] = tuple(nodes)

        if self.resume_within_event:
            # MIGR variant: jobs paused at this very event may move instead.
            for view in sort_by_decreasing_priority(paused_now, context.time):
                nodes = greedy_place_job(view, usage)
                if nodes is not None:
                    placements[view.job_id] = tuple(nodes)

        return self._finalize(placements, context, decision)

    # -- internals ---------------------------------------------------------
    def _admit(
        self,
        view: JobView,
        context: SchedulingContext,
        placements: Dict[int, Tuple[int, ...]],
        usage: ClusterUsage,
        previously_running: Set[int],
        paused_now: List[JobView],
    ) -> bool:
        """Try to start ``view`` now, pausing running jobs if needed.

        Returns True when the job was placed (``placements`` and ``usage`` are
        updated in place), False when it must be postponed.
        """
        nodes = greedy_place_job(view, usage)
        if nodes is not None:
            placements[view.job_id] = tuple(nodes)
            return True

        # Mark running jobs for pausing, least deserving first, until the
        # incoming job would fit.
        pausable = [
            context.jobs[job_id]
            for job_id in placements
            if job_id in previously_running
        ]
        marked: List[JobView] = []
        scratch = usage.snapshot()
        feasible = False
        for candidate in sort_by_increasing_priority(pausable, context.time):
            held = placements[candidate.job_id]
            scratch.remove_tasks(held, candidate.cpu_need, candidate.mem_requirement, 0.0)
            marked.append(candidate)
            if can_place_job(view, scratch):
                feasible = True
                break
        if not feasible:
            return False

        # Second pass: keep running any marked job whose presence still lets
        # the incoming job start, most deserving first.
        kept: Set[int] = set()
        for candidate in sort_by_decreasing_priority(marked, context.time):
            probe = scratch.snapshot()
            held = placements[candidate.job_id]
            probe.add_jobs(((held, candidate.cpu_need, candidate.mem_requirement, 0.0),), check=False)
            if can_place_job(view, probe):
                scratch = probe
                kept.add(candidate.job_id)
        to_pause = [c for c in marked if c.job_id not in kept]

        for candidate in to_pause:
            del placements[candidate.job_id]
            paused_now.append(candidate)

        nodes = greedy_place_job(view, scratch)
        if nodes is None:  # pragma: no cover - guarded by the feasibility probe
            return False
        placements[view.job_id] = tuple(nodes)
        # Adopt the scratch tally (it reflects pauses and the new placement).
        usage.copy_from(scratch)
        return True


class GreedyPmtnMigrScheduler(GreedyPmtnScheduler):
    """GREEDY-PMTN-MIGR: paused-at-this-event jobs may move immediately."""

    name = "greedy-pmtn-migr"
    resume_within_event = True
