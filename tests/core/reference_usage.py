"""The task-by-task usage tally as it stood before the bulk loop — test oracle.

Verbatim copies of the parent commit's scalar ``ClusterUsage.add_task`` /
``remove_task`` / ``add_job`` bodies (numpy scalar reads and writes, one
checked method call per task), of ``usage_from_placements`` and of
``validate_decision`` with its per-node Python range loop.
``test_usage_differential.py`` requires the live code to leave the same bytes
in all four vectors on every decision the oracle accepts, and to raise the same
exception type with the same text on every one it refuses.

GREEDY's placement as it stood before the one-mask-per-job method is kept
too: the scalar ``least_loaded_fitting`` query (four numpy calls per task)
and the per-task ``greedy_place_job`` loop over it, both verbatim.
``tests/schedulers/test_placement.py`` holds the live placement to them.
So is the one-mask-per-job ``place_least_loaded`` as it stood before a
placement that cannot succeed stopped placing (it places every slot and
removes each task again), verbatim; ``test_usage_differential.py`` holds the
live one to it.

:class:`ReferenceUsage` subclasses the live tally so the arrays, the capacity
vectors, the down set and every query are the live ones; only the mutators
are the old ones.  The two functions differ from the parent's in one place
each: they build a ``ReferenceUsage`` where the parent called
``cluster.usage(...)``.  Do not optimise or tidy this file: being slow and
obviously right is its job.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import AllocationDecision
from repro.core.cluster import CAPACITY_EPSILON, Cluster, ClusterUsage
from repro.core.context import JobView
from repro.core.job import JobSpec
from repro.exceptions import AllocationError, InfeasibleAllocationError


class ReferenceUsage(ClusterUsage):
    """``ClusterUsage`` with the parent commit's scalar mutators."""

    __slots__ = ()

    def add_task(
        self,
        node: int,
        cpu_need: float,
        mem_requirement: float,
        yield_value: float,
        *,
        check: bool = True,
    ) -> None:
        cpu_fraction = cpu_need * yield_value
        if check:
            if self._down is not None and node in self._down:
                raise InfeasibleAllocationError(
                    f"node {node} is unavailable (down)"
                )
            mem_limit = 1.0 if self._mem_cap is None else self._mem_cap[node]
            if self._memory[node] + mem_requirement > mem_limit + CAPACITY_EPSILON:
                raise InfeasibleAllocationError(
                    f"node {node}: memory {self._memory[node]:.4f} + "
                    f"{mem_requirement:.4f} exceeds capacity"
                )
            cpu_limit = 1.0 if self._cpu_cap is None else self._cpu_cap[node]
            if self._cpu_alloc[node] + cpu_fraction > cpu_limit + CAPACITY_EPSILON:
                raise InfeasibleAllocationError(
                    f"node {node}: CPU allocation {self._cpu_alloc[node]:.4f} + "
                    f"{cpu_fraction:.4f} exceeds capacity"
                )
        self._memory[node] += mem_requirement
        self._cpu_alloc[node] += cpu_fraction
        self._cpu_load[node] += cpu_need
        self._tasks[node] += 1

    def remove_task(
        self, node: int, cpu_need: float, mem_requirement: float, yield_value: float
    ) -> None:
        self._memory[node] -= mem_requirement
        self._cpu_alloc[node] -= cpu_need * yield_value
        self._cpu_load[node] -= cpu_need
        self._tasks[node] -= 1
        # Clamp tiny negative residues from floating point arithmetic.
        if -1e-9 < self._memory[node] < 0.0:
            self._memory[node] = 0.0
        if -1e-9 < self._cpu_alloc[node] < 0.0:
            self._cpu_alloc[node] = 0.0
        if -1e-9 < self._cpu_load[node] < 0.0:
            self._cpu_load[node] = 0.0
        if self._tasks[node] < 0:
            raise InfeasibleAllocationError(
                f"node {node}: removed more tasks than were placed"
            )

    def least_loaded_fitting(self, mem_requirement: float) -> int:
        """Least CPU-loaded available node with room for one task, else ``-1``.

        Ties go to the lowest node index.  On heterogeneous clusters the key
        is the *speed-normalised* load (``load / cpu_capacity``), so a fast
        node half as loaded per unit of capacity wins over a slow node — the
        natural generalisation of the paper's least-loaded rule — and memory
        is checked against each node's own capacity.  Down nodes never fit
        anything.
        """
        fits = self._memory_fits(self._memory, mem_requirement)
        keys = self._cpu_load if self._cpu_cap is None else self._cpu_load / self._cpu_cap
        node = int(np.where(fits, keys, np.inf).argmin())
        return node if fits[node] else -1

    def place_least_loaded(
        self, num_tasks: int, cpu_need: float, mem_requirement: float
    ) -> Optional[List[int]]:
        """Place ``num_tasks`` tasks, each on the least CPU-loaded available
        node with room for it, with yield 0, and return the nodes; when a
        task finds no room, remove the placed ones one by one, return None.

        Ties go to the lowest node index.  On heterogeneous clusters the key
        is the *speed-normalised* load (``load / cpu_capacity``), so a fast
        node half as loaded per unit of capacity wins over a slow node — the
        natural generalisation of the paper's least-loaded rule — and memory
        is checked against each node's own capacity.  Down nodes never fit
        anything.  The fit mask and the keys are built once: a task changes
        only its own node's key — its new load, or ``inf`` once full.
        """
        fits = self._memory_fits(self._memory, mem_requirement)
        loads = self._cpu_load if self._cpu_cap is None else self._cpu_load / self._cpu_cap
        keys = np.where(fits, loads, np.inf)
        fit, key = fits.data, keys.data
        memory, _, cpu_load, _, mem_cap, cpu_cap = self._views
        placed: List[int] = []
        for _ in range(num_tasks):
            node = int(keys.argmin())
            if not fit[node]:
                # Task-by-task removal, not a restore: later tie-breaks see the
                # (a + b) - b rounding this leaves, and the pinned placement
                # logs were produced with it.
                for node in placed:
                    self.remove_task(node, cpu_need, mem_requirement, 0.0)
                return None
            self.add_task(node, cpu_need, mem_requirement, 0.0)
            placed.append(node)
            limit = 1.0 if mem_cap is None else mem_cap[node]
            if memory[node] + mem_requirement <= limit + CAPACITY_EPSILON:
                key[node] = cpu_load[node] if cpu_cap is None else cpu_load[node] / cpu_cap[node]
            else:
                fit[node], key[node] = False, np.inf
        return placed

    def add_job(
        self,
        assignment: Sequence[int],
        cpu_need: float,
        mem_requirement: float,
        yield_value: float,
        *,
        check: bool = True,
    ) -> None:
        placed: List[int] = []
        try:
            for node in assignment:
                self.add_task(node, cpu_need, mem_requirement, yield_value, check=check)
                placed.append(node)
        except InfeasibleAllocationError:
            for node in placed:
                self.remove_task(node, cpu_need, mem_requirement, yield_value)
            raise


def greedy_place_job(view: JobView, usage: ReferenceUsage) -> Optional[List[int]]:
    placed: List[int] = []
    for _ in range(view.num_tasks):
        node = usage.least_loaded_fitting(view.mem_requirement)
        if node < 0:
            # Task-by-task removal, not a restore: later tie-breaks see the
            # (a + b) - b rounding this leaves, and the pinned placement logs
            # were produced with it.
            for node in placed:
                usage.remove_task(node, view.cpu_need, view.mem_requirement, 0.0)
            return None
        usage.add_task(node, view.cpu_need, view.mem_requirement, 0.0)
        placed.append(node)
    return placed


def usage_from_placements(
    placements: Mapping[int, Tuple[int, ...]],
    jobs: Mapping[int, JobView],
    cluster,
    *,
    unavailable: Iterable[int] = (),
) -> ClusterUsage:
    usage = ReferenceUsage(cluster, unavailable)
    for job_id, nodes in placements.items():
        view = jobs[job_id]
        for node in nodes:
            usage.add_task(node, view.cpu_need, view.mem_requirement, 0.0, check=False)
    return usage


def validate_decision(
    decision: AllocationDecision,
    specs: Mapping[int, JobSpec],
    cluster: Cluster,
    *,
    usage: Optional[ClusterUsage] = None,
) -> ClusterUsage:
    tally = usage if usage is not None else ReferenceUsage(cluster)
    for job_id, alloc in decision.running.items():
        if job_id not in specs:
            raise AllocationError(f"decision references unknown job {job_id}")
        spec = specs[job_id]
        if len(alloc.nodes) != spec.num_tasks:
            raise AllocationError(
                f"job {job_id}: allocation places {len(alloc.nodes)} tasks but "
                f"the job has {spec.num_tasks}"
            )
        for node in alloc.nodes:
            if not (0 <= node < cluster.num_nodes):
                raise AllocationError(
                    f"job {job_id}: node index {node} out of range "
                    f"[0, {cluster.num_nodes})"
                )
        try:
            tally.add_job(
                alloc.nodes, spec.cpu_need, spec.mem_requirement, alloc.yield_value
            )
        except InfeasibleAllocationError as exc:
            raise InfeasibleAllocationError(f"job {job_id}: {exc}") from exc
    return tally
