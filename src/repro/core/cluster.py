"""Cluster model: homogeneous by default, per-node capacities when needed.

The paper (§II-B1) targets a homogeneous cluster with a switched interconnect
and network-attached storage.  Every node exposes two resource dimensions:

* **CPU** — an arbitrarily divisible resource normalised to 1.0 per node.  A
  multi-core node is treated as a single fluid CPU resource (the Xen credit
  scheduler abstraction, §II-A); oversubscription of *needs* is allowed but
  the sum of *allocated* fractions must stay within the node's capacity.
* **Memory** — normalised to 1.0 per node; the sum of the memory requirements
  of the tasks placed on a node must never exceed its capacity (no swapping,
  §II-B1).

:mod:`repro.platform` extends this model to heterogeneous clusters: a
:class:`Cluster` may carry optional per-node capacity vectors
(``cpu_capacities`` — relative node speed, ``mem_capacities`` — relative
memory size, both expressed against the 1.0 reference node).  ``None`` (and
all-ones vectors, which are canonicalised to ``None``) means the paper's
homogeneous cluster, and every capacity-aware code path then reduces to the
exact arithmetic of the original model — the homogeneous default stays
byte-identical.

:class:`Cluster` is a small immutable description; :class:`ClusterUsage` is a
mutable tally used by the engine and the schedulers to validate and construct
allocations.  A usage tally may additionally mark nodes *unavailable* (down
under a :mod:`repro.platform` failure trace): unavailable nodes refuse
placements and are never candidates for the least-loaded node choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import AllocationError, ConfigurationError, InfeasibleAllocationError

__all__ = ["Cluster", "ClusterUsage", "CAPACITY_EPSILON", "PAPER_CLUSTER"]

#: Tolerance used when checking capacity constraints, to absorb the
#: floating-point error accumulated by yield binary searches.
CAPACITY_EPSILON = 1e-6

#: Smallest list of tasks :meth:`ClusterUsage.add_jobs` tallies with
#: ``np.add.at`` rather than its scalar loop.  On 128 nodes (2-vCPU x86-64,
#: CPython 3.11, numpy 2.4) the vector pass costs ~20 µs plus ~0.08 µs a
#: task and the loop ~0.4 µs a task: they cross at 50–65 tasks.
BULK_MIN_TASKS = 64


def _canonical_capacities(
    values: Optional[Sequence[float]], num_nodes: int, label: str
) -> Optional[Tuple[float, ...]]:
    """Validate and canonicalise a per-node capacity vector.

    All-ones vectors collapse to ``None`` so that an explicitly homogeneous
    cluster is *the same object shape* (equality, hash, spec dictionary) as a
    plain one — which is what keeps the homogeneous platform byte-identical
    to the legacy ``Cluster`` path everywhere.
    """
    if values is None:
        return None
    capacities = tuple(float(value) for value in values)
    if len(capacities) != num_nodes:
        raise ConfigurationError(
            f"{label} must list one capacity per node "
            f"({num_nodes}), got {len(capacities)}"
        )
    for node, value in enumerate(capacities):
        if not value > 0.0:
            raise ConfigurationError(
                f"{label}[{node}] must be > 0, got {value}"
            )
    if all(value == 1.0 for value in capacities):
        return None
    return capacities


@dataclass(frozen=True)
class Cluster:
    """Description of a cluster, homogeneous unless capacity vectors are set.

    Parameters
    ----------
    num_nodes:
        Number of physical nodes.
    cores_per_node:
        Number of cores per (reference) node.  Only used by workload
        annotation (a sequential task can use at most ``1/cores_per_node`` of
        the node CPU) and by reporting; the scheduling model treats the CPU
        as fluid.
    node_memory_gb:
        Physical memory of the capacity-1.0 reference node in GB, used to
        convert memory fractions into bytes for the preemption/migration
        bandwidth accounting of Table II.
    cpu_capacities:
        Optional per-node CPU capacity (relative node speed): a node of
        capacity 2.0 can host twice the allocated CPU fraction of the
        reference node.  ``None`` (or all ones) means homogeneous.
    mem_capacities:
        Optional per-node memory capacity relative to the reference node.
        ``None`` (or all ones) means homogeneous.
    """

    num_nodes: int
    cores_per_node: int = 4
    node_memory_gb: float = 8.0
    cpu_capacities: Optional[Tuple[float, ...]] = None
    mem_capacities: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.cores_per_node < 1:
            raise ConfigurationError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.node_memory_gb <= 0:
            raise ConfigurationError(
                f"node_memory_gb must be > 0, got {self.node_memory_gb}"
            )
        object.__setattr__(
            self,
            "cpu_capacities",
            _canonical_capacities(self.cpu_capacities, self.num_nodes, "cpu_capacities"),
        )
        object.__setattr__(
            self,
            "mem_capacities",
            _canonical_capacities(self.mem_capacities, self.num_nodes, "mem_capacities"),
        )

    @property
    def node_ids(self) -> range:
        """Iterable of valid node indices."""
        return range(self.num_nodes)

    @property
    def is_heterogeneous(self) -> bool:
        """True when some node differs from the 1.0 × 1.0 reference node."""
        return self.cpu_capacities is not None or self.mem_capacities is not None

    def cpu_capacity(self, node: int) -> float:
        """CPU capacity (relative speed) of ``node``; 1.0 when homogeneous."""
        return 1.0 if self.cpu_capacities is None else self.cpu_capacities[node]

    def mem_capacity(self, node: int) -> float:
        """Memory capacity of ``node`` relative to the reference node."""
        return 1.0 if self.mem_capacities is None else self.mem_capacities[node]

    def cpu_capacity_vector(self) -> np.ndarray:
        """Per-node CPU capacities as an array (ones when homogeneous)."""
        if self.cpu_capacities is None:
            return np.ones(self.num_nodes, dtype=float)
        return np.array(self.cpu_capacities, dtype=float)

    def total_cpu_capacity(self) -> float:
        """Sum of per-node CPU capacities (``num_nodes`` when homogeneous)."""
        if self.cpu_capacities is None:
            return float(self.num_nodes)
        return float(sum(self.cpu_capacities))

    def total_mem_capacity(self) -> float:
        """Sum of per-node memory capacities (``num_nodes`` when homogeneous)."""
        if self.mem_capacities is None:
            return float(self.num_nodes)
        return float(sum(self.mem_capacities))

    def node_capacities(self) -> Tuple[Tuple[float, float], ...]:
        """Per-node ``(cpu, memory)`` capacity pairs (for vector packing)."""
        return tuple(
            (self.cpu_capacity(node), self.mem_capacity(node))
            for node in range(self.num_nodes)
        )

    def sequential_cpu_need(self) -> float:
        """CPU need of a CPU-bound sequential task on this cluster (§IV-C)."""
        return 1.0 / self.cores_per_node

    def usage(self, unavailable: Iterable[int] = ()) -> "ClusterUsage":
        """Return a fresh, empty usage tally for this cluster.

        ``unavailable`` marks nodes that are currently down (see
        :mod:`repro.platform`): they refuse placements and are never
        placement candidates.
        """
        return ClusterUsage(self, unavailable)


#: The paper's synthetic-trace cluster: 128 quad-core nodes of 8 GB.
PAPER_CLUSTER = Cluster(128, 4, 8.0)


def _node_down(node: int) -> InfeasibleAllocationError:
    return InfeasibleAllocationError(f"node {node} is unavailable (down)")


def _exceeded(node: int, what: str, used: float, extra: float) -> InfeasibleAllocationError:
    return InfeasibleAllocationError(
        f"node {node}: {what} {used:.4f} + {extra:.4f} exceeds capacity"
    )


class ClusterUsage:
    """Mutable per-node CPU and memory usage tally.

    CPU usage is tracked both as *allocated fraction* (needs × yield, which
    must stay within the node's CPU capacity) and as *load* (sum of CPU
    needs, which may exceed capacity and is the quantity Λ used by the
    GREEDY yield rule; on heterogeneous clusters Λ is normalised by node
    speed).
    """

    __slots__ = (
        "cluster",
        "_cpu_alloc",
        "_cpu_load",
        "_memory",
        "_tasks",
        "_cpu_cap",
        "_mem_cap",
        "_down",
        "_views",
    )

    def __init__(self, cluster: Cluster, unavailable: Iterable[int] = ()) -> None:
        self.cluster = cluster
        n = cluster.num_nodes
        self._cpu_alloc = np.zeros(n, dtype=float)
        self._cpu_load = np.zeros(n, dtype=float)
        self._memory = np.zeros(n, dtype=float)
        self._tasks = np.zeros(n, dtype=int)
        # None on the homogeneous path: capacity checks then use the literal
        # 1.0 constants of the original model (identical float arithmetic).
        self._cpu_cap = (
            None
            if cluster.cpu_capacities is None
            else np.array(cluster.cpu_capacities, dtype=float)
        )
        self._mem_cap = (
            None
            if cluster.mem_capacities is None
            else np.array(cluster.mem_capacities, dtype=float)
        )
        self._set_down(unavailable)
        # Scalar access goes through memoryviews of the arrays' own buffers:
        # the same doubles as Python floats, without numpy's scalar boxing,
        # so the vector operations see every write.  The arrays are only ever
        # assigned in place (``copy_from``), which keeps the views valid.
        self._views = self._vector_views() + (
            None if self._mem_cap is None else self._mem_cap.data,
            None if self._cpu_cap is None else self._cpu_cap.data,
        )

    def _vector_views(self) -> tuple:
        return (self._memory.data, self._cpu_alloc.data, self._cpu_load.data, self._tasks.data)

    def _set_down(self, nodes: Iterable[int]) -> None:
        """Mark ``nodes`` down (None when every node is up)."""
        down = frozenset(int(node) for node in nodes)
        self._down: Optional[FrozenSet[int]] = down or None

    # -- inspection -----------------------------------------------------------
    def cpu_allocated(self, node: int) -> float:
        """Sum of allocated CPU fractions on ``node``."""
        return float(self._cpu_alloc[node])

    def cpu_load(self, node: int) -> float:
        """Sum of CPU *needs* of the tasks placed on ``node`` (may exceed 1)."""
        return float(self._cpu_load[node])

    def memory_used(self, node: int) -> float:
        """Sum of memory requirements of the tasks placed on ``node``."""
        return float(self._memory[node])

    def cpu_capacity(self, node: int) -> float:
        """CPU capacity of ``node`` (1.0 on homogeneous clusters)."""
        return 1.0 if self._cpu_cap is None else float(self._cpu_cap[node])

    def mem_capacity(self, node: int) -> float:
        """Memory capacity of ``node`` (1.0 on homogeneous clusters)."""
        return 1.0 if self._mem_cap is None else float(self._mem_cap[node])

    def memory_free(self, node: int) -> float:
        """Remaining memory fraction on ``node``."""
        if self._mem_cap is None:
            return 1.0 - float(self._memory[node])
        return float(self._mem_cap[node]) - float(self._memory[node])

    def cpu_free(self, node: int) -> float:
        """Remaining allocatable CPU fraction on ``node``."""
        if self._cpu_cap is None:
            return 1.0 - float(self._cpu_alloc[node])
        return float(self._cpu_cap[node]) - float(self._cpu_alloc[node])

    def task_count(self, node: int) -> int:
        """Number of tasks currently placed on ``node``."""
        return int(self._tasks[node])

    def is_available(self, node: int) -> bool:
        """False when ``node`` is marked down (see :meth:`set_unavailable`)."""
        return self._down is None or node not in self._down

    def unavailable_nodes(self) -> FrozenSet[int]:
        """The set of nodes currently marked down."""
        return self._down or frozenset()

    def set_unavailable(self, nodes: Iterable[int]) -> None:
        """Mark ``nodes`` as down (replaces any previous mark)."""
        self._set_down(nodes)

    def max_cpu_load(self) -> float:
        """Maximum CPU load over all nodes (Λ in the GREEDY yield rule).

        On heterogeneous clusters the load of each node is normalised by its
        CPU capacity, so Λ stays "load per unit of reference CPU".
        """
        if not self.cluster.num_nodes:
            return 0.0
        if self._cpu_cap is None:
            return float(self._cpu_load.max())
        return float((self._cpu_load / self._cpu_cap).max())

    def busy_nodes(self) -> int:
        """Number of nodes hosting at least one task."""
        return int(np.count_nonzero(self._tasks))

    def idle_nodes(self) -> int:
        """Number of nodes hosting no task (candidates for power-down)."""
        return self.cluster.num_nodes - self.busy_nodes()

    def memory_vector(self) -> np.ndarray:
        """Copy of the per-node memory usage vector."""
        return self._memory.copy()

    def cpu_load_vector(self) -> np.ndarray:
        """Copy of the per-node CPU load (sum of needs) vector."""
        return self._cpu_load.copy()

    def cpu_alloc_vector(self) -> np.ndarray:
        """Copy of the per-node allocated CPU fraction vector."""
        return self._cpu_alloc.copy()

    def task_vector(self) -> np.ndarray:
        """Copy of the per-node task count vector."""
        return self._tasks.copy()

    # -- placement queries ---------------------------------------------------
    def _memory_fits(self, memory: np.ndarray, mem_requirement: float) -> np.ndarray:
        """Mask of available nodes whose ``memory`` leaves room for one task.

        The elementwise float64 ``+`` and ``<=`` are the very operations
        :meth:`add_task` checks per node, so the mask and the checked commit
        can never disagree.
        """
        limit = 1.0 if self._mem_cap is None else self._mem_cap
        fits = memory + mem_requirement <= limit + CAPACITY_EPSILON
        if self._down is not None:
            fits[sorted(self._down)] = False
        return fits

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

        A placement that cannot succeed places nothing: with fewer fitting
        nodes than tasks, :meth:`_write_failed_placement` counts their slots
        and, when they fall short, writes what placing and removing task by
        task would leave.
        """
        fits = self._memory_fits(self._memory, mem_requirement)
        fitting = fits.nonzero()[0]
        if len(fitting) < num_tasks and self._write_failed_placement(
            fitting.tolist(), num_tasks, cpu_need, mem_requirement
        ):
            return None
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
                self.remove_tasks(placed, cpu_need, mem_requirement, 0.0)
                return None
            self.add_task(node, cpu_need, mem_requirement, 0.0)
            placed.append(node)
            limit = 1.0 if mem_cap is None else mem_cap[node]
            if memory[node] + mem_requirement <= limit + CAPACITY_EPSILON:
                key[node] = cpu_load[node] if cpu_cap is None else cpu_load[node] / cpu_cap[node]
            else:
                fit[node], key[node] = False, np.inf
        return placed

    def _write_failed_placement(
        self, nodes: List[int], num_tasks: int, cpu_need: float, mem_requirement: float
    ) -> bool:
        """Write the tally a failing :meth:`place_least_loaded` leaves and
        return True; or write nothing and return False when the placement
        could succeed or must go task by task.

        ``nodes`` are the fitting nodes in index order.  A node's *slots* are
        counted with the placement's own test, ``memory + mem_requirement <=
        limit + CAPACITY_EPSILON`` on the sequential sums (the additions
        :meth:`memory_slots` makes), until they reach ``num_tasks``.  Why
        writing the residue directly is exact:

        * The placement fails exactly when the fitting nodes hold fewer slots
          than ``num_tasks``: each task takes one slot.
        * When it fails it has filled every slot first: ``argmin`` reaches an
          ``inf`` key only once every fitting node is full.  That needs each
          key of a node with a slot left to be finite; a node whose key
          would be infinite first makes the placement go task by task.
        * A node's four values depend only on its own ``k`` additions
          (:meth:`add_task` at yield 0) followed by its ``k`` removals
          (:meth:`remove_task`, each with its three clamps).  The placed list
          interleaves nodes, but never reorders one node's own steps.  The
          task count goes up ``k`` and down ``k``, so it is not written.

        :meth:`add_task` refuses a node whose CPU allocation already exceeds
        its limit (a yield-0 task adds nothing to it, so the first task
        decides).  A failing placement visits every fitting node, so if one is
        in that state the placement goes task by task and raises the same
        error after the same partial tally.
        """
        memory, cpu_alloc, cpu_load, _, mem_cap, cpu_cap = self._views
        cpu_fraction = cpu_need * 0.0
        slots: List[Tuple[int, int, float, float, float]] = []
        room = num_tasks
        for node in nodes:
            speed = 1.0 if cpu_cap is None else cpu_cap[node]
            used, allocated, load = memory[node], cpu_alloc[node], cpu_load[node]
            if allocated + cpu_fraction > speed + CAPACITY_EPSILON:
                return False
            limit = (1.0 if mem_cap is None else mem_cap[node]) + CAPACITY_EPSILON
            count = 0
            while used + mem_requirement <= limit:
                if math.isinf(load / speed):
                    return False
                used += mem_requirement
                allocated += cpu_fraction
                load += cpu_need
                count += 1
                room -= 1
                if not room:
                    return False
            slots.append((node, count, used, allocated, load))
        for node, count, used, allocated, load in slots:
            for _ in range(count):
                used -= mem_requirement
                allocated -= cpu_fraction
                load -= cpu_need
                if -1e-9 < used < 0.0:
                    used = 0.0
                if -1e-9 < allocated < 0.0:
                    allocated = 0.0
                if -1e-9 < load < 0.0:
                    load = 0.0
            memory[node], cpu_alloc[node], cpu_load[node] = used, allocated, load
        return True

    def memory_slots(self, mem_requirement: float, limit: int) -> int:
        """How many tasks of ``mem_requirement`` the available nodes can
        still take, counted up to ``limit``.

        Whether a job fits depends on memory alone (CPU load only orders the
        candidates), so this answers "would placing ``limit`` tasks succeed?"
        without placing anything.  Slots are counted with the same sequential
        float additions a real placement performs on each node, which keeps
        the answer exact at the capacity boundary.
        """
        memory = self._memory.copy()
        count = 0
        while count < limit:
            fits = self._memory_fits(memory, mem_requirement)
            fitting = int(np.count_nonzero(fits))
            if not fitting:
                break
            if mem_requirement <= 0.0:
                return limit
            count += fitting
            memory[fits] += mem_requirement
        return min(count, limit)

    # -- mutation -------------------------------------------------------------
    def _out_of_range(self, nodes: Iterable[int]) -> AllocationError:
        n = self.cluster.num_nodes
        node = next(node for node in nodes if not 0 <= node < n)
        return AllocationError(f"node index {node} out of range [0, {n})")

    def add_task(
        self,
        node: int,
        cpu_need: float,
        mem_requirement: float,
        yield_value: float,
        *,
        check: bool = True,
    ) -> None:
        """Place one task on ``node``.

        With ``check=True`` (default) the memory and allocated-CPU capacity
        constraints (and node availability) are enforced and
        :class:`InfeasibleAllocationError` is raised on violation.  A node
        index outside the cluster raises :class:`AllocationError` either way.
        """
        if not 0 <= node < self.cluster.num_nodes:
            raise self._out_of_range((node,))
        memory, cpu_alloc, cpu_load, tasks, mem_cap, cpu_cap = self._views
        cpu_fraction = cpu_need * yield_value
        new_memory = memory[node] + mem_requirement
        new_cpu_alloc = cpu_alloc[node] + cpu_fraction
        if check:
            if self._down is not None and node in self._down:
                raise _node_down(node)
            mem_limit = 1.0 if mem_cap is None else mem_cap[node]
            if new_memory > mem_limit + CAPACITY_EPSILON:
                raise _exceeded(node, "memory", memory[node], mem_requirement)
            cpu_limit = 1.0 if cpu_cap is None else cpu_cap[node]
            if new_cpu_alloc > cpu_limit + CAPACITY_EPSILON:
                raise _exceeded(node, "CPU allocation", cpu_alloc[node], cpu_fraction)
        memory[node] = new_memory
        cpu_alloc[node] = new_cpu_alloc
        cpu_load[node] += cpu_need
        tasks[node] += 1

    def add_jobs(
        self,
        entries: Iterable[Tuple[Sequence[int], float, float, float]],
        *,
        check: bool = True,
    ) -> None:
        """Place the tasks of many jobs: :meth:`add_task` for every node of
        every ``(nodes, cpu_need, mem_requirement, yield_value)`` entry, in
        the order given, as one loop.

        Every test :meth:`add_task` makes is made here per task, before that
        task is stored, on the same operands — so the tally, the first task
        refused and the error text are those of the task-by-task calls.  Node
        indices are range-checked per entry, before any of its tasks is
        stored.  Tasks stored before an error stay stored.

        A list of at least :data:`BULK_MIN_TASKS` tasks is first tried as one
        vector pass (:meth:`_add_bulk`), which refuses whatever the loop
        would; the loop then runs, so errors and partial tallies are its own.
        """
        if isinstance(entries, list) and self._add_bulk(entries, check):
            return
        memory, cpu_alloc, cpu_load, tasks, mem_cap, cpu_cap = self._views
        down = self._down
        num_nodes = self.cluster.num_nodes
        mem_limit = cpu_limit = 1.0 + CAPACITY_EPSILON
        for nodes, cpu_need, mem_requirement, yield_value in entries:
            if nodes and (min(nodes) < 0 or max(nodes) >= num_nodes):
                raise self._out_of_range(nodes)
            cpu_fraction = cpu_need * yield_value
            for node in nodes:
                new_memory = memory[node] + mem_requirement
                new_cpu_alloc = cpu_alloc[node] + cpu_fraction
                if check:
                    if down is not None and node in down:
                        raise _node_down(node)
                    if mem_cap is not None:
                        mem_limit = mem_cap[node] + CAPACITY_EPSILON
                    if new_memory > mem_limit:
                        raise _exceeded(node, "memory", memory[node], mem_requirement)
                    if cpu_cap is not None:
                        cpu_limit = cpu_cap[node] + CAPACITY_EPSILON
                    if new_cpu_alloc > cpu_limit:
                        raise _exceeded(node, "CPU allocation", cpu_alloc[node], cpu_fraction)
                memory[node] = new_memory
                cpu_alloc[node] = new_cpu_alloc
                cpu_load[node] += cpu_need
                tasks[node] += 1

    def _add_bulk(self, entries: List[Tuple[Sequence[int], float, float, float]], check: bool) -> bool:
        """Tally ``entries`` with ``np.add.at`` and return True, or store
        nothing and return False: too few tasks, a node out of range, or
        (``check``) a task the loop would refuse.

        ``np.add.at`` adds unbuffered, in index order: each node sees the
        loop's additions in the loop's order, the same bits from any tally.
        With non-negative addends a node's partial sums never decrease, so
        its final sum is within the limit exactly when every per-task check
        along the way passes.
        """
        counts = [len(entry[0]) for entry in entries]
        total = sum(counts)
        if total < BULK_MIN_TASKS or not total:
            return False
        nodes_per_job, *values = zip(*entries)
        nodes = np.fromiter(chain.from_iterable(nodes_per_job), np.intp, total)
        if nodes.min() < 0 or nodes.max() >= self.cluster.num_nodes:
            return False
        # One row per addend, one column per job: CPU need, memory, and the
        # CPU fraction ``cpu_need * yield_value`` — the loop's own product.
        columns = np.array(values, dtype=float)
        columns[2] *= columns[0]
        if check and not columns[1:].min() >= 0.0:  # a negative addend, or NaN
            return False
        cpu, memory, fraction = np.repeat(columns, counts, axis=1)
        new_memory, new_alloc = self._memory.copy(), self._cpu_alloc.copy()
        np.add.at(new_memory, nodes, memory)
        np.add.at(new_alloc, nodes, fraction)
        if check:
            mem_limit = 1.0 if self._mem_cap is None else self._mem_cap
            cpu_limit = 1.0 if self._cpu_cap is None else self._cpu_cap
            refused = new_memory > mem_limit + CAPACITY_EPSILON
            refused |= new_alloc > cpu_limit + CAPACITY_EPSILON
            if self._down is not None:
                refused[sorted(self._down)] = True
            if refused[nodes].any():
                return False
        self._memory[:], self._cpu_alloc[:] = new_memory, new_alloc
        np.add.at(self._cpu_load, nodes, cpu)
        np.add.at(self._tasks, nodes, 1)
        return True

    def remove_task(
        self, node: int, cpu_need: float, mem_requirement: float, yield_value: float
    ) -> None:
        """Remove one previously placed task from ``node``; a node hosting no
        task refuses before anything is debited."""
        self.remove_tasks((node,), cpu_need, mem_requirement, yield_value)

    def remove_tasks(
        self, nodes: Iterable[int], cpu_need: float, mem_requirement: float, yield_value: float
    ) -> None:
        """:meth:`remove_task` for each of ``nodes`` in order, as one loop.

        Each task is range-checked and refused on a node hosting no task
        before it is debited, so a refusal leaves the earlier tasks removed,
        as the task-by-task calls would.
        """
        memory, cpu_alloc, cpu_load, tasks, _, _ = self._views
        num_nodes = self.cluster.num_nodes
        cpu_fraction = cpu_need * yield_value
        for node in nodes:
            if not 0 <= node < num_nodes:
                raise self._out_of_range((node,))
            if tasks[node] < 1:
                raise InfeasibleAllocationError(
                    f"node {node}: removed more tasks than were placed"
                )
            memory[node] -= mem_requirement
            cpu_alloc[node] -= cpu_fraction
            cpu_load[node] -= cpu_need
            tasks[node] -= 1
            # Clamp tiny negative residues from floating point arithmetic.
            if -1e-9 < memory[node] < 0.0:
                memory[node] = 0.0
            if -1e-9 < cpu_alloc[node] < 0.0:
                cpu_alloc[node] = 0.0
            if -1e-9 < cpu_load[node] < 0.0:
                cpu_load[node] = 0.0

    def add_job(
        self,
        assignment: Sequence[int],
        cpu_need: float,
        mem_requirement: float,
        yield_value: float,
        *,
        check: bool = True,
    ) -> None:
        """Place all tasks of a job according to ``assignment``, or none."""
        nodes = tuple(assignment)
        before = self._tasks.sum()
        try:
            self.add_jobs(((nodes, cpu_need, mem_requirement, yield_value),), check=check)
        except BaseException:
            self.remove_tasks(
                nodes[: self._tasks.sum() - before], cpu_need, mem_requirement, yield_value
            )
            raise

    def snapshot(self) -> "ClusterUsage":
        """Deep copy of this usage tally (the capacity vectors, which nothing
        writes, are shared)."""
        clone = ClusterUsage.__new__(ClusterUsage)
        clone.cluster, clone._down = self.cluster, self._down
        clone._cpu_cap, clone._mem_cap = self._cpu_cap, self._mem_cap
        clone._memory, clone._cpu_alloc = self._memory.copy(), self._cpu_alloc.copy()
        clone._cpu_load, clone._tasks = self._cpu_load.copy(), self._tasks.copy()
        clone._views = clone._vector_views() + self._views[4:]
        return clone

    def copy_from(self, other: "ClusterUsage") -> None:
        """Overwrite this tally with ``other``'s (same cluster) in place."""
        self._cpu_alloc[:] = other._cpu_alloc
        self._cpu_load[:] = other._cpu_load
        self._memory[:] = other._memory
        self._tasks[:] = other._tasks
        self._down = other._down
