"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.cluster import Cluster
from repro.core.job import JobSpec
from repro.traces import LublinWorkloadGenerator, Workload

# Hypothesis profiles, inherited by every property test that does not pin its
# own settings.  ``default`` is what tier-1 runs: derandomized, so it draws the
# same examples on every checkout and neither reads nor writes ``.hypothesis/``
# (a counter-example belongs in the test as an ``@example``).  ``ci`` is the
# longer, random run selected with ``pytest --hypothesis-profile=ci``; a
# failure there prints the blob that reproduces it.  Neither sets a deadline:
# shared CI boxes swing too much for a per-example wall-clock limit.
settings.register_profile(
    "default", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.register_profile("ci", max_examples=1000, deadline=None, print_blob=True)
settings.load_profile("default")


@pytest.fixture
def small_cluster() -> Cluster:
    """An 8-node quad-core cluster used by most unit tests."""
    return Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)


@pytest.fixture
def tiny_cluster() -> Cluster:
    """A 4-node cluster for hand-constructed scheduling scenarios."""
    return Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)


@pytest.fixture
def small_workload(small_cluster: Cluster) -> Workload:
    """A deterministic 30-job synthetic workload."""
    generator = LublinWorkloadGenerator(small_cluster)
    return generator.generate(30, seed=42)


def make_job(
    job_id: int,
    *,
    submit: float = 0.0,
    tasks: int = 1,
    cpu: float = 1.0,
    mem: float = 0.1,
    runtime: float = 100.0,
) -> JobSpec:
    """Terse JobSpec constructor for hand-written scenarios."""
    return JobSpec(
        job_id=job_id,
        submit_time=submit,
        num_tasks=tasks,
        cpu_need=cpu,
        mem_requirement=mem,
        execution_time=runtime,
    )


def least_loaded(usage, mem_requirement: float) -> int:
    """The node GREEDY would give one task of ``mem_requirement``, else -1.

    The task is placed on a snapshot, so ``usage`` is not touched."""
    placed = usage.snapshot().place_least_loaded(1, 0.0, mem_requirement)
    return -1 if placed is None else placed[0]
