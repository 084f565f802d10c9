"""Core simulation substrate: cluster model, jobs, allocations, engine, records."""

from .allocation import AllocationDecision, JobAllocation, validate_decision
from .clock import Clock, SimulatedClock, WallClock
from .cluster import CAPACITY_EPSILON, Cluster, ClusterUsage
from .context import JobView, SchedulingContext
from .engine import EngineLoad, SimulationConfig, Simulator
from .events import Event, EventQueue, EventType
from .job import MINIMUM_YIELD, Job, JobSpec, JobState
from .invariants import InvariantCheckingObserver
from .observers import (
    AvailabilityRecorder,
    SimEvent,
    SimulationObserver,
    UtilizationRecorder,
    UtilizationSample,
)
from .penalties import FIVE_MINUTE_PENALTY, NO_PENALTY, ReschedulingPenaltyModel
from .records import CostSummary, JobRecord, SimulationResult

__all__ = [
    "AllocationDecision",
    "JobAllocation",
    "validate_decision",
    "CAPACITY_EPSILON",
    "Clock",
    "SimulatedClock",
    "WallClock",
    "Cluster",
    "ClusterUsage",
    "JobView",
    "SchedulingContext",
    "EngineLoad",
    "SimulationConfig",
    "Simulator",
    "Event",
    "EventQueue",
    "EventType",
    "MINIMUM_YIELD",
    "Job",
    "JobSpec",
    "JobState",
    "InvariantCheckingObserver",
    "AvailabilityRecorder",
    "SimEvent",
    "SimulationObserver",
    "UtilizationRecorder",
    "UtilizationSample",
    "FIVE_MINUTE_PENALTY",
    "NO_PENALTY",
    "ReschedulingPenaltyModel",
    "CostSummary",
    "JobRecord",
    "SimulationResult",
]
