"""Admission-control policies for the online serving layer.

Under overload a service must decide *before* the scheduler ever sees a job
whether to take it at all.  An :class:`AdmissionPolicy` is a pure decision
function ``(spec, load) -> AdmissionDecision`` evaluated at submission time
against a :class:`ServiceLoad` snapshot; it never mutates service or engine
state.  Policies follow the project's registered-component pattern (see
``repro/traces/source.py`` and CONTRIBUTING.md): a stable ``kind``,
canonical ``to_dict``/``from_dict`` through :func:`admission_policy_from_dict`,
and REG601/registry-completeness coverage for free.

The built-in family:

* ``accept-all`` — the transparent default; byte-identical replay.
* ``bounded-queue`` — cap the number of *pending* (admitted, never started)
  jobs; ``mode="reject"`` turns new arrivals away, ``mode="shed"`` admits
  them and sheds the oldest pending job instead (newest-wins).
* ``load-threshold`` — reject while the offered CPU load (active demand over
  cluster capacity) is at or above a threshold.
* ``token-bucket`` — classic rate limiter over *simulated* time: sustained
  ``rate`` admissions/second with bursts up to ``burst``.

Policies with internal state (the token bucket) expose :meth:`reset`; the
service calls it once per run so replays are reproducible.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.job import JobSpec
from ..exceptions import ConfigurationError
from ..registry import Registry

__all__ = [
    "ServiceLoad",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AcceptAllPolicy",
    "BoundedQueuePolicy",
    "LoadThresholdPolicy",
    "TokenBucketPolicy",
    "register_admission_policy",
    "admission_policy_from_dict",
    "available_admission_policies",
]


@dataclass(frozen=True)
class ServiceLoad:
    """Snapshot of the service state a policy may consult.

    Built by the service at each submission; policies must treat it as
    read-only and derive decisions from it alone (plus their own state), so
    admission is a deterministic function of the submission stream.
    """

    #: Simulated time of the submission.
    time: float
    #: Jobs admitted but never yet started (the scheduler's backlog).
    pending_jobs: int
    #: Jobs currently holding an allocation.
    running_jobs: int
    #: All live jobs (pending + running + paused).
    active_jobs: int
    #: Total CPU demand of live jobs over total cluster CPU capacity.
    offered_cpu_load: float
    #: Oldest pending job (by submit time, then id); the shed victim.
    oldest_pending_job_id: Optional[int] = None


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    accepted: bool
    #: Short machine-readable cause (``"queue-full"``, ``"rate-limited"``…).
    reason: str = ""
    #: Already-admitted jobs the service must cancel to make room (shed).
    shed_job_ids: Tuple[int, ...] = ()


class AdmissionPolicy(abc.ABC):
    """Decide, per submission, whether the service takes the job."""

    kind: str = "abstract"
    #: False for programmatic-only policies exempt from the registry
    #: contract (mirrors :class:`repro.traces.JobSource`).
    spec_expressible: bool = True

    @abc.abstractmethod
    def admit(self, spec: JobSpec, load: ServiceLoad) -> AdmissionDecision:
        """Evaluate one submission against the current load."""

    def reset(self) -> None:
        """Clear per-run state (stateful policies override)."""

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (with a ``type`` field)."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
ADMISSION_POLICIES: Registry[AdmissionPolicy] = Registry(
    "admission policy", base=AdmissionPolicy
)
register_admission_policy = ADMISSION_POLICIES.register
available_admission_policies = ADMISSION_POLICIES.available
admission_policy_from_dict = ADMISSION_POLICIES.from_dict


# --------------------------------------------------------------------------- #
# Built-in policies                                                            #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AcceptAllPolicy(AdmissionPolicy):
    """Admit everything — the transparent default.

    With this policy in front, replaying a trace through the service is
    byte-identical to feeding it straight into ``Simulator.run_stream``.
    """

    kind = "accept-all"

    def admit(self, spec: JobSpec, load: ServiceLoad) -> AdmissionDecision:
        return AdmissionDecision(accepted=True)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind}


@dataclass(frozen=True)
class BoundedQueuePolicy(AdmissionPolicy):
    """Cap the scheduler backlog at ``max_pending`` never-started jobs.

    ``mode="reject"`` refuses the new arrival when the queue is full;
    ``mode="shed"`` admits it and sheds the *oldest* pending job instead
    (newest-wins — fresh work displaces work that has waited longest and is
    the likeliest to miss its latency objective anyway).
    """

    max_pending: int = 64
    mode: str = "reject"

    kind = "bounded-queue"

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.mode not in ("reject", "shed"):
            raise ConfigurationError(
                f"mode must be 'reject' or 'shed', got {self.mode!r}"
            )

    def admit(self, spec: JobSpec, load: ServiceLoad) -> AdmissionDecision:
        if load.pending_jobs < self.max_pending:
            return AdmissionDecision(accepted=True)
        if self.mode == "reject":
            return AdmissionDecision(accepted=False, reason="queue-full")
        victim = load.oldest_pending_job_id
        return AdmissionDecision(
            accepted=True,
            reason="shed-oldest",
            shed_job_ids=(victim,) if victim is not None else (),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "max_pending": self.max_pending, "mode": self.mode}


@dataclass(frozen=True)
class LoadThresholdPolicy(AdmissionPolicy):
    """Reject while the offered CPU load is at or above ``max_load``.

    Offered load is the total CPU need of live jobs over the cluster's total
    CPU capacity — 1.0 means the live demand exactly fills the machine.
    """

    max_load: float = 1.0

    kind = "load-threshold"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_load) and self.max_load > 0.0):
            raise ConfigurationError(
                f"max_load must be finite and > 0, got {self.max_load}"
            )

    def admit(self, spec: JobSpec, load: ServiceLoad) -> AdmissionDecision:
        if load.offered_cpu_load >= self.max_load:
            return AdmissionDecision(accepted=False, reason="overload")
        return AdmissionDecision(accepted=True)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "max_load": self.max_load}


@dataclass
class TokenBucketPolicy(AdmissionPolicy):
    """Token-bucket rate limiter over simulated time.

    The bucket starts full at ``burst`` tokens and refills continuously at
    ``rate`` tokens per simulated second; each admission spends one token.
    Spec fields (``rate``, ``burst``) serialize; bucket state does not — it
    is per-run and cleared by :meth:`reset`, so replays are reproducible.
    """

    rate: float = 1.0
    burst: float = 10.0

    kind = "token-bucket"
    _tokens: float = field(init=False, repr=False, compare=False, default=0.0)
    _last_time: Optional[float] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ConfigurationError(f"rate must be finite and > 0, got {self.rate}")
        if not (math.isfinite(self.burst) and self.burst >= 1.0):
            raise ConfigurationError(
                f"burst must be finite and >= 1, got {self.burst}"
            )
        self.reset()

    def reset(self) -> None:
        self._tokens = float(self.burst)
        self._last_time = None

    def admit(self, spec: JobSpec, load: ServiceLoad) -> AdmissionDecision:
        now = load.time
        if self._last_time is not None and now > self._last_time:
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._last_time) * self.rate
            )
        self._last_time = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return AdmissionDecision(accepted=True)
        return AdmissionDecision(accepted=False, reason="rate-limited")

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "rate": self.rate, "burst": self.burst}


register_admission_policy("accept-all", AcceptAllPolicy)
register_admission_policy("bounded-queue", BoundedQueuePolicy)
register_admission_policy("load-threshold", LoadThresholdPolicy)
register_admission_policy("token-bucket", TokenBucketPolicy)
