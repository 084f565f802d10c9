"""Execution-time models: how long jobs *actually* run vs. their trace time.

The paper treats each trace record's execution time as exact dedicated
work.  Real systems do not: runtimes drift with input data, interference,
and machine state.  An :class:`ExecutionTimeModel` is consulted once per
job at admission and returns a multiplier on the job's dedicated work —
``1.0`` reproduces the trace exactly, ``1.1`` makes the job 10 % longer
than its record.  Scheduler-visible *runtime estimates* stay at the nominal
trace value, so the models double as an inaccurate-estimates study: the
backfilling baselines plan with the trace time while the jobs actually run
for the scaled time.

The module mirrors the other subsystem seams: a small contract with a
canonical ``to_dict``/``from_dict`` spec form and a ``type``-dispatching
registry, usable from a scenario spec's ``models`` block (with ``{axis}``
sweep templating).

Three models are provided:

* ``exact`` — multiplier 1.0 for every job (the default; a scenario without
  a ``models`` block is byte-identical to one with
  ``{"execution_time": {"type": "exact"}}``).
* ``table`` — piecewise-constant multipliers keyed by the job's trace
  execution time (short jobs often mis-estimate worse than long ones).
* ``stochastic`` — seeded per-job uniform multipliers, deterministic in the
  job id alone so materialized, streaming, and replay paths agree.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..core.job import JobSpec
from ..exceptions import ConfigurationError
from ..registry import Registry

__all__ = [
    "ExecutionTimeModel",
    "ExactExecutionTimeModel",
    "TableExecutionTimeModel",
    "StochasticExecutionTimeModel",
    "register_execution_time_model",
    "execution_time_model_from_dict",
    "available_execution_time_models",
]


def _check_multiplier(label: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"{label} must be a finite multiplier > 0, got {value!r}"
        )
    return value


class ExecutionTimeModel:
    """Abstract runtime multiplier, applied by the engine at admission.

    Concrete models implement :meth:`execution_multiplier` and a canonical
    :meth:`to_dict`.  Models must be deterministic functions of the job spec
    alone (no admission-order state), so every execution path — materialized
    ``simulate``, ``run_stream``, and serve replay — scales each job
    identically.
    """

    kind: str = "abstract"
    #: True when ``to_dict()`` round-trips through
    #: :func:`execution_time_model_from_dict`.
    spec_expressible: bool = True

    def execution_multiplier(self, spec: JobSpec) -> float:
        """Multiplier on ``spec``'s dedicated work (> 0, finite)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dictionary (with a ``type`` field)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExactExecutionTimeModel(ExecutionTimeModel):
    """The trace is the truth: multiplier 1.0 for every job (the default)."""

    kind = "exact"

    def execution_multiplier(self, spec: JobSpec) -> float:
        return 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind}


@dataclass(frozen=True)
class TableExecutionTimeModel(ExecutionTimeModel):
    """Piecewise-constant multipliers keyed by trace execution time.

    ``breakpoints`` is a sequence of ``[upper_bound_seconds, multiplier]``
    pairs with strictly increasing bounds; a job takes the multiplier of
    the first bound its trace execution time does not exceed, and
    ``default`` past the last bound.  E.g. ``[[60, 1.5], [3600, 1.1]]``
    with ``default 1.0``: sub-minute jobs run 50 % long, sub-hour jobs
    10 % long, everything else exactly.
    """

    breakpoints: Tuple[Tuple[float, float], ...] = ()
    default: float = 1.0

    kind = "table"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "default", _check_multiplier("default", self.default)
        )
        checked: List[Tuple[float, float]] = []
        previous = -math.inf
        for entry in self.breakpoints:
            pair = tuple(entry)
            if len(pair) != 2:
                raise ConfigurationError(
                    "table breakpoints must be [upper_bound, multiplier] "
                    f"pairs, got {entry!r}"
                )
            bound = float(pair[0])
            if not math.isfinite(bound) or bound <= 0:
                raise ConfigurationError(
                    f"table breakpoint bound must be finite and > 0, "
                    f"got {bound!r}"
                )
            if bound <= previous:
                raise ConfigurationError(
                    "table breakpoint bounds must be strictly increasing; "
                    f"got {bound!r} after {previous!r}"
                )
            previous = bound
            checked.append(
                (bound, _check_multiplier(f"multiplier at {bound!r}", pair[1]))
            )
        object.__setattr__(self, "breakpoints", tuple(checked))

    def execution_multiplier(self, spec: JobSpec) -> float:
        for bound, multiplier in self.breakpoints:
            if spec.execution_time <= bound:
                return multiplier
        return self.default

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "breakpoints": [
                [bound, multiplier] for bound, multiplier in self.breakpoints
            ],
            "default": self.default,
        }


@dataclass(frozen=True)
class StochasticExecutionTimeModel(ExecutionTimeModel):
    """Seeded uniform per-job multipliers in ``[min, max]``.

    The multiplier is a pure hash of ``(seed, job_id)`` — no RNG stream —
    so it is independent of admission order and identical across the
    materialized, streaming, and serve-replay execution paths.
    """

    seed: int = 2010
    min_multiplier: float = 1.0
    max_multiplier: float = 1.25

    kind = "stochastic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        low = _check_multiplier("min_multiplier", self.min_multiplier)
        high = _check_multiplier("max_multiplier", self.max_multiplier)
        if low > high:
            raise ConfigurationError(
                f"min_multiplier ({low!r}) must not exceed "
                f"max_multiplier ({high!r})"
            )
        object.__setattr__(self, "min_multiplier", low)
        object.__setattr__(self, "max_multiplier", high)

    def execution_multiplier(self, spec: JobSpec) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}:{spec.job_id}".encode("utf-8"), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / float(1 << 64)
        return self.min_multiplier + fraction * (
            self.max_multiplier - self.min_multiplier
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "seed": self.seed,
            "min_multiplier": self.min_multiplier,
            "max_multiplier": self.max_multiplier,
        }


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
EXECUTION_TIME_MODELS: Registry[ExecutionTimeModel] = Registry(
    "execution-time model", base=ExecutionTimeModel
)
register_execution_time_model = EXECUTION_TIME_MODELS.register
available_execution_time_models = EXECUTION_TIME_MODELS.available
execution_time_model_from_dict = EXECUTION_TIME_MODELS.from_dict


def _table_from_spec(
    breakpoints: Sequence[Sequence[float]] = (),
    default: float = 1.0,
) -> TableExecutionTimeModel:
    return TableExecutionTimeModel(
        breakpoints=tuple(
            (float(entry[0]), float(entry[1]))
            for entry in breakpoints
            if _check_breakpoint_shape(entry)
        ),
        default=float(default),
    )


def _check_breakpoint_shape(entry: Any) -> bool:
    if not isinstance(entry, Sequence) or len(entry) != 2:
        raise ConfigurationError(
            "table breakpoints must be [upper_bound, multiplier] pairs, "
            f"got {entry!r}"
        )
    return True


register_execution_time_model("exact", ExactExecutionTimeModel)
register_execution_time_model("table", _table_from_spec)
register_execution_time_model("stochastic", StochasticExecutionTimeModel)
