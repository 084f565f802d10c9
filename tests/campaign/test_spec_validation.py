"""Bad numbers in a workload spec fail where they are written, by name.

Python's ``json`` reads ``NaN`` and ``Infinity``, every comparison with NaN
is false, and ``range(0)`` is empty: each case below used to load as a valid
scenario and then fail on some job mid-run, report "no instances" — or, for
``Perturb(runtime_factor=NaN)``, run to completion with every runtime set to
one second and emit a row.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.campaign import Campaign, SwfSource, scenario_from_dict
from repro.exceptions import ConfigurationError
from repro.traces import (
    BootstrapResample,
    ConcatTraceSource,
    DiurnalPoissonTraceSource,
    DowneyTraceSource,
    FilterJobs,
    Head,
    LublinTraceSource,
    Perturb,
    RescaleLoad,
    ScaleInterarrival,
    TimeWindow,
    scale_to_load,
)

NAN, INF = math.nan, math.inf
LUBLIN = LublinTraceSource(num_jobs=20, seed=1)

#: (what is built, the field the error must name)
BAD_NUMBERS = [
    (lambda: Perturb(runtime_factor=NAN), "runtime_factor"),
    (lambda: Perturb(width_factor=INF), "width_factor"),
    (lambda: RescaleLoad(target_load=NAN), "target_load"),
    (lambda: ScaleInterarrival(factor=NAN), "factor"),
    (lambda: ScaleInterarrival(factor=INF), "factor"),
    (lambda: TimeWindow(start=NAN), "start"),
    (lambda: TimeWindow(end=NAN), "end"),
    (lambda: FilterJobs(max_memory_fraction=NAN), "max_memory_fraction"),
    (lambda: Head(count=NAN), "count"),
    (lambda: BootstrapResample(num_jobs=NAN), "num_jobs"),
    (lambda: ConcatTraceSource(sources=(LUBLIN,), gap_seconds=NAN), "gap_seconds"),
    (lambda: DowneyTraceSource(mean_interarrival_seconds=INF), "mean_interarrival_seconds"),
    (lambda: DiurnalPoissonTraceSource(runtime_log_mean=NAN), "runtime_log_mean"),
    (lambda: SwfSource(path="trace.swf", segment_seconds=NAN), "segment_seconds"),
    (lambda: scale_to_load(LUBLIN.materialize(CLUSTER), NAN), "target_load"),
    (lambda: scale_to_load(LUBLIN.materialize(CLUSTER), INF), "target_load"),
    # In range is checked as before (what ``Workload.head(0)`` and
    # ``Workload.scaled_interarrival(0.0)`` rejected).
    (lambda: Head(count=0), "count"),
    (lambda: ScaleInterarrival(factor=0.0), "factor"),
]


def _scenario(**overrides):
    spec = {
        "name": "bad-number",
        "algorithms": ["fcfs"],
        "cluster": {"nodes": 16},
        "source": {"type": "lublin", "num_traces": 1, "num_jobs": 20},
    }
    spec.update(overrides)
    # Through the JSON reader, as a spec file would arrive.
    return scenario_from_dict(json.loads(json.dumps(spec)))


CLUSTER = _scenario().cluster


@pytest.mark.parametrize(("build", "field"), BAD_NUMBERS, ids=[f for _, f in BAD_NUMBERS])
def test_bad_number_is_rejected_at_construction(build, field):
    with pytest.raises(ConfigurationError, match=field):
        build()


def test_nan_perturbation_never_reaches_a_row():
    chain = {
        "type": "transform",
        "base": {"type": "lublin", "num_jobs": 20, "seed": 1},
        "steps": [{"type": "perturb", "runtime_factor": NAN}],
    }
    with pytest.raises(ConfigurationError, match="runtime_factor"):
        Campaign().run(_scenario(source=chain))


@pytest.mark.parametrize("streaming", [False, True])
@pytest.mark.parametrize("load", [NAN, INF, 0.0, -0.5])
def test_bad_load_axis_value_names_the_axis(load, streaming):
    scenario = _scenario(sweep={"load": [load]})
    with pytest.raises(ConfigurationError, match="load axis"):
        Campaign(streaming=streaming).run(scenario)


@pytest.mark.parametrize(
    ("source", "field"),
    [
        ({"type": "lublin", "num_jobs": 0}, "num_jobs"),
        ({"type": "lublin", "num_traces": 0}, "num_traces"),
        ({"type": "hpc2n-like", "jobs_per_week": 0}, "jobs_per_week"),
        ({"type": "hpc2n-like", "weeks": 0}, "weeks"),
        ({"type": "generator", "model": "downey", "instances": 0}, "instances"),
        ({"type": "generator", "model": "downey", "options": {"num_jobs": 0}}, "num_jobs"),
    ],
)
def test_empty_replica_source_is_rejected_at_spec_load(source, field):
    with pytest.raises(ConfigurationError, match=f"{field} must be >= 1, got 0"):
        _scenario(source=source)
