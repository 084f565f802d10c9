"""``repro.traces`` reproduces the instances the two-package tree generated.

``golden/instances.json`` was written at b3a25be (see ``instance_grid``);
the tree must yield the same names and job digests through every path.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Tuple

import pytest

from . import instance_grid as grid

PINNED: Dict[str, Any] = json.loads(grid.FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current() -> Dict[str, Any]:
    return grid.pinned()


def _cells(instances: Dict[str, Any]) -> Iterator[Tuple[str, str, str, Dict[str, Any]]]:
    for case, by_cluster in instances.items():
        for cluster, by_load in by_cluster.items():
            for load, cell in by_load.items():
                yield case, cluster, load, cell


def test_grid_has_exactly_the_pinned_cases(current):
    assert sorted(current["instances"]) == sorted(PINNED["instances"])


@pytest.mark.parametrize("case", sorted(PINNED["instances"]))
def test_instances_match_the_pin(current, case):
    assert current["instances"][case] == PINNED["instances"][case]


def test_swf_round_trips_match_the_pin(current):
    assert current["swf"] == PINNED["swf"]
    for entry in current["swf"].values():
        assert entry["iter_equals_parse"]
        assert entry["rewritten_text"] == entry["text"]
    assert current["swf"][".swf"] == current["swf"][".swf.gz"]


def test_materialized_streamed_and_transform_paths_agree(current):
    for case, cluster, load, cell in _cells(current["instances"]):
        streamed = cell["streamed"]
        if streamed is None:
            assert case.startswith("custom") or case.endswith("segments")
            continue
        where = (case, cluster, load)
        assert streamed["jobs"] == cell["materialized"]["jobs"], where
        assert streamed.get("rescale-load", streamed["jobs"]) == streamed["jobs"], where


def test_rescaled_instances_are_named_after_their_load(current):
    for case, cluster, load, cell in _cells(current["instances"]):
        raw = current["instances"][case][cluster]["None"]["materialized"]["names"]
        suffix = "" if load == "None" else f"-load{load}"
        assert cell["materialized"]["names"] == [name + suffix for name in raw]


def test_generator_entry_points_are_their_sources_materialized(current):
    instances = current["instances"]
    for twin, case in grid.MATERIALIZED_TWINS.items():
        for _, cluster, load, cell in _cells({twin: instances[twin]}):
            expected = instances[case][cluster][load]["materialized"]["jobs"]
            assert cell["materialized"]["jobs"] == expected, (twin, cluster, load)
