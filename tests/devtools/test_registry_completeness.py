"""Registry completeness: no registered name dangles, and REG601 audits them all.

This is the tier-1 twin of the REG601 static rule: REG601 proves every
spec-expressible class in the subsystem packages is *registered*; the
``from_dict(to_dict(x))`` round trip of every registered kind is oracle (iii)
of ``tests/generated/test_scenarios.py``, whose strategy table is keyed by
``all_registries()``.
"""

import importlib.util
import sys
from pathlib import Path

from repro.core.observers import SimulationObserver
from repro.campaign.collectors import available_collectors, create_collector
from repro.devtools import check_paths
from repro.devtools.registry_audit import RegistryCompletenessRule
from repro.registry import all_registries
from repro.schedulers.registry import (
    PAPER_ALGORITHMS,
    available_algorithms,
    create_scheduler,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_no_dangling_scheduler_names():
    names = available_algorithms()
    assert names == sorted(names)
    for name in names:
        scheduler = create_scheduler(name)
        assert scheduler is not None, name
    # Paper names may carry a period suffix (e.g. dynmcb8-per-600) that the
    # factory parses rather than the registry storing — so the dangling-name
    # check is constructibility, not set membership.
    for name in PAPER_ALGORITHMS:
        assert create_scheduler(name) is not None, name


def test_no_dangling_collector_names_or_observers():
    for name in available_collectors():
        collector = create_collector(name)
        assert collector is not None, name
        modes = (False, True) if collector.streaming_capable else (False,)
        for streaming in modes:
            for key, observer in collector.observers(streaming).items():
                assert isinstance(observer, SimulationObserver), (name, key)


def test_audit_covers_every_kind_registry():
    RegistryCompletenessRule().check_project([])  # imports every seam
    audited = {
        registry.label for registry in all_registries() if registry.base is not None
    }
    assert audited == {
        "trace source",
        "trace transform",
        "accumulator",
        "platform",
        "node event source",
        "admission policy",
        "overhead model",
        "execution-time model",
        "workload source",
    }


ROGUE_SOURCE = """
from repro.campaign.scenario import WorkloadSource


class RogueSource(WorkloadSource):
    kind = "rogue"

    def to_dict(self):
        return {"type": self.kind}
"""


def test_reg_rule_flags_unregistered_scenario_source(tmp_path, monkeypatch):
    # Scenario sources had no audit before the generic Registry.
    path = tmp_path / "rogue_source.py"
    path.write_text(ROGUE_SOURCE)
    spec = importlib.util.spec_from_file_location("rogue_source", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "rogue_source", module)  # inspect needs it
    spec.loader.exec_module(module)
    result = check_paths(
        [str(path)], project_root=str(tmp_path), rules=[RegistryCompletenessRule()]
    )
    assert [finding.code for finding in result.findings] == ["REG601"]
    message = result.findings[0].message
    assert "workload source class RogueSource" in message and "'rogue'" in message
    assert result.findings[0].line == 5


def test_reg_rule_finds_nothing_in_tree():
    result = check_paths(
        [str(SRC)],
        project_root=str(REPO_ROOT),
        rules=[RegistryCompletenessRule()],
    )
    assert result.findings == [], [f.format() for f in result.findings]
