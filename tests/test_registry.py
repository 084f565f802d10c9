"""The contract every ``Registry`` honours, checked on the live instances.

A seam that adds a registry is covered here (and by REG601) without touching
this file; per-kind round trips run from the strategy table of
``tests/generated/strategies.py``, whose census fails until the new registry
has an entry there.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.campaign.scenario import SwfSource, scenario_from_dict
from repro.exceptions import ConfigurationError
from repro.metrics import accumulator_from_dict
from repro.obs import telemetry_spec
from repro.platform.events import JsonNodeEventSource
from repro.registry import all_registries, content_fingerprint

# Registries exist once their module is imported; import all of them.
for _info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_info.name)

every_registry = pytest.mark.parametrize(
    "registry", all_registries(), ids=lambda registry: registry.label
)
NON_MAPPINGS = ("x", ["x"], 3)


def test_every_seam_has_one_registry():
    labels = [registry.label for registry in all_registries()]
    assert len(labels) == len(set(labels)) == 11, labels


@every_registry
def test_available_is_sorted_and_non_empty(registry):
    names = registry.available()
    assert names and names == sorted(names)


@every_registry
def test_unknown_type_lists_the_known_ones(registry):
    with pytest.raises(ConfigurationError, match="unknown " + registry.label) as excinfo:
        registry.from_dict({"type": "no-such-type"})
    assert ", ".join(registry.available()) in str(excinfo.value)


@every_registry
def test_missing_type_rejected(registry):
    with pytest.raises(ConfigurationError, match=registry.label + " spec needs a 'type'"):
        registry.from_dict({})


@every_registry
@pytest.mark.parametrize("spec", NON_MAPPINGS, ids=repr)
def test_non_mapping_spec_rejected(registry, spec):
    expected = f"{registry.label} spec must be an object with a 'type' field, got"
    with pytest.raises(ConfigurationError, match=expected):
        registry.from_dict(spec)


@every_registry
def test_unexpected_option_rejected(registry):
    spec = {"type": registry.available()[0], "no_such_option": 1}
    with pytest.raises(ConfigurationError, match=registry.label):
        registry.from_dict(spec)


@every_registry
def test_duplicate_name_rejected_even_for_the_same_factory(registry):
    name, factory = registry.items()[0]
    with pytest.raises(ConfigurationError, match=registry.label + ".*already registered"):
        registry.register(name, factory)


@every_registry
def test_register_returns_its_factory(registry, monkeypatch):
    monkeypatch.setattr(registry, "_factories", dict(registry._factories))

    def factory(**options):
        return options

    assert registry.register("contract-test", factory) is factory
    assert "contract-test" in registry.available()
    assert registry.create("contract-test", a=1) == {"a": 1}


@pytest.mark.parametrize("spec", NON_MAPPINGS, ids=repr)
@pytest.mark.parametrize(
    "loader, label",
    [(accumulator_from_dict, "accumulator"), (telemetry_spec, "telemetry spec")],
)
def test_whole_mapping_loaders_share_the_validation(loader, label, spec):
    with pytest.raises(ConfigurationError, match=label + " spec must be an object"):
        loader(spec)
    with pytest.raises(ConfigurationError, match=label + " spec needs a 'type'"):
        loader({})
    with pytest.raises(ConfigurationError, match="unknown " + label):
        loader({"type": "no-such-type"})


def test_run_spec_with_a_bare_string_source_gets_a_configuration_error():
    with pytest.raises(ConfigurationError, match="workload source spec must be an object"):
        scenario_from_dict({"source": "lublin", "algorithms": ["fcfs"]})


FILE_BACKED_SPECS = pytest.mark.parametrize(
    "make", [SwfSource, JsonNodeEventSource], ids=["swf-source", "node-events"]
)


@FILE_BACKED_SPECS
def test_a_file_backed_spec_carries_the_files_pinned_digest(make, tmp_path):
    path = tmp_path / "trace"
    path.write_bytes(b"abc")
    assert make(path=str(path)).to_dict()["content"] == "ba7816bf8f01cfea"


@FILE_BACKED_SPECS
def test_the_digest_is_read_once_per_source(make, tmp_path):
    path = tmp_path / "trace"
    path.write_bytes(b"abc")
    source = make(path=str(path))
    assert content_fingerprint(source) == "ba7816bf8f01cfea"
    path.write_bytes(b"abd")  # a memoised fingerprint still serves
    assert source.to_dict()["content"] == "ba7816bf8f01cfea"
    assert make(path=str(path)).to_dict()["content"] != "ba7816bf8f01cfea"


@FILE_BACKED_SPECS
def test_an_unreadable_file_has_no_content_key(make, tmp_path):
    source = make(path=str(tmp_path / "missing"))
    assert content_fingerprint(source) is None
    assert "content" not in source.to_dict()
