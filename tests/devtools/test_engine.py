"""Engine behavior: file collection, syntax errors, selection and pragmas."""

import textwrap

import pytest

from repro.devtools import check_paths, create_rules
from repro.devtools.astutils import noqa_codes
from repro.devtools.engine import collect_files
from repro.exceptions import ConfigurationError

BAD_SOURCE = textwrap.dedent(
    """
    import numpy as np
    rng = np.random.default_rng()
    other = np.random.default_rng()
    """
)


def write_module(tmp_path, source, relfile="src/repro/core/mod.py"):
    path = tmp_path / relfile
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


# --------------------------------------------------------------------------- #
# File collection                                                              #
# --------------------------------------------------------------------------- #
def test_collect_files_sorted_and_skips_junk(tmp_path):
    write_module(tmp_path, "x = 1\n", "src/repro/core/b.py")
    write_module(tmp_path, "x = 1\n", "src/repro/core/a.py")
    write_module(tmp_path, "x = 1\n", "src/repro/core/__pycache__/a.py")
    write_module(tmp_path, "x = 1\n", "src/repro/core/.hidden/c.py")
    write_module(tmp_path, "not python", "src/repro/core/notes.txt")
    files = collect_files([tmp_path / "src"])
    assert [f.name for f in files] == ["a.py", "b.py"]


def test_collect_files_missing_path_is_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError):
        collect_files([tmp_path / "nope"])


def test_syntax_error_becomes_e999_finding(tmp_path):
    path = write_module(tmp_path, "def broken(:\n")
    result = check_paths([path], project_root=tmp_path)
    assert [f.code for f in result.findings] == ["E999"]
    assert not result.ok


# --------------------------------------------------------------------------- #
# Rule selection                                                               #
# --------------------------------------------------------------------------- #
def test_create_rules_family_and_code_selectors():
    det = [rule.code for rule in create_rules(select=["DET"])]
    assert det == ["DET101", "DET102", "DET103"]
    only = [rule.code for rule in create_rules(select=["ORD201"])]
    assert only == ["ORD201"]
    without = [rule.code for rule in create_rules(ignore=["DET", "REG"])]
    assert "DET101" not in without and "REG601" not in without
    assert "ORD201" in without


def test_create_rules_unknown_selector_fails_loudly():
    with pytest.raises(ConfigurationError):
        create_rules(select=["BOGUS"])
    with pytest.raises(ConfigurationError):
        create_rules(ignore=["ZZZ999"])


# --------------------------------------------------------------------------- #
# noqa pragma parsing                                                          #
# --------------------------------------------------------------------------- #
def test_noqa_codes_parsing():
    assert noqa_codes("x = 1") is None
    assert noqa_codes("x = 1  # repro: noqa") == frozenset()
    assert noqa_codes("x = 1  # repro: noqa[DET101]") == frozenset({"DET101"})
    assert noqa_codes("x = 1  # repro: noqa[DET, ORD201]") == frozenset(
        {"DET", "ORD201"}
    )
    # Plain flake8 noqa is NOT a repro pragma.
    assert noqa_codes("x = 1  # noqa") is None


def test_noqa_with_wrong_code_does_not_suppress(tmp_path):
    path = write_module(
        tmp_path,
        """
        import numpy as np
        rng = np.random.default_rng()  # repro: noqa[ORD201]
        """,
    )
    result = check_paths([path], project_root=tmp_path)
    assert [f.code for f in result.findings] == ["DET101"]
    assert result.suppressed == 0


def test_every_unsuppressed_finding_fails(tmp_path):
    path = write_module(tmp_path, BAD_SOURCE)
    result = check_paths([path], project_root=tmp_path)
    assert not result.ok
    assert [f.line for f in result.findings] == [3, 4]
    suppressed = "other = np.random.default_rng()  # repro: noqa[DET101]"
    path.write_text(BAD_SOURCE.replace("other = np.random.default_rng()", suppressed))
    result = check_paths([path], project_root=tmp_path)
    assert not result.ok
    assert [f.line for f in result.findings] == [3] and result.suppressed == 1
