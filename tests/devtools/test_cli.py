"""``repro-dfrs dev`` CLI: exit codes (0 clean / 1 findings / 2 usage) and
output formats."""

import json
import textwrap

from repro.cli import main
from repro.devtools import available_rules

CLEAN_SOURCE = "import numpy as np\nrng = np.random.default_rng(42)\n"
BAD_SOURCE = "import numpy as np\nrng = np.random.default_rng()\n"


def write_module(tmp_path, source, relfile="src/repro/core/mod.py"):
    path = tmp_path / relfile
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def test_check_clean_tree_exits_zero(tmp_path, capsys):
    path = write_module(tmp_path, CLEAN_SOURCE)
    assert main(["dev", "check", str(path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_check_findings_exit_one_with_location(tmp_path, capsys):
    path = write_module(tmp_path, BAD_SOURCE)
    assert main(["dev", "check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "DET101" in out and ":2:" in out


def test_check_unknown_selector_exits_two(tmp_path, capsys):
    path = write_module(tmp_path, CLEAN_SOURCE)
    code = main(["dev", "check", str(path), "--select", "BOGUS"])
    assert code == 2
    assert "unknown rule selector" in capsys.readouterr().err


def test_check_missing_path_exits_two(tmp_path, capsys):
    code = main(["dev", "check", str(tmp_path / "nope")])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_select_and_ignore_narrow_the_pack(tmp_path, capsys):
    path = write_module(
        tmp_path,
        """
        import numpy as np
        rng = np.random.default_rng()

        def f(items):
            for item in set(items):
                print(item)
        """,
    )
    assert main(["dev", "check", str(path), "--select", "ORD"]) == 1
    out = capsys.readouterr().out
    assert "ORD201" in out and "DET101" not in out
    assert (
        main(["dev", "check", str(path), "--ignore", "DET,ORD,OBS"])
        == 0
    )


def test_json_format_is_parseable(tmp_path, capsys):
    path = write_module(tmp_path, BAD_SOURCE)
    assert main(["dev", "check", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked_files"] == 1
    assert [f["code"] for f in payload["findings"]] == ["DET101"]


def test_json_format_carries_findings_suppressed_and_checked_files(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[DET101]\n",
    )
    assert main(["dev", "check", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "suppressed": 1, "checked_files": 1}


def test_noqa_suppression_is_counted(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[DET101]\n",
    )
    assert main(["dev", "check", str(path)]) == 0
    assert "1 noqa-suppressed" in capsys.readouterr().out


def test_dev_rules_lists_whole_catalog(capsys):
    assert main(["dev", "rules"]) == 0
    out = capsys.readouterr().out
    for code in available_rules():
        assert code in out
    assert "[project]" in out  # REG601 is the project-scoped rule


def test_repo_src_and_tests_are_clean(capsys, monkeypatch):
    # The acceptance gate CI runs: `repro-dfrs dev check src tests` from the
    # repo root finds nothing.
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    monkeypatch.chdir(repo_root)
    assert main(["dev", "check", "src", "tests"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
