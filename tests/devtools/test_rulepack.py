"""Per-rule fixtures: each rule fires on its violation, stays quiet on the
idiomatic form, and respects ``# repro: noqa`` pragmas."""

import pathlib
import textwrap

from repro.devtools import check_paths
from repro.devtools.rulepack import (
    DirectTimeInCoreRule,
    FloatEqualityRule,
    GlobalRngDrawRule,
    SetIterationRule,
    BarePrintRule,
    SwallowedExceptionRule,
    UnpicklableTaskRule,
    UnseededDefaultRngRule,
    UnusedImportRule,
    WallClockRule,
)

CORE = "src/repro/core/mod.py"
PACKING = "src/repro/packing/mod.py"
OUTSIDE = "src/repro/analysis/mod.py"
TESTFILE = "tests/test_mod.py"


def run_rule(tmp_path, rule, source, relfile=CORE):
    path = tmp_path / relfile
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return check_paths([path], project_root=tmp_path, rules=[rule])


def codes(result):
    return [finding.code for finding in result.findings]


# --------------------------------------------------------------------------- #
# DET101 — unseeded default_rng                                                #
# --------------------------------------------------------------------------- #
def test_det101_flags_unseeded_default_rng(tmp_path):
    result = run_rule(
        tmp_path,
        UnseededDefaultRngRule(),
        """
        import numpy as np
        rng = np.random.default_rng()
        """,
    )
    assert codes(result) == ["DET101"]
    assert result.findings[0].line == 3


def test_det101_allows_seeded_and_alias_forms(tmp_path):
    result = run_rule(
        tmp_path,
        UnseededDefaultRngRule(),
        """
        import numpy as np
        from numpy.random import default_rng
        a = np.random.default_rng(42)
        b = default_rng(seed)
        """,
    )
    assert codes(result) == []


def test_det101_resolves_from_import_alias(tmp_path):
    result = run_rule(
        tmp_path,
        UnseededDefaultRngRule(),
        """
        from numpy.random import default_rng
        rng = default_rng()
        """,
    )
    assert codes(result) == ["DET101"]


def test_det101_noqa_suppresses(tmp_path):
    result = run_rule(
        tmp_path,
        UnseededDefaultRngRule(),
        """
        import numpy as np
        rng = np.random.default_rng()  # repro: noqa[DET101]
        """,
    )
    assert codes(result) == []
    assert result.suppressed == 1


# --------------------------------------------------------------------------- #
# DET102 — global RNG draws                                                    #
# --------------------------------------------------------------------------- #
def test_det102_flags_numpy_and_stdlib_global_draws(tmp_path):
    result = run_rule(
        tmp_path,
        GlobalRngDrawRule(),
        """
        import numpy as np
        import random
        x = np.random.rand(3)
        y = random.randint(0, 5)
        """,
    )
    assert codes(result) == ["DET102", "DET102"]


def test_det102_allows_generator_methods_and_constructors(tmp_path):
    result = run_rule(
        tmp_path,
        GlobalRngDrawRule(),
        """
        import numpy as np
        rng = np.random.default_rng(7)
        seq = np.random.SeedSequence(7)
        x = rng.normal(size=3)
        """,
    )
    assert codes(result) == []


def test_det102_family_noqa_suppresses(tmp_path):
    result = run_rule(
        tmp_path,
        GlobalRngDrawRule(),
        """
        import numpy as np
        x = np.random.rand(3)  # repro: noqa[DET]
        """,
    )
    assert codes(result) == []
    assert result.suppressed == 1


# --------------------------------------------------------------------------- #
# DET103 — wall clock on result paths                                          #
# --------------------------------------------------------------------------- #
WALL_CLOCK_SRC = """
import time
import datetime
t = time.time()
d = datetime.datetime.now()
"""


def test_det103_flags_wall_clock_in_result_packages(tmp_path):
    result = run_rule(tmp_path, WallClockRule(), WALL_CLOCK_SRC)
    assert codes(result) == ["DET103", "DET103"]


def test_det103_ignores_code_outside_result_packages(tmp_path):
    for relfile in (OUTSIDE, TESTFILE):
        result = run_rule(tmp_path, WallClockRule(), WALL_CLOCK_SRC, relfile=relfile)
        assert codes(result) == [], relfile


def test_contracts_followed_the_lublin_model_into_traces(tmp_path):
    """``workloads/`` left the result packages with its code: the real Lublin
    module, an unseeded generator and a wall-clock read planted in it, is
    still reported at its new path (DET103 is scoped by package)."""
    lublin = pathlib.Path(__file__).parents[2] / "src/repro/traces/lublin.py"
    planted = lublin.read_text(encoding="utf-8").replace(
        "rng = np.random.default_rng(seed)",
        "import time\n        rng = np.random.default_rng()\n        time.time()",
    )
    path = tmp_path / "src/repro/traces/lublin.py"
    path.parent.mkdir(parents=True)
    path.write_text(planted, encoding="utf-8")
    result = check_paths([path], project_root=tmp_path)
    assert sorted(codes(result)) == ["DET101", "DET103"]


def test_det103_allows_perf_counter(tmp_path):
    result = run_rule(
        tmp_path,
        WallClockRule(),
        """
        import time
        start = time.perf_counter()
        """,
    )
    assert codes(result) == []


# --------------------------------------------------------------------------- #
# OBS701 — direct time.* calls in core bypass the clock/telemetry seams        #
# --------------------------------------------------------------------------- #
DIRECT_TIME_SRC = """
import time
start = time.perf_counter()
time.sleep(0.1)
"""


def test_obs701_flags_direct_time_calls_in_core(tmp_path):
    result = run_rule(tmp_path, DirectTimeInCoreRule(), DIRECT_TIME_SRC)
    assert codes(result) == ["OBS701", "OBS701"]


def test_obs701_resolves_from_import_alias(tmp_path):
    result = run_rule(
        tmp_path,
        DirectTimeInCoreRule(),
        """
        from time import perf_counter
        start = perf_counter()
        """,
    )
    assert codes(result) == ["OBS701"]


def test_obs701_allows_the_timing_seam(tmp_path):
    result = run_rule(
        tmp_path,
        DirectTimeInCoreRule(),
        """
        from repro.obs.timing import perf_counter
        start = perf_counter()
        """,
    )
    assert codes(result) == []


def test_obs701_exempts_the_clock_seam_and_other_packages(tmp_path):
    for relfile in ("src/repro/core/clock.py", PACKING, OUTSIDE, TESTFILE):
        result = run_rule(
            tmp_path, DirectTimeInCoreRule(), DIRECT_TIME_SRC, relfile=relfile
        )
        assert codes(result) == [], relfile


def test_obs701_noqa_suppresses(tmp_path):
    result = run_rule(
        tmp_path,
        DirectTimeInCoreRule(),
        """
        import time
        start = time.perf_counter()  # repro: noqa[OBS701]
        """,
    )
    assert codes(result) == []
    assert result.suppressed == 1


# --------------------------------------------------------------------------- #
# ORD201 — set iteration order                                                 #
# --------------------------------------------------------------------------- #
def test_ord201_flags_for_loop_over_set(tmp_path):
    result = run_rule(
        tmp_path,
        SetIterationRule(),
        """
        def f(items):
            pending = set(items)
            for item in pending:
                print(item)
        """,
    )
    assert codes(result) == ["ORD201"]


def test_ord201_flags_comprehension_over_set_literal(tmp_path):
    result = run_rule(
        tmp_path,
        SetIterationRule(),
        """
        def f():
            return [x for x in {1, 2, 3}]
        """,
    )
    assert codes(result) == ["ORD201"]


def test_ord201_flags_list_materialisation(tmp_path):
    result = run_rule(
        tmp_path,
        SetIterationRule(),
        """
        def f(a, b):
            return list(set(a) & set(b))
        """,
    )
    assert codes(result) == ["ORD201"]


def test_ord201_allows_sorted_and_dict_iteration(tmp_path):
    result = run_rule(
        tmp_path,
        SetIterationRule(),
        """
        def f(items, mapping):
            for item in sorted(set(items)):
                print(item)
            for key in mapping:
                print(key)
        """,
    )
    assert codes(result) == []


def test_ord201_ignores_non_result_packages(tmp_path):
    result = run_rule(
        tmp_path,
        SetIterationRule(),
        """
        def f(items):
            for item in set(items):
                print(item)
        """,
        relfile=TESTFILE,
    )
    assert codes(result) == []


def test_ord201_blanket_noqa_suppresses(tmp_path):
    result = run_rule(
        tmp_path,
        SetIterationRule(),
        """
        def f(items):
            for item in set(items):  # repro: noqa
                print(item)
        """,
    )
    assert codes(result) == []
    assert result.suppressed == 1


# --------------------------------------------------------------------------- #
# SER301 — unpicklable worker payloads                                         #
# --------------------------------------------------------------------------- #
def test_ser301_flags_lambda_into_map_tasks(tmp_path):
    result = run_rule(
        tmp_path,
        UnpicklableTaskRule(),
        """
        def run(tasks):
            return map_tasks(lambda t: t + 1, tasks)
        """,
    )
    assert codes(result) == ["SER301"]


def test_ser301_flags_nested_def_into_pool_map(tmp_path):
    result = run_rule(
        tmp_path,
        UnpicklableTaskRule(),
        """
        def run(pool, tasks):
            def helper(t):
                return t + 1
            return pool.map(helper, tasks)
        """,
    )
    assert codes(result) == ["SER301"]


def test_ser301_allows_module_level_function(tmp_path):
    result = run_rule(
        tmp_path,
        UnpicklableTaskRule(),
        """
        def helper(t):
            return t + 1

        def run(tasks):
            return map_tasks(helper, tasks)
        """,
    )
    assert codes(result) == []


# --------------------------------------------------------------------------- #
# FLT401 — raw float equality in core/ and packing/                            #
# --------------------------------------------------------------------------- #
def test_flt401_flags_computed_float_equality(tmp_path):
    result = run_rule(
        tmp_path,
        FloatEqualityRule(),
        """
        def f(a, b, c):
            return a / b == c
        """,
        relfile=PACKING,
    )
    assert codes(result) == ["FLT401"]


def test_flt401_flags_non_sentinel_literal(tmp_path):
    result = run_rule(
        tmp_path,
        FloatEqualityRule(),
        """
        def f(x):
            return x != 0.5
        """,
        relfile=PACKING,
    )
    assert codes(result) == ["FLT401"]


def test_flt401_allows_sentinels_and_plain_names(tmp_path):
    result = run_rule(
        tmp_path,
        FloatEqualityRule(),
        """
        def f(x, y):
            if x == 1.0:
                return True
            if x == 0.0:
                return False
            return x == y
        """,
        relfile=CORE,
    )
    assert codes(result) == []


def test_flt401_scoped_to_core_and_packing(tmp_path):
    result = run_rule(
        tmp_path,
        FloatEqualityRule(),
        """
        def f(a, b, c):
            return a / b == c
        """,
        relfile=OUTSIDE,
    )
    assert codes(result) == []


# --------------------------------------------------------------------------- #
# EXC501 — swallowed exceptions                                                #
# --------------------------------------------------------------------------- #
def test_exc501_flags_bare_and_blanket_except(tmp_path):
    result = run_rule(
        tmp_path,
        SwallowedExceptionRule(),
        """
        def f():
            try:
                work()
            except:
                pass

        def g():
            try:
                work()
            except Exception:
                pass
        """,
    )
    assert codes(result) == ["EXC501", "EXC501"]


def test_exc501_allows_narrow_catch_and_reraise(tmp_path):
    result = run_rule(
        tmp_path,
        SwallowedExceptionRule(),
        """
        def f():
            try:
                work()
            except ValueError:
                pass

        def g():
            try:
                work()
            except Exception:
                cleanup()
                raise
        """,
    )
    assert codes(result) == []


# --------------------------------------------------------------------------- #
# Cross-rule: the full pack over one fixture tree                              #
# --------------------------------------------------------------------------- #
def test_full_pack_reports_sorted_findings(tmp_path):
    bad = tmp_path / CORE
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """
            import numpy as np
            rng = np.random.default_rng()

            def f(items):
                for item in set(items):
                    print(item)
            """
        )
    )
    result = check_paths([tmp_path / "src"], project_root=tmp_path)
    assert codes(result) == ["DET101", "ORD201", "OBS702"]
    assert result.findings == sorted(result.findings)
    assert result.checked_files == 1


# --------------------------------------------------------------------------- #
# OBS702 — bare print() outside the CLI layers                                 #
# --------------------------------------------------------------------------- #
BARE_PRINT_SRC = """
def helper(x):
    print("debug", x)
    return x
"""


def test_obs702_flags_bare_print_in_library_code(tmp_path):
    for relfile in (CORE, PACKING, "src/repro/obs/soak.py"):
        result = run_rule(tmp_path, BarePrintRule(), BARE_PRINT_SRC, relfile=relfile)
        assert codes(result) == ["OBS702"], relfile


def test_obs702_exempts_cli_layers_and_devtools(tmp_path):
    for relfile in (
        "src/repro/cli.py",
        "src/repro/serve/cli.py",
        "src/repro/obs/cli.py",
        "src/repro/devtools/reporting.py",
        TESTFILE,
    ):
        result = run_rule(tmp_path, BarePrintRule(), BARE_PRINT_SRC, relfile=relfile)
        assert codes(result) == [], relfile


def test_obs702_ignores_non_builtin_print_attributes(tmp_path):
    result = run_rule(
        tmp_path,
        BarePrintRule(),
        """
        class Reporter:
            def print(self, text):
                return text

        def use(reporter):
            reporter.print("ok")
        """,
    )
    assert codes(result) == []


def test_obs702_noqa_suppresses(tmp_path):
    result = run_rule(
        tmp_path,
        BarePrintRule(),
        """
        def helper(x):
            print(x)  # repro: noqa[OBS702]
        """,
    )
    assert codes(result) == []
    assert result.suppressed == 1



# --------------------------------------------------------------------------- #
# IMP801 — unused imports                                                      #
# --------------------------------------------------------------------------- #
def test_imp801_flags_each_unused_name(tmp_path):
    result = run_rule(
        tmp_path,
        UnusedImportRule(),
        """
        import math
        import os.path
        from dataclasses import dataclass, field
        from typing import List

        def helper():
            import json
            return dataclass
        """,
        relfile=TESTFILE,
    )
    assert codes(result) == ["IMP801"] * 5
    assert [finding.line for finding in result.findings] == [2, 3, 4, 5, 8]
    assert "'field'" in result.findings[2].message


def test_imp801_counts_reads_all_and_string_annotations(tmp_path):
    result = run_rule(
        tmp_path,
        UnusedImportRule(),
        """
        from __future__ import annotations

        import os.path
        import numpy as np
        from typing import Any, Dict, TYPE_CHECKING
        from .sibling import exported

        if TYPE_CHECKING:
            from .engine import Simulator

        __all__ = ["exported"]

        def f(x: "np.ndarray[Any, Any]") -> "Dict[str, int]":
            return os.path.join(x)
        """,
    )
    assert codes(result) == []


def test_imp801_exempts_both_type_checking_spellings(tmp_path):
    result = run_rule(
        tmp_path,
        UnusedImportRule(),
        """
        import typing
        from typing import TYPE_CHECKING

        if typing.TYPE_CHECKING:
            from .engine import Simulator
        if TYPE_CHECKING:
            import numpy as np
        if typing.TYPE_CHECKING or True:
            import json
        """,
    )
    assert [finding.line for finding in result.findings] == [10]


def test_imp801_reads_an_annotated_all(tmp_path):
    result = run_rule(
        tmp_path,
        UnusedImportRule(),
        """
        from typing import List
        from .sibling import exported, dropped

        __all__: List[str]
        __all__: List[str] = ["exported"]
        """,
    )
    assert ["dropped" in finding.message for finding in result.findings] == [True]


def test_imp801_exempts_reexports(tmp_path):
    source = """
    from .sibling import exported
    from ..other import also_exported
    from json import loads as loads
    import json
    """
    in_init = run_rule(
        tmp_path, UnusedImportRule(), source, relfile="src/repro/core/__init__.py"
    )
    assert [finding.message.split("'")[1] for finding in in_init.findings] == ["json"]
    elsewhere = run_rule(tmp_path, UnusedImportRule(), source)
    assert [finding.line for finding in elsewhere.findings] == [2, 3, 5]


def test_imp801_noqa_suppresses(tmp_path):
    result = run_rule(
        tmp_path,
        UnusedImportRule(),
        """
        import math  # repro: noqa[IMP801]
        import json  # repro: noqa[IMP]
        """,
    )
    assert codes(result) == []
    assert result.suppressed == 2
