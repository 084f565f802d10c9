"""The built-in rule pack: the project's contracts as AST lint rules.

Codes are grouped in families; ``# repro: noqa[DET]`` suppresses a family,
``# repro: noqa[DET101]`` one rule.  Each rule's ``rationale`` states the
contract it encodes — surfaced by ``repro-dfrs dev rules`` and
CONTRIBUTING.md.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from .astutils import (
    SetExpressionTracker,
    dotted_name,
    import_aliases,
    iter_parents,
    resolved_call_name,
)
from .findings import Finding
from .rules import FileContext, Rule, register_rule

__all__ = [
    "UnseededDefaultRngRule",
    "GlobalRngDrawRule",
    "WallClockRule",
    "SetIterationRule",
    "UnpicklableTaskRule",
    "FloatEqualityRule",
    "SwallowedExceptionRule",
    "DirectTimeInCoreRule",
    "BarePrintRule",
    "UnusedImportRule",
]

#: Packages whose code can reach simulated results; the determinism and
#: ordering contracts bind here (reports/CLI glue may legitimately look at
#: the wall clock or iterate sets for display).
_RESULT_PACKAGES = (
    "core",
    "packing",
    "schedulers",
    "traces",
    "platform",
    "metrics",
    "campaign",
)


@register_rule
class UnseededDefaultRngRule(Rule):
    code = "DET101"
    name = "unseeded-default-rng"
    rationale = (
        "Every simulation draw must come from an explicitly seeded "
        "np.random.default_rng(seed): an unseeded generator takes OS "
        "entropy, so two runs of the same scenario hash produce different "
        "results and every cached campaign artifact becomes unreproducible."
    )

    def check_file(self, context: FileContext) -> List[Finding]:
        aliases = import_aliases(context.tree)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, aliases)
            if name is None or not name.endswith("random.default_rng"):
                continue
            if not node.args and not node.keywords:
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        "default_rng() without a seed draws OS entropy; pass "
                        "an explicit seed (or a spawned SeedSequence)",
                    )
                )
        return findings


@register_rule
class GlobalRngDrawRule(Rule):
    code = "DET102"
    name = "global-rng-draw"
    rationale = (
        "The module-level numpy and stdlib RNGs (np.random.rand, "
        "random.randint, ...) share hidden global state: any draw outside a "
        "locally seeded Generator couples results to import order and to "
        "every other caller, breaking byte-identical reproduction."
    )

    #: numpy.random module functions that are *not* draws on the global RNG.
    _NUMPY_SAFE = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"})
    #: stdlib ``random`` draw/state functions (``random.Random(seed)`` is fine).
    _STDLIB_DRAWS = frozenset(
        {
            "random",
            "randint",
            "randrange",
            "uniform",
            "choice",
            "choices",
            "sample",
            "shuffle",
            "gauss",
            "normalvariate",
            "lognormvariate",
            "expovariate",
            "betavariate",
            "gammavariate",
            "paretovariate",
            "weibullvariate",
            "triangular",
            "vonmisesvariate",
            "getrandbits",
            "seed",
        }
    )

    def check_file(self, context: FileContext) -> List[Finding]:
        aliases = import_aliases(context.tree)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, aliases)
            if name is None:
                continue
            parts = name.split(".")
            if (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] not in self._NUMPY_SAFE
            ):
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        f"np.random.{parts[2]} draws from the global numpy RNG; "
                        "use a seeded np.random.default_rng(seed) instead",
                    )
                )
            elif (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in self._STDLIB_DRAWS
            ):
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        f"random.{parts[1]} draws from the global stdlib RNG; "
                        "use a seeded np.random.default_rng(seed) instead",
                    )
                )
        return findings


@register_rule
class WallClockRule(Rule):
    code = "DET103"
    name = "wall-clock-in-simulation"
    rationale = (
        "Simulated results must be a pure function of the scenario spec: "
        "time.time()/datetime.now() reachable from engine, trace, platform, "
        "or scheduler code leaks the wall clock into results and cache "
        "keys.  (time.perf_counter for *measuring* scheduler wall time is "
        "explicitly allowed — it feeds the timing study, not the clock.)"
    )

    _FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check_file(self, context: FileContext) -> List[Finding]:
        if not context.in_packages(_RESULT_PACKAGES):
            return []
        aliases = import_aliases(context.tree)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, aliases)
            if name in self._FORBIDDEN:
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        f"{name}() reads the wall clock on a result-affecting "
                        "path; simulated time must come from the event loop",
                    )
                )
        return findings


#: Builtins that consume an iterable order-insensitively; a set fed straight
#: into one of these is fine.  (``min``/``max``/``sum``/``len``/``any``/
#: ``all`` never appear in the iteration contexts the rule inspects, so the
#: list only needs the materialising consumers.)
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})


@register_rule
class SetIterationRule(Rule):
    code = "ORD201"
    name = "unordered-set-iteration"
    rationale = (
        "Iterating a set on a result-affecting path leaks hash order into "
        "results: with PYTHONHASHSEED randomised, two processes disagree on "
        "the order, so campaign rows and golden outputs stop being "
        "byte-identical.  Wrap the iteration in sorted(...).  (dict "
        "iteration is insertion-ordered and therefore deterministic; sets "
        "are the hazard.)"
    )

    def check_file(self, context: FileContext) -> List[Finding]:
        if not context.in_packages(_RESULT_PACKAGES):
            return []
        tracker = SetExpressionTracker(context.tree)
        findings: List[Finding] = []

        def flag(expr: ast.AST) -> None:
            if tracker.is_set_expression(expr, tracker.scope_of(expr)):
                findings.append(
                    context.finding(
                        expr,
                        self.code,
                        "iteration over a set leaks hash order into results; "
                        "wrap it in sorted(...)",
                    )
                )

        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                flag(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    flag(generator.iter)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _ORDER_SENSITIVE_CONSUMERS and node.args:
                    flag(node.args[0])
        return findings


@register_rule
class UnpicklableTaskRule(Rule):
    code = "SER301"
    name = "unpicklable-worker-payload"
    rationale = (
        "Callables crossing the multiprocessing boundary (map_tasks and the "
        "campaign fan-out) are pickled by reference: lambdas and functions "
        "defined inside another function cannot be pickled, so the campaign "
        "dies only when --workers > 1 on a multi-core host — CI's "
        "single-core path never sees it.  Pass a module-level function."
    )

    #: Call targets whose callable arguments must be picklable.
    _FAN_OUT_SUFFIXES = ("map_tasks",)
    _POOL_METHODS = frozenset({"map", "imap", "imap_unordered", "starmap", "apply_async"})

    def check_file(self, context: FileContext) -> List[Finding]:
        parents = iter_parents(context.tree)
        nested_defs = self._nested_function_names(context.tree, parents)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_fan_out_call(node):
                continue
            candidates: List[ast.expr] = list(node.args)
            candidates.extend(kw.value for kw in node.keywords if kw.value is not None)
            for arg in candidates:
                if isinstance(arg, ast.Lambda):
                    findings.append(
                        context.finding(
                            arg,
                            self.code,
                            "lambda passed into the worker-pool fan-out cannot "
                            "be pickled; move it to a module-level function",
                        )
                    )
                elif isinstance(arg, ast.Name) and arg.id in nested_defs:
                    findings.append(
                        context.finding(
                            arg,
                            self.code,
                            f"locally defined function {arg.id!r} passed into "
                            "the worker-pool fan-out cannot be pickled; move "
                            "it to module level",
                        )
                    )
        return findings

    def _is_fan_out_call(self, node: ast.Call) -> bool:
        name = dotted_name(node.func)
        if name is None:
            return False
        if any(name == s or name.endswith("." + s) for s in self._FAN_OUT_SUFFIXES):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in self._POOL_METHODS:
            base = dotted_name(node.func.value)
            return base is not None and "pool" in base.lower()
        return False

    @staticmethod
    def _nested_function_names(
        tree: ast.Module, parents: Dict[ast.AST, ast.AST]
    ) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            current = parents.get(node)
            while current is not None:
                if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                    break
                current = parents.get(current)
        return names


@register_rule
class FloatEqualityRule(Rule):
    code = "FLT401"
    name = "raw-float-equality"
    rationale = (
        "core/ and packing/ compare capacities and yields with the epsilon "
        "helpers (CAPACITY_EPSILON, BIN_EPSILON): a raw ==/!= between "
        "computed float expressions silently flips on the last ulp and "
        "breaks packing decisions across platforms.  Exact comparisons "
        "against the 0.0/1.0 sentinels are the pinned fast-path idiom and "
        "are exempt."
    )

    #: Sentinel literals whose exact comparison is an intentional idiom
    #: (empty/full capacity, the homogeneous 1.0 fast path).
    _SENTINELS = (0.0, 1.0, -1.0)

    def check_file(self, context: FileContext) -> List[Finding]:
        if not context.in_packages(("core", "packing")):
            return []
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_exempt_literal(left) or self._is_exempt_literal(right):
                    continue
                if self._is_float_arithmetic(left) or self._is_float_arithmetic(right):
                    findings.append(
                        context.finding(
                            node,
                            self.code,
                            "raw ==/!= between computed float expressions; use "
                            "the epsilon helpers (CAPACITY_EPSILON / "
                            "math.isclose) or compare against a sentinel",
                        )
                    )
                    break
                if self._is_float_literal(left) or self._is_float_literal(right):
                    findings.append(
                        context.finding(
                            node,
                            self.code,
                            "raw ==/!= against a non-sentinel float literal; "
                            "use the epsilon helpers or an explicit tolerance",
                        )
                    )
                    break
        return findings

    def _is_exempt_literal(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value in self._SENTINELS
        )

    def _is_float_literal(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value not in self._SENTINELS
        )

    def _is_float_arithmetic(self, node: ast.AST) -> bool:
        """Arithmetic that produces a computed float: contains / or a float
        literal inside a +-*/** expression."""
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.Mod)):
                return (
                    self._contains_float(node.left)
                    or self._contains_float(node.right)
                    or self._is_float_arithmetic(node.left)
                    or self._is_float_arithmetic(node.right)
                )
        if isinstance(node, ast.UnaryOp):
            return self._is_float_arithmetic(node.operand)
        return False

    @staticmethod
    def _contains_float(node: ast.AST) -> bool:
        return any(
            isinstance(child, ast.Constant) and isinstance(child.value, float)
            for child in ast.walk(node)
        )


@register_rule
class SwallowedExceptionRule(Rule):
    code = "EXC501"
    name = "swallowed-simulation-error"
    rationale = (
        "A bare `except:` or blanket `except Exception:` that does not "
        "re-raise swallows SimulationError (and ConfigurationError) with "
        "everything else, turning an invariant violation into silently "
        "wrong results.  Catch the specific exception, or re-raise."
    )

    _BLANKET = frozenset({"Exception", "BaseException"})

    def check_file(self, context: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        "bare except: swallows SimulationError with everything "
                        "else; catch the specific exception or re-raise",
                    )
                )
                continue
            if self._is_blanket(node.type) and not self._reraises(node):
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        "blanket except Exception without re-raise swallows "
                        "SimulationError; narrow the type or re-raise",
                    )
                )
        return findings

    def _is_blanket(self, type_node: ast.expr) -> bool:
        if isinstance(type_node, ast.Tuple):
            return any(self._is_blanket(element) for element in type_node.elts)
        name = dotted_name(type_node)
        return name in self._BLANKET

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(child, ast.Raise) for child in ast.walk(handler))


@register_rule
class DirectTimeInCoreRule(Rule):
    code = "OBS701"
    name = "direct-time-call-in-core"
    rationale = (
        "Engine code reads the wall clock only through its two seams: "
        "repro.core.clock (pacing) and repro.obs.timing (measurement).  A "
        "direct time.* call in repro.core bypasses both, so profilers and "
        "tests cannot intercept the reading and the disabled-telemetry "
        "byte-identity guarantee loses its single swap point.  Import "
        "perf_counter from repro.obs.timing instead (or pace through a "
        "Clock)."
    )

    #: The pacing seam itself is the one core module allowed to touch
    #: ``time`` directly.
    _EXEMPT_MODULES = frozenset({"clock.py"})

    def check_file(self, context: FileContext) -> List[Finding]:
        parts = context.package_parts()
        if not parts or parts[0] != "core":
            return []
        if parts[-1] in self._EXEMPT_MODULES:
            return []
        aliases = import_aliases(context.tree)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, aliases)
            if name is not None and name.startswith("time."):
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        f"{name}() bypasses the clock/telemetry seams; import "
                        "perf_counter from repro.obs.timing (measurement) or "
                        "go through repro.core.clock (pacing)",
                    )
                )
        return findings


@register_rule
class BarePrintRule(Rule):
    code = "OBS702"
    name = "bare-print-outside-cli"
    rationale = (
        "Library code reports through return values, exceptions, and the "
        "telemetry/flight seams — never stdout.  A bare print() in "
        "repro.* corrupts machine-readable command output (the serve "
        "protocol, --bench-json artifacts), is invisible to campaign "
        "workers, and cannot be silenced by callers.  Presentation belongs "
        "in the CLI layers (cli.py modules); everything else should raise, "
        "return, or record."
    )

    #: Presentation layers: the top-level CLI, each package's cli.py, and
    #: the devtools reporters (whose whole job is printing findings).
    _EXEMPT_MODULE = "cli.py"
    _EXEMPT_PACKAGES = frozenset({"devtools"})

    def check_file(self, context: FileContext) -> List[Finding]:
        parts = context.package_parts()
        if not parts:
            return []
        if parts[-1] == self._EXEMPT_MODULE:
            return []
        if parts[0] in self._EXEMPT_PACKAGES:
            return []
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                findings.append(
                    context.finding(
                        node,
                        self.code,
                        "bare print() in library code; return the value, "
                        "raise, or record it via the telemetry seam — "
                        "printing belongs in the cli.py layers",
                    )
                )
        return findings


@register_rule
class UnusedImportRule(Rule):
    code = "IMP801"
    name = "unused-import"
    rationale = (
        "An import nothing reads misstates a module's dependencies and "
        "outlives the code that needed it.  A name counts as used when the module reads it, lists it in __all__, or "
        "names it in a string annotation; relative imports in __init__.py, "
        "`import x as x` re-exports and `if TYPE_CHECKING:` imports are "
        "exempt."
    )

    def check_file(self, context: FileContext) -> List[Finding]:
        tree = context.tree
        reexports = context.path.name == "__init__.py"
        exempt = {
            id(child)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and dotted_name(node.test) in _TYPE_CHECKING
            for statement in node.body
            for child in ast.walk(statement)
        }
        used = _used_names(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in exempt:
                continue
            if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or (reexports and node.level)
            ):
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    findings.append(
                        context.finding(
                            node,
                            self.code,
                            f"{alias.name!r} is imported but never used; "
                            "delete the import (or list the name in __all__)",
                        )
                    )
        return findings


_TYPE_CHECKING = frozenset({"TYPE_CHECKING", "typing.TYPE_CHECKING"})


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, lists in ``__all__`` or names in a string
    annotation."""
    used: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        if (
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and node.value is not None
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    for annotation in annotations:
        for element in ast.walk(annotation):
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                try:
                    parsed = ast.parse(element.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)
                )
    return used
