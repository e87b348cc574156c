"""Parallel-safety rules (3xx).

``repro.harness.parallel`` ships :class:`RunSpec` work items to
``ProcessPoolExecutor`` workers.  Everything crossing that boundary must
pickle (lambdas and nested functions do not), and worker results must not
depend on module-level mutable state, which is per-process and therefore
diverges between serial and parallel execution.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, register

#: Call names that move their payload across a process boundary.
PARALLEL_ENTRY_POINTS = {"parallel_map", "run_specs", "RunSpec",
                         "SyntheticSpec"}

#: Attribute calls on executors that do the same.
EXECUTOR_METHODS = {"map", "submit"}

#: Constructors whose result wraps an OS resource (file descriptor,
#: memory mapping).  Handles do not survive pickling into a worker —
#: file-backed work items must carry the *path* (plus record offsets)
#: and let the worker open it, as ``RunSpec.trace_path`` does.
HANDLE_CONSTRUCTORS = {"open", "TraceFile", "mmap"}

#: Constructors of module-level mutable containers.
MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "deque", "defaultdict",
                        "Counter", "OrderedDict", "bytearray"}


@register
class NonPicklablePayload(Rule):
    """Payloads crossing the process boundary must pickle."""

    name = "parallel-payload"
    code = "REPRO301"
    invariant = ("Arguments flowing into parallel_map/RunSpec/executor "
                 "map+submit are pickled into worker processes; lambdas, "
                 "nested functions and open OS handles (files, mmaps, "
                 "TraceFile views) fail at runtime, on some sweeps only — "
                 "file-backed specs carry a path plus record offsets "
                 "instead.")
    includes = ("repro", "tests")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._crosses_process_boundary(node):
                continue
            local_defs = self._local_function_names(ctx, node)
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                culprit = self._non_picklable(value, local_defs)
                if culprit is not None:
                    yield self.finding(
                        ctx, value,
                        f"{culprit} passed into a process-boundary call "
                        f"({self._call_name(node)}): not picklable; use a "
                        f"module-level function or functools.partial of one")

    def _call_name(self, node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return "<call>"

    def _crosses_process_boundary(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in PARALLEL_ENTRY_POINTS
        if isinstance(func, ast.Attribute):
            if func.attr not in EXECUTOR_METHODS:
                return False
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else "")
            return "executor" in base_name.lower() or \
                "pool" in base_name.lower()
        return False

    def _local_function_names(self, ctx: ModuleContext,
                              node: ast.Call) -> Set[str]:
        scope = ctx.enclosing_function(node)
        if scope is None or isinstance(scope, ast.Lambda):
            return set()
        return {child.name for child in ast.walk(scope)
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                and child is not scope}

    def _non_picklable(self, value: ast.expr,
                       local_defs: Set[str]) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Name) and value.id in local_defs:
            return f"nested function {value.id!r}"
        if isinstance(value, ast.GeneratorExp):
            return "generator expression"
        handle = self._handle_constructor(value)
        if handle is not None:
            return (f"open handle ({handle}(...)) — pass the path and "
                    f"record offsets, the worker opens the file")
        return None

    def _handle_constructor(self, value: ast.expr) -> Optional[str]:
        """Name of an OS-handle constructor called in ``value``, if any
        (``open(...)``, ``TraceFile(...)``, ``mmap.mmap(...)``)."""
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name) and func.id in HANDLE_CONSTRUCTORS:
            return func.id
        if isinstance(func, ast.Attribute) and \
                func.attr in HANDLE_CONSTRUCTORS:
            return func.attr
        return None


@register
class MutableModuleState(Rule):
    """No mutable module-level state in code reachable from workers."""

    name = "mutable-global"
    code = "REPRO302"
    severity = Severity.WARNING
    invariant = ("Module-level mutable containers are per-process: workers "
                 "see fresh copies, so any accumulation there silently "
                 "differs between serial and parallel runs.  Deliberate "
                 "per-process caches must say so: # repro: allow[mutable-"
                 "global].")
    includes = ("repro.noc", "repro.core", "repro.compression",
                "repro.traffic", "repro.memory", "repro.harness")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for stmt in ctx.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue  # __all__ and friends: convention, not state
            if not self._is_mutable_container(value):
                continue
            if name.isupper() and self._is_populated_literal(value):
                # ALL_CAPS lookup tables populated at definition time are
                # read-only registries by convention, not accumulating
                # state; empty containers and constructor calls still flag.
                continue
            yield self.finding(
                ctx, stmt,
                f"module-level mutable container {name!r}: per-process "
                f"state diverges under parallel execution; make it "
                f"instance state or mark a deliberate per-process cache "
                f"with # repro: allow[mutable-global]")

    def _is_populated_literal(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Set)):
            return bool(value.elts)
        if isinstance(value, ast.Dict):
            return bool(value.keys)
        return False

    def _is_mutable_container(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in MUTABLE_CONSTRUCTORS
        return False
