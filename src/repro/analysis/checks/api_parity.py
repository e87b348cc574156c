"""82x: cross-core API parity, proven from use sites.

The simulator runs the same ``Network`` hot path against two router
representations (object-per-router :class:`Router` and the SoA
:class:`SoaRouter` view).  Nothing in Python enforces that the
surfaces stay interchangeable — a member added to one but not the other
only explodes at runtime, and only on the configuration that exercises
the gap.

The rule resolves every attribute the hot path touches on a
router-shaped receiver (flow-sensitive alias tracking, so
``router = self.routers[i]`` and loop targets count) against *both*
implementations: missing members, method-vs-property mismatches at call
sites, and call arity violations are flagged.  Intentionally
single-surface calls (e.g. the object-router pipeline ``cycle``) carry
inline ``# repro: allow[...]`` justifications.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.cfg import element_exprs
from repro.analysis.flow.dataflow import PathEval, iter_elements, \
    solve_forward
from repro.analysis.flow.project import FuncItem, ProjectContext, \
    call_arity_error
from repro.analysis.rules import ProjectRule, register

#: Dunders and introspection attrs exempt from parity (both classes get
#: them from object / the language).
_EXEMPT = frozenset({"__class__", "__dict__", "__slots__", "__doc__"})


class _Access:
    """One attribute use on a matched receiver."""

    __slots__ = ("item", "node", "attr", "call")

    def __init__(self, item: FuncItem, node: ast.Attribute,
                 call: Optional[ast.Call]):
        self.item = item
        self.node = node
        self.attr = node.attr
        #: The call this attribute is the callee of, if any.
        self.call = call


def _collect_accesses(project: ProjectContext,
                      module_prefixes: Sequence[str],
                      receiver_names: FrozenSet[str]) -> List[_Access]:
    """Attribute accesses whose receiver path ends in a matched name."""
    out: List[_Access] = []
    ev = PathEval()
    for item in project.functions(module_prefixes):
        cfg = project.cfg_for(item.node)
        states = solve_forward(cfg, ev)
        for elem, state in iter_elements(cfg, ev, states):
            for expr in element_exprs(elem):
                calls: Dict[int, ast.Call] = {
                    id(node.func): node for node in ast.walk(expr)
                    if isinstance(node, ast.Call)}
                for node in ast.walk(expr):
                    if not isinstance(node, ast.Attribute) or \
                            node.attr in _EXEMPT:
                        continue
                    labels = ev.eval(node.value, dict(state))
                    if any(label.split(".")[-1] in receiver_names
                           for label in labels):
                        out.append(_Access(item, node,
                                           calls.get(id(node))))
    return out


def _call_shape(call: ast.Call) -> Optional[Tuple[int, List[str]]]:
    """(n_positional, keyword names), or None when the shape is dynamic
    (starred/double-starred arguments defeat static arity checks)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    keywords: List[str] = []
    for kw in call.keywords:
        if kw.arg is None:
            return None
        keywords.append(kw.arg)
    return (len(call.args), keywords)


@register
class RouterSurfaceParity(ProjectRule):
    """The Network hot path (including the sanitizer and fault layers)
    uses a router member that does not exist — or is not callable the
    same way — on both the object :class:`Router` and the SoA
    :class:`SoaRouter` view.  The two representations are selected by
    configuration, so a one-sided member is a latent crash on the other
    backend."""

    name = "router-surface-parity"
    code = "REPRO821"
    invariant = ("Every router member the hot path touches resolves with "
                 "a compatible shape on both Router and SoaRouter.")
    includes = ("repro.noc", "repro.verify", "repro.faults")
    pair = ("Router", "SoaRouter")
    receivers = frozenset({"routers[]", "router"})
    scan_modules = ("repro.noc.network", "repro.verify", "repro.faults")
    example_bad = """
        class Network:
            def _audit(self):
                for router in self.routers:
                    router.flush_pipeline()   # exists only on Router
    """
    example_good = """
        class Network:
            def _audit(self):
                for router in self.routers:
                    router.audit()   # defined on Router and SoaRouter
    """

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        left, right = self.pair
        if left not in project.classes or right not in project.classes:
            # Without both implementations in scope there is no parity
            # claim to prove (e.g. single-file fixtures).
            return []
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        accesses = project.cache.get(f"api_parity.{self.name}")
        if accesses is None:
            accesses = _collect_accesses(project, self.scan_modules,
                                         self.receivers)
            project.cache[f"api_parity.{self.name}"] = accesses
        for access in accesses:  # type: ignore[union-attr]
            message = self._judge(project, access)
            if message is None:
                continue
            key = (access.item.ctx.path,
                   getattr(access.node, "lineno", 0), message)
            if key not in seen:
                seen.add(key)
                findings.append(self.finding_at(access.item.ctx,
                                                access.node, message))
        return findings

    def _judge(self, project: ProjectContext,
               access: _Access) -> Optional[str]:
        left, right = self.pair
        resolutions = {name: project.resolve_member(name, access.attr)
                       for name in (left, right)}
        missing = [name for name, res in resolutions.items()
                   if res is None]
        if len(missing) == 2:
            return (f"member .{access.attr} used in "
                    f"{access.item.qualname} resolves on neither {left} "
                    f"nor {right}")
        if missing:
            present = left if missing[0] == right else right
            return (f"member .{access.attr} used in "
                    f"{access.item.qualname} exists on {present} but not "
                    f"on {missing[0]} — the hot path must work against "
                    f"both")
        if access.call is None:
            return None
        kinds = {name: res[0] for name, res in resolutions.items()
                 if res is not None}
        is_method = {name: kind == "method"
                     for name, kind in kinds.items()}
        if is_method[left] != is_method[right]:
            method_side = left if is_method[left] else right
            other = right if is_method[left] else left
            return (f".{access.attr} is a method on {method_side} but a "
                    f"{kinds[other]} on {other} — calling it cannot work "
                    f"on both")
        if not is_method[left]:
            return None  # calling a stored callable: shape unknown
        shape = _call_shape(access.call)
        if shape is None:
            return None
        n_pos, keywords = shape
        for name, res in resolutions.items():
            func = res[1] if res is not None else None
            if func is None:
                continue
            error = call_arity_error(func, n_pos, keywords, bound=True)
            if error:
                return (f"call to .{access.attr} in "
                        f"{access.item.qualname} does not fit "
                        f"{name}.{access.attr}: {error}")
        return None
