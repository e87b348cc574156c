"""81x: RNG stream isolation, proven by taint propagation.

Determinism in this simulator hinges on stream discipline: fault
injection draws from ``DeterministicRng`` forks salted per fault class,
workload generators draw from their own forks, and neither may consume
the other's stream (otherwise toggling faults perturbs the workload —
the exact nondeterminism the fault framework exists to prevent).

The pass taints every ``DeterministicRng(...)`` construction with the
*family* of its defining module (``repro.faults`` -> fault,
``repro.traffic``/``repro.memory``/``repro.apps`` -> workload, anything
else neutral), refines the taint through ``.fork(SALT)`` calls using the
fault-class salt constants, and propagates it through local aliases,
``self.X`` attribute stores and constructor/function arguments (a small
cross-function environment iterated to a fixed point).  Draw methods
(``random``/``randint``/``choice``/...) invoked on a stream tainted with
the *other* family are REPRO811; two forks of the same parent with the
same resolved salt are REPRO812 (identical streams masquerading as
independent ones).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.dataflow import PathEval, State, iter_elements, \
    solve_forward
from repro.analysis.flow.project import FuncItem, ProjectContext
from repro.analysis.rules import ProjectRule, register

Labels = FrozenSet[str]
EMPTY: Labels = frozenset()

#: Methods that consume entropy from a stream.
DRAW_METHODS = frozenset({
    "random", "randint", "randbits", "choice", "choices", "gauss",
    "expovariate", "shuffle", "bernoulli", "sample", "uniform",
})

#: Attributes that hand out a stream's raw draw function
#: (``DeterministicRng.uniform``).  Loading one is audited as a draw:
#: the calls through the bound function that follow are otherwise
#: invisible to the pass.
DRAW_ACCESSORS = frozenset({"uniform"})

#: Fault-class salt constant names -> stream class tag.
SALT_NAMES: Dict[str, str] = {
    "BITFLIP_SALT": "bitflip",
    "DROP_SALT": "drop",
    "CREDIT_LOSS_SALT": "credit-loss",
    "STUCK_SALT": "stuck",
    "FAILSTOP_SALT": "failstop",
}

_WORKLOAD_PREFIXES = ("repro.traffic", "repro.memory", "repro.apps")
_FAULT_PREFIX = "repro.faults"

#: Passes over the whole program to close attr/param taint environments
#: (construct -> store on self -> pass to helper -> store again).
_ENV_PASSES = 4


def stream_family(module: str) -> str:
    """fault / workload / neutral, from the dotted module name."""
    if module == _FAULT_PREFIX or module.startswith(_FAULT_PREFIX + "."):
        return "fault"
    for prefix in _WORKLOAD_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return "workload"
    return "neutral"


def _salt_values() -> Dict[str, int]:
    """Fault salt constants, lazily imported from the simulator (the
    values live with the fault layer)."""
    try:
        from repro.faults import config as fault_config
    except ImportError:  # pragma: no cover - simulator not importable
        return {}
    return {name: getattr(fault_config, name)
            for name in SALT_NAMES if hasattr(fault_config, name)}


def _is_rng(label: str) -> bool:
    return label.startswith("rng:")


def _rng_only(labels: Labels) -> Labels:
    return frozenset(label for label in labels if _is_rng(label))


class RngTaintEval(PathEval):
    """Path evaluator that additionally carries ``rng:*`` taint labels.

    Path labels and rng labels coexist in the same sets; rng labels are
    never path-extended (``rng:fault`` stays ``rng:fault`` through
    attribute access — the *receiver's* taint is what matters at a draw
    site, and :meth:`eval_attribute` re-attaches it).
    """

    def __init__(self, family: str, class_name: Optional[str],
                 qualname: str,
                 attr_env: Dict[Tuple[str, str], Labels],
                 param_env: Dict[Tuple[str, str], Labels]):
        self.family = family
        self.class_name = class_name
        self.qualname = qualname
        self.attr_env = attr_env
        self.param_env = param_env

    def unknown_name(self, name: str) -> Labels:
        extra = self.param_env.get((self.qualname, name), EMPTY)
        return frozenset({name}) | extra

    def eval_attribute(self, expr: ast.Attribute, state: State) -> Labels:
        base = self.eval(expr.value, state)
        paths = self._extend(frozenset(label for label in base
                                       if not _is_rng(label)),
                             "." + expr.attr)
        out = set(paths)
        # ``self.X`` where X is a taint-stored attribute of this class.
        if self.class_name is not None and "self" in base:
            out |= self.attr_env.get((self.class_name, expr.attr), EMPTY)
        # Accessing an attribute of a tainted object keeps the object's
        # taint on the result: ``sched.rng`` is as fault-tainted as
        # ``sched``.
        out |= _rng_only(base)
        return frozenset(out)

    def eval_subscript(self, expr: ast.Subscript, state: State) -> Labels:
        base = super().eval_subscript(expr, state)
        inner = self.eval(expr.value, dict(state))
        return base | _rng_only(inner)

    def unpack_labels(self, labels: Labels) -> Labels:
        return super().unpack_labels(labels) | _rng_only(labels)

    def eval_call(self, expr: ast.Call, state: State) -> Labels:
        func = expr.func
        if _is_rng_constructor(func):
            return frozenset({f"rng:{self.family}"})
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, state)
            if func.attr == "fork":
                return self._fork_labels(receiver, expr)
            if func.attr in DRAW_METHODS:
                # Drawn values are plain numbers; the stream taint stops
                # at the draw (the draw itself is what the rule audits).
                return EMPTY
            return _rng_only(receiver)
        self.eval(func, state)
        return EMPTY

    def _fork_labels(self, receiver: Labels, call: ast.Call) -> Labels:
        rng = _rng_only(receiver)
        if not rng:
            return EMPTY
        salt_class = _salt_class(call)
        out: Set[str] = set()
        for label in rng:
            if label == "rng:fault" and salt_class:
                out.add(f"rng:fault:{salt_class}")
            elif label == "rng:neutral" and salt_class:
                # A neutral stream forked with a fault salt *becomes* a
                # fault-class stream (the salt names the consumer).
                out.add(f"rng:fault:{salt_class}")
            else:
                out.add(label)
        return frozenset(out)


def _salt_class(call: ast.Call) -> Optional[str]:
    if not call.args:
        return None
    salt = call.args[0]
    if isinstance(salt, ast.Name):
        return SALT_NAMES.get(salt.id)
    if isinstance(salt, ast.Attribute):
        return SALT_NAMES.get(salt.attr)
    return None


def _is_rng_constructor(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "DeterministicRng"
    if isinstance(func, ast.Attribute):
        return func.attr == "DeterministicRng"
    return False


class _DrawSite:
    """One entropy-consuming call (or draw-accessor load) with the
    receiver's solved taints."""

    __slots__ = ("item", "call", "method", "taints")

    def __init__(self, item: FuncItem, call: ast.expr, method: str,
                 taints: Labels):
        self.item = item
        self.call = call
        self.method = method
        self.taints = taints


class _ForkSite:
    """One ``.fork(salt)`` call with receiver taints + resolved salt."""

    __slots__ = ("item", "call", "receiver", "salt")

    def __init__(self, item: FuncItem, call: ast.Call, receiver: Labels,
                 salt: Optional[int]):
        self.item = item
        self.call = call
        self.receiver = receiver
        self.salt = salt


class _TaintScan:
    """Shared product of the taint pass (cached on the project)."""

    def __init__(self, draws: List[_DrawSite], forks: List[_ForkSite]):
        self.draws = draws
        self.forks = forks


def _scan(project: ProjectContext) -> _TaintScan:
    cached = project.cache.get("rng_streams.scan")
    if cached is not None:
        return cached  # type: ignore[return-value]
    items = [item for item in project.functions(("repro",))]
    attr_env: Dict[Tuple[str, str], Labels] = {}
    param_env: Dict[Tuple[str, str], Labels] = {}
    salts = _salt_values()
    draws: List[_DrawSite] = []
    forks: List[_ForkSite] = []
    for _ in range(_ENV_PASSES):
        changed = False
        for item in items:
            ev = RngTaintEval(stream_family(item.ctx.module),
                              item.class_name, item.qualname,
                              attr_env, param_env)
            states = solve_forward(project.cfg_for(item.node), ev)
            for elem, state in iter_elements(
                    project.cfg_for(item.node), ev, states):
                changed |= _harvest_elem(project, item, ev, elem, state,
                                         attr_env, param_env)
        if not changed:
            break
    for item in items:
        ev = RngTaintEval(stream_family(item.ctx.module),
                          item.class_name, item.qualname,
                          attr_env, param_env)
        states = solve_forward(project.cfg_for(item.node), ev)
        for elem, state in iter_elements(
                project.cfg_for(item.node), ev, states):
            _report_elem(item, ev, elem, state, salts, draws, forks)
    scan = _TaintScan(draws, forks)
    project.cache["rng_streams.scan"] = scan
    return scan


def _harvest_elem(project: ProjectContext, item: FuncItem,
                  ev: RngTaintEval, elem: ast.AST, state: State,
                  attr_env: Dict[Tuple[str, str], Labels],
                  param_env: Dict[Tuple[str, str], Labels]) -> bool:
    """Grow the cross-function taint environments from one element."""
    changed = False
    if isinstance(elem, (ast.Assign, ast.AnnAssign)) and \
            getattr(elem, "value", None) is not None:
        value = elem.value
        assert value is not None
        labels = _rng_only(ev.eval(value, dict(state)))
        if labels and item.class_name is not None:
            targets = (elem.targets if isinstance(elem, ast.Assign)
                       else [elem.target])
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    key = (item.class_name, target.attr)
                    merged = attr_env.get(key, EMPTY) | labels
                    if merged != attr_env.get(key, EMPTY):
                        attr_env[key] = merged
                        changed = True
    for expr in _elem_exprs(elem):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                changed |= _harvest_call(project, ev, node, state,
                                         param_env)
    return changed


def _harvest_call(project: ProjectContext, ev: RngTaintEval,
                  call: ast.Call, state: State,
                  param_env: Dict[Tuple[str, str], Labels]) -> bool:
    """Map tainted call arguments onto the callee's parameters."""
    if not isinstance(call.func, ast.Name):
        return False
    name = call.func.id
    target: Optional[Tuple[str, ast.FunctionDef]] = None
    info = project.classes.get(name)
    if info is not None and "__init__" in info.methods:
        target = (f"{name}.__init__", info.methods["__init__"])
    else:
        for item in project.functions(("repro",)):
            if item.class_name is None and item.chain == (name,):
                target = (name, item.node)
                break
    if target is None:
        return False
    qualname, func = target
    params = [a.arg for a in func.args.posonlyargs + func.args.args]
    if info is not None and params:
        params = params[1:]  # drop self
    changed = False
    bindings: List[Tuple[str, ast.expr]] = list(
        zip(params, call.args))
    bindings.extend((kw.arg, kw.value) for kw in call.keywords
                    if kw.arg is not None)
    for param, arg in bindings:
        labels = _rng_only(ev.eval(arg, dict(state)))
        if not labels:
            continue
        key = (qualname, param)
        merged = param_env.get(key, EMPTY) | labels
        if merged != param_env.get(key, EMPTY):
            param_env[key] = merged
            changed = True
    return changed


def _report_elem(item: FuncItem, ev: RngTaintEval, elem: ast.AST,
                 state: State, salts: Dict[str, int],
                 draws: List[_DrawSite], forks: List[_ForkSite]) -> None:
    for expr in _elem_exprs(elem):
        # ast.walk is breadth-first: a call is seen before its callee.
        callees: Set[int] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and \
                    node.attr in DRAW_ACCESSORS and \
                    id(node) not in callees:
                taints = _rng_only(ev.eval(node.value, dict(state)))
                if taints:
                    draws.append(_DrawSite(item, node, node.attr, taints))
                continue
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            callees.add(id(node.func))
            receiver = ev.eval(node.func.value, dict(state))
            taints = _rng_only(receiver)
            if node.func.attr in DRAW_METHODS and taints:
                draws.append(_DrawSite(item, node, node.func.attr,
                                       taints))
            elif node.func.attr == "fork" and taints:
                forks.append(_ForkSite(item, node, receiver,
                                       _fold_salt(item, node, salts)))


def _fold_salt(item: FuncItem, call: ast.Call,
               salts: Dict[str, int]) -> Optional[int]:
    if not call.args:
        return None
    salt = call.args[0]
    value = item.ctx.fold_int(salt)
    if value is not None:
        return value
    if isinstance(salt, ast.Name) and salt.id in salts:
        return salts[salt.id]
    if isinstance(salt, ast.Attribute) and salt.attr in salts:
        return salts[salt.attr]
    return None


def _elem_exprs(elem: ast.AST) -> List[ast.expr]:
    from repro.analysis.flow.cfg import element_exprs
    return element_exprs(elem)


@register
class RngStreamIsolation(ProjectRule):
    """An RNG stream crosses subsystem boundaries: a fault-class stream
    (``DeterministicRng`` forked with a fault salt, or constructed in
    ``repro.faults``) is drawn from in a workload module, or a workload
    stream is drawn from in fault code.  Sharing one stream couples the
    two subsystems' entropy: enabling fault injection would then shift
    every subsequent workload draw, destroying run-to-run comparability
    between faulty and fault-free executions of the same seed."""

    name = "rng-stream-isolation"
    code = "REPRO811"
    invariant = ("Fault-class RNG streams are drawn only by fault code; "
                 "workload streams only by traffic/memory/app code.")
    includes = ("repro.faults", "repro.traffic", "repro.memory",
                "repro.apps", "repro.noc")
    example_bad = """
        # repro/traffic/generator.py
        class Generator:
            def __init__(self, fault_rng):
                self.rng = fault_rng.fork(BITFLIP_SALT)
            def next_packet(self):
                return self.rng.randint(0, 7)   # workload drawing a
                                                # fault-class stream
    """
    example_good = """
        # repro/traffic/generator.py
        class Generator:
            def __init__(self, seed):
                self.rng = DeterministicRng(seed).fork(1)
            def next_packet(self):
                return self.rng.randint(0, 7)
    """

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for draw in _scan(project).draws:
            family = stream_family(draw.item.ctx.module)
            fault = sorted(t for t in draw.taints
                           if t.startswith("rng:fault"))
            workload = "rng:workload" in draw.taints
            if family == "workload" and fault:
                findings.append(self.finding_at(
                    draw.item.ctx, draw.call,
                    f"workload code {draw.item.qualname} draws "
                    f"({draw.method}) from a fault-class stream "
                    f"[{', '.join(fault)}] — fault and workload entropy "
                    f"must stay isolated"))
            elif family == "fault" and workload:
                findings.append(self.finding_at(
                    draw.item.ctx, draw.call,
                    f"fault code {draw.item.qualname} draws "
                    f"({draw.method}) from a workload stream — fault "
                    f"and workload entropy must stay isolated"))
        return findings


@register
class RngSaltCollision(ProjectRule):
    """Two forks of the same parent RNG resolve to the same salt, so the
    "independent" streams are bit-identical.  Salt collisions are
    invisible at runtime (both streams are individually well-distributed)
    but correlate whatever the two consumers do — e.g. bit-flips landing
    exactly when packets drop."""

    name = "rng-salt-collision"
    code = "REPRO812"
    invariant = ("Within one function, forks of the same parent stream "
                 "use distinct (resolvable) salts.")
    includes = ("repro.faults", "repro.traffic", "repro.memory",
                "repro.apps", "repro.noc")
    example_bad = """
        rng = DeterministicRng(seed)
        bitflip = rng.fork(1)
        drop = rng.fork(BITFLIP_SALT)   # BITFLIP_SALT == 1: same stream
    """
    example_good = """
        rng = DeterministicRng(seed)
        bitflip = rng.fork(BITFLIP_SALT)
        drop = rng.fork(DROP_SALT)
    """

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        by_parent: Dict[Tuple[str, Labels, int], _ForkSite] = {}
        for fork in _scan(project).forks:
            if fork.salt is None:
                continue
            key = (fork.item.qualname, fork.receiver, fork.salt)
            prior = by_parent.get(key)
            if prior is None:
                by_parent[key] = fork
            elif prior.call is not fork.call:
                line = getattr(prior.call, "lineno", 0)
                findings.append(self.finding_at(
                    fork.item.ctx, fork.call,
                    f"fork salt {fork.salt} in {fork.item.qualname} "
                    f"collides with the fork at line {line} — identical "
                    f"salts on the same parent produce identical "
                    f"streams"))
        return findings
