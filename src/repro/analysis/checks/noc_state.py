"""NoC state encapsulation rules (6xx) backing the NoCSan sanitizer.

The runtime sanitizer (:mod:`repro.verify.sanitizer`) audits router/NI
state — credits, VC ownership, occupancy caches — assuming every mutation
flows through the ``Router``/``NetworkInterface`` methods it understands.
These rules make that assumption machine-checked at lint time:

* REPRO601 forbids mutating the protected state attributes from anywhere
  else in the package;
* REPRO602 keeps :data:`repro.verify.static.VALIDATED_CONFIG_FIELDS` in
  lockstep with the ``NocConfig`` dataclass, so a new knob cannot ship
  without a validation rule in the static verifier.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Iterator, Optional

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Router/NI state only their own methods may mutate: the sanitizer's
#: conservation and protocol audits are sound only if these change through
#: the accept/credit/traverse/inject paths it instruments.
PROTECTED_STATE_ATTRS: FrozenSet[str] = frozenset({
    "out_credits", "out_owner", "out_vc", "_occupied", "_buffered",
    "_credits",
})

#: Method names that mutate a container in place.
_MUTATING_METHODS: FrozenSet[str] = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "update",
})


@register
class NocStateMutation(Rule):
    """Router/NI protocol state is mutated only by Router/NI methods."""

    name = "noc-state-mutation"
    code = "REPRO601"
    invariant = ("Credit counts, VC ownership and occupancy caches must "
                 "only change inside repro.noc.router / repro.noc.ni: "
                 "NoCSan's conservation audits certify those paths, and an "
                 "out-of-band write is invisible to them until it corrupts "
                 "a simulation.")
    includes = ("repro",)
    excludes = ("repro.noc.router", "repro.noc.ni", "repro.noc.core_soa")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = self._protected_attr(target)
                    if attr is not None:
                        yield self.finding(
                            ctx, node,
                            f"direct write to protected NoC state "
                            f"{attr!r}: route the mutation through a "
                            f"Router/NetworkInterface method so NoCSan "
                            f"can audit it")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = self._protected_attr(target)
                    if attr is not None:
                        yield self.finding(
                            ctx, node,
                            f"delete of protected NoC state {attr!r} "
                            f"outside Router/NetworkInterface")
            elif isinstance(node, ast.Call):
                attr = self._mutating_call_attr(node)
                if attr is not None:
                    yield self.finding(
                        ctx, node,
                        f"in-place mutation of protected NoC state "
                        f"{attr!r} via container method: route it "
                        f"through a Router/NetworkInterface method")

    def _protected_attr(self, target: ast.expr) -> Optional[str]:
        """Protected attribute written to by ``target``, if any."""
        for node in self._unwrap(target):
            if isinstance(node, ast.Attribute) and \
                    node.attr in PROTECTED_STATE_ATTRS:
                return node.attr
        return None

    def _unwrap(self, target: ast.expr) -> Iterator[ast.expr]:
        """The attribute/subscript chain of an assignment target,
        outermost first (``a.b[c].d`` -> ``a.b[c].d``, ``a.b[c]``,
        ``a.b``); tuple/list targets recurse into their elements."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._unwrap(element)
            return
        node: ast.expr = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            yield node
            node = node.value

    def _mutating_call_attr(self, call: ast.Call) -> Optional[str]:
        """``x.<protected>.append(...)``-style in-place mutations."""
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS):
            return None
        owner = func.value
        while isinstance(owner, ast.Subscript):
            owner = owner.value
        if isinstance(owner, ast.Attribute) and \
                owner.attr in PROTECTED_STATE_ATTRS:
            return owner.attr
        return None


@register
class ConfigFieldValidation(Rule):
    """Every NocConfig field has a rule in the static verifier."""

    name = "config-field-validation"
    code = "REPRO602"
    invariant = ("A NocConfig field absent from repro.verify.static."
                 "VALIDATED_CONFIG_FIELDS has no validation rule: the "
                 "static verifier would silently accept garbage values "
                 "for it and VERIFY201 would reject every config at run "
                 "time.")
    includes = ("repro.noc.config",)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        # Imported lazily: the analysis engine must not pull the simulator
        # packages in at registry-population time.
        from repro.verify.static import VALIDATED_CONFIG_FIELDS
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or \
                    node.name != "NocConfig":
                continue
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                field = stmt.target.id
                if field.startswith("_") or self._is_classvar(stmt):
                    continue
                if field not in VALIDATED_CONFIG_FIELDS:
                    yield self.finding(
                        ctx, stmt,
                        f"NocConfig field {field!r} is not registered in "
                        f"repro.verify.static.VALIDATED_CONFIG_FIELDS: "
                        f"add a validation rule to the static verifier")

    def _is_classvar(self, stmt: ast.AnnAssign) -> bool:
        annotation = stmt.annotation
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if isinstance(annotation, ast.Attribute):
            return annotation.attr == "ClassVar"
        return isinstance(annotation, ast.Name) and \
            annotation.id == "ClassVar"
