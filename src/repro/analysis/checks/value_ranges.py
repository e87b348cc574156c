"""Flow-proved value-range rules (9xx).

Where the 2xx family pattern-matched syntax, this family runs the
abstract interpreter (:mod:`repro.analysis.flow.absint`) over every
function and *proves* range facts about the values themselves:

* REPRO901 — every shift amount provably stays inside the 32-bit word;
* REPRO902 — un-masked ``*word``/``*pattern`` arithmetic provably cannot
  escape ``[0, 2**32)`` on any path;
* REPRO903 — division/modulo whose divisor the analysis can bound *and*
  which may be zero;
* REPRO904 — the AVCL error-bound certifier: for every registered
  ``(mode, e%)`` scheme it enumerates magnitude buckets, abstractly
  executes the mask construction in :mod:`repro.core.avcl` and proves
  ``|approx - exact| <= factor * e% * |exact|`` in exact rational
  arithmetic, then checks the consumers (APCL / DI-VAXX / FP-VAXX)
  actually honour the mask and the bypass flag.

The datapath modules (``repro.core`` / ``repro.compression`` /
``repro.util``) are analyzed with interprocedural summaries computed
over that closed world; everything else runs with empty summaries so no
open-world assumption leaks into a proof.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import (Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.flow.absint import (DATAPATH_PREFIXES, FuncAnalysis,
                                        Summaries, compute_summaries,
                                        module_seq_constants)
from repro.analysis.flow.cfg import element_exprs
from repro.analysis.flow.domains import (WORD_BITS, WORD_MASK,
                                         AbstractValue, Interval)
from repro.analysis.flow.project import ProjectContext
from repro.analysis.rules import ProjectRule, register

#: Names whose value is, by repo convention, a raw 32-bit word.
WORDISH_SUFFIXES = ("word", "pattern")

#: Masks whose application bounds a word expression.
MASK_NAMES = {"WORD_MASK", "MANTISSA_MASK", "EXPONENT_MASK"}

#: Calls that normalize their argument back into 32-bit range.
NORMALIZING_CALLS = {"to_unsigned", "to_signed"}

#: Pure shrink-or-compare helpers a word value may pass through on its
#: way to a comparison sink without re-entering the datapath.
_PASSTHROUGH_CALLS = {"abs", "min", "max"}


def _is_datapath(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in DATAPATH_PREFIXES)


def _shared_summaries(project: ProjectContext) -> Summaries:
    """Datapath summaries, computed once per analysis run."""
    key = "value-ranges:summaries"
    cached = project.cache.get(key)
    if not isinstance(cached, Summaries):
        cached = compute_summaries(project)
        project.cache[key] = cached
    return cached


class _ModuleEnvs:
    """Abstract environments for every expression node of one module.

    Runs :class:`FuncAnalysis` over each function and records, per AST
    node, the environment in force where the node is evaluated.  Nodes
    outside any function (module level, decorators, defaults) fall back
    to a constants-only evaluation.
    """

    def __init__(self, project: ProjectContext, ctx: ModuleContext,
                 summaries: Summaries) -> None:
        seqs = module_seq_constants(ctx.tree)
        self._entries: Dict[int, Tuple[FuncAnalysis, Dict[str, AbstractValue]]]
        self._entries = {}
        for item in project.functions((ctx.module,)):
            if item.ctx is not ctx:
                continue
            analysis = FuncAnalysis(item.node,
                                    cfg=project.cfg_for(item.node),
                                    constants=ctx.constants,
                                    class_name=item.class_name,
                                    summaries=summaries,
                                    seq_constants=seqs)
            analysis.run()
            for elem, env in analysis.iter_states():
                used = analysis.env_after_calls(elem, env)
                for expr in element_exprs(elem):
                    for node in ast.walk(expr):
                        self._entries[id(node)] = (analysis, used)
        scope = ast.parse("def _module_scope(): pass").body[0]
        assert isinstance(scope, ast.FunctionDef)
        self._fallback = FuncAnalysis(scope, constants=ctx.constants,
                                      summaries=summaries,
                                      seq_constants=seqs)

    def value_of(self, node: ast.expr) -> AbstractValue:
        entry = self._entries.get(id(node))
        if entry is None:
            return self._fallback.eval(node, {})
        analysis, env = entry
        return analysis.eval(node, env)


def _module_envs(project: ProjectContext, ctx: ModuleContext
                 ) -> _ModuleEnvs:
    """Per-module environment maps, cached on the project context.

    Datapath modules share the closed-world summaries; any other module
    (``repro.noc``, harness code, fixtures) is analyzed with *empty*
    summaries so its proofs assume nothing about callers.
    """
    key = f"value-ranges:envs:{id(ctx)}"
    cached = project.cache.get(key)
    if not isinstance(cached, _ModuleEnvs):
        summaries = (_shared_summaries(project)
                     if _is_datapath(ctx.module) else Summaries())
        cached = _ModuleEnvs(project, ctx, summaries)
        project.cache[key] = cached
    return cached


def _modules_under(project: ProjectContext, rule: "ProjectRule"
                   ) -> Iterator[ModuleContext]:
    for module, ctx in sorted(project.modules.items()):
        if rule.applies_to(module):
            yield ctx


def _binop_shifts(tree: ast.AST) -> Iterator[Tuple[ast.AST, ast.expr,
                                                   Optional[ast.expr], str]]:
    """Every shift site: ``(node, amount_expr, base_expr_or_None, op)``.

    ``base_expr`` is None for augmented shifts (``x <<= k``), whose base
    is by definition non-constant.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.LShift, ast.RShift)):
            op = "<<" if isinstance(node.op, ast.LShift) else ">>"
            yield node, node.right, node.left, op
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.op, (ast.LShift, ast.RShift)):
            op = "<<=" if isinstance(node.op, ast.LShift) else ">>="
            yield node, node.value, None, op


@register
class ShiftRangeProved(ProjectRule):
    """Shift amounts must provably stay inside the 32-bit word.

    Everywhere under ``repro`` a constant-foldable amount is checked
    exactly as the retired REPRO201 heuristic did (negative amounts and
    ``>= 32`` on a non-constant base are flagged; constant-building
    expressions with a literal base are exempt).  In the datapath
    modules the obligation is stronger: a *non-constant* amount must be
    proved in range by the abstract interpreter — ``[0, 31]`` for a
    non-constant base, ``[0, 32]`` for a constant base (``1 << k`` may
    deliberately build the ``2**32`` modulus).
    """

    name = "shift-range"
    code = "REPRO901"
    invariant = ("A shift of >= 32 on a 32-bit datapath is undefined in "
                 "the modelled hardware (and silently 'works' in Python); "
                 "in repro.core/.compression/.util every non-constant "
                 "shift amount carries a static range-proof obligation.")
    includes = ("repro",)
    example_bad = """
        def scale(word, shift):          # shift unconstrained: no proof
            return word >> shift
    """
    example_good = """
        def scale(word, shift):
            if not 0 <= shift < 32:      # branch refinement proves the
                raise ValueError(shift)  # fall-through range
            return word >> shift
    """

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        for ctx in _modules_under(project, self):
            yield from self._check_module(project, ctx)

    def _check_module(self, project: ProjectContext,
                      ctx: ModuleContext) -> Iterator[Finding]:
        datapath = _is_datapath(ctx.module)
        envs: Optional[_ModuleEnvs] = None
        for node, amount, base, op in _binop_shifts(ctx.tree):
            folded = ctx.fold_int(amount)
            const_base = base is not None and ctx.fold_int(base) is not None
            if folded is not None:
                if folded < 0:
                    yield self.finding_at(
                        ctx, node, f"negative shift amount {folded} ({op})")
                elif folded >= WORD_BITS and not const_base:
                    yield self.finding_at(
                        ctx, node,
                        f"shift amount {folded} >= {WORD_BITS} on a "
                        f"non-constant operand: out of range for the "
                        f"32-bit datapath")
                continue
            if not datapath:
                continue
            if envs is None:
                envs = _module_envs(project, ctx)
            hi = WORD_BITS if const_base else WORD_BITS - 1
            value = envs.value_of(amount).reduced()
            if value.iv.subset_of(Interval(0, hi)):
                continue
            yield self.finding_at(
                ctx, node,
                f"cannot prove shift amount in [0, {hi}] ({op}): derived "
                f"range {value.iv}")


@register
class UnmaskedWordArithmetic(ProjectRule):
    """Word arithmetic must provably stay inside 32 bits.

    The primary verdict is a range proof: the abstract interpreter shows
    the grown value lies in ``[0, 2**32)`` on every path.  When the
    range is not provable the rule falls back to the structural
    argument the retired REPRO202 used — the value is syntactically
    re-masked, feeds only a comparison, or is a local whose every
    reached use re-masks it.
    """

    name = "unmasked-word-arith"
    code = "REPRO902"
    invariant = ("Arithmetic on *word/*pattern values must flow through "
                 "'& WORD_MASK' or to_unsigned()/to_signed() before use; "
                 "unbounded Python ints diverge from the 32-bit hardware.")
    includes = ("repro.noc", "repro.core", "repro.compression")
    example_bad = """
        def mix(word, key):
            return table[(word + key)]   # unbounded value escapes
    """
    example_good = """
        def mix(word, key):
            return table[(word + key) & WORD_MASK]
    """

    #: Operators that can carry a word out of 32-bit range.
    _GROWING_OPS = (ast.Add, ast.Sub, ast.Mult, ast.LShift, ast.Pow)

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        for ctx in _modules_under(project, self):
            yield from self._check_module(project, ctx)

    def _check_module(self, project: ProjectContext,
                      ctx: ModuleContext) -> Iterator[Finding]:
        envs: Optional[_ModuleEnvs] = None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, self._GROWING_OPS):
                continue
            if not (self._wordish(node.left) or self._wordish(node.right)):
                continue
            if self._is_masked(ctx, node):
                continue
            if envs is None:
                envs = _module_envs(project, ctx)
            value = envs.value_of(node).reduced()
            if value.in_word_range():
                continue
            if self._flow_suppressed(ctx, node):
                continue
            op_name = type(node.op).__name__
            yield self.finding_at(
                ctx, node,
                f"word arithmetic ({op_name}) on a *word/*pattern operand "
                f"not provably in [0, 2**32) (derived {value.iv}): apply "
                f"'& WORD_MASK' or to_unsigned() before the value escapes")

    # ----------------------------------------------- structural fallback

    def _flow_suppressed(self, ctx: ModuleContext, node: ast.BinOp) -> bool:
        """Structural escape hatches: the value only feeds a comparison,
        or it is a local whose every reached use re-masks it."""
        if self._comparison_sink(ctx, node):
            return True
        stmt, var = self._local_store(ctx, node)
        if stmt is None or var is None:
            return False
        func = ctx.enclosing_function(node)
        if not isinstance(func, ast.FunctionDef):
            return False
        return self._all_uses_masked(ctx, func, stmt, var)

    def _comparison_sink(self, ctx: ModuleContext, node: ast.BinOp) -> bool:
        """The expression's value feeds only a comparison, possibly via
        ``abs``/``min``/``max`` — it never re-enters the datapath, so
        Python's unbounded compare gives the same verdict the hardware
        comparator would on in-range operands."""
        current: ast.AST = node
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.BinOp):
                current = ancestor
                continue
            if isinstance(ancestor, ast.Call):
                func_name = None
                if isinstance(ancestor.func, ast.Name):
                    func_name = ancestor.func.id
                if func_name in _PASSTHROUGH_CALLS and \
                        ancestor.func is not current:
                    current = ancestor
                    continue
                return False
            if isinstance(ancestor, ast.Compare):
                return True
            if isinstance(ancestor, (ast.BoolOp, ast.UnaryOp)):
                current = ancestor
                continue
            return False
        return False

    @staticmethod
    def _local_store(ctx: ModuleContext, node: ast.BinOp
                     ) -> Tuple[Optional[ast.Assign], Optional[str]]:
        """The ``v = <node>`` statement binding this expression to a
        single local name, if that is the expression's only consumer."""
        parent = ctx.parent(node)
        if isinstance(parent, ast.Assign) and parent.value is node \
                and len(parent.targets) == 1 \
                and isinstance(parent.targets[0], ast.Name):
            return parent, parent.targets[0].id
        return None, None

    def _all_uses_masked(self, ctx: ModuleContext, func: ast.FunctionDef,
                         stmt: ast.Assign, var: str) -> bool:
        from repro.analysis.flow.cfg import build_cfg
        from repro.analysis.flow.dataflow import (AbstractEval, Labels,
                                                  iter_elements,
                                                  solve_forward)

        class _ReachingDefsEval(AbstractEval):
            def bind_labels(self, name: str, labels: Labels,
                            elem: ast.AST) -> Labels:
                return frozenset({f"def:{id(elem)}"})

        cfg = build_cfg(func)
        states = solve_forward(cfg, _ReachingDefsEval())
        def_label = f"def:{id(stmt)}"
        uses = 0
        for elem, state in iter_elements(cfg, _ReachingDefsEval(), states):
            reaching = state.get(var, frozenset())
            if def_label not in reaching:
                continue
            if isinstance(elem, ast.AugAssign) and \
                    isinstance(elem.target, ast.Name) and \
                    elem.target.id == var:
                uses += 1
                if not self._masking_augassign(ctx, elem):
                    return False
                continue
            for expr in element_exprs(elem):
                for name in ast.walk(expr):
                    if isinstance(name, ast.Name) and name.id == var \
                            and isinstance(name.ctx, ast.Load):
                        uses += 1
                        if not self._masking_use(ctx, name):
                            return False
        # A def that reaches no use is a dead store of an unmasked word —
        # keep flagging it rather than blessing unreachable code.
        return uses > 0

    def _masking_augassign(self, ctx: ModuleContext,
                           elem: ast.AugAssign) -> bool:
        """``v &= MASK`` / ``v >>= k`` / ``v %= m`` re-bound the value
        in place; any other augmented op keeps it unbounded."""
        if isinstance(elem.op, ast.BitAnd):
            return self._mask_like(ctx, elem.value)
        return isinstance(elem.op, (ast.RShift, ast.Mod))

    def _masking_use(self, ctx: ModuleContext, name: ast.Name) -> bool:
        """One ``Load`` of the tracked local is harmless when the value
        is immediately re-masked, normalized, or only compared."""
        current: ast.AST = name
        for ancestor in ctx.ancestors(name):
            if isinstance(ancestor, ast.BinOp):
                if isinstance(ancestor.op, ast.BitAnd):
                    other = (ancestor.right if ancestor.left is current
                             else ancestor.left)
                    if self._mask_like(ctx, other):
                        return True
                if isinstance(ancestor.op, (ast.RShift, ast.Mod)) \
                        and ancestor.left is current:
                    return True
                current = ancestor
                continue
            if isinstance(ancestor, ast.Call):
                func_name = None
                if isinstance(ancestor.func, ast.Name):
                    func_name = ancestor.func.id
                elif isinstance(ancestor.func, ast.Attribute):
                    func_name = ancestor.func.attr
                if func_name in NORMALIZING_CALLS:
                    return True
                if func_name in _PASSTHROUGH_CALLS and \
                        ancestor.func is not current:
                    current = ancestor
                    continue
                return False
            if isinstance(ancestor, ast.Compare):
                return True
            if isinstance(ancestor, (ast.BoolOp, ast.UnaryOp)):
                current = ancestor
                continue
            return False
        return False

    def _wordish(self, node: ast.expr) -> bool:
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return False
        lowered = name.lower()
        return any(lowered == suffix or lowered.endswith("_" + suffix)
                   or lowered.endswith(suffix)
                   for suffix in WORDISH_SUFFIXES)

    def _is_masked(self, ctx: ModuleContext, node: ast.BinOp) -> bool:
        """Walk outward through the expression looking for a masking
        operation or a normalizing call consuming the result."""
        current: ast.AST = node
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.BinOp):
                if isinstance(ancestor.op, ast.BitAnd):
                    other = (ancestor.right if ancestor.left is current
                             else ancestor.left)
                    if self._mask_like(ctx, other):
                        return True
                if isinstance(ancestor.op, (ast.RShift, ast.Mod)):
                    # ``x >> k`` shrinks; ``x % m`` bounds.
                    return True
                current = ancestor
                continue
            if isinstance(ancestor, ast.Call):
                func = ancestor.func
                func_name = None
                if isinstance(func, ast.Name):
                    func_name = func.id
                elif isinstance(func, ast.Attribute):
                    func_name = func.attr
                return func_name in NORMALIZING_CALLS
            # Any other construct (assignment, return, comparison,
            # subscript, argument position…) ends the masking window.
            return False
        return False

    def _mask_like(self, ctx: ModuleContext, node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in MASK_NAMES:
            return True
        folded = ctx.fold_int(node)
        return folded is not None and 0 <= folded <= WORD_MASK


@register
class PossibleZeroDivision(ProjectRule):
    """Division/modulo by a divisor the analysis bounds *and* which may
    be zero.

    Only positive knowledge flags: a divisor whose abstract value is top
    (unknown, or a float) is skipped — the rule reports sites where the
    interpreter has derived a concrete range that *includes* zero, e.g.
    an unguarded ``len(xs)`` or a counter that starts at 0.
    """

    name = "possible-zero-div"
    code = "REPRO903"
    invariant = ("A divisor whose derived range includes 0 is a latent "
                 "ZeroDivisionError on a reachable path; guard it "
                 "(early return, 'max(n, 1)') before dividing.")
    includes = ("repro.core", "repro.compression")
    example_bad = """
        def mean(xs):
            return sum(xs) / len(xs)     # len(xs) in [0, inf)
    """
    example_good = """
        def mean(xs):
            if not xs:
                return 0.0
            return sum(xs) / len(xs)     # branch refines len(xs) >= 1
    """

    _DIV_OPS = (ast.Div, ast.FloorDiv, ast.Mod)

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        for ctx in _modules_under(project, self):
            yield from self._check_module(project, ctx)

    def _check_module(self, project: ProjectContext,
                      ctx: ModuleContext) -> Iterator[Finding]:
        envs: Optional[_ModuleEnvs] = None
        for node in ast.walk(ctx.tree):
            divisor: Optional[ast.expr] = None
            if isinstance(node, ast.BinOp) and \
                    isinstance(node.op, self._DIV_OPS):
                divisor = node.right
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, self._DIV_OPS):
                divisor = node.value
            if divisor is None:
                continue
            if envs is None:
                envs = _module_envs(project, ctx)
            value = envs.value_of(divisor).reduced()
            if value.is_top or value.is_bottom:
                continue
            if not value.contains(0):
                continue
            yield self.finding_at(
                ctx, node,
                f"divisor may be zero on a reachable path (derived range "
                f"{value.iv}): guard before dividing")


# ---------------------------------------------------------------------------
# REPRO904 — the AVCL error-bound certifier.
# ---------------------------------------------------------------------------

#: Every (mode, e%) scheme the certifier proves.  These are the
#: thresholds the paper's experiments sweep (§5) plus the worked
#: examples of §3.2.
CERTIFIED_SCHEMES: Tuple[Tuple[str, int], ...] = tuple(
    (mode, e) for mode in ("paper", "strict") for e in (1, 5, 10, 20, 25))

#: Largest provable ratio |approx - exact| / |exact| relative to e/100.
#: ``paper`` mode's bit_length mask may overshoot the nominal threshold
#: by strictly less than 4x (shift = floor(log2(100/e)) and the mask
#: covers one bit more than the range); ``strict`` mode is exact.
MODE_FACTORS = {"paper": 4, "strict": 1}

_MAGNITUDE_CAP = 1 << (WORD_BITS - 1)
_MANTISSA_BITS = 23
_SIG_LO = 1 << _MANTISSA_BITS
_SIG_HI = (1 << (_MANTISSA_BITS + 1)) - 1


def _spec_shift(e: int, mode: str) -> int:
    """The shift the spec demands for threshold ``e%`` — computed in
    exact integer arithmetic, independently of the float ``log2`` code
    under test (the runtime agreement is cross-checked by tests)."""
    s = 0
    while (1 << (s + 1)) * e <= 100:
        s += 1
    if mode == "strict" and (1 << s) * e < 100:
        s += 1
    return s


def _magnitude_buckets(shift: int, mode: str, cap: int
                       ) -> Iterator[Tuple[int, int]]:
    """Magnitude ranges over which the constructed mask is constant.

    Bucket ``t`` holds the magnitudes whose error range
    ``rng = magnitude >> shift`` yields ``dont_care_bits == t``; within
    a bucket the worst-case deviation is fixed, so certifying the
    bucket's *lower* magnitude bound certifies every member.
    """
    yield 0, min((1 << shift) - 1, cap)  # rng == 0 -> mask 0
    t = 1
    while True:
        if mode == "paper":
            rng_lo, rng_hi = 1 << (t - 1), (1 << t) - 1
        else:
            rng_lo, rng_hi = (1 << t) - 1, (1 << (t + 1)) - 2
        mag_lo = rng_lo << shift
        if mag_lo > cap:
            return
        mag_hi = min(((rng_hi + 1) << shift) - 1, cap)
        yield mag_lo, mag_hi
        t += 1


def _class_field_order(info: ast.ClassDef) -> List[str]:
    """Dataclass field order: annotated assignments in body order."""
    out: List[str] = []
    for stmt in info.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            out.append(stmt.target.id)
    return out


def _ctor_arg(call: ast.Call, fields: List[str],
              name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if name in fields:
        idx = fields.index(name)
        if idx < len(call.args):
            return call.args[idx]
    return None


def _find_def(body: List[ast.stmt], name: str
              ) -> Optional[ast.FunctionDef]:
    for stmt in body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    return None


@register
class AvclErrorBound(ProjectRule):
    """Statically certify the AVCL's relative-error promise.

    For each registered ``(mode, e%)`` scheme the certifier abstractly
    executes the mask construction per magnitude bucket (seeding
    ``shift`` with the spec value and constraining ``magnitude`` /
    ``significand`` to the bucket), reads the ``dont_care_bits`` fed to
    every reachable ``ApproxInfo`` construction, bounds the worst-case
    deviation through the ``mask`` property, and checks
    ``deviation <= factor * e/100 * magnitude_lo`` as an exact
    :class:`fractions.Fraction` comparison.  It then verifies the
    consumers (APCL ternary patterns, DI-VAXX matching, FP-VAXX
    comparators) actually honour the mask and the ``bypass`` flag.

    Float certification bounds the *significand* deviation only — sign
    and exponent are never approximated, so the mantissa-relative bound
    transfers to the represented value, but NaN/denormal bypasses are a
    reachability argument, not a range proof.
    """

    name = "avcl-error-bound"
    code = "REPRO904"
    invariant = ("Every approximated word must deviate by at most the "
                 "configured threshold: |approx - exact| <= "
                 "factor*e%*|exact| for each registered AVCL scheme, "
                 "proved per magnitude bucket at lint time.")
    includes = ("repro.core",)
    example_bad = """
        @property
        def mask(self):
            return (2 << self.dont_care_bits) - 1   # one bit too wide
    """
    example_good = """
        @property
        def mask(self):
            return (1 << self.dont_care_bits) - 1
    """

    _AVCL_MODULE = "repro.core.avcl"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        ctx = project.modules.get(self._AVCL_MODULE)
        if ctx is None:
            return
        info = _find_class(ctx.tree, "ApproxInfo")
        int_fn = _find_def(ctx.tree.body, "_evaluate_int")
        if info is None or int_fn is None:
            yield self.finding_at(
                ctx, ctx.tree,
                "repro.core.avcl must define ApproxInfo and _evaluate_int: "
                "the AVCL error-bound certifier has nothing to anchor to")
            return
        yield from self._certify(project, ctx, info, int_fn,
                                 assume_name="magnitude",
                                 lo_cap=0, hi_cap=_MAGNITUDE_CAP)
        float_fn = _find_def(ctx.tree.body, "_evaluate_float")
        if float_fn is not None:
            yield from self._certify(project, ctx, info, float_fn,
                                     assume_name="significand",
                                     lo_cap=_SIG_LO, hi_cap=_SIG_HI)
        yield from self._check_mask_property(project, ctx, info)
        yield from self._check_consumers(project)

    # ------------------------------------------------------ certification

    def _certify(self, project: ProjectContext, ctx: ModuleContext,
                 info: ast.ClassDef, fn: ast.FunctionDef, *,
                 assume_name: str, lo_cap: int, hi_cap: int
                 ) -> Iterator[Finding]:
        summaries = _shared_summaries(project)
        seqs = module_seq_constants(ctx.tree)
        fields = _class_field_order(info)
        reported: Set[Tuple[int, str, int]] = set()
        for mode, e in CERTIFIED_SCHEMES:
            shift = _spec_shift(e, mode)
            allowed_per_unit = Fraction(MODE_FACTORS[mode] * e, 100)
            for raw_lo, raw_hi in _magnitude_buckets(shift, mode, hi_cap):
                lo, hi = max(raw_lo, lo_cap), raw_hi
                if lo > hi:
                    continue
                analysis = FuncAnalysis(
                    fn, cfg=project.cfg_for(fn),
                    constants=ctx.constants, summaries=summaries,
                    seq_constants=seqs,
                    seeds={"word": AbstractValue.word(),
                           "shift": AbstractValue.const(shift),
                           "mode": AbstractValue.str_const(mode)},
                    assume={assume_name: AbstractValue.range(lo, hi)})
                analysis.run()
                sites = 0
                for call, k_value, pattern in self._approx_sites(
                        analysis, info.name, fields):
                    sites += 1
                    key = (id(call), mode, e)
                    if key in reported:
                        continue
                    if pattern is not None and not pattern.in_word_range():
                        reported.add(key)
                        yield self.finding_at(
                            ctx, call,
                            f"[{mode} e={e}%] ApproxInfo pattern not "
                            f"provably a 32-bit word (derived "
                            f"{pattern.iv})")
                        continue
                    deviation = self._mask_bound(project, ctx, info,
                                                 k_value)
                    allowed = allowed_per_unit * lo
                    if deviation is None or \
                            Fraction(deviation) > allowed:
                        reported.add(key)
                        got = ("unbounded" if deviation is None
                               else str(deviation))
                        yield self.finding_at(
                            ctx, call,
                            f"[{mode} e={e}%] error bound violated for "
                            f"{assume_name} in [{lo}, {hi}]: worst-case "
                            f"deviation {got} exceeds allowed "
                            f"{MODE_FACTORS[mode]}*e%*|exact| = {allowed} "
                            f"(dont_care_bits derived {k_value.iv})")
                if sites == 0:
                    yield self.finding_at(
                        ctx, fn,
                        f"[{mode} e={e}%] no reachable ApproxInfo "
                        f"construction for {assume_name} in [{lo}, {hi}]: "
                        f"certification is vacuous on this bucket")
                    return

    def _approx_sites(self, analysis: FuncAnalysis, class_name: str,
                      fields: List[str]
                      ) -> Iterator[Tuple[ast.Call, AbstractValue,
                                          Optional[AbstractValue]]]:
        """Reachable ``ApproxInfo(...)`` constructions with the abstract
        ``dont_care_bits`` and ``pattern`` argument values in force."""
        for elem, env in analysis.iter_states():
            used = analysis.env_after_calls(elem, env)
            for expr in element_exprs(elem):
                for call in ast.walk(expr):
                    if not (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Name)
                            and call.func.id == class_name):
                        continue
                    k_expr = _ctor_arg(call, fields, "dont_care_bits")
                    k_value = (analysis.eval(k_expr, used)
                               if k_expr is not None
                               else AbstractValue.top())
                    p_expr = _ctor_arg(call, fields, "pattern")
                    p_value = (analysis.eval(p_expr, used)
                               if p_expr is not None else None)
                    yield call, k_value, p_value

    def _mask_bound(self, project: ProjectContext, ctx: ModuleContext,
                    info: ast.ClassDef,
                    k_value: AbstractValue) -> Optional[int]:
        """Worst-case |approx - exact| through the ``mask`` property:
        every don't-care bit maximally wrong.  None when unbounded (or
        the property is missing — nothing bounds the deviation then)."""
        mask_fn = _find_def(info.body, "mask")
        if mask_fn is None:
            return None
        summaries = Summaries()
        summaries.attrs[(info.name, "dont_care_bits")] = k_value
        analysis = FuncAnalysis(mask_fn, constants=ctx.constants,
                                class_name=info.name, summaries=summaries)
        analysis.run()
        value = analysis.return_value().reduced()
        return value.iv.hi

    # --------------------------------------------------------- consumers

    def _check_mask_property(self, project: ProjectContext,
                             ctx: ModuleContext, info: ast.ClassDef
                             ) -> Iterator[Finding]:
        """``care_pattern`` (the TCAM search key) must be a 32-bit word
        for any mask/pattern combination."""
        care_fn = _find_def(info.body, "care_pattern")
        if care_fn is None:
            return
        summaries = Summaries()
        summaries.attrs[(info.name, "pattern")] = AbstractValue.word()
        summaries.attrs[(info.name, "mask")] = AbstractValue.word()
        summaries.attrs[(info.name, "dont_care_bits")] = \
            AbstractValue.range(0, WORD_BITS)
        analysis = FuncAnalysis(care_fn, constants=ctx.constants,
                                class_name=info.name, summaries=summaries)
        analysis.run()
        value = analysis.return_value().reduced()
        if not value.in_word_range():
            yield self.finding_at(
                ctx, care_fn,
                f"ApproxInfo.care_pattern not provably a 32-bit word "
                f"(derived {value.iv})")

    def _check_consumers(self, project: ProjectContext
                         ) -> Iterator[Finding]:
        """The certified mask is only meaningful if the matchers consume
        it: APCL ternary patterns must be built from ``info.mask`` (or
        exact on bypass) and match through its complement; DI-VAXX must
        match through the ternary care mask and honour ``bypass``;
        FP-VAXX must pass ``info.mask`` to the comparator and honour
        ``bypass``."""
        apcl = project.modules.get("repro.core.apcl")
        if apcl is not None:
            yield from self._check_apcl(apcl)
        for module, needs in (("repro.core.di_vaxx",
                               (("care_mask", "the ternary care mask"),
                                ("bypass", "float special-value bypass"))),
                              ("repro.core.fp_vaxx",
                               (("mask", "the certified don't-care mask"),
                                ("bypass", "float special-value bypass")))):
            ctx = project.modules.get(module)
            if ctx is None:
                continue
            attrs = {n.attr for n in ast.walk(ctx.tree)
                     if isinstance(n, ast.Attribute)}
            for attr, what in needs:
                if attr not in attrs:
                    yield self.finding_at(
                        ctx, ctx.tree,
                        f"{module} never references .{attr}: the matcher "
                        f"does not consume {what}, so the certified bound "
                        f"does not transfer to it")

    def _check_apcl(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ast.walk(ctx.tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "TernaryPattern"):
                continue
            mask_arg: Optional[ast.expr] = None
            for kw in call.keywords:
                if kw.arg == "mask":
                    mask_arg = kw.value
            if mask_arg is None and len(call.args) >= 2:
                mask_arg = call.args[1]
            exact = (isinstance(mask_arg, ast.Constant)
                     and mask_arg.value == 0)
            from_info = (isinstance(mask_arg, ast.Attribute)
                         and mask_arg.attr == "mask")
            if not (exact or from_info):
                yield self.finding_at(
                    ctx, call,
                    "TernaryPattern mask is neither the certified "
                    "ApproxInfo.mask nor 0 (exact): the error bound does "
                    "not cover this entry")
        pattern_cls = _find_class(ctx.tree, "TernaryPattern")
        if pattern_cls is None:
            return
        for name, role in (("matches", "applies"),
                           ("care_mask", "stores for the TCAM")):
            fn = _find_def(pattern_cls.body, name)
            if fn is None:
                yield self.finding_at(
                    ctx, pattern_cls,
                    f"TernaryPattern has no {name}(): nothing {role} the "
                    f"certified don't-care mask")
                continue
            inverts_mask = any(
                isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.Invert)
                and any(isinstance(inner, ast.Attribute)
                        and inner.attr == "mask"
                        for inner in ast.walk(node.operand))
                for node in ast.walk(fn))
            if not inverts_mask:
                yield self.finding_at(
                    ctx, fn,
                    f"TernaryPattern.{name} does not go through the mask "
                    f"complement (~mask): don't-care bits are not "
                    f"actually ignored")
