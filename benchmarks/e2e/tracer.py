"""Layer tracer: spans and counters at function boundaries, from outside.

The benchmark measures each layer without touching the program: for the
duration of one workload it replaces chosen functions and methods with
timing wrappers, then puts the originals back.  Stdlib only.

* A **span** wrapper records calls, total time and self time (total minus
  the time covered by spans nested inside it).  Each thread keeps its own
  span stack, so spans opened by executor threads (the campaign service's
  journal appends) nest correctly.  Results are aggregated per
  ``(span, parent span)`` in memory and read once, at the end.
* A **counter** wrapper only counts calls: cheap enough for per-cycle
  boundaries such as ``Network.step``.
* An ``observe(result, args, kwargs)`` hook lets a boundary add derived
  counts (cache hits, skipped cycles) through :meth:`Tracer.add`.

Binding: :meth:`Tracer.function` rebinds *every* module-level name bound
to the same function object (``figures.run_trace`` as well as
``experiment.run_trace``), so a refactor that reroutes calls through
another import stays traced.  A boundary that no longer resolves is
recorded in :attr:`Tracer.warnings` and skipped; it never raises.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Observe = Callable[[object, tuple, dict], None]

#: Top-level package whose module namespaces :meth:`Tracer.function`
#: rebinds.
PACKAGE = "repro"


class _ThreadState:
    """One thread's span stack and aggregation tables."""

    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: (span, parent) -> [calls, total_ns, self_ns]
        self.spans: Dict[Tuple[str, Optional[str]], List[int]] = {}
        self.counts: Dict[str, int] = defaultdict(int)


class Tracer:
    """Installs boundary wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (owner, attribute, original value), in installation order.
        self._patches: List[Tuple[object, str, object]] = []
        #: span/counter name -> number of bindings wrapped.
        self.bound: Dict[str, int] = defaultdict(int)
        #: Boundaries that could not be resolved on this tree.
        self.warnings: List[str] = []

    # --------------------------------------------------------- recording

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def add(self, name: str, amount: int = 1) -> None:
        """Add to a named count (from an observe hook or a workload)."""
        self._state().counts[name] += amount

    def span(self, name: str, fn: Callable,
             observe: Optional[Observe] = None) -> Callable:
        """Wrap ``fn`` so each call records a ``name`` span.

        A call made while ``name`` is already the innermost open span (a
        subclass ``encode`` calling ``super().encode``) passes straight
        through, so one logical call is counted once."""
        local = self._local
        new_state = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent is not None else None)
                row = state.spans.get(key)
                if row is None:
                    row = state.spans[key] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call increments the ``name`` count."""
        local = self._local
        new_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            state.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ installation

    def function(self, name: str, module: str, attr: str,
                 observe: Optional[Observe] = None) -> bool:
        """Trace the module-level function ``module.attr`` under ``name``,
        rebinding it in every loaded module of the traced package that
        holds the same object.  Returns False (with a warning) when it does
        not resolve."""
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError) as exc:
            self.warnings.append(f"{name}: {module}.{attr} unresolved ({exc})")
            return False
        if not callable(original):
            self.warnings.append(f"{name}: {module}.{attr} is not callable")
            return False
        wrapper = self.span(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != PACKAGE:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    self.bound[name] += 1
        return True

    def method(self, name: str, cls: type, attr: str, kind: str = "span",
               observe: Optional[Observe] = None) -> bool:
        """Trace ``cls.attr`` (defined on ``cls`` itself) under ``name``."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.warnings.append(
                f"{name}: {cls.__module__}.{cls.__qualname__}.{attr} "
                "unresolved")
            return False
        if not callable(raw):
            self.warnings.append(f"{name}: {cls.__qualname__}.{attr} is "
                                 "not a plain method")
            return False
        replacement = (self.counter(name, raw) if kind == "count"
                       else self.span(name, raw, observe))
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)
        self.bound[name] += 1
        return True

    def methods(self, name: str, classes: Iterable[type], attr: str) -> bool:
        """Trace ``attr`` on every class in ``classes`` that defines a
        concrete one itself."""
        found = False
        for cls in classes:
            raw = cls.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            found = self.method(name, cls, attr) or found
        if not found:
            self.warnings.append(f"{name}: no class defines {attr!r}")
        return found

    def restore(self) -> None:
        """Put every original back (reverse installation order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- results

    def report(self) -> dict:
        """Aggregated spans and counts across every thread."""
        spans: Dict[Tuple[str, Optional[str]], List[int]] = {}
        counts: Dict[str, int] = defaultdict(int)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in list(state.spans.items()):
                row = spans.setdefault(key, [0, 0, 0])
                row[0] += calls
                row[1] += total
                row[2] += own
            for key, value in list(state.counts.items()):
                counts[key] += value
        return {
            "spans": [{"span": span, "parent": parent, "calls": calls,
                       "total_s": total / 1e9, "self_s": own / 1e9}
                      for (span, parent), (calls, total, own)
                      in sorted(spans.items(), key=lambda kv: (kv[0][0],
                                                               str(kv[0][1])))],
            "counts": dict(sorted(counts.items())),
            "bound": dict(sorted(self.bound.items())),
            "warnings": list(self.warnings),
        }

