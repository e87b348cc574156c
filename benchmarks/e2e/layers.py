"""The layer boundaries the traced run wraps, and the per-layer metrics.

:func:`install` wires every boundary into a :class:`tracer.Tracer`;
:data:`PER_LAYER` names each per-layer metric with its unit, the layer it
measures, the end-to-end metric and workload it should move, the
workloads on which it must be non-zero, and how it is derived from the
tracer's report.  ``BENCHMARK.json`` lists the same names (the self-test
checks both directions).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

SIM = ("regen", "fig9_suite", "saturation")

#: Packages imported before installation, so every module-level binding
#: of a traced function exists when :meth:`Tracer.function` rebinds it.
PACKAGES = ("repro.traffic", "repro.compression", "repro.core", "repro.noc",
            "repro.apps", "repro.harness", "repro.service")


def _import_all(package: str, warnings: List[str]) -> List[object]:
    """Import a package and its submodules (skipping ``__main__``)."""
    try:
        root = importlib.import_module(package)
    except ImportError as exc:
        warnings.append(f"{package}: not importable ({exc})")
        return []
    modules = [root]
    for info in pkgutil.walk_packages(getattr(root, "__path__", []),
                                      package + "."):
        if info.name.endswith("__main__"):
            continue
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError as exc:
            warnings.append(f"{info.name}: not importable ({exc})")
    return modules


def _resolve(module: str, qualname: str, warnings: List[str],
             label: str) -> Optional[type]:
    try:
        return getattr(importlib.import_module(module), qualname)
    except (ImportError, AttributeError) as exc:
        warnings.append(f"{label}: {module}.{qualname} unresolved ({exc})")
        return None


def _subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer) -> None:
    """Wrap every layer boundary for one workload (undo with
    ``tracer.restore()``)."""
    warnings = tracer.warnings
    modules = {package: _import_all(package, warnings)
               for package in PACKAGES}

    # Traffic: trace recording and every traffic source's generate().
    tracer.function("traffic.record", "repro.traffic.trace", "record_trace")
    sources = {cls for module in modules["repro.traffic"]
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("repro.traffic")}
    tracer.methods("traffic.generate",
                   sorted(sources, key=lambda c: c.__qualname__), "generate")

    # Codecs: encode/decode of every NodeCodec subclass.
    node_codec = _resolve("repro.compression.base", "NodeCodec", warnings,
                          "compression")
    if node_codec is not None:
        codecs = _subclasses(node_codec)
        tracer.methods("compression.encode", codecs, "encode")
        tracer.methods("compression.decode", codecs, "decode")

    # NI.
    ni = _resolve("repro.noc.ni", "NetworkInterface", warnings, "noc.ni")
    if ni is not None:
        for attr in ("submit", "inject", "process", "eject"):
            tracer.method(f"noc.ni.{attr}", ni, attr)

    # Router core.
    core = _resolve("repro.noc.core_soa", "SoaCore", warnings, "noc.core")
    if core is not None:
        tracer.method("noc.core.cycle", core, "cycle_all")
        tracer.method("noc.core.arrivals", core, "accept_arrivals")
        tracer.method("noc.core.credits", core, "apply_credits")

    # Network loop.
    network = _resolve("repro.noc.network", "Network", warnings,
                       "noc.network")
    if network is not None:
        tracer.method("noc.network.init", network, "__init__")
        tracer.method("noc.network.run", network, "run")
        tracer.method("noc.network.drain", network, "drain")
        tracer.method("noc.network.step", network, "step", kind="count")

    # Apps.
    tracer.function("apps.run_app", "repro.apps.suite", "run_app")

    # Harness: runs (with their event-horizon skips) and the result cache.
    def skipped(result, args, kwargs) -> None:
        tracer.add("noc.network.skipped", getattr(result, "skipped_cycles",
                                                  0))

    def cache_outcome(result, args, kwargs) -> None:
        tracer.add("harness.cache_miss" if result is None
                   else "harness.cache_hit")

    tracer.function("harness.run_trace", "repro.harness.experiment",
                    "run_trace", observe=skipped)
    tracer.function("harness.run_synthetic", "repro.harness.experiment",
                    "run_synthetic", observe=skipped)
    tracer.function("harness.cache_load", "repro.harness.parallel",
                    "load_cached", observe=cache_outcome)
    tracer.function("harness.cache_store", "repro.harness.parallel",
                    "store_cached")

    # Service: the write-ahead journal.
    def durable(result, args, kwargs) -> None:
        if kwargs.get("durable", args[2] if len(args) > 2 else False):
            tracer.add("service.journal.durable")

    journal = _resolve("repro.service.journal", "Journal", warnings,
                       "service.journal")
    if journal is not None:
        tracer.method("service.journal.append", journal, "append",
                      observe=durable)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    #: Workloads on which the metric must be non-zero on today's tree.
    fires_on: Tuple[str, ...]
    derive: Callable[["Spans", dict], float]


class Spans:
    """Query helper over a tracer report."""

    def __init__(self, report: dict):
        self.rows = report.get("spans", [])
        self.counts = report.get("counts", {})

    def total(self, span: str) -> float:
        return sum(r["total_s"] for r in self.rows if r["span"] == span)

    def own(self, span: str) -> float:
        return sum(r["self_s"] for r in self.rows if r["span"] == span)

    def calls(self, span: str) -> int:
        return sum(r["calls"] for r in self.rows if r["span"] == span)

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _extra(key: str) -> Callable[[Spans, dict], float]:
    return lambda spans, extras: float(extras.get(key, 0.0))


def _total(span: str) -> Callable[[Spans, dict], float]:
    return lambda spans, extras: spans.total(span)


def _own(*names: str) -> Callable[[Spans, dict], float]:
    return lambda spans, extras: sum(spans.own(n) for n in names)


def _calls(span: str) -> Callable[[Spans, dict], float]:
    return lambda spans, extras: spans.calls(span)


def _count(name: str) -> Callable[[Spans, dict], float]:
    return lambda spans, extras: spans.count(name)


def _cache_hit_ratio(spans: Spans, extras: dict) -> float:
    hits, misses = extras.get("encode_cache_delta", (0, 0))
    return _ratio(hits, hits + misses)


def _skipped_frac(spans: Spans, extras: dict) -> float:
    skipped = spans.count("noc.network.skipped")
    return _ratio(skipped, skipped + spans.count("noc.network.step"))


TRACES = ("regen", "fig9_suite")
SAT_BASE = "phase1_s on saturation (Baseline)"
SAT_VAXX = "phase2_s on saturation (FP-VAXX)"
SUITE_COLD = "phase1_s on fig9_suite (cold pass)"
SUITE_WARM = "phase2_s on fig9_suite (warm pass)"
REGEN = "wall_s on regen"
JOB_COLD = "phase1_s on service (cold job p50)"
JOB_WARM = "phase2_s on service (warm job p50)"

PER_LAYER: List[Metric] = [
    Metric("traffic.record_s", "s", "lower", "repro.traffic", SUITE_COLD,
           TRACES, _total("traffic.record")),
    Metric("traffic.generate_s", "s", "lower", "repro.traffic", SAT_BASE,
           SIM, _total("traffic.generate")),
    Metric("compression.encode_s", "s", "lower", "repro.compression/core",
           SAT_VAXX + "; phase1_s only slightly", SIM,
           _total("compression.encode")),
    Metric("compression.encode_calls", "count", "lower",
           "repro.compression/core", SAT_VAXX, SIM,
           _calls("compression.encode")),
    Metric("compression.decode_s", "s", "lower", "repro.compression/core",
           SUITE_COLD, SIM, _total("compression.decode")),
    Metric("compression.decode_calls", "count", "lower",
           "repro.compression/core", SUITE_COLD, SIM,
           _calls("compression.decode")),
    Metric("compression.cache_hit_ratio", "ratio", "higher",
           "repro.compression/core", SAT_VAXX, SIM, _cache_hit_ratio),
    Metric("noc.ni.submit_self_s", "s", "lower", "repro.noc NI", SAT_BASE,
           SIM, _own("noc.ni.submit")),
    Metric("noc.ni.inject_s", "s", "lower", "repro.noc NI", SAT_BASE, SIM,
           _total("noc.ni.inject")),
    Metric("noc.ni.process_self_s", "s", "lower", "repro.noc NI",
           SUITE_COLD, SIM, _own("noc.ni.process")),
    Metric("noc.ni.eject_s", "s", "lower", "repro.noc NI", SUITE_COLD, SIM,
           _total("noc.ni.eject")),
    Metric("noc.core.cycle_s", "s", "lower", "repro.noc router core",
           SAT_BASE, SIM, _total("noc.core.cycle")),
    Metric("noc.core.arrivals_s", "s", "lower", "repro.noc router core",
           SAT_BASE, SIM, _total("noc.core.arrivals")),
    Metric("noc.core.credits_s", "s", "lower", "repro.noc router core",
           SAT_BASE, SIM, _total("noc.core.credits")),
    Metric("noc.network.init_s", "s", "lower", "repro.noc network",
           "setup_s everywhere; " + REGEN + " (356 networks)", SIM,
           _total("noc.network.init")),
    Metric("noc.network.inits", "count", "lower", "repro.noc network",
           REGEN, SIM, _calls("noc.network.init")),
    Metric("noc.network.loop_self_s", "s", "lower", "repro.noc network",
           REGEN, SIM, _own("noc.network.run", "noc.network.drain")),
    Metric("noc.network.steps", "count", "lower", "repro.noc network",
           "wall_s on every simulation workload", SIM,
           _count("noc.network.step")),
    Metric("noc.network.skipped_frac", "ratio", "higher",
           "repro.noc network (event horizon)",
           "nothing while ~0 on every workload", (), _skipped_frac),
    Metric("apps.run_app_s", "s", "lower", "repro.apps", REGEN + " only",
           ("regen",), _total("apps.run_app")),
    Metric("apps.calls", "count", "lower", "repro.apps", REGEN + " only",
           ("regen",), _calls("apps.run_app")),
    Metric("harness.trace_runs", "count", "lower", "repro.harness",
           REGEN + " (spec-grid dedup: 216 -> 120)", TRACES,
           _calls("harness.run_trace")),
    Metric("harness.synthetic_runs", "count", "lower", "repro.harness",
           REGEN, ("regen", "saturation"),
           _calls("harness.run_synthetic")),
    Metric("harness.cache_hits", "count", "higher", "repro.harness cache",
           SUITE_WARM, ("fig9_suite", "service"),
           _count("harness.cache_hit")),
    Metric("harness.cache_misses", "count", "lower", "repro.harness cache",
           SUITE_COLD, ("fig9_suite",), _count("harness.cache_miss")),
    Metric("harness.cache_load_s", "s", "lower", "repro.harness cache",
           SUITE_WARM, ("fig9_suite", "service"),
           _total("harness.cache_load")),
    Metric("harness.cache_store_s", "s", "lower", "repro.harness cache",
           SUITE_COLD, ("fig9_suite",), _total("harness.cache_store")),
    Metric("service.submit_ack_s", "s", "lower", "repro.service server",
           JOB_COLD, ("service",), _extra("submit_ack_s")),
    Metric("service.first_done_s", "s", "lower", "repro.service supervisor",
           JOB_COLD, ("service",), _extra("first_done_s")),
    Metric("service.exec_s", "s", "lower", "repro.service supervisor",
           JOB_COLD, ("service",), _extra("exec_s")),
    Metric("service.seal_s", "s", "lower", "repro.service audit + seal",
           JOB_WARM, ("service",), _extra("seal_s")),
    Metric("service.cached_frac", "ratio", "higher", "repro.service cache",
           JOB_WARM, ("service",), _extra("cached_frac")),
    Metric("service.journal.append_s", "s", "lower", "repro.service journal",
           JOB_COLD, ("service",), _total("service.journal.append")),
    Metric("service.journal.appends", "count", "lower",
           "repro.service journal", JOB_COLD, ("service",),
           _calls("service.journal.append")),
    Metric("service.journal.durable_appends", "count", "lower",
           "repro.service journal", JOB_COLD, ("service",),
           _count("service.journal.durable")),
    Metric("trace_overhead_frac", "ratio", "lower", "benchmark tracer",
           "nothing (cost of the traced run itself)", SIM,
           _extra("trace_overhead_frac")),
]


def per_layer_metrics(report: dict, extras: dict) -> Dict[str, float]:
    """Every per-layer metric's value for one traced run (0 where its
    boundary never fired)."""
    spans = Spans(report)
    return {metric.name: float(metric.derive(spans, extras))
            for metric in PER_LAYER}


def calibrate(make_tracer: Callable[[], object], repeats: int = 3) -> float:
    """Measured tracing cost per span call (seconds) on a short paper-size
    simulation, timed untraced and then traced (best of ``repeats`` each,
    which discards host-noise bursts).  Multiplied by a workload's span
    calls it estimates that workload's tracing overhead."""
    import time

    from repro.harness.experiment import benchmark_trace, run_trace
    from repro.noc import PAPER_CONFIG

    trace = benchmark_trace(PAPER_CONFIG, "blackscholes", 600, seed=5)

    def best() -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_trace(PAPER_CONFIG, "FP-VAXX", trace, 150, 300)
            times.append(time.perf_counter() - start)
        return min(times)

    best()  # warm the codec caches both timings then share
    untraced = best()
    tracer = make_tracer()
    install(tracer)
    try:
        traced = best()
    finally:
        tracer.restore()
    calls = sum(row["calls"] for row in tracer.report()["spans"])
    return max(traced - untraced, 0.0) / max(calls / repeats, 1)
