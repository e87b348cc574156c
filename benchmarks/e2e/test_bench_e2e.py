"""Self-test of the end-to-end benchmark (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs at toy size through the same subprocess path the
benchmark uses.  fig9_suite, saturation and service run in both modes;
regen runs once, traced, because ``collect_all``'s window floors keep even
its toy size near half a minute, and a traced run reports the end-to-end
timings as well as the per-layer ones.
"""

import json
from pathlib import Path

import pytest

import bench_e2e
import layers
from tracer import Tracer

DECLARED = json.loads((Path(bench_e2e.ROOT) / "BENCHMARK.json").read_text())
QUICK = ("fig9_suite", "saturation", "service")
MODES = [(name, traced) for name in QUICK for traced in (False, True)]
MODES.append(("regen", True))

_records = {}


def record(workload, traced):
    key = (workload, traced)
    if key not in _records:
        _records[key] = bench_e2e.measure(workload, bench_e2e.DEFAULT_SEED,
                                          traced, size="toy",
                                          setup_samples=1)
    return _records[key]


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(
        bench_e2e.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == \
        bench_e2e.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in DECLARED["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in layers.PER_LAYER]


def test_every_boundary_resolves():
    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    assert tracer.warnings == []
    # Module-level functions are rebound wherever they were imported.
    assert tracer.bound["harness.run_trace"] >= 3
    assert tracer.bound["harness.cache_load"] >= 2


@pytest.mark.parametrize("workload,traced", MODES)
def test_run_emits_declared_metrics(workload, traced):
    result = record(workload, traced)
    line = bench_e2e.result_line(result)
    assert line["correct"], result["failed"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    section = "per_layer" if traced else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in DECLARED[section]}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    assert all(value > 0 for value in result["end_to_end"].values())
    json.dumps(line)  # the last stdout line must be plain JSON


@pytest.mark.parametrize("workload", QUICK + ("regen",))
def test_boundaries_fire_where_expected(workload):
    result = record(workload, True)
    assert result["trace"]["warnings"] == []
    silent = [m.name for m in layers.PER_LAYER
              if workload in m.fires_on and result["per_layer"][m.name] <= 0]
    assert silent == []


def test_missing_boundary_warns_and_is_skipped():
    tracer = Tracer()
    assert not tracer.function("x.gone", "repro.harness.experiment",
                               "no_such_function")
    assert not tracer.method("x.gone", Tracer, "no_such_method")
    assert len(tracer.warnings) == 2
    metrics = layers.per_layer_metrics(tracer.report(), {})
    assert set(metrics) == {m.name for m in layers.PER_LAYER}


def test_tracer_nesting_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.method("outer", Layer, "outer")
    tracer.method("inner", Layer, "inner")
    assert Layer().outer() == 2
    tracer.restore()
    assert Layer.__dict__["outer"] is original
    rows = {(r["span"], r["parent"]): r for r in tracer.report()["spans"]}
    assert rows[("inner", "outer")]["calls"] == 1
    outer = rows[("outer", None)]
    assert outer["self_s"] <= outer["total_s"]
