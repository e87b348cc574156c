"""Tests for the parallel experiment engine and its on-disk result cache.

The contract under test: serial, multi-process and cache-served executions
of the same :class:`RunSpec` produce bit-identical simulation outputs
(``RunResult.simulation_outputs``), and traces are recorded once per
(benchmark, cycles, seed) — never per mechanism.
"""

import pytest

from repro.harness import experiment as experiment_mod
from repro.harness import parallel as parallel_mod
from repro.harness.experiment import RunResult, benchmark_trace, run_trace
from repro.harness.figures import figure12, figure13, run_benchmark_suite
from repro.harness.parallel import (
    NO_CACHE_ENV,
    RunSpec,
    cache_dir,
    execute_spec,
    load_cached,
    parallel_map,
    store_cached,
    suite_specs,
)
from repro.harness.sweeps import mechanism_comparison_with_error_bars
from repro.noc import PAPER_CONFIG, NocConfig

SMALL = NocConfig(mesh_width=2, mesh_height=2, concentration=2)


def small_spec(**overrides) -> RunSpec:
    kw = dict(config=SMALL, mechanism="FP-VAXX", benchmark="ssca2",
              trace_cycles=900, warmup=350, measure=350)
    kw.update(overrides)
    return RunSpec(**kw)


class TestRunSpec:
    def test_cache_key_is_stable(self):
        assert small_spec().cache_key() == small_spec().cache_key()

    def test_cache_key_is_pinned(self):
        spec = RunSpec(config=PAPER_CONFIG, mechanism="FP-VAXX",
                       benchmark="ssca2", trace_cycles=6000, warmup=3000,
                       measure=3000)
        assert spec.cache_key() == (
            "4482b4b3dcce03ae15dde60a720891f4ea74419ffb42c6553e7098417bb4d8ec"
        ), ("RunSpec.canonical() changed: this invalidates every result "
            "cache entry and every service envelope digest pinned in "
            "benchmarks/e2e/expected.json")

    def test_cache_key_tracks_every_field(self):
        base = small_spec()
        for overrides in ({"mechanism": "Baseline"},
                          {"benchmark": "x264"},
                          {"seed": 12},
                          {"measure": 351},
                          {"error_threshold_pct": 5.0},
                          {"approx_override": 0.5},
                          {"config": NocConfig(mesh_width=2, mesh_height=2,
                                               concentration=2, num_vcs=2)}):
            assert small_spec(**overrides).cache_key() != base.cache_key()

    def test_execute_matches_run_trace(self):
        spec = small_spec()
        trace = benchmark_trace(SMALL, spec.benchmark, spec.trace_cycles,
                                seed=spec.seed,
                                approx_packet_ratio=spec.approx_packet_ratio)
        direct = run_trace(SMALL, spec.mechanism, trace, spec.warmup,
                           spec.measure)
        assert (execute_spec(spec).simulation_outputs()
                == direct.simulation_outputs())


class TestResultCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        spec = small_spec()
        assert load_cached(spec) is None
        result = execute_spec(spec)
        store_cached(spec, result)
        restored = load_cached(spec)
        assert isinstance(restored, RunResult)
        assert restored.simulation_outputs() == result.simulation_outputs()
        assert restored.power == result.power

    def test_corrupt_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        spec = small_spec()
        (tmp_path / f"{spec.cache_key()}.json").write_text("{not json")
        assert load_cached(spec) is None

    def test_no_cache_env_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        parallel_map([small_spec()], workers=1)
        assert not list(tmp_path.iterdir())

    def test_hit_skips_execution_and_matches_cold_run(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        spec = small_spec()
        cold = parallel_map([spec], workers=1)[0]
        assert len(list(tmp_path.glob("*.json"))) == 1

        def boom(_spec):  # a second execution would be a cache failure
            raise AssertionError("cache hit should not re-execute")

        monkeypatch.setattr(parallel_mod, "execute_spec", boom)
        warm = parallel_map([spec], workers=1)[0]
        assert warm.simulation_outputs() == cold.simulation_outputs()


def assert_serial_pool_cached_identical(build, monkeypatch):
    """``build(workers, use_cache)`` gives the same value in-process
    without the cache, on a cold 2-process pool, and from the cache."""
    serial = build(workers=None, use_cache=False)   # in-process, uncached
    cold = build(workers=2, use_cache=None)         # 2-process pool
    assert cold == serial

    def boom(_spec):  # a warm pass must not execute anything
        raise AssertionError("cache hit should not re-execute")

    monkeypatch.setattr(parallel_mod, "execute_spec", boom)
    assert build(workers=2, use_cache=None) == serial


class TestParallelDeterminism:
    @pytest.mark.parametrize("benchmarks",
                             [("ssca2",), ("x264", "streamcluster")])
    def test_suite_parallel_matches_serial(self, benchmarks, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))

        def build(**engine):
            suite = run_benchmark_suite(
                config=SMALL, benchmarks=benchmarks,
                mechanisms=("Baseline", "DI-COMP", "FP-VAXX"),
                trace_cycles=900, warmup=350, measure=350, **engine)
            return {(benchmark, mechanism): run.simulation_outputs()
                    for benchmark, runs in suite.runs.items()
                    for mechanism, run in runs.items()}

        assert_serial_pool_cached_identical(build, monkeypatch)

    def test_figure12_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))

        def build(**engine):
            return figure12(config=SMALL, benchmarks=("streamcluster",),
                            patterns=("uniform_random", "transpose"),
                            injection_rates=(0.05, 0.30),
                            mechanisms=("Baseline", "FP-VAXX"),
                            warmup=300, measure=600, **engine)

        assert_serial_pool_cached_identical(build, monkeypatch)

    def test_results_keep_spec_order(self, monkeypatch, tmp_path):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        specs = suite_specs(config=SMALL, benchmarks=("ssca2",),
                            mechanisms=("Baseline", "DI-COMP", "FP-COMP"),
                            trace_cycles=900, warmup=350, measure=350)
        results = parallel_map(specs, workers=2)
        assert [r.mechanism for r in results] == [s.mechanism for s in specs]


class TestCrossFigureReuse:
    FAST = dict(config=SMALL, benchmarks=("ssca2",), trace_cycles=1200,
                warmup=600, measure=600)

    def count_engine(self, monkeypatch):
        executed, hits = [], []
        real_execute = parallel_mod.execute_spec
        real_load = parallel_mod.load_cached

        def execute(spec):
            executed.append(spec)
            return real_execute(spec)

        def load(spec):
            result = real_load(spec)
            if result is not None:
                hits.append(spec)
            return result

        monkeypatch.setattr(parallel_mod, "execute_spec", execute)
        monkeypatch.setattr(parallel_mod, "load_cached", load)
        return executed, hits

    def test_figure13_reuses_suite_runs(self, tmp_path, monkeypatch):
        """Fig 13's compression and 10% runs are Fig 9 suite runs: only
        the 5% and 20% approximation runs execute."""
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        run_benchmark_suite(**self.FAST)
        executed, hits = self.count_engine(monkeypatch)
        figure13(**self.FAST)
        assert sorted((s.mechanism, s.error_threshold_pct)
                      for s in executed) == [
            ("DI-VAXX", 5.0), ("DI-VAXX", 20.0),
            ("FP-VAXX", 5.0), ("FP-VAXX", 20.0)]
        assert len(hits) == 4

    def test_no_cache_env_recomputes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        run_benchmark_suite(**self.FAST)
        executed, hits = self.count_engine(monkeypatch)
        figure13(**self.FAST)
        assert len(executed) == 8 and not hits


class TestSweepTraceReuse:
    def test_one_trace_per_seed(self, monkeypatch, tmp_path):
        """The (seed x mechanism) grid must record each seed's trace once,
        not once per mechanism."""
        monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(experiment_mod, "_TRACE_CACHE", {})
        calls = []
        real = experiment_mod.record_trace

        def counting(source, cycles):
            calls.append(cycles)
            return real(source, cycles)

        monkeypatch.setattr(experiment_mod, "record_trace", counting)
        comparison = mechanism_comparison_with_error_bars(
            "ssca2", seeds=(1, 2), config=SMALL,
            mechanisms=("Baseline", "DI-COMP", "FP-VAXX"),
            trace_cycles=900, warmup=350, measure=350)
        assert set(comparison) == {"Baseline", "DI-COMP", "FP-VAXX"}
        assert len(calls) == 2  # one per seed, shared by all mechanisms


def test_cache_dir_default(monkeypatch):
    monkeypatch.delenv(parallel_mod.CACHE_DIR_ENV, raising=False)
    assert str(cache_dir()) == parallel_mod.DEFAULT_CACHE_DIR
