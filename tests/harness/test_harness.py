"""Tests for the experiment harness (small instances of every figure)."""

import pytest

from repro.harness import (
    MECHANISM_ORDER,
    area_overhead,
    benchmark_trace,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    format_area_overhead,
    format_figure9,
    format_figure12,
    format_figure16,
    format_figure17,
    format_table1,
    make_scheme,
    run_benchmark_suite,
    run_trace,
    saturation_throughput,
    table1,
)
from repro.compression.fpc import match_cache_info
from repro.core.avcl import evaluate_cache_info
from repro.core.fp_vaxx import word_memo_totals
from repro.harness.report import format_series, format_table
from repro.noc import NocConfig

SMALL = NocConfig(mesh_width=2, mesh_height=2, concentration=2)
FAST = dict(trace_cycles=1200, warmup=600, measure=600)


@pytest.fixture(scope="module")
def small_suite():
    """A tiny two-benchmark suite shared by the figure tests."""
    return run_benchmark_suite(config=SMALL,
                               benchmarks=("ssca2", "streamcluster"),
                               **FAST)


class TestMakeScheme:
    @pytest.mark.parametrize("name", MECHANISM_ORDER)
    def test_every_mechanism_constructs(self, name):
        scheme = make_scheme(name, 8)
        assert scheme.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheme("ZIP", 8)

    def test_threshold_threaded_through(self):
        assert make_scheme("FP-VAXX", 8, 20).error_threshold_pct == 20
        assert make_scheme("DI-VAXX", 8, 5).error_threshold_pct == 5


def _cache_counts():
    infos = (*match_cache_info(), evaluate_cache_info())
    hits, misses = word_memo_totals()
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            hits, misses)


class TestEncodeCacheCounters:
    def test_fp_vaxx_run_counts_the_word_memo(self):
        """FP-VAXX encodes through the fused word memo; its hits must
        reach ``RunResult`` so the reported hit ratio is not the other
        caches' share alone."""
        trace = benchmark_trace(SMALL, "blackscholes", 600)
        before = _cache_counts()
        result = run_trace(SMALL, "FP-VAXX", trace, warmup=300, measure=300)
        after = _cache_counts()
        other_hits, other_misses, memo_hits, memo_misses = (
            a - b for a, b in zip(after, before))
        assert memo_hits > 0
        assert result.encode_cache_hits == other_hits + memo_hits
        assert result.encode_cache_misses == other_misses + memo_misses


class TestTraceCache:
    def test_trace_cached(self):
        a = benchmark_trace(SMALL, "x264", 500, seed=3)
        b = benchmark_trace(SMALL, "x264", 500, seed=3)
        assert a is b

    def test_different_params_different_trace(self):
        a = benchmark_trace(SMALL, "x264", 500, seed=3)
        b = benchmark_trace(SMALL, "x264", 500, seed=4)
        assert a is not b


class TestSuiteFigures:
    def test_suite_covers_all_pairs(self, small_suite):
        assert set(small_suite.runs) == {"ssca2", "streamcluster"}
        for runs in small_suite.runs.values():
            assert set(runs) == set(MECHANISM_ORDER)

    def test_figure9_shape(self, small_suite):
        rows = figure9(small_suite)
        benchmarks = {r["benchmark"] for r in rows}
        assert "AVG" in benchmarks
        for row in rows:
            assert row["total"] == pytest.approx(
                row["queue"] + row["network"] + row["decode"])
            assert 0.9 <= row["quality"] <= 1.0
        assert "Figure 9" in format_figure9(rows)

    def test_figure9_vaxx_beats_base(self, small_suite):
        rows = {(r["benchmark"], r["mechanism"]): r
                for r in figure9(small_suite)}
        # On the data-intensive benchmark, approximation helps (§5.2.1).
        assert (rows[("ssca2", "FP-VAXX")]["total"]
                < rows[("ssca2", "FP-COMP")]["total"])
        assert (rows[("ssca2", "FP-COMP")]["total"]
                < rows[("ssca2", "Baseline")]["total"])

    def test_figure10_fractions_consistent(self, small_suite):
        for row in figure10(small_suite):
            if row["benchmark"] == "GMEAN":
                continue  # geometric means of parts don't sum exactly
            assert row["encoded_fraction"] == pytest.approx(
                row["exact_fraction"] + row["approx_fraction"], abs=1e-6)
            assert row["compression_ratio"] >= 0.9

    def test_figure10_vaxx_encodes_more(self, small_suite):
        rows = {(r["benchmark"], r["mechanism"]): r
                for r in figure10(small_suite)}
        for benchmark in ("ssca2", "streamcluster"):
            assert (rows[(benchmark, "FP-VAXX")]["encoded_fraction"]
                    >= rows[(benchmark, "FP-COMP")]["encoded_fraction"])

    def test_figure11_baseline_is_unity(self, small_suite):
        rows = figure11(small_suite)
        for row in rows:
            if row["mechanism"] == "Baseline":
                assert row["normalized"] == pytest.approx(1.0)
            if row["mechanism"] == "FP-VAXX":
                assert row["normalized"] < 1.0

    def test_figure15_fp_vaxx_cheapest(self, small_suite):
        rows = {(r["benchmark"], r["mechanism"]): r["normalized_power"]
                for r in figure15(small_suite)}
        for benchmark in ("ssca2", "streamcluster"):
            assert rows[(benchmark, "FP-VAXX")] < rows[(benchmark,
                                                        "Baseline")]


class TestSweepFigures:
    def test_figure12_small(self):
        results = figure12(config=SMALL, benchmarks=("streamcluster",),
                           patterns=("uniform_random",),
                           injection_rates=(0.05, 0.30),
                           mechanisms=("Baseline", "FP-VAXX"),
                           warmup=300, measure=600)
        series = results[("streamcluster", "uniform_random")]
        assert len(series["Baseline"]) == 2
        # latency grows with load
        assert series["Baseline"][1] > series["Baseline"][0]
        text = format_figure12(results, (0.05, 0.30))
        assert "Figure 12" in text

    def test_saturation_throughput(self):
        series = {"A": [10.0, 11.0, 40.0], "B": [10.0, 11.0, 12.0]}
        rates = (0.1, 0.2, 0.3)
        sustained = saturation_throughput(series, rates)
        assert sustained["A"] == 0.2
        assert sustained["B"] == 0.3

    def test_figure13_threshold_columns(self):
        rows = figure13(config=SMALL, benchmarks=("ssca2",),
                        thresholds=(5.0, 20.0), **FAST)
        assert len(rows) == 2  # DI-based + FP-based
        for row in rows:
            assert "5%" in row and "20%" in row and "compression" in row

    def test_figure14_ratio_columns(self):
        rows = figure14(config=SMALL, benchmarks=("ssca2",),
                        approx_ratios=(0.25, 0.75), **FAST)
        for row in rows:
            assert "25%" in row and "75%" in row


class TestAppFigures:
    def test_figure16_budget_zero_is_exact(self):
        rows = figure16(config=SMALL, benchmarks=("blackscholes",),
                        budgets=(0.0, 20.0), **FAST)
        by_budget = {r["budget_pct"]: r for r in rows}
        assert by_budget[0.0]["output_error"] == 0.0
        assert by_budget[0.0]["normalized_performance"] == 1.0
        assert by_budget[20.0]["output_error"] >= 0.0
        assert "Figure 16" in format_figure16(rows)

    def test_figure17_quality(self):
        result = figure17(error_threshold_pct=10.0, n_frames=4, size=32,
                          n_nodes=8)
        assert 0.0 <= result["track_error"] < 0.25
        assert len(result["frame_psnr_db"]) == 4
        assert "Figure 17" in format_figure17(result)


class TestStaticTables:
    def test_table1_contents(self):
        rows = dict(table1())
        assert "NoC topology" in rows
        assert "4x4" in rows["NoC topology"]
        assert "Table 1" in format_table1(table1())

    def test_area_overhead_rows(self):
        rows = area_overhead()
        by_mechanism = {r["mechanism"]: r for r in rows}
        assert by_mechanism["DI-VAXX"]["total_mm2"] == pytest.approx(
            0.0037, rel=0.1)
        assert "5.5" in format_area_overhead(rows)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "---" in lines[1]

    def test_format_series(self):
        text = format_series("t", "x", [1, 2], {"s": [0.1, 0.2]})
        assert "t" in text and "x" in text
