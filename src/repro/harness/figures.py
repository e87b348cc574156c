"""One driver per table/figure of the paper's evaluation (§5).

Every function returns the figure's data in a structured form plus a
``format_*`` companion producing the paper-style rows.  Cycle counts are
parameters so tests can run tiny instances while the benchmark harness runs
publication-size ones; results are unaffected in *shape*, only in noise.

Simulated figures run their specs through the result cache and the engine
of :mod:`repro.harness.parallel`, so a run two figures share executes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import run_app
from repro.apps.channel import ApproxChannel, IdentityChannel
from repro.apps import bodytrack as bodytrack_app
from repro.harness.experiment import MECHANISM_ORDER, RunResult, make_scheme
from repro.harness.parallel import (
    RunSpec,
    Spec,
    SyntheticSpec,
    parallel_map,
    suite_specs,
)
from repro.harness.report import format_series, format_table
from repro.noc import NocConfig, PAPER_CONFIG
from repro.power.area import encoder_area
from repro.power.energy import normalized_power
from repro.traffic.profiles import BENCHMARK_ORDER

#: Default simulation windows (cycles).  Benches scale these up.
DEFAULT_TRACE_CYCLES = 6000
DEFAULT_WARMUP = 3000
DEFAULT_MEASURE = 3000

#: Figure 12's offered loads (flits/cycle/node) in the CLI and EXPERIMENTS.md.
FIG12_RATES = (0.05, 0.125, 0.175, 0.225, 0.30, 0.40, 0.50)


def scaled_windows(scale: float) -> dict:
    """Trace/warmup/measure windows at ``scale`` x the defaults, floored
    so that tiny scales still measure something."""
    return {
        "trace_cycles": max(int(DEFAULT_TRACE_CYCLES * scale), 400),
        "warmup": max(int(DEFAULT_WARMUP * scale), 200),
        "measure": max(int(DEFAULT_MEASURE * scale), 200),
    }


def fig12_windows(scale: float) -> dict:
    """Figure 12's warmup/measure windows at ``scale``."""
    return {"warmup": max(int(1200 * scale), 200),
            "measure": max(int(2500 * scale), 400)}


#: Memory-boundedness of each benchmark (fraction of runtime sensitive to
#: NoC latency) for the Figure 16 performance model: runtime =
#: (1 - m) + m * L(threshold) / L(0).  Calibrated to the paper's reported
#: full-system gains (ssca2 and swaptions benefit most).
MEMORY_BOUNDEDNESS = {
    "blackscholes": 0.45,
    "bodytrack": 0.30,
    "canneal": 0.35,
    "fluidanimate": 0.30,
    "streamcluster": 0.60,
    "swaptions": 0.75,
    "x264": 0.40,
    "ssca2": 0.90,
}


# --------------------------------------------------------------------------
# Shared benchmark suite (Figures 9, 10, 11, 15 all read the same runs)
# --------------------------------------------------------------------------

@dataclass
class SuiteResult:
    """Per-benchmark, per-mechanism run results on identical traces."""

    config: NocConfig
    error_threshold_pct: float
    runs: Dict[str, Dict[str, RunResult]] = field(default_factory=dict)

    def mechanisms(self) -> List[str]:
        """Mechanism names present in the suite, in run order."""
        first = next(iter(self.runs.values()))
        return list(first)


def run_benchmark_suite(config: NocConfig = PAPER_CONFIG,
                        benchmarks: Sequence[str] = BENCHMARK_ORDER,
                        mechanisms: Sequence[str] = MECHANISM_ORDER,
                        error_threshold_pct: float = 10.0,
                        approx_packet_ratio: float = 0.75,
                        trace_cycles: int = DEFAULT_TRACE_CYCLES,
                        warmup: int = DEFAULT_WARMUP,
                        measure: int = DEFAULT_MEASURE,
                        seed: int = 11,
                        workers: Optional[int] = None,
                        use_cache: Optional[bool] = None) -> SuiteResult:
    """Run every (benchmark, mechanism) pair on identical traces."""
    specs = suite_specs(config=config, benchmarks=benchmarks,
                        mechanisms=mechanisms,
                        error_threshold_pct=error_threshold_pct,
                        approx_packet_ratio=approx_packet_ratio,
                        trace_cycles=trace_cycles, warmup=warmup,
                        measure=measure, seed=seed)
    runs = iter(_run(specs, workers, use_cache))
    suite = SuiteResult(config=config,
                        error_threshold_pct=error_threshold_pct)
    for benchmark in benchmarks:
        suite.runs[benchmark] = {m: next(runs) for m in mechanisms}
    return suite


# --------------------------------------------------------------------------
# Figure 9: latency breakdown + data quality
# --------------------------------------------------------------------------

def figure9(suite: SuiteResult) -> List[dict]:
    """Average packet latency breakdown and data approximation quality."""
    rows = []
    for benchmark, runs in suite.runs.items():
        for mechanism, run in runs.items():
            rows.append({
                "benchmark": benchmark, "mechanism": mechanism,
                "queue": run.avg_queue_latency,
                "network": run.avg_network_latency,
                "decode": run.avg_decode_latency,
                "total": run.avg_packet_latency,
                "quality": run.data_quality,
            })
    # AVG row per mechanism, like the paper's right-most group.
    mechanisms = suite.mechanisms()
    for mechanism in mechanisms:
        runs = [suite.runs[b][mechanism] for b in suite.runs]
        rows.append({
            "benchmark": "AVG", "mechanism": mechanism,
            "queue": _mean(r.avg_queue_latency for r in runs),
            "network": _mean(r.avg_network_latency for r in runs),
            "decode": _mean(r.avg_decode_latency for r in runs),
            "total": _mean(r.avg_packet_latency for r in runs),
            "quality": _mean(r.data_quality for r in runs),
        })
    return rows


def format_figure9(rows: List[dict]) -> str:
    """Render the Figure 9 rows as an ASCII table."""
    return format_table(
        ["benchmark", "mechanism", "queue", "network", "decode", "total",
         "quality"],
        [[r["benchmark"], r["mechanism"], r["queue"], r["network"],
          r["decode"], r["total"], r["quality"]] for r in rows],
        title="Figure 9: average packet latency breakdown (cycles) and "
              "data approximation quality")


# --------------------------------------------------------------------------
# Figure 10: encoded-word fraction (a) and compression ratio (b)
# --------------------------------------------------------------------------

def figure10(suite: SuiteResult) -> List[dict]:
    """Encoded-word fraction split + compression ratio per mechanism."""
    rows = []
    for benchmark, runs in suite.runs.items():
        for mechanism, run in runs.items():
            if mechanism == "Baseline":
                continue
            rows.append({
                "benchmark": benchmark, "mechanism": mechanism,
                "exact_fraction": run.exact_fraction,
                "approx_fraction": run.approx_fraction,
                "encoded_fraction": run.encoded_fraction,
                "compression_ratio": run.compression_ratio,
            })
    mechanisms = [m for m in suite.mechanisms() if m != "Baseline"]
    for mechanism in mechanisms:
        runs = [suite.runs[b][mechanism] for b in suite.runs]
        rows.append({
            "benchmark": "GMEAN", "mechanism": mechanism,
            "exact_fraction": _gmean(r.exact_fraction for r in runs),
            "approx_fraction": _gmean(r.approx_fraction for r in runs),
            "encoded_fraction": _gmean(r.encoded_fraction for r in runs),
            "compression_ratio": _gmean(r.compression_ratio for r in runs),
        })
    return rows


def format_figure10(rows: List[dict]) -> str:
    """Render the Figure 10 rows as an ASCII table."""
    return format_table(
        ["benchmark", "mechanism", "exact", "approx", "encoded", "ratio"],
        [[r["benchmark"], r["mechanism"], r["exact_fraction"],
          r["approx_fraction"], r["encoded_fraction"],
          r["compression_ratio"]] for r in rows],
        title="Figure 10: encoded word fraction (exact vs approximated) "
              "and compression ratio")


# --------------------------------------------------------------------------
# Figure 11: injected data flits, normalized to Baseline
# --------------------------------------------------------------------------

def figure11(suite: SuiteResult) -> List[dict]:
    """Data flits injected under each mechanism, normalized to Baseline."""
    rows = []
    for benchmark, runs in suite.runs.items():
        base = runs["Baseline"].data_flits_injected or 1
        for mechanism, run in runs.items():
            rows.append({
                "benchmark": benchmark, "mechanism": mechanism,
                "data_flits": run.data_flits_injected,
                "normalized": run.data_flits_injected / base,
            })
    return rows


def format_figure11(rows: List[dict]) -> str:
    """Render the Figure 11 rows as an ASCII table."""
    return format_table(
        ["benchmark", "mechanism", "data_flits", "normalized"],
        [[r["benchmark"], r["mechanism"], r["data_flits"], r["normalized"]]
         for r in rows],
        title="Figure 11: injected data flits (normalized to Baseline)")


# --------------------------------------------------------------------------
# Figure 12: throughput under synthetic traffic
# --------------------------------------------------------------------------

def figure12(config: NocConfig = PAPER_CONFIG,
             benchmarks: Sequence[str] = ("blackscholes", "streamcluster"),
             patterns: Sequence[str] = ("uniform_random", "transpose"),
             injection_rates: Sequence[float] = (0.05, 0.15, 0.25, 0.35,
                                                 0.45, 0.55, 0.65),
             mechanisms: Sequence[str] = MECHANISM_ORDER,
             data_ratio: float = 0.25,
             error_threshold_pct: float = 10.0,
             warmup: int = 1500, measure: int = 3000,
             seed: int = 13, workers: Optional[int] = None,
             use_cache: Optional[bool] = None
             ) -> Dict[Tuple[str, str], Dict[str, List[float]]]:
    """Latency-vs-injection curves: benchmark data under UR/TR patterns.

    §5.2.2: "we assume a 25:75 data to control packet ratio to emphasize
    the significance of APPROX-NoC when large amount of data is
    communicated" — note the paper's ratio is data-heavy by *flits*.
    Returns ``{(benchmark, pattern): {mechanism: [latency per rate]}}``.
    """
    def spec(benchmark, pattern, rate, mechanism):
        return SyntheticSpec(
            config=config, mechanism=mechanism, benchmark=benchmark,
            pattern=pattern, rate=rate, data_ratio=data_ratio, seed=seed,
            warmup=warmup, measure=measure,
            error_threshold_pct=error_threshold_pct)
    latency = _latencies([spec(b, p, r, m) for b in benchmarks
                          for p in patterns for r in injection_rates
                          for m in mechanisms], workers, use_cache)
    return {(b, p): {m: [latency[spec(b, p, r, m)] for r in injection_rates]
                     for m in mechanisms}
            for b in benchmarks for p in patterns}


def format_figure12(results, injection_rates) -> str:
    """Render the Figure 12 latency-vs-load series."""
    blocks = []
    for (benchmark, pattern), series in results.items():
        blocks.append(format_series(
            f"Figure 12: {benchmark} ({pattern}) — packet latency (cycles) "
            f"vs injection rate (flits/cycle/node)",
            "rate", list(injection_rates), series))
    return "\n\n".join(blocks)


def saturation_throughput(series: Dict[str, List[float]],
                          injection_rates: Sequence[float],
                          latency_cap: float = 2.5) -> Dict[str, float]:
    """Offered load each mechanism sustains before latency exceeds
    ``latency_cap`` x its zero-load value (the Figure 12 'throughput')."""
    result = {}
    for mechanism, latencies in series.items():
        zero_load = latencies[0]
        sustained = injection_rates[0]
        for rate, latency in zip(injection_rates, latencies):
            if latency <= latency_cap * zero_load:
                sustained = rate
            else:
                break
        result[mechanism] = sustained
    return result


# --------------------------------------------------------------------------
# Figure 13/14: sensitivity to error threshold and approximable ratio
# --------------------------------------------------------------------------

#: The (row label, compression, approximation) triples of Figs 13 and 14.
FAMILIES = (("DI-based", "DI-COMP", "DI-VAXX"),
            ("FP-based", "FP-COMP", "FP-VAXX"))


def _family_sweep(columns: Dict[str, dict], config: NocConfig,
                  benchmarks: Sequence[str], trace_cycles: int, warmup: int,
                  measure: int, seed: int, workers: Optional[int],
                  use_cache: Optional[bool], **common) -> List[dict]:
    """One DI- and one FP-based row per benchmark: the compression latency,
    then the approximation's latency under each column's RunSpec
    overrides (``common`` applies to every run)."""
    spec = partial(RunSpec, config=config, trace_cycles=trace_cycles,
                   warmup=warmup, measure=measure, seed=seed, **common)
    rows = [{"benchmark": b, "family": family,
             "compression": spec(benchmark=b, mechanism=comp),
             **{name: spec(benchmark=b, mechanism=vaxx, **overrides)
                for name, overrides in columns.items()}}
            for b in benchmarks for family, comp, vaxx in FAMILIES]
    latency = _latencies([value for row in rows for value in row.values()
                          if isinstance(value, RunSpec)], workers, use_cache)
    return [{key: latency[value] if isinstance(value, RunSpec) else value
             for key, value in row.items()} for row in rows]


def figure13(config: NocConfig = PAPER_CONFIG,
             benchmarks: Sequence[str] = BENCHMARK_ORDER,
             thresholds: Sequence[float] = (5.0, 10.0, 20.0),
             approx_packet_ratio: float = 0.75,
             trace_cycles: int = DEFAULT_TRACE_CYCLES,
             warmup: int = DEFAULT_WARMUP, measure: int = DEFAULT_MEASURE,
             seed: int = 11, workers: Optional[int] = None,
             use_cache: Optional[bool] = None) -> List[dict]:
    """Error-threshold sensitivity: DI-based and FP-based latency."""
    return _family_sweep(
        {f"{t:g}%": {"error_threshold_pct": t} for t in thresholds},
        config, benchmarks, trace_cycles, warmup, measure, seed, workers,
        use_cache, approx_packet_ratio=approx_packet_ratio)


def format_figure13(rows: List[dict],
                    thresholds: Sequence[float] = (5.0, 10.0, 20.0)) -> str:
    """Render the Figure 13 rows as an ASCII table."""
    headers = ["benchmark", "family", "compression"] + [
        f"{t:g}%_threshold" for t in thresholds]
    return format_table(
        headers,
        [[r["benchmark"], r["family"], r["compression"]]
         + [r[f"{t:g}%"] for t in thresholds] for r in rows],
        title="Figure 13: packet latency (cycles) vs error threshold")


def figure14(config: NocConfig = PAPER_CONFIG,
             benchmarks: Sequence[str] = BENCHMARK_ORDER,
             approx_ratios: Sequence[float] = (0.25, 0.50, 0.75),
             error_threshold_pct: float = 10.0,
             trace_cycles: int = DEFAULT_TRACE_CYCLES,
             warmup: int = DEFAULT_WARMUP, measure: int = DEFAULT_MEASURE,
             seed: int = 11, workers: Optional[int] = None,
             use_cache: Optional[bool] = None) -> List[dict]:
    """Approximable-packet-ratio sensitivity (trace re-marked per ratio)."""
    return _family_sweep(
        {f"{int(r * 100)}%": {"error_threshold_pct": error_threshold_pct,
                              "approx_override": r} for r in approx_ratios},
        config, benchmarks, trace_cycles, warmup, measure, seed, workers,
        use_cache)


def format_figure14(rows: List[dict],
                    approx_ratios: Sequence[float] = (0.25, 0.50,
                                                      0.75)) -> str:
    """Render the Figure 14 rows as an ASCII table."""
    headers = ["benchmark", "family", "compression"] + [
        f"{int(r * 100)}%_approx" for r in approx_ratios]
    return format_table(
        headers,
        [[row["benchmark"], row["family"], row["compression"]]
         + [row[f"{int(r * 100)}%"] for r in approx_ratios]
         for row in rows],
        title="Figure 14: packet latency (cycles) vs approximable packet "
              "ratio")


# --------------------------------------------------------------------------
# Figure 15: dynamic power
# --------------------------------------------------------------------------

def figure15(suite: SuiteResult) -> List[dict]:
    """Dynamic power normalized to Baseline, per benchmark."""
    rows = []
    for benchmark, runs in suite.runs.items():
        normalized = normalized_power(
            {mechanism: run.power for mechanism, run in runs.items()})
        for mechanism, value in normalized.items():
            rows.append({"benchmark": benchmark, "mechanism": mechanism,
                         "normalized_power": value})
    return rows


def format_figure15(rows: List[dict]) -> str:
    """Render the Figure 15 rows as an ASCII table."""
    return format_table(
        ["benchmark", "mechanism", "normalized_power"],
        [[r["benchmark"], r["mechanism"], r["normalized_power"]]
         for r in rows],
        title="Figure 15: dynamic power consumption normalized to Baseline")


# --------------------------------------------------------------------------
# Figure 16: application output accuracy + normalized performance
# --------------------------------------------------------------------------

def figure16(config: NocConfig = PAPER_CONFIG,
             benchmarks: Sequence[str] = BENCHMARK_ORDER,
             budgets: Sequence[float] = (0.0, 10.0, 20.0),
             trace_cycles: int = DEFAULT_TRACE_CYCLES,
             warmup: int = DEFAULT_WARMUP, measure: int = DEFAULT_MEASURE,
             seed: int = 11, workers: Optional[int] = None,
             use_cache: Optional[bool] = None) -> List[dict]:
    """Output error and normalized performance per data error budget.

    Output error is the worse of the FP-VAXX and DI-VAXX channels
    (conservative).  Performance uses the memory-boundedness model
    documented in :data:`MEMORY_BOUNDEDNESS`: the NoC latency measured at
    each threshold scales the memory-bound fraction of runtime, normalized
    to the 0%-threshold (exact compression) latency.
    """
    # The NoC latency per budget is Figure 13's threshold sweep: one DI-
    # and one FP-based row per benchmark, compression plus each budget.
    sweep = figure13(config, benchmarks, [b for b in budgets if b > 0],
                     trace_cycles=trace_cycles, warmup=warmup,
                     measure=measure, seed=seed, workers=workers,
                     use_cache=use_cache)
    rows = []
    for benchmark, di, fp in zip(benchmarks, sweep[::2], sweep[1::2]):
        base_latency = _mean([fp["compression"], di["compression"]])
        boundedness = MEMORY_BOUNDEDNESS.get(benchmark, 0.4)
        for budget in budgets:
            if budget <= 0:
                error = 0.0
                performance = 1.0
            else:
                error = max(
                    run_app(benchmark, make_scheme(
                        "FP-VAXX", config.n_nodes, budget)),
                    run_app(benchmark, make_scheme(
                        "DI-VAXX", config.n_nodes, budget)))
                latency = _mean([fp[f"{budget:g}%"], di[f"{budget:g}%"]])
                runtime = (1.0 - boundedness) + boundedness * (
                    latency / base_latency)
                performance = 1.0 / runtime
            rows.append({"benchmark": benchmark, "budget_pct": budget,
                         "output_error": error,
                         "normalized_performance": performance})
    return rows


def format_figure16(rows: List[dict]) -> str:
    """Render the Figure 16 rows as an ASCII table."""
    return format_table(
        ["benchmark", "error_budget_%", "output_error",
         "normalized_performance"],
        [[r["benchmark"], r["budget_pct"], r["output_error"],
          r["normalized_performance"]] for r in rows],
        title="Figure 16: application output error and normalized "
              "performance vs data error budget")


# --------------------------------------------------------------------------
# Figure 17: bodytrack precise vs approximate output
# --------------------------------------------------------------------------

def figure17(error_threshold_pct: float = 10.0, n_frames: int = 8,
             size: int = 40, n_nodes: int = 32) -> dict:
    """Precise vs approximate bodytrack outputs (frames + track)."""
    frames = bodytrack_app.generate_frames(n_frames, size)
    precise = bodytrack_app.track(frames, IdentityChannel())
    scheme = make_scheme("FP-VAXX", n_nodes, error_threshold_pct)
    approx = bodytrack_app.track(frames, ApproxChannel(scheme))
    psnrs = [bodytrack_app.frame_psnr(p, a)
             for p, a in zip(precise.frames, approx.frames)]
    return {
        "track_error": bodytrack_app.output_error(precise, approx),
        "frame_psnr_db": psnrs,
        "precise_frames": precise.frames,
        "approx_frames": approx.frames,
    }


def format_figure17(result: dict) -> str:
    """Render the Figure 17 summary lines."""
    finite = [p for p in result["frame_psnr_db"] if not math.isinf(p)]
    mean_psnr = _mean(finite) if finite else float("inf")
    return (
        "Figure 17: bodytrack precise vs approximate output\n"
        f"  output track vector deviation : "
        f"{result['track_error'] * 100:.2f}% (paper: 2.4% at 10% budget)\n"
        f"  mean frame PSNR               : {mean_psnr:.1f} dB "
        "(visually indistinguishable above ~35 dB)")


# --------------------------------------------------------------------------
# Table 1 + §5.5 area
# --------------------------------------------------------------------------

def table1(config: NocConfig = PAPER_CONFIG) -> List[Tuple[str, str]]:
    """The simulation configuration, as the paper tabulates it."""
    return [
        ("System", f"{config.n_nodes} nodes at {config.frequency_ghz} GHz"),
        ("NoC topology", f"{config.mesh_width}x{config.mesh_height} 2D "
                         f"concentrated mesh (concentration "
                         f"{config.concentration})"),
        ("Router", f"{config.router_stages}-stage pipeline"),
        ("Virtual channels", f"{config.num_vcs} VCs x {config.vc_depth}-flit"
                             " buffers"),
        ("Flit size", f"{config.flit_bytes * 8}-bit"),
        ("Switching / routing", "wormhole, XY"),
        ("Cache block", f"{config.block_bytes} B "
                        f"({config.words_per_block} words)"),
        ("Error threshold", "5%, 10% (default), 20%"),
        ("Approximable packet ratio", "25%, 50%, 75% (default)"),
        ("Dictionary PMT", "8 entries"),
    ]


def format_table1(rows: List[Tuple[str, str]]) -> str:
    """Render Table 1 as an ASCII table."""
    return format_table(["parameter", "value"], rows,
                        title="Table 1: APPROX-NoC simulation configuration")


def area_overhead(n_nodes: int = 32) -> List[dict]:
    """Encoder area per NI (§5.5)."""
    rows = []
    expectations = {"DI-VAXX": 0.0037, "FP-VAXX": 0.0029}
    for mechanism in ("DI-COMP", "DI-VAXX", "FP-COMP", "FP-VAXX"):
        report = encoder_area(mechanism, n_nodes)
        rows.append({
            "mechanism": mechanism,
            "storage_um2": report.storage_um2,
            "logic_um2": report.logic_um2,
            "total_mm2": report.total_mm2,
            "paper_mm2": expectations.get(mechanism),
        })
    return rows


def format_area_overhead(rows: List[dict]) -> str:
    """Render the encoder-area rows as an ASCII table."""
    return format_table(
        ["mechanism", "storage_um2", "logic_um2", "total_mm2", "paper_mm2"],
        [[r["mechanism"], r["storage_um2"], r["logic_um2"],
          f"{r['total_mm2']:.4f}",
          "-" if r["paper_mm2"] is None else f"{r['paper_mm2']:.4f}"]
         for r in rows],
        title="Section 5.5: encoder area overhead per NI (45 nm)")


# --------------------------------------------------------------------------
# Small helpers
# --------------------------------------------------------------------------

def _run(specs: Sequence[Spec], workers: Optional[int],
         use_cache: Optional[bool]) -> List[RunResult]:
    """One engine call per figure; ``workers=None`` stays in-process."""
    return parallel_map(specs, workers=1 if workers is None else workers,
                        use_cache=use_cache)


def _latencies(specs: Sequence[Spec], workers: Optional[int],
               use_cache: Optional[bool]) -> Dict[Spec, float]:
    """Average packet latency of each spec, keyed by spec."""
    return {spec: run.avg_packet_latency
            for spec, run in zip(specs, _run(specs, workers, use_cache))}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _gmean(values) -> float:
    values = [max(v, 1e-9) for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
