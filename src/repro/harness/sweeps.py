"""Multi-seed statistics for experiment results.

Single-seed trace runs carry sampling noise; this module repeats a
(benchmark, mechanism) measurement across seeds and reports mean and
standard deviation — the error bars the paper's figures omit but a
reproduction should quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.experiment import MECHANISM_ORDER, RunResult
from repro.harness.parallel import RunSpec, parallel_map, suite_specs
from repro.noc import NocConfig, PAPER_CONFIG


@dataclass(frozen=True)
class SeedStats:
    """Mean and standard deviation of one metric across seeds."""

    mean: float
    std: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "SeedStats":
        """Compute mean/std over samples."""
        values = list(values)
        n = len(values)
        if not n:
            raise ValueError("no samples")
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / n
        return cls(mean=mean, std=math.sqrt(variance), n=n)

    @property
    def rel_std(self) -> float:
        """Coefficient of variation (std / |mean|)."""
        return self.std / abs(self.mean) if self.mean else 0.0

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f}"


def _sweep_specs(benchmark: str, mechanisms: Sequence[str],
                 seeds: Sequence[int], config: NocConfig,
                 error_threshold_pct: float, trace_cycles: int,
                 warmup: int, measure: int) -> List[RunSpec]:
    """Seed-major spec grid: every mechanism at one seed is contiguous, so
    each recorded trace is reused across all mechanisms (per process and in
    the parallel engine's chunked dispatch) instead of re-recorded."""
    return [spec for seed in seeds for spec in suite_specs(
        config, (benchmark,), mechanisms, error_threshold_pct,
        trace_cycles=trace_cycles, warmup=warmup, measure=measure, seed=seed)]


def seed_sweep(benchmark: str, mechanism: str,
               seeds: Sequence[int] = (11, 23, 47),
               config: NocConfig = PAPER_CONFIG,
               metric: Callable[[RunResult], float] = (
                   lambda r: r.avg_packet_latency),
               error_threshold_pct: float = 10.0,
               trace_cycles: int = 4000, warmup: int = 2000,
               measure: int = 2000,
               workers: Optional[int] = None) -> SeedStats:
    """Repeat one (benchmark, mechanism) run across seeds."""
    specs = _sweep_specs(benchmark, (mechanism,), seeds, config,
                         error_threshold_pct, trace_cycles, warmup, measure)
    results = parallel_map(specs, workers=1 if workers is None else workers)
    return SeedStats.of([metric(result) for result in results])


def mechanism_comparison_with_error_bars(
        benchmark: str, seeds: Sequence[int] = (11, 23, 47),
        config: NocConfig = PAPER_CONFIG,
        mechanisms: Sequence[str] = MECHANISM_ORDER,
        metric: Callable[[RunResult], float] = (
            lambda r: r.avg_packet_latency),
        error_threshold_pct: float = 10.0,
        trace_cycles: int = 4000, warmup: int = 2000,
        measure: int = 2000,
        workers: Optional[int] = None) -> Dict[str, SeedStats]:
    """Latency of every mechanism on one benchmark, with error bars.

    Runs the whole (seed x mechanism) grid through one
    :func:`~repro.harness.parallel.parallel_map` call, seed-major, so each
    seed's trace is recorded once and shared by every mechanism.
    """
    specs = _sweep_specs(benchmark, mechanisms, seeds, config,
                         error_threshold_pct, trace_cycles, warmup, measure)
    results = parallel_map(specs, workers=1 if workers is None else workers)
    samples: Dict[str, List[float]] = {m: [] for m in mechanisms}
    for spec, result in zip(specs, results):
        samples[spec.mechanism].append(metric(result))
    return {mechanism: SeedStats.of(values)
            for mechanism, values in samples.items()}


def significantly_better(a: SeedStats, b: SeedStats,
                         sigmas: float = 1.0) -> bool:
    """Is ``a``'s mean lower than ``b``'s by more than their combined
    spread?  A coarse separation test for ordering claims."""
    spread = math.sqrt(a.std ** 2 + b.std ** 2)
    return a.mean + sigmas * spread < b.mean
