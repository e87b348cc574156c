"""Experiment infrastructure: mechanisms, warmup/measure runs, caching.

Methodology (mirroring §5.1): benchmark traffic is recorded once into a
trace, and every mechanism replays the *identical* trace.  Each run warms
the network (and the dictionary state) before the measurement window, whose
statistics are what the figures report; the run then drains so every
measured packet completes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.compression import BaselineScheme, DiCompScheme, FpCompScheme
from repro.compression.base import CompressionScheme
from repro.compression.fpc import match_cache_info
from repro.core import DiVaxxScheme, FpVaxxScheme
from repro.core.avcl import evaluate_cache_info
from repro.core.fp_vaxx import word_memo_totals
from repro.noc import Network, NocConfig
from repro.power.energy import PowerReport, dynamic_power
from repro.traffic import (
    BenchmarkTraffic,
    StreamingTraceTraffic,
    TraceFile,
    TraceTraffic,
    get_benchmark,
    load_trace,
    record_trace,
)
from repro.traffic.tracefile import is_binary_trace

#: Anything :func:`run_trace` accepts as the trace argument: an in-memory
#: record list, an open :class:`TraceFile`, or a path to a binary (.rpt)
#: or JSON-lines trace on disk.
TraceLike = Union[list, str, Path, TraceFile]

#: The five mechanisms of every figure, in plot order.
MECHANISM_ORDER: Tuple[str, ...] = (
    "Baseline", "DI-COMP", "DI-VAXX", "FP-COMP", "FP-VAXX")


def make_scheme(mechanism: str, n_nodes: int,
                error_threshold_pct: float = 10.0,
                avcl_mode: str = "paper",
                budget_factory: Optional[Callable] = None
                ) -> CompressionScheme:
    """Instantiate a mechanism by its figure name."""
    if mechanism == "Baseline":
        return BaselineScheme(n_nodes)
    if mechanism == "DI-COMP":
        return DiCompScheme(n_nodes)
    if mechanism == "FP-COMP":
        return FpCompScheme(n_nodes)
    if mechanism == "DI-VAXX":
        return DiVaxxScheme(n_nodes, error_threshold_pct=error_threshold_pct,
                            avcl_mode=avcl_mode,
                            budget_factory=budget_factory)
    if mechanism == "FP-VAXX":
        return FpVaxxScheme(n_nodes, error_threshold_pct=error_threshold_pct,
                            avcl_mode=avcl_mode,
                            budget_factory=budget_factory)
    raise ValueError(f"unknown mechanism {mechanism!r}; "
                     f"choose from {MECHANISM_ORDER}")


def encode_cache_totals() -> Tuple[int, int]:
    """Aggregate (hits, misses) across the shared encode-path caches.

    Covers the AVCL evaluate cache, both FPC pattern-match caches and the
    fused FP-VAXX word memos; the harness reports per-run deltas of these
    process-wide totals.
    """
    exact, approx = match_cache_info()
    avcl = evaluate_cache_info()
    word_hits, word_misses = word_memo_totals()
    return (exact.hits + approx.hits + avcl.hits + word_hits,
            exact.misses + approx.misses + avcl.misses + word_misses)


#: RunResult fields that describe the *measurement process* rather than the
#: simulated network; excluded from bit-identity comparisons.  Skipped
#: cycles belong here: the event-horizon fast path changes how many cycles
#: are jumped (always-step runs report 0) without changing any simulated
#: number.
PERF_FIELDS = ("wall_time_s", "encode_cache_hits", "encode_cache_misses",
               "skipped_cycles")


@dataclass
class RunResult:
    """Measured outcome of one (trace, mechanism) network run."""

    mechanism: str
    avg_queue_latency: float
    avg_network_latency: float
    avg_decode_latency: float
    avg_packet_latency: float
    data_flits_injected: int
    total_flits_injected: int
    packets_delivered: int
    compression_ratio: float
    encoded_fraction: float
    exact_fraction: float
    approx_fraction: float
    data_quality: float
    notifications: int
    throughput: float
    power: PowerReport
    # Perf instrumentation (not simulation outputs): harness wall time,
    # encode-cache effectiveness and event-horizon skips over the whole
    # run (warmup + measure).
    wall_time_s: float = 0.0
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0
    skipped_cycles: int = 0
    # Fault-injection and recovery counters (repro.faults; all zero when
    # the layer is unarmed).  Simulation outputs, *not* perf fields: a
    # fault campaign's injections are part of its bit-identity contract.
    faults_injected: int = 0
    crc_rejections: int = 0
    retransmissions: int = 0
    degraded_blocks: int = 0

    @classmethod
    def from_network(cls, network: Network) -> "RunResult":
        """Snapshot a finished network run."""
        stats = network.stats
        quality = network.scheme.quality
        faults = getattr(network, "_faults", None)
        fault_summary = faults.summary() if faults is not None else {}
        return cls(
            mechanism=network.scheme.name,
            avg_queue_latency=stats.avg_queue_latency,
            avg_network_latency=stats.avg_network_latency,
            avg_decode_latency=stats.avg_decode_latency,
            avg_packet_latency=stats.avg_packet_latency,
            data_flits_injected=stats.data_flits_injected,
            total_flits_injected=stats.total_flits_injected,
            packets_delivered=stats.total_packets_delivered,
            compression_ratio=network.scheme.stats.compression_ratio,
            encoded_fraction=quality.encoded_fraction,
            exact_fraction=quality.exact_fraction,
            approx_fraction=quality.approx_fraction,
            data_quality=quality.data_quality,
            notifications=network.scheme.stats.notifications,
            throughput=stats.throughput_flits_per_node_cycle(
                network.config.n_nodes),
            power=dynamic_power(stats, network.scheme.name,
                                network.config.frequency_ghz),
            encode_cache_hits=stats.encode_cache_hits,
            encode_cache_misses=stats.encode_cache_misses,
            skipped_cycles=stats.skipped_cycles,
            faults_injected=fault_summary.get("faults_injected", 0),
            crc_rejections=fault_summary.get("crc_rejections", 0),
            retransmissions=fault_summary.get("retransmissions", 0),
            degraded_blocks=fault_summary.get("degraded_blocks", 0),
        )

    # --------------------------------------------------------- comparison

    def simulation_outputs(self) -> Dict[str, object]:
        """Every field that is a *simulation output* (excludes perf
        instrumentation), for bit-identity comparisons across execution
        modes (serial vs parallel vs cached)."""
        payload = asdict(self)
        for name in PERF_FIELDS:
            payload.pop(name, None)
        return payload

    def identity_digest(self) -> str:
        """sha256 over the canonical JSON form of
        :meth:`simulation_outputs` — the bit-identity fingerprint of this
        run.  Two runs of the same spec agree on this digest whatever the
        execution mode (serial, parallel, cached, resumed after a crash);
        the campaign service journals it per spec and its validation gate
        re-derives it from an independent re-execution before sealing a
        job (DESIGN.md §18)."""
        blob = json.dumps(self.simulation_outputs(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------ serialization

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (used by the on-disk result cache)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_json_dict` output."""
        payload = dict(payload)
        payload["power"] = PowerReport(**payload["power"])
        return cls(**payload)


# Deliberate per-process memo: parallel_map's benchmark-major chunking is
# designed around one trace recording per (benchmark, seed) per worker.
# repro: allow[mutable-global]
_TRACE_CACHE: Dict[tuple, list] = {}


def benchmark_trace(config: NocConfig, benchmark: str, cycles: int,
                    seed: int = 11,
                    approx_packet_ratio: float = 0.75) -> list:
    """Record (and cache) one benchmark's traffic trace."""
    key = (config.mesh_width, config.mesh_height, config.concentration,
           benchmark, cycles, seed, approx_packet_ratio)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        source = BenchmarkTraffic(config, get_benchmark(benchmark),
                                  approx_packet_ratio=approx_packet_ratio,
                                  seed=seed)
        trace = record_trace(source, cycles)
        _TRACE_CACHE[key] = trace
    return trace


def trace_source(trace: TraceLike, loop: bool = True,
                 approx_override: Optional[float] = None,
                 trace_start: int = 0,
                 trace_stop: Optional[int] = None):
    """Build the replay source for anything :data:`TraceLike`.

    Binary paths and :class:`TraceFile` objects stream (O(chunk) memory);
    JSONL paths are loaded eagerly; record lists are used as-is.  The
    ``trace_start``/``trace_stop`` record window applies uniformly, which
    is how parallel campaigns shard one trace file across workers.
    """
    if isinstance(trace, TraceFile):
        return StreamingTraceTraffic(trace, loop=loop,
                                     approx_override=approx_override,
                                     start=trace_start, stop=trace_stop)
    if isinstance(trace, (str, Path)):
        if is_binary_trace(trace):
            return StreamingTraceTraffic(trace, loop=loop,
                                         approx_override=approx_override,
                                         start=trace_start, stop=trace_stop)
        trace = load_trace(trace)
    if trace_start != 0 or trace_stop is not None:
        trace = sorted(trace, key=lambda r: r.cycle)[trace_start:trace_stop]
    return TraceTraffic(trace, loop=loop, approx_override=approx_override)


def run_trace(config: NocConfig, mechanism: str, trace: TraceLike,
              warmup: int, measure: int,
              error_threshold_pct: float = 10.0,
              approx_override: Optional[float] = None,
              drain_budget: int = 200_000,
              sanitize: Optional[bool] = None,
              event_horizon: Optional[bool] = None,
              core: Optional[str] = None,
              trace_start: int = 0,
              trace_stop: Optional[int] = None) -> RunResult:
    """Replay a trace under one mechanism with warmup + measurement.

    ``trace`` may be a record list, a path to a JSONL or binary trace, or
    an open :class:`TraceFile` — file-backed binary traces replay through
    :class:`StreamingTraceTraffic` without ever materializing the record
    list (see :func:`trace_source`).  ``trace_start``/``trace_stop``
    select a record window (used to shard big traces across workers).

    ``sanitize`` overrides ``config.sanitize`` (None keeps the config's
    setting; the ``REPRO_SANITIZE`` environment variable still applies).
    ``event_horizon`` likewise overrides ``config.event_horizon`` — the
    equivalence tests force it both ways on one config.  ``core``
    overrides ``config.core`` the same way (the cross-core identity suite
    runs one config through every backend).
    """
    return _measured_run(
        config, mechanism,
        lambda _config: trace_source(trace, loop=True,
                                     approx_override=approx_override,
                                     trace_start=trace_start,
                                     trace_stop=trace_stop),
        warmup, measure, error_threshold_pct, drain_budget,
        dict(sanitize=sanitize, event_horizon=event_horizon, core=core))


def run_synthetic(config: NocConfig, mechanism: str, traffic_factory,
                  warmup: int, measure: int,
                  error_threshold_pct: float = 10.0,
                  drain_budget: int = 400_000,
                  sanitize: Optional[bool] = None,
                  event_horizon: Optional[bool] = None,
                  core: Optional[str] = None) -> RunResult:
    """Run live synthetic traffic (Figure 12's methodology).

    ``traffic_factory(config)`` builds a fresh traffic source so each
    mechanism sees an identically-seeded stream.  Unlike :func:`run_trace`,
    saturated networks are expected here: the run is *not* drained, and
    latency reflects packets delivered inside the window.  ``sanitize``,
    ``event_horizon`` and ``core`` override their config fields as in
    :func:`run_trace`.
    """
    return _measured_run(
        config, mechanism, traffic_factory, warmup, measure,
        error_threshold_pct, None,
        dict(sanitize=sanitize, event_horizon=event_horizon, core=core))


def _measured_run(config: NocConfig, mechanism: str, traffic_factory,
                  warmup: int, measure: int, error_threshold_pct: float,
                  drain_budget: Optional[int], overrides: dict) -> RunResult:
    """Apply the non-None config ``overrides``, warm up, measure, then
    drain within ``drain_budget`` cycles (None: no drain, may saturate)."""
    start = time.perf_counter()
    hits0, misses0 = encode_cache_totals()
    overrides = {name: value for name, value in overrides.items()
                 if value not in (None, getattr(config, name))}
    if overrides:
        config = replace(config, **overrides)
    scheme = make_scheme(mechanism, config.n_nodes, error_threshold_pct)
    network = Network(config, scheme)
    network.set_traffic(traffic_factory(config))
    network.run(warmup)
    network.stats.reset()
    scheme.stats.reset()
    scheme.quality.reset()
    network.run(measure)
    if drain_budget is not None:
        measured_cycles = network.stats.cycles
        if not network.drain(drain_budget):
            raise RuntimeError(
                f"{mechanism} failed to drain within {drain_budget} cycles")
        network.stats.cycles = measured_cycles  # drain isn't measurement
    hits1, misses1 = encode_cache_totals()
    network.stats.encode_cache_hits = hits1 - hits0
    network.stats.encode_cache_misses = misses1 - misses0
    result = RunResult.from_network(network)
    result.wall_time_s = time.perf_counter() - start
    return result
