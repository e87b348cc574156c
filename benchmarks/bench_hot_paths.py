"""Microbenchmark of the simulator's hot paths.

Times, over fixed deterministic workloads:

* FP-VAXX memo miss     — the body of the fused per-word memo
  (``fp_vaxx._match_word``: AVCL mask, masked pattern match, relative
  error) over words the memo has not seen;
* ``Avcl.evaluate``      — don't-care mask computation per word;
* ``Network.step``       — full network cycles replaying a benchmark trace,
  plain, with NoCSan on, and with the fault layer built but unarmed;
* saturated-load stepping — an 8x8 mesh at 0.1 flits/node/cycle, run on
  both the struct-of-arrays core and the object core (DESIGN.md §14),
  with the wall clock split per step phase so regressions are
  attributable to a phase rather than a total;
* big-mesh stepping — the same load on 16x16, on both cores;
* trace pipeline — end-to-end replay (trace load + run) of a
  500k-record trace on 16x16 from JSON-lines (eager ``load_trace``)
  versus the memory-mapped binary format (``StreamingTraceTraffic``,
  DESIGN.md §17), with bit-identical outputs asserted, the streaming
  peak memory gated flat across a 10x trace-length spread
  (tracemalloc), and streamed cycles/sec datapoints on 16x16 and
  32x32.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py [--json out.json]
    PYTHONPATH=src python benchmarks/bench_hot_paths.py \
        --check benchmarks/bench_hot_paths_baseline.json --max-regression 3

``--check`` exits non-zero when any metric is slower than baseline by more
than the allowed factor (a coarse tripwire for accidental hot-path
regressions; the 3x default absorbs machine-to-machine variance).  The
same-run ratio gates (faults-off overhead, SoA-vs-object speedups) run
the repeats of their two sides interleaved, so a burst of host load
lands on both sides rather than on one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from functools import partial

from repro.core.avcl import Avcl, clear_evaluate_cache
from repro.core.block import DataType
from repro.core.fp_vaxx import _match_word
from repro.faults import FaultConfig
from repro.harness.experiment import benchmark_trace, make_scheme
from repro.noc import Network, NocConfig
from repro.noc.packet import PacketKind
from repro.traffic import (
    StreamingTraceTraffic,
    SyntheticTraffic,
    TraceRecord,
    TraceTraffic,
    load_trace,
    record_trace,
    save_trace,
    write_trace,
)

#: Distinct values per workload; small enough that the warm passes hit the
#: encode caches like real traffic (benchmark value models repeat heavily).
UNIQUE_VALUES = 4096
#: Evaluations per measured pass (mostly warm, as in a real run).
PASS_OPS = 100_000
#: Memo-miss bodies per measured pass (each one is a full cold match).
MISS_OPS = 20_000
NETWORK_CYCLES = 1500
#: Saturated-load point (ISSUE 6): uniform-random traffic at 0.1
#: *uncompressed flits* per node per cycle — the repo's injection-rate
#: unit — on an 8x8 mesh, replayed under the Baseline scheme so the
#: datapoint times network stepping rather than encode/decode.
SATURATED_RATE = 0.1
SATURATED_CYCLES = 1500
BIGMESH_CYCLES = 600
REPEATS = 3
#: Trace-pipeline datapoint (ISSUE 9): a 500k-record trace on a 16x16
#: mesh, replayed end-to-end (trace load + run) from JSON-lines versus
#: the memory-mapped binary format.  The record count is what makes the
#: eager-load cost visible; the replay window keeps the run-time share
#: realistic (the trace loops).
TRACE_RECORDS = 500_000
TRACE_DENSITY = 4          # records injected per trace cycle
TRACE_DATA_RATIO = 0.25    # data records (8 words) vs control records
TRACE_REPLAY_CYCLES = 1500
#: 32x32 streamed-replay datapoint: fewer records and cycles — the point
#: is the cycles/sec figure on 1024 nodes, not another load comparison.
TRACE_32_RECORDS = 100_000
TRACE_32_CYCLES = 300


def _words(n: int, seed: int = 7):
    rng = random.Random(seed)
    kinds = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.35:
            kinds.append(rng.randint(0, 255))              # small ints
        elif pick < 0.55:
            kinds.append(0xFFFFFF00 | rng.randint(0, 255))  # small negatives
        else:
            kinds.append(rng.getrandbits(32))               # wide values
    return kinds


def _best(fn) -> float:
    return min(fn() for _ in range(REPEATS))


def _interleaved(passes):
    """Best-of-``REPEATS`` outcome of each pass, running the passes'
    repeats interleaved (A, B, A, B, ...) so a burst of host load lands on
    every side of a same-run ratio rather than on one.  Each pass returns
    a tuple whose first element is its wall time."""
    best = [None] * len(passes)
    for _ in range(REPEATS):
        for index, one_pass in enumerate(passes):
            outcome = one_pass()
            if best[index] is None or outcome[0] < best[index][0]:
                best[index] = outcome
    return best


def bench_fpvaxx_memo_miss() -> float:
    """The FP-VAXX word memo's miss path: every call runs the uncached
    fused body, over integer and float words at the default 10% AVCL."""
    words = _words(UNIQUE_VALUES)
    shift = Avcl(error_threshold_pct=10.0).shift
    dtypes = [DataType.INT, DataType.FLOAT]

    def one_pass() -> float:
        start = time.perf_counter()
        for i in range(MISS_OPS):
            _match_word(words[i % UNIQUE_VALUES], dtypes[i & 1], shift,
                        "paper")
        return time.perf_counter() - start

    return _best(one_pass)


def bench_avcl_evaluate() -> float:
    avcl = Avcl(error_threshold_pct=10.0)
    words = _words(UNIQUE_VALUES)
    dtypes = [DataType.INT, DataType.FLOAT]

    def one_pass() -> float:
        clear_evaluate_cache()
        start = time.perf_counter()
        for i in range(PASS_OPS):
            avcl.evaluate(words[i % UNIQUE_VALUES], dtypes[i & 1])
        return time.perf_counter() - start

    return _best(one_pass)


def _replay_network(config: NocConfig, scheme_name: str,
                    trace: list) -> Network:
    """Fresh network replaying a recorded trace — the shared setup of
    every ``network_step*`` datapoint (recording itself is untimed)."""
    network = Network(config, make_scheme(scheme_name, config.n_nodes))
    network.set_traffic(TraceTraffic(trace, loop=True))
    return network


def _replay_once(config: NocConfig, scheme_name: str, trace: list,
                 cycles: int):
    """One timed trace replay: ``(wall_s, network)``."""
    network = _replay_network(config, scheme_name, trace)
    start = time.perf_counter()
    network.run(cycles)
    return time.perf_counter() - start, network


def _phase_split_replay(config: NocConfig, scheme_name: str, trace: list,
                        cycles: int):
    """One replay with the wall clock split per step phase.

    Wraps the network's router/deliver/credit phase methods with timing
    shims (instance attributes shadow the bound methods, so ``step()``
    picks them up); everything not covered is the NI/traffic/stats
    remainder.  Returns ``(total_s, phases_s, network)``.
    """
    network = _replay_network(config, scheme_name, trace)
    phases = {"router": 0.0, "deliver": 0.0, "credits": 0.0}
    cycle_routers = network._cycle_routers
    deliver = network._deliver_arrivals
    credits = network._apply_credits
    perf = time.perf_counter

    def timed_routers(*args):
        t0 = perf()
        cycle_routers(*args)
        phases["router"] += perf() - t0

    def timed_deliver(*args):
        t0 = perf()
        deliver(*args)
        phases["deliver"] += perf() - t0

    def timed_credits(*args):
        t0 = perf()
        credits(*args)
        phases["credits"] += perf() - t0

    network._cycle_routers = timed_routers
    network._deliver_arrivals = timed_deliver
    network._apply_credits = timed_credits
    start = perf()
    network.run(cycles)
    return perf() - start, phases, network


def bench_network_step() -> dict:
    """One benchmark trace replayed on the 2x2x2 mesh three ways.

    ``network_step_s`` is the plain run.  ``network_step_sanitized_s``
    (NoCSan on) is reported for visibility but exempt from --check: the
    sanitized path is opt-in debugging.  ``network_step_faultsoff_s`` builds
    the fault layer with every rate at zero, so the hot paths must compile
    down to the faults=None closures; --check gates it at
    ``FAULTS_OFF_MAX_OVERHEAD`` of the same run's ``network_step_s``.
    """
    variants = {"network_step_s": {},
                "network_step_sanitized_s": {"sanitize": True},
                "network_step_faultsoff_s": {"faults": FaultConfig()}}
    passes = []
    for overrides in variants.values():
        config = NocConfig(mesh_width=2, mesh_height=2, concentration=2,
                           **overrides)
        trace = benchmark_trace(config, "ssca2", NETWORK_CYCLES, seed=11)
        passes.append(partial(_replay_once, config, "FP-VAXX", trace,
                              NETWORK_CYCLES))
    return {name: outcome[0]
            for name, outcome in zip(variants, _interleaved(passes))}


def _core_comparison(config: NocConfig, trace: list, cycles: int):
    """Run one trace on the SoA core and the object core, asserting
    bit-identical simulation outputs, and return their best wall times
    (plus the SoA pass's per-phase split)."""
    (best_total, best_phases, soa_net), (obj_total, obj_phases, obj_net) = \
        _interleaved([
            partial(_phase_split_replay, replace(config, core=core),
                    "Baseline", trace, cycles)
            for core in ("soa", "object")])
    if soa_net.stats.simulation_outputs() != obj_net.stats.simulation_outputs():
        raise AssertionError(
            "SoA core diverged from the object core on the bench "
            f"workload: {soa_net.stats.simulation_outputs()} != "
            f"{obj_net.stats.simulation_outputs()}")
    return best_total, best_phases, soa_net, obj_total, obj_phases


def bench_network_step_saturated() -> dict:
    """Saturated-load stepping: SoA core vs object core on 8x8 at 0.1
    flits/node/cycle, with the wall clock split per step phase.

    Both cores run the identical recorded trace and must produce
    bit-identical simulation outputs (asserted).  ``profile_phases`` is on,
    so the per-phase cycles/sec figures pair each phase's activity ticks
    with its measured wall share.  The speedup ratios are measured within
    this run (like the faults-off gate: immune to machine variance) and
    gated in ``--check``.
    """
    config = NocConfig(mesh_width=8, mesh_height=8, concentration=1,
                       profile_phases=True)
    source = SyntheticTraffic(config, injection_rate=SATURATED_RATE,
                              seed=13, data_ratio=0.25)
    trace = record_trace(source, SATURATED_CYCLES)
    soa_s, soa_phases, soa_net, obj_s, obj_phases = _core_comparison(
        config, trace, SATURATED_CYCLES)
    stats = soa_net.stats
    results = {
        "network_step_saturated_s": soa_s,
        "network_step_saturated_cycles_per_sec": SATURATED_CYCLES / soa_s,
        # Object-core comparator on the identical workload: reported for
        # the speedup trajectory, exempt from --check (it times the
        # reference core, not the default fast path).
        "network_step_saturated_objectcore_s": obj_s,
        "network_step_saturated_speedup_x": obj_s / soa_s,
        "network_step_saturated_router_phase_s": soa_phases["router"],
        "network_step_saturated_router_speedup_x":
            obj_phases["router"] / soa_phases["router"],
    }
    # Per-phase cycles/sec: cycles in which the phase did any work
    # (profile_phases ticks) over the wall time spent inside the phase —
    # a regression here names the phase, not just the total.
    for key, ticks in (("router", stats.router_phase_ticks),
                       ("deliver", stats.deliver_phase_ticks),
                       ("credits", stats.credit_phase_ticks)):
        seconds = soa_phases[key]
        if seconds > 0:
            results[f"network_step_saturated_{key}_phase_cycles_per_sec"] \
                = ticks / seconds
    return results


def bench_network_step_bigmesh() -> dict:
    """Big-mesh stepping: the saturated workload on 16x16, SoA vs object
    core."""
    config = NocConfig(mesh_width=16, mesh_height=16, concentration=1)
    source = SyntheticTraffic(config, injection_rate=SATURATED_RATE,
                              seed=13, data_ratio=0.25)
    trace = record_trace(source, BIGMESH_CYCLES)
    soa_s, _, _, obj_s, _ = _core_comparison(config, trace, BIGMESH_CYCLES)
    return {
        "network_step_bigmesh_s": soa_s,
        "network_step_bigmesh_cycles_per_sec": BIGMESH_CYCLES / soa_s,
        "network_step_bigmesh_objectcore_s": obj_s,
        "network_step_bigmesh_speedup_x": obj_s / soa_s,
    }


def _synth_trace_records(n_nodes: int, n_records: int, seed: int = 17):
    """Deterministic synthetic injection stream: ``TRACE_DENSITY`` records
    per cycle, uniform src/dst pairs, ``TRACE_DATA_RATIO`` 8-word data
    records.  A generator — feeding it straight to ``write_trace`` /
    ``save_trace`` records any length in bounded memory."""
    rng = random.Random(seed)
    cycle = 0
    emitted = 0
    while emitted < n_records:
        for _ in range(TRACE_DENSITY):
            if emitted >= n_records:
                break
            src = rng.randrange(n_nodes)
            dst = rng.randrange(n_nodes - 1)
            if dst >= src:
                dst += 1
            if rng.random() < TRACE_DATA_RATIO:
                yield TraceRecord(
                    cycle=cycle, src=src, dst=dst, kind=PacketKind.DATA,
                    words=tuple(rng.getrandbits(32) for _ in range(8)),
                    dtype=DataType.INT,
                    approximable=rng.random() < 0.5)
            else:
                yield TraceRecord(cycle=cycle, src=src, dst=dst,
                                  kind=PacketKind.CONTROL)
            emitted += 1
        cycle += 1


def _stream_replay_peak_mb(config: NocConfig, path: str,
                           cycles: int) -> float:
    """tracemalloc peak (MiB) of opening + replaying a binary trace.

    The network is constructed outside the traced window, so the figure
    isolates what the streaming replayer itself holds: the mmap view is
    kernel-managed (not traced), leaving the chunk cache as the only
    O(anything) allocation — which is why the peak must stay flat as the
    trace grows."""
    network = Network(config, make_scheme("Baseline", config.n_nodes))
    tracemalloc.start()
    try:
        network.set_traffic(StreamingTraceTraffic(path, loop=True))
        network.run(cycles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


def bench_trace_pipeline() -> dict:
    """End-to-end trace replay: JSON-lines eager load vs memory-mapped
    binary streaming (DESIGN.md §17).

    Both paths replay the identical 500k-record trace on a 16x16 mesh and
    must produce bit-identical simulation outputs (asserted).  The timed
    window is trace load + replay — the binary path's advantage *is*
    skipping the eager parse — with network construction (verification,
    memoized per process) outside it.  Gated in ``--check`` within this
    run: the streaming speedup floor, an absolute peak-memory ceiling,
    and peak-memory flatness across a 10x trace-length spread."""
    config = NocConfig(mesh_width=16, mesh_height=16, concentration=1)
    big_config = NocConfig(mesh_width=32, mesh_height=32, concentration=1)
    with tempfile.TemporaryDirectory() as tmp:
        binary_path = os.path.join(tmp, "trace.bin")
        jsonl_path = os.path.join(tmp, "trace.jsonl")
        small_path = os.path.join(tmp, "small.bin")
        big_path = os.path.join(tmp, "big32.bin")
        write_trace(_synth_trace_records(config.n_nodes, TRACE_RECORDS),
                    binary_path, n_nodes=config.n_nodes)
        save_trace(_synth_trace_records(config.n_nodes, TRACE_RECORDS),
                   jsonl_path)
        write_trace(_synth_trace_records(config.n_nodes,
                                         TRACE_RECORDS // 10),
                    small_path, n_nodes=config.n_nodes)
        write_trace(_synth_trace_records(big_config.n_nodes,
                                         TRACE_32_RECORDS),
                    big_path, n_nodes=big_config.n_nodes)

        def jsonl_once():
            network = Network(config, make_scheme("Baseline",
                                                  config.n_nodes))
            start = time.perf_counter()
            network.set_traffic(TraceTraffic(load_trace(jsonl_path),
                                             loop=True))
            network.run(TRACE_REPLAY_CYCLES)
            return time.perf_counter() - start, network

        def stream_once(path: str, cfg: NocConfig, cycles: int):
            network = Network(cfg, make_scheme("Baseline", cfg.n_nodes))
            start = time.perf_counter()
            network.set_traffic(StreamingTraceTraffic(path, loop=True))
            network.run(cycles)
            return time.perf_counter() - start, network

        # One JSONL pass (the comparator; the speedup floor has a wide
        # margin) against best-of-REPEATS streaming passes.
        jsonl_s, jsonl_net = jsonl_once()
        stream_s = None
        stream_net = None
        for _ in range(REPEATS):
            elapsed, network = stream_once(binary_path, config,
                                           TRACE_REPLAY_CYCLES)
            if stream_s is None or elapsed < stream_s:
                stream_s, stream_net = elapsed, network
        if jsonl_net.stats.simulation_outputs() != \
                stream_net.stats.simulation_outputs():
            raise AssertionError(
                "streamed binary replay diverged from the JSONL replay "
                "of the identical trace: "
                f"{stream_net.stats.simulation_outputs()} != "
                f"{jsonl_net.stats.simulation_outputs()}")
        peak_mb = _stream_replay_peak_mb(config, binary_path,
                                         TRACE_REPLAY_CYCLES)
        small_peak_mb = _stream_replay_peak_mb(config, small_path,
                                               TRACE_REPLAY_CYCLES)
        big_s = None
        for _ in range(REPEATS):
            elapsed, _net = stream_once(big_path, big_config,
                                        TRACE_32_CYCLES)
            if big_s is None or elapsed < big_s:
                big_s = elapsed
        return {
            # Eager comparator: reported for the speedup trajectory,
            # exempt from --check (it times the deliberately-eager path).
            "trace_pipeline_jsonl_s": jsonl_s,
            "trace_pipeline_stream_s": stream_s,
            "trace_pipeline_speedup_x": jsonl_s / stream_s,
            "trace_stream_peak_mb": peak_mb,
            "trace_stream_memory_ratio_x": peak_mb / small_peak_mb,
            "trace_stream_16x16_cycles_per_sec":
                TRACE_REPLAY_CYCLES / stream_s,
            "trace_stream_32x32_s": big_s,
            "trace_stream_32x32_cycles_per_sec": TRACE_32_CYCLES / big_s,
        }


def run_all() -> dict:
    results = {
        "fpvaxx_memo_miss_s": bench_fpvaxx_memo_miss(),
        "avcl_evaluate_s": bench_avcl_evaluate(),
    }
    results.update(bench_network_step())
    results.update(bench_network_step_saturated())
    results.update(bench_network_step_bigmesh())
    results.update(bench_trace_pipeline())
    return results


#: Allowed slowdown of a run with the fault layer built-but-unarmed
#: (all-zero FaultConfig) over one with faults=None, measured within a
#: single bench run: the rate-0 plumbing must stay within 5%.
FAULTS_OFF_MAX_OVERHEAD = 1.05

#: In-run speedup floors for the struct-of-arrays core over the object
#: core on the same recorded workload (measured within one bench run, so
#: machine variance cancels).  ISSUE 6 targeted 5x at 0.1
#: flits/node/cycle; the measured ceiling is lower — shared
#: NI/traffic/stats work bounds the full-run ratio near 2.8x even with an
#: infinitely fast router phase, and the per-flit-hop floor of a
#: bit-identical Python pass bounds the router phase near 2x at this load
#: (DESIGN.md §14 has the arithmetic) — so the gates lock in the measured
#: wins with headroom for noise rather than encode an unreachable target.
SATURATED_MIN_SPEEDUP = 1.2
SATURATED_ROUTER_MIN_SPEEDUP = 1.5
BIGMESH_MIN_SPEEDUP = 1.3

#: In-run floor for the binary streaming replay over the eager JSONL
#: path, end-to-end (trace load + replay) on the 500k-record datapoint —
#: the ISSUE 9 acceptance target.  Measured ~10x (the JSONL parse alone
#: dwarfs the whole streamed run); the floor locks in half that.
TRACE_STREAM_MIN_SPEEDUP = 5.0
#: Absolute ceiling on the streaming replayer's traced peak memory (MiB):
#: one chunk cache plus network state, measured ~9 MiB — a 500k-record
#: trace must never be loaded eagerly by accident.
TRACE_STREAM_MAX_PEAK_MB = 32.0
#: Peak-memory flatness across the 10x trace-length spread (500k vs 50k
#: records): the streaming path is O(chunk), so the ratio must stay ~1.
TRACE_STREAM_MEM_FLAT_MAX = 1.5


def check(results: dict, baseline_path: str, max_regression: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    status = 0
    faultsoff = results.get("network_step_faultsoff_s")
    if faultsoff is not None:
        ratio = faultsoff / results["network_step_s"]
        verdict = ("ok" if ratio <= FAULTS_OFF_MAX_OVERHEAD
                   else "REGRESSION")
        print(f"  network_step_faultsoff_s: {faultsoff:.4f}s vs same-run "
              f"network_step_s {results['network_step_s']:.4f}s "
              f"({ratio:.2f}x, limit {FAULTS_OFF_MAX_OVERHEAD:.2f}x) "
              f"{verdict}")
        if ratio > FAULTS_OFF_MAX_OVERHEAD:
            status = 1
    for name, floor in (
            ("network_step_saturated_speedup_x", SATURATED_MIN_SPEEDUP),
            ("network_step_saturated_router_speedup_x",
             SATURATED_ROUTER_MIN_SPEEDUP),
            ("network_step_bigmesh_speedup_x", BIGMESH_MIN_SPEEDUP)):
        speedup = results.get(name)
        if speedup is None:
            continue
        verdict = "ok" if speedup >= floor else "REGRESSION"
        print(f"  {name}: {speedup:.2f}x vs same-run object core "
              f"(floor {floor:.2f}x) {verdict}")
        if speedup < floor:
            status = 1
    stream_speedup = results.get("trace_pipeline_speedup_x")
    if stream_speedup is not None:
        verdict = ("ok" if stream_speedup >= TRACE_STREAM_MIN_SPEEDUP
                   else "REGRESSION")
        print(f"  trace_pipeline_speedup_x: {stream_speedup:.2f}x vs "
              f"same-run JSONL path (floor "
              f"{TRACE_STREAM_MIN_SPEEDUP:.2f}x) {verdict}")
        if stream_speedup < TRACE_STREAM_MIN_SPEEDUP:
            status = 1
    peak_mb = results.get("trace_stream_peak_mb")
    if peak_mb is not None:
        verdict = ("ok" if peak_mb <= TRACE_STREAM_MAX_PEAK_MB
                   else "REGRESSION")
        print(f"  trace_stream_peak_mb: {peak_mb:.2f} MiB (ceiling "
              f"{TRACE_STREAM_MAX_PEAK_MB:.1f} MiB) {verdict}")
        if peak_mb > TRACE_STREAM_MAX_PEAK_MB:
            status = 1
    mem_ratio = results.get("trace_stream_memory_ratio_x")
    if mem_ratio is not None:
        verdict = ("ok" if mem_ratio <= TRACE_STREAM_MEM_FLAT_MAX
                   else "REGRESSION")
        print(f"  trace_stream_memory_ratio_x: {mem_ratio:.2f}x peak "
              f"across 10x trace length (ceiling "
              f"{TRACE_STREAM_MEM_FLAT_MAX:.2f}x) {verdict}")
        if mem_ratio > TRACE_STREAM_MEM_FLAT_MAX:
            status = 1
    for name, value in results.items():
        if not name.endswith("_s"):
            continue  # non-timing metric (cycles/sec, speedup): not gated
        if name.endswith(("_sanitized_s", "_faultsoff_s", "_objectcore_s",
                          "_jsonl_s")):
            continue  # debug/comparator timing: gated above or never
        reference = baseline.get(name)
        if reference is None:
            print(f"  {name}: no baseline, skipped")
            continue
        ratio = value / reference
        verdict = "ok" if ratio <= max_regression else "REGRESSION"
        print(f"  {name}: {value:.4f}s vs baseline {reference:.4f}s "
              f"({ratio:.2f}x) {verdict}")
        if ratio > max_regression:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON file")
    parser.add_argument("--max-regression", type=float, default=3.0,
                        help="allowed slowdown factor for --check "
                             "(default 3.0)")
    args = parser.parse_args(argv)
    results = run_all()
    for name, value in results.items():
        unit = "s" if name.endswith("_s") else ""
        print(f"{name}: {value:.4f}{unit}")
    overhead = results["network_step_sanitized_s"] / results["network_step_s"]
    print(f"sanitizer overhead (enabled vs disabled): {overhead:.2f}x")
    print(f"SoA core saturated speedup (vs object core, same run): "
          f"{results['network_step_saturated_speedup_x']:.2f}x full run, "
          f"{results['network_step_saturated_router_speedup_x']:.2f}x "
          f"router phase "
          f"({results['network_step_saturated_cycles_per_sec']:,.0f} "
          f"cycles/s)")
    print(f"SoA core 16x16 speedup (vs object core, same run): "
          f"{results['network_step_bigmesh_speedup_x']:.2f}x")
    print(f"trace pipeline stream speedup (vs eager JSONL, same run): "
          f"{results['trace_pipeline_speedup_x']:.2f}x end-to-end, peak "
          f"{results['trace_stream_peak_mb']:.1f} MiB "
          f"({results['trace_stream_memory_ratio_x']:.2f}x across 10x "
          f"trace length); streamed "
          f"{results['trace_stream_16x16_cycles_per_sec']:,.0f} cycles/s "
          f"on 16x16, "
          f"{results['trace_stream_32x32_cycles_per_sec']:,.0f} on 32x32")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")
    if args.check:
        print(f"checking against {args.check} "
              f"(max {args.max_regression:.1f}x):")
        return check(results, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
