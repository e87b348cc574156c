"""The four workloads, each driving only user-facing APIs.

Every workload function takes ``(seed, size, workdir)`` and returns a
:class:`Outcome`: the end-to-end timings (``wall_s``, ``phase1_s``,
``phase2_s``), the operations it attempted, the ones that failed its
internal checks, and the outputs (digests or values, keyed by operation)
that are compared against ``expected.json`` for the default seed.

``size="full"`` is the benchmarked size; ``size="toy"`` is a seconds-long
version of the same code path for the self-test.  ``repro`` is imported
inside the functions, so importing this module needs nothing but the
standard library.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set

clock = time.perf_counter


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    wall_s: float
    phase1_s: float
    phase2_s: float
    attempted: int
    failed: Set[str] = field(default_factory=set)
    #: Operation id -> output (digest or value), for expected.json.
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Per-layer values only the workload itself can measure.
    extras: Dict[str, float] = field(default_factory=dict)
    #: Human-readable facts (sample counts, phase meanings).
    detail: Dict[str, object] = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _median_time(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append(clock() - start)
    return statistics.median(samples)


# --------------------------------------------------------------------------
# regen: regenerate EXPERIMENTS.md from a cold cache
# --------------------------------------------------------------------------

REGEN_SCALE = {"full": 0.1, "toy": 0.01}
RENDER_REPEATS = 300


def regen(seed: int, size: str, workdir: Path) -> Outcome:
    """``collect_all`` then ``render_experiments_md``, serial and cold.

    The figure code fixes its own seeds, so ``seed`` does not change the
    inputs.  phase1 is ``collect_all``; phase2 is the median render."""
    from repro.harness.results import collect_all, render_experiments_md

    start = clock()
    results = collect_all(scale=REGEN_SCALE[size])
    collected = clock()
    document = render_experiments_md(results)
    end = clock()
    render_s = _median_time(lambda: render_experiments_md(results),
                            RENDER_REPEATS)
    return Outcome(
        wall_s=end - start, phase1_s=collected - start, phase2_s=render_s,
        attempted=1, outputs={"document": _sha256(document)},
        detail={"scale": REGEN_SCALE[size], "render_repeats": RENDER_REPEATS,
                "document_bytes": len(document)})


# --------------------------------------------------------------------------
# fig9_suite: the Fig 9 grid through the RunSpec engine, cold then warm
# --------------------------------------------------------------------------

SUITE_SIZE = {
    "full": dict(benchmarks=None, trace_cycles=6000, warmup=3000,
                 measure=3000, warm_repeats=200),
    "toy": dict(benchmarks=("blackscholes",), trace_cycles=400, warmup=200,
                measure=200, warm_repeats=3),
}


def fig9_suite(seed: int, size: str, workdir: Path) -> Outcome:
    """``suite_specs`` x ``run_specs(workers=1)`` on an empty cache
    (phase1), then warm passes that must all hit the cache with
    unchanged digests (phase2: the median warm pass)."""
    from repro.harness import MECHANISM_ORDER, run_specs, suite_specs
    from repro.noc import PAPER_CONFIG
    from repro.traffic.profiles import BENCHMARK_ORDER

    params = SUITE_SIZE[size]
    specs = suite_specs(PAPER_CONFIG,
                        benchmarks=params["benchmarks"] or BENCHMARK_ORDER,
                        mechanisms=MECHANISM_ORDER,
                        trace_cycles=params["trace_cycles"],
                        warmup=params["warmup"], measure=params["measure"],
                        seed=seed)
    names = [f"{i:02d}:{s.benchmark}/{s.mechanism}"
             for i, s in enumerate(specs)]
    start = clock()
    cold = run_specs(specs, workers=1)
    cold_s = clock() - start

    failed: Set[str] = set()
    outputs: Dict[str, object] = {}
    for name, outcome in zip(names, cold):
        if outcome.ok and not outcome.cached:
            outputs[f"cold:{name}"] = outcome.result.identity_digest()
        else:
            failed.add(f"cold:{name}")
    warm_times = []
    for _ in range(params["warm_repeats"]):
        begin = clock()
        warm = run_specs(specs, workers=1)
        warm_times.append(clock() - begin)
        for name, outcome in zip(names, warm):
            if not (outcome.ok and outcome.cached and
                    outcome.result.identity_digest()
                    == outputs.get(f"cold:{name}")):
                failed.add(f"warm:{name}")
    return Outcome(
        wall_s=cold_s + warm_times[0], phase1_s=cold_s,
        phase2_s=statistics.median(warm_times),
        attempted=2 * len(specs), failed=failed, outputs=outputs,
        detail={"specs": len(specs), "warm_repeats": len(warm_times)})


# --------------------------------------------------------------------------
# saturation: Fig 12 synthetic traffic at and past saturation
# --------------------------------------------------------------------------

SATURATION_SIZE = {
    "full": dict(benchmarks=("blackscholes", "streamcluster"),
                 rates=(0.30, 0.40, 0.50), warmup=1200, measure=2500),
    "toy": dict(benchmarks=("blackscholes",), rates=(0.40,), warmup=200,
                measure=400),
}


def saturation(seed: int, size: str, workdir: Path) -> Outcome:
    """``figure12`` (both Fig 12 value models, UR and TR) once with
    Baseline (phase1) and once with FP-VAXX (phase2)."""
    import math

    from repro.harness import figure12

    params = SATURATION_SIZE[size]
    outputs: Dict[str, object] = {}
    failed: Set[str] = set()
    times = []
    for mechanism in ("Baseline", "FP-VAXX"):
        begin = clock()
        sweep = figure12(benchmarks=params["benchmarks"],
                         patterns=("uniform_random", "transpose"),
                         injection_rates=params["rates"],
                         mechanisms=(mechanism,),
                         warmup=params["warmup"], measure=params["measure"],
                         seed=seed)
        times.append(clock() - begin)
        for (benchmark, pattern), series in sweep.items():
            for rate, latency in zip(params["rates"], series[mechanism]):
                name = f"{benchmark}/{pattern}/{mechanism}@{rate:.2f}"
                outputs[name] = latency
                if not (math.isfinite(latency) and latency > 0):
                    failed.add(name)
    return Outcome(
        wall_s=sum(times), phase1_s=times[0], phase2_s=times[1],
        attempted=len(outputs), failed=failed, outputs=outputs,
        detail={"benchmarks": list(params["benchmarks"]),
                "rates": list(params["rates"])})


# --------------------------------------------------------------------------
# service: one closed-loop client against the campaign service
# --------------------------------------------------------------------------

SERVICE_SIZE = {
    "full": dict(jobs=40, trace_cycles=800, warmup=400, measure=400),
    "toy": dict(jobs=2, trace_cycles=300, warmup=100, measure=100),
}
SERVICE_BENCHMARK = "blackscholes"


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _http(port: int, method: str, path: str,
          payload: Optional[dict] = None, timeout: float = 60.0):
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"X-Client": "bench-e2e"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def _follow(port: int, job: str) -> List[tuple]:
    """The job's NDJSON event stream as ``(client time, event)`` pairs,
    up to and including ``sealed``."""
    conn = HTTPConnection("127.0.0.1", port, timeout=120.0)
    events = []
    try:
        conn.request("GET", f"/jobs/{job}/events",
                     headers={"X-Client": "bench-e2e"})
        response = conn.getresponse()
        if response.status != 200:
            return events
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            event = json.loads(line)
            events.append((clock(), event))
            if event.get("event") == "sealed":
                break
    finally:
        conn.close()
    return events


class ServiceThread:
    """``serve(ServiceConfig)`` on its own thread and event loop."""

    def __init__(self, workdir: Path):
        from repro.service.config import ServiceConfig

        self.port = _free_port()
        # One pool worker; a token bucket no single client can drain.
        self.config = ServiceConfig(
            port=self.port, journal_dir=str(workdir / "svc"), workers=1,
            rate_burst=1e9, rate_refill_per_s=1e9)
        self.error: Optional[Exception] = None
        # Daemon, so a service that never became healthy cannot keep the
        # process alive after start() gives up on it.
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name="campaign-service")

    def _run(self) -> None:
        from repro.service.server import serve

        try:
            asyncio.run(serve(self.config))
        except Exception as exc:  # reported by start()
            self.error = exc

    def start(self, timeout: float = 60.0) -> float:
        """Start serving; returns seconds from thread start to the first
        ``/healthz`` 200."""
        start = clock()
        self.thread.start()
        deadline = start + timeout
        while clock() < deadline:
            if not self.thread.is_alive():
                raise RuntimeError(f"service exited early: {self.error!r}")
            try:
                status, _ = _http(self.port, "GET", "/healthz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return clock() - start
            time.sleep(0.005)
        raise RuntimeError("service did not become healthy")

    def stop(self) -> None:
        """Drain, stop, and join the service thread."""
        try:
            _http(self.port, "POST", "/drain?stop=1", timeout=60.0)
        finally:
            self.thread.join(timeout=60.0)
        if self.thread.is_alive():
            raise RuntimeError("service thread did not stop")


def service(seed: int, size: str, workdir: Path) -> Outcome:
    """Closed loop, one client: jobs alternate cold (new seed) and warm
    (the previous grid under a new job id: all cache hits), each followed
    to ``sealed``.  phase1/phase2 are the cold/warm submit-to-seal p50s."""
    from repro.harness import MECHANISM_ORDER

    params = SERVICE_SIZE[size]
    server = ServiceThread(workdir)
    server.start()
    records = []
    failed: Set[str] = set()
    outputs: Dict[str, object] = {}
    try:
        rows_by_seed: Dict[int, list] = {}
        for k in range(params["jobs"]):
            kind = "cold" if k % 2 == 0 else "warm"
            job_seed = seed + k // 2
            job = f"e2e-{seed}-{k // 2:02d}-{kind}"
            payload = {"job": job, "benchmarks": [SERVICE_BENCHMARK],
                       "mechanisms": list(MECHANISM_ORDER),
                       "seeds": [job_seed],
                       "trace_cycles": params["trace_cycles"],
                       "warmup": params["warmup"],
                       "measure": params["measure"]}
            submitted = clock()
            status, _ = _http(server.port, "POST", "/jobs", payload)
            acked = clock()
            if status != 202:
                failed.add(job)
                continue
            events = _follow(server.port, job)
            done = [(t, e) for t, e in events if e["event"] == "spec_done"]
            sealed = [(t, e) for t, e in events if e["event"] == "sealed"]
            if not sealed or not done:
                failed.add(job)
                continue
            sealed_at, seal = sealed[0]
            status, envelope = _http(server.port, "GET",
                                     f"/jobs/{job}/envelope")
            envelope = envelope or {}
            rows = [(row["benchmark"], row["mechanism"], row.get("digest"))
                    for row in envelope.get("results", [])]
            if kind == "cold":
                rows_by_seed[job_seed] = rows
            if (seal.get("status") != "proven" or status != 200
                    or envelope.get("identity_digest")
                    != seal.get("envelope_digest")
                    or rows != rows_by_seed.get(job_seed)):
                failed.add(job)
            outputs[job] = seal.get("envelope_digest")
            records.append({
                "kind": kind, "latency_s": sealed_at - submitted,
                "submit_ack_s": acked - submitted,
                "first_done_s": done[0][0] - submitted,
                "exec_s": done[-1][0] - done[0][0],
                "seal_s": sealed_at - done[-1][0],
                "specs": len(done),
                "cached": sum(1 for _, e in done if e.get("cached")),
                "started": submitted, "sealed": sealed_at})
    finally:
        server.stop()
    if not records:
        raise RuntimeError("no service job completed")

    def p50(kind: str, key: str) -> float:
        values = [r[key] for r in records if r["kind"] == kind]
        return statistics.median(values) if values else 0.0

    specs = sum(r["specs"] for r in records)
    return Outcome(
        wall_s=records[-1]["sealed"] - records[0]["started"],
        phase1_s=p50("cold", "latency_s"), phase2_s=p50("warm", "latency_s"),
        attempted=params["jobs"], failed=failed, outputs=outputs,
        extras={"submit_ack_s": p50("cold", "submit_ack_s"),
                "first_done_s": p50("cold", "first_done_s"),
                "exec_s": p50("cold", "exec_s"),
                "seal_s": p50("warm", "seal_s"),
                "cached_frac": (sum(r["cached"] for r in records) / specs
                                if specs else 0.0)},
        detail={"jobs": params["jobs"],
                "n_cold": sum(r["kind"] == "cold" for r in records),
                "n_warm": sum(r["kind"] == "warm" for r in records)})


WORKLOADS: Dict[str, Callable[[int, str, Path], Outcome]] = {
    "regen": regen,
    "fig9_suite": fig9_suite,
    "saturation": saturation,
    "service": service,
}
