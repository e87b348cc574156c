"""Parallel experiment engine and content-addressed result cache.

Every paper figure is an aggregation over dozens of *independent*
(benchmark, mechanism, seed) simulations.  This module turns those runs
into explicit, picklable :class:`RunSpec` (trace) and
:class:`SyntheticSpec` (Figure 12) work items and executes them

* in parallel across worker processes (:func:`run_specs`,
  :func:`parallel_map`), and
* behind a content-addressed on-disk cache keyed by the full spec
  (``.repro_cache/`` by default), so re-running a sweep touches only the
  points that changed.

Determinism: a spec is self-contained — the worker regenerates the
benchmark trace from ``(config, benchmark, cycles, seed)`` and the
simulator carries no cross-run global state — so parallel execution is
**bit-identical** to serial execution, whatever the worker count or task
order.  (Wall-time and cache-hit instrumentation fields are exempt; see
``RunResult.simulation_outputs``.)

Crash tolerance: a sweep must survive its weakest point.  :func:`run_specs`
returns one :class:`SpecOutcome` per spec instead of assuming success —
a worker that is OOM-killed (``BrokenProcessPool``) or exceeds the
per-spec ``timeout_s`` is retried up to ``retries`` times with exponential
backoff, the doomed specs are re-queued as singleton batches (isolating a
poison spec from its batch mates), and everything that cannot be salvaged
is *recorded* as a failed outcome rather than aborting the suite.
A dead worker breaks the whole pool without saying which batch killed it,
so a pool break requeues every in-flight batch *uncharged* and switches
to one-batch-at-a-time quarantine rounds: the next crash is attributable,
only the culprit pays an attempt, and innocent batch-mates keep their
full retry budget.
Completed results are flushed to the cache as they land, so a
``KeyboardInterrupt`` (which tears the pool down and re-raises) loses only
the in-flight runs.  Cache entries carry a content checksum: a truncated
or garbled entry is detected, logged, evicted and transparently recomputed.

Environment knobs:

* ``REPRO_WORKERS``   — default worker count for ``workers=None`` callers.
* ``REPRO_NO_CACHE``  — any non-empty value disables the on-disk cache.
* ``REPRO_CACHE_DIR`` — cache location (default ``.repro_cache``).
* ``REPRO_SANITIZE``  — inherited by worker processes: every network they
  build runs under the NoCSan invariant sanitizer
  (:mod:`repro.verify.sanitizer`).  The sanitizer only observes, so
  results stay bit-identical; combine with ``REPRO_NO_CACHE=1`` when the
  point is to re-execute cached sweeps under supervision.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import signal
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.harness.experiment import (RunResult, benchmark_trace,
                                      run_synthetic, run_trace)
from repro.noc import NocConfig, PAPER_CONFIG
from repro.traffic import SyntheticTraffic, get_benchmark

#: Bump when simulator changes alter results for an unchanged RunSpec, so
#: stale cache entries from older code can never be returned.
#: v2: NocConfig gained the ``sanitize`` field (changes the canonical
#: asdict form; results themselves are unchanged when it is False).
#: v3: NocConfig gained ``profile_phases`` and a cycle-skipping switch, and
#: RunResult a skip counter (simulation outputs are bit-identical either
#: way; the canonical forms changed).  The counter has since been removed:
#: ``load_cached`` evicts entries that still carry it.
#: v4: NocConfig gained ``faults``, RunResult gained the fault/recovery
#: counters, and cache entries gained a content checksum.
#: v5: NocConfig gained the ``core`` backend field (all backends are
#: bit-identical; the canonical form changed).
#: v6: RunSpec gained file-backed traces (``trace_path`` + record window);
#: the canonical form replaces the path with a content digest so cache
#: identity follows the trace bytes, not their location.
CACHE_SCHEMA_VERSION = 6

WORKERS_ENV = "REPRO_WORKERS"
NO_CACHE_ENV = "REPRO_NO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

_log = logging.getLogger("repro.harness.parallel")


# --------------------------------------------------------------------------
# Work items
# --------------------------------------------------------------------------

# Per-process memo of trace-file content digests, keyed by
# (realpath, size, mtime_ns) so an overwritten file re-hashes but a sweep
# over one big trace hashes it once.
# repro: allow[mutable-global]
_DIGEST_CACHE: Dict[tuple, str] = {}


def trace_file_digest(path: str) -> str:
    """Streamed sha256 of a trace file's bytes — the cache identity of a
    file-backed spec (two paths to identical bytes share cached results;
    editing the file invalidates them)."""
    real = os.path.realpath(path)
    stat = os.stat(real)
    key = (real, stat.st_size, stat.st_mtime_ns)
    digest = _DIGEST_CACHE.get(key)
    if digest is None:
        hasher = hashlib.sha256()
        with open(real, "rb") as handle:
            while True:
                block = handle.read(1 << 20)
                if not block:
                    break
                hasher.update(block)
        digest = hasher.hexdigest()
        _DIGEST_CACHE[key] = digest
    return digest


class _ContentAddressed:
    """Cache identity shared by the spec types."""

    def canonical(self) -> dict:
        """Everything that determines the run's outcome, JSON-safe."""
        raise NotImplementedError

    def cache_key(self) -> str:
        """Content hash addressing this spec's result on disk."""
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class RunSpec(_ContentAddressed):
    """One self-contained (trace, mechanism) simulation, picklable and
    hashable — the unit of parallel scheduling and of cache addressing.

    Traffic comes from one of two places: the default regenerates the
    ``benchmark`` trace from ``(config, benchmark, trace_cycles, seed)``;
    setting ``trace_path`` instead replays a trace file (binary ``.rpt``
    streams, JSONL loads), optionally windowed to records
    ``[trace_start, trace_stop)`` so campaigns shard one file across
    workers.  The spec carries the *path*, never an open handle — workers
    open the file themselves (REPRO301 enforces this)."""

    config: NocConfig
    mechanism: str
    benchmark: str
    trace_cycles: int
    warmup: int
    measure: int
    seed: int = 11
    approx_packet_ratio: float = 0.75
    error_threshold_pct: float = 10.0
    approx_override: Optional[float] = None
    drain_budget: int = 200_000
    trace_path: Optional[str] = None
    trace_start: int = 0
    trace_stop: Optional[int] = None

    def canonical(self) -> dict:
        """Stable, JSON-safe description of everything that determines the
        run's outcome (including the cache schema version).

        A file-backed spec is canonicalized by the file's *content
        digest*, not its path: moving a trace keeps its cached results,
        rewriting it invalidates them."""
        payload = asdict(self)
        payload["config"] = asdict(self.config)
        payload["cache_schema"] = CACHE_SCHEMA_VERSION
        if self.trace_path is not None:
            payload.pop("trace_path")
            payload["trace_digest"] = trace_file_digest(self.trace_path)
        return payload


@dataclass(frozen=True)
class SyntheticSpec(_ContentAddressed):
    """One live synthetic-traffic run (Figure 12): ``pattern`` at ``rate``
    flits/cycle/node carrying ``benchmark``'s data values, undrained (see
    :func:`~repro.harness.experiment.run_synthetic`)."""

    config: NocConfig
    mechanism: str
    benchmark: str
    pattern: str
    rate: float
    data_ratio: float
    seed: int
    warmup: int
    measure: int
    error_threshold_pct: float = 10.0

    def canonical(self) -> dict:
        """Like :meth:`RunSpec.canonical`, tagged ``synthetic``."""
        return {**asdict(self), "kind": "synthetic",
                "cache_schema": CACHE_SCHEMA_VERSION}


#: Anything :func:`run_specs` schedules.
Spec = RunSpec | SyntheticSpec


def execute_spec(spec: Spec) -> RunResult:
    """Run one spec from scratch (no cache).  Safe to call in any process:
    the benchmark trace is regenerated deterministically from the spec
    (memoized per process by :func:`benchmark_trace`), or — for a
    file-backed spec — streamed straight from ``trace_path``; a
    :class:`SyntheticSpec` seeds a fresh traffic generator."""
    if isinstance(spec, SyntheticSpec):
        traffic = partial(SyntheticTraffic, pattern=spec.pattern,
                          injection_rate=spec.rate, seed=spec.seed,
                          data_ratio=spec.data_ratio,
                          value_model=get_benchmark(spec.benchmark).model)
        return run_synthetic(spec.config, spec.mechanism, traffic,
                             spec.warmup, spec.measure,
                             error_threshold_pct=spec.error_threshold_pct)
    if spec.trace_path is not None:
        return run_trace(spec.config, spec.mechanism, spec.trace_path,
                         spec.warmup, spec.measure,
                         error_threshold_pct=spec.error_threshold_pct,
                         approx_override=spec.approx_override,
                         drain_budget=spec.drain_budget,
                         trace_start=spec.trace_start,
                         trace_stop=spec.trace_stop)
    trace = benchmark_trace(spec.config, spec.benchmark, spec.trace_cycles,
                            seed=spec.seed,
                            approx_packet_ratio=spec.approx_packet_ratio)
    return run_trace(spec.config, spec.mechanism, trace,
                     spec.warmup, spec.measure,
                     error_threshold_pct=spec.error_threshold_pct,
                     approx_override=spec.approx_override,
                     drain_budget=spec.drain_budget)


@dataclass
class SpecOutcome:
    """What happened to one spec in a :func:`run_specs` sweep."""

    spec: Spec
    result: Optional[RunResult] = None
    #: Failure description (a traceback tail, "timed out", "worker
    #: process died", ...); None on success.
    error: Optional[str] = None
    #: Charged execution attempts (0 for a cache hit).  A broken pool
    #: charges only the batch proven responsible — collateral reruns of
    #: innocent batch-mates are free.
    attempts: int = 1
    #: Whether the result came from the on-disk cache.
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the spec produced a result."""
        return self.result is not None


# --------------------------------------------------------------------------
# On-disk result cache
# --------------------------------------------------------------------------

def cache_enabled() -> bool:
    """The cache is on unless ``REPRO_NO_CACHE`` is set (non-empty)."""
    return not os.environ.get(NO_CACHE_ENV)


def cache_dir() -> Path:
    """Cache location (``REPRO_CACHE_DIR`` or ``.repro_cache``)."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def _result_checksum(result_payload: dict) -> str:
    """Content checksum stored alongside (and verified against) a cached
    result, so truncated or bit-rotted entries are detected."""
    blob = json.dumps(result_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _evict_corrupt(path: Path, reason: str) -> None:
    """Drop an unreadable cache entry (it will be recomputed)."""
    _log.warning("evicting corrupt cache entry %s: %s", path.name, reason)
    try:
        os.unlink(path)
    except OSError:
        pass  # already gone, or read-only cache: the miss still stands


def load_cached(spec: Spec) -> Optional[RunResult]:
    """The cached result of ``spec``, or None on a miss.

    A present-but-unusable entry (truncated write, bit rot, a foreign
    file) is treated as corruption: logged, evicted and reported as a
    miss so the caller recomputes it.
    """
    path = cache_dir() / f"{spec.cache_key()}.json"
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError:
        return None  # plain miss
    except ValueError as exc:  # json.JSONDecodeError subclasses ValueError
        _evict_corrupt(path, f"not valid JSON ({exc})")
        return None
    try:
        result_payload = payload["result"]
        stored = payload["checksum"]
        if stored != _result_checksum(result_payload):
            raise ValueError("checksum mismatch")
        return RunResult.from_json_dict(result_payload)
    except (KeyError, TypeError, ValueError) as exc:
        _evict_corrupt(path, str(exc))
        return None


def store_cached(spec: Spec, result: RunResult) -> None:
    """Persist one result, safely under concurrent multi-process writers.

    Publication is a private temp file (``mkstemp`` names are unique per
    writer) followed by an atomic ``os.replace``: a concurrent reader of
    the same key sees either the old complete entry or the new complete
    entry, never a torn write, and two writers racing the same key both
    publish *identical* content (the spec fully determines the result),
    so last-writer-wins is benign.  The service's worker pool shares one
    cache directory across processes on the strength of this contract
    (exercised by ``tests/harness/test_cache_collision.py``).
    """
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    result_payload = result.to_json_dict()
    payload = {"spec": spec.canonical(),
               "result": result_payload,
               "checksum": _result_checksum(result_payload)}
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp_path, directory / f"{spec.cache_key()}.json")
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def sweep_cache_tmp(max_age_s: float = 3600.0) -> int:
    """Remove stale ``*.tmp`` droppings left by writers that were killed
    between ``mkstemp`` and ``os.replace`` (SIGKILL leaves no chance to
    clean up).  Only files older than ``max_age_s`` go — a young temp file
    may belong to a live writer about to publish it.  Returns the number
    of files removed; the campaign service calls this on startup."""
    directory = cache_dir()
    removed = 0
    try:
        entries = list(directory.glob("*.tmp"))
    except OSError:
        return 0
    now = time.time()
    for entry in entries:
        try:
            if now - entry.stat().st_mtime >= max_age_s:
                entry.unlink()
                removed += 1
        except OSError:
            continue  # raced with another sweeper or a publisher
    return removed


# --------------------------------------------------------------------------
# Parallel execution
# --------------------------------------------------------------------------

def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_WORKERS``, else
    the machine's CPU count.  Always >= 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = int(env) if env else (os.cpu_count() or 1)
    return max(int(workers), 1)


#: One unit of pool scheduling: the (spec-list-index, spec) items it
#: carries and the execution attempts already consumed.
_Batch = Tuple[List[Tuple[int, Spec]], int]


def _trace_key(spec: Spec) -> tuple:
    """Specs sharing this key replay the same recorded trace, so keeping
    them on one worker reuses its per-process trace memo (file-backed
    specs group by path + window: they share the OS page cache;
    synthetic specs replay nothing and batch freely)."""
    if isinstance(spec, SyntheticSpec):
        return ("synthetic",)
    return (spec.config, spec.benchmark, spec.trace_cycles, spec.seed,
            spec.approx_packet_ratio, spec.trace_path, spec.trace_start,
            spec.trace_stop)


def _make_batches(items: List[Tuple[int, Spec]],
                  n_workers: int) -> List[_Batch]:
    """Group contiguous same-trace specs into batches (one trace recording
    per batch), splitting oversized groups so the pool stays busy."""
    limit = max(1, -(-len(items) // (n_workers * 2)))
    batches: List[_Batch] = []
    group: List[Tuple[int, Spec]] = []
    group_key = None
    for item in items:
        key = _trace_key(item[1])
        if group and (key != group_key or len(group) >= limit):
            batches.append((group, 0))
            group = []
        group_key = key
        group.append(item)
    if group:
        batches.append((group, 0))
    return batches


def _execute_batch(specs: List[Spec]
                   ) -> List[Tuple[Optional[RunResult], Optional[str]]]:
    """Worker-side entry point: run a batch, converting per-spec failures
    into data so one bad run cannot take its batch mates down."""
    payload: List[Tuple[Optional[RunResult], Optional[str]]] = []
    for spec in specs:
        try:
            payload.append((execute_spec(spec), None))
        # Ship the traceback home instead of crashing the worker.
        except Exception:  # repro: allow[bare-except]
            payload.append((None, traceback.format_exc()))
    return payload


def _finish(outcomes: List[Optional[SpecOutcome]], specs: Sequence[Spec],
            index: int, result: Optional[RunResult], error: Optional[str],
            attempts: int, use_cache: bool) -> None:
    """Record one spec's final outcome (flushing successes to the cache
    immediately, so an interrupted sweep keeps its finished work)."""
    outcomes[index] = SpecOutcome(spec=specs[index], result=result,
                                  error=error, attempts=attempts)
    if result is not None and use_cache:
        store_cached(specs[index], result)


def _requeue_or_fail(queue: Deque[_Batch],
                     outcomes: List[Optional[SpecOutcome]],
                     specs: Sequence[Spec], items: List[Tuple[int, Spec]],
                     attempts: int, retries: int, use_cache: bool,
                     reason: str) -> None:
    """A batch died wholesale (crash/timeout): retry its specs as
    singleton batches within the budget, else record the failures."""
    next_attempts = attempts + 1
    if next_attempts <= retries:
        _log.warning("%s; retrying %d spec(s) (attempt %d/%d)", reason,
                     len(items), next_attempts + 1, retries + 1)
        for item in items:
            queue.append(([item], next_attempts))
        return
    for index, _spec in items:
        _finish(outcomes, specs, index, None,
                f"{reason}; gave up after {next_attempts} attempt(s)",
                next_attempts, use_cache)


def _teardown(executor: ProcessPoolExecutor) -> None:
    """Abandon a pool whose workers can no longer be trusted (hung or
    crashed): cancel what never started and terminate the processes —
    a worker stuck in a runaway simulation will not exit on its own.

    Idempotent: the campaign service stops its supervisor from both a
    drain path and a signal handler, so the same executor may be torn
    down twice (or torn down after the pool already broke itself);
    repeated calls are no-ops and never raise."""
    if getattr(executor, "_repro_torn_down", False):
        return
    executor._repro_torn_down = True  # type: ignore[attr-defined]
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # repro: allow[bare-except]
        _log.debug("executor shutdown raised during teardown",
                   exc_info=True)
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # repro: allow[bare-except]
            pass  # already dead or reaped


def shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Public idempotent executor teardown (see :func:`_teardown`): safe
    to call any number of times, from any of the paths that can race to
    stop a pool — drain, SIGTERM, supervisor stop, pool self-break."""
    _teardown(executor)


def _raise_keyboard_interrupt(signum: int, frame: object) -> None:
    """SIGTERM handler: reuse the KeyboardInterrupt teardown path, so a
    service manager's ``terminate`` gets the same graceful pool shutdown
    (and cache flush) as a user's Ctrl-C."""
    raise KeyboardInterrupt(f"signal {signum}")


@contextlib.contextmanager
def _graceful_signals() -> Iterator[None]:
    """Route SIGTERM through the KeyboardInterrupt teardown for the
    duration of a pool run.  Signal handlers can only be installed from
    the main thread; elsewhere (the service runs sweeps from executor
    threads) this is a no-op and the caller's own supervision applies."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):  # non-main interpreter thread, exotic OS
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_serial(specs: Sequence[Spec], misses: List[int],
                outcomes: List[Optional[SpecOutcome]],
                use_cache: bool) -> None:
    """In-process execution (workers<=1): no pool, no timeout enforcement;
    per-spec exceptions are recorded, KeyboardInterrupt propagates."""
    for index in misses:
        try:
            result = execute_spec(specs[index])
        # Record the failure and keep sweeping the remaining specs.
        except Exception:  # repro: allow[bare-except]
            _finish(outcomes, specs, index, None, traceback.format_exc(),
                    1, use_cache)
        else:
            _finish(outcomes, specs, index, result, None, 1, use_cache)


def _run_pool(specs: Sequence[Spec], misses: List[int],
              outcomes: List[Optional[SpecOutcome]], use_cache: bool,
              n_workers: int, timeout_s: Optional[float], retries: int,
              retry_backoff_s: float) -> None:
    """Pool execution with timeout, crash recovery and bounded retry."""
    queue: Deque[_Batch] = deque(
        _make_batches([(i, specs[i]) for i in misses], n_workers))
    executor: Optional[ProcessPoolExecutor] = None
    rebuilds = 0
    quarantine = False
    try:
        while queue:
            if executor is None:
                executor = ProcessPoolExecutor(max_workers=n_workers)
            submitted: Dict[object, _Batch] = {}
            while queue:
                items, attempts = queue.popleft()
                future = executor.submit(_execute_batch,
                                         [spec for _, spec in items])
                submitted[future] = (items, attempts)
                if quarantine:
                    break  # one batch per round: a crash is attributable
            # A crash is attributable only if this round ran one batch
            # alone; the flag may flip mid-round, so pin it here.
            attributable = quarantine
            dirty = False
            for future, (items, attempts) in submitted.items():
                if dirty and not future.done():
                    # Pool is being torn down: requeue at the *same*
                    # attempt count — these specs did nothing wrong.
                    queue.append((items, attempts))
                    continue
                allowance = (None if timeout_s is None
                             else timeout_s * len(items))
                try:
                    payload = future.result(timeout=allowance)
                except FuturesTimeout:
                    dirty = True
                    _requeue_or_fail(
                        queue, outcomes, specs, items, attempts, retries,
                        use_cache,
                        f"batch of {len(items)} exceeded its "
                        f"{allowance:.1f}s allowance")
                except BrokenProcessPool:
                    dirty = True
                    if attributable:
                        # This batch ran alone: it killed its worker.
                        # Culprit found — later rounds run in parallel
                        # again (a new crash re-enters quarantine).
                        _requeue_or_fail(
                            queue, outcomes, specs, items, attempts,
                            retries, use_cache,
                            "worker process died (killed or crashed)")
                        quarantine = False
                    else:
                        # Any batch in the broken pool may be the killer;
                        # requeue them all uncharged and re-run one batch
                        # at a time until the crash is attributable.
                        quarantine = True
                        queue.append((items, attempts))
                else:
                    for (index, _spec), (result, error) in zip(items,
                                                               payload):
                        _finish(outcomes, specs, index, result, error,
                                attempts + 1, use_cache)
            if dirty:
                _teardown(executor)
                executor = None
                if queue and retry_backoff_s > 0:
                    time.sleep(min(retry_backoff_s * (2 ** rebuilds), 30.0))
                rebuilds += 1
    except KeyboardInterrupt:
        # Graceful interrupt: kill the pool now; everything finished so
        # far is already flushed to the cache by _finish.
        if executor is not None:
            _teardown(executor)
            executor = None
        raise
    finally:
        if executor is not None:
            executor.shutdown()


def run_specs(specs: Sequence[Spec],
              workers: Optional[int] = None,
              use_cache: Optional[bool] = None,
              timeout_s: Optional[float] = None,
              retries: int = 1,
              retry_backoff_s: float = 0.5) -> List[SpecOutcome]:
    """Execute specs (cache-first), returning one outcome per spec in
    spec order — failures included, never raised.

    ``workers=None`` consults ``REPRO_WORKERS`` / CPU count; ``workers<=1``
    runs serially in-process (no pool; ``timeout_s`` needs a pool and is
    ignored).  ``timeout_s`` bounds one spec's wall time — a batch gets
    ``timeout_s * len(batch)``.  Timed-out and crashed specs are retried
    up to ``retries`` times as singleton batches with exponential backoff
    starting at ``retry_backoff_s``; deterministic in-run exceptions are
    recorded without retry (re-running them would fail identically).
    A dead worker breaks the whole pool anonymously, so only the batch
    proven responsible (by re-running the survivors one at a time) is
    charged an attempt.
    Successful results are bit-identical across all modes.
    """
    if use_cache is None:
        use_cache = cache_enabled()
    outcomes: List[Optional[SpecOutcome]] = [None] * len(specs)
    misses: List[int] = []
    for i, spec in enumerate(specs):
        cached = load_cached(spec) if use_cache else None
        if cached is not None:
            outcomes[i] = SpecOutcome(spec=spec, result=cached, attempts=0,
                                      cached=True)
        else:
            misses.append(i)
    if misses:
        n_workers = min(resolve_workers(workers), len(misses))
        if n_workers <= 1:
            _run_serial(specs, misses, outcomes, use_cache)
        else:
            with _graceful_signals():
                _run_pool(specs, misses, outcomes, use_cache, n_workers,
                          timeout_s, retries, retry_backoff_s)
    return outcomes  # type: ignore[return-value]


def execute_cached(spec: Spec,
                   use_cache: Optional[bool] = None,
                   fresh: bool = False) -> SpecOutcome:
    """Cache-first execution of a *single* spec, in this process — the
    lease-sized unit of work the campaign service's supervised workers
    run (one lease = one spec = one ``execute_cached`` call).

    ``fresh=True`` bypasses the cache entirely (no read, no write): the
    service's validation gate uses it to re-derive a result that cannot
    have been influenced by the artifact it is auditing.  Exceptions
    propagate — the caller owns retry/quarantine policy.
    """
    if use_cache is None:
        use_cache = cache_enabled()
    if use_cache and not fresh:
        cached = load_cached(spec)
        if cached is not None:
            return SpecOutcome(spec=spec, result=cached, attempts=0,
                               cached=True)
    result = execute_spec(spec)
    if use_cache and not fresh:
        store_cached(spec, result)
    return SpecOutcome(spec=spec, result=result, attempts=1)


def _failure_summary(outcome: SpecOutcome) -> str:
    spec = outcome.spec
    tail = (outcome.error or "unknown error").strip().splitlines()[-1]
    return (f"{spec.benchmark}/{spec.mechanism}[seed {spec.seed}]: {tail}")


def parallel_map(specs: Sequence[Spec],
                 workers: Optional[int] = None,
                 use_cache: Optional[bool] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 retry_backoff_s: float = 0.5) -> List[RunResult]:
    """All-or-error façade over :func:`run_specs`: results in spec order,
    or a RuntimeError naming every spec that failed after retries."""
    outcomes = run_specs(specs, workers=workers, use_cache=use_cache,
                         timeout_s=timeout_s, retries=retries,
                         retry_backoff_s=retry_backoff_s)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        shown = "; ".join(_failure_summary(outcome)
                          for outcome in failed[:5])
        more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
        raise RuntimeError(
            f"{len(failed)}/{len(specs)} runs failed: {shown}{more}")
    return [outcome.result for outcome in outcomes]


def suite_specs(config: NocConfig = PAPER_CONFIG,
                benchmarks: Sequence[str] = (),
                mechanisms: Sequence[str] = (),
                error_threshold_pct: float = 10.0,
                approx_packet_ratio: float = 0.75,
                trace_cycles: int = 6000, warmup: int = 3000,
                measure: int = 3000, seed: int = 11) -> List[RunSpec]:
    """Benchmark-major spec list for a full (benchmark x mechanism) suite."""
    return [RunSpec(config=config, mechanism=mechanism, benchmark=benchmark,
                    trace_cycles=trace_cycles, warmup=warmup, measure=measure,
                    seed=seed, approx_packet_ratio=approx_packet_ratio,
                    error_threshold_pct=error_threshold_pct)
            for benchmark in benchmarks
            for mechanism in mechanisms]
