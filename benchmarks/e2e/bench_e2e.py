"""End-to-end and per-layer benchmark of the APPROX-NoC reproduction.

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py --workload regen --seed 11 \\
        --seconds 25 --trace 0
    python3 benchmarks/e2e/bench_e2e.py run [--workload NAME] [--seed N] \\
        [--out FILE]
    python3 benchmarks/e2e/bench_e2e.py trace [--workload NAME] [--seed N] \\
        [--out FILE]

``run`` (``--trace 0``) reports the end-to-end metrics, ``trace``
(``--trace 1``) the per-layer metrics of a separate, traced run.  Without
``--workload`` every workload runs in turn.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--update-expected`` rewrites ``expected.json`` from a
default-seed run.

Each workload runs in a fresh subprocess (no per-process memo leaks from
one workload into the next) with a scrubbed ``REPRO_*`` environment, an
empty ``REPRO_CACHE_DIR`` and ``REPRO_WORKERS=1``.  ``setup_s`` is the
median of five more fresh-process set-ups.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
EXPECTED = HERE / "expected.json"

WORKLOAD_NAMES = ("regen", "fig9_suite", "saturation", "service")
DEFAULT_SEED = 11
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 20.0
WORKLOAD_TIMEOUT_S = 130.0
#: Longest TMPDIR that leaves room for multiprocessing's socket names
#: under the 107-byte AF_UNIX path limit.
MAX_TMPDIR_CHARS = 60

END_TO_END = {
    "wall_s": "s", "phase1_s": "s", "phase2_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------------
# Process control
# --------------------------------------------------------------------------

def _live_group_members(pgid: int) -> List[int]:
    """Processes of group ``pgid`` that have not exited (zombies count as
    exited: an orphan's zombie waits on an init that may never reap)."""
    proc = Path("/proc")
    if not proc.is_dir():
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    live = []
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            live.append(int(entry.name))
    return live


def _reap_group(pgid: int, grace_s: float = 10.0) -> None:
    """Wait for every process of the group to end; kill what lingers."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if not _live_group_members(pgid):
                return
            time.sleep(0.02)


class ChildFailed(RuntimeError):
    pass


def _spawn(args: List[str], env: Dict[str, str],
           stdout=subprocess.DEVNULL) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             *args], env=env, cwd=ROOT, stdout=stdout,
                            start_new_session=True)


def _finish(child: subprocess.Popen, timeout: float, label: str) -> int:
    """Wait for ``child`` (killing its group on timeout), then for every
    process it started."""
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        _reap_group(child.pid, grace_s=2.0)
        raise ChildFailed(f"{label} timed out after {timeout}s")
    _reap_group(child.pid)
    return code


def hermetic_env(workdir: Path, tag: str) -> Dict[str, str]:
    """The subprocess environment: no inherited ``REPRO_*`` knob (in
    particular never ``REPRO_SANITIZE``), a fresh empty result cache, one
    worker, and the source tree on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_WORKERS"] = "1"
    # One hash seed for every run: set iteration order (and with it the
    # memory layout) no longer varies between otherwise identical runs.
    env["PYTHONHASHSEED"] = "0"
    scratch = workdir / tag
    (scratch / "cache").mkdir(parents=True)
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    tmp = scratch / "tmp"
    tmp.mkdir()
    if len(str(tmp)) <= MAX_TMPDIR_CHARS:
        env["TMPDIR"] = str(tmp)
    return env


def setup_sample(workload: str, workdir: Path, tag: str) -> float:
    """One fresh-process set-up time (see :func:`_setup_main`)."""
    env = hermetic_env(workdir, tag)
    start = time.perf_counter()
    child = _spawn(["setup", "--workload", workload,
                    "--workdir", str(workdir / tag)], env,
                   stdout=subprocess.PIPE)
    try:
        line = child.stdout.readline().decode().strip()
        ready = time.perf_counter()
        child.stdout.read()
    finally:
        child.stdout.close()
        code = _finish(child, SETUP_TIMEOUT_S, f"set-up of {workload}")
    if code != 0 or not line:
        raise ChildFailed(f"set-up sample for {workload} failed "
                          f"(exit {code})")
    if workload == "service":
        return float(line)  # measured in the child from thread start
    return ready - start


def run_child(workload: str, seed: int, traced: bool, size: str,
              workdir: Path) -> dict:
    env = hermetic_env(workdir, "run")
    child = _spawn(["child", "--workload", workload, "--seed", str(seed),
                    "--trace", str(int(traced)), "--size", size,
                    "--workdir", str(workdir / "run")], env)
    code = _finish(child, WORKLOAD_TIMEOUT_S, f"workload {workload}")
    result = workdir / "run" / "result.json"
    if code != 0 or not result.exists():
        raise ChildFailed(f"workload {workload} failed (exit {code})")
    return json.loads(result.read_text())


# --------------------------------------------------------------------------
# One measured run
# --------------------------------------------------------------------------

def check_outputs(workload: str, seed: int, size: str,
                  outputs: Dict[str, object]) -> List[str]:
    """Operation ids whose output differs from ``expected.json`` (only
    the default seed at full size has recorded outputs)."""
    if seed != DEFAULT_SEED or size != "full" or not EXPECTED.exists():
        return []
    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    return sorted(op for op, value in expected.items()
                  if outputs.get(op) != value)


def measure(workload: str, seed: int, traced: bool, size: str = "full",
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Set-up samples plus one workload child; returns the full record."""
    workdir = WORKDIR / f"{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = [setup_sample(workload, workdir, f"setup{i}")
                  for i in range(setup_samples)]
        child = run_child(workload, seed, traced, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
    mismatched = check_outputs(workload, seed, size, child["outputs"])
    failed = sorted(set(child["failed"]) | set(mismatched))
    record = {
        "workload": workload, "seed": seed, "traced": traced, "size": size,
        "attempted": child["attempted"], "failed": failed,
        "mismatched": mismatched, "setup_samples_s": setups,
        "end_to_end": {
            "wall_s": child["wall_s"], "phase1_s": child["phase1_s"],
            "phase2_s": child["phase2_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        },
        "outputs": child["outputs"], "detail": child["detail"],
    }
    if traced:
        record["per_layer"] = child["per_layer"]
        record["trace"] = child["trace"]
    return record


def result_line(record: dict) -> dict:
    """The contract's last line for one record."""
    if record["traced"]:
        from layers import PER_LAYER
        units = {m.name: m.unit for m in PER_LAYER}
        values = record["per_layer"]
    else:
        units, values = END_TO_END, record["end_to_end"]
    return {"correct": not record["failed"],
            "attempted": record["attempted"],
            "failed": len(record["failed"]),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def _digest_of(outputs: Dict[str, object]) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def print_summary(record: dict) -> None:
    mode = "traced" if record["traced"] else "untraced"
    print(f"# {record['workload']} seed={record['seed']} {mode}: "
          f"{record['attempted'] - len(record['failed'])}/"
          f"{record['attempted']} ok; outputs sha256 "
          f"{_digest_of(record['outputs'])[:16]}; detail "
          f"{json.dumps(record['detail'], sort_keys=True)}")
    if record["failed"]:
        print(f"# failed: {', '.join(record['failed'][:20])}")
    for op in record["mismatched"]:
        print(f"# mismatch {op}: actual {record['outputs'].get(op)!r}")
    if record["traced"]:
        for warning in record["trace"]["warnings"]:
            print(f"# trace warning: {warning}", file=sys.stderr)


def update_expected(records: List[dict]) -> None:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for record in records:
        if record["seed"] != DEFAULT_SEED or record["size"] != "full":
            raise SystemExit("--update-expected needs the default seed "
                             "and full size")
        expected[record["workload"]] = dict(sorted(record["outputs"].items()))
    expected["seed"] = DEFAULT_SEED
    EXPECTED.write_text(json.dumps(dict(sorted(expected.items())), indent=1)
                        + "\n")


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def _setup_main(workload: str, workdir: Path) -> int:
    """Print one line when set-up is done.  Simulation workloads: import
    the harness and build the first paper-size Network (the parent times
    spawn to this line).  Service: thread start to the first /healthz
    200, timed here."""
    if workload == "service":
        from workloads import ServiceThread
        server = ServiceThread(workdir)
        try:
            elapsed = server.start()
        finally:
            server.stop()
        print(repr(elapsed), flush=True)
        return 0
    import repro.harness
    from repro.noc import PAPER_CONFIG, Network
    Network(PAPER_CONFIG,
            repro.harness.make_scheme("Baseline", PAPER_CONFIG.n_nodes))
    print("ready", flush=True)
    return 0


def _child_main(workload: str, seed: int, traced: bool, size: str,
                workdir: Path) -> int:
    """Run one workload in this (fresh) process and write its record to
    ``workdir/result.json``."""
    from workloads import WORKLOADS

    tracer = None
    if traced:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
        from repro.harness.experiment import encode_cache_totals
        cache_before = encode_cache_totals()
    start = time.perf_counter()
    try:
        outcome = WORKLOADS[workload](seed, size, workdir)
    finally:
        if tracer is not None:
            tracer.restore()
    elapsed = time.perf_counter() - start
    record = {
        "wall_s": outcome.wall_s, "phase1_s": outcome.phase1_s,
        "phase2_s": outcome.phase2_s, "attempted": outcome.attempted,
        "failed": sorted(outcome.failed), "outputs": outcome.outputs,
        "detail": outcome.detail,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report = tracer.report()
        cache_after = encode_cache_totals()
        # Calibrated after the workload, so it warms no memo the
        # workload could have used.
        per_call_s = layers.calibrate(Tracer)
        calls = sum(row["calls"] for row in report["spans"])
        overhead_s = calls * per_call_s
        extras = dict(outcome.extras)
        extras["encode_cache_delta"] = (cache_after[0] - cache_before[0],
                                        cache_after[1] - cache_before[1])
        extras["trace_overhead_frac"] = overhead_s / max(
            elapsed - overhead_s, 1e-9)
        record["per_layer"] = layers.per_layer_metrics(report, extras)
        report["overhead_per_span_call_s"] = per_call_s
        record["trace"] = report
    (workdir / "result.json").write_text(json.dumps(record))
    return 0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_e2e.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", nargs="?",
                        choices=("run", "trace", "child", "setup"),
                        help="run: end-to-end metrics; trace: per-layer "
                             "metrics (default: from --trace)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="nominal run length; every workload is a "
                             "fixed amount of work sized to about 25 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--out", type=Path,
                        help="also write the full records as JSON")
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: no source tree at {SRC}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        return _setup_main(args.workload, args.workdir)
    if args.mode == "child":
        return _child_main(args.workload, args.seed, bool(args.trace),
                           args.size, args.workdir)
    traced = args.mode == "trace" or (args.mode is None and args.trace == 1)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    for name in names:
        try:
            record = measure(name, args.seed, traced, args.size)
        except ChildFailed as exc:
            print(f"bench_e2e: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        print_summary(record)
        print(json.dumps(result_line(record)), flush=True)
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    if args.update_expected:
        update_expected(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
