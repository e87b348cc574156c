"""The identity-golden grid: a small set of specs whose
``RunResult.identity_digest()`` values are pinned in
``identity_digests.json``.

The grid pins simulated outputs against history rather than against a
sibling implementation, so it catches a change every core shares (the NI,
the codecs, the traffic sources).  It covers:

* every mechanism x {blackscholes, ssca2} as short trace replays;
* every mechanism at one past-saturation synthetic point
  (blackscholes values, uniform random traffic at rate 0.50);
* one run with NoCSan armed;
* two points of the ``python -m repro.faults --smoke`` campaign
  (Baseline with bit flips, FP-VAXX with link drops; recovery on) and
  one fail-stop point on the same network, whose routers die and revive;
* one long, mostly idle synthetic run on a four-node mesh;
* one binary ``.rpt`` trace replayed through ``StreamingTraceTraffic``
  (written to a scratch directory by :func:`golden_specs`).

A change that moves simulated outputs on purpose regenerates the file
with::

    PYTHONPATH=src python -m tests.golden.grid --update

and records the reason in CHANGES.md.  Without ``--update`` the command
prints the recomputed digests and exits non-zero on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict

from repro.faults.campaign import fault_config_for
from repro.harness.experiment import MECHANISM_ORDER, benchmark_trace
from repro.harness.parallel import RunSpec, Spec, SyntheticSpec, \
    execute_spec
from repro.noc import PAPER_CONFIG, TINY_CONFIG, NocConfig
from repro.traffic import write_trace

GOLDEN_PATH = Path(__file__).with_name("identity_digests.json")

#: The fault campaign's smoke network and windows
#: (``repro.faults.campaign.run_campaign`` / ``--smoke``).
SMOKE_CONFIG = NocConfig(mesh_width=2, mesh_height=2, concentration=2)


def golden_specs(trace_dir: Path) -> Dict[str, Spec]:
    """Name -> spec for every run in the grid.  The streamed replay's
    binary trace is written into ``trace_dir``."""
    specs: Dict[str, Spec] = {}
    for mechanism in MECHANISM_ORDER:
        for benchmark in ("blackscholes", "ssca2"):
            specs[f"trace/{benchmark}/{mechanism}"] = RunSpec(
                PAPER_CONFIG, mechanism, benchmark, trace_cycles=1500,
                warmup=300, measure=1000)
        specs[f"synthetic/blackscholes/UR@0.50/{mechanism}"] = \
            SyntheticSpec(PAPER_CONFIG, mechanism, "blackscholes",
                          pattern="uniform_random", rate=0.50,
                          data_ratio=0.25, seed=13, warmup=300, measure=600)
    specs["sanitized/ssca2/FP-VAXX"] = RunSpec(
        replace(PAPER_CONFIG, sanitize=True), "FP-VAXX", "ssca2",
        trace_cycles=1500, warmup=300, measure=1000)
    for mechanism, fault_class in (("Baseline", "bitflip"),
                                   ("FP-VAXX", "drop")):
        config = replace(SMOKE_CONFIG, faults=fault_config_for(
            fault_class, 0.002, recovery=True, seed=1))
        specs[f"faults/ssca2/{fault_class}/{mechanism}"] = RunSpec(
            config, mechanism, "ssca2", trace_cycles=900, warmup=300,
            measure=600)
    config = replace(SMOKE_CONFIG, faults=fault_config_for(
        "failstop", 0.002, recovery=True, seed=1))
    specs["faults/ssca2/failstop/DI-VAXX"] = RunSpec(
        config, "DI-VAXX", "ssca2", trace_cycles=900, warmup=300,
        measure=600)
    specs["synthetic/blackscholes/UR@0.01/FP-VAXX"] = SyntheticSpec(
        TINY_CONFIG, "FP-VAXX", "blackscholes", "uniform_random",
        rate=0.01, data_ratio=0.25, seed=13, warmup=300, measure=3000)
    trace_path = Path(trace_dir) / "blackscholes.rpt"
    write_trace(benchmark_trace(PAPER_CONFIG, "blackscholes", 1500),
                trace_path, n_nodes=PAPER_CONFIG.n_nodes, chunk_records=64)
    specs["streamed/blackscholes/DI-VAXX"] = RunSpec(
        PAPER_CONFIG, "DI-VAXX", "blackscholes", trace_cycles=1500,
        warmup=300, measure=1000, trace_path=str(trace_path))
    return specs


def compute_digests() -> Dict[str, str]:
    """Run the grid serially and return name -> identity digest."""
    with TemporaryDirectory() as trace_dir:
        return {name: execute_spec(spec).identity_digest()
                for name, spec in golden_specs(Path(trace_dir)).items()}


def load_goldens() -> Dict[str, str]:
    """The committed name -> digest map."""
    return json.loads(GOLDEN_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.grid",
        description="Recompute the identity-golden grid")
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name}")
    args = parser.parse_args(argv)
    digests = compute_digests()
    if args.update:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2,
                                          sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    goldens = load_goldens()
    moved = sorted(name for name in digests | goldens
                   if digests.get(name) != goldens.get(name))
    for name in sorted(digests):
        mark = "MOVED" if name in moved else "ok"
        print(f"{mark:5} {name} {digests[name]}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
