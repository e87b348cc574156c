"""Cross-core bit-identity (DESIGN.md §14).

The contract under test: ``NocConfig(core=...)`` selects an execution
backend, never a behaviour.  The struct-of-arrays core must produce
bit-identical ``simulation_outputs``, delivered word streams and stats to
the reference object core on every workload — including with the
sanitizer auditing every cycle and with a nonzero fault campaign armed.
``Packet.pid`` is a process-global counter, not a simulation observable,
so deliveries are compared by (src, dst, kind, cycle, words).
"""

from dataclasses import replace

import pytest

from repro.faults import FaultConfig
from repro.harness.experiment import make_scheme, run_trace
from repro.noc import Network, NocConfig
from repro.traffic import SyntheticTraffic, TraceTraffic, record_trace


#: Backends compared against the reference object core.
ALT_CORES = ["soa"]

BASE = NocConfig()  # the paper's 4x4 concentrated mesh


def _trace(config, rate, seed, cycles=900):
    source = SyntheticTraffic(config, pattern="uniform_random",
                              injection_rate=rate, seed=seed)
    return record_trace(source, cycles)


def _run_with_deliveries(config, mechanism, trace, cycles):
    """One drained run returning (stats outputs, delivery stream)."""
    deliveries = []
    network = Network(
        config, make_scheme(mechanism, config.n_nodes),
        on_deliver=lambda packet, block, now: deliveries.append(
            (packet.src, packet.dst, packet.kind.value, now,
             tuple(block.words) if block else None)))
    network.set_traffic(TraceTraffic(trace, loop=True))
    network.run(cycles)
    network.drain(50_000)
    return network.stats.simulation_outputs(), deliveries


@pytest.mark.parametrize("core", ALT_CORES)
@pytest.mark.parametrize("mechanism", ["FP-VAXX", "DI-VAXX"])
@pytest.mark.parametrize("rate,seed", [(0.02, 1), (0.1, 7)])
def test_cores_bit_identical(core, mechanism, rate, seed):
    trace = _trace(BASE, rate, seed)
    ref = run_trace(BASE, mechanism, trace, 100, 900, core="object")
    got = run_trace(BASE, mechanism, trace, 100, 900, core=core)
    assert got.simulation_outputs() == ref.simulation_outputs()


@pytest.mark.parametrize("core", ALT_CORES)
def test_delivered_word_streams_identical(core):
    trace = _trace(BASE, 0.05, 3)
    ref_stats, ref_stream = _run_with_deliveries(
        replace(BASE, core="object"), "FP-VAXX", trace, 900)
    got_stats, got_stream = _run_with_deliveries(
        replace(BASE, core=core), "FP-VAXX", trace, 900)
    assert got_stats == ref_stats
    assert got_stream == ref_stream
    assert ref_stream  # the workload actually delivered packets


@pytest.mark.parametrize("core", ALT_CORES)
@pytest.mark.parametrize("mechanism", ["FP-VAXX", "DI-VAXX"])
def test_cores_identical_at_low_load(mechanism, core):
    trace = _trace(BASE, 0.02, 5)
    ref = run_trace(BASE, mechanism, trace, 100, 900, core="object")
    got = run_trace(BASE, mechanism, trace, 100, 900, core=core)
    assert got.simulation_outputs() == ref.simulation_outputs()


@pytest.mark.parametrize("core", ALT_CORES)
def test_cores_identical_under_sanitizer(core):
    """sanitize=True audits every router every cycle (the REPRO_SANITIZE=1
    path), exercising the SoA audit invariants — including the parked
    VA/credit-waiter slots — against live traffic."""
    trace = _trace(BASE, 0.05, 11, cycles=500)
    ref = run_trace(BASE, "DI-VAXX", trace, 50, 500, core="object",
                    sanitize=True)
    got = run_trace(BASE, "DI-VAXX", trace, 50, 500, core=core,
                    sanitize=True)
    assert got.simulation_outputs() == ref.simulation_outputs()


@pytest.mark.parametrize("core", ALT_CORES)
def test_cores_identical_with_faults(core):
    """A nonzero fault campaign (bitflips + credit loss + fail-stop, with
    recovery) must inject and recover identically on every backend."""
    faults = FaultConfig(seed=5, bitflip_rate=5e-3, failstop_rate=2e-4,
                         credit_loss_rate=2e-3, recovery=True)
    config = replace(BASE, faults=faults)
    trace = _trace(BASE, 0.05, 3, cycles=800)
    ref = run_trace(config, "DI-VAXX", trace, 50, 800, core="object")
    got = run_trace(config, "DI-VAXX", trace, 50, 800, core=core)
    assert ref.faults_injected > 0  # the campaign actually fired
    assert got.simulation_outputs() == ref.simulation_outputs()


def test_audit_clean_after_saturated_run():
    """Every per-router audit invariant (including the parking caches)
    holds after a saturated run on the SoA core."""
    config = NocConfig(mesh_width=4, mesh_height=4, concentration=1,
                       core="soa")
    source = SyntheticTraffic(config, pattern="uniform_random",
                              injection_rate=0.1, seed=13)
    network = Network(config, make_scheme("Baseline", config.n_nodes))
    network.set_traffic(source)
    network.run(600)
    core = network._core
    for rid in range(config.n_routers):
        assert core.audit(rid) == []
