"""Rate-0 bit-identity (DESIGN.md §13): an all-zero :class:`FaultConfig`
builds the injection plumbing but must leave every observable
bit-identical to ``faults=None``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultConfig
from repro.harness.experiment import make_scheme
from repro.noc import Network
from repro.noc.config import TINY_CONFIG
from repro.traffic import SyntheticTraffic


@pytest.fixture(autouse=True, scope="module")
def _unsanitized():
    """Identity is compared on the plain simulator, so a CI-level
    ``REPRO_SANITIZE=1`` must not instrument these runs.  Sanitized fault
    runs are covered by the campaign smoke (CI chaos job) and the
    detection-coverage tests."""
    mp = pytest.MonkeyPatch()
    mp.delenv("REPRO_SANITIZE", raising=False)
    yield
    mp.undo()


def run_one(config, mechanism="FP-VAXX", rate=0.02, seed=3, cycles=2000,
            drain_budget=50_000):
    """One full run: (network, delivery stream, drained?)."""
    deliveries = []
    network = Network(
        config, make_scheme(mechanism, config.n_nodes),
        on_deliver=lambda packet, block, now: deliveries.append(
            (packet.src, packet.dst, packet.kind.value, now,
             tuple(block.words) if block else None)))
    network.set_traffic(SyntheticTraffic(config, injection_rate=rate,
                                         seed=seed))
    network.run(cycles)
    drained = network.drain(drain_budget)
    return network, deliveries, drained


def observables(network, deliveries, drained):
    return (network.stats.simulation_outputs(), deliveries, drained,
            network.cycle)


class TestRateZeroIdentity:
    """All-zero FaultConfig == faults=None, bit for bit."""

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_zero_rates_identical_to_no_faults(self, core):
        base = replace(TINY_CONFIG, core=core)
        bare = run_one(replace(base, faults=None))
        armed = run_one(replace(base, faults=FaultConfig()))
        assert observables(*bare) == observables(*armed)
        # The plumbing was genuinely built, not skipped.
        assert armed[0]._faults is not None
        assert armed[0]._faults.summary()["faults_injected"] == 0

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_zero_rates_with_recovery_enabled(self, core):
        """Recovery machinery armed but never triggered changes nothing."""
        base = replace(TINY_CONFIG, core=core)
        bare = run_one(replace(base, faults=None))
        armed = run_one(replace(base, faults=FaultConfig(recovery=True)))
        assert observables(*bare) == observables(*armed)
        assert armed[0]._faults.recovery_enabled

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           mechanism=st.sampled_from(["Baseline", "FP-VAXX", "DI-COMP"]))
    def test_property_rate0_identity(self, seed, mechanism):
        bare = run_one(TINY_CONFIG, mechanism=mechanism, seed=seed,
                       cycles=800)
        armed = run_one(replace(TINY_CONFIG, faults=FaultConfig(seed=seed)),
                        mechanism=mechanism, seed=seed, cycles=800)
        assert observables(*bare) == observables(*armed)

