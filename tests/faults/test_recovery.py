"""End-to-end recovery: CRC+NACK retransmission, credit watchdog,
graceful degradation (DESIGN.md §13).

The acceptance-level claims: with CRC + retransmission enabled, a nonzero
bit-flip campaign delivers every word within the scheme's error threshold
while reporting its retransmission overhead; the watchdog restores every
leaked credit so lossy links still drain; degradation trades compression
for exactness when residual corruption breaches the threshold.
"""

from dataclasses import replace

import pytest

from repro.faults import FaultConfig
from repro.faults.campaign import fault_config_for, run_point
from repro.harness.experiment import benchmark_trace, make_scheme
from repro.noc import Network
from repro.noc.config import TINY_CONFIG
from repro.traffic import SyntheticTraffic


@pytest.fixture(scope="module")
def trace():
    return benchmark_trace(TINY_CONFIG, "ssca2", 1200, seed=11)


def point(trace, mechanism, fault_class, rate, recovery, **overrides):
    faults = fault_config_for(fault_class, rate, recovery, **overrides)
    config = replace(TINY_CONFIG, faults=faults)
    return run_point(config, mechanism, trace, warmup=400, measure=800,
                     fault_class=fault_class, rate=rate, recovery=recovery)


class TestCrcRetransmission:
    def test_bitflips_with_recovery_deliver_exact(self, trace):
        """Baseline is exact end to end: every corrupted packet must be
        caught by the CRC and replaced by a clean retransmission."""
        result = point(trace, "Baseline", "bitflip", 0.01, recovery=True)
        assert result.counters["bitflips"] > 0
        assert result.counters["retransmissions"] > 0
        assert result.max_rel_error == 0.0
        assert result.words_over_threshold == 0
        assert result.within_threshold
        assert result.drained

    def test_retransmission_overhead_reported(self, trace):
        result = point(trace, "Baseline", "bitflip", 0.01, recovery=True)
        assert 0.0 < result.retx_flit_overhead < 1.0

    def test_approx_scheme_restored_to_fault_free_quality(self, trace):
        """FP-VAXX intentionally approximates, so its error profile is
        nonzero even without faults; recovery must restore exactly that
        profile under fire — no residual injected damage."""
        clean = point(trace, "FP-VAXX", "bitflip", 0.0, recovery=True)
        faulty = point(trace, "FP-VAXX", "bitflip", 0.008, recovery=True)
        assert faulty.counters["bitflips"] > 0
        assert faulty.max_rel_error == clean.max_rel_error
        assert faulty.words_over_threshold == clean.words_over_threshold
        assert faulty.delivered_words == clean.delivered_words

    def test_recovery_off_leaves_corruption_visible(self, trace,
                                                    monkeypatch):
        """Detector mode: the same fault stream with recovery off must
        surface delivered-word damage (what NoCSan then flags — so this
        run must not be instrumented by a CI-level REPRO_SANITIZE=1)."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        off = point(trace, "Baseline", "bitflip", 0.01, recovery=False)
        assert off.counters["bitflips"] > 0
        assert off.counters.get("retransmissions", 0) == 0
        assert off.max_rel_error > 0.0

    def test_budget_exhaustion_counted(self, trace):
        result = point(trace, "Baseline", "bitflip", 0.05, recovery=True,
                       retry_budget=0)
        assert result.counters["retx_exhausted"] > 0
        # With a zero budget, corrupted packets are consumed but never
        # resent: fewer blocks arrive, but the run still terminates.
        assert result.drained


class TestCreditWatchdog:
    @pytest.mark.parametrize("fault_class", ["drop", "credit_loss"])
    def test_watchdog_restores_leaked_credits(self, trace, fault_class):
        """Leaked credits come back and the lossy network still drains.
        (Losses from the final watchdog window may still be ledgered when
        the drain finishes — full clearing is asserted below.)"""
        result = point(trace, "Baseline", fault_class, 0.01, recovery=True)
        assert result.counters["credits_restored"] > 0
        assert result.drained

    def test_outstanding_clears_after_idle_watchdog_tick(self):
        faults = FaultConfig(credit_loss_rate=0.05, recovery=True, seed=5)
        config = replace(TINY_CONFIG, faults=faults)
        network = Network(config, make_scheme("Baseline", config.n_nodes))
        network.set_traffic(SyntheticTraffic(config, injection_rate=0.05,
                                             seed=3, data_ratio=1.0))
        network.run(2000)
        assert network.drain(50_000)
        assert network._faults.summary()["credits_lost"] > 0
        # Traffic off: the next watchdog tick must replay whatever is
        # still ledgered.
        network.traffic_source = None
        network.run(2 * faults.watchdog_period)
        assert network._faults.summary()["lost_credits_outstanding"] == 0

    def test_without_watchdog_credits_stay_lost(self, trace):
        result = point(trace, "Baseline", "credit_loss", 0.01,
                       recovery=True, credit_watchdog=False)
        assert result.counters["credits_restored"] == 0
        assert result.counters["lost_credits_outstanding"] > 0


class TestGracefulDegradation:
    def test_degrade_trips_without_crc(self, trace):
        """CRC off, degradation on: corrupted blocks reach the consumer,
        the oracle trips, and later blocks are forced exact."""
        result = point(trace, "FP-VAXX", "bitflip", 0.05, recovery=True,
                       crc_retx=False)
        assert result.counters["degrade_trips"] > 0
        assert result.counters["degraded_blocks"] > 0

    def test_degrade_never_trips_at_rate_zero(self, trace):
        """Intended approximation alone must never trip the oracle."""
        result = point(trace, "FP-VAXX", "bitflip", 0.0, recovery=True,
                       crc_retx=False)
        assert result.counters["degrade_trips"] == 0
        assert result.counters["degraded_blocks"] == 0


class TestRecoveryDeterminism:
    def test_full_recovery_run_is_reproducible(self):
        def run():
            faults = FaultConfig(bitflip_rate=0.01, drop_rate=0.005,
                                 credit_loss_rate=0.005, recovery=True,
                                 seed=5)
            config = replace(TINY_CONFIG, faults=faults)
            network = Network(config,
                              make_scheme("FP-VAXX", config.n_nodes))
            network.set_traffic(SyntheticTraffic(config,
                                                 injection_rate=0.05,
                                                 seed=3))
            network.run(2000)
            drained = network.drain(50_000)
            return (network.stats.simulation_outputs(), drained,
                    network._faults.summary())

        assert run() == run()
