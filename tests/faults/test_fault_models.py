"""Unit tests for the fault models themselves (repro.faults.inject).

Covers the deterministic sampling primitives (``geometric``, the lazily
advanced :class:`_WindowSchedule` and its prefix property), the per-class
injection hooks on fake flits, seed-reproducibility of whole runs, and the
VERIFY204 static validation of :class:`FaultConfig`.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import EncodedBlock
from repro.faults import FaultConfig
from repro.faults.inject import (
    FaultInjector,
    PacketFaultState,
    _WindowSchedule,
    geometric,
)
from repro.harness.experiment import make_scheme
from repro.noc import Network
from repro.noc.config import TINY_CONFIG
from repro.noc.packet import PacketKind
from repro.noc.topology import MeshTopology
from repro.traffic import SyntheticTraffic
from repro.util.rng import DeterministicRng
from repro.verify.static import ConfigVerificationError, verify_config


class TestGeometric:
    def test_certain_event_fires_immediately(self):
        assert geometric(DeterministicRng(1), 1.0) == 0

    def test_deterministic_per_seed(self):
        a = [geometric(DeterministicRng(7).fork(i), 0.01) for i in range(50)]
        b = [geometric(DeterministicRng(7).fork(i), 0.01) for i in range(50)]
        assert a == b

    def test_mean_tracks_rate(self):
        rng = DeterministicRng(3)
        n = 4000
        mean = sum(geometric(rng, 0.02) for _ in range(n)) / n
        assert 35 < mean < 65  # expectation ~49 for p=0.02

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           rate=st.floats(min_value=1e-4, max_value=0.5))
    def test_nonnegative(self, seed, rate):
        assert geometric(DeterministicRng(seed), rate) >= 0


class TestWindowSchedule:
    def make(self, seed=5, rate=0.01, duration=20, stuck=False):
        return _WindowSchedule(DeterministicRng(seed), rate, duration,
                               stuck=stuck)

    def test_prefix_property(self):
        """State after a query at cycle t depends on t alone, not on the
        query pattern — dense and sparse querying agree everywhere they
        are compared."""
        dense = self.make()
        sparse = self.make()
        horizon = 5000
        dense_active = [dense.active(t) for t in range(horizon)]
        rng = DeterministicRng(99)
        t = 0
        while t < horizon:
            assert sparse.active(t) == dense_active[t]
            t += 1 + rng.randint(0, 60)

    def test_windows_cover_duration(self):
        sched = self.make(duration=20)
        active = [t for t in range(3000) if sched.active(t)]
        assert active, "rate 0.01 over 3000 cycles should open a window"
        runs = []
        start = prev = active[0]
        for t in active[1:]:
            if t != prev + 1:
                runs.append((start, prev))
                start = t
            prev = t
        runs.append((start, prev))
        assert all(hi - lo + 1 == 20 for lo, hi in runs)

    def test_stuck_shape_redrawn_per_window(self):
        sched = self.make(seed=11, rate=0.05, duration=10, stuck=True)
        shapes = set()
        for t in range(0, 4000, 10):
            if sched.active(t):
                shapes.add((sched.bit, sched.value))
        assert len(shapes) > 1


class _FakePacket:
    def __init__(self, kind=PacketKind.DATA, words=(1, 2, 3, 4)):
        self.kind = kind
        self.encoded = EncodedBlock(raw=tuple(words),
                                    size_bits=32 * len(words))
        self.fault = None


class _FakeFlit:
    def __init__(self, packet, is_head=False, is_tail=False):
        self.packet = packet
        self.is_head = is_head
        self.is_tail = is_tail


def make_injector(**fault_kwargs):
    config = FaultConfig(**fault_kwargs)
    return FaultInjector(config, TINY_CONFIG, MeshTopology(TINY_CONFIG))


class TestInjectionHooks:
    def test_bitflip_records_single_bit_xor(self):
        injector = make_injector(bitflip_rate=1.0)
        flit = _FakeFlit(_FakePacket())
        dropped = injector.on_link_traversal(0, 0, 0, flit, now=10)
        assert not dropped
        assert injector.stats.bitflips == 1
        state = flit.packet.fault
        assert state is not None and state.corrupted
        [(index, mask)] = state.xors
        assert mask and mask & (mask - 1) == 0  # exactly one bit

    def test_head_flits_never_targeted(self):
        injector = make_injector(bitflip_rate=1.0, drop_rate=1.0)
        flit = _FakeFlit(_FakePacket(), is_head=True)
        assert not injector.on_link_traversal(0, 0, 0, flit, now=10)
        assert flit.packet.fault is None
        assert injector.stats.total == 0

    def test_control_packets_never_targeted(self):
        injector = make_injector(bitflip_rate=1.0, drop_rate=1.0)
        flit = _FakeFlit(_FakePacket(kind=PacketKind.CONTROL))
        assert not injector.on_link_traversal(0, 0, 0, flit, now=10)
        assert flit.packet.fault is None

    def test_tail_flits_never_dropped(self):
        """The tail carries the modeled CRC check: it must always arrive."""
        injector = make_injector(drop_rate=1.0)
        flit = _FakeFlit(_FakePacket(), is_tail=True)
        assert not injector.on_link_traversal(0, 0, 0, flit, now=10)
        assert injector.stats.flits_dropped == 0

    def test_drop_ledgers_lost_credit(self):
        injector = make_injector(drop_rate=1.0)
        flit = _FakeFlit(_FakePacket())
        assert injector.on_link_traversal(2, 1, 0, flit, now=10)
        assert injector.stats.flits_dropped == 1
        assert injector.lost_link_credits == {(2, 1, 0): 1}
        assert flit.packet.fault.dropped_flits == 1

    def test_credit_loss_ledgers_by_target_pool(self):
        injector = make_injector(credit_loss_rate=1.0)
        assert injector.swallow_credit(0, 4, 1, (True, 3))
        assert injector.lost_ni_credits == {(3, 1): 1}
        assert injector.swallow_credit(1, 0, 0, (False, 2, 2))
        assert injector.lost_link_credits == {(2, 2, 0): 1}
        assert injector.stats.credits_lost == 2


class TestPacketFaultState:
    def test_apply_xors_delivered_words(self, int_block):
        state = PacketFaultState()
        state.record_xor(2, 0b101)
        out = state.apply(int_block)
        assert out.words[2] == int_block.words[2] ^ 0b101
        assert out.words[0] == int_block.words[0]

    def test_zero_mask_is_noop(self):
        state = PacketFaultState()
        state.record_xor(0, 0)
        assert not state.corrupted

    def test_dropped_flit_marks_corrupt(self):
        state = PacketFaultState()
        state.dropped_flits = 1
        assert state.corrupted


def run_observables(faults, seed=3, cycles=3000):
    """(fault summary, simulation outputs) of one all-data-traffic run."""
    config = replace(TINY_CONFIG, faults=faults)
    network = Network(config, make_scheme("FP-VAXX", config.n_nodes))
    network.set_traffic(SyntheticTraffic(config, injection_rate=0.05,
                                         seed=seed, data_ratio=1.0))
    network.run(cycles)
    network.drain(50_000)
    return network._faults.summary(), network.stats.simulation_outputs()


class TestSeedReproducibility:
    @pytest.mark.parametrize("fault_kwargs", [
        {"bitflip_rate": 0.05}, {"drop_rate": 0.05},
        {"stuck_rate": 0.01}, {"credit_loss_rate": 0.05},
        {"failstop_rate": 0.005},
    ], ids=["bitflip", "drop", "stuck", "credit_loss", "failstop"])
    def test_same_seed_same_counters(self, fault_kwargs):
        a = run_observables(FaultConfig(seed=9, recovery=True,
                                        **fault_kwargs))
        b = run_observables(FaultConfig(seed=9, recovery=True,
                                        **fault_kwargs))
        assert a == b
        if "failstop_rate" not in fault_kwargs:
            assert a[0]["faults_injected"] > 0

    def test_different_seed_different_stream(self):
        a = run_observables(FaultConfig(seed=1, bitflip_rate=0.05,
                                        recovery=True))
        b = run_observables(FaultConfig(seed=2, bitflip_rate=0.05,
                                        recovery=True))
        assert a[0]["bitflips"] > 0 and b[0]["bitflips"] > 0
        assert a != b


class TestFaultConfigValidation:
    def test_valid_config_passes(self):
        config = replace(TINY_CONFIG,
                         faults=FaultConfig(bitflip_rate=0.01))
        assert not verify_config(config).errors

    @pytest.mark.parametrize("bad", [
        {"bitflip_rate": 1.5}, {"drop_rate": -0.1},
        {"stuck_duration": 0}, {"failstop_duration": -3},
        {"retry_budget": -1}, {"watchdog_period": 0},
    ])
    def test_bad_values_flagged_as_verify204(self, bad):
        config = replace(TINY_CONFIG, faults=FaultConfig(**bad))
        report = verify_config(config)
        assert any(v.code == "VERIFY204" for v in report.errors)

    def test_wrong_type_flagged(self):
        config = replace(TINY_CONFIG, faults="not a FaultConfig")
        report = verify_config(config)
        assert any(v.code == "VERIFY204" for v in report.errors)

    def test_network_refuses_invalid_fault_config(self):
        config = replace(TINY_CONFIG,
                         faults=FaultConfig(bitflip_rate=2.0))
        with pytest.raises(ConfigVerificationError):
            Network(config, make_scheme("Baseline", config.n_nodes))
