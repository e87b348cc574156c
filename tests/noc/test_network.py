"""End-to-end network tests: delivery, conservation, latency, flow control."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import BaselineScheme, FpCompScheme
from repro.core import CacheBlock, FpVaxxScheme
from repro.noc import (
    Network,
    NocConfig,
    PacketKind,
    TrafficRequest,
)
from repro.traffic import SyntheticTraffic

TINY = NocConfig(mesh_width=2, mesh_height=2, concentration=1)


def make_net(config=TINY, scheme_cls=BaselineScheme, **scheme_kw):
    return Network(config, scheme_cls(config.n_nodes, **scheme_kw))


class RandomTraffic:
    """Bernoulli random traffic used by the stress tests."""

    def __init__(self, n_nodes, rate, cycles, seed=7, data_ratio=0.3):
        self.rng = random.Random(seed)
        self.n = n_nodes
        self.rate = rate
        self.cycles = cycles
        self.data_ratio = data_ratio

    def generate(self, cycle):
        if cycle >= self.cycles:
            return []
        requests = []
        for src in range(self.n):
            if self.rng.random() >= self.rate:
                continue
            dst = self.rng.randrange(self.n - 1)
            if dst >= src:
                dst += 1
            if self.rng.random() < self.data_ratio:
                words = [self.rng.choice([0, 1, 7, 1000, 70000])
                         for _ in range(16)]
                block = CacheBlock.from_ints(words, approximable=True)
                requests.append(TrafficRequest(src, dst, PacketKind.DATA,
                                               block))
            else:
                requests.append(TrafficRequest(src, dst, PacketKind.CONTROL))
        return requests


class TestZeroLoadLatency:
    def test_single_hop_control(self):
        net = make_net()
        net.submit(TrafficRequest(0, 1, PacketKind.CONTROL))
        assert net.drain()
        # 2 routers x 3-cycle pipeline (incl. link) = 6 cycles
        assert net.stats.avg_network_latency == 6.0

    def test_diagonal_control(self):
        net = make_net()
        net.submit(TrafficRequest(0, 3, PacketKind.CONTROL))
        assert net.drain()
        assert net.stats.avg_network_latency == 9.0  # 3 routers

    def test_data_packet_serialization(self):
        net = make_net()
        block = CacheBlock.from_ints(range(16))
        net.submit(TrafficRequest(0, 3, PacketKind.DATA, block))
        assert net.drain()
        # 9 flits: 3 hops * 3 + (9 - 1) serialization
        assert net.stats.avg_network_latency == 17.0

    def test_compression_latency_on_idle_queue(self):
        net = make_net(scheme_cls=FpCompScheme)
        block = CacheBlock.from_ints([0] * 16)
        net.submit(TrafficRequest(0, 3, PacketKind.DATA, block))
        assert net.drain()
        # queue latency = 3 compression cycles, decode = 2
        assert net.stats.avg_queue_latency == 3.0
        assert net.stats.avg_decode_latency == 2.0

    def test_compressed_packet_is_shorter(self):
        base = make_net()
        comp = make_net(scheme_cls=FpCompScheme)
        block = CacheBlock.from_ints([0] * 16)
        for net in (base, comp):
            net.submit(TrafficRequest(0, 3, PacketKind.DATA, block))
            assert net.drain()
        assert (comp.stats.data_flits_injected
                < base.stats.data_flits_injected)


class TestConservation:
    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.5])
    def test_every_packet_delivered(self, rate):
        net = make_net()
        net.set_traffic(RandomTraffic(TINY.n_nodes, rate, cycles=400))
        net.run(400)
        assert net.drain(20_000), "network failed to drain (deadlock?)"
        injected = sum(net.stats.packets_injected.values())
        delivered = net.stats.total_packets_delivered
        assert injected == delivered
        assert injected > 0

    def test_flit_conservation(self):
        net = make_net()
        net.set_traffic(RandomTraffic(TINY.n_nodes, 0.3, cycles=300))
        net.run(300)
        assert net.drain(20_000)
        assert (sum(net.stats.flits_injected.values())
                == sum(net.stats.flits_delivered.values()))

    def test_paper_config_conservation(self):
        config = NocConfig()  # 4x4 cmesh
        net = Network(config, FpVaxxScheme(config.n_nodes, 10))
        net.set_traffic(RandomTraffic(config.n_nodes, 0.1, cycles=300))
        net.run(300)
        assert net.drain(30_000)
        assert (sum(net.stats.packets_injected.values())
                == net.stats.total_packets_delivered)

    @given(st.integers(0, 2**31))
    @settings(max_examples=5, deadline=None)
    def test_conservation_random_seeds(self, seed):
        net = make_net()
        net.set_traffic(RandomTraffic(TINY.n_nodes, 0.4, cycles=150,
                                      seed=seed))
        net.run(150)
        assert net.drain(20_000)
        assert (sum(net.stats.packets_injected.values())
                == net.stats.total_packets_delivered)


class TestLatencyMonotonicity:
    def test_latency_grows_with_load(self):
        latencies = []
        for rate in (0.05, 0.45):
            net = make_net()
            net.set_traffic(RandomTraffic(TINY.n_nodes, rate, cycles=600))
            net.run(600)
            net.drain(20_000)
            latencies.append(net.stats.avg_packet_latency)
        assert latencies[1] > latencies[0]


class TestDataIntegrity:
    def test_baseline_delivers_exact_blocks(self):
        delivered = {}

        def on_deliver(packet, block, now):
            if block is not None:
                delivered[packet.pid] = block

        config = TINY
        net = Network(config, BaselineScheme(config.n_nodes),
                      on_deliver=on_deliver)
        block = CacheBlock.from_ints([3, 1, 4, 1, 5, 9, 2, 6])
        net.submit(TrafficRequest(0, 2, PacketKind.DATA, block))
        assert net.drain()
        assert len(delivered) == 1
        assert list(delivered.values())[0].words == block.words

    def test_vaxx_error_bounded_under_load(self):
        """Every block delivered by FP-VAXX respects the error bound."""
        errors = []

        def on_deliver(packet, block, now):
            if block is None:
                return
            for precise, approx in zip(packet.block.as_ints(),
                                       block.as_ints()):
                errors.append(abs(approx - precise)
                              <= 4 * abs(precise) * 0.10 + 1)

        config = TINY
        net = Network(config, FpVaxxScheme(config.n_nodes, 10),
                      on_deliver=on_deliver)
        net.set_traffic(RandomTraffic(config.n_nodes, 0.2, cycles=300))
        net.run(300)
        assert net.drain(20_000)
        assert errors and all(errors)


class TestValidation:
    def test_scheme_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Network(TINY, BaselineScheme(99))

    def test_self_packet_rejected(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.submit(TrafficRequest(0, 0, PacketKind.CONTROL))

    def test_idle_network_is_idle(self):
        net = make_net()
        assert net.idle()
        net.run(10)
        assert net.idle()


class TestIdleAccounting:
    def _recount_idle(self, network):
        """Idleness recomputed from scratch over every router and NI."""
        buffered = sum(len(ivc.buffer)
                       for router in network.routers
                       for port in router.inputs
                       for ivc in port)
        return (buffered == 0
                and not any(ni.busy() for ni in network.nis)
                and not network._pending_router_arrivals
                and not network._pending_ejections)

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_idle_matches_full_recount(self, core):
        network = make_net(replace(TINY, core=core), scheme_cls=FpVaxxScheme)
        network.set_traffic(SyntheticTraffic(TINY, injection_rate=0.1,
                                             seed=9))
        saw_busy = saw_idle = False
        for _ in range(600):
            network.step()
            assert network.idle() == self._recount_idle(network)
            saw_busy |= not network.idle()
            saw_idle |= network.idle()
        assert saw_busy and saw_idle
