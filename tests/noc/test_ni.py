"""Unit tests for the network interface: queueing, codec latency, decode."""

import pytest

from repro.compression import BaselineScheme, FpCompScheme
from repro.compression.dictionary import DiCompScheme
from repro.core import CacheBlock
from repro.noc.ni import NetworkInterface, TrafficRequest
from repro.noc.packet import PacketKind
from repro.noc.stats import NetworkStats


def make_ni(scheme_cls=BaselineScheme, node=0, n_nodes=4, slot_base=0,
            **kw):
    scheme = scheme_cls(n_nodes)
    stats = NetworkStats()
    ni = NetworkInterface(node, scheme, num_vcs=2, vc_depth=4, stats=stats,
                          slot_base=slot_base, **kw)
    return ni, scheme, stats


class Sink:
    """Stands in for the network's NI pass: runs one NI turn per call and
    records the emitted flits as ``(vc, flit, cycle)``.  With ``ni`` set it
    models a router that frees the buffer slot immediately (credit returned
    to that NI)."""

    def __init__(self, ni=None):
        self.flits = []
        self.ni = ni

    def turn(self, ni, now):
        emitted = []
        busy = ni.inject(now, emitted.append)
        assert len(emitted) <= 1  # at most one flit per cycle
        assert busy == ni.busy()
        for slot, flit in emitted:
            vc = slot - ni._slot_base
            assert 0 <= vc < ni.num_vcs
            self.flits.append((vc, flit, now))
            if self.ni is not None:
                self.ni.credit(vc)
        return busy


class TestSubmit:
    def test_control_packet_single_flit(self):
        ni, _, _ = make_ni()
        packet = ni.submit(TrafficRequest(0, 1, PacketKind.CONTROL), now=5)
        assert packet.size_flits == 1
        assert packet.inject_ready == 5

    def test_data_packet_sized_by_codec(self):
        ni, _, _ = make_ni()
        block = CacheBlock.from_ints(range(16))
        packet = ni.submit(TrafficRequest(0, 1, PacketKind.DATA, block),
                           now=0)
        assert packet.size_flits == 9  # uncompressed 64B + head

    def test_compression_latency_delays_inject_ready(self):
        ni, _, _ = make_ni(FpCompScheme)
        block = CacheBlock.from_ints([0] * 16)
        packet = ni.submit(TrafficRequest(0, 1, PacketKind.DATA, block),
                           now=10)
        assert packet.inject_ready == 13  # 3-cycle compression

    def test_compressed_data_packet_is_short(self):
        ni, _, _ = make_ni(FpCompScheme)
        block = CacheBlock.from_ints([0] * 16)
        packet = ni.submit(TrafficRequest(0, 1, PacketKind.DATA, block),
                           now=0)
        assert packet.size_flits == 2  # 12-bit NR -> 2B payload + head

    def test_data_without_block_rejected(self):
        ni, _, _ = make_ni()
        with pytest.raises(ValueError):
            ni.submit(TrafficRequest(0, 1, PacketKind.DATA), now=0)

    def test_wrong_source_rejected(self):
        ni, _, _ = make_ni(node=0)
        with pytest.raises(ValueError):
            ni.submit(TrafficRequest(1, 2, PacketKind.CONTROL), now=0)


class TestInjection:
    def test_one_flit_per_cycle(self):
        ni, _, _ = make_ni()
        block = CacheBlock.from_ints(range(16))
        ni.submit(TrafficRequest(0, 1, PacketKind.DATA, block), now=0)
        sink = Sink(ni)
        for cycle in range(12):
            sink.turn(ni, cycle)
        assert len(sink.flits) == 9
        # contiguous wormhole: all flits of the packet share one VC
        assert len({vc for vc, _, _ in sink.flits}) == 1

    def test_injection_respects_inject_ready(self):
        ni, _, _ = make_ni(FpCompScheme)
        block = CacheBlock.from_ints([0] * 16)
        ni.submit(TrafficRequest(0, 1, PacketKind.DATA, block), now=0)
        sink = Sink()
        sink.turn(ni, 0)
        sink.turn(ni, 2)
        assert sink.flits == []
        sink.turn(ni, 3)
        assert len(sink.flits) == 1

    def test_injection_stalls_without_credits(self):
        ni, _, _ = make_ni()
        ni._credits = [0, 0]
        ni.submit(TrafficRequest(0, 1, PacketKind.CONTROL), now=0)
        sink = Sink()
        assert sink.turn(ni, 0)  # stalled, still busy
        assert sink.flits == []
        ni.credit(1)
        sink.turn(ni, 1)
        assert len(sink.flits) == 1
        assert sink.flits[0][0] == 1

    def test_fifo_order_between_packets(self):
        ni, _, _ = make_ni()
        first = ni.submit(TrafficRequest(0, 1, PacketKind.CONTROL), now=0)
        second = ni.submit(TrafficRequest(0, 2, PacketKind.CONTROL), now=0)
        sink = Sink()
        sink.turn(ni, 0)
        sink.turn(ni, 1)
        assert sink.flits[0][1].packet is first
        assert sink.flits[1][1].packet is second

    def test_emitted_slot_is_offset_by_the_local_port_base(self):
        ni, _, _ = make_ni(slot_base=40)
        ni.submit(TrafficRequest(0, 1, PacketKind.CONTROL), now=0)
        emitted = []
        assert not ni.inject(0, emitted.append)  # sent its only flit
        (slot, flit), = emitted
        assert slot == 40 + 0 and flit.is_head and flit.is_tail

    def test_idle_turn_emits_nothing(self):
        ni, _, _ = make_ni()
        emitted = []
        assert not ni.inject(0, emitted.append)
        assert emitted == []

    def test_queue_depth(self):
        ni, _, _ = make_ni()
        assert ni.queue_depth == 0
        ni.submit(TrafficRequest(0, 1, PacketKind.CONTROL), now=0)
        assert ni.queue_depth == 1


class TestEjection:
    def _send_packet(self, src_ni, dst_ni, block, now=0):
        packet = src_ni.submit(
            TrafficRequest(src_ni.node_id, dst_ni.node_id, PacketKind.DATA,
                           block), now)
        sink = Sink(src_ni)
        cycle = now
        busy = src_ni.busy()
        while busy:
            busy = sink.turn(src_ni, cycle)
            cycle += 1
        for _vc, flit, _t in sink.flits:
            dst_ni.eject(flit, cycle)
        return packet, cycle

    def test_decode_latency_charged(self):
        scheme = FpCompScheme(4)
        stats = NetworkStats()
        src = NetworkInterface(0, scheme, 2, 4, stats, 0)
        dst = NetworkInterface(1, scheme, 2, 4, stats, 0)
        block = CacheBlock.from_ints([0] * 16)
        packet, arrived = self._send_packet(src, dst, block)
        sink = Sink()
        assert sink.turn(dst, arrived)
        assert stats.total_packets_delivered == 0  # still decoding
        assert sink.turn(dst, arrived + 1)
        assert stats.total_packets_delivered == 0
        assert not sink.turn(dst, arrived + 2)
        assert stats.total_packets_delivered == 1
        assert stats.decode_latency_sum == 2
        assert sink.flits == []

    def test_delivery_callback_gets_block(self):
        received = []
        scheme = BaselineScheme(4)
        stats = NetworkStats()
        src = NetworkInterface(0, scheme, 2, 4, stats, 0)
        dst = NetworkInterface(1, scheme, 2, 4, stats, 0,
                               on_deliver=lambda p, b, t: received.append(b))
        block = CacheBlock.from_ints([7] * 16)
        _, arrived = self._send_packet(src, dst, block)
        assert not Sink().turn(dst, arrived)
        assert len(received) == 1
        assert received[0].words == block.words

    def test_dictionary_notifications_become_packets(self):
        scheme = DiCompScheme(4, detect_threshold=1)
        stats = NetworkStats()
        src = NetworkInterface(0, scheme, 2, 4, stats, 0)
        dst = NetworkInterface(1, scheme, 2, 4, stats, 0)
        block = CacheBlock.from_ints([42] * 16)
        _, arrived = self._send_packet(src, dst, block)
        sink = Sink(dst)
        assert sink.turn(dst, arrived + 1)  # still decoding
        assert sink.flits == []
        # The turn that finishes the decode queues the decoder's update
        # toward node 0 and starts injecting it.
        cycle = arrived + 2
        while sink.turn(dst, cycle):
            cycle += 1
        kinds = {f.packet.kind for _, f, _ in sink.flits}
        assert PacketKind.NOTIFICATION in kinds
        assert sink.flits[0][2] == arrived + 2
        assert {f.packet.dst for _, f, _ in sink.flits} == {0}
