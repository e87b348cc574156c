"""The network's per-cycle NI pass: one ``inject`` turn per busy NI, the
cycle's injections buffered as one batch, tail-only ejections."""

from dataclasses import replace

import pytest

from repro.compression import BaselineScheme
from repro.core import CacheBlock
from repro.noc import Network, PacketKind, TrafficRequest
from repro.noc.config import TINY_CONFIG
from repro.noc.ni import NetworkInterface

SRC, DST = 0, 3


def _data_request():
    return TrafficRequest(SRC, DST, PacketKind.DATA,
                          CacheBlock.from_ints(range(16)))


@pytest.mark.parametrize("core", ["soa", "object"])
@pytest.mark.parametrize("sanitize", [False, True],
                         ids=["unsanitized", "sanitized"])
def test_body_flit_ejection_leaves_an_idle_ni_idle(core, sanitize):
    """Ejecting a body flit must not wake the destination NI: it stays
    unflagged and the busy-NI count does not move until the tail
    arrives.  Neither the core's inline send nor the
    send closures (NoCSan, link faults) queue body flits for the NI."""
    config = replace(TINY_CONFIG, sanitize=sanitize, core=core)
    network = Network(config, BaselineScheme(config.n_nodes))
    packet = network.submit(_data_request())
    dst_ni = network.nis[DST]
    body_ejections = tail_ejections = 0
    while packet.tail_ejected < 0:
        pending = [flit for _node, flit in network._pending_ejections]
        body_ejections += sum(not flit.is_tail for flit in pending)
        tail_ejections += sum(flit.is_tail for flit in pending)
        source_busy = network._ni_active[SRC]
        network.step()
        if packet.tail_ejected < 0:
            assert not network._ni_active[DST]
            assert not dst_ni.busy()
            assert network._busy_ni_count == network._ni_active[SRC]
            assert network._busy_ni_count <= source_busy
    assert tail_ejections == 1
    assert body_ejections == 0
    if sanitize:  # NoCSan still counts every ejected flit
        assert network._sanitizer.delivered == packet.size_flits
    assert network.drain()
    assert network.stats.total_packets_delivered == 1


def test_ni_turns_use_one_call_per_busy_ni(monkeypatch):
    """Idle NIs get no turn, and a busy NI gets exactly one per cycle."""
    network = Network(TINY_CONFIG, BaselineScheme(TINY_CONFIG.n_nodes))
    turns = []
    original = NetworkInterface.inject

    def counted(ni, now, emit):
        turns.append((now, ni.node_id))
        return original(ni, now, emit)

    monkeypatch.setattr(NetworkInterface, "inject", counted)
    network.submit(_data_request())
    network.run(30)
    assert turns
    assert len(turns) == len(set(turns))
    nodes = {node for _now, node in turns}
    assert SRC in nodes and DST in nodes
    assert nodes <= {SRC, DST}


def test_sanitized_births_equal_the_flits_injected(monkeypatch):
    """NoCSan records one birth per flit from the batched injections."""
    emitted = []
    original = NetworkInterface.inject

    def counted(ni, now, emit):
        def tap(pair):
            emitted.append(pair)
            emit(pair)
        return original(ni, now, tap)

    monkeypatch.setattr(NetworkInterface, "inject", counted)
    config = replace(TINY_CONFIG, sanitize=True)
    network = Network(config, BaselineScheme(config.n_nodes))
    sanitizer = network._sanitizer
    for cycle in range(40):
        src = cycle % config.n_nodes
        dst = (src + 1 + cycle % (config.n_nodes - 1)) % config.n_nodes
        kind = PacketKind.DATA if cycle % 3 else PacketKind.CONTROL
        block = (CacheBlock.from_ints(range(cycle, cycle + 16))
                 if kind is PacketKind.DATA else None)
        network.submit(TrafficRequest(src, dst, kind, block))
        before = len(emitted)
        network.step()
        assert sanitizer.injected == len(emitted)
        # The trace names each birth's node and VC, decoded from the slot.
        births = [event for event in sanitizer._trace
                  if event[0] == "inject" and event[1] == cycle]
        assert len(births) == len(emitted) - before
        for (_kind, _now, node, vc, pid), (slot, flit) in zip(
                births, emitted[before:]):
            assert flit.packet.pid == pid and flit.packet.src == node
            assert slot == network.nis[node]._slot_base + vc
    assert network.drain()
    assert sanitizer.injected == len(emitted)
    assert sanitizer.injected == network.stats.total_flits_injected
    assert sanitizer.delivered == sanitizer.injected
    assert not sanitizer._births
