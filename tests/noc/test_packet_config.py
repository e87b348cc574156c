"""Tests for packets, flits and the NoC configuration."""

import pytest

from repro.noc.config import NocConfig, PAPER_CONFIG, TINY_CONFIG
from repro.noc.packet import Packet, PacketKind, fragment
from repro.service.model import RequestError, config_from_json


class TestPacket:
    def test_self_addressed_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=1, dst=1, kind=PacketKind.CONTROL)

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, kind=PacketKind.DATA, size_flits=0)

    def test_latency_accessors(self):
        packet = Packet(src=0, dst=1, kind=PacketKind.CONTROL, created=10)
        packet.head_injected = 14
        packet.tail_ejected = 25
        assert packet.queue_latency == 4
        assert packet.network_latency == 11

    def test_unique_ids(self):
        a = Packet(src=0, dst=1, kind=PacketKind.CONTROL)
        b = Packet(src=0, dst=1, kind=PacketKind.CONTROL)
        assert a.pid != b.pid

    def test_kind_single_flit(self):
        assert PacketKind.CONTROL.is_single_flit
        assert PacketKind.NOTIFICATION.is_single_flit
        assert not PacketKind.DATA.is_single_flit


class TestFragment:
    def test_single_flit_is_head_and_tail(self):
        packet = Packet(src=0, dst=1, kind=PacketKind.CONTROL, size_flits=1)
        flits = fragment(packet)
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_multi_flit_structure(self):
        packet = Packet(src=0, dst=1, kind=PacketKind.DATA, size_flits=5)
        flits = fragment(packet)
        assert len(flits) == 5
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])
        assert all(f.packet is packet for f in flits)


class TestConfig:
    def test_paper_config_is_table1(self):
        assert PAPER_CONFIG.n_routers == 16
        assert PAPER_CONFIG.n_nodes == 32
        assert PAPER_CONFIG.words_per_block == 16
        assert PAPER_CONFIG.uncompressed_data_flits == 9

    def test_tiny_config(self):
        assert TINY_CONFIG.n_nodes == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            NocConfig(mesh_width=0)
        with pytest.raises(ValueError):
            NocConfig(num_vcs=0)
        with pytest.raises(ValueError):
            NocConfig(flit_bytes=0)

    @pytest.mark.parametrize("field", [{"event_horizon": False},
                                       {"core": "numpy"}])
    def test_retired_settings_rejected(self, field):
        """Every cycle is stepped and the numpy core is gone: the two
        fields accept only their defaults (and the object core), both as
        a NocConfig and as a service request's config."""
        with pytest.raises(ValueError, match="ROADMAP"):
            NocConfig(**field)
        with pytest.raises(RequestError, match="invalid config"):
            config_from_json(field)

    def test_full_system_mesh(self):
        """The §5.4 full-system 8x8 mesh with 64 cores."""
        config = NocConfig(mesh_width=8, mesh_height=8, concentration=1)
        assert config.n_nodes == 64
        assert config.n_routers == 64

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_CONFIG.mesh_width = 8  # type: ignore[misc]
