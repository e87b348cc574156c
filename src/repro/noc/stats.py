"""Network statistics: latency breakdown, flit accounting, energy events.

Figure 9 plots average packet latency broken into queueing, network and
decode components; Figure 11 plots injected data flits; Figure 12 plots
latency against offered load.  All of those are aggregations over the
counters collected here.  Energy *event* counts (buffer read/write, crossbar
and link traversals, allocator activity) feed the Figure 15 power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

from repro.noc.packet import Packet, PacketKind

#: Fields that describe the *measurement process* rather than simulated
#: behaviour: which step phases had work, how effective the encode caches
#: were.  They legitimately differ across execution modes (serial vs
#: parallel, cold vs warm cache) and are therefore excluded from
#: bit-identity comparisons — see :meth:`NetworkStats.simulation_outputs`.
ACCOUNTING_FIELDS: Tuple[str, ...] = (
    "deliver_phase_ticks", "traffic_phase_ticks",
    "ni_phase_ticks", "router_phase_ticks", "credit_phase_ticks",
    "encode_cache_hits", "encode_cache_misses",
)


@dataclass(slots=True)
class NetworkStats:
    """Aggregate counters for one simulation run."""

    cycles: int = 0

    # Packet accounting, by kind.
    packets_injected: Dict[str, int] = field(default_factory=dict)
    packets_delivered: Dict[str, int] = field(default_factory=dict)
    flits_injected: Dict[str, int] = field(default_factory=dict)
    flits_delivered: Dict[str, int] = field(default_factory=dict)

    # Latency sums over delivered packets.
    queue_latency_sum: int = 0
    network_latency_sum: int = 0
    decode_latency_sum: int = 0

    # Energy events (router datapath).
    buffer_writes: int = 0
    buffer_reads: int = 0
    crossbar_traversals: int = 0
    link_traversals: int = 0
    vc_allocations: int = 0

    # Codec events (engine activity at the NIs).
    compression_ops: int = 0
    decompression_ops: int = 0

    # Encode memoization effectiveness (shared AVCL / pattern-match caches);
    # populated by the harness as the hit/miss delta over one run.
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0

    # Step-phase activity (perf instrumentation, not simulation outputs;
    # all listed in ACCOUNTING_FIELDS), collected only under
    # ``NocConfig.profile_phases``: the cycles in which each step phase had
    # any work.
    deliver_phase_ticks: int = 0
    traffic_phase_ticks: int = 0
    ni_phase_ticks: int = 0
    router_phase_ticks: int = 0
    credit_phase_ticks: int = 0

    def record_injection(self, packet: Packet) -> None:
        """A packet's head flit entered the network."""
        kind = packet.kind.value
        self.packets_injected[kind] = self.packets_injected.get(kind, 0) + 1
        self.flits_injected[kind] = (self.flits_injected.get(kind, 0)
                                     + packet.size_flits)

    def record_delivery(self, packet: Packet, decode_latency: int) -> None:
        """A packet finished (tail ejected and decode complete)."""
        kind = packet.kind.value
        self.packets_delivered[kind] = (
            self.packets_delivered.get(kind, 0) + 1)
        self.flits_delivered[kind] = (self.flits_delivered.get(kind, 0)
                                      + packet.size_flits)
        self.queue_latency_sum += packet.queue_latency
        self.network_latency_sum += packet.network_latency
        self.decode_latency_sum += decode_latency

    # ----------------------------------------------------------- reading

    @property
    def total_packets_delivered(self) -> int:
        """Delivered packets across all kinds."""
        return sum(self.packets_delivered.values())

    @property
    def total_flits_injected(self) -> int:
        """Injected flits across all kinds."""
        return sum(self.flits_injected.values())

    @property
    def data_flits_injected(self) -> int:
        """Injected data-packet flits (Figure 11's metric)."""
        return self.flits_injected.get(PacketKind.DATA.value, 0)

    @property
    def avg_queue_latency(self) -> float:
        """Mean NI queueing latency per delivered packet."""
        n = self.total_packets_delivered
        return self.queue_latency_sum / n if n else 0.0

    @property
    def avg_network_latency(self) -> float:
        """Mean in-network latency per delivered packet."""
        n = self.total_packets_delivered
        return self.network_latency_sum / n if n else 0.0

    @property
    def avg_decode_latency(self) -> float:
        """Mean decompression latency per delivered packet."""
        n = self.total_packets_delivered
        return self.decode_latency_sum / n if n else 0.0

    @property
    def avg_packet_latency(self) -> float:
        """Mean total latency (queue + network + decode), Figure 9's bar."""
        return (self.avg_queue_latency + self.avg_network_latency
                + self.avg_decode_latency)

    def throughput_flits_per_node_cycle(self, n_nodes: int) -> float:
        """Delivered flits per node per cycle (Figure 12's x-axis metric is
        *offered* load; this is the accepted counterpart)."""
        if not self.cycles or not n_nodes:
            return 0.0
        return sum(self.flits_delivered.values()) / (self.cycles * n_nodes)

    def simulation_outputs(self) -> Dict[str, object]:
        """Every counter that is a *simulation output* (excludes the
        :data:`ACCOUNTING_FIELDS` instrumentation), for bit-identity
        comparisons across execution modes (cores, serial vs parallel,
        cached vs fresh)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ACCOUNTING_FIELDS}

    def reset(self) -> None:
        """Clear all counters (used at the warmup/measurement boundary)."""
        self.__init__()

    def latency_breakdown(self) -> Dict[str, float]:
        """The Figure 9 stack: queue / network / decode means."""
        return {
            "queue": self.avg_queue_latency,
            "network": self.avg_network_latency,
            "decode": self.avg_decode_latency,
            "total": self.avg_packet_latency,
        }
