"""Recovery mechanisms for the fault-injection layer.

Armed by ``FaultConfig(recovery=True)`` and owned by the
:class:`~repro.faults.inject.FaultInjector`, which routes the network/NI
hooks here.  Three independent mechanisms (each with its own sub-switch):

* **CRC + NACK retransmission** (``crc_retx``): the destination NI runs a
  per-packet CRC after reassembly.  The injection layer records every
  corruption it inflicts as packet metadata, so the modeled CRC is exact:
  it rejects precisely the packets whose delivered payload would deviate
  from the encoder's promise (including vanished body flits, which a real
  CRC catches through the length field).  A rejected packet is consumed,
  a single-flit NACK travels back to the source, and the source
  retransmits from a bounded FIFO buffer with exponential backoff, up to
  ``retry_budget`` attempts.  NACKs and retransmissions ride the normal
  packet paths and are measured by the normal stats — retransmission
  overhead is simply their flit traffic.
* **Credit watchdog** (``credit_watchdog``): dropped flits and swallowed
  credit messages leak buffer credits, which deadlocks wormhole links
  long before they corrupt data.  The injector ledgers every leaked
  credit against its upstream pool; every ``watchdog_period`` cycles the
  watchdog replays the missing credit returns (the real-hardware
  equivalent is a periodic credit-count handshake per link).
* **Graceful degradation** (``degrade``): a delivered-block oracle at the
  NI compares delivered words against the original block; when residual
  corruption breaches the scheme's approximation threshold (the paper's
  per-word error bound e), the node stops approximating outbound blocks
  for ``degrade_window`` cycles — under fire, exactness is spent on
  correctness rather than compression.

Everything here is deterministic: no RNG, no wall clock; decisions depend
only on simulation state, so recovery keeps the bit-identity guarantees
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.block import CacheBlock, relative_word_error
from repro.faults.config import FaultConfig


@dataclass(slots=True)
class RecoveryStats:
    """Recovery-mechanism counters (one instance per network)."""

    crc_rejections: int = 0
    nacks_sent: int = 0
    retransmissions: int = 0
    retx_flits: int = 0
    retx_exhausted: int = 0
    retx_evictions: int = 0
    retx_misses: int = 0
    credits_restored: int = 0
    degrade_trips: int = 0
    degraded_blocks: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe counter snapshot."""
        return {"crc_rejections": self.crc_rejections,
                "nacks_sent": self.nacks_sent,
                "retransmissions": self.retransmissions,
                "retx_flits": self.retx_flits,
                "retx_exhausted": self.retx_exhausted,
                "retx_evictions": self.retx_evictions,
                "retx_misses": self.retx_misses,
                "credits_restored": self.credits_restored,
                "degrade_trips": self.degrade_trips,
                "degraded_blocks": self.degraded_blocks}


class RecoveryManager:
    """CRC/NACK retransmission, credit watchdog and graceful degradation."""

    def __init__(self, config: FaultConfig):
        self.config = config
        self.stats = RecoveryStats()
        #: Source-side retransmission buffer: pid -> (src, dst, original
        #: block, attempts so far).  FIFO-bounded at ``retx_buffer``.
        self._retx: Dict[int, Tuple[int, int, Any, int]] = {}
        #: Scheme approximation threshold (fraction), bound at network
        #: construction; None for exact schemes (no degradation oracle).
        self._threshold: Optional[float] = None
        #: Global degrade-mode horizon (cycle until which outbound blocks
        #: are forced exact).
        self._degraded_until = -1

    def bind(self, network: Any) -> None:
        """Late-bind per-network state (the scheme's error threshold)."""
        threshold_pct = getattr(network.scheme, "error_threshold_pct", None)
        if threshold_pct is not None:
            self._threshold = float(threshold_pct) / 100.0

    # ------------------------------------------------- graceful degradation

    def degraded(self, now: int) -> bool:
        """Whether degrade mode is currently forcing exact transmission."""
        return now < self._degraded_until

    def transform_request(self, request: Any, now: int) -> Any:
        """Force outbound blocks exact while degrade mode is active."""
        if not self.config.degrade or now >= self._degraded_until:
            return request
        block = request.block
        if block is None or not block.approximable:
            return request
        self.stats.degraded_blocks += 1
        exact = CacheBlock(block.words, dtype=block.dtype,
                           approximable=False)
        return replace(request, block=exact)

    def on_delivery(self, ni: Any, packet: Any, block: Any,
                    now: int) -> None:
        """End-to-end error oracle: trip degrade mode when residual
        corruption on a delivered block breaches the approximation
        threshold.  Only called for packets that carried injected faults
        (intended approximation alone can never trip it)."""
        if not self.config.degrade or self._threshold is None:
            return
        original = packet.block
        if original is None or block is None:
            return
        limit = self._threshold
        for precise, delivered in zip(original.words, block.words):
            if precise == delivered:
                continue
            if relative_word_error(precise, delivered,
                                   original.dtype) > limit:
                self._degraded_until = now + self.config.degrade_window
                self.stats.degrade_trips += 1
                return

    # --------------------------------------------- CRC + NACK retransmission

    def on_packet_queued(self, ni: Any, packet: Any, now: int) -> None:
        """Register an outbound data packet in the retransmission buffer."""
        if not self.config.crc_retx or packet.block is None:
            return
        self._retx[packet.pid] = (packet.src, packet.dst, packet.block, 0)
        if len(self._retx) > self.config.retx_buffer:
            evicted = next(iter(self._retx))
            del self._retx[evicted]
            self.stats.retx_evictions += 1

    def reject_corrupt(self, ni: Any, packet: Any, now: int) -> bool:
        """Destination-side CRC check on a corrupt packet.

        Returns True when the packet is consumed (not delivered); a NACK
        addressed to the source is queued on this NI in its place.
        """
        if not self.config.crc_retx:
            return False
        # Imported here: repro.noc.ni imports repro.faults.config at class
        # level via NocConfig, and this module is loaded from the injector
        # at network-construction time — the late import keeps the module
        # graph acyclic no matter which side loads first.
        from repro.faults.inject import PacketFaultState
        from repro.noc.ni import TrafficRequest
        from repro.noc.packet import PacketKind
        self.stats.crc_rejections += 1
        nack = ni.submit(TrafficRequest(src=ni.node_id, dst=packet.src,
                                        kind=PacketKind.NACK), now)
        state = PacketFaultState()
        state.nack_pid = packet.pid
        nack.fault = state
        self.stats.nacks_sent += 1
        return True

    def on_nack(self, ni: Any, packet: Any, now: int) -> None:
        """A NACK arrived at the source NI: retransmit the named block
        with exponential backoff, within the retry budget."""
        state = packet.fault
        pid = state.nack_pid if state is not None else None
        entry = self._retx.pop(pid, None) if pid is not None else None
        if entry is None:
            # Original fell out of the FIFO buffer (or a duplicate NACK):
            # nothing to resend.
            self.stats.retx_misses += 1
            return
        src, dst, block, attempt = entry
        if attempt >= self.config.retry_budget:
            self.stats.retx_exhausted += 1
            return
        from repro.noc.ni import TrafficRequest
        from repro.noc.packet import PacketKind
        resend = ni.submit(TrafficRequest(src=src, dst=dst,
                                          kind=PacketKind.DATA,
                                          block=block), now)
        backoff = self.config.backoff_base << attempt
        resend.inject_ready = max(resend.inject_ready, now + backoff)
        # submit() routed through on_packet_queued and registered the new
        # pid at attempt 0; overwrite with the true attempt count.
        self._retx[resend.pid] = (src, dst, block, attempt + 1)
        self.stats.retransmissions += 1
        self.stats.retx_flits += resend.size_flits

    # --------------------------------------------------- credit watchdog

    def resync_credits(self, network: Any, injector: Any) -> None:
        """Replay every ledgered lost credit into its upstream pool.

        Uses the same public entry points real credit messages use
        (``Router.credit_return`` / ``NetworkInterface.credit``), so the
        restored state is indistinguishable from normal operation and
        NoCSan's strict credit audits hold again immediately.
        """
        for (rid, port, vc), count in sorted(
                injector.lost_link_credits.items()):
            router = network.routers[rid]
            for _ in range(count):
                router.credit_return(port, vc)
            self.stats.credits_restored += count
        injector.lost_link_credits.clear()
        for (node, vc), count in sorted(injector.lost_ni_credits.items()):
            ni = network.nis[node]
            for _ in range(count):
                ni.credit(vc)
            self.stats.credits_restored += count
        injector.lost_ni_credits.clear()
