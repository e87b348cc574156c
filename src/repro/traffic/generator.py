"""Traffic sources driving the network.

Two families:

* :class:`SyntheticTraffic` — the §5.2.2 throughput methodology: a classical
  destination pattern (UR/TR/...) at a controlled injection rate, with data
  payloads drawn from a benchmark's value model ("the synthetic workloads can
  ... vary the traffic pattern/injection rate but the data being communicated
  can be kept constant and correlated with data locality in the benchmarks").
* :class:`BenchmarkTraffic` — the trace-flavoured per-benchmark workload
  used by Figures 9-11 and 13-15: per-node bursty (on/off) injection at the
  benchmark's rate and data:control mix, uniform request/reply destinations.

Injection rates are specified in **uncompressed flits per node per cycle**
(Figure 12's x-axis): the offered load is independent of the compression
mechanism under test, which is what lets compressed networks show a
throughput advantage at equal offered load.

Event-horizon contract (DESIGN.md §12): both stochastic sources expose
``next_arrival(now, limit)``, which the network's zero-activity fast path
uses to find the earliest future injection.  Per-cycle injection decisions
are drawn *exactly once per simulated cycle, in cycle order*, whether the
draw happens inside ``generate`` (always-step mode) or ahead of time inside
``next_arrival`` (skip mode, which buffers the resulting requests until
``generate`` reaches their cycle).  The RNG therefore consumes an identical
draw sequence in both modes, which is what makes cycle skipping
bit-invisible.  The companion contract on callers: ``generate`` is called
at most once per cycle, in nondecreasing cycle order, and any cycle it is
never called for must lie inside a window a ``next_arrival`` search already
covered (the network only skips cycles it proved injection-free).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.noc.config import NocConfig
from repro.noc.ni import TrafficRequest
from repro.noc.packet import PacketKind
from repro.noc.topology import MeshTopology
from repro.traffic.datagen import BlockGenerator, ValueModel
from repro.traffic.patterns import PatternFn, get_pattern
from repro.traffic.profiles import BenchmarkProfile
from repro.util.rng import DeterministicRng


class SyntheticTraffic:
    """Pattern-based Bernoulli traffic at a fixed offered load."""

    def __init__(self, config: NocConfig, pattern: str = "uniform_random",
                 injection_rate: float = 0.1, data_ratio: float = 0.25,
                 value_model: Optional[ValueModel] = None,
                 approx_packet_ratio: float = 0.75, seed: int = 1,
                 duration: Optional[int] = None):
        if not 0 <= injection_rate <= 1:
            raise ValueError(
                f"injection rate (flits/node/cycle) out of range: "
                f"{injection_rate}")
        if not 0 <= data_ratio <= 1:
            raise ValueError(f"data ratio out of range: {data_ratio}")
        self.config = config
        self.topology = MeshTopology(config)
        self.pattern: PatternFn = get_pattern(pattern)
        self.data_ratio = data_ratio
        self.approx_packet_ratio = approx_packet_ratio
        self.duration = duration
        self._rng = DeterministicRng(seed)
        model = value_model or ValueModel(name="uniform")
        self._blocks = BlockGenerator(model, self._rng.fork(1))
        # Lookahead state (event-horizon contract, module docstring):
        # cycles <= _drawn_through have had their injection decisions drawn;
        # non-empty ones that generate() has not consumed yet live in
        # _pending (keyed by cycle, insertion-ordered = cycle-ordered).
        self._pending: Dict[int, List[TrafficRequest]] = {}
        self._drawn_through = -1
        # Offered load is in uncompressed flits; convert to packets.
        mean_flits = (data_ratio * config.uncompressed_data_flits
                      + (1 - data_ratio) * 1)
        self.packet_rate = injection_rate / mean_flits
        if self.packet_rate > 1:
            raise ValueError(
                f"injection rate {injection_rate} exceeds one packet per "
                f"node per cycle (packet rate {self.packet_rate:.2f})")

    def _draw_cycle(self, cycle: int) -> List[TrafficRequest]:
        """Draw cycle's injection decisions (the one place RNG is consumed).

        Per node, in node order: the injection Bernoulli, the pattern's
        destination draw, the data/control Bernoulli and, for data, the
        approximable Bernoulli plus the block's value draws.  The
        Bernoulli draws are inlined through ``DeterministicRng.uniform``.
        """
        if self.duration is not None and cycle >= self.duration:
            return []
        requests: List[TrafficRequest] = []
        rng = self._rng
        uniform = rng.uniform
        packet_rate = self.packet_rate
        data_ratio = self.data_ratio
        approx_ratio = self.approx_packet_ratio
        pattern = self.pattern
        topology = self.topology
        next_block = self._blocks.next_block
        words = self.config.words_per_block
        for src in range(topology.n_nodes):
            if not uniform() < packet_rate:
                continue
            dst = pattern(src, topology, rng)
            if dst is None or dst == src:
                continue
            if uniform() < data_ratio:
                block = next_block(words=words,
                                   approximable=uniform() < approx_ratio)
                requests.append(TrafficRequest(src, dst, PacketKind.DATA,
                                               block))
            else:
                requests.append(TrafficRequest(src, dst, PacketKind.CONTROL))
        return requests

    def generate(self, cycle: int) -> List[TrafficRequest]:
        """Requests injected this cycle."""
        if cycle <= self._drawn_through:
            return self._pending.pop(cycle, [])
        drawn = self._drawn_through
        result: List[TrafficRequest] = []
        while drawn < cycle:
            drawn += 1
            requests = self._draw_cycle(drawn)
            if requests:
                if drawn == cycle:
                    result = requests
                else:
                    self._pending[drawn] = requests
        self._drawn_through = drawn
        return result

    def next_arrival(self, now: int,
                     limit: Optional[int] = None) -> Optional[int]:
        """Earliest cycle ``>= now`` with injections, drawing ahead as
        needed; None when there is none (none at all, or none ``<= limit``
        when a bound is given).  Draws are buffered for ``generate``."""
        for cycle in self._pending:
            if cycle >= now:
                return cycle
        if self.packet_rate == 0:
            return None
        cycle = self._drawn_through
        while limit is None or cycle < limit:
            cycle += 1
            if self.duration is not None and cycle >= self.duration:
                return None
            requests = self._draw_cycle(cycle)
            self._drawn_through = cycle
            if requests:
                self._pending[cycle] = requests
                return cycle
        return None


class BenchmarkTraffic:
    """Per-benchmark bursty traffic with the profile's value model."""

    #: Fraction of packets sent to one of the node's preferred partners
    #: (home L2 slices / directories for its working set); the rest are
    #: uniform.  Pair affinity is what lets per-destination dictionary
    #: state (Figure 7) learn at realistic speed.
    PARTNER_AFFINITY = 0.7
    PARTNERS_PER_NODE = 4

    def __init__(self, config: NocConfig, profile: BenchmarkProfile,
                 approx_packet_ratio: float = 0.75, seed: int = 1,
                 duration: Optional[int] = None,
                 rate_scale: float = 1.0):
        self.config = config
        self.topology = MeshTopology(config)
        self.profile = profile
        self.approx_packet_ratio = approx_packet_ratio
        self.duration = duration
        self.rate_scale = rate_scale
        self._rng = DeterministicRng(seed)
        self._blocks = BlockGenerator(profile.model, self._rng.fork(1))
        self._burst_on = [False] * config.n_nodes
        # Lookahead state; see the module docstring and SyntheticTraffic.
        self._pending: Dict[int, List[TrafficRequest]] = {}
        self._drawn_through = -1
        n = config.n_nodes
        self._partners = []
        for src in range(n):
            rng = self._rng.fork(100 + src)
            partners = set()
            while len(partners) < min(self.PARTNERS_PER_NODE, n - 1):
                cand = rng.randint(0, n - 1)
                if cand != src:
                    partners.add(cand)
            self._partners.append(sorted(partners))

    def _draw_cycle(self, cycle: int) -> List[TrafficRequest]:
        """Draw cycle's burst transitions + injection decisions.

        Per node, in node order: the burst on/off Bernoulli, the
        injection Bernoulli at the burst state's rate, the partner
        Bernoulli and destination draw, the data/control Bernoulli and,
        for data, the approximable Bernoulli plus the block's value
        draws.  The Bernoulli draws are inlined through
        ``DeterministicRng.uniform``.
        """
        if self.duration is not None and cycle >= self.duration:
            return []
        requests: List[TrafficRequest] = []
        rng = self._rng
        uniform = rng.uniform
        burst = self.profile.burst
        p_on, p_off = burst.p_on, burst.p_off
        rate = self.profile.packet_rate
        on_rate = min(rate * burst.on_multiplier * self.rate_scale, 1.0)
        off_rate = min(rate * burst.off_multiplier * self.rate_scale, 1.0)
        burst_on = self._burst_on
        partners = self._partners
        affinity = self.PARTNER_AFFINITY
        data_ratio = self.profile.data_ratio
        approx_ratio = self.approx_packet_ratio
        next_block = self._blocks.next_block
        words = self.config.words_per_block
        n = self.topology.n_nodes
        for src in range(n):
            if burst_on[src]:
                if uniform() < p_off:
                    burst_on[src] = False
            elif uniform() < p_on:
                burst_on[src] = True
            if not uniform() < (on_rate if burst_on[src] else off_rate):
                continue
            if uniform() < affinity:
                dst = rng.choice(partners[src])
            else:
                dst = rng.randint(0, n - 2)
                if dst >= src:
                    dst += 1
            if uniform() < data_ratio:
                block = next_block(words=words,
                                   approximable=uniform() < approx_ratio)
                requests.append(TrafficRequest(src, dst, PacketKind.DATA,
                                               block))
            else:
                requests.append(TrafficRequest(src, dst, PacketKind.CONTROL))
        return requests

    def generate(self, cycle: int) -> List[TrafficRequest]:
        """Requests injected this cycle."""
        if cycle <= self._drawn_through:
            return self._pending.pop(cycle, [])
        drawn = self._drawn_through
        result: List[TrafficRequest] = []
        while drawn < cycle:
            drawn += 1
            requests = self._draw_cycle(drawn)
            if requests:
                if drawn == cycle:
                    result = requests
                else:
                    self._pending[drawn] = requests
        self._drawn_through = drawn
        return result

    def next_arrival(self, now: int,
                     limit: Optional[int] = None) -> Optional[int]:
        """Earliest cycle ``>= now`` with injections (see
        :meth:`SyntheticTraffic.next_arrival`)."""
        for cycle in self._pending:
            if cycle >= now:
                return cycle
        if self.profile.packet_rate * self.rate_scale == 0:
            return None
        cycle = self._drawn_through
        while limit is None or cycle < limit:
            cycle += 1
            if self.duration is not None and cycle >= self.duration:
                return None
            requests = self._draw_cycle(cycle)
            self._drawn_through = cycle
            if requests:
                self._pending[cycle] = requests
                return cycle
        return None
