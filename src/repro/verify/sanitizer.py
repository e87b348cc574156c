"""NoCSan: the opt-in runtime invariant sanitizer.

When enabled (``NocConfig(sanitize=True)`` or the ``REPRO_SANITIZE``
environment variable), :class:`~repro.noc.network.Network` routes its
send/credit/delivery callbacks and its per-cycle injection batch through a
:class:`NocSanitizer`, which checks a catalogue of architectural invariants
as the simulation advances:

* **Flit conservation** (every cycle) — ``injected - delivered`` must equal
  the flits buffered in routers plus those in flight on links; a flit can
  never be duplicated or silently dropped.
* **Credit conservation** (deep audit) — for every inter-router link and
  VC, upstream credits + downstream buffer occupancy + in-flight flits must
  equal ``vc_depth``; ejection-port credit consumption must equal the flits
  ejected; each NI's credit view must match its router's local-port
  buffers.  Negative credits and buffer overflow are caught here too.
* **Protocol legality** (deep audit) — :meth:`Router.audit` cross-checks
  the wormhole state machine: VC ownership is bidirectionally consistent,
  body flits never sit at the head of line without an allocated output VC,
  and the occupancy caches match the buffers they summarize.
* **Starvation watchdog** (deep audit) — any flit older than
  ``max_flit_age`` cycles aborts the run (livelock or arbitration
  starvation).
* **Error-bound oracle** (every delivered data packet) — each delivered
  word must equal the value the encoder promised; unapproximated words must
  be bit-exact; approximated words must be admissible under the scheme's
  AVCL don't-care mask (evaluated from either endpoint, covering the
  FP-VAXX value-side and DI-VAXX TCAM-side mask constructions), and, when
  the source codec carries a :class:`WindowErrorBudget`, within the
  window's worst-case per-word allowance.

Violations raise :class:`SanitizerError` carrying cycle/router/port/VC
context and the tail of a replayable event trace.

**Fault awareness** (DESIGN.md §13): with fault injection armed *and*
recovery enabled, NoCSan accounts for the damage the injector declares —
dropped flits leave conservation through :meth:`NocSanitizer.note_drop`,
outstanding swallowed credits are discounted from the credit equations
until the watchdog restores them, and corrupt-but-delivered payloads are
checked against the injected XOR trail exactly.  With recovery *disabled*
the strict invariants stand, which is what makes NoCSan the ground-truth
fault detector: every injected fault class trips a specific invariant
(bit-flips/stuck-at -> ``error-bound``, drops -> ``flit-conservation``,
credit loss -> ``credit-conservation``, fail-stop -> ``starvation``).
The starvation age is tunable via the ``REPRO_SANITIZE_MAX_AGE``
environment variable so fail-stop detection tests need not simulate
100k cycles.

The cheap per-cycle check is O(#routers); the expensive audits run every
``deep_interval`` cycles (default 16) so sanitized runs stay usable for
whole test suites.  When the sanitizer is *disabled*, ``Network`` skips the
wrapping entirely: the fast path is untouched.
"""

from __future__ import annotations

import os
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    TYPE_CHECKING,
    Tuple,
)

from repro.core.avcl import Avcl
from repro.core.block import CacheBlock, relative_word_error
from repro.core.error_control import WindowErrorBudget
from repro.noc.config import NocConfig
from repro.noc.packet import Flit, Packet
from repro.noc.topology import DIRECTION_NAMES, NUM_DIRECTIONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.noc.network import Network

#: Event kinds recorded in the replay trace:
#: ``("inject", cycle, node, vc, pid)``, ``("send", cycle, router, port,
#: vc, pid)``, ``("eject", cycle, node, pid)``, ``("credit", cycle,
#: router, port, vc)``, ``("deliver", cycle, node, pid)``.
TraceEvent = Tuple[Any, ...]


def sanitize_enabled(config: NocConfig) -> bool:
    """Whether NoCSan should instrument a network built from ``config``.

    True when the config opts in explicitly or the ``REPRO_SANITIZE``
    environment variable is set to a non-empty value other than ``0``.
    """
    if config.sanitize:
        return True
    env = os.environ.get("REPRO_SANITIZE", "")
    return env not in ("", "0")


class SanitizerError(RuntimeError):
    """An architectural invariant was violated during a sanitized run.

    Carries enough context to localize the failure (``cycle``, ``router``,
    ``port``, ``vc`` where applicable) plus the tail of the event trace
    leading up to it, so the offending sequence can be replayed in a test.
    """

    def __init__(self, invariant: str, message: str, *,
                 cycle: Optional[int] = None,
                 router: Optional[int] = None,
                 port: Optional[int] = None,
                 vc: Optional[int] = None,
                 trace: Tuple[TraceEvent, ...] = ()):
        self.invariant = invariant
        self.cycle = cycle
        self.router = router
        self.port = port
        self.vc = vc
        self.trace = trace
        where = []
        if cycle is not None:
            where.append(f"cycle {cycle}")
        if router is not None:
            where.append(f"router {router}")
        if port is not None:
            name = DIRECTION_NAMES.get(port, str(port))
            where.append(f"port {name}")
        if vc is not None:
            where.append(f"vc {vc}")
        location = " ".join(where)
        lines = [f"[{invariant}] {message}" +
                 (f" (at {location})" if location else "")]
        if trace:
            lines.append(f"last {len(trace)} events:")
            lines.extend(f"  {event}" for event in trace)
        super().__init__("\n".join(lines))


class NocSanitizer:
    """Runtime invariant checker wired into one :class:`Network`.

    The network calls the ``wrap_*`` factories while building its callback
    tables, :meth:`record_injections` with each cycle's injection batch and
    :meth:`after_cycle` at the end of every :meth:`Network.step`.
    """

    #: Events retained for the replayable trace tail.
    TRACE_LEN = 64

    def __init__(self, network: "Network",
                 max_flit_age: Optional[int] = None,
                 deep_interval: int = 16):
        if max_flit_age is None:
            env = os.environ.get("REPRO_SANITIZE_MAX_AGE", "")
            max_flit_age = int(env) if env else 100_000
        if max_flit_age < 1:
            raise ValueError(f"max_flit_age must be >= 1, got {max_flit_age}")
        if deep_interval < 1:
            raise ValueError(
                f"deep_interval must be >= 1, got {deep_interval}")
        self.network = network
        self.max_flit_age = max_flit_age
        self.deep_interval = deep_interval
        self.injected = 0
        self.delivered = 0
        #: Flits the fault injector dropped mid-link (fault-tolerant mode
        #: only; in detector mode drops violate flit conservation instead).
        self.dropped = 0
        #: Fault-injection layer, when armed (None otherwise).
        self._faults = getattr(network, "_faults", None)
        #: Tolerant mode: discount injector-declared damage instead of
        #: flagging it (recovery is on, so the damage is being repaired).
        self.fault_tolerant = (self._faults is not None
                               and self._faults.recovery_enabled)
        #: id(flit) -> (injection cycle, flit); live flits only.
        self._births: Dict[int, Tuple[int, Flit]] = {}
        #: (router, port, vc) -> flits ejected through that output VC.
        self._ejected: Dict[Tuple[int, int, int], int] = {}
        self._trace: Deque[TraceEvent] = deque(maxlen=self.TRACE_LEN)
        #: Lazily-built AVCL mirroring the scheme's threshold, for the
        #: delivery oracle (None for schemes that never approximate).
        threshold = getattr(network.scheme, "error_threshold_pct", None)
        mode = getattr(network.scheme, "avcl_mode", "paper")
        self._oracle_avcl: Optional[Avcl] = (
            Avcl(threshold, mode=mode) if threshold is not None else None)

    # ------------------------------------------------------------ wrapping

    def _fail(self, invariant: str, message: str, **where: Any) -> None:
        raise SanitizerError(invariant, message,
                             cycle=self.network.cycle,
                             trace=tuple(self._trace), **where)

    def record_injections(self, injections: List[Tuple[int, Flit]],
                          now: int) -> None:
        """Record flit births: the cycle's NI injections, as the packed
        ``(router input slot, flit)`` batch the network buffers."""
        topology = self.network.topology
        births = self._births
        trace = self._trace
        for slot, flit in injections:
            rid, port, vc = topology.slot_coords(slot)
            self.injected += 1
            births[id(flit)] = (now, flit)
            trace.append(("inject", now, topology.node_at(rid, port), vc,
                          flit.packet.pid))

    def wrap_send(self, rid: int, fn: Callable[[int, int, Flit], None]
                  ) -> Callable[[int, int, Flit], None]:
        """Instrument a router send callback (link hops + ejections)."""
        topology = self.network.topology
        is_ejection = tuple(
            port >= NUM_DIRECTIONS or topology.link(rid, port) is None
            for port in range(topology.ports_per_router))
        trace = self._trace
        ejected = self._ejected

        def send(out_port: int, out_vc: int, flit: Flit) -> None:
            now = self.network.cycle
            pid = flit.packet.pid
            if is_ejection[out_port]:
                self.delivered += 1
                key = (rid, out_port, out_vc)
                ejected[key] = ejected.get(key, 0) + 1
                if self._births.pop(id(flit), None) is None:
                    self._fail(
                        "flit-conservation",
                        f"packet {pid} ejected a flit that was never "
                        f"injected (duplicated or fabricated in transit)",
                        router=rid, port=out_port, vc=out_vc)
                trace.append(("eject", now, rid, pid))
            else:
                trace.append(("send", now, rid, out_port, out_vc, pid))
            fn(out_port, out_vc, flit)

        return send

    def wrap_credit(self, rid: int, fn: Callable[[int, int], None]
                    ) -> Callable[[int, int], None]:
        """Instrument a router credit-return callback (trace only)."""
        trace = self._trace

        def credit(in_port: int, in_vc: int) -> None:
            trace.append(("credit", self.network.cycle, rid, in_port, in_vc))
            fn(in_port, in_vc)

        return credit

    def note_drop(self, flit: Flit) -> None:
        """The fault injector dropped ``flit`` mid-link (fault-tolerant
        mode): retire it from conservation so the loss is accounted, not
        flagged."""
        self.dropped += 1
        self._births.pop(id(flit), None)
        self._trace.append(("drop", self.network.cycle, flit.packet.pid))

    def wrap_deliver(self, node: int,
                     fn: Optional[Callable[[Packet, Optional[CacheBlock],
                                            int], None]]
                     ) -> Callable[[Packet, Optional[CacheBlock], int], None]:
        """Instrument an NI delivery callback with the error-bound oracle."""
        trace = self._trace

        def deliver(packet: Packet, block: Optional[CacheBlock],
                    now: int) -> None:
            trace.append(("deliver", now, node, packet.pid))
            if block is not None and packet.encoded is not None:
                fault = packet.fault
                if (fault is not None and self.fault_tolerant
                        and fault.corrupted):
                    # Injector-corrupted payload delivered in tolerant
                    # mode (CRC retransmission off): check it against the
                    # declared XOR trail instead of the encoder promise.
                    self._check_faulted_block(packet, block)
                else:
                    self._check_delivered_block(packet, block)
            if fn is not None:
                fn(packet, block, now)

        return deliver

    # -------------------------------------------------- error-bound oracle

    def _check_faulted_block(self, packet: Packet,
                             block: CacheBlock) -> None:
        """Recheck a corrupt-but-delivered payload against the fault
        injector's declared damage: each word must equal the encoder's
        promise XOR the recorded corruption masks — no more, no less."""
        expected = list(packet.encoded.decoded_words())
        n = len(expected)
        for index, mask in packet.fault.xors:
            expected[index % n] ^= mask
        for index, (word, want) in enumerate(zip(block.words, expected)):
            if word != want:
                self._fail(
                    "error-bound",
                    f"packet {packet.pid} word {index}: delivered "
                    f"{word:#010x} but the encoder promise plus the "
                    f"injected corruption trail gives {want:#010x}")

    def _check_delivered_block(self, packet: Packet,
                               block: CacheBlock) -> None:
        """Recheck every delivered word against the encoder's promise and
        the scheme's error bound (APPROX-NoC §3: threshold-bounded
        per-word error)."""
        encoded = packet.encoded
        words = encoded.words
        if len(block.words) != len(words):
            self._fail(
                "error-bound",
                f"packet {packet.pid} delivered {len(block.words)} words "
                f"but {len(words)} were encoded")
        budget = getattr(self.network.scheme.node(packet.src), "budget",
                         None)
        dtype = encoded.dtype
        for index, (word, enc) in enumerate(zip(block.words, words)):
            if word != enc.decoded:
                self._fail(
                    "error-bound",
                    f"packet {packet.pid} word {index}: delivered "
                    f"{word:#010x} but the encoder promised "
                    f"{enc.decoded:#010x}")
            if not enc.approximated:
                if word != enc.original:
                    self._fail(
                        "error-bound",
                        f"packet {packet.pid} word {index}: value changed "
                        f"({enc.original:#010x} -> {word:#010x}) without "
                        f"being marked approximated")
                if enc.error:
                    self._fail(
                        "error-bound",
                        f"packet {packet.pid} word {index}: exact word "
                        f"carries relative error {enc.error!r}")
                continue
            self._check_approximated_word(packet, index, enc, dtype, budget)

    def _check_approximated_word(self, packet: Packet, index: int,
                                 enc: Any, dtype: Any,
                                 budget: Optional[object]) -> None:
        avcl = self._oracle_avcl
        if avcl is None:
            self._fail(
                "error-bound",
                f"packet {packet.pid} word {index}: scheme "
                f"{self.network.scheme.name!r} declares no error threshold "
                f"yet delivered an approximated word")
            return
        diff = enc.original ^ enc.decoded
        # Admissible when the don't-care mask of *either* endpoint covers
        # the deviation: FP-VAXX masks the original word's value, DI-VAXX's
        # TCAM masks the stored (= decoded) pattern.  For floats the mask
        # stays within the low mantissa bits, so raw-word XOR is exact.
        info_orig = avcl.evaluate(enc.original, dtype)
        info_dec = avcl.evaluate(enc.decoded, dtype)
        if info_orig.bypass and diff:
            self._fail(
                "error-bound",
                f"packet {packet.pid} word {index}: AVCL-bypass value "
                f"{enc.original:#010x} (special float) was approximated "
                f"to {enc.decoded:#010x}")
        if diff & ~info_orig.mask and diff & ~info_dec.mask:
            self._fail(
                "error-bound",
                f"packet {packet.pid} word {index}: deviation "
                f"{enc.original:#010x} -> {enc.decoded:#010x} exceeds the "
                f"AVCL don't-care mask at threshold "
                f"{avcl.error_threshold_pct}%")
        # Quality accounting sums the error the codec carried in the
        # encoding; it must be the substitution's actual relative error.
        err = relative_word_error(enc.original, enc.decoded, dtype)
        if enc.error != err:
            self._fail(
                "error-bound",
                f"packet {packet.pid} word {index}: encoding carries "
                f"relative error {enc.error!r} but the substitution "
                f"{enc.original:#010x} -> {enc.decoded:#010x} has {err!r}")
        if isinstance(budget, WindowErrorBudget):
            allowance = budget.threshold * budget.window + 1e-12
            if err > allowance:
                self._fail(
                    "error-bound",
                    f"packet {packet.pid} word {index}: relative error "
                    f"{err:.6f} exceeds the window budget's worst-case "
                    f"per-word allowance {allowance:.6f}")

    # ----------------------------------------------------------- auditing

    def after_cycle(self, now: int) -> None:
        """End-of-step hook: cheap conservation always, deep audit
        periodically.  Called by :meth:`Network.step` before the cycle
        counter advances, when all of this cycle's effects are settled."""
        network = self.network
        buffered = sum(router._buffered for router in network.routers)
        in_flight = len(network._pending_router_arrivals)
        if self.injected - self.delivered - self.dropped \
                != buffered + in_flight:
            self._fail(
                "flit-conservation",
                f"injected {self.injected} - delivered {self.delivered} "
                f"- dropped {self.dropped} "
                f"!= buffered {buffered} + in-flight {in_flight}")
        # Activity-accounting cross-check: the O(1) counters behind idle()
        # must match full recounts.
        if network._buffered_total != buffered:
            self._fail(
                "activity-accounting",
                f"buffered-flit counter {network._buffered_total} != "
                f"recount {buffered}")
        flagged = sum(network._ni_active)
        busy = sum(1 for ni in network.nis if ni.busy())
        if network._busy_ni_count != flagged or flagged != busy:
            self._fail(
                "activity-accounting",
                f"busy-NI counter {network._busy_ni_count} != raised "
                f"flags {flagged} != busy recount {busy}")
        if (now + 1) % self.deep_interval == 0:
            self._deep_audit(now)

    def _deep_audit(self, now: int) -> None:
        network = self.network
        config = network.config
        num_vcs = config.num_vcs
        vc_depth = config.vc_depth
        for router in network.routers:
            for message in router.audit():
                self._fail("router-state",
                           f"router {router.router_id}: {message}",
                           router=router.router_id)
        # In-flight flit count per destination input slot.
        in_flight: Dict[int, int] = {}
        for slot, _flit in network._pending_router_arrivals:
            in_flight[slot] = in_flight.get(slot, 0) + 1
        topology = network.topology
        from repro.noc.network import EJECTION_CREDITS
        # Tolerant mode discounts credits the injector declares swallowed
        # (outstanding until the watchdog restores them); detector mode
        # keeps the strict equations, so a swallowed credit is flagged.
        lost_link = (self._faults.lost_link_credits
                     if self.fault_tolerant else None)
        lost_ni = (self._faults.lost_ni_credits
                   if self.fault_tolerant else None)
        for router in network.routers:
            rid = router.router_id
            for port in range(topology.ports_per_router):
                link = topology.link(rid, port)
                for vc in range(num_vcs):
                    credits = router.credit_count(port, vc)
                    if link is not None:
                        downstream = network.routers[link.dst_router]
                        occupancy = downstream.buffer_occupancy(
                            link.dst_port, vc)
                        flying = in_flight.get(topology.input_slot(
                            link.dst_router, link.dst_port, vc), 0)
                        expected = vc_depth
                        if lost_link is not None:
                            expected -= lost_link.get((rid, port, vc), 0)
                        if credits + occupancy + flying != expected:
                            self._fail(
                                "credit-conservation",
                                f"link r{rid}:{DIRECTION_NAMES[port]} vc "
                                f"{vc}: credits {credits} + downstream "
                                f"occupancy {occupancy} + in-flight "
                                f"{flying} != expected {expected} "
                                f"(vc_depth {vc_depth})",
                                router=rid, port=port, vc=vc)
                    elif port >= NUM_DIRECTIONS:
                        consumed = EJECTION_CREDITS - credits
                        ejected = self._ejected.get((rid, port, vc), 0)
                        if consumed != ejected:
                            self._fail(
                                "credit-conservation",
                                f"ejection port consumed {consumed} "
                                f"credits but ejected {ejected} flits",
                                router=rid, port=port, vc=vc)
        for ni in network.nis:
            rid = topology.router_of(ni.node_id)
            local_port = topology.local_port_of(ni.node_id)
            router = network.routers[rid]
            occupancy = [router.buffer_occupancy(local_port, vc)
                         for vc in range(num_vcs)]
            missing = None
            if lost_ni is not None:
                missing = [lost_ni.get((ni.node_id, vc), 0)
                           for vc in range(num_vcs)]
            for message in ni.audit_credits(occupancy, vc_depth, missing):
                self._fail("credit-conservation",
                           f"NI {ni.node_id}: {message}",
                           router=rid, port=local_port)
        self._check_starvation(now)

    def _check_starvation(self, now: int) -> None:
        """Abort when any live flit has aged past ``max_flit_age``."""
        oldest: Optional[Tuple[int, int]] = None
        oldest_flit: Optional[Flit] = None
        for birth, flit in self._births.values():
            key = (birth, flit.packet.pid)
            if now - birth > self.max_flit_age and \
                    (oldest is None or key < oldest):
                oldest = key
                oldest_flit = flit
        if oldest_flit is not None:
            birth = oldest[0] if oldest is not None else 0
            packet = oldest_flit.packet
            self._fail(
                "starvation",
                f"flit of packet {packet.pid} ({packet.src} -> "
                f"{packet.dst}) injected at cycle {birth} still in "
                f"flight after {now - birth} cycles "
                f"(max_flit_age {self.max_flit_age}) — livelock, "
                f"deadlock or arbitration starvation")
