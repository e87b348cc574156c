"""The network: routers + NIs wired over a mesh, advanced cycle by cycle.

Per-cycle sequencing (all effects of cycle *t* become visible at *t+1*):

1. deliver flits sent at *t-1* into router buffers / NI ejection;
2. run traffic generation;
3. each busy NI takes one turn: it finishes its due decodes and emits at
   most one flit; the cycle's emitted flits then enter their routers' local
   ports as one batch;
4. routers run RC/VA/SA and traverse winning flits (departures are queued
   for delivery at *t+1*; credits are collected);
5. credits collected in (4) are applied, becoming usable at *t+1*.

:meth:`Network.run` and :meth:`Network.drain` step every cycle
(DESIGN.md §12).
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, List, Optional, Tuple

from repro.compression.base import CompressionScheme
from repro.noc.config import NocConfig
from repro.noc.ni import NetworkInterface, TrafficRequest
from repro.noc.packet import Flit
from repro.noc.router import Router
from repro.noc.routing import get_routing_fn
from repro.noc.stats import NetworkStats
from repro.noc.topology import MeshTopology, NUM_DIRECTIONS

#: Effectively infinite credit for ejection ports: the NI sink never
#: backpressures (decode bandwidth is provisioned, §4.3).
EJECTION_CREDITS = 1 << 30

#: Opposite cardinal direction per input port (N<->S, E<->W), used when
#: returning credits upstream.  Hoisted out of the per-credit hot loop.
OPPOSITE_PORT = (2, 3, 0, 1)

class Network:
    """A complete simulated NoC under one compression scheme."""

    def __init__(self, config: NocConfig, scheme: CompressionScheme,
                 routing: str = "xy",
                 on_deliver: Optional[Callable] = None,
                 router_factory: Optional[Callable[..., Router]] = None):
        if scheme.n_nodes != config.n_nodes:
            raise ValueError(
                f"scheme built for {scheme.n_nodes} nodes but the network "
                f"has {config.n_nodes}")
        # Static verification gate: prove the (config, routing) pair
        # deadlock-free and internally consistent before building anything.
        # Imported lazily — repro.verify imports repro.noc modules at import
        # time, so a module-level import here would be circular.
        from repro.verify.static import ensure_network_verified
        ensure_network_verified(config, routing)
        self.config = config
        self.scheme = scheme
        self.topology = MeshTopology(config)
        self.stats = NetworkStats()
        self._route = get_routing_fn(routing)
        self.cycle = 0
        # Core selection (DESIGN.md §14): the batched struct-of-arrays core
        # is the default; custom router classes (router_factory) require
        # per-object routers, so they force the object core.
        core_kind = config.core if router_factory is None else "object"
        self._core = None
        if core_kind != "object":
            from repro.noc.core_soa import SoaCore
            self._core = SoaCore(config, self.topology, self.stats,
                                 self._route)
            self.routers = self._core.routers
        else:
            make_router = (router_factory if router_factory is not None
                           else Router)
            self.routers = [
                make_router(r, self.topology.ports_per_router,
                            config.num_vcs, config.vc_depth,
                            config.router_stages, self.stats)
                for r in range(config.n_routers)]
        for router in self.routers:
            for port in range(NUM_DIRECTIONS, self.topology.ports_per_router):
                router.set_output_credits(port, EJECTION_CREDITS)
        topology = self.topology
        self.nis = [
            NetworkInterface(node, scheme, config.num_vcs, config.vc_depth,
                             self.stats,
                             topology.input_slot(topology.router_of(node),
                                                 topology.local_port_of(node)),
                             flit_bytes=config.flit_bytes,
                             on_deliver=on_deliver,
                             overlap_compression=config.overlap_compression)
            for node in range(config.n_nodes)]
        self.traffic_source = None
        # (flat input slot, flit) link arrivals due next cycle.
        self._pending_router_arrivals: List[Tuple[int, Flit]] = []
        # (node, flit) ejections due next cycle.  Only tail flits are
        # queued: NetworkInterface.eject ignores the rest (reassembly is
        # implicit), and NoCSan counts every ejection in its send wrapper.
        self._pending_ejections: List[Tuple[int, Flit]] = []
        # (router, port, vc) credits to apply at end of cycle.
        self._credit_events: List[Tuple[int, int, int]] = []
        # (flat input slot, flit) injections emitted by this cycle's NI pass.
        self._injections: List[Tuple[int, Flit]] = []
        # Active-NI fast path (mirrors the router ``_buffered`` skip): an NI
        # with nothing queued, in flight or decoding is skipped entirely in
        # :meth:`step`.  Flags are raised on submit/eject and lowered once
        # the NI reports idle again.
        self._ni_active = [False] * config.n_nodes
        # Activity accounting behind idle(): _busy_ni_count tracks the
        # raised _ni_active flags, _buffered_total the flits held in router
        # buffers network-wide; both are O(1)-maintained so idle() never
        # rescans the mesh (NoCSan recounts them every sanitized cycle).
        self._busy_ni_count = 0
        self._buffered_total = 0
        self._profile = config.profile_phases
        # Fault-injection layer (DESIGN.md §13).  Built before the send
        # closures and the sanitizer: both specialize on it.  An all-zero
        # FaultConfig constructs the injector (so the plumbing is always
        # exercised) but arms no hook — the hot paths compile to exactly
        # the faults=None closures and the run is bit-identical.
        self._faults = None
        if config.faults is not None:
            from repro.faults.inject import FaultInjector
            self._faults = FaultInjector(config.faults, config,
                                         self.topology)
        self._fault_tick = (self._faults is not None
                            and self._faults.needs_tick)
        # Credit destination per (router, input port): the attached NI for
        # local ports, the upstream router + opposite port otherwise.
        # Precomputed so _apply_credits does no topology lookups.
        self._credit_targets: List[List[Optional[Tuple]]] = [
            [self._credit_target(r, p)
             for p in range(self.topology.ports_per_router)]
            for r in range(config.n_routers)]
        self._route_fns = [self._make_route_fn(r)
                           for r in range(config.n_routers)]
        self._send_fns = [self._make_send_fn(r)
                          for r in range(config.n_routers)]
        self._credit_fns = [self._make_credit_fn(r)
                            for r in range(config.n_routers)]
        if self._faults is not None:
            for ni in self.nis:
                ni.attach_fault_layer(self._faults)
            if self._faults.recovery is not None:
                self._faults.recovery.bind(self)
        # NoCSan: when enabled, route every callback through the sanitizer.
        # When disabled, the fast path above is untouched (zero-cost
        # opt-out).  Lazy import for the same cycle reason as above.
        from repro.verify.sanitizer import sanitize_enabled
        self._sanitizer = None
        if sanitize_enabled(config):
            from repro.verify.sanitizer import NocSanitizer
            sanitizer = NocSanitizer(self)
            self._sanitizer = sanitizer
            self._send_fns = [sanitizer.wrap_send(r, fn)
                              for r, fn in enumerate(self._send_fns)]
            self._credit_fns = [sanitizer.wrap_credit(r, fn)
                                for r, fn in enumerate(self._credit_fns)]
            for ni in self.nis:
                ni.on_deliver = sanitizer.wrap_deliver(ni.node_id,
                                                       ni.on_deliver)
        # Bind last: the core specializes on the final (possibly wrapped)
        # callback tables and on whether link faults need per-flit hooks.
        if self._core is not None:
            self._core.bind(self)

    # -------------------------------------------------------------- wiring

    def _make_route_fn(self, router_id: int):
        topology = self.topology
        route = self._route

        def route_fn(flit: Flit) -> int:
            return route(topology, router_id, flit.packet.dst)

        return route_fn

    def _credit_target(self, rid: int, in_port: int) -> Optional[Tuple]:
        """``(True, node)`` for local ports, ``(False, upstream, port)`` for
        linked directions, None at mesh edges (unreachable by wiring)."""
        if in_port >= NUM_DIRECTIONS:
            return (True, self.topology.node_at(rid, in_port))
        upstream = self.topology.neighbor(rid, in_port)
        if upstream is None:
            return None
        return (False, upstream, OPPOSITE_PORT[in_port])

    def _make_send_fn(self, rid: int):
        topology = self.topology
        stats = self.stats
        # Per-port destination, resolved once (MeshTopology.send_target).
        targets = [topology.send_target(rid, port)
                   for port in range(topology.ports_per_router)]

        faults = self._faults
        if faults is None or not faults.affects_links:
            # Hot path: no link fault model armed — no per-flit overhead.
            def send(out_port: int, out_vc: int, flit: Flit) -> None:
                self._buffered_total -= 1
                target = targets[out_port]
                if target >= 0:
                    stats.link_traversals += 1
                    self._pending_router_arrivals.append(
                        (target + out_vc, flit))
                elif flit.is_tail:
                    self._pending_ejections.append((-1 - target, flit))

            return send

        def send_faulty(out_port: int, out_vc: int, flit: Flit) -> None:
            self._buffered_total -= 1
            target = targets[out_port]
            if target >= 0:
                if faults.on_link_traversal(rid, out_port, out_vc, flit,
                                            self.cycle):
                    # Dropped mid-link: the flit never arrives and the
                    # spent credit leaks (ledgered for the watchdog).
                    sanitizer = self._sanitizer
                    if sanitizer is not None and sanitizer.fault_tolerant:
                        sanitizer.note_drop(flit)
                    return
                stats.link_traversals += 1
                self._pending_router_arrivals.append((target + out_vc, flit))
            elif flit.is_tail:
                self._pending_ejections.append((-1 - target, flit))

        return send_faulty

    def _make_credit_fn(self, rid: int):
        events = self._credit_events

        def credit(in_port: int, in_vc: int) -> None:
            events.append((rid, in_port, in_vc))

        return credit

    def set_traffic(self, source) -> None:
        """Attach a traffic source (``generate(cycle) -> [TrafficRequest]``)."""
        self.traffic_source = source

    def submit(self, request: TrafficRequest):
        """Directly enqueue one request at its source NI (trace replay and
        cache-simulator driven modes use this).  Returns the queued
        packet."""
        packet = self.nis[request.src].submit(request, self.cycle)
        if not self._ni_active[request.src]:
            self._ni_active[request.src] = True
            self._busy_ni_count += 1
        return packet

    # ---------------------------------------------------------- main loop

    def step(self) -> None:
        """Advance the network by one cycle."""
        now = self.cycle
        if self._fault_tick:
            # Credit watchdog (fires on its period when losses are
            # outstanding).  Runs before anything else so restored credits
            # are usable this very cycle.
            self._faults.begin_cycle(now, self)
        profile = self._profile
        if profile and (self._pending_router_arrivals
                        or self._pending_ejections):
            self.stats.deliver_phase_ticks += 1
        self._deliver_arrivals(now)
        active = self._ni_active
        if self.traffic_source is not None:
            requests = self.traffic_source.generate(now)
            if profile and requests:
                self.stats.traffic_phase_ticks += 1
            for request in requests:
                self.nis[request.src].submit(request, now)
                if not active[request.src]:
                    active[request.src] = True
                    self._busy_ni_count += 1
        # Only NIs with queued, in-flight or decoding work take their turn
        # (one inject() call each, in node order); idle ones are skipped
        # (analogous to the router _buffered skip).  NIs never interact
        # with each other within a cycle, and no turn reads router state,
        # so buffering the emitted flits after the pass is unobservable.
        if profile and self._busy_ni_count:
            self.stats.ni_phase_ticks += 1
        nis = self.nis
        injections = self._injections
        emit = injections.append
        # compress() reads each flag lazily, when the pass reaches it.
        for node in compress(range(len(nis)), active):
            if not nis[node].inject(now, emit):
                active[node] = False
                self._busy_ni_count -= 1
        if injections:
            self._accept_injections(now)
        if profile and self._buffered_total:
            self.stats.router_phase_ticks += 1
        self._cycle_routers(now)
        if profile and self._credit_events:
            self.stats.credit_phase_ticks += 1
        self._apply_credits()
        if self._sanitizer is not None:
            self._sanitizer.after_cycle(now)
        self.cycle += 1
        self.stats.cycles += 1

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` simulated cycles."""
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 100_000) -> bool:
        """Run with traffic off until the network is empty.

        Returns True when fully drained, False on the cycle budget expiring
        (which a test would treat as a deadlock).
        """
        saved = self.traffic_source
        self.traffic_source = None
        try:
            for _ in range(max_cycles):
                if self.idle():
                    return True
                self.step()
            return self.idle()
        finally:
            self.traffic_source = saved

    def idle(self) -> bool:
        """No flit buffered, in flight, queued or pending anywhere.

        O(1): reads the activity counters instead of rescanning every
        router and NI (NoCSan cross-checks them every sanitized cycle)."""
        return (self._buffered_total == 0
                and self._busy_ni_count == 0
                and not self._pending_router_arrivals
                and not self._pending_ejections)

    # ------------------------------------------------------------ phases

    def _deliver_arrivals(self, now: int) -> None:
        router_arrivals = self._pending_router_arrivals
        ejections = self._pending_ejections
        self._pending_router_arrivals = []
        self._pending_ejections = []
        self._buffered_total += len(router_arrivals)
        if router_arrivals:
            self._buffer_flits(router_arrivals, now)
        active = self._ni_active
        for node, flit in ejections:
            self.nis[node].eject(flit, now)
            if not active[node]:
                active[node] = True
                self._busy_ni_count += 1

    def _accept_injections(self, now: int) -> None:
        """Buffer the NI pass's packed ``(slot, flit)`` injections in the
        routers' local ports, in emission order: one batched core call, as
        for link arrivals.  NoCSan records the flit births first."""
        injections = self._injections
        self._buffered_total += len(injections)
        if self._sanitizer is not None:
            self._sanitizer.record_injections(injections, now)
        self._buffer_flits(injections, now)
        injections.clear()

    def _buffer_flits(self, batch: List[Tuple[int, Flit]], now: int) -> None:
        """Buffer packed ``(input slot, flit)`` pairs in their routers."""
        core = self._core
        if core is not None:
            core.accept_arrivals(batch, now)
            return
        routers = self.routers
        slot_coords = self.topology.slot_coords
        for slot, flit in batch:
            rid, port, vc = slot_coords(slot)
            routers[rid].accept(port, vc, flit, now)

    def _cycle_routers(self, now: int) -> None:
        core = self._core
        if core is not None:
            core.cycle_all(now, self._faults)
            return
        faults = self._faults
        if faults is not None and faults.affects_routers:
            for router in self.routers:
                rid = router.router_id
                if faults.router_dead(rid, now):
                    # Fail-stop window: no pipeline stage runs, buffered
                    # flits freeze (arrivals are still accepted — the
                    # buffers themselves are not the failed logic).
                    continue
                # repro: allow[router-surface-parity] object-router pipeline:
                # guarded by _core is None, SoaRouter views never reach here
                router.cycle(now, self._route_fns[rid], self._send_fns[rid],
                             self._credit_fns[rid])
            return
        for router in self.routers:
            rid = router.router_id
            # repro: allow[router-surface-parity] object-router pipeline:
            # guarded by _core is None, SoaRouter views never reach here
            router.cycle(now, self._route_fns[rid], self._send_fns[rid],
                         self._credit_fns[rid])

    def _apply_credits(self) -> None:
        events = self._credit_events
        if not events:
            return
        core = self._core
        if core is not None:
            core.apply_credits(events, self.nis, self._credit_targets,
                               self._faults)
            return
        targets = self._credit_targets
        nis = self.nis
        routers = self.routers
        faults = self._faults
        swallow = faults is not None and faults.affects_credits
        for rid, in_port, vc in events:
            target = targets[rid][in_port]
            if target is None:  # pragma: no cover - impossible by wiring
                continue
            if swallow and faults.swallow_credit(rid, in_port, vc, target):
                continue  # credit message lost in transit (ledgered)
            if target[0]:  # local port: credit the attached NI
                nis[target[1]].credit(vc)
            else:
                routers[target[1]].credit_return(target[2], vc)
        del events[:]
