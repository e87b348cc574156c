"""Struct-of-arrays simulation core: batched per-cycle router stepping.

The object core (:class:`repro.noc.router.Router`) models each router as an
object holding nested per-port/per-VC containers, and the network calls
three methods per buffered router per cycle.  At saturated load that method
dispatch plus the per-slot attribute chasing dominates the run.  This module
keeps *all* router hot state in flat arrays indexed by

    ``g = router * S + port * num_vcs + vc``   with ``S = ports * num_vcs``

and advances every router in one batched pass (:meth:`SoaCore.cycle_all`)
with zero per-flit Python method calls on the fast path.  The observable
behaviour is bit-identical to the object core — same ``simulation_outputs``,
delivered word streams and stats — which the cross-core identity suite
locks (see DESIGN.md §14 for the per-state-class argument).

Four things make the batched pass faster than a straight transliteration:

* **VA pending set** — the object core's VA stage rescans every occupied
  slot each cycle (sorting them with a lambda key) even though most heads
  already own an output VC.  ``va_pending[rid]`` holds exactly the slots
  whose head-of-line flit still needs VC allocation; the rotated visiting
  order over that subset equals the object core's rotated full scan with
  the ineligible slots skipped, so the allocation decisions are identical.
* **``head_ready`` array + ``min_ready`` bound** — ``head_ready[g]`` caches
  ``buffer[0].ready_at`` (``_INF`` when empty).  ``min_ready[rid]`` is a
  conservative lower bound on the earliest cycle any head of router ``rid``
  can win switch allocation: while ``min_ready[rid] > now`` the SA scan is
  skipped outright.  A stale-low bound only costs a scan that finds
  nothing; every event that could make a head eligible lowers the bound
  (accept, VA grant, a credit count leaving zero, a non-empty request
  round), so the bound is never stale-high and outcomes never change —
  a scan that would have been skipped produces no requests, and an SA pass
  with no requests mutates nothing (``_port_rr`` advances only on
  requests).
* **Inline send/credit/stats** — with no sanitizer and no link-fault model
  armed, departures append straight to the network's pending lists and
  stats are batched per call instead of incremented per flit.  With
  either armed, the per-router closures are used unchanged, so NoCSan
  wrapping and fault models compose exactly as with the object core.
* **Batched arrivals** — :meth:`SoaCore.accept_arrivals` buffers packed
  ``(g, flit)`` pairs, ``g`` the topology's flat input slot: each cycle's
  link arrivals and, in a second call, the NI pass's injections.

:class:`SoaRouter` is a thin per-router view over the core arrays exposing
the object-core surface the rest of the repo relies on (``accept``,
``credit_return``, ``audit``, ``_buffered``, ``inputs``/``out_credits``
for tests and the sanitizer), so ``network.routers`` keeps working
regardless of the selected core.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import List, Optional, Tuple

from repro.noc.config import NocConfig
from repro.noc.packet import Flit
from repro.noc.stats import NetworkStats
from repro.noc.topology import MeshTopology, NUM_DIRECTIONS

#: "No head flit buffered" sentinel in ``head_ready`` — far above any
#: reachable simulated cycle, so min-reductions need no None handling.
_INF = 1 << 60


class SoaCore:
    """Flat-array state + batched per-cycle stepping for every router.

    All mutable simulation state lives in the arrays below; the
    :class:`SoaRouter` views in :attr:`routers` hold no state of their own.
    """

    def __init__(self, config: NocConfig, topology: MeshTopology,
                 stats: NetworkStats, route):
        R = config.n_routers
        P = topology.ports_per_router
        V = config.num_vcs
        # Slot state is indexed by the topology's flat input-slot layout.
        S = topology.slots_per_router
        self.n_routers = R
        self.n_ports = P
        self.num_vcs = V
        self.vc_depth = config.vc_depth
        self.pipe_delay = max(config.router_stages - 1, 0)
        self.slots = S
        self.stats = stats
        # --- per-(router, port, vc) slot state, flat over g = r*S + p*V + v
        self.bufs: List[deque] = [deque() for _ in range(R * S)]
        self.head_ready: List[int] = [_INF] * (R * S)
        self.route_out: List[int] = [-1] * (R * S)
        self.out_vc: List[int] = [-1] * (R * S)
        # --- per-(router, out port, out vc) state (same index space: S=P*V)
        self.out_credits: List[int] = [config.vc_depth] * (R * S)
        self.out_owner: List[int] = [-1] * (R * S)
        #: Flat out-credit index of the held output VC (``base + r*V +
        #: out_vc``); valid iff ``out_vc[g] >= 0``.  Pure cache: saves two
        #: loads and two multiplies per SA visit of every candidate.
        self.out_idx: List[int] = [0] * (R * S)
        #: Unowned output VCs per (router, out port): VA skips pending
        #: heads whose whole out port is owned without scanning its VCs
        #: (the object core re-scans them every cycle).
        self.free_out_vcs: List[int] = [config.num_vcs] * (R * P)
        #: Input slot parked on out-credit index ``oc`` (-1 = none): a
        #: switch-allocation candidate observed credit-blocked is moved
        #: here and revived on the 0->1 credit transition, instead of
        #: being rescanned every cycle while the downstream VC is full.
        self.credit_waiter: List[int] = [-1] * (R * S)
        #: Pending heads parked per (router, out port) while the port has
        #: no free output VC; revived in bulk when a tail releases one.
        self.va_waiters: List[List[int]] = [[] for _ in range(R * P)]
        # --- per-(router, port) arbiters, flat over r*P + p
        self.va_rr: List[int] = [0] * (R * P)
        self.sa_rr: List[int] = [0] * (R * P)
        # --- per-router state
        self.port_rr: List[int] = [0] * R
        self.va_input_rr: List[int] = [0] * R
        self.buffered: List[int] = [0] * R
        #: Routers with any buffered flit, pruned lazily by ``cycle_all``:
        #: idle routers cost nothing per cycle (the object core steps all
        #: of them).  May briefly hold a drained router until its next
        #: visit discards it — a stale entry is skipped, never acted on.
        self.active: set = set()
        #: Slots whose head-of-line flit is a head awaiting VC allocation.
        self.va_pending: List[set] = [set() for _ in range(R)]
        #: Slots holding an allocated output VC (switch-allocation
        #: candidates).  Disjoint from ``va_pending``; their union is the
        #: object core's ``_occupied`` minus empty held-VC slots.
        self.sa_cand: List[set] = [set() for _ in range(R)]
        #: Conservative lower bound on the earliest cycle any head of this
        #: router can win SA (0 = must scan).  Advisory only: staleness
        #: costs scans, never correctness (see module docstring).
        self.min_ready: List[int] = [0] * R
        # --- static routing / wiring tables
        n_nodes = topology.n_nodes
        self.route_table: List[List[int]] = [
            [route(topology, rid, dst) for dst in range(n_nodes)]
            for rid in range(R)]
        #: SA scratch: per-out-port request lists, reused across routers
        #: (always empty between cycles; avoids a dict + sort per router).
        self._req_lists: List[List[int]] = [[] for _ in range(P)]
        # Scratch lists reused by cycle_all (cleared after each use) so
        # the hot path allocates nothing per router visit.
        self._scratch_elig: List[int] = []
        self._scratch_parked: List[int] = []
        # Packed send target per (rid, out port), flat over rid*P + port
        # (MeshTopology.send_target).
        send_targets = [topology.send_target(rid, port)
                        for rid in range(R) for port in range(P)]
        # Credit destination per (rid, in port): (1, node) for local ports,
        # (2, upstream_base) for linked directions (flat index base of the
        # upstream router's out-credit row), (0, 0) at mesh edges.
        credit_dests: List[Tuple[int, int]] = []
        from repro.noc.network import OPPOSITE_PORT
        for rid in range(R):
            for port in range(P):
                if port >= NUM_DIRECTIONS:
                    credit_dests.append((1, topology.node_at(rid, port)))
                else:
                    upstream = topology.neighbor(rid, port)
                    if upstream is None:
                        credit_dests.append((0, 0))
                    else:
                        credit_dests.append(
                            (2, topology.input_slot(
                                upstream, OPPOSITE_PORT[port])))
        self.send_targets = send_targets
        self.credit_dests = credit_dests
        self.routers: List[SoaRouter] = [SoaRouter(self, rid)
                                         for rid in range(R)]
        # Bound by Network after closure construction (None => inline fast
        # path for that callback class).
        self.net = None
        self.send_fns = None
        self.credit_fns = None

    # ------------------------------------------------------------- wiring

    def bind(self, network) -> None:
        """Attach the owning network and pick inline vs closure paths.

        Called once, after the network finished building (and possibly
        sanitizer-wrapping) its callback tables: sends stay inline only
        when nothing needs to observe them per-flit.
        """
        self.net = network
        faults = network._faults
        inline_send = (network._sanitizer is None
                       and (faults is None or not faults.affects_links))
        self.send_fns = None if inline_send else network._send_fns
        self.credit_fns = (None if network._sanitizer is None
                           else network._credit_fns)

    # ------------------------------------------------------------ ingress

    def accept(self, rid: int, port: int, vc: int, flit: Flit,
               now: int) -> None:
        """Buffer one arriving flit (identical semantics to
        ``Router.accept``, including the overflow check)."""
        g = rid * self.slots + port * self.num_vcs + vc
        buf = self.bufs[g]
        if len(buf) >= self.vc_depth:
            raise RuntimeError(
                f"router {rid} port {port} vc {vc}: buffer "
                f"overflow — upstream violated credit flow control")
        ready = now + self.pipe_delay
        flit.ready_at = ready
        if not buf:
            self.head_ready[g] = ready
            slot = port * self.num_vcs + vc
            if flit.is_head:
                self.va_pending[rid].add(slot)
                # Route the head now (deterministic, so computing it at
                # buffer entry instead of in the VA stage is unobservable):
                # VA's port-busy filter needs it before the first visit.
                self.route_out[g] = self.route_table[rid][flit.packet.dst]
            elif self.out_vc[g] >= 0:
                # Body flit landing in a held output VC: SA-eligible once
                # the pipeline delay elapses.
                self.sa_cand[rid].add(slot)
                if ready < self.min_ready[rid]:
                    self.min_ready[rid] = ready
            # else: protocol violation (body without a held VC) — kept
            # buffered and inert, exactly like the object core; the
            # sanitizer's audit flags it.
        buf.append(flit)
        if not self.buffered[rid]:
            self.active.add(rid)
        self.buffered[rid] += 1
        self.stats.buffer_writes += 1

    def accept_arrivals(self, arrivals: List[tuple], now: int) -> None:
        """Batched ``accept`` of packed ``(g, flit)`` pairs, ``g`` the
        flat input slot: one cycle's link arrivals (every send path folds
        the slot into its target table) or the NI pass's injections (each
        NI knows its local-port slot base).
        """
        bufs = self.bufs
        head_ready = self.head_ready
        route_out = self.route_out
        out_vc = self.out_vc
        va_pending = self.va_pending
        sa_cand = self.sa_cand
        min_ready = self.min_ready
        route_table = self.route_table
        buffered = self.buffered
        active_add = self.active.add
        depth = self.vc_depth
        S = self.slots
        ready = now + self.pipe_delay
        for g, flit in arrivals:
            buf = bufs[g]
            if len(buf) >= depth:
                rid, slot = divmod(g, S)
                port, vc = divmod(slot, self.num_vcs)
                raise RuntimeError(
                    f"router {rid} port {port} vc {vc}: buffer "
                    f"overflow — upstream violated credit flow control")
            flit.ready_at = ready
            rid, slot = divmod(g, S)
            if not buf:
                head_ready[g] = ready
                if flit.is_head:
                    va_pending[rid].add(slot)
                    route_out[g] = route_table[rid][flit.packet.dst]
                elif out_vc[g] >= 0:
                    sa_cand[rid].add(slot)
                    if ready < min_ready[rid]:
                        min_ready[rid] = ready
            buf.append(flit)
            if not buffered[rid]:
                active_add(rid)
            buffered[rid] += 1
        self.stats.buffer_writes += len(arrivals)

    def set_output_credits(self, rid: int, port: int, credits: int) -> None:
        """Resize one output port's credit pool (ejection-port sentinel)."""
        base = rid * self.slots + port * self.num_vcs
        for vc in range(self.num_vcs):
            idx = base + vc
            self.out_credits[idx] = credits
            if credits > 0:
                self._revive_credit_waiter(idx)

    def credit_return(self, rid: int, port: int, vc: int) -> None:
        """A downstream buffer slot freed up (recovery resync path; the
        per-cycle bulk goes through :meth:`apply_credits`)."""
        idx = rid * self.slots + port * self.num_vcs + vc
        if self.out_credits[idx] == 0:
            self.min_ready[rid] = 0
            self._revive_credit_waiter(idx)
        self.out_credits[idx] += 1

    def _revive_credit_waiter(self, idx: int) -> None:
        """Un-park the input slot blocked on out-credit index ``idx``."""
        slot = self.credit_waiter[idx]
        if slot >= 0:
            self.credit_waiter[idx] = -1
            self.sa_cand[idx // self.slots].add(slot)

    # ---------------------------------------------------------- main loop

    def cycle_all(self, now: int, faults) -> None:
        """Run VA + SA/ST for every buffered router, in router order.

        Bit-identity with the per-object loop follows from processing
        routers in ascending id (so pending-arrival/credit-event append
        order matches) and, within a router, replicating the object core's
        stage order and arbiter updates exactly.
        """
        V = self.num_vcs
        S = self.slots
        P = self.n_ports
        pmask = (1 << P) - 1
        bufs = self.bufs
        head_ready = self.head_ready
        route_out = self.route_out
        out_vc = self.out_vc
        out_credits = self.out_credits
        out_owner = self.out_owner
        out_idx = self.out_idx
        free_out_vcs = self.free_out_vcs
        credit_waiter = self.credit_waiter
        va_waiters = self.va_waiters
        buffered = self.buffered
        va_rr = self.va_rr
        sa_rr = self.sa_rr
        port_rr = self.port_rr
        va_input_rr = self.va_input_rr
        va_pending = self.va_pending
        sa_cand = self.sa_cand
        min_ready = self.min_ready
        route_table = self.route_table
        req_lists = self._req_lists
        scratch_elig = self._scratch_elig
        scratch_parked = self._scratch_parked
        net = self.net
        send_fns = self.send_fns
        credit_fns = self.credit_fns
        inline_send = send_fns is None
        inline_credit = credit_fns is None
        if inline_send:
            targets = self.send_targets
            arrivals_append = net._pending_router_arrivals.append
            eject_append = net._pending_ejections.append
        if inline_credit:
            credit_append = net._credit_events.append
        dead = None
        if faults is not None and faults.affects_routers:
            dead = faults.router_dead
        reads = 0
        allocs = 0
        links = 0
        sends = 0
        active = self.active
        for rid in sorted(active):  # ascending rid, as the object core
            if not buffered[rid]:
                active.discard(rid)  # drained since its last visit
                continue
            if dead is not None and dead(rid, now):
                continue
            base = rid * S
            pbase = rid * P
            # ---- stage 1: route computation + VC allocation
            rotate = va_input_rr[rid]
            nxt_rot = rotate + V
            va_input_rr[rid] = nxt_rot - S if nxt_rot >= S else nxt_rot
            pend = va_pending[rid]
            if pend:
                # Heads whose whole out port is owned cannot be granted
                # and grant nothing to others, so parking them (revived
                # when a tail frees a VC of that port) leaves the rotated
                # visiting order over the rest — and therefore every
                # allocation decision — unchanged.
                elig = scratch_elig
                parked = scratch_parked
                for slot in pend:  # repro: allow[unordered-iter]
                    g = base + slot
                    r = route_out[g]
                    if r < 0:  # defensive: head queued without a route
                        r = route_table[rid][bufs[g][0].packet.dst]
                        route_out[g] = r
                    if free_out_vcs[pbase + r]:
                        elig.append(slot)
                    else:
                        va_waiters[pbase + r].append(slot)
                        parked.append(slot)
                if parked:
                    for slot in parked:
                        pend.discard(slot)
                    del parked[:]
                if elig:
                    # Rotated round-robin order without a per-visit key
                    # lambda: slots are distinct, so ascending order
                    # split at the rotation point equals ranking by
                    # (slot - rotate) % S.
                    n_elig = len(elig)
                    split = 0
                    if n_elig > 1:
                        elig.sort()
                        split = bisect_left(elig, rotate)
                    for k in range(n_elig):
                        i = split + k
                        slot = elig[i - n_elig] if i >= n_elig else elig[i]
                        g = base + slot
                        r = route_out[g]
                        ob = base + r * V
                        start = va_rr[pbase + r]
                        for j in range(V):
                            cand = start + j
                            if cand >= V:
                                cand -= V
                            if out_owner[ob + cand] < 0:
                                out_owner[ob + cand] = slot
                                out_vc[g] = cand
                                out_idx[g] = ob + cand
                                free_out_vcs[pbase + r] -= 1
                                va_rr[pbase + r] = 0 if cand + 1 >= V \
                                    else cand + 1
                                allocs += 1
                                pend.discard(slot)
                                sa_cand[rid].add(slot)
                                ready = head_ready[g]
                                if ready < min_ready[rid]:
                                    min_ready[rid] = ready
                                break
                    del elig[:]
            # ---- stages 2+3: switch allocation + traversal
            if dead is None and min_ready[rid] > now:
                continue  # provably nothing SA-eligible this cycle
            cands = sa_cand[rid]
            if not cands:
                min_ready[rid] = _INF
                continue
            if len(cands) == 1:
                # Solo-candidate fast path: one granted VC streaming through
                # an otherwise idle switch is the common case at load.  With
                # a single requester the request-list/port-rotation/crossbar
                # machinery cannot change any outcome, so collapse SA to a
                # straight-line grant + the same inlined traversal below.
                for slot in cands:  # repro: allow[unordered-iter]
                    break
                g = base + slot
                ready = head_ready[g]
                if ready > now:
                    min_ready[rid] = ready
                    continue
                oc = out_idx[g]
                if out_credits[oc] <= 0:
                    credit_waiter[oc] = slot
                    cands.discard(slot)
                    min_ready[rid] = _INF
                    continue
                min_ready[rid] = now + 1
                prr = port_rr[rid]
                port_rr[rid] = 0 if prr + 1 >= P else prr + 1
                out_port = route_out[g]
                sa_rr[pbase + out_port] = 0 if slot + 1 >= S else slot + 1
                buf = bufs[g]
                flit = buf.popleft()
                buffered[rid] -= 1
                ovc = out_vc[g]
                out_credits[oc] -= 1
                reads += 1
                released = False
                if buf:
                    head_ready[g] = buf[0].ready_at
                    if flit.is_tail:
                        out_owner[oc] = -1
                        out_vc[g] = -1
                        released = True
                        cands.discard(slot)
                        nxt = buf[0]
                        if nxt.is_head:
                            va_pending[rid].add(slot)
                            route_out[g] = route_table[rid][nxt.packet.dst]
                        else:
                            route_out[g] = -1
                else:
                    head_ready[g] = _INF
                    cands.discard(slot)
                    if flit.is_tail:
                        out_owner[oc] = -1
                        route_out[g] = -1
                        out_vc[g] = -1
                        released = True
                if released:
                    free_out_vcs[pbase + out_port] += 1
                    waiters = va_waiters[pbase + out_port]
                    if waiters:
                        pend.update(waiters)
                        del waiters[:]
                if inline_credit:
                    credit_append(base + slot)
                else:
                    credit_fns[rid](slot // V, slot % V)
                if inline_send:
                    sends += 1
                    t = targets[pbase + out_port]
                    if t >= 0:
                        links += 1
                        # Payload tuple: the communicated datum itself.
                        # repro: allow[hot-alloc]
                        arrivals_append((t + ovc, flit))
                    elif flit.is_tail:
                        # Only a tail does anything at the ejecting NI.
                        # repro: allow[hot-alloc]
                        eject_append((-1 - t, flit))
                else:
                    send_fns[rid](out_port, ovc, flit)
                continue
            req_mask = 0
            bound = _INF
            parked = scratch_parked
            for slot in cands:  # repro: allow[unordered-iter]
                g = base + slot
                ready = head_ready[g]
                if ready > now:
                    if ready < bound:
                        bound = ready
                    continue
                oc = out_idx[g]
                if out_credits[oc] <= 0:
                    # Credit-blocked: park on the out-credit index instead
                    # of rescanning every cycle; the 0->1 apply revives.
                    credit_waiter[oc] = slot
                    parked.append(slot)
                    continue
                p = route_out[g]
                req_lists[p].append(slot)
                req_mask |= 1 << p
            if parked:
                for slot in parked:
                    cands.discard(slot)
                del parked[:]
            if not req_mask:
                min_ready[rid] = bound
                continue
            min_ready[rid] = now + 1 if now + 1 < bound else bound
            prr = port_rr[rid]
            port_rr[rid] = 0 if prr + 1 >= P else prr + 1
            granted_inputs = 0
            # Visit only the requested output ports, still in the rotated
            # (prr-first) order the object core uses: rotate the request
            # mask so bit 0 is port prr, then peel set bits ascending.
            m = (req_mask >> prr | req_mask << (P - prr)) & pmask
            while m:
                low = m & -m
                m ^= low
                out_port = low.bit_length() - 1 + prr
                if out_port >= P:
                    out_port -= P
                lst = req_lists[out_port]
                if len(lst) == 1:
                    # Uncontended port: the round-robin rank is irrelevant
                    # with one requester, so skip the rank scan.
                    winner = lst[0]
                    if granted_inputs >> (winner // V) & 1:
                        winner = -1
                else:
                    start = sa_rr[pbase + out_port]
                    winner = -1
                    best_rank = S
                    for slot in lst:
                        if granted_inputs >> (slot // V) & 1:
                            continue
                        rank = slot - start
                        if rank < 0:
                            rank += S
                        if rank < best_rank:
                            best_rank = rank
                            winner = slot
                del lst[:]
                if winner < 0:
                    continue
                in_port = winner // V
                granted_inputs |= 1 << in_port
                sa_rr[pbase + out_port] = 0 if winner + 1 >= S else winner + 1
                # ---- traversal (object core's _traverse, inlined)
                g = base + winner
                buf = bufs[g]
                flit = buf.popleft()
                buffered[rid] -= 1
                ovc = out_vc[g]
                oc = out_idx[g]
                out_credits[oc] -= 1
                reads += 1
                released = False
                if buf:
                    head_ready[g] = buf[0].ready_at
                    if flit.is_tail:
                        out_owner[oc] = -1
                        out_vc[g] = -1
                        released = True
                        cands.discard(winner)
                        nxt = buf[0]
                        if nxt.is_head:
                            va_pending[rid].add(winner)
                            route_out[g] = route_table[rid][nxt.packet.dst]
                        else:
                            # Malformed stream (body behind a tail): inert,
                            # exactly like the object core; audit flags it.
                            route_out[g] = -1
                else:
                    head_ready[g] = _INF
                    cands.discard(winner)
                    if flit.is_tail:
                        out_owner[oc] = -1
                        route_out[g] = -1
                        out_vc[g] = -1
                        released = True
                if released:
                    free_out_vcs[pbase + out_port] += 1
                    waiters = va_waiters[pbase + out_port]
                    if waiters:
                        # Heads parked on this out port become VA-visible
                        # again next cycle — exactly when the object core
                        # could first grant them the freed VC.
                        pend.update(waiters)
                        del waiters[:]
                if inline_credit:
                    credit_append(base + winner)
                else:
                    credit_fns[rid](in_port, winner - in_port * V)
                if inline_send:
                    sends += 1
                    t = targets[pbase + out_port]
                    if t >= 0:
                        links += 1
                        # Payload tuple: the communicated datum itself.
                        # repro: allow[hot-alloc]
                        arrivals_append((t + ovc, flit))
                    elif flit.is_tail:
                        # Only a tail does anything at the ejecting NI.
                        # repro: allow[hot-alloc]
                        eject_append((-1 - t, flit))
                else:
                    send_fns[rid](out_port, ovc, flit)
        stats = self.stats
        if reads:
            stats.buffer_reads += reads
            stats.crossbar_traversals += reads
        if allocs:
            stats.vc_allocations += allocs
        if inline_send and sends:
            stats.link_traversals += links
            net._buffered_total -= sends

    def apply_credits(self, events: List, nis, targets, faults) -> None:
        """Apply one cycle's collected credit events (network phase 5).

        With the sanitizer off the events are packed flat slot indices
        ``rid*S + port*V + vc`` appended by :meth:`cycle_all` (note
        ``e // V == rid*P + port``, the credit-destination index); with it
        on they are the network credit closures' ``(rid, port, vc)``
        tuples.
        """
        out_credits = self.out_credits
        min_ready = self.min_ready
        credit_waiter = self.credit_waiter
        sa_cand = self.sa_cand
        dests = self.credit_dests
        P = self.n_ports
        S = self.slots
        V = self.num_vcs
        swallow = faults is not None and faults.affects_credits
        if self.credit_fns is None:
            for e in events:
                vc = e % V
                kind, value = dests[e // V]
                if kind == 0:  # pragma: no cover - impossible by wiring
                    continue
                if swallow:
                    rid, rem = divmod(e, S)
                    in_port = rem // V
                    if faults.swallow_credit(rid, in_port, vc,
                                             targets[rid][in_port]):
                        continue  # credit lost in transit (ledgered)
                if kind == 1:
                    nis[value].credit(vc)
                else:
                    idx = value + vc
                    if out_credits[idx] == 0:
                        min_ready[idx // S] = 0
                        w = credit_waiter[idx]
                        if w >= 0:
                            credit_waiter[idx] = -1
                            sa_cand[idx // S].add(w)
                    out_credits[idx] += 1
            del events[:]
            return
        for rid, in_port, vc in events:
            kind, value = dests[rid * P + in_port]
            if kind == 0:  # pragma: no cover - impossible by wiring
                continue
            if swallow and faults.swallow_credit(rid, in_port, vc,
                                                 targets[rid][in_port]):
                continue  # credit message lost in transit (ledgered)
            if kind == 1:
                nis[value].credit(vc)
            else:
                idx = value + vc
                if out_credits[idx] == 0:
                    min_ready[idx // S] = 0
                    w = credit_waiter[idx]
                    if w >= 0:
                        credit_waiter[idx] = -1
                        sa_cand[idx // S].add(w)
                out_credits[idx] += 1
        del events[:]

    # -------------------------------------------------------- inspection

    def buffer_occupancy(self, rid: int, port: int, vc: int) -> int:
        """Flits buffered in one input VC."""
        return len(self.bufs[rid * self.slots + port * self.num_vcs + vc])

    def credit_count(self, rid: int, port: int, vc: int) -> int:
        """Current credit view of one output VC."""
        return self.out_credits[rid * self.slots + port * self.num_vcs + vc]

    def occupancy(self, rid: int) -> int:
        """Total flits buffered in one router."""
        base = rid * self.slots
        return sum(len(self.bufs[base + slot]) for slot in range(self.slots))

    def audit(self, rid: int) -> List[str]:
        """The object core's ``Router.audit`` invariants over the arrays,
        plus the SoA-specific caches (``head_ready``, the pending/candidate
        sets, the ``min_ready`` bound)."""
        violations: List[str] = []
        V = self.num_vcs
        S = self.slots
        base = rid * S
        pb = rid * self.n_ports
        recount = 0
        pend = self.va_pending[rid]
        cands = self.sa_cand[rid]
        now = self.net.cycle if self.net is not None else 0
        for slot in range(S):
            port, vc = slot // V, slot % V
            g = base + slot
            buf = self.bufs[g]
            n = len(buf)
            recount += n
            if n > self.vc_depth:
                violations.append(
                    f"input port {port} vc {vc}: {n} flits buffered, "
                    f"depth is {self.vc_depth}")
            ovc = self.out_vc[g]
            route = self.route_out[g]
            if n and not buf[0].is_head and ovc < 0:
                violations.append(
                    f"input port {port} vc {vc}: body flit at head of "
                    f"line without an allocated output VC")
            if ovc >= 0:
                if route < 0:
                    violations.append(
                        f"input port {port} vc {vc}: output VC {ovc} held "
                        f"without a computed route")
                elif self.out_owner[base + route * V + ovc] != slot:
                    owner = self.out_owner[base + route * V + ovc]
                    violations.append(
                        f"input port {port} vc {vc}: holds output VC "
                        f"{route}/{ovc} but ownership records "
                        f"{None if owner < 0 else divmod(owner, V)}")
                elif self.out_idx[g] != base + route * V + ovc:
                    violations.append(
                        f"input port {port} vc {vc}: out_idx cache "
                        f"{self.out_idx[g]} != held output VC index "
                        f"{base + route * V + ovc}")
            elif route >= 0 and (not n or not buf[0].is_head):
                violations.append(
                    f"input port {port} vc {vc}: route {route} computed "
                    f"but no head flit is waiting for VC allocation")
            expect_ready = buf[0].ready_at if n else _INF
            if self.head_ready[g] != expect_ready:
                violations.append(
                    f"input port {port} vc {vc}: head_ready cache "
                    f"{self.head_ready[g]} != head flit ready_at "
                    f"{expect_ready}")
            in_pend = slot in pend
            in_cand = slot in cands
            parked_pend = (ovc < 0 and route >= 0
                           and slot in self.va_waiters[pb + route])
            parked_cand = (ovc >= 0
                           and self.credit_waiter[self.out_idx[g]] == slot)
            want_pend = bool(n) and buf[0].is_head and ovc < 0
            want_cand = ovc >= 0 and bool(n)
            if (in_pend or parked_pend) != want_pend:
                violations.append(
                    f"input port {port} vc {vc}: va_pending/waiter caches "
                    f"disagree with buffer state")
            if in_pend and parked_pend:
                violations.append(
                    f"input port {port} vc {vc}: slot both active and "
                    f"parked for VC allocation")
            if (in_cand or parked_cand) != want_cand:
                violations.append(
                    f"input port {port} vc {vc}: sa_cand/credit-waiter "
                    f"caches disagree with buffer/VC state")
            if in_cand and parked_cand:
                violations.append(
                    f"input port {port} vc {vc}: slot both active and "
                    f"credit-parked for switch allocation")
            if in_pend and in_cand:
                violations.append(
                    f"input port {port} vc {vc}: slot in both va_pending "
                    f"and sa_cand")
            if (in_cand and n
                    and self.out_credits[base + route * V + ovc] > 0
                    and self.min_ready[rid]
                    > max(self.head_ready[g], now + 1)):
                violations.append(
                    f"input port {port} vc {vc}: min_ready bound "
                    f"{self.min_ready[rid]} above eligible head "
                    f"(ready_at {self.head_ready[g]}, cycle {now})")
        if recount != self.buffered[rid]:
            violations.append(
                f"buffered-flit cache {self.buffered[rid]} != recount "
                f"{recount}")
        if recount and rid not in self.active:
            violations.append(
                f"router buffers {recount} flits but is missing from the "
                f"active-router set")
        for slot in range(S):
            port, vc = slot // V, slot % V
            owner = self.out_owner[base + slot]
            if owner >= 0:
                g = base + owner
                if self.out_vc[g] != vc or self.route_out[g] != port:
                    violations.append(
                        f"output port {port} vc {vc}: owned by input "
                        f"{owner // V}/{owner % V} which holds route "
                        f"{self.route_out[g]} out_vc {self.out_vc[g]}")
            if self.out_credits[base + slot] < 0:
                violations.append(
                    f"output port {port} vc {vc}: negative credit "
                    f"count {self.out_credits[base + slot]}")
        for port in range(self.n_ports):
            ob = base + port * V
            unowned = sum(1 for v in range(V)
                          if self.out_owner[ob + v] < 0)
            if self.free_out_vcs[pb + port] != unowned:
                violations.append(
                    f"output port {port}: free-VC cache "
                    f"{self.free_out_vcs[pb + port]} != unowned recount "
                    f"{unowned}")
            if self.va_waiters[pb + port] and unowned:
                violations.append(
                    f"output port {port}: heads parked waiting for a VC "
                    f"while {unowned} VCs are free")
            for v in range(V):
                waiter = self.credit_waiter[ob + v]
                if waiter < 0:
                    continue
                wg = base + waiter
                if self.out_credits[ob + v] != 0:
                    violations.append(
                        f"output port {port} vc {v}: slot parked on "
                        f"credits but {self.out_credits[ob + v]} credits "
                        f"are available")
                if self.out_vc[wg] < 0 or self.out_idx[wg] != ob + v:
                    violations.append(
                        f"output port {port} vc {v}: credit-parked slot "
                        f"{waiter // V}/{waiter % V} does not hold this "
                        f"output VC")
        return violations


class _InputVcView:
    """Read-only window mimicking ``router.InputVc`` over the core arrays
    (tests and debugging reach ``router.inputs[port][vc].buffer``)."""

    __slots__ = ("_core", "_g")

    def __init__(self, core: SoaCore, g: int):
        self._core = core
        self._g = g

    @property
    def buffer(self) -> deque:
        return self._core.bufs[self._g]

    @property
    def route(self) -> Optional[int]:
        route = self._core.route_out[self._g]
        return None if route < 0 else route

    @property
    def out_vc(self) -> Optional[int]:
        ovc = self._core.out_vc[self._g]
        return None if ovc < 0 else ovc


class FlatSlice:
    """A live, writable window of ``length`` elements of a flat list
    starting at ``base`` (``router.out_credits[port]`` compatibility)."""

    __slots__ = ("_store", "_base", "_length")

    def __init__(self, store: List[int], base: int, length: int):
        self._store = store
        self._base = base
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._store[self._base + index]

    def __setitem__(self, index: int, value: int) -> None:
        if not 0 <= index < self._length:
            raise IndexError(index)
        self._store[self._base + index] = value

    def __iter__(self):
        base = self._base
        return iter(self._store[base:base + self._length])


class SoaRouter:
    """Stateless per-router view over a :class:`SoaCore`.

    Implements the object-core surface the network, sanitizer, fault
    recovery and tests use; the lazily-built ``inputs``/``out_credits``
    views exist purely for introspection (hot paths never touch them).
    """

    __slots__ = ("core", "router_id", "_inputs_view", "_credits_view")

    def __init__(self, core: SoaCore, router_id: int):
        self.core = core
        self.router_id = router_id
        self._inputs_view: Optional[List[List[_InputVcView]]] = None
        self._credits_view: Optional[List[FlatSlice]] = None

    # --- object-core API used by Network / faults / recovery

    def accept(self, port: int, vc: int, flit: Flit, now: int) -> None:
        self.core.accept(self.router_id, port, vc, flit, now)

    def set_output_credits(self, port: int, credits: int) -> None:
        self.core.set_output_credits(self.router_id, port, credits)

    def credit_return(self, port: int, vc: int) -> None:
        self.core.credit_return(self.router_id, port, vc)

    def occupancy(self) -> int:
        return self.core.occupancy(self.router_id)

    def audit(self) -> List[str]:
        return self.core.audit(self.router_id)

    def buffer_occupancy(self, port: int, vc: int) -> int:
        return self.core.buffer_occupancy(self.router_id, port, vc)

    def credit_count(self, port: int, vc: int) -> int:
        return self.core.credit_count(self.router_id, port, vc)

    # --- introspection mirrors of the object core's attributes

    @property
    def _buffered(self) -> int:
        return self.core.buffered[self.router_id]

    @property
    def n_ports(self) -> int:
        return self.core.n_ports

    @property
    def num_vcs(self) -> int:
        return self.core.num_vcs

    @property
    def vc_depth(self) -> int:
        return self.core.vc_depth

    @property
    def pipe_delay(self) -> int:
        return self.core.pipe_delay

    @property
    def inputs(self) -> List[List[_InputVcView]]:
        if self._inputs_view is None:
            core = self.core
            base = self.router_id * core.slots
            self._inputs_view = [
                [_InputVcView(core, base + port * core.num_vcs + vc)
                 for vc in range(core.num_vcs)]
                for port in range(core.n_ports)]
        return self._inputs_view

    @property
    def out_credits(self) -> List[FlatSlice]:
        if self._credits_view is None:
            core = self.core
            base = self.router_id * core.slots
            self._credits_view = [
                FlatSlice(core.out_credits, base + port * core.num_vcs,
                          core.num_vcs)
                for port in range(core.n_ports)]
        return self._credits_view

    @property
    def out_owner(self) -> List[List[Optional[Tuple[int, int]]]]:
        core = self.core
        V = core.num_vcs
        base = self.router_id * core.slots
        return [[None if core.out_owner[base + port * V + vc] < 0
                 else divmod(core.out_owner[base + port * V + vc], V)
                 for vc in range(V)]
                for port in range(core.n_ports)]

