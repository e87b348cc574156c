"""The three-stage virtual-channel wormhole router (Table 1).

Pipeline model: a flit arriving at cycle *t* becomes eligible for switch
allocation at ``t + stages - 1`` (route computation and VC allocation occupy
the first stage, switch allocation the second) and, when granted, traverses
switch + link to arrive at the next router at ``t + stages`` — a 3-cycle
per-hop zero-load latency for the paper's three-stage router.

Flow control is credit-based: one credit per downstream buffer slot,
decremented on switch traversal and returned when the downstream router (or
NI) drains the flit.  Virtual-channel allocation is per packet (wormhole):
an output VC is owned from head grant to tail traversal; round-robin
arbiters keep VA and SA fair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.noc.packet import Flit


class InputVc:
    """State of one input virtual channel."""

    __slots__ = ("buffer", "route", "out_vc")

    def __init__(self):
        self.buffer: deque = deque()
        self.route: Optional[int] = None
        self.out_vc: Optional[int] = None


class Router:
    """One mesh router.

    The router is driven by :class:`~repro.noc.network.Network`, which calls
    :meth:`accept` for arriving flits and :meth:`cycle` once per simulated
    cycle with callbacks for flit departure and credit return.
    """

    def __init__(self, router_id: int, n_ports: int, num_vcs: int,
                 vc_depth: int, stages: int, stats):
        self.router_id = router_id
        self.n_ports = n_ports
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.pipe_delay = max(stages - 1, 0)
        self.stats = stats
        self.inputs: List[List[InputVc]] = [
            [InputVc() for _ in range(num_vcs)]
            for _ in range(n_ports)]
        # Downstream credit view and packet ownership per (out port, out VC).
        self.out_credits: List[List[int]] = [
            [vc_depth] * num_vcs for _ in range(n_ports)]
        self.out_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * num_vcs for _ in range(n_ports)]
        self._va_rr = [0] * n_ports
        self._va_input_rr = 0
        self._sa_rr = [0] * n_ports
        self._port_rr = 0
        # Buffered-flit count: lets idle routers skip their cycle entirely.
        self._buffered = 0
        # slot -> (port, vc), precomputed to keep divmod out of the VA loop.
        self._slot_table = tuple(
            (p, v) for p in range(n_ports) for v in range(num_vcs))
        # Slots (port * num_vcs + vc) whose buffers are non-empty: VA and SA
        # visit only these instead of scanning every input VC each cycle.
        self._occupied: set = set()
        # Per-out-port switch request lists, reused every cycle (cleared
        # with del lst[:]) so the SA stage allocates nothing.
        self._req_lists: List[List[int]] = [[] for _ in range(n_ports)]
        # Scratch list for the VA stage's rotated visiting order.
        self._va_order: List[int] = []

    # ------------------------------------------------------------ ingress

    def accept(self, port: int, vc: int, flit: Flit, now: int) -> None:
        """Buffer a flit arriving on an input VC (credit was pre-spent by
        the sender)."""
        ivc = self.inputs[port][vc]
        if len(ivc.buffer) >= self.vc_depth:
            raise RuntimeError(
                f"router {self.router_id} port {port} vc {vc}: buffer "
                f"overflow — upstream violated credit flow control")
        flit.ready_at = now + self.pipe_delay
        if not ivc.buffer:
            self._occupied.add(port * self.num_vcs + vc)
        ivc.buffer.append(flit)
        self._buffered += 1
        self.stats.buffer_writes += 1

    def set_output_credits(self, port: int, credits: int) -> None:
        """Resize the credit pool of an output port (ejection ports use a
        large value: the NI sink never backpressures)."""
        self.out_credits[port] = [credits] * self.num_vcs

    def credit_return(self, port: int, vc: int) -> None:
        """A downstream buffer slot freed up."""
        self.out_credits[port][vc] += 1

    # ---------------------------------------------------------- main loop

    def cycle(self, now: int, route_fn: Callable[[Flit], int],
              send: Callable[[int, int, Flit], None],
              credit: Callable[[int, int], None]) -> None:
        """Run one router cycle.

        ``route_fn(flit) -> out_port`` computes the route of a head flit at
        this router.  ``send(out_port, out_vc, flit)`` hands a traversing
        flit to the network; ``credit(in_port, in_vc)`` returns a credit
        upstream.
        """
        if self._buffered == 0:
            return
        self._route_and_allocate_vcs(route_fn)
        self._switch_allocate_and_traverse(now, send, credit)

    def _route_and_allocate_vcs(self, route_fn) -> None:
        """Stage 1: route computation + VC allocation for new heads.

        Input VCs are visited in a rotating order so that, when output VCs
        are scarce, no input port can monopolize them across cycles.
        """
        total = self.n_ports * self.num_vcs
        rotate = self._va_input_rr
        self._va_input_rr = (self._va_input_rr + self.num_vcs) % total
        slot_table = self._slot_table
        inputs = self.inputs
        # Visiting the occupied slots ranked by (slot - rotate) % total is
        # exactly the original full scan's rotating order with the empty
        # slots skipped — same allocation decisions, far fewer probes.
        occupied = self._occupied
        if len(occupied) > 1:
            # Rotated visiting order without a per-cycle key lambda:
            # slots are distinct, so ascending order split at the
            # rotation point equals ranking by (slot - rotate) % total.
            order = self._va_order
            order.extend(occupied)
            order.sort()
            split = bisect_left(order, rotate)
            if split:
                order[:] = order[split:] + order[:split]
            occupied = order
        for slot in occupied:
            port, vc = slot_table[slot]
            ivc = inputs[port][vc]
            head = ivc.buffer[0]
            if not head.is_head or ivc.out_vc is not None:
                continue
            if ivc.route is None:
                ivc.route = route_fn(head)
            out_port = ivc.route
            start = self._va_rr[out_port]
            owners = self.out_owner[out_port]
            for j in range(self.num_vcs):
                cand = (start + j) % self.num_vcs
                if owners[cand] is None:
                    # Ownership registration tuple: per-packet state.
                    # repro: allow[hot-alloc]
                    owners[cand] = (port, vc)
                    ivc.out_vc = cand
                    self._va_rr[out_port] = (cand + 1) % self.num_vcs
                    self.stats.vc_allocations += 1
                    break
        del self._va_order[:]

    def _switch_allocate_and_traverse(self, now, send, credit) -> None:
        """Stages 2+3: switch allocation, then switch/link traversal.

        A single pass over the input VCs collects the switch requests; each
        output port then picks one winner round-robin, subject to the
        one-flit-per-input-port crossbar constraint.
        """
        num_vcs = self.num_vcs
        n_ports = self.n_ports
        out_credits = self.out_credits
        inputs = self.inputs
        slot_table = self._slot_table
        req_lists = self._req_lists
        req_mask = 0
        # Request-list order does not influence grants (winners are picked
        # by unique slot rank) and slots are small ints whose set order is
        # content-determined, so the occupied set may be visited as-is.
        # repro: allow[unordered-iter]
        for slot in self._occupied:
            port, vc = slot_table[slot]
            ivc = inputs[port][vc]
            if ivc.out_vc is None:
                continue
            flit = ivc.buffer[0]
            if (flit.ready_at > now
                    or out_credits[ivc.route][ivc.out_vc] <= 0):
                continue
            req_lists[ivc.route].append(slot)
            req_mask |= 1 << ivc.route
        if not req_mask:
            return
        granted_inputs = 0
        total = n_ports * num_vcs
        prr = self._port_rr
        self._port_rr = (prr + 1) % n_ports
        # Visit only the requested output ports in the rotated
        # (prr-first) ascending order the sorted() call produced: rotate
        # the request mask so bit 0 is port prr, then peel set bits.
        pmask = (1 << n_ports) - 1
        m = (req_mask >> prr | req_mask << (n_ports - prr)) & pmask
        while m:
            low = m & -m
            m ^= low
            out_port = low.bit_length() - 1 + prr
            if out_port >= n_ports:
                out_port -= n_ports
            lst = req_lists[out_port]
            start = self._sa_rr[out_port]
            winner = -1
            best_rank = total
            for slot in lst:
                if granted_inputs >> (slot // num_vcs) & 1:
                    continue
                rank = (slot - start) % total
                if rank < best_rank:
                    best_rank, winner = rank, slot
            del lst[:]
            if winner < 0:
                continue
            in_port, in_vc = slot_table[winner]
            granted_inputs |= 1 << in_port
            self._sa_rr[out_port] = (winner + 1) % total
            self._traverse(in_port, in_vc, out_port, send, credit)

    def _traverse(self, in_port: int, in_vc: int, out_port: int,
                  send, credit) -> None:
        """Pop the winning flit, spend a credit, release state on tail."""
        ivc = self.inputs[in_port][in_vc]
        flit = ivc.buffer.popleft()
        self._buffered -= 1
        if not ivc.buffer:
            self._occupied.discard(in_port * self.num_vcs + in_vc)
        out_vc = ivc.out_vc
        self.out_credits[out_port][out_vc] -= 1
        self.stats.buffer_reads += 1
        self.stats.crossbar_traversals += 1
        if flit.is_tail:
            self.out_owner[out_port][out_vc] = None
            ivc.route = None
            ivc.out_vc = None
        credit(in_port, in_vc)
        send(out_port, out_vc, flit)

    # -------------------------------------------------------- inspection

    def occupancy(self) -> int:
        """Total buffered flits (used by drain detection and tests)."""
        return sum(len(vc.buffer) for port in self.inputs for vc in port)

    def buffer_occupancy(self, port: int, vc: int) -> int:
        """Flits buffered in input VC ``(port, vc)``.

        Core-neutral accessor: NoCSan's conservation audits use this (and
        :meth:`credit_count`) so the same checks run against both the
        object layout and the flat SoA layout (DESIGN.md §14).
        """
        return len(self.inputs[port][vc].buffer)

    def credit_count(self, port: int, vc: int) -> int:
        """Credits held for downstream VC ``(port, vc)``."""
        return self.out_credits[port][vc]

    def audit(self) -> List[str]:
        """NoCSan hook: cross-check the wormhole protocol state machine.

        Returns human-readable violation descriptions (empty when every
        invariant holds): buffer-occupancy caches must match the buffers,
        VC ownership must be bidirectionally consistent, a body flit at the
        head of line must already own an output VC, and credit counters may
        never go negative.
        """
        violations: List[str] = []
        recount = 0
        for port in range(self.n_ports):
            for vc in range(self.num_vcs):
                ivc = self.inputs[port][vc]
                n = len(ivc.buffer)
                recount += n
                if n > self.vc_depth:
                    violations.append(
                        f"input port {port} vc {vc}: {n} flits buffered, "
                        f"depth is {self.vc_depth}")
                if (port * self.num_vcs + vc in self._occupied) != (n > 0):
                    violations.append(
                        f"input port {port} vc {vc}: occupied-slot cache "
                        f"disagrees with buffer ({n} flits)")
                if n and not ivc.buffer[0].is_head and ivc.out_vc is None:
                    violations.append(
                        f"input port {port} vc {vc}: body flit at head of "
                        f"line without an allocated output VC")
                if ivc.out_vc is not None:
                    if ivc.route is None:
                        violations.append(
                            f"input port {port} vc {vc}: output VC "
                            f"{ivc.out_vc} held without a computed route")
                    elif self.out_owner[ivc.route][ivc.out_vc] != (port, vc):
                        violations.append(
                            f"input port {port} vc {vc}: holds output VC "
                            f"{ivc.route}/{ivc.out_vc} but ownership "
                            f"records "
                            f"{self.out_owner[ivc.route][ivc.out_vc]}")
                elif ivc.route is not None and (
                        not n or not ivc.buffer[0].is_head):
                    violations.append(
                        f"input port {port} vc {vc}: route {ivc.route} "
                        f"computed but no head flit is waiting for VC "
                        f"allocation")
        if recount != self._buffered:
            violations.append(
                f"buffered-flit cache {self._buffered} != recount "
                f"{recount}")
        for port in range(self.n_ports):
            for vc in range(self.num_vcs):
                owner = self.out_owner[port][vc]
                if owner is not None:
                    in_port, in_vc = owner
                    ivc = self.inputs[in_port][in_vc]
                    if ivc.out_vc != vc or ivc.route != port:
                        violations.append(
                            f"output port {port} vc {vc}: owned by input "
                            f"{in_port}/{in_vc} which holds route "
                            f"{ivc.route} out_vc {ivc.out_vc}")
                if self.out_credits[port][vc] < 0:
                    violations.append(
                        f"output port {port} vc {vc}: negative credit "
                        f"count {self.out_credits[port][vc]}")
        return violations
