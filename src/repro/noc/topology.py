"""Mesh / concentrated-mesh topology and port geometry.

Routers sit on a ``width x height`` grid.  Ports 0..3 are the cardinal
directions (N, E, S, W); ports 4..4+c-1 are the local ports of the ``c``
concentrated nodes.  Node *n* attaches to router ``n // c`` on local port
``4 + n % c``.

Router input buffers are numbered by one flat *slot* index,
``router * ports * vcs + port * vcs + vc`` (:meth:`MeshTopology.input_slot`
and its inverse :meth:`MeshTopology.slot_coords`); the batched router core,
the network's flit queues, the NIs and NoCSan all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.noc.config import NocConfig

NORTH, EAST, SOUTH, WEST = 0, 1, 2, 3
DIRECTION_NAMES = {NORTH: "N", EAST: "E", SOUTH: "S", WEST: "W"}
#: Cardinal ports on every router.
NUM_DIRECTIONS = 4

#: :meth:`MeshTopology.send_target` of an unwired mesh-edge port.
#: Deterministic routing never produces such a hop; the sentinel decodes as
#: an impossible ejection node so a routing bug fails loudly instead of
#: corrupting state.
EDGE_TARGET = -(1 << 50)


@dataclass(frozen=True, slots=True)
class Link:
    """A unidirectional router-to-router connection."""

    src_router: int
    src_port: int
    dst_router: int
    dst_port: int


class MeshTopology:
    """A 2-D (concentrated) mesh built from a :class:`NocConfig`."""

    def __init__(self, config: NocConfig):
        self.config = config
        self.width = config.mesh_width
        self.height = config.mesh_height
        self.concentration = config.concentration
        self.n_routers = config.n_routers
        self.n_nodes = config.n_nodes
        self.ports_per_router = NUM_DIRECTIONS + self.concentration
        self.num_vcs = config.num_vcs
        #: Input (port, vc) slots per router in the flat slot index.
        self.slots_per_router = self.ports_per_router * self.num_vcs
        self._links = self._build_links()

    # ----------------------------------------------------------- geometry

    def coords(self, router: int) -> Tuple[int, int]:
        """(x, y) grid position of a router (x grows east, y grows south)."""
        self._check_router(router)
        return router % self.width, router // self.width

    def router_at(self, x: int, y: int) -> int:
        """Router id at grid position (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def router_of(self, node: int) -> int:
        """Router a node attaches to."""
        self._check_node(node)
        return node // self.concentration

    def local_port_of(self, node: int) -> int:
        """Router port a node attaches to."""
        self._check_node(node)
        return NUM_DIRECTIONS + node % self.concentration

    def node_at(self, router: int, local_port: int) -> int:
        """Node attached to a router's local port (inverse mapping)."""
        self._check_router(router)
        slot = local_port - NUM_DIRECTIONS
        if not 0 <= slot < self.concentration:
            raise ValueError(f"port {local_port} is not a local port")
        return router * self.concentration + slot

    def input_slot(self, router: int, port: int, vc: int = 0) -> int:
        """Flat slot index of input ``(port, vc)`` on ``router``."""
        return router * self.slots_per_router + port * self.num_vcs + vc

    def slot_coords(self, slot: int) -> Tuple[int, int, int]:
        """``(router, port, vc)`` of a flat slot index (inverse of
        :meth:`input_slot`)."""
        router, local = divmod(slot, self.slots_per_router)
        port, vc = divmod(local, self.num_vcs)
        return router, port, vc

    def send_target(self, router: int, port: int) -> int:
        """Where a flit leaving ``router`` through ``port`` goes, packed
        in one int: the downstream input slot of VC 0 for a link (>= 0;
        add the out VC), ``-1 - node`` for a local (ejection) port,
        :data:`EDGE_TARGET` for an unwired mesh edge."""
        link = self.link(router, port)
        if link is not None:
            return self.input_slot(link.dst_router, link.dst_port)
        if port >= NUM_DIRECTIONS:
            return -1 - self.node_at(router, port)
        return EDGE_TARGET

    def neighbor(self, router: int, direction: int) -> Optional[int]:
        """Adjacent router in a cardinal direction (None at mesh edge)."""
        x, y = self.coords(router)
        if direction == NORTH:
            return self.router_at(x, y - 1) if y > 0 else None
        if direction == SOUTH:
            return self.router_at(x, y + 1) if y < self.height - 1 else None
        if direction == EAST:
            return self.router_at(x + 1, y) if x < self.width - 1 else None
        if direction == WEST:
            return self.router_at(x - 1, y) if x > 0 else None
        raise ValueError(f"not a cardinal direction: {direction}")

    def _build_links(self) -> Dict[Tuple[int, int], Link]:
        """Map (router, output port) -> link for all inter-router channels."""
        opposite = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}
        links = {}
        for router in range(self.n_routers):
            for direction in range(NUM_DIRECTIONS):
                peer = self.neighbor(router, direction)
                if peer is not None:
                    links[(router, direction)] = Link(
                        src_router=router, src_port=direction,
                        dst_router=peer, dst_port=opposite[direction])
        return links

    def link(self, router: int, port: int) -> Optional[Link]:
        """The inter-router link leaving ``router`` through ``port``."""
        return self._links.get((router, port))

    def hop_count(self, src_node: int, dst_node: int) -> int:
        """Router hops an XY-routed packet traverses."""
        sx, sy = self.coords(self.router_of(src_node))
        dx, dy = self.coords(self.router_of(dst_node))
        return abs(sx - dx) + abs(sy - dy) + 1

    # --------------------------------------------------------- validation

    def _check_router(self, router: int) -> None:
        if not 0 <= router < self.n_routers:
            raise ValueError(f"router {router} out of range")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
