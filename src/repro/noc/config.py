"""NoC configuration (Table 1 of the paper).

The defaults reproduce the paper's detailed-network setup: a 4x4 2-D
concentrated mesh (32 cores, concentration 2), three-stage 2 GHz routers,
4 virtual channels of 4 flits each, 64-bit flits, wormhole switching and XY
routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.config import FaultConfig

#: Why ``event_horizon`` and ``core`` outlive the features they selected.
_RETIRED_FIELDS = (
    "the event horizon and the numpy core were removed and every cycle is "
    "stepped; the field stays only because cache keys and the end-to-end "
    "benchmark digests hash every NocConfig field; it goes once bench_e2e "
    "pins per-spec result digests (ROADMAP, Subtract prerequisite)")


@dataclass(frozen=True, slots=True)
class NocConfig:
    """Static parameters of the simulated network."""

    #: Mesh dimensions, in routers.
    mesh_width: int = 4
    mesh_height: int = 4
    #: Nodes (cores/L2 slices/MCs) attached per router.
    concentration: int = 2
    #: Virtual channels per input port.
    num_vcs: int = 4
    #: Buffer depth per virtual channel, in flits.
    vc_depth: int = 4
    #: Flit width, in bytes (Table 1: 64-bit flits).
    flit_bytes: int = 8
    #: Router pipeline depth in cycles (Table 1: three-stage routers).
    router_stages: int = 3
    #: Link traversal latency, in cycles.
    link_cycles: int = 1
    #: Cache block carried by one data packet, in bytes.
    block_bytes: int = 64
    #: Router clock, only used to express power in watts.
    frequency_ghz: float = 2.0
    #: §4.3 latency-hiding optimization: overlap compression with NI
    #: queueing (disable for the ablation study).
    overlap_compression: bool = True
    #: Enable NoCSan, the runtime invariant sanitizer (see
    #: :mod:`repro.verify.sanitizer`).  Also switched on globally by the
    #: ``REPRO_SANITIZE`` environment variable.
    sanitize: bool = False
    #: Retired (DESIGN.md §12): only ``True`` is accepted; see
    #: ``_RETIRED_FIELDS``.
    event_horizon: bool = True
    #: Count per-phase activity ticks in
    #: :class:`~repro.noc.stats.NetworkStats` (off by default to keep
    #: ``step()`` lean).
    profile_phases: bool = False
    #: Deterministic fault-injection layer (DESIGN.md §13).  None disables
    #: it entirely; an all-zero :class:`~repro.faults.config.FaultConfig`
    #: builds the layer but is bit-identical to None.
    faults: Optional[FaultConfig] = None
    #: Simulation-core backend (DESIGN.md §14): ``"soa"`` (default) steps
    #: all routers in one batched pass over flat state arrays, ``"object"``
    #: keeps the per-object reference routers.  Both are bit-identical;
    #: ``router_factory`` forces ``object``.
    core: str = "soa"

    def __post_init__(self) -> None:
        for name in ("mesh_width", "mesh_height", "concentration", "num_vcs",
                     "vc_depth", "flit_bytes", "router_stages", "link_cycles",
                     "block_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.event_horizon is not True:
            raise ValueError(
                f"event_horizon must be True, got {self.event_horizon!r}: "
                f"{_RETIRED_FIELDS}")
        if self.core not in ("object", "soa"):
            raise ValueError(
                f"core must be one of 'object', 'soa', got {self.core!r}: "
                f"{_RETIRED_FIELDS}")

    @property
    def n_routers(self) -> int:
        """Routers in the mesh."""
        return self.mesh_width * self.mesh_height

    @property
    def n_nodes(self) -> int:
        """Network endpoints (NIs)."""
        return self.n_routers * self.concentration

    @property
    def words_per_block(self) -> int:
        """32-bit words per data-packet payload."""
        return self.block_bytes // 4

    @property
    def uncompressed_data_flits(self) -> int:
        """Flits of an uncompressed data packet (head + payload)."""
        return 1 + -(-self.block_bytes // self.flit_bytes)


#: The paper's Table 1 network.
PAPER_CONFIG = NocConfig()

#: Smaller network used by fast tests.
TINY_CONFIG = NocConfig(mesh_width=2, mesh_height=2, concentration=1)
