"""Static verifier: config validation + deadlock-freedom proof.

``verify_config`` runs every check below against one ``(NocConfig,
routing)`` pair and returns a :class:`VerificationReport`; the rule
catalogue mirrors :mod:`repro.analysis` (stable codes, severities, JSON
output) but operates on the *simulated architecture* instead of the Python
source:

* ``VERIFY101 unroutable``        — every src→dst pair must terminate at
  the destination's ejection port (wrong router/port, off-edge routing and
  livelock loops are all reported with the offending walk);
* ``VERIFY102 cdg-cycle``         — the channel-dependency graph induced by
  the routing function must be acyclic (Dally–Seitz deadlock freedom; the
  witness cycle is included in the message);
* ``VERIFY103 non-minimal``       — routes declared minimal must take
  exactly the Manhattan distance (warning: livelock/perf smell, not
  deadlock);
* ``VERIFY104 escape-vc``         — adaptive functions that rely on an
  escape VC must have one (``num_vcs >= 2``) and a registered escape
  routing restriction;
* ``VERIFY201 config-field``      — every ``NocConfig`` field must appear
  in :data:`VALIDATED_CONFIG_FIELDS` and pass its validation rule
  (``repro.analysis`` REPRO602 statically enforces the registry half);
* ``VERIFY202 credit-consistency``— VC/buffer/credit parameters must be
  internally consistent (positive depths, ejection-credit sentinel
  strictly above any real credit pool);
* ``VERIFY203 degenerate-traffic``— a network with fewer than two nodes
  carries no traffic (warning);
* ``VERIFY204 fault-config``      — an attached ``FaultConfig`` must be
  well-formed: rates are probabilities in [0, 1], durations/periods are
  positive cycles, budgets non-negative, switches plain booleans.

``ensure_network_verified`` is the cached entry point ``Network.__init__``
calls: one graph check per distinct ``(config, routing)`` per process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.config import FaultConfig
from repro.noc.config import NocConfig
from repro.noc.routing import (
    ROUTING_FUNCTIONS,
    get_routing_fn,
    get_routing_properties,
)
from repro.noc.topology import MeshTopology
from repro.verify.cdg import RouteEnumeration, enumerate_routes, find_cycle

#: The ejection-port credit sentinel (mirrors ``network.EJECTION_CREDITS``;
#: duplicated literal to keep this module import-light and cycle-free).
EJECTION_CREDITS = 1 << 30

#: Every ``NocConfig`` field with a validation rule in this module.  A field
#: added to the dataclass but not registered here fails ``VERIFY201`` at
#: run time and ``REPRO602`` statically — new knobs must state their legal
#: range before the simulator will run with them.
VALIDATED_CONFIG_FIELDS = frozenset({
    "mesh_width", "mesh_height", "concentration", "num_vcs", "vc_depth",
    "flit_bytes", "router_stages", "link_cycles", "block_bytes",
    "frequency_ghz", "overlap_compression", "sanitize", "event_horizon",
    "profile_phases", "faults", "core",
})

#: Legal simulation-core backends (the values ``NocConfig`` accepts).
_CORE_BACKENDS = ("object", "soa")

#: Fields that must be integers >= 1.
_POSITIVE_INT_FIELDS = ("mesh_width", "mesh_height", "concentration",
                        "num_vcs", "vc_depth", "flit_bytes", "router_stages",
                        "link_cycles", "block_bytes")

#: Fields that must be plain booleans.
_BOOL_FIELDS = ("overlap_compression", "sanitize", "event_horizon",
                "profile_phases")

#: How many failed route walks to spell out before summarizing.
_MAX_REPORTED_WALKS = 3


@dataclass(frozen=True, slots=True)
class Violation:
    """One verifier rule violation for one (config, routing) pair."""

    code: str
    rule: str
    severity: str  # "error" | "warning"
    message: str

    def format_human(self) -> str:
        """``severity[code/rule] message`` (analysis-style output)."""
        return f"{self.severity}[{self.code}/{self.rule}] {self.message}"

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (mirrors ``Finding.to_json_dict``)."""
        return {"code": self.code, "rule": self.rule,
                "severity": self.severity, "message": self.message}


@dataclass
class VerificationReport:
    """Outcome of verifying one (config, routing) pair."""

    config: NocConfig
    routing: str
    violations: List[Violation] = field(default_factory=list)
    #: CDG size, for reporting (channels = nodes, edges = dependencies).
    cdg_channels: int = 0
    cdg_edges: int = 0
    pairs_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no error-severity violation was found."""
        return not any(v.severity == "error" for v in self.violations)

    @property
    def errors(self) -> List[Violation]:
        """Error-severity violations only."""
        return [v for v in self.violations if v.severity == "error"]

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe representation for the CLI."""
        return {
            "config": dataclasses.asdict(self.config),
            "routing": self.routing,
            "ok": self.ok,
            "cdg_channels": self.cdg_channels,
            "cdg_edges": self.cdg_edges,
            "pairs_checked": self.pairs_checked,
            "violations": [v.to_json_dict() for v in self.violations],
        }


class ConfigVerificationError(ValueError):
    """A network configuration failed static verification."""

    def __init__(self, report: VerificationReport):
        self.report = report
        lines = [v.format_human() for v in report.errors]
        super().__init__(
            f"NoC configuration failed verification "
            f"({report.config.mesh_width}x{report.config.mesh_height} mesh, "
            f"routing {report.routing!r}):\n  " + "\n  ".join(lines))


# --------------------------------------------------------------------------
# Individual checks
# --------------------------------------------------------------------------

def _check_config_fields(config: NocConfig) -> List[Violation]:
    """VERIFY201: every field registered and inside its legal range."""
    violations: List[Violation] = []
    for f in dataclasses.fields(config):
        if f.name not in VALIDATED_CONFIG_FIELDS:
            violations.append(Violation(
                code="VERIFY201", rule="config-field", severity="error",
                message=f"NocConfig field {f.name!r} has no validation rule "
                        f"— register it in VALIDATED_CONFIG_FIELDS and add "
                        f"a check to repro.verify.static"))
    for name in _POSITIVE_INT_FIELDS:
        value = getattr(config, name, None)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            violations.append(Violation(
                code="VERIFY201", rule="config-field", severity="error",
                message=f"{name} must be an integer >= 1, got {value!r}"))
    for name in _BOOL_FIELDS:
        value = getattr(config, name, None)
        if not isinstance(value, bool):
            violations.append(Violation(
                code="VERIFY201", rule="config-field", severity="error",
                message=f"{name} must be a bool, got {value!r}"))
    frequency = getattr(config, "frequency_ghz", None)
    if not isinstance(frequency, (int, float)) or frequency <= 0:
        violations.append(Violation(
            code="VERIFY201", rule="config-field", severity="error",
            message=f"frequency_ghz must be positive, got {frequency!r}"))
    if isinstance(config.block_bytes, int) and config.block_bytes % 4 != 0:
        violations.append(Violation(
            code="VERIFY201", rule="config-field", severity="error",
            message=f"block_bytes must be a multiple of the 32-bit word "
                    f"size, got {config.block_bytes}"))
    core = getattr(config, "core", None)
    if core not in _CORE_BACKENDS:
        violations.append(Violation(
            code="VERIFY201", rule="config-field", severity="error",
            message=f"core must be one of {_CORE_BACKENDS}, got {core!r}"))
    return violations


#: FaultConfig probability fields (must lie in [0, 1]).
_FAULT_RATE_FIELDS = ("bitflip_rate", "drop_rate", "stuck_rate",
                      "credit_loss_rate", "failstop_rate")

#: FaultConfig cycle-count fields that must be integers >= 1.
_FAULT_POSITIVE_FIELDS = ("stuck_duration", "failstop_duration",
                          "retx_buffer", "watchdog_period", "degrade_window")

#: FaultConfig fields that must be integers >= 0.
_FAULT_NONNEG_FIELDS = ("seed", "retry_budget", "backoff_base")

#: FaultConfig switches that must be plain booleans.
_FAULT_BOOL_FIELDS = ("recovery", "crc_retx", "credit_watchdog", "degrade")


def _check_fault_config(config: NocConfig) -> List[Violation]:
    """VERIFY204: an attached FaultConfig must be well-formed."""
    faults = getattr(config, "faults", None)
    if faults is None:
        return []
    if not isinstance(faults, FaultConfig):
        return [Violation(
            code="VERIFY204", rule="fault-config", severity="error",
            message=f"faults must be a FaultConfig or None, got "
                    f"{type(faults).__name__}")]
    violations: List[Violation] = []
    for name in _FAULT_RATE_FIELDS:
        value = getattr(faults, name, None)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not 0.0 <= value <= 1.0:
            violations.append(Violation(
                code="VERIFY204", rule="fault-config", severity="error",
                message=f"faults.{name} must be a probability in [0, 1], "
                        f"got {value!r}"))
    for name in _FAULT_POSITIVE_FIELDS:
        value = getattr(faults, name, None)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            violations.append(Violation(
                code="VERIFY204", rule="fault-config", severity="error",
                message=f"faults.{name} must be an integer >= 1, "
                        f"got {value!r}"))
    for name in _FAULT_NONNEG_FIELDS:
        value = getattr(faults, name, None)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            violations.append(Violation(
                code="VERIFY204", rule="fault-config", severity="error",
                message=f"faults.{name} must be an integer >= 0, "
                        f"got {value!r}"))
    for name in _FAULT_BOOL_FIELDS:
        value = getattr(faults, name, None)
        if not isinstance(value, bool):
            violations.append(Violation(
                code="VERIFY204", rule="fault-config", severity="error",
                message=f"faults.{name} must be a bool, got {value!r}"))
    return violations


def _check_credit_consistency(config: NocConfig) -> List[Violation]:
    """VERIFY202: VC/buffer/credit parameters internally consistent."""
    violations: List[Violation] = []
    if isinstance(config.vc_depth, int) and \
            config.vc_depth >= EJECTION_CREDITS:
        violations.append(Violation(
            code="VERIFY202", rule="credit-consistency", severity="error",
            message=f"vc_depth {config.vc_depth} reaches the ejection-port "
                    f"credit sentinel ({EJECTION_CREDITS}); real credit "
                    f"pools must stay strictly below it"))
    if isinstance(config.num_vcs, int) and isinstance(config.vc_depth, int):
        per_port = config.num_vcs * config.vc_depth
        if per_port < 1:
            violations.append(Violation(
                code="VERIFY202", rule="credit-consistency", severity="error",
                message=f"input ports need at least one buffer slot, got "
                        f"{config.num_vcs} VCs x {config.vc_depth} flits"))
    return violations


def _check_routes(config: NocConfig, routing: str,
                  enumeration: RouteEnumeration,
                  minimal: bool) -> Tuple[List[Violation], int]:
    """VERIFY101/103: routability + minimality by exhaustive enumeration.

    Consumes the shared :class:`RouteEnumeration` (memoized per
    destination) instead of re-walking every pair through
    ``trace_route`` — coverage is identical, cost drops from
    O(pairs x hops) to O(pairs).  The happy path compares whole
    per-destination rows (no failures, hop counts equal to the
    router-Manhattan distance) so a clean mesh costs two C-level list
    scans per destination; only destinations with an actual finding
    fall back to the per-pair loop."""
    topology = MeshTopology(config)
    violations: List[Violation] = []
    n_nodes = topology.n_nodes
    router_of = [topology.router_of(node) for node in range(n_nodes)]
    coords = [topology.coords(router)
              for router in range(topology.n_routers)]
    expected_rows: Dict[int, List[int]] = {}
    failing: List[Tuple[int, int, str]] = []
    non_min: List[Tuple[int, int, int, int]] = []
    for dst in range(n_nodes):
        error_row = enumeration.errors[dst]
        hops_row = enumeration.hops[dst]
        clean = all(error is None for error in error_row)
        if clean:
            if not minimal:
                continue
            dst_router = router_of[dst]
            expected_row = expected_rows.get(dst_router)
            if expected_row is None:
                dst_x, dst_y = coords[dst_router]
                expected_row = [abs(x - dst_x) + abs(y - dst_y)
                                for x, y in coords]
                expected_rows[dst_router] = expected_row
            if hops_row == expected_row:
                continue
        for src in range(n_nodes):
            if src == dst:
                continue
            src_router = router_of[src]
            error = error_row[src_router]
            if error is not None:
                failing.append((src, dst, error))
                continue
            if minimal:
                expected = topology.hop_count(src, dst) - 1
                if hops_row[src_router] != expected:
                    non_min.append((src, dst, hops_row[src_router],
                                    expected))
    # Rebuild the src-major, dst-minor enumeration order the exhaustive
    # pair walk reported in.
    failing.sort()
    non_min.sort()
    failures = [f"{src}->{dst}: {error}" for src, dst, error in failing]
    non_minimal = [f"{src}->{dst}: {hops} hops, minimal is {expected}"
                   for src, dst, hops, expected in non_min]
    pairs = n_nodes * (n_nodes - 1)
    if failures:
        shown = "; ".join(failures[:_MAX_REPORTED_WALKS])
        extra = len(failures) - min(len(failures), _MAX_REPORTED_WALKS)
        suffix = f" (+{extra} more)" if extra > 0 else ""
        violations.append(Violation(
            code="VERIFY101", rule="unroutable", severity="error",
            message=f"routing {routing!r} fails to deliver "
                    f"{len(failures)}/{pairs} node pairs: {shown}{suffix}"))
    if non_minimal:
        shown = "; ".join(non_minimal[:_MAX_REPORTED_WALKS])
        extra = len(non_minimal) - min(len(non_minimal), _MAX_REPORTED_WALKS)
        suffix = f" (+{extra} more)" if extra > 0 else ""
        violations.append(Violation(
            code="VERIFY103", rule="non-minimal", severity="warning",
            message=f"routing {routing!r} is registered as minimal but "
                    f"{len(non_minimal)} pair(s) take extra hops: "
                    f"{shown}{suffix}"))
    return violations, pairs


def _check_deadlock_freedom(routing: str, enumeration: RouteEnumeration
                            ) -> Tuple[List[Violation], int, int]:
    """VERIFY102: the channel-dependency graph must be acyclic."""
    graph = enumeration.graph
    edges = sum(len(successors) for successors in graph.values())
    cycle = find_cycle(graph)
    if cycle is None:
        return [], len(graph), edges
    witness = " -> ".join(str(channel) for channel in cycle)
    return [Violation(
        code="VERIFY102", rule="cdg-cycle", severity="error",
        message=f"routing {routing!r} induces a cyclic channel-dependency "
                f"graph (deadlock; no escape VCs exist): {witness}")], \
        len(graph), edges


def _check_escape_vc(config: NocConfig, routing: str) -> List[Violation]:
    """VERIFY104: adaptive routing must actually have its escape VC."""
    properties = get_routing_properties(routing)
    if not properties.requires_escape_vc:
        return []
    violations: List[Violation] = []
    if isinstance(config.num_vcs, int) and config.num_vcs < 2:
        violations.append(Violation(
            code="VERIFY104", rule="escape-vc", severity="error",
            message=f"routing {routing!r} requires an escape VC but the "
                    f"config provides only {config.num_vcs} VC"))
    if properties.escape_fn is None:
        violations.append(Violation(
            code="VERIFY104", rule="escape-vc", severity="error",
            message=f"routing {routing!r} declares requires_escape_vc but "
                    f"registered no escape routing restriction to verify"))
    return violations


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def verify_config(config: NocConfig, routing: str = "xy"
                  ) -> VerificationReport:
    """Run the full static rule catalogue on one (config, routing) pair.

    Raises :class:`ValueError` for an unregistered routing name (a usage
    error, not a verification finding).
    """
    route_fn = get_routing_fn(routing)
    properties = get_routing_properties(routing)
    report = VerificationReport(config=config, routing=routing)
    report.violations.extend(_check_config_fields(config))
    report.violations.extend(_check_fault_config(config))
    report.violations.extend(_check_credit_consistency(config))
    report.violations.extend(_check_escape_vc(config, routing))
    if any(v.severity == "error" and v.code == "VERIFY201"
           for v in report.violations):
        # Geometry fields are broken: route enumeration would only crash.
        return report
    if config.n_nodes < 2:
        report.violations.append(Violation(
            code="VERIFY203", rule="degenerate-traffic", severity="warning",
            message=f"network has {config.n_nodes} node(s); no src != dst "
                    f"traffic is possible"))
    enumeration = enumerate_routes(config, route_fn)
    route_violations, pairs = _check_routes(config, routing, enumeration,
                                            minimal=properties.minimal)
    report.violations.extend(route_violations)
    report.pairs_checked = pairs
    # Deadlock freedom is judged on the escape restriction when one is
    # declared (Duato: an acyclic escape path suffices), else on the
    # function itself — the latter reuses the enumeration already built.
    cdg_enumeration = enumeration if properties.escape_fn is None \
        else enumerate_routes(config, properties.escape_fn)
    cycle_violations, channels, edges = _check_deadlock_freedom(
        routing, cdg_enumeration)
    report.violations.extend(cycle_violations)
    report.cdg_channels = channels
    report.cdg_edges = edges
    return report


# Deliberate per-process memo: one graph check per distinct (config,
# routing) pair, so constructing thousands of Networks in a sweep pays the
# enumeration exactly once per shape.
# repro: allow[mutable-global]
_VERIFIED_CACHE: Dict[Tuple[NocConfig, str], Optional[VerificationReport]] = {}


def ensure_network_verified(config: NocConfig, routing: str) -> None:
    """The ``Network.__init__`` gate: verify once per (config, routing).

    Raises :class:`ConfigVerificationError` when any error-severity
    violation exists; warnings are tolerated (the CLI still reports them).
    """
    key = (config, routing)
    cached = _VERIFIED_CACHE.get(key)
    if cached is None and key not in _VERIFIED_CACHE:
        report = verify_config(config, routing)
        cached = report if not report.ok else None
        _VERIFIED_CACHE[key] = cached
    if cached is not None:
        raise ConfigVerificationError(cached)


def clear_verification_cache() -> None:
    """Drop memoized verification results (tests re-registering routing)."""
    _VERIFIED_CACHE.clear()


def registered_routings() -> List[str]:
    """All registered routing function names, sorted."""
    return sorted(ROUTING_FUNCTIONS)
