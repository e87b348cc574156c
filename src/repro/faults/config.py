"""Fault-injection configuration.

A :class:`FaultConfig` attached to :class:`~repro.noc.config.NocConfig`
(``NocConfig(faults=...)``) arms the deterministic fault-injection layer
(:mod:`repro.faults.inject`) and its recovery mechanisms
(:mod:`repro.faults.recovery`).  The default instance is *fully inert*:
every rate is 0.0 and recovery is off, and the simulator guarantees that a
network built with an all-zero ``FaultConfig`` is bit-identical to one
built with ``faults=None`` (the rate-0 identity tests lock this in).

This module is deliberately import-light (dataclasses only): it is imported
at ``repro.noc.config`` module load, before the rest of the simulator
exists.

Validation lives in :mod:`repro.verify.static` (rule ``VERIFY204``); the
``faults`` field itself is registered in ``VALIDATED_CONFIG_FIELDS`` so the
REPRO602 lint keeps the registry in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Per-fault-class salts for :meth:`repro.util.rng.DeterministicRng.fork`:
#: each fault model consumes its own independent stream, so enabling one
#: class never perturbs another class's draws.
BITFLIP_SALT = 1
DROP_SALT = 2
CREDIT_LOSS_SALT = 3
STUCK_SALT = 4
FAILSTOP_SALT = 5


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Static parameters of the fault-injection layer.

    Rates are probabilities: per payload-flit link traversal for
    ``bitflip_rate``/``drop_rate``, per credit-return event for
    ``credit_loss_rate``, and per cycle (geometric inter-arrival) for the
    scheduled ``stuck_rate``/``failstop_rate`` faults.  Durations, periods
    and backoffs are in simulated cycles.
    """

    #: Seed of the injection layer's own RNG stream (forked per fault
    #: class); independent of the traffic seed by construction.
    seed: int = 1

    # ------------------------------------------------------- fault models
    #: Transient single-bit flip on a payload flit crossing a link.
    bitflip_rate: float = 0.0
    #: A body flit vanishes mid-link (its buffer credit leaks upstream).
    drop_rate: float = 0.0
    #: Per-link per-cycle probability of a stuck-at window opening.
    stuck_rate: float = 0.0
    #: Length of one stuck-at window, in cycles.
    stuck_duration: int = 200
    #: A returned credit is swallowed before reaching its upstream pool.
    credit_loss_rate: float = 0.0
    #: Per-router per-cycle probability of a fail-stop window opening.
    failstop_rate: float = 0.0
    #: Length of one fail-stop window (the router revives afterwards).
    failstop_duration: int = 200

    # --------------------------------------------------------- recovery
    #: Master switch: when False the mechanisms below are all inert and
    #: NoCSan treats every injected fault as a violation (detector mode).
    recovery: bool = False
    #: Per-packet CRC at the destination NI with NACK + retransmission.
    crc_retx: bool = True
    #: Retransmission attempts per block before giving up.
    retry_budget: int = 4
    #: Base retransmission backoff, doubled per attempt (cycles).
    backoff_base: int = 8
    #: Source-side retransmission buffer capacity, in blocks (FIFO evict).
    retx_buffer: int = 64
    #: Periodic credit-resynchronization watchdog.
    credit_watchdog: bool = True
    #: Watchdog firing period, in cycles.
    watchdog_period: int = 256
    #: Fall back to exact (non-approximated) transmission when the
    #: end-to-end error oracle sees a delivered word breach the scheme's
    #: approximation threshold.
    degrade: bool = True
    #: How long one breach keeps transmission exact, in cycles.
    degrade_window: int = 512

    # ------------------------------------------------------- inspection

    @property
    def any_faults(self) -> bool:
        """True when at least one fault model is armed (nonzero rate)."""
        return (self.bitflip_rate > 0 or self.drop_rate > 0
                or self.stuck_rate > 0 or self.credit_loss_rate > 0
                or self.failstop_rate > 0)

    @property
    def link_faults(self) -> bool:
        """True when any link-traversal fault model is armed (these are
        the only hooks on the router send hot path)."""
        return (self.bitflip_rate > 0 or self.drop_rate > 0
                or self.stuck_rate > 0)
