"""Curated rule set encoding this repository's invariants.

Importing this package registers every rule (the modules self-register via
:func:`repro.analysis.rules.register`):

* :mod:`.determinism`  — 1xx: simulations must be bit-reproducible;
* :mod:`.bits`         — 2xx: word arithmetic must respect 32-bit hardware;
* :mod:`.parallel`     — 3xx: work shipped to worker processes must pickle
  and share no mutable module state;
* :mod:`.service`      — 31x: no blocking calls on the campaign service's
  event loop (its coroutines drive lease heartbeats and backpressure);
* :mod:`.hygiene`      — 4xx/5xx: API hygiene and typing completeness;
* :mod:`.noc_state`    — 6xx: NoC protocol state stays behind the
  Router/NI methods the NoCSan sanitizer audits, and every NocConfig
  field has a static-verifier validation rule;
* :mod:`.rng_streams`  — 81x: taint-based RNG stream isolation between
  the fault and workload subsystems;
* :mod:`.api_parity`   — 82x: the Network hot path fits both router
  representations;
* :mod:`.value_ranges` — 90x: abstract-interpretation value proofs —
  shift ranges, 32-bit containment, zero divisors, and the AVCL
  error-bound certifier;
* :mod:`.hot_alloc`    — 91x: no per-execution allocation inside the
  per-cycle hot loops.
"""

from repro.analysis.checks import (
    api_parity,
    bits,
    determinism,
    hot_alloc,
    hygiene,
    noc_state,
    parallel,
    rng_streams,
    service,
    value_ranges,
)

__all__ = ["api_parity", "bits", "determinism", "hot_alloc", "hygiene",
           "noc_state", "parallel", "rng_streams", "service",
           "value_ranges"]
