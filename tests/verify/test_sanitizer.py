"""NoCSan runtime sanitizer tests.

The tier-1 suite runs clean under ``REPRO_SANITIZE=1`` (the simulator has
no latent violations), so each invariant is locked by a deliberately broken
``Router`` subclass injected through ``Network(router_factory=...)`` — the
sanitizer must catch every seeded bug, and a clean network must sail
through with bit-identical results.
"""

import random

import pytest

from repro.compression import BaselineScheme
from repro.core import CacheBlock, FpVaxxScheme
from repro.core.block import DataType, relative_word_error
from repro.core.error_control import WindowErrorBudget
from repro.compression.base import EncodedBlock, WordEncoding
from repro.harness.experiment import benchmark_trace, run_trace
from repro.noc import Network, NocConfig, PacketKind, TrafficRequest
from repro.noc.config import TINY_CONFIG
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.verify.sanitizer import (
    NocSanitizer,
    SanitizerError,
    sanitize_enabled,
)

SANITIZED_TINY = NocConfig(mesh_width=2, mesh_height=2, concentration=1,
                           sanitize=True)


def make_block(seed=3, approximable=True):
    rng = random.Random(seed)
    words = [rng.choice([0, 1, 9, 100, 5000, 70000]) for _ in range(16)]
    return CacheBlock.from_ints(words, approximable=approximable)


class SteadyTraffic:
    """Deterministic mixed control/data traffic for a fixed cycle window."""

    def __init__(self, n_nodes, cycles, period=3, seed=17):
        self.n = n_nodes
        self.cycles = cycles
        self.period = period
        self.rng = random.Random(seed)

    def generate(self, cycle):
        if cycle >= self.cycles or cycle % self.period:
            return []
        src = self.rng.randrange(self.n)
        dst = (src + 1 + self.rng.randrange(self.n - 1)) % self.n
        if dst == src:
            dst = (src + 1) % self.n
        if self.rng.random() < 0.5:
            return [TrafficRequest(src, dst, PacketKind.DATA,
                                   make_block(self.rng.randrange(99)))]
        return [TrafficRequest(src, dst, PacketKind.CONTROL)]


def sanitized_network(scheme_cls=BaselineScheme, router_factory=None,
                      config=SANITIZED_TINY, **scheme_kw):
    scheme = scheme_cls(config.n_nodes, **scheme_kw)
    return Network(config, scheme, router_factory=router_factory)


# ---------------------------------------------------------------------------
# Enablement plumbing
# ---------------------------------------------------------------------------

class TestEnablement:
    def test_config_flag_enables(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled(SANITIZED_TINY)
        assert not sanitize_enabled(TINY_CONFIG)

    def test_env_variable_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(TINY_CONFIG)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled(TINY_CONFIG)

    def test_disabled_network_has_no_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        net = Network(TINY_CONFIG, BaselineScheme(TINY_CONFIG.n_nodes))
        assert net._sanitizer is None

    def test_enabled_network_has_sanitizer(self):
        assert sanitized_network()._sanitizer is not None


# ---------------------------------------------------------------------------
# Clean runs: no false positives, bit-identical results
# ---------------------------------------------------------------------------

class TestCleanRuns:
    def test_clean_traffic_passes_every_audit(self):
        net = sanitized_network(FpVaxxScheme)
        net.set_traffic(SteadyTraffic(net.config.n_nodes, cycles=200))
        net.run(200)
        assert net.drain()
        sanitizer = net._sanitizer
        assert sanitizer.delivered > 0
        assert sanitizer.injected == sanitizer.delivered
        assert not sanitizer._births  # all flits accounted for

    def test_sanitized_results_are_bit_identical(self):
        config = NocConfig(mesh_width=2, mesh_height=2, concentration=1)
        trace = benchmark_trace(config, "ssca2", 300, seed=11)
        plain = run_trace(config, "FP-VAXX", trace, warmup=100, measure=200,
                          sanitize=False)
        checked = run_trace(config, "FP-VAXX", trace, warmup=100,
                            measure=200, sanitize=True)
        assert plain.simulation_outputs() == checked.simulation_outputs()


# ---------------------------------------------------------------------------
# Seeded router bugs: every invariant class must fire
# ---------------------------------------------------------------------------

class DropCreditRouter(Router):
    """Never returns credits upstream (classic leak)."""

    def _traverse(self, in_port, in_vc, out_port, send, credit):
        super()._traverse(in_port, in_vc, out_port, send, lambda p, v: None)


class DoubleCreditRouter(Router):
    """Returns every credit twice (fabricates buffer space)."""

    def _traverse(self, in_port, in_vc, out_port, send, credit):
        def twice(p, v):
            credit(p, v)
            credit(p, v)
        super()._traverse(in_port, in_vc, out_port, send, twice)


class LeakOwnerRouter(Router):
    """Forgets to release output-VC ownership on tail traversal."""

    def _traverse(self, in_port, in_vc, out_port, send, credit):
        ivc = self.inputs[in_port][in_vc]
        flit = ivc.buffer[0]
        out_vc = ivc.out_vc
        super()._traverse(in_port, in_vc, out_port, send, credit)
        if flit.is_tail:
            self.out_owner[out_port][out_vc] = (in_port, in_vc)  # re-leak


class PhantomFlitRouter(Router):
    """Corrupts the buffered-flit accounting on arrival."""

    def accept(self, port, vc, flit, now):
        super().accept(port, vc, flit, now)
        self._buffered += 1  # phantom flit


class StalledRouter(Router):
    """Never grants switch allocation: flits age forever."""

    def _switch_allocate_and_traverse(self, now, send, credit):
        return


def run_with_broken_router(router_factory, cycles=64, scheme_cls=None,
                           max_flit_age=None):
    scheme_cls = scheme_cls or BaselineScheme
    net = sanitized_network(scheme_cls, router_factory=router_factory)
    if max_flit_age is not None:
        net._sanitizer.max_flit_age = max_flit_age
    net.set_traffic(SteadyTraffic(net.config.n_nodes, cycles=cycles))
    net.run(cycles)
    net.drain(max_cycles=2_000)


class TestSeededViolations:
    def test_dropped_credit_is_caught(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_with_broken_router(DropCreditRouter)
        assert excinfo.value.invariant == "credit-conservation"

    def test_double_credit_is_caught(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_with_broken_router(DoubleCreditRouter)
        assert excinfo.value.invariant == "credit-conservation"

    def test_leaked_vc_ownership_is_caught(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_with_broken_router(LeakOwnerRouter)
        assert excinfo.value.invariant == "router-state"

    def test_phantom_flit_is_caught_immediately(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_with_broken_router(PhantomFlitRouter)
        assert excinfo.value.invariant == "flit-conservation"

    def test_starvation_watchdog_fires(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_with_broken_router(StalledRouter, max_flit_age=20)
        assert excinfo.value.invariant == "starvation"
        assert "still in flight" in str(excinfo.value)

    def test_violation_carries_context_and_trace(self):
        with pytest.raises(SanitizerError) as excinfo:
            run_with_broken_router(DropCreditRouter)
        error = excinfo.value
        assert error.cycle is not None
        assert error.trace  # replayable event tail
        assert "[credit-conservation]" in str(error)


# ---------------------------------------------------------------------------
# End-to-end error-bound oracle
# ---------------------------------------------------------------------------

class CorruptingScheme(BaselineScheme):
    """Flips a bit in every decoded block (models a buggy decoder)."""

    def _make_node(self, node_id):
        codec = super()._make_node(node_id)
        original_decode = codec.decode

        def decode(encoded, src):
            result = original_decode(encoded, src)
            words = list(result.block.words)
            words[0] ^= 1
            result.block = result.block.replace_words(words)
            return result

        codec.decode = decode
        return codec


def oracle_packet(word_encodings, dtype=DataType.INT):
    encoded = EncodedBlock(words=list(word_encodings), dtype=dtype,
                           approximable=True,
                           size_bits=32 * len(word_encodings))
    return Packet(src=0, dst=1, kind=PacketKind.DATA,
                  size_flits=2, encoded=encoded)


def word(original, decoded, approximated, error=None):
    """An encoded word; an approximated one carries its true relative
    error unless ``error`` overrides it."""
    if error is None:
        error = (relative_word_error(original, decoded, DataType.INT)
                 if approximated else 0.0)
    return WordEncoding(original=original, decoded=decoded, bits=32,
                        compressed=True, approximated=approximated,
                        error=error)


class TestErrorBoundOracle:
    def test_corrupted_decode_is_caught_end_to_end(self):
        net = sanitized_network(CorruptingScheme)
        net.submit(TrafficRequest(0, 1, PacketKind.DATA, make_block()))
        with pytest.raises(SanitizerError) as excinfo:
            net.drain()
        assert excinfo.value.invariant == "error-bound"
        assert "promised" in str(excinfo.value)

    def test_admissible_approximation_passes(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        # 100 @ 10%: shift 3, range 12, 4 don't-care bits -> 108 is legal.
        packet = oracle_packet([word(100, 108, approximated=True)])
        sanitizer._check_delivered_block(packet, CacheBlock((108,)))

    def test_mask_violation_is_caught(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        # Bit 8 is far outside the 4-bit mask of 100 @ 10%.
        packet = oracle_packet([word(100, 100 ^ 0x100, approximated=True)])
        with pytest.raises(SanitizerError, match="don't-care mask"):
            sanitizer._check_delivered_block(packet,
                                             CacheBlock((100 ^ 0x100,)))

    def test_silent_value_change_is_caught(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        packet = oracle_packet([word(5, 7, approximated=False)])
        with pytest.raises(SanitizerError,
                           match="without being marked approximated"):
            sanitizer._check_delivered_block(packet, CacheBlock((7,)))

    def test_misreported_error_is_caught(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        packet = oracle_packet([word(100, 108, approximated=True,
                                     error=0.0)])
        with pytest.raises(SanitizerError, match="carries relative error"):
            sanitizer._check_delivered_block(packet, CacheBlock((108,)))

    def test_exact_word_carrying_error_is_caught(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        packet = oracle_packet([word(5, 5, approximated=False, error=0.1)])
        with pytest.raises(SanitizerError, match="exact word carries"):
            sanitizer._check_delivered_block(packet, CacheBlock((5,)))

    def test_delivered_word_must_match_promise(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        packet = oracle_packet([word(100, 108, approximated=True)])
        with pytest.raises(SanitizerError, match="promised"):
            sanitizer._check_delivered_block(packet, CacheBlock((109,)))

    def test_word_count_mismatch_is_caught(self):
        sanitizer = sanitized_network(FpVaxxScheme)._sanitizer
        packet = oracle_packet([word(5, 5, approximated=False)])
        with pytest.raises(SanitizerError, match="words"):
            sanitizer._check_delivered_block(packet, CacheBlock((5, 5)))

    def test_thresholdless_scheme_may_not_approximate(self):
        sanitizer = sanitized_network(BaselineScheme)._sanitizer
        packet = oracle_packet([word(100, 108, approximated=True)])
        with pytest.raises(SanitizerError, match="no error threshold"):
            sanitizer._check_delivered_block(packet, CacheBlock((108,)))

    def test_window_budget_allowance_is_enforced(self):
        net = sanitized_network(
            FpVaxxScheme,
            budget_factory=lambda: WindowErrorBudget(threshold_pct=10.0,
                                                     window=1))
        sanitizer = net._sanitizer
        # 100 -> 115 is mask-admissible in paper mode (15 <= range bits)
        # but its 15% relative error exceeds the window=1 allowance of 10%.
        packet = oracle_packet([word(100, 111, approximated=True)])
        with pytest.raises(SanitizerError, match="window budget"):
            sanitizer._check_delivered_block(packet, CacheBlock((111,)))
