"""Adaptive compression control (Jin et al. [17], extension).

The DI-COMP paper "adaptively turns the compression on/off based on the
efficacy of compression on the network performance".  This module provides
that controller as a *wrapper* around any :class:`CompressionScheme`:

* each node monitors the compression gain over a sliding window of blocks;
* when the gain falls below ``min_gain`` the codec switches **off**:
  blocks ship raw and skip the compression/decompression latency;
* while off, every ``probe_period``-th block is still compressed (its
  latency charged); a single well-compressing probe re-enables the codec
  immediately, so the controller recovers from a phase change within one
  probe period.

Because the NI honors per-block latency overrides
(:attr:`EncodedBlock.compression_cycles`), turning the codec off removes
its pipeline cost too — the behaviour that makes adaptivity worthwhile on
incompressible phases.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
    Notification,
)
from repro.core.block import CacheBlock

#: Blocks in the gain-monitoring window.
DEFAULT_WINDOW = 32
#: Minimum acceptable compression gain (output/input below this keeps the
#: codec on); 0.95 = at least 5% size reduction.
DEFAULT_MIN_GAIN = 0.95
#: While off, probe one block in this many.
DEFAULT_PROBE_PERIOD = 16


class AdaptiveNode(NodeCodec):
    """Per-node wrapper: monitors gain, gates the inner codec."""

    def __init__(self, scheme: "AdaptiveScheme", node_id: int):
        super().__init__(scheme, node_id)
        self.inner = scheme.inner.node(node_id)
        self._window: Deque[Tuple[int, int]] = deque(
            maxlen=scheme.window)
        self._enabled = True
        self._since_probe = 0
        self.toggles = 0

    # ------------------------------------------------------------ control

    def _gain(self) -> float:
        """Output/input bit ratio over the window (1.0 = no gain)."""
        if not self._window:
            return 0.0
        total_in = sum(i for i, _ in self._window)
        total_out = sum(o for _, o in self._window)
        return total_out / max(total_in, 1)

    def _observe(self, input_bits: int, output_bits: int) -> None:
        if not self._enabled:
            # Single-probe re-enable: one block that compresses well is
            # enough evidence that the phase changed.
            if output_bits <= input_bits * self.scheme.min_gain:
                self._enabled = True
                self.toggles += 1
                self._window.clear()
            return
        self._window.append((input_bits, output_bits))
        if len(self._window) < self._window.maxlen:
            return
        if self._gain() > self.scheme.min_gain:
            self._enabled = False
            self.toggles += 1
            self._window.clear()

    # ------------------------------------------------------------- codec

    def _raw_encode(self, block: CacheBlock) -> EncodedBlock:
        encoded = self._encode_raw(block)
        encoded.compression_cycles = 0
        encoded.decompression_cycles = 0
        return encoded

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        if self._enabled:
            encoded = self.inner.encode(block, dst)
            self._observe(block.size_bits, encoded.size_bits)
            return encoded
        self._since_probe += 1
        if self._since_probe >= self.scheme.probe_period:
            self._since_probe = 0
            encoded = self.inner.encode(block, dst)
            self._observe(block.size_bits, encoded.size_bits)
            return encoded
        return self._raw_encode(block)

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        if encoded.compression_cycles == 0 and encoded.raw is not None:
            # Raw block: bypass the inner decoder (and its learning — the
            # sender's codec was off, there is nothing to learn from).
            return DecodeResult(block=CacheBlock(
                encoded.decoded_words(), dtype=encoded.dtype,
                approximable=encoded.approximable))
        return self.inner.decode(encoded, src)

    def deliver_notification(self, notification: Notification) -> None:
        self.inner.deliver_notification(notification)

    @property
    def enabled(self) -> bool:
        """Whether the inner codec is currently on at this node."""
        return self._enabled


class AdaptiveScheme(CompressionScheme):
    """Adaptive on/off wrapper around any compression scheme."""

    def __init__(self, inner: CompressionScheme,
                 window: int = DEFAULT_WINDOW,
                 min_gain: float = DEFAULT_MIN_GAIN,
                 probe_period: int = DEFAULT_PROBE_PERIOD):
        super().__init__(inner.n_nodes)
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0.0 < min_gain <= 1.0:
            raise ValueError(f"min_gain must be in (0, 1], got {min_gain}")
        if probe_period < 1:
            raise ValueError(
                f"probe_period must be >= 1, got {probe_period}")
        self.inner = inner
        self.window = window
        self.min_gain = min_gain
        self.probe_period = probe_period
        # The wrapper charges the inner codec's latency when it is on.
        self.compression_cycles = inner.compression_cycles
        self.decompression_cycles = inner.decompression_cycles
        # Share the statistics objects so inner-codec activity and raw
        # bypasses accumulate into a single view.
        self.stats = inner.stats
        self.quality = inner.quality

    @property
    def name(self) -> str:
        return f"Adaptive({self.inner.name})"

    def _make_node(self, node_id: int) -> NodeCodec:
        return AdaptiveNode(self, node_id)

    def toggles(self) -> int:
        """Total on/off transitions across all node controllers."""
        return sum(node.toggles for node in self._nodes.values())
