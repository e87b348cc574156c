"""Base-delta compression (BD-COMP) and its VAXX coupling (BD-VAXX).

Zhan et al. [36] exploit small intra-block value variance: a block is
encoded as one 32-bit base plus per-word deltas of a fixed narrow width.
The paper cites this as one of the NoC compression mechanisms VAXX can sit
on top of; we implement it as a third substrate to demonstrate the
plug-and-play claim beyond the two case studies of §4.

Format (per block): 2-bit delta-width selector + 32-bit base + one delta
per remaining word.  Candidate delta widths are 4, 8 and 16 bits; the
narrowest width covering every delta wins; blocks with no viable width ship
raw (the same head-flit fallback marker as the other codecs).

**BD-VAXX** applies the AVCL before the width check: each word may move
within its don't-care range toward the base, so blocks whose deltas are
only *approximately* narrow still compress.  The delivered word is the
nearest value to the original inside [base - limit, base + limit] that the
mask admits.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
    WordEncoding,
)
from repro.core.avcl import Avcl
from repro.core.block import CacheBlock, relative_word_error
from repro.core.error_control import ErrorBudget
from repro.util.bitops import to_unsigned

#: Selectable delta widths (2-bit selector).
DELTA_WIDTHS = (4, 8, 16)
SELECTOR_BITS = 2
BASE_BITS = 32


def _fits(delta: int, width: int) -> bool:
    half = 1 << (width - 1)
    return -half <= delta < half


def _clamp_to_width(value: int, base: int, width: int) -> int:
    """Nearest value to ``value`` whose delta from ``base`` fits ``width``."""
    half = 1 << (width - 1)
    low, high = base - half, base + half - 1
    return min(max(value, low), high)


class BdCompNode(NodeCodec):
    """Exact base-delta codec: base = first word, fixed delta width."""

    def _encode_exact(self, block: CacheBlock
                      ) -> Optional[Tuple[List[WordEncoding], int]]:
        values = block.as_ints()
        base = values[0]
        for width in DELTA_WIDTHS:
            if all(_fits(v - base, width) for v in values[1:]):
                words = [WordEncoding(original=block.words[0],
                                      decoded=block.words[0],
                                      bits=BASE_BITS, compressed=True,
                                      approximated=False)]
                for pattern, value in zip(block.words[1:], values[1:]):
                    words.append(WordEncoding(
                        original=pattern, decoded=pattern, bits=width,
                        compressed=True, approximated=False))
                size = SELECTOR_BITS + BASE_BITS + width * (len(values) - 1)
                return words, size
        return None

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        encoded = self._encode_exact(block)
        if encoded is None:
            return self._encode_raw(block)
        words, size = encoded
        return self._finish_encode(words, block, size)

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        return DecodeResult(block=CacheBlock(
            encoded.decoded_words(), dtype=encoded.dtype,
            approximable=encoded.approximable))


class BdCompScheme(CompressionScheme):
    """Base-delta compression (BD-COMP), after Zhan et al. [36]."""

    @property
    def name(self) -> str:
        return "BD-COMP"

    def _make_node(self, node_id: int) -> NodeCodec:
        return BdCompNode(self, node_id)


class BdVaxxNode(BdCompNode):
    """BD-VAXX: AVCL-guided value nudging before the delta-width check."""

    def __init__(self, scheme: "BdVaxxScheme", node_id: int):
        super().__init__(scheme, node_id)
        self.avcl = Avcl(scheme.error_threshold_pct, mode=scheme.avcl_mode)
        self.budget = scheme.make_budget()

    def _approximate_block(self, block: CacheBlock
                           ) -> Optional[Tuple[List[WordEncoding], int]]:
        values = block.as_ints()
        base = values[0]
        for width in DELTA_WIDTHS:
            decoded: List[int] = [values[0]]
            errors: List[float] = [0.0]
            ok = True
            for pattern, value in zip(block.words[1:], values[1:]):
                if _fits(value - base, width):
                    decoded.append(value)
                    errors.append(0.0)
                    continue
                info = self.avcl.evaluate(pattern, block.dtype)
                if info.bypass:
                    ok = False
                    break
                candidate = _clamp_to_width(value, base, width)
                cand_pattern = to_unsigned(candidate)
                if not info.matches(cand_pattern):
                    ok = False
                    break
                error = relative_word_error(pattern, cand_pattern,
                                            block.dtype)
                if not self.budget.admits(error):
                    ok = False
                    break
                decoded.append(candidate)
                errors.append(error)
            if not ok:
                continue
            words = [WordEncoding(original=block.words[0],
                                  decoded=block.words[0], bits=BASE_BITS,
                                  compressed=True, approximated=False)]
            for pattern, value, error in zip(block.words[1:], decoded[1:],
                                             errors[1:]):
                decoded_pattern = to_unsigned(value)
                approximated = decoded_pattern != pattern
                words.append(WordEncoding(
                    original=pattern, decoded=decoded_pattern, bits=width,
                    compressed=True, approximated=approximated,
                    error=error))
            size = SELECTOR_BITS + BASE_BITS + width * (len(values) - 1)
            return words, size
        return None

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        if not block.approximable:
            return super().encode(block, dst)
        exact = self._encode_exact(block)
        approx = self._approximate_block(block)
        best = None
        if exact is not None and approx is not None:
            best = exact if exact[1] <= approx[1] else approx
        else:
            best = exact or approx
        if best is None:
            return self._encode_raw(block)
        words, size = best
        return self._finish_encode(words, block, size)


class BdVaxxScheme(BdCompScheme):
    """BD-VAXX: the VAXX engine coupled to base-delta compression."""

    def __init__(self, n_nodes: int, error_threshold_pct: float = 10.0,
                 avcl_mode: str = "paper",
                 budget_factory: Optional[Callable[[], ErrorBudget]] = None):
        super().__init__(n_nodes)
        self.error_threshold_pct = error_threshold_pct
        self.avcl_mode = avcl_mode
        self._budget_factory = budget_factory or ErrorBudget

    @property
    def name(self) -> str:
        return "BD-VAXX"

    def make_budget(self) -> ErrorBudget:
        """A fresh per-node error-control policy instance."""
        return self._budget_factory()

    def _make_node(self, node_id: int) -> NodeCodec:
        return BdVaxxNode(self, node_id)
