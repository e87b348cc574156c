"""DI-VAXX: value approximation on dictionary compression (Figure 8).

DI-VAXX integrates the approximation with the dictionary instead of running
the AVCL on the packetization critical path: when an update notification
records a reference pattern, the **Approximate Pattern Compute Logic**
(APCL) derives its ternary (don't-care) form once, and the encoder PMT —
a TCAM — stores that ternary pattern.  A later word then hits in a single
TCAM search.

Each TCAM entry keeps, per destination, the encoded index *and the original
pattern* (Figure 8's ``idx``/``op`` vector): different decoders may have
detected different exact patterns inside the same value range, and exact
(non-approximable) matching checks the original pattern after the TCAM hit.

The decoder side is the ordinary dictionary decoder — a plain CAM recovering
the original pattern from the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.compression.base import (
    DecodeResult,
    EncodedBlock,
    NodeCodec,
    Notification,
    NotificationKind,
    WordEncoding,
)
from repro.compression.dictionary import (
    DEFAULT_DETECT_THRESHOLD,
    DEFAULT_PMT_ENTRIES,
    FREQ_SATURATION,
    WORD_FLAG_BITS,
    DiCompScheme,
    DictionaryDecoder,
    index_bits,
)
from repro.core.apcl import Apcl, TernaryPattern
from repro.core.avcl import Avcl
from repro.core.block import CacheBlock, DataType, relative_word_error
from repro.core.error_control import ErrorBudget


@dataclass
class DestSlot:
    """Per-destination (index, original pattern) pair of a TCAM entry."""

    index: int
    original: int


@dataclass
class VaxxEncoderEntry:
    """One TCAM row of the DI-VAXX encoder PMT (Figure 8).

    The ternary pattern's care mask and care value are stored when the row
    is installed, so a search compares them directly.
    """

    ternary: TernaryPattern
    dtype: DataType
    freq: int = 1
    slots: Dict[int, DestSlot] = field(default_factory=dict)
    care_mask: int = field(init=False)
    care_value: int = field(init=False)

    def __post_init__(self) -> None:
        self.care_mask = self.ternary.care_mask
        self.care_value = self.ternary.care_value


class DiVaxxNode(NodeCodec):
    """Per-node DI-VAXX codec: TCAM encoder PMT + ordinary decoder PMT."""

    def __init__(self, scheme: "DiVaxxScheme", node_id: int):
        super().__init__(scheme, node_id)
        self.avcl = Avcl(scheme.error_threshold_pct, mode=scheme.avcl_mode)
        self.apcl = Apcl(self.avcl)
        self.budget = scheme.make_budget()
        self.encoder_entries: List[Optional[VaxxEncoderEntry]] = (
            [None] * scheme.pmt_entries)
        self.decoder = DictionaryDecoder(
            node_id, n_entries=scheme.pmt_entries,
            detect_threshold=scheme.detect_threshold)
        self._index_bits = index_bits(scheme.pmt_entries)

    # ------------------------------------------------------------- encode

    def _tcam_search(self, word: int, dst: int, dtype: DataType,
                     require_exact: bool) -> Optional[Tuple[int, int]]:
        """Search the TCAM; return ``(index, recovered_pattern)`` on a hit.

        ``require_exact`` implements the non-approximable path: the TCAM hit
        only counts when the stored original pattern for this destination
        equals the word bit-for-bit.
        """
        for entry in self.encoder_entries:
            if entry is None or entry.dtype is not dtype:
                continue
            if (word & entry.care_mask) != entry.care_value:
                continue
            slot = entry.slots.get(dst)
            if slot is None:
                continue
            if require_exact and slot.original != word:
                continue
            if entry.freq < FREQ_SATURATION:
                entry.freq += 1
            return slot.index, slot.original
        return None

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        words: List[WordEncoding] = []
        size_bits = 0
        dtype = block.dtype
        approximable = block.approximable
        # Float special values bypass approximation (Figure 4).
        check_bypass = approximable and dtype is DataType.FLOAT
        budget = self.budget
        hit_bits = WORD_FLAG_BITS + self._index_bits
        for word in block.words:
            approx_ok = approximable and not (check_bypass
                                              and Avcl.bypass(word))
            hit = self._tcam_search(word, dst, dtype,
                                    require_exact=not approx_ok)
            error = 0.0
            if hit is not None and (not approx_ok or hit[1] == word):
                budget.record_exact()
            elif hit is not None:
                error = relative_word_error(word, hit[1], dtype)
                if not budget.admits(error):
                    # Error policy vetoed the approximate hit; retry
                    # exactly.
                    error = 0.0
                    hit = self._tcam_search(word, dst, dtype,
                                            require_exact=True)
            if hit is None:
                budget.record_exact()
                bits = WORD_FLAG_BITS + 32
                words.append(WordEncoding(word, word, bits, False, False))
            else:
                index, recovered = hit
                bits = hit_bits
                words.append(WordEncoding(word, recovered, bits, True,
                                          recovered != word, index, error))
            size_bits += bits
        return self._finish_encode(words, block, size_bits)

    # ------------------------------------------------------------- decode

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        notifications = self.decoder.observe_block(encoded, src)
        self.scheme.stats.notifications += len(notifications)
        block = CacheBlock(encoded.decoded_words(), dtype=encoded.dtype,
                           approximable=encoded.approximable)
        return DecodeResult(block=block, notifications=notifications)

    # ------------------------------------------------------ notifications

    def _encoder_victim(self) -> int:
        best_idx, best_freq = 0, None
        for idx, entry in enumerate(self.encoder_entries):
            if entry is None:
                return idx
            if best_freq is None or entry.freq < best_freq:
                best_idx, best_freq = idx, entry.freq
        return best_idx

    def deliver_notification(self, notification: Notification) -> None:
        if notification.dst != self.node_id:
            raise ValueError(
                f"notification for node {notification.dst} delivered to "
                f"node {self.node_id}")
        decoder_node = notification.src
        if notification.kind is NotificationKind.UPDATE:
            ternary = self.apcl.compute(notification.pattern,
                                        notification.dtype)
            for entry in self.encoder_entries:
                if (entry is not None and entry.ternary == ternary
                        and entry.dtype is notification.dtype):
                    entry.slots[decoder_node] = DestSlot(
                        index=notification.index,
                        original=notification.pattern)
                    return
            slot = self._encoder_victim()
            self.encoder_entries[slot] = VaxxEncoderEntry(
                ternary=ternary, dtype=notification.dtype,
                slots={decoder_node: DestSlot(index=notification.index,
                                              original=notification.pattern)})
            return
        # INVALIDATE: clear the per-destination slot that maps to the index.
        for entry in self.encoder_entries:
            if entry is None:
                continue
            slot = entry.slots.get(decoder_node)
            if slot is not None and slot.index == notification.index:
                del entry.slots[decoder_node]
                return


class DiVaxxScheme(DiCompScheme):
    """DI-VAXX: the VAXX engine tightly coupled to DI-COMP."""

    def __init__(self, n_nodes: int, pmt_entries: int = DEFAULT_PMT_ENTRIES,
                 detect_threshold: int = DEFAULT_DETECT_THRESHOLD,
                 error_threshold_pct: float = 10.0, avcl_mode: str = "paper",
                 budget_factory: Optional[Callable[[], ErrorBudget]] = None):
        super().__init__(n_nodes, pmt_entries=pmt_entries,
                         detect_threshold=detect_threshold)
        self.error_threshold_pct = error_threshold_pct
        self.avcl_mode = avcl_mode
        self._budget_factory = budget_factory or ErrorBudget

    @property
    def name(self) -> str:
        return "DI-VAXX"

    def make_budget(self) -> ErrorBudget:
        """A fresh per-node error-control policy instance."""
        return self._budget_factory()

    def _make_node(self, node_id: int) -> NodeCodec:
        return DiVaxxNode(self, node_id)
