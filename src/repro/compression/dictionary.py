"""Dictionary-based compression (DI-COMP) — Figure 7 of the paper.

Table-based dynamic compression after Jin et al. [17], as the paper models
it:

* **Decoders detect** recurring data patterns among the words that arrive
  uncompressed.  When a pattern has been seen ``detect_threshold`` times the
  decoder allocates a PMT entry (LFU replacement), assigns it the entry's
  index, sets the valid bit for the sending node, and sends an **update
  notification** to that node's encoder carrying (pattern, index).
* **Encoder PMT** entries hold the data pattern, a frequency counter and a
  vector of per-destination encoded indices: the same pattern may map to
  different indices at different decoders, and compression toward a
  destination is only allowed once that destination's index slot is valid.
* On decoder-side **replacement**, invalidations go to every encoder whose
  valid bit is set, clearing the per-destination index slots.

Protocol messages are returned from ``decode`` as :class:`Notification`
objects; the NI layer ships them as single-flit control packets and applies
them on delivery (``deliver_notification``), so the learning latency the
paper discusses (§5.2.1: DI mechanisms must re-learn locality each
communication phase) emerges naturally from network delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
    Notification,
    NotificationKind,
    WordEncoding,
)
from repro.core.block import CacheBlock, DataType
from repro.util.bitops import WORD_MASK

#: Table 1: dictionary mechanisms use an 8-entry PMT.
DEFAULT_PMT_ENTRIES = 8
#: Uncompressed arrivals of a pattern before the decoder promotes it.
DEFAULT_DETECT_THRESHOLD = 2
#: Observed words between frequency-decay sweeps (aging for the LFU).
DECAY_PERIOD = 1024
#: A PMT entry is replaceable once its (decayed) frequency falls to this.
ADMISSION_FREQ = 1
#: Frequency counters saturate here (8-bit counters in hardware).
FREQ_SATURATION = 255
#: Capacity of the decoder-side detection table.
DETECTOR_CAPACITY = 64
#: Per-word metadata: one flag bit marking compressed vs verbatim.
WORD_FLAG_BITS = 1


def index_bits(n_entries: int) -> int:
    """Encoded index width for a PMT of ``n_entries``."""
    if n_entries < 2:
        raise ValueError(f"PMT needs at least 2 entries, got {n_entries}")
    return max(1, math.ceil(math.log2(n_entries)))


@dataclass
class DecoderEntry:
    """One row of the decoder PMT (Figure 7b)."""

    pattern: int
    dtype: DataType = DataType.INT
    freq: int = 1
    valid_for: set = field(default_factory=set)


class PatternDetector:
    """Decoder-side recurrence detector feeding PMT allocation.

    A small table of (pattern -> occurrence count); when full, the least
    frequent candidate is evicted to admit a new pattern.
    """

    def __init__(self, capacity: int = DETECTOR_CAPACITY,
                 threshold: int = DEFAULT_DETECT_THRESHOLD):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self._capacity = capacity
        self._threshold = threshold
        self._counts: Dict[int, int] = {}

    def observe(self, pattern: int) -> bool:
        """Record one occurrence; True when the pattern crosses the
        detection threshold (and its counter resets)."""
        pattern &= WORD_MASK
        count = self._counts.get(pattern, 0) + 1
        if count >= self._threshold:
            self._counts.pop(pattern, None)
            return True
        if pattern not in self._counts and len(self._counts) >= self._capacity:
            victim = min(self._counts, key=self._counts.get)
            del self._counts[victim]
        self._counts[pattern] = count
        return False


class DictionaryDecoder:
    """The decoder PMT shared by DI-COMP and DI-VAXX.

    Holds exact patterns in a CAM-like table; produces update / invalidate
    notifications for the encoders it learns patterns from.
    """

    def __init__(self, node_id: int, n_entries: int = DEFAULT_PMT_ENTRIES,
                 detect_threshold: int = DEFAULT_DETECT_THRESHOLD):
        self.node_id = node_id
        self.entries: List[Optional[DecoderEntry]] = [None] * n_entries
        self._detector = PatternDetector(threshold=detect_threshold)
        self._observations = 0

    def _find(self, pattern: int) -> Optional[int]:
        for idx, entry in enumerate(self.entries):
            if entry is not None and entry.pattern == pattern:
                return idx
        return None

    def _victim(self) -> Optional[int]:
        """Replaceable slot: empty, or LFU whose decayed frequency is cold.

        Admission control — refusing to evict a still-hot entry for a
        pattern with marginal evidence — is what keeps the 8-entry PMT from
        thrashing (and the update/invalidate notification traffic bounded).
        """
        best_idx, best_freq = None, None
        for idx, entry in enumerate(self.entries):
            if entry is None:
                return idx
            if best_freq is None or entry.freq < best_freq:
                best_idx, best_freq = idx, entry.freq
        if best_freq is not None and best_freq <= ADMISSION_FREQ:
            return best_idx
        return None

    def _decay(self) -> None:
        """Periodically halve frequencies so stale entries become cold."""
        self._observations += 1
        if self._observations % DECAY_PERIOD:
            return
        for entry in self.entries:
            if entry is not None:
                entry.freq >>= 1

    def note_compressed_use(self, index: int) -> None:
        """A compressed word arrived referencing ``index``."""
        entry = self.entries[index]
        if entry is not None and entry.freq < FREQ_SATURATION:
            entry.freq += 1

    def observe_uncompressed(self, pattern: int, src: int,
                             dtype: DataType = DataType.INT
                             ) -> List[Notification]:
        """Run detection on a verbatim word from ``src``.

        Returns the protocol notifications the observation triggered.
        """
        pattern &= WORD_MASK
        self._decay()
        notifications: List[Notification] = []
        existing = self._find(pattern)
        if existing is not None:
            entry = self.entries[existing]
            if entry.freq < FREQ_SATURATION:
                entry.freq += 1
            if src not in entry.valid_for:
                entry.valid_for.add(src)
                notifications.append(Notification(
                    kind=NotificationKind.UPDATE, src=self.node_id, dst=src,
                    pattern=pattern, index=existing, dtype=entry.dtype))
            return notifications
        if not self._detector.observe(pattern):
            return notifications
        victim_idx = self._victim()
        if victim_idx is None:
            return notifications  # every entry is still hot: admission denied
        victim = self.entries[victim_idx]
        if victim is not None:
            for encoder in sorted(victim.valid_for):
                notifications.append(Notification(
                    kind=NotificationKind.INVALIDATE, src=self.node_id,
                    dst=encoder, pattern=victim.pattern, index=victim_idx))
        self.entries[victim_idx] = DecoderEntry(pattern=pattern, dtype=dtype,
                                                valid_for={src})
        notifications.append(Notification(
            kind=NotificationKind.UPDATE, src=self.node_id, dst=src,
            pattern=pattern, index=victim_idx, dtype=dtype))
        return notifications


@dataclass
class EncoderEntry:
    """One row of the exact-match encoder PMT (Figure 7a)."""

    pattern: int
    freq: int = 1
    index_by_dst: Dict[int, int] = field(default_factory=dict)


class DiCompNode(NodeCodec):
    """Per-node DI-COMP codec: exact-match encoder PMT + decoder PMT."""

    def __init__(self, scheme: "DiCompScheme", node_id: int):
        super().__init__(scheme, node_id)
        self.encoder_entries: List[Optional[EncoderEntry]] = (
            [None] * scheme.pmt_entries)
        self.decoder = DictionaryDecoder(
            node_id, n_entries=scheme.pmt_entries,
            detect_threshold=scheme.detect_threshold)
        self._index_bits = index_bits(scheme.pmt_entries)

    # ------------------------------------------------------------- encode

    def _lookup(self, word: int, dst: int) -> Optional[int]:
        """Encoded index for ``word`` toward ``dst``, if compressible."""
        for entry in self.encoder_entries:
            if entry is not None and entry.pattern == word:
                if entry.freq < FREQ_SATURATION:
                    entry.freq += 1
                return entry.index_by_dst.get(dst)
        return None

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        words: List[WordEncoding] = []
        size_bits = 0
        for word in block.words:
            index = self._lookup(word, dst)
            if index is not None:
                bits = WORD_FLAG_BITS + self._index_bits
                words.append(WordEncoding(word, word, bits, True, False,
                                          index))
            else:
                bits = WORD_FLAG_BITS + 32
                words.append(WordEncoding(word, word, bits, False, False))
            size_bits += bits
        return self._finish_encode(words, block, size_bits)

    # ------------------------------------------------------------- decode

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        notifications: List[Notification] = []
        for word in encoded.words:
            if word.compressed:
                self.decoder.note_compressed_use(word.code)
            else:
                notifications.extend(
                    self.decoder.observe_uncompressed(word.decoded, src,
                                                      encoded.dtype))
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
            for entry in self.encoder_entries:
                if entry is not None and entry.pattern == notification.pattern:
                    entry.index_by_dst[decoder_node] = notification.index
                    return
            slot = self._encoder_victim()
            self.encoder_entries[slot] = EncoderEntry(
                pattern=notification.pattern,
                index_by_dst={decoder_node: notification.index})
            return
        # INVALIDATE: drop the per-destination slot that maps to the index.
        for entry in self.encoder_entries:
            if (entry is not None
                    and entry.index_by_dst.get(decoder_node)
                    == notification.index):
                del entry.index_by_dst[decoder_node]
                return


class DiCompScheme(CompressionScheme):
    """Dictionary-based compression (DI-COMP)."""

    def __init__(self, n_nodes: int, pmt_entries: int = DEFAULT_PMT_ENTRIES,
                 detect_threshold: int = DEFAULT_DETECT_THRESHOLD):
        super().__init__(n_nodes)
        self.pmt_entries = pmt_entries
        self.detect_threshold = detect_threshold

    @property
    def name(self) -> str:
        return "DI-COMP"

    def _make_node(self, node_id: int) -> NodeCodec:
        return DiCompNode(self, node_id)
