"""Codec interfaces shared by every compression mechanism.

A *scheme* (:class:`CompressionScheme`) is the network-wide mechanism —
Baseline, FP-COMP, FP-VAXX, DI-COMP, DI-VAXX, … — and owns the shared
configuration plus aggregate statistics.  Each NoC node instantiates one
:class:`NodeCodec` from the scheme; the node codec hosts that node's encoder
and decoder state (for dictionary mechanisms the PMTs live here).

The simulator interacts with codecs through three calls:

* ``encode(block, dst)`` at the source NI, returning an
  :class:`EncodedBlock` whose ``size_bits`` determines the packet length;
* ``decode(encoded, src)`` at the destination NI, returning the recovered
  block plus any in-band protocol notifications (dictionary updates /
  invalidations) that must travel back through the network as control
  packets;
* ``deliver_notification(notification)`` at the node a notification
  addresses, once the network has carried it there.

Value semantics: the words a decoder will recover are fully determined at
encode time (the encoder knows which reference pattern it matched), so
``EncodedBlock`` carries them.  The dictionary consistency protocol then only
gates *when* compression is permitted — which is its performance-relevant
role — while data correctness is maintained by construction.
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

from repro.core.block import CacheBlock, DataType
from repro.core.quality import QualityTracker


class NotificationKind(enum.Enum):
    """In-band dictionary protocol messages (Figure 7)."""

    UPDATE = "update"
    INVALIDATE = "invalidate"


@dataclass(frozen=True)
class Notification:
    """A single-flit control message of the dictionary protocol.

    ``src`` is the node emitting it (a decoder), ``dst`` the encoder it
    addresses.  ``pattern`` / ``index`` identify the dictionary entry;
    ``dtype`` records the word type the decoder observed the pattern under
    (the DI-VAXX APCL needs it to compute the ternary form).
    """

    kind: NotificationKind
    src: int
    dst: int
    pattern: int
    index: int
    dtype: DataType = DataType.INT


class WordEncoding(NamedTuple):
    """Outcome for one 32-bit word inside an encoded block.

    ``bits`` counts every bit the word contributes to the network
    representation (prefix/flag + index/data).  ``decoded`` is the pattern
    the destination will recover; for exact compression and uncompressed
    words it equals ``original``.  ``error`` is the relative error of the
    substitution (:func:`~repro.core.block.relative_word_error`), computed
    once by the codec that made it; it is 0.0 for every exact word.
    """

    original: int
    decoded: int
    bits: int
    compressed: bool
    approximated: bool
    code: Optional[int] = None
    error: float = 0.0

    @property
    def exact(self) -> bool:
        """True when the destination recovers the word bit-exactly."""
        return self.decoded == self.original


class EncodedBlock:
    """Network representation (NR) of one cache block.

    Two forms.  A *coded* block carries one :class:`WordEncoding` per word.
    A *raw* block (Baseline and every raw fallback, built by
    :meth:`NodeCodec._encode_raw`) carries only the block's own words in
    :attr:`raw`: every word travels verbatim, so there is nothing per word
    to record.  Readers that need the recovered values use
    :meth:`decoded_words`, which is the block's words for a raw block;
    :attr:`words` builds the verbatim per-word encodings of a raw block on
    demand (NoCSan's per-word oracle, reports, tests).
    """

    __slots__ = ("_words", "raw", "dtype", "approximable", "size_bits",
                 "compression_cycles", "decompression_cycles")

    def __init__(self, words: Optional[List[WordEncoding]] = None,
                 dtype: DataType = DataType.INT, approximable: bool = False,
                 size_bits: int = 0,
                 compression_cycles: Optional[int] = None,
                 decompression_cycles: Optional[int] = None,
                 raw: Optional[Tuple[int, ...]] = None):
        if (words is None) == (raw is None):
            raise ValueError("an EncodedBlock carries either per-word "
                             "encodings or raw words, not both")
        self._words = words
        #: The block's words when it ships raw, else None.
        self.raw = raw
        self.dtype = dtype
        self.approximable = approximable
        self.size_bits = size_bits
        #: Optional per-block codec latency overrides (an adaptive
        #: controller that bypasses compression also skips its latency).
        #: ``None`` means "use the scheme's constants".
        self.compression_cycles = compression_cycles
        self.decompression_cycles = decompression_cycles

    @property
    def words(self) -> List[WordEncoding]:
        """Per-word encodings (built verbatim for a raw block)."""
        words = self._words
        if words is None:
            return [WordEncoding(w, w, 32, False, False) for w in self.raw]
        return words

    @property
    def original_bits(self) -> int:
        """Uncompressed size of the block, in bits."""
        return 32 * len(self.decoded_words())

    @property
    def size_bytes(self) -> int:
        """NR size rounded up to whole bytes (what gets packetized)."""
        return (self.size_bits + 7) // 8

    @property
    def compression_ratio(self) -> float:
        """Uncompressed bits over NR bits."""
        return self.original_bits / max(self.size_bits, 1)

    def decoded_words(self) -> Tuple[int, ...]:
        """Word patterns the destination recovers."""
        raw = self.raw
        if raw is not None:
            return raw
        return tuple(w.decoded for w in self._words)


@dataclass
class DecodeResult:
    """Decoder output: the recovered block and protocol notifications."""

    block: CacheBlock
    notifications: List[Notification] = field(default_factory=list)


@dataclass
class SchemeStats:
    """Aggregate, network-wide codec statistics for one scheme."""

    blocks_encoded: int = 0
    input_bits: int = 0
    output_bits: int = 0
    notifications: int = 0
    stale_hits: int = 0

    @property
    def compression_ratio(self) -> float:
        """Network-wide compression ratio (Figure 10b)."""
        if not self.output_bits:
            return 1.0
        return self.input_bits / self.output_bits

    def reset(self) -> None:
        """Clear counters (warmup/measurement boundary)."""
        self.__init__()


class NodeCodec(abc.ABC):
    """Per-node encoder/decoder pair for one compression scheme."""

    def __init__(self, scheme: "CompressionScheme", node_id: int):
        self.scheme = scheme
        self.node_id = node_id

    @abc.abstractmethod
    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        """Compress ``block`` for transmission to node ``dst``."""

    @abc.abstractmethod
    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        """Recover a block sent by node ``src`` and run decoder-side
        learning."""

    def deliver_notification(self, notification: Notification) -> None:
        """Apply a protocol notification addressed to this node.

        Stateless codecs have nothing to do.
        """

    # ------------------------------------------------------------ helpers

    def _finish_encode(self, words: List[WordEncoding], block: CacheBlock,
                       size_bits: int) -> EncodedBlock:
        """Record statistics and assemble the encoded block.

        A block whose encoded form is no smaller than the raw block ships
        raw with a one-bit header instead (the adaptive bypass of Jin et
        al. [17] at block granularity): compression never *expands* a
        packet, it only ever adds the flag bit.
        """
        flag = self.scheme.block_flag_bits
        size_bits += flag
        if size_bits > block.size_bits + flag:
            return self._encode_raw(block)
        stats = self.scheme.stats
        stats.blocks_encoded += 1
        stats.input_bits += 32 * len(words)
        stats.output_bits += size_bits
        quality = self.scheme.quality
        quality.record_block(block.approximable)
        encoded = [w.approximated for w in words if w.compressed]
        quality.record_words(len(words), encoded.count(False),
                             encoded.count(True),
                             [w.error for w in words if w.error])
        return EncodedBlock(words=words, dtype=block.dtype,
                            approximable=block.approximable,
                            size_bits=size_bits)

    def _encode_raw(self, block: CacheBlock) -> EncodedBlock:
        """Ship ``block`` verbatim: count-only statistics and a raw
        :class:`EncodedBlock` (no per-word encodings are built)."""
        size_bits = block.size_bits + self.scheme.block_flag_bits
        n_words = len(block.words)
        stats = self.scheme.stats
        stats.blocks_encoded += 1
        stats.input_bits += 32 * n_words
        stats.output_bits += size_bits
        quality = self.scheme.quality
        quality.record_block(block.approximable)
        quality.record_words(n_words, 0, 0, ())
        return EncodedBlock(raw=block.words, dtype=block.dtype,
                            approximable=block.approximable,
                            size_bits=size_bits)


class CompressionScheme(abc.ABC):
    """Network-wide compression mechanism: configuration + node factory."""

    #: Latency charged at the source NI (§4.3: 2 match + 1 encode cycles).
    compression_cycles: int = 3
    #: Latency charged at the destination NI (§4.3).
    decompression_cycles: int = 2
    #: Per-block "compressed vs raw fallback" marker.  It rides in spare
    #: head-flit header bits, so by default it adds nothing to the NR
    #: payload; set to 1 to charge it explicitly in sensitivity studies.
    block_flag_bits: int = 0

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self.stats = SchemeStats()
        self.quality = QualityTracker()
        self._nodes: dict = {}

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Mechanism name as used in the paper's figures."""

    @abc.abstractmethod
    def _make_node(self, node_id: int) -> NodeCodec:
        """Build the per-node codec state."""

    def node(self, node_id: int) -> NodeCodec:
        """The codec instance of ``node_id`` (created on first use)."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(
                f"node_id {node_id} out of range for {self.n_nodes} nodes")
        codec = self._nodes.get(node_id)
        if codec is None:
            codec = self._make_node(node_id)
            self._nodes[node_id] = codec
        return codec

    def roundtrip(self, block: CacheBlock, src: int, dst: int,
                  deliver_notifications: bool = True
                  ) -> Tuple[CacheBlock, EncodedBlock]:
        """Encode at ``src``, decode at ``dst``, apply notifications at once.

        Convenience path for the application-quality studies, where the
        network timing is irrelevant and only the value transformation
        matters.
        """
        encoded = self.node(src).encode(block, dst)
        result = self.node(dst).decode(encoded, src)
        if deliver_notifications:
            for notification in result.notifications:
                self.node(notification.dst).deliver_notification(notification)
        return result.block, encoded


def packet_flits(payload_bytes: int, flit_bytes: int = 8,
                 header_flits: int = 1) -> int:
    """Number of flits a payload occupies, including the head flit.

    Models the internal fragmentation the paper calls out in §5.2.1: the NR
    is padded up to a whole number of flits, so flit reduction does not scale
    proportionally with compression ratio.
    """
    if payload_bytes < 0:
        raise ValueError(f"negative payload: {payload_bytes}")
    if flit_bytes < 1:
        raise ValueError(f"flit_bytes must be positive, got {flit_bytes}")
    return header_flits + math.ceil(payload_bytes / flit_bytes)
