"""Baseline (no compression) and exact FP-COMP schemes.

The VAXX variants of the paper's contribution live in :mod:`repro.core`
(:mod:`repro.core.fp_vaxx`, :mod:`repro.core.di_vaxx`); this module provides
the comparison mechanisms every figure plots against.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.compression import fpc
from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
    WordEncoding,
)
from repro.core.block import CacheBlock


#: Pattern-table codes the assembler special-cases.
ZERO_CODE = fpc.COMPRESSIBLE_CLASSES[0].code
UNCOMPRESSED_CODE = fpc.UNCOMPRESSED_CLASS.code


class BaselineNode(NodeCodec):
    """Identity codec: every word travels verbatim."""

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        return self._encode_raw(block)

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        return DecodeResult(block=CacheBlock(encoded.decoded_words(),
                                             dtype=encoded.dtype,
                                             approximable=encoded.approximable))


class BaselineScheme(CompressionScheme):
    """The uncompressed NoC every mechanism is normalized against."""

    #: No codec in the NI, so no codec latency either.
    compression_cycles = 0
    decompression_cycles = 0

    @property
    def name(self) -> str:
        return "Baseline"

    def _make_node(self, node_id: int) -> NodeCodec:
        return BaselineNode(self, node_id)


def fpc_word(original: int, cls: fpc.PatternClass, candidate: int,
             error: float = 0.0) -> WordEncoding:
    """``original`` encoded by pattern row ``cls`` as ``candidate``.

    ``error`` is the substitution's relative error (0.0 when ``candidate
    == original``); a compressed word whose candidate differs from the
    original is an approximation.  A zero-row word is sized as the head of
    a zero run; :func:`assemble_fpc_words` frees the rest of the run.
    """
    compressed = cls.code != UNCOMPRESSED_CODE
    return WordEncoding(original, candidate, fpc.PREFIX_BITS + cls.data_bits,
                        compressed, compressed and candidate != original,
                        cls.code, error)


def assemble_fpc_words(
        encodings: Iterable[WordEncoding],
) -> Tuple[List[WordEncoding], int]:
    """Merge zero runs across a block's :func:`fpc_word` encodings.

    Consecutive zero-row words merge into runs of up to
    :data:`fpc.MAX_ZERO_RUN`: the first word of a run pays prefix + 3-bit
    run length, subsequent words ride free.  Returns the words and the
    block's total bits.
    """
    words: List[WordEncoding] = []
    append = words.append
    size_bits = 0
    run_remaining = 0
    for enc in encodings:
        if enc.code == ZERO_CODE:
            if run_remaining > 0:
                enc = enc._replace(bits=0)
                run_remaining -= 1
            else:
                run_remaining = fpc.MAX_ZERO_RUN - 1
        else:
            run_remaining = 0
        append(enc)
        size_bits += enc.bits
    return words, size_bits


class FpCompNode(NodeCodec):
    """Exact frequent-pattern compression (Das et al. [12])."""

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        encodings = []
        for word in block.words:
            cls, candidate = fpc.match_exact(word)
            encodings.append(fpc_word(word, cls, candidate))
        words, size_bits = assemble_fpc_words(encodings)
        return self._finish_encode(words, block, size_bits)

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        return DecodeResult(block=CacheBlock(encoded.decoded_words(),
                                             dtype=encoded.dtype,
                                             approximable=encoded.approximable))


class FpCompScheme(CompressionScheme):
    """Static frequent pattern compression (FP-COMP)."""

    @property
    def name(self) -> str:
        return "FP-COMP"

    def _make_node(self, node_id: int) -> NodeCodec:
        return FpCompNode(self, node_id)
