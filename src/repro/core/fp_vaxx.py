"""FP-VAXX: value approximation on frequent pattern compression (Figure 6).

For every word of an approximable block, the AVCL first determines the
don't-care bits; the masked word is then matched against the static frequent
pattern table, so only the care bits must coincide with a pattern row.  The
delivered word is the best pattern-class member inside the don't-care block,
and the paper's priority rule applies: the highest-priority row wins even
when a lower-priority row would have matched exactly (§5.3.1).

Non-approximable blocks — and float special values the AVCL bypasses —
fall back to exact FP-COMP matching.

The per-word pipeline (AVCL mask, masked or exact pattern match, realized
error) is a pure function of ``(word, dtype, shift, mode)``, so it runs
once per distinct word through one fused memo per word type, whose entry
is the word's finished encoding.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.compression import fpc
from repro.compression.base import EncodedBlock, NodeCodec, WordEncoding
from repro.compression.schemes import (
    FpCompNode,
    FpCompScheme,
    assemble_fpc_words,
    fpc_word,
)
from repro.core.avcl import Avcl, _evaluate_float, _evaluate_int
from repro.core.block import CacheBlock, DataType, relative_word_error
from repro.core.error_control import ErrorBudget
from repro.util.bitops import WORD_BITS

#: Entries kept in each per-dtype word memo.
WORD_MEMO_SIZE = 1 << 17


def _match_word(word: int, dtype: DataType, shift: int,
                mode: str) -> WordEncoding:
    """One word through Figures 4 and 6: the uncached fused-memo body.

    The encoding carries the matched row (``code``), the candidate
    (``decoded``) and the candidate's relative error.
    """
    # The memo is keyed on the raw shift, so re-check the datapath range
    # the Avcl constructor established.
    if not 0 <= shift < WORD_BITS:
        raise ValueError(f"AVCL shift {shift} outside the {WORD_BITS}-bit "
                         f"datapath")
    if dtype is DataType.INT:
        info = _evaluate_int(word, shift, mode)
    else:
        info = _evaluate_float(word, shift, mode)
    mask = info.mask
    if info.bypass or mask == 0:
        cls, candidate = fpc.classify_exact(word)
        return fpc_word(word, cls, candidate)
    cls, candidate = fpc.classify_approx(word, mask)
    if candidate == word:
        return fpc_word(word, cls, candidate)
    return fpc_word(word, cls, candidate,
                    relative_word_error(word, candidate, dtype))


@lru_cache(maxsize=WORD_MEMO_SIZE)
def _int_word(word: int, shift: int, mode: str) -> WordEncoding:
    """Fused memo for integer words."""
    return _match_word(word, DataType.INT, shift, mode)


@lru_cache(maxsize=WORD_MEMO_SIZE)
def _float_word(word: int, shift: int, mode: str) -> WordEncoding:
    """Fused memo for float words."""
    return _match_word(word, DataType.FLOAT, shift, mode)


_WORD_MEMOS: Dict[DataType, Callable[[int, int, str], WordEncoding]] = {
    DataType.INT: _int_word, DataType.FLOAT: _float_word}


def word_memo_totals() -> Tuple[int, int]:
    """``(hits, misses)`` of the fused word memos."""
    infos = (_int_word.cache_info(), _float_word.cache_info())
    return (sum(i.hits for i in infos), sum(i.misses for i in infos))


class FpVaxxNode(FpCompNode):
    """Per-node FP-VAXX codec: AVCL + masked frequent-pattern matching."""

    def __init__(self, scheme: "FpVaxxScheme", node_id: int):
        super().__init__(scheme, node_id)
        self.avcl = Avcl(scheme.error_threshold_pct, mode=scheme.avcl_mode)
        self.budget = scheme.make_budget()

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        if not block.approximable:
            return super().encode(block, dst)
        memo = _WORD_MEMOS[block.dtype]
        shift, mode = self.avcl.shift, self.avcl.mode
        budget = self.budget
        encodings = []
        for word in block.words:
            enc = memo(word, shift, mode)
            if enc.decoded == word:
                budget.record_exact()
            elif not budget.admits(enc.error):
                cls, candidate = fpc.classify_exact(word)
                enc = fpc_word(word, cls, candidate)
            encodings.append(enc)
        words, size_bits = assemble_fpc_words(encodings)
        return self._finish_encode(words, block, size_bits)


class FpVaxxScheme(FpCompScheme):
    """FP-VAXX: the VAXX engine coupled to FP-COMP.

    ``budget_factory`` lets experiments swap the per-word error policy for
    the window-based budget of the paper's future-work section.
    """

    def __init__(self, n_nodes: int, error_threshold_pct: float = 10.0,
                 avcl_mode: str = "paper",
                 budget_factory: Optional[Callable[[], ErrorBudget]] = None):
        super().__init__(n_nodes)
        self.error_threshold_pct = error_threshold_pct
        self.avcl_mode = avcl_mode
        self._budget_factory = budget_factory or ErrorBudget

    @property
    def name(self) -> str:
        return "FP-VAXX"

    def make_budget(self) -> ErrorBudget:
        """A fresh per-node error-control policy instance."""
        return self._budget_factory()

    def _make_node(self, node_id: int) -> NodeCodec:
        return FpVaxxNode(self, node_id)
