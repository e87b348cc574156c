"""The paper's primary contribution: the VAXX approximation engine.

Public surface:

* :class:`~repro.core.block.CacheBlock` — the data unit everything operates
  on (32-bit words + approximable/dtype metadata).
* :class:`~repro.core.avcl.Avcl` — the Approximate Value Compute Logic
  (error range + don't-care mask computation, Figure 4).
* :class:`~repro.core.apcl.Apcl` / :class:`~repro.core.apcl.TernaryPattern`
  — the Approximate Pattern Compute Logic feeding the DI-VAXX TCAM.
* :class:`~repro.core.fp_vaxx.FpVaxxScheme` and
  :class:`~repro.core.di_vaxx.DiVaxxScheme` — the two microarchitectural
  case studies of §4.
* :class:`~repro.core.error_control.ErrorBudget` /
  :class:`~repro.core.error_control.WindowErrorBudget` — online error
  control policies.
* :class:`~repro.core.quality.QualityTracker` — data-value-quality
  accounting.
"""

from repro.core.apcl import Apcl, TernaryPattern
from repro.core.avcl import ApproxInfo, Avcl, shift_bits_for_threshold
from repro.core.block import (
    BLOCK_BYTES,
    WORDS_PER_BLOCK,
    CacheBlock,
    DataType,
    relative_word_error,
)
from repro.core.di_vaxx import DiVaxxNode, DiVaxxScheme
from repro.core.error_control import ErrorBudget, WindowErrorBudget
from repro.core.fp_vaxx import FpVaxxNode, FpVaxxScheme
from repro.core.quality import QualityTracker

__all__ = [
    "Apcl",
    "TernaryPattern",
    "ApproxInfo",
    "Avcl",
    "shift_bits_for_threshold",
    "BLOCK_BYTES",
    "WORDS_PER_BLOCK",
    "CacheBlock",
    "DataType",
    "relative_word_error",
    "DiVaxxNode",
    "DiVaxxScheme",
    "ErrorBudget",
    "WindowErrorBudget",
    "FpVaxxNode",
    "FpVaxxScheme",
    "QualityTracker",
]
