"""Quality accounting for approximated traffic.

Aggregates the per-word relative errors every codec reports into the two
metrics the paper plots:

* **data value quality** (Figure 9, right axis): ``1 - mean relative error``
  over *all* words transmitted during the run (exactly-compressed and
  uncompressed words contribute zero error), and
* per-mechanism word accounting (Figure 10a): fraction of words encoded,
  split into exact compression and approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass
class QualityTracker:
    """Accumulates word-level outcomes across a simulation run."""

    total_words: int = 0
    exact_encoded_words: int = 0
    approx_encoded_words: int = 0
    error_sum: float = 0.0
    max_word_error: float = 0.0
    blocks: int = 0
    approximable_blocks: int = 0

    def record_words(self, total: int, exact_encoded: int,
                     approx_encoded: int, errors: Sequence[float]) -> None:
        """Record the outcome of one block's ``total`` transmitted words.

        ``errors`` holds the non-zero relative errors in word order.  They
        are added to ``error_sum`` one at a time, in that order, so the sum
        is the same as adding every word's error (an exact word's 0.0 never
        changes it).
        """
        self.total_words += total
        self.exact_encoded_words += exact_encoded
        self.approx_encoded_words += approx_encoded
        error_sum = self.error_sum
        for error in errors:
            error_sum += error
        self.error_sum = error_sum
        if errors:
            self.max_word_error = max(self.max_word_error, *errors)

    def record_block(self, approximable: bool) -> None:
        """Record one transmitted block (for approximable-ratio accounting)."""
        self.blocks += 1
        if approximable:
            self.approximable_blocks += 1

    @property
    def encoded_words(self) -> int:
        """Words compressed, exactly or approximately."""
        return self.exact_encoded_words + self.approx_encoded_words

    @property
    def encoded_fraction(self) -> float:
        """Fraction of transmitted words that were encoded (Figure 10a)."""
        if not self.total_words:
            return 0.0
        return self.encoded_words / self.total_words

    @property
    def exact_fraction(self) -> float:
        """Fraction of words encoded by exact compression."""
        if not self.total_words:
            return 0.0
        return self.exact_encoded_words / self.total_words

    @property
    def approx_fraction(self) -> float:
        """Fraction of words encoded via approximation."""
        if not self.total_words:
            return 0.0
        return self.approx_encoded_words / self.total_words

    @property
    def mean_error(self) -> float:
        """Mean relative error across every transmitted word."""
        if not self.total_words:
            return 0.0
        return self.error_sum / self.total_words

    @property
    def data_quality(self) -> float:
        """Data value quality (1 - mean relative error), Figure 9."""
        return 1.0 - self.mean_error

    def merge(self, other: "QualityTracker") -> None:
        """Fold another tracker (e.g. a different node's) into this one."""
        self.total_words += other.total_words
        self.exact_encoded_words += other.exact_encoded_words
        self.approx_encoded_words += other.approx_encoded_words
        self.error_sum += other.error_sum
        self.max_word_error = max(self.max_word_error, other.max_word_error)
        self.blocks += other.blocks
        self.approximable_blocks += other.approximable_blocks

    def reset(self) -> None:
        """Clear counters (warmup/measurement boundary)."""
        self.__init__()

    def as_dict(self) -> Dict[str, float]:
        """Summary dictionary used by the harness report formatter."""
        return {
            "total_words": self.total_words,
            "encoded_fraction": self.encoded_fraction,
            "exact_fraction": self.exact_fraction,
            "approx_fraction": self.approx_fraction,
            "mean_error": self.mean_error,
            "data_quality": self.data_quality,
            "max_word_error": self.max_word_error,
        }
