"""Online error-control policies for the approximation engine.

The paper's default policy bounds the *relative error of every word*
independently (the AVCL mask construction).  Its stated future work is a
**window-based** budget — a cumulative error allowance over a window of
words, so occasional larger deviations are admitted as long as the window
average stays within the threshold.  Both are provided here; the engines
consult the policy before accepting an approximate match.

The engine that proposes a substitution computes its relative error once
(:func:`~repro.core.block.relative_word_error`) and hands that number to
the policy; the same number rides in the word's
:class:`~repro.compression.base.WordEncoding` to the quality accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque


class ErrorBudget:
    """Base policy: admit any match the AVCL mask already allowed.

    The AVCL mask is constructed so a masked match deviates by at most the
    error range, so the per-word policy is a no-op admission check.
    """

    def admits(self, error: float) -> bool:
        """Whether a substitution of relative error ``error`` is
        acceptable; an admitted substitution is recorded."""
        self.record(error)
        return True

    def record(self, error: float) -> None:
        """Record a realized substitution of relative error ``error``."""

    def record_exact(self) -> None:
        """Record a word delivered without error (fast path).

        The window policy averages over *every* transmitted word — "the
        error rate over a frame" (§7) — so exact words dilute the budget.
        """

    def reset(self) -> None:
        """Clear any accumulated state (new application phase)."""


@dataclass
class _WindowState:
    errors: Deque[float]
    total: float = 0.0


class WindowErrorBudget(ErrorBudget):
    """Cumulative error budget over a sliding window of words (§7 future work).

    A substitution is admitted when the *mean* relative error over the last
    ``window`` words — including the candidate — stays at or below
    ``threshold_pct``.  Video/image traffic benefits: a frame-level error
    budget admits more approximate matches than a conservative per-word one.
    """

    def __init__(self, threshold_pct: float = 10.0, window: int = 16):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if threshold_pct <= 0:
            raise ValueError(
                f"threshold must be positive, got {threshold_pct}")
        self._threshold = threshold_pct / 100.0
        self._window = window
        self._state = _WindowState(errors=deque(maxlen=window))

    @property
    def window(self) -> int:
        """Window length, in words."""
        return self._window

    @property
    def threshold(self) -> float:
        """Mean relative error allowed over the window (fraction)."""
        return self._threshold

    def current_mean(self) -> float:
        """Mean error currently accumulated in the window."""
        if not self._state.errors:
            return 0.0
        return self._state.total / len(self._state.errors)

    def admits(self, error: float) -> bool:
        window_len = min(len(self._state.errors) + 1, self._window)
        evicted = 0.0
        if len(self._state.errors) == self._window:
            evicted = self._state.errors[0]
        projected = (self._state.total - evicted + error) / window_len
        if projected > self._threshold:
            return False
        self._push(error)
        return True

    def record(self, error: float) -> None:
        self._push(error)

    def record_exact(self) -> None:
        self._push(0.0)

    def _push(self, err: float) -> None:
        if len(self._state.errors) == self._state.errors.maxlen:
            self._state.total -= self._state.errors[0]
        self._state.errors.append(err)
        self._state.total += err

    def reset(self) -> None:
        self._state = _WindowState(errors=deque(maxlen=self._window))
