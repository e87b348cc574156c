"""Tests for error-control policies and quality accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import DataType, relative_word_error
from repro.core.error_control import ErrorBudget, WindowErrorBudget
from repro.core.quality import QualityTracker
from repro.util.bitops import to_unsigned


def err(precise: int, approx: int) -> float:
    """Relative error of replacing int ``precise`` with ``approx``."""
    return relative_word_error(to_unsigned(precise), to_unsigned(approx),
                               DataType.INT)


class TestErrorBudget:
    def test_default_policy_admits_everything(self):
        budget = ErrorBudget()
        assert budget.admits(err(100, 50))

    def test_record_takes_relative_error(self):
        budget = ErrorBudget()
        error = err(100, 90)
        assert error == pytest.approx(0.10)
        budget.record(error)
        assert budget.admits(error)


class TestWindowErrorBudget:
    def test_admits_within_budget(self):
        budget = WindowErrorBudget(threshold_pct=10, window=4)
        assert budget.admits(err(100, 95))

    def test_rejects_over_budget(self):
        budget = WindowErrorBudget(threshold_pct=10, window=1)
        assert not budget.admits(err(100, 80))

    def test_window_amortizes_spikes(self):
        """A 20% spike is admitted when surrounded by exact words."""
        budget = WindowErrorBudget(threshold_pct=10, window=4)
        for _ in range(3):
            budget.record(err(100, 100))
        assert budget.admits(err(100, 80))

    def test_rejection_does_not_consume_budget(self):
        budget = WindowErrorBudget(threshold_pct=10, window=1)
        budget.admits(err(100, 50))
        # a small substitution still fits: the rejection left no trace
        assert budget.admits(err(100, 95))

    def test_sliding_window_forgets(self):
        budget = WindowErrorBudget(threshold_pct=10, window=2)
        budget.record(err(100, 85))
        budget.record(err(100, 100))
        budget.record(err(100, 100))
        assert budget.current_mean() == 0.0

    def test_reset(self):
        budget = WindowErrorBudget(threshold_pct=10, window=4)
        budget.record(err(100, 80))
        budget.reset()
        assert budget.current_mean() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowErrorBudget(window=0)
        with pytest.raises(ValueError):
            WindowErrorBudget(threshold_pct=0)

    @given(st.lists(st.integers(90, 110), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_admitted_mean_never_exceeds_threshold(self, approxes):
        """Invariant: the window mean stays within the threshold after any
        sequence of admit attempts against reference value 100."""
        budget = WindowErrorBudget(threshold_pct=5, window=8)
        for approx in approxes:
            budget.admits(err(100, approx))
            assert budget.current_mean() <= 0.05 + 1e-12


class TestQualityTracker:
    def test_empty_tracker_is_perfect(self):
        tracker = QualityTracker()
        assert tracker.data_quality == 1.0
        assert tracker.encoded_fraction == 0.0

    def test_fractions(self):
        tracker = QualityTracker()
        # One exact-encoded, one approximated (10% error), one raw word.
        tracker.record_words(3, exact_encoded=1, approx_encoded=1,
                             errors=[0.1])
        assert tracker.encoded_fraction == pytest.approx(2 / 3)
        assert tracker.exact_fraction == pytest.approx(1 / 3)
        assert tracker.approx_fraction == pytest.approx(1 / 3)
        assert tracker.data_quality == pytest.approx(1 - 0.1 / 3)

    def test_merge(self):
        a, b = QualityTracker(), QualityTracker()
        a.record_words(1, exact_encoded=1, approx_encoded=0, errors=[])
        b.record_words(1, exact_encoded=0, approx_encoded=1, errors=[0.2])
        b.record_block(approximable=True)
        a.merge(b)
        assert a.total_words == 2
        assert a.approx_encoded_words == 1
        assert a.max_word_error == 0.2
        assert a.approximable_blocks == 1

    def test_record_words_sums_in_word_order(self):
        tracker = QualityTracker()
        tracker.record_words(16, 10, 2, [0.1, 0.2])
        tracker.record_words(16, 12, 1, [0.3])
        assert tracker.error_sum == (0.1 + 0.2) + 0.3
        assert tracker.max_word_error == 0.3
        assert tracker.total_words == 32
        assert (tracker.exact_encoded_words,
                tracker.approx_encoded_words) == (22, 3)

    def test_as_dict_keys(self):
        tracker = QualityTracker()
        summary = tracker.as_dict()
        assert {"data_quality", "encoded_fraction", "approx_fraction",
                "exact_fraction"} <= set(summary)
