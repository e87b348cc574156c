"""Tests for the frequent pattern table (Figure 5) and masked matching."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.compression import fpc
from repro.util.bitops import to_unsigned

WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)
MASKS = st.integers(min_value=0, max_value=23).map(lambda k: (1 << k) - 1)


class TestExactClasses:
    @pytest.mark.parametrize("value,code", [
        (0, 0b000),
        (7, 0b001),
        (-8, 0b001),
        (100, 0b010),
        (-128, 0b010),
        (30000, 0b011),
        (-30000, 0b011),
        (0x12340000, 0b100),
        (0x00450067, 0b101),   # two halfwords, each a byte sign-extended
        (0xDEADBEEF, 0b111),
    ])
    def test_priority_assignment(self, value, code):
        cls, candidate = fpc.match_exact(to_unsigned(value))
        assert cls.code == code
        assert candidate == to_unsigned(value)

    def test_zero_beats_all(self):
        cls, _ = fpc.match_exact(0)
        assert cls.name == "zero-run"

    def test_halfword_negative_halves(self):
        # high half 0xFF80 (-128 as halfword), low half 0x007F (127)
        cls, _ = fpc.match_exact(0xFF80007F)
        assert cls.code == 0b101

    @given(WORDS)
    def test_exact_match_preserves_word(self, word):
        _cls, candidate = fpc.match_exact(word)
        assert candidate == word

    @given(WORDS)
    def test_some_class_always_matches(self, word):
        cls, _ = fpc.match_exact(word)
        assert cls.code in (0b000, 0b001, 0b010, 0b011, 0b100, 0b101, 0b111)


class TestApproxMatching:
    def test_near_zero_matches_zero(self):
        # 3 with 2 don't-care bits is approximately zero
        cls, candidate = fpc.match_approx(3, mask=0b11)
        assert cls.code == 0b000
        assert candidate == 0

    def test_not_near_zero(self):
        cls, candidate = fpc.match_approx(4, mask=0b11)
        assert cls.code != 0b000

    def test_near_multiple_of_2_16(self):
        # 70000 = 0x11170; with a 14-bit mask the block reaches 0x10000
        cls, candidate = fpc.match_approx(70000, mask=(1 << 14) - 1)
        assert candidate == 0x10000
        assert cls.code in (0b011, 0b100)  # 0x10000 is not halfword-signed

    def test_candidate_stays_in_block(self):
        word = 12345
        mask = (1 << 6) - 1
        cls, candidate = fpc.match_approx(word, mask)
        assert (candidate & ~mask) == (word & ~mask)

    def test_priority_rule_prefers_higher_class(self):
        # 8 with 3 don't-care bits: zero (priority 0) wins even though 8
        # matches 4-bit-sign-extended... it doesn't (8 > 7), but it matches
        # byte-sign-extended exactly; the zero class still wins.
        cls, candidate = fpc.match_approx(8, mask=0b1111)
        assert cls.code == 0b000
        assert candidate == 0

    def test_zero_mask_equals_exact(self):
        for word in (0, 5, 1000, 0xDEADBEEF, to_unsigned(-77)):
            assert fpc.match_approx(word, 0) == fpc.match_exact(word)

    def test_negative_word_sign_class(self):
        word = to_unsigned(-100)
        cls, candidate = fpc.match_approx(word, mask=0b111)
        assert cls.code == 0b010  # still byte sign-extended
        assert (candidate & ~0b111) == (word & ~0b111)

    @given(WORDS, MASKS)
    def test_candidate_always_within_masked_block(self, word, mask):
        cls, candidate = fpc.match_approx(word, mask)
        assert (candidate & ~mask & 0xFFFFFFFF) == (word & ~mask & 0xFFFFFFFF)

    @given(WORDS, MASKS)
    def test_candidate_is_class_member(self, word, mask):
        cls, candidate = fpc.match_approx(word, mask)
        assert cls.exact_match(candidate)

    @given(WORDS, MASKS)
    def test_approx_never_worse_than_exact(self, word, mask):
        """Masked matching compresses at least as well as exact matching."""
        exact_cls, _ = fpc.match_exact(word)
        approx_cls, _ = fpc.match_approx(word, mask)
        order = [c.code for c in fpc.COMPRESSIBLE_CLASSES] + [0b111]
        assert order.index(approx_cls.code) <= order.index(exact_cls.code)

    @given(WORDS)
    def test_exact_match_is_approx_with_zero_mask(self, word):
        assert fpc.match_approx(word, 0) == fpc.match_exact(word)


class TestHalfwordClasses:
    def test_halfword_padded_exact(self):
        cls = fpc.COMPRESSIBLE_CLASSES[4]
        assert cls.exact_match(0xABCD0000)
        assert not cls.exact_match(0xABCD0001)

    def test_halfword_padded_approx_none_when_unreachable(self):
        cls = fpc.COMPRESSIBLE_CLASSES[4]
        # 0x00018000 with tiny mask cannot reach a multiple of 2^16
        assert cls.approx_match(0x00018000, 0b11) is None

    def test_two_halfwords_requires_both(self):
        cls = fpc.COMPRESSIBLE_CLASSES[5]
        assert cls.exact_match(0x007F0001)
        assert not cls.exact_match(0x0080_0001)

    def test_two_halfwords_approx_low_half_only(self):
        cls = fpc.COMPRESSIBLE_CLASSES[5]
        # high half 0x0001 is byte-sign-extended; low half 0x0085 is not but
        # with a 3-bit mask it can reach 0x80... no: 0x80 > 0x7F. It can't.
        assert cls.approx_match(0x00010085, 0b111) is None
        # 0x0081 with 2 don't-care bits covers [0x80, 0x83] — still > 0x7F,
        # no. With the block [0x80,0x83] there is no sign-extended byte.
        assert cls.approx_match(0x00010081, 0b11) is None
        # 0x0082 with a 3-bit mask covers [0x80, 0x87]: none valid either;
        # but 0x7F lies below the block, so approx must fail. A word whose
        # block *contains* 0x7F succeeds:
        assert cls.approx_match(0x0001007F, 0b11) == 0x0001007F


def full_scan_approx(word, mask):
    """Figure 6 by definition: every row in table order."""
    for cls in fpc.COMPRESSIBLE_CLASSES:
        candidate = cls.approx_match(word, mask)
        if candidate is not None:
            return cls, candidate
    return fpc.UNCOMPRESSED_CLASS, word & 0xFFFFFFFF


def full_scan_exact(word):
    for cls in fpc.COMPRESSIBLE_CLASSES:
        if cls.exact_match(word):
            return cls, word & 0xFFFFFFFF
    return fpc.UNCOMPRESSED_CLASS, word & 0xFFFFFFFF


#: Words on either side of the halfword sign-extended range's edges.
EDGES = (0x7FFF, 0x8000, 0xFFFF7FFF, 0xFFFF8000, 0x10000, 0xFFFF0000)


class TestNarrowRowSkip:
    """Skipping the narrow rows outside the halfword sign-extended range
    must not change which row wins."""

    @given(WORDS, MASKS)
    @example(0x8000, 0)
    @example(0x8000, 1)
    @example(0x10000, 0xFFFF)
    @example(0xFFFF7FFF, 0)
    @example(0xFFFF7FFF, 1)
    @example(0xFFFF0000, 0x7FFF)
    def test_classify_approx_is_the_full_scan(self, word, mask):
        assert fpc.classify_approx(word, mask) == full_scan_approx(word,
                                                                   mask)

    @given(WORDS)
    def test_classify_exact_is_the_full_scan(self, word):
        assert fpc.classify_exact(word) == full_scan_exact(word)

    @pytest.mark.parametrize("word", EDGES)
    @pytest.mark.parametrize("k", range(0, 18))
    def test_edges(self, word, k):
        mask = (1 << k) - 1
        assert fpc.classify_approx(word, mask) == full_scan_approx(word,
                                                                   mask)
        assert fpc.classify_exact(word) == full_scan_exact(word)
