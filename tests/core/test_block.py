"""Tests for the cache-block data model."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.block import CacheBlock, DataType, relative_word_error
from repro.util.bitops import float_to_bits, to_unsigned


class TestCacheBlock:
    def test_from_ints_roundtrip(self):
        values = [0, 1, -1, 2**31 - 1, -(2**31)]
        block = CacheBlock.from_ints(values)
        assert block.as_ints() == values
        assert block.dtype is DataType.INT

    @given(st.lists(st.floats(width=32), min_size=1, max_size=16))
    def test_from_floats_packs_like_float_to_bits(self, values):
        block = CacheBlock.from_floats(values)
        assert block.words == tuple(float_to_bits(v) for v in values)

    def test_from_floats_roundtrip(self):
        values = [0.0, 1.5, -2.25]
        block = CacheBlock.from_floats(values, approximable=True)
        assert block.as_floats() == values
        assert block.dtype is DataType.FLOAT
        assert block.approximable

    def test_sizes(self):
        block = CacheBlock.from_ints(range(16))
        assert block.size_bytes == 64
        assert block.size_bits == 512
        assert len(block) == 16

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CacheBlock(())

    def test_words_are_masked_to_32_bits(self):
        block = CacheBlock((0x1FFFFFFFF,))
        assert block.words == (0xFFFFFFFF,)

    def test_replace_words_preserves_metadata(self):
        block = CacheBlock.from_ints([1, 2], approximable=True)
        replaced = block.replace_words((7, 8))
        assert replaced.words == (7, 8)
        assert replaced.approximable
        assert replaced.dtype is DataType.INT

    def test_iteration(self):
        block = CacheBlock.from_ints([3, 4, 5])
        assert list(block) == [3, 4, 5]

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1,
                    max_size=16))
    def test_int_roundtrip_property(self, values):
        assert CacheBlock.from_ints(values).as_ints() == values


class TestRelativeWordError:
    def test_identical_int(self):
        assert relative_word_error(to_unsigned(42), to_unsigned(42),
                                   DataType.INT) == 0.0

    def test_int_error(self):
        err = relative_word_error(to_unsigned(100), to_unsigned(95),
                                  DataType.INT)
        assert err == pytest.approx(0.05)

    def test_int_zero_reference_uses_unit_denominator(self):
        err = relative_word_error(to_unsigned(0), to_unsigned(3),
                                  DataType.INT)
        assert err == pytest.approx(3.0)

    def test_negative_int(self):
        err = relative_word_error(to_unsigned(-100), to_unsigned(-90),
                                  DataType.INT)
        assert err == pytest.approx(0.10)

    def test_float_error(self):
        err = relative_word_error(float_to_bits(2.0), float_to_bits(2.1),
                                  DataType.FLOAT)
        assert err == pytest.approx(0.05, rel=1e-3)

    def test_nan_unchanged_is_zero_error(self):
        nan = float_to_bits(float("nan"))
        assert relative_word_error(nan, nan, DataType.FLOAT) == 0.0

    def test_nan_corrupted_is_full_error(self):
        nan = float_to_bits(float("nan"))
        one = float_to_bits(1.0)
        assert relative_word_error(nan, one, DataType.FLOAT) == 1.0

    def test_inf_unchanged(self):
        inf = float_to_bits(float("inf"))
        assert relative_word_error(inf, inf, DataType.FLOAT) == 0.0

    def test_inf_corrupted(self):
        inf = float_to_bits(float("inf"))
        one = float_to_bits(1.0)
        assert relative_word_error(inf, one, DataType.FLOAT) == 1.0

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_self_error_always_zero(self, value):
        pattern = to_unsigned(value)
        assert relative_word_error(pattern, pattern, DataType.INT) == 0.0

