"""Tests for the Baseline / FP-COMP schemes and block-level assembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import fpc
from repro.compression.base import packet_flits
from repro.compression.schemes import (
    BaselineScheme,
    FpCompScheme,
    assemble_fpc_words,
    fpc_word,
)
from repro.core.block import CacheBlock


class TestPacketFlits:
    def test_uncompressed_64_byte_block(self):
        # 64B payload over 8B flits: 8 body flits + 1 head = 9 (§3.1 model)
        assert packet_flits(64) == 9

    def test_empty_payload_is_head_only(self):
        assert packet_flits(0) == 1

    def test_internal_fragmentation(self):
        # 17 bytes still needs 3 body flits (§5.2.1)
        assert packet_flits(17) == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            packet_flits(-1)
        with pytest.raises(ValueError):
            packet_flits(8, flit_bytes=0)


class TestBaseline:
    def test_size_is_identity(self):
        scheme = BaselineScheme(n_nodes=2)
        block = CacheBlock.from_ints(range(16))
        encoded = scheme.node(0).encode(block, 1)
        assert encoded.size_bits == 512
        assert encoded.compression_ratio == 1.0

    def test_roundtrip_exact(self):
        scheme = BaselineScheme(n_nodes=2)
        block = CacheBlock.from_ints([1, -2, 3])
        out, _ = scheme.roundtrip(block, 0, 1)
        assert out.words == block.words

    def test_no_codec_latency(self):
        assert BaselineScheme.compression_cycles == 0
        assert BaselineScheme.decompression_cycles == 0


class TestZeroRunAssembly:
    def _zero_match(self):
        return fpc_word(0, fpc.COMPRESSIBLE_CLASSES[0], 0)

    def test_single_zero_costs_prefix_plus_runlength(self):
        words, bits = assemble_fpc_words([self._zero_match()])
        assert bits == 6
        assert words[0].compressed

    def test_run_of_zeros_costs_one_header(self):
        words, bits = assemble_fpc_words([self._zero_match()] * 8)
        assert bits == 6  # one run header covers up to 8 words

    def test_run_longer_than_8_starts_new_run(self):
        words, bits = assemble_fpc_words([self._zero_match()] * 9)
        assert bits == 12

    def test_interrupted_run_restarts(self):
        cls4, cand = fpc.match_exact(5)
        matches = [self._zero_match(), fpc_word(5, cls4, cand),
                   self._zero_match()]
        _, bits = assemble_fpc_words(matches)
        assert bits == 6 + (3 + 4) + 6


class TestFpComp:
    def test_all_zero_block(self):
        scheme = FpCompScheme(n_nodes=2)
        block = CacheBlock.from_ints([0] * 16)
        encoded = scheme.node(0).encode(block, 1)
        # two runs of 8 zeros
        assert encoded.size_bits == 12
        assert encoded.compression_ratio == pytest.approx(512 / 12)

    def test_incompressible_block_falls_back_to_raw(self):
        """Prefix overhead would expand the block, so it ships raw + flag."""
        scheme = FpCompScheme(n_nodes=2)
        block = CacheBlock((0xDEADBEEF, 0xCAFEBABE))
        encoded = scheme.node(0).encode(block, 1)
        assert encoded.size_bits == 2 * 32

    def test_roundtrip_exact(self, int_block):
        scheme = FpCompScheme(n_nodes=2)
        out, _ = scheme.roundtrip(int_block, 0, 1)
        assert out.words == int_block.words

    def test_stats_accumulate(self):
        scheme = FpCompScheme(n_nodes=2)
        block = CacheBlock.from_ints([0] * 4)
        scheme.node(0).encode(block, 1)
        scheme.node(0).encode(block, 1)
        assert scheme.stats.blocks_encoded == 2
        assert scheme.stats.input_bits == 2 * 128

    def test_node_identity_cached(self):
        scheme = FpCompScheme(n_nodes=2)
        assert scheme.node(0) is scheme.node(0)

    def test_node_range_checked(self):
        scheme = FpCompScheme(n_nodes=2)
        with pytest.raises(ValueError):
            scheme.node(2)

    @given(st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_exactness_property(self, patterns):
        scheme = FpCompScheme(n_nodes=2)
        block = CacheBlock(tuple(patterns))
        out, encoded = scheme.roundtrip(block, 0, 1)
        assert out.words == block.words
        # raw fallback caps the NR at the uncompressed block size
        assert encoded.size_bits <= 32 * len(patterns)
