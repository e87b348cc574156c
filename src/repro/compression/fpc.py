"""Frequent Pattern Compression (FP-COMP) — Figure 5 of the paper.

The static pattern table of Alameldeen & Wood's FPC, as adapted for NoCs by
Das et al. and reproduced in the paper's Figure 5:

====== ===================================== =========
prefix pattern                               data bits
====== ===================================== =========
000    zero run (up to 8 words)              3
001    4-bit sign-extended                   4
010    one byte sign-extended                8
011    halfword sign-extended                16
100    halfword padded with a zero halfword  16
101    two halfwords, each a byte sign-ext.  16
111    uncompressed word                     32
====== ===================================== =========

Every encoded word costs a 3-bit prefix plus its data bits; words of a zero
run after the first cost nothing (the run length rides in the first word's
3-bit data field).

Besides exact membership tests, every pattern class knows how to find its
best member inside a *masked block* — the contiguous pattern range
``[word & ~mask, (word & ~mask) + mask]`` the AVCL declared equivalent to
the word — which is exactly the approximate matching of the FP-VAXX
microarchitecture (Figure 6: don't-care bits excluded from the comparison).
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Optional, Tuple

from repro.util.bitops import WORD_MASK

PREFIX_BITS = 3
#: Maximum zero-run length expressible in the 3-bit data field.
MAX_ZERO_RUN = 8


def _nearest_in_range(lo: int, hi: int, target: int) -> int:
    """Value in [lo, hi] closest to ``target`` (all unsigned patterns)."""
    if target < lo:
        return lo
    if target > hi:
        return hi
    return target


class PatternClass(abc.ABC):
    """One row of the frequent pattern table."""

    def __init__(self, code: int, name: str, data_bits: int):
        self.code = code
        self.name = name
        self.data_bits = data_bits

    @abc.abstractmethod
    def exact_match(self, word: int) -> bool:
        """Exact class membership of a 32-bit pattern."""

    @abc.abstractmethod
    def approx_match(self, word: int, mask: int) -> Optional[int]:
        """Best class member inside the masked block of ``word``.

        ``mask`` must be a low-order bit mask (``2^k - 1``).  Returns the
        candidate pattern, or ``None`` when the block contains no member.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PatternClass {self.code:03b} {self.name}>"


class ZeroWord(PatternClass):
    """Prefix 000: the all-zero word (run-length encoded at block level)."""

    def __init__(self):
        super().__init__(0b000, "zero-run", 3)

    def exact_match(self, word: int) -> bool:
        return (word & WORD_MASK) == 0

    def approx_match(self, word: int, mask: int) -> Optional[int]:
        if (word & ~mask & WORD_MASK) == 0:
            return 0
        return None


class SignExtended(PatternClass):
    """Prefixes 001/010/011: word sign-extends from ``bits`` low bits."""

    def __init__(self, code: int, name: str, bits: int):
        super().__init__(code, name, bits)
        self.bits = bits
        half = 1 << (bits - 1)
        # Membership in unsigned pattern space: [0, half) u [2^32-half, 2^32).
        self._pos_hi = half - 1
        self._neg_lo = (1 << 32) - half

    def exact_match(self, word: int) -> bool:
        word &= WORD_MASK
        return word <= self._pos_hi or word >= self._neg_lo

    def approx_match(self, word: int, mask: int) -> Optional[int]:
        word &= WORD_MASK
        lo = word & ~mask & WORD_MASK
        hi = lo + mask
        best: Optional[int] = None
        if lo <= self._pos_hi:  # block intersects the positive range
            best = _nearest_in_range(lo, min(hi, self._pos_hi), word)
        if hi >= self._neg_lo:  # block intersects the negative range
            cand = _nearest_in_range(max(lo, self._neg_lo), hi, word)
            # Pure comparison sink: the unmasked differences feed only
            # abs() and the '<', never re-entering the datapath (the
            # flow-sensitive REPRO902 proves this).
            if best is None or abs(cand - word) < abs(best - word):
                best = cand
        return best


class HalfwordPaddedZero(PatternClass):
    """Prefix 100: significant upper halfword, zero lower halfword."""

    def __init__(self):
        super().__init__(0b100, "halfword-zero-padded", 16)

    def exact_match(self, word: int) -> bool:
        return (word & 0xFFFF) == 0

    def approx_match(self, word: int, mask: int) -> Optional[int]:
        word &= WORD_MASK
        lo = word & ~mask & WORD_MASK
        hi = lo + mask
        # Nearest multiple of 2^16 inside [lo, hi].
        first = ((lo + 0xFFFF) >> 16) << 16
        if first > hi:
            return None
        last = (hi >> 16) << 16
        target = min(((word + 0x8000) >> 16) << 16, 0xFFFF0000)
        return _nearest_in_range(first, last, target)


class TwoHalfwordsByteSigned(PatternClass):
    """Prefix 101: each halfword is a sign-extended byte."""

    def __init__(self):
        super().__init__(0b101, "two-halfwords-byte-signed", 16)

    @staticmethod
    def _half_exact(half: int) -> bool:
        return half <= 0x7F or half >= 0xFF80

    @staticmethod
    def _half_approx(half: int, mask16: int) -> Optional[int]:
        """Best sign-extended byte in the masked 16-bit block of ``half``."""
        lo = half & ~mask16 & 0xFFFF
        hi = lo + mask16
        best: Optional[int] = None
        if lo <= 0x7F:
            best = _nearest_in_range(lo, min(hi, 0x7F), half)
        if hi >= 0xFF80:
            cand = _nearest_in_range(max(lo, 0xFF80), hi, half)
            if best is None or abs(cand - half) < abs(best - half):
                best = cand
        return best

    def exact_match(self, word: int) -> bool:
        word &= WORD_MASK
        return self._half_exact(word >> 16) and self._half_exact(word & 0xFFFF)

    def approx_match(self, word: int, mask: int) -> Optional[int]:
        word &= WORD_MASK
        hi_half, lo_half = word >> 16, word & 0xFFFF
        lo_mask = mask & 0xFFFF
        hi_mask = (mask >> 16) & 0xFFFF
        hi_cand = (self._half_approx(hi_half, hi_mask) if hi_mask
                   else (hi_half if self._half_exact(hi_half) else None))
        if hi_cand is None:
            return None
        lo_cand = (self._half_approx(lo_half, lo_mask) if lo_mask
                   else (lo_half if self._half_exact(lo_half) else None))
        if lo_cand is None:
            return None
        return (hi_cand << 16) | lo_cand


class Uncompressed(PatternClass):
    """Prefix 111: the word travels verbatim."""

    def __init__(self):
        super().__init__(0b111, "uncompressed", 32)

    def exact_match(self, word: int) -> bool:
        return True

    def approx_match(self, word: int, mask: int) -> Optional[int]:
        return word & WORD_MASK


#: The compressible rows of Figure 5, in table (priority) order.
COMPRESSIBLE_CLASSES: Tuple[PatternClass, ...] = (
    ZeroWord(),
    SignExtended(0b001, "4-bit-sign-extended", 4),
    SignExtended(0b010, "byte-sign-extended", 8),
    SignExtended(0b011, "halfword-sign-extended", 16),
    HalfwordPaddedZero(),
    TwoHalfwordsByteSigned(),
)

UNCOMPRESSED_CLASS = Uncompressed()


#: The first four rows (zero run and the three sign-extended widths) only
#: have members in the halfword sign-extended range
#: ``[0, NARROW_POS_HI] u [NARROW_NEG_LO, 2^32)``: each narrower row's range
#: is contained in it.  A word (or masked block) outside that range can
#: skip them; the remaining rows keep their table order.
NARROW_POS_HI = 0x7FFF
NARROW_NEG_LO = (1 << 32) - 0x8000
WIDE_CLASSES: Tuple[PatternClass, ...] = COMPRESSIBLE_CLASSES[4:]


def classify_exact(word: int) -> Tuple[PatternClass, int]:
    """Highest-priority exact class of ``word`` (falls back to uncompressed).

    The uncached body of :func:`match_exact`.
    """
    word &= WORD_MASK
    rows = (WIDE_CLASSES if NARROW_POS_HI < word < NARROW_NEG_LO
            else COMPRESSIBLE_CLASSES)
    for cls in rows:
        if cls.exact_match(word):
            return cls, word
    return UNCOMPRESSED_CLASS, word


def classify_approx(word: int, mask: int) -> Tuple[PatternClass, int]:
    """Highest-priority class matching the masked word (Figure 6).

    Mirrors the paper's priority rule (§5.3.1): the *highest-priority*
    pattern wins even when a lower-priority row would have matched exactly,
    which can convert exact matches into approximate ones as the threshold
    grows.  The uncached body of :func:`match_approx`.
    """
    lo = word & ~mask & WORD_MASK
    rows = (WIDE_CLASSES if NARROW_POS_HI < lo and lo + mask < NARROW_NEG_LO
            else COMPRESSIBLE_CLASSES)
    for cls in rows:
        candidate = cls.approx_match(word, mask)
        if candidate is not None:
            return cls, candidate
    return UNCOMPRESSED_CLASS, word & WORD_MASK


#: Entries kept in each shared match cache.  Pattern matching is a pure
#: function of its arguments and the pattern table is static, so the caches
#: are safely shared by every node codec in the process; real traffic
#: re-presents the same word values constantly, making hit rates high.
MATCH_CACHE_SIZE = 1 << 17


@lru_cache(maxsize=MATCH_CACHE_SIZE)
def match_exact(word: int) -> Tuple[PatternClass, int]:
    """Memoized :func:`classify_exact`."""
    return classify_exact(word)


@lru_cache(maxsize=MATCH_CACHE_SIZE)
def match_approx(word: int, mask: int) -> Tuple[PatternClass, int]:
    """Memoized :func:`classify_approx`."""
    return classify_approx(word, mask)


def match_cache_info() -> Tuple["lru_cache", "lru_cache"]:
    """``(match_exact, match_approx)`` cache statistics."""
    return match_exact.cache_info(), match_approx.cache_info()


def clear_match_caches() -> None:
    """Drop every memoized pattern match (microbenchmarks, tests)."""
    match_exact.cache_clear()
    match_approx.cache_clear()
