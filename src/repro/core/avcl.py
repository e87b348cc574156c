"""Approximate Value Compute Logic (AVCL) — §3.2 and Figure 4 of the paper.

Given a 32-bit word and a relative error threshold *e%*, the AVCL computes

1. the **error range** the word may deviate by (a cheap shift instead of a
   multiply: ``error_range = value >> shift`` with ``shift`` precomputed from
   ``100 / e``), and
2. the **don't-care mask**: how many low-order bits of the word are free for
   approximate matching, which is what the FP-VAXX comparators and the
   DI-VAXX TCAM consume.

Integers use the full 32-bit pattern (on the magnitude of the signed value);
floats are approximated in the mantissa only.  The mantissa is extracted,
the implicit leading 1 is prepended and the 24-bit significand is zero-padded
to 32 bits so the *same* integer approximate logic is reused (Figure 4).
Floats whose exponent is 0 or 255 (zero, denormals, infinities, NaN) bypass
approximation entirely.

Two rounding modes are provided:

* ``paper`` (default) — reproduces the worked examples of §3.2:
  ``shift = floor(log2(100 / e))`` and ``dont_care = bit_length(range)``.
  (9 @ 20% -> range 2, mask ``10xx``; 128 @ 25% -> range 32.)
* ``strict`` — rounds the divisor up to the next power of two and sizes the
  mask so the worst-case deviation provably stays within the threshold.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from repro.core.block import DataType
from repro.util.bitops import (
    EXPONENT_MASK,
    EXPONENT_SHIFT,
    MANTISSA_BITS,
    MANTISSA_MASK,
    WORD_BITS,
    WORD_MASK,
    float_fields,
    fields_to_float,
    to_signed,
    to_unsigned,
)

#: Rounding behaviours supported by the AVCL shift precomputation.
MODES = ("paper", "strict")

#: Bit position of the implicit leading 1 in the padded significand.
SIGNIFICAND_BITS = MANTISSA_BITS + 1


def shift_bits_for_threshold(error_threshold_pct: float,
                             mode: str = "paper") -> int:
    """Precompute the right-shift amount that replaces the ``* e/100``.

    The hardware stores this per-threshold constant in a register; software
    recomputes it whenever the threshold is adjusted at run time (§3.2).
    """
    if not 0 < error_threshold_pct <= 100:
        raise ValueError(
            f"error threshold must be in (0, 100], got {error_threshold_pct}")
    if mode not in MODES:
        raise ValueError(f"unknown AVCL mode {mode!r}; expected one of {MODES}")
    divisor = 100.0 / error_threshold_pct
    if divisor <= 1.0:
        shift = 0
    elif mode == "paper":
        shift = int(math.floor(math.log2(divisor)))
    else:
        shift = int(math.ceil(math.log2(divisor)))
        # The strict guarantee needs 2^shift * e >= 100 *exactly* (so that
        # ``magnitude >> shift  <=  magnitude * e/100``).  float log2 can
        # round an epsilon below an integer boundary and make ceil() land
        # one short; verify in exact rational arithmetic and bump if needed.
        threshold = Fraction(error_threshold_pct)
        while Fraction(2) ** shift * threshold < 100:
            shift += 1
    if not 0 <= shift < WORD_BITS:
        raise ValueError(
            f"threshold {error_threshold_pct} needs shift {shift}, outside "
            f"the {WORD_BITS}-bit datapath")
    return shift


class ApproxInfo(NamedTuple):
    """Result of one AVCL evaluation for a single word.

    ``dont_care_bits`` low-order bits of ``pattern`` may differ between the
    word and a reference pattern while still being considered a match;
    ``mask`` has those bits set.  ``bypass`` marks float special values the
    AVCL refuses to touch.  ``pattern`` is the word actually fed to the
    matcher: the raw word for integers, the padded significand for floats.
    """

    pattern: int
    dont_care_bits: int
    error_range: int
    bypass: bool = False

    @property
    def mask(self) -> int:
        """Don't-care mask: 1s in the approximable low-order positions."""
        return (1 << self.dont_care_bits) - 1

    @property
    def care_pattern(self) -> int:
        """The word with its don't-care bits cleared (the TCAM search key)."""
        return self.pattern & ~self.mask & WORD_MASK

    def matches(self, candidate: int) -> bool:
        """Would ``candidate`` approximately match under this mask?"""
        return (candidate & ~self.mask & WORD_MASK) == self.care_pattern


# --------------------------------------------------------------------------
# Pure per-word evaluation, memoized.
#
# AVCL evaluation is a pure function of ``(word, dtype, shift, mode)``; real
# traffic re-presents the same word patterns millions of times per sweep, so
# one shared LRU cache serves every Avcl instance (and every mechanism) in
# the process.  ``ApproxInfo`` is immutable, so returning a shared instance to
# concurrent callers is safe.
# --------------------------------------------------------------------------

#: Entries kept in the shared evaluate cache.
EVALUATE_CACHE_SIZE = 1 << 17


def _evaluate_int(word: int, shift: int, mode: str) -> ApproxInfo:
    """Uncached integer evaluation (the body of :meth:`Avcl.evaluate_int`)."""
    word = to_unsigned(word)
    magnitude = abs(to_signed(word))
    rng = magnitude >> shift
    if rng <= 0:
        k = 0
    elif mode == "paper":
        k = rng.bit_length()
    else:  # strict: require 2^k - 1 <= error_range
        k = (rng + 1).bit_length() - 1
    return ApproxInfo(pattern=word, dont_care_bits=k, error_range=rng)


def _evaluate_float(word: int, shift: int, mode: str) -> ApproxInfo:
    """Uncached float evaluation (the body of :meth:`Avcl.evaluate_float`)."""
    significand = Avcl.extract_significand(word)
    if significand is None:
        return ApproxInfo(pattern=to_unsigned(word), dont_care_bits=0,
                          error_range=0, bypass=True)
    rng = significand >> shift
    if rng <= 0:
        k = 0
    elif mode == "paper":
        k = rng.bit_length()
    else:
        k = (rng + 1).bit_length() - 1
    # Never let the mask reach the implicit leading 1 (bit 23): the
    # exponent is not approximated, so the significand must stay
    # normalized.
    k = min(k, MANTISSA_BITS)
    return ApproxInfo(pattern=significand, dont_care_bits=k, error_range=rng)


@lru_cache(maxsize=EVALUATE_CACHE_SIZE)
def _evaluate_cached(word: int, dtype: DataType, shift: int,
                     mode: str) -> ApproxInfo:
    """Shared memoized AVCL evaluation."""
    if dtype is DataType.INT:
        return _evaluate_int(word, shift, mode)
    return _evaluate_float(word, shift, mode)


def evaluate_cache_info() -> "functools._CacheInfo":
    """``functools.lru_cache`` statistics of the shared evaluate cache."""
    return _evaluate_cached.cache_info()


def clear_evaluate_cache() -> None:
    """Drop every memoized AVCL evaluation (microbenchmarks, tests)."""
    _evaluate_cached.cache_clear()


class Avcl:
    """The approximate value compute logic of Figure 4.

    One instance is configured with an error threshold and rounding mode;
    the per-word entry points are :meth:`evaluate_int` /
    :meth:`evaluate_float` / the dtype-dispatching :meth:`evaluate`.
    """

    def __init__(self, error_threshold_pct: float = 10.0,
                 mode: str = "paper"):
        self._threshold = float(error_threshold_pct)
        self._mode = mode
        self._shift = shift_bits_for_threshold(error_threshold_pct, mode)

    @property
    def error_threshold_pct(self) -> float:
        """Configured relative error threshold, in percent."""
        return self._threshold

    @property
    def mode(self) -> str:
        """Rounding mode (``paper`` or ``strict``)."""
        return self._mode

    @property
    def shift(self) -> int:
        """Precomputed shift implementing the divide by ``100/e``."""
        return self._shift

    def set_threshold(self, error_threshold_pct: float) -> None:
        """Adjust the threshold at run time (§3.2: dynamically adjustable)."""
        self._threshold = float(error_threshold_pct)
        self._shift = shift_bits_for_threshold(error_threshold_pct, self._mode)

    # ----------------------------------------------------------- integers

    def error_range(self, magnitude: int) -> int:
        """Largest absolute deviation allowed for a value of this magnitude."""
        if magnitude < 0:
            raise ValueError("error_range expects a magnitude (>= 0)")
        return magnitude >> self._shift

    def dont_care_bits(self, magnitude: int) -> int:
        """Number of low-order don't-care bits for this magnitude.

        ``paper`` mode uses ``bit_length(error_range)`` (mask may slightly
        exceed the nominal threshold, matching the paper's 9 @ 20% -> ``10xx``
        example); ``strict`` mode shrinks the mask until the worst-case
        deviation ``2^k - 1`` is within the error range.
        """
        rng = self.error_range(magnitude)
        if rng <= 0:
            return 0
        if self._mode == "paper":
            return rng.bit_length()
        # strict: require 2^k - 1 <= error_range
        return (rng + 1).bit_length() - 1

    def evaluate_int(self, word: int) -> ApproxInfo:
        """Evaluate a 32-bit integer word."""
        return _evaluate_cached(to_unsigned(word), DataType.INT,
                                self._shift, self._mode)

    # ------------------------------------------------------------- floats

    @staticmethod
    def bypass(word: int) -> bool:
        """Float exponent detection of Figure 4: True when ``word`` is a
        special value (exponent 0 or all-ones) that bypasses the AVCL."""
        exponent = (word >> EXPONENT_SHIFT) & EXPONENT_MASK
        return exponent == 0 or exponent == EXPONENT_MASK

    @staticmethod
    def extract_significand(word: int) -> Optional[int]:
        """Mantissa extraction of Figure 4.

        Returns the 24-bit significand (implicit 1 prepended, zero-padded to
        32 bits) or ``None`` when the float exponent detection logic flags a
        special value (exponent 0 or all-ones) that must bypass the AVCL.
        """
        if Avcl.bypass(word):
            return None
        return (1 << MANTISSA_BITS) | (word & MANTISSA_MASK)

    @staticmethod
    def replace_significand(word: int, significand: int) -> int:
        """Re-insert an approximated significand into the original float.

        The implicit leading 1 is stripped; sign and exponent are preserved
        exactly (only the mantissa field is ever approximated).
        """
        if not (1 << MANTISSA_BITS) <= significand < (1 << SIGNIFICAND_BITS):
            raise ValueError(
                f"significand {significand:#x} lost its implicit leading 1")
        sign, exponent, _ = float_fields(word)
        return fields_to_float(sign, exponent, significand & MANTISSA_MASK)

    def evaluate_float(self, word: int) -> ApproxInfo:
        """Evaluate a float word; special values come back with ``bypass``."""
        return _evaluate_cached(to_unsigned(word), DataType.FLOAT,
                                self._shift, self._mode)

    # ----------------------------------------------------------- dispatch

    def evaluate(self, word: int, dtype: DataType) -> ApproxInfo:
        """Evaluate a word according to the block's data type (memoized)."""
        return _evaluate_cached(to_unsigned(word), dtype,
                                self._shift, self._mode)
