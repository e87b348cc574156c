"""Approximate Pattern Compute Logic (APCL) and ternary patterns — Figure 8.

DI-VAXX moves the AVCL off the critical path by computing, *when a reference
pattern is recorded in the dictionary*, the ternary (TCAM) form of that
pattern: the value with its low-order don't-care bits marked ``x``.  Any
later word then matches against the stored ternary patterns in a single TCAM
search.

A :class:`TernaryPattern` is the software model of one TCAM entry:
``value`` with the bits selected by ``mask`` treated as don't cares.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.avcl import Avcl
from repro.core.block import DataType
from repro.util.bitops import WORD_MASK


@dataclass(frozen=True)
class TernaryPattern:
    """A TCAM entry: ``value`` with ``mask`` bits as don't cares."""

    value: int
    mask: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & WORD_MASK)
        object.__setattr__(self, "mask", self.mask & WORD_MASK)

    @property
    def care_mask(self) -> int:
        """The care-bit positions (the complement of the don't cares)."""
        return ~self.mask & WORD_MASK

    @property
    def care_value(self) -> int:
        """The stored value restricted to its care bits."""
        return self.value & ~self.mask & WORD_MASK

    def matches(self, word: int) -> bool:
        """TCAM match: compare only the care bits."""
        return (word & ~self.mask & WORD_MASK) == self.care_value

    def dont_care_bits(self) -> int:
        """Number of don't-care bit positions."""
        return bin(self.mask).count("1")

    def covers(self, other: "TernaryPattern") -> bool:
        """True when every word matching ``other`` also matches ``self``.

        ``self`` covers ``other`` iff every care bit of ``self`` is also a
        care bit of ``other`` and the two agree on those positions.
        """
        care = ~self.mask & WORD_MASK
        return (other.mask & care) == 0 and (
            (other.value & care) == (self.value & care))

    def __str__(self) -> str:
        chars = []
        for bit in range(31, -1, -1):
            if (self.mask >> bit) & 1:
                chars.append("x")
            else:
                chars.append(str((self.value >> bit) & 1))
        return "".join(chars)


class Apcl:
    """Computes the ternary (approximate) form of a reference pattern.

    Thin wrapper over the AVCL: the don't-care computation is identical, only
    the *moment* it runs differs (pattern-record time instead of packet
    injection time).
    """

    def __init__(self, avcl: Avcl):
        self._avcl = avcl

    @property
    def avcl(self) -> Avcl:
        """Underlying approximate value compute logic."""
        return self._avcl

    def compute(self, word: int, dtype: DataType) -> TernaryPattern:
        """Ternary pattern for a recorded reference word, in *word space*.

        The TCAM is searched with raw word patterns, so the ternary value is
        always the original word; only the mask width comes from the
        dtype-specific AVCL evaluation.  For floats the mask covers low
        mantissa bits (which are also the word's low bits — the significand
        scaling of Figure 4 only affects the error-range magnitude), so sign
        and exponent stay care bits.  Float special values (AVCL bypass)
        come back with an empty mask, i.e. only an exact TCAM match can hit
        them.
        """
        info = self._avcl.evaluate(word, dtype)
        if info.bypass:
            return TernaryPattern(value=word, mask=0)
        return TernaryPattern(value=word, mask=info.mask)
