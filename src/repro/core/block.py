"""Cache-block data model.

APPROX-NoC compresses *cache blocks* — fixed-size vectors of 32-bit words —
annotated with the two pieces of metadata the paper assumes travel with the
access request (§3.2, §5.1):

* whether the block is **approximable** (compiler/programmer annotation), and
* the **data type** of its words (integer or IEEE-754 single float; a block
  is only approximated when *all* its words share one type).
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.util.bitops import (
    WORD_MASK,
    bits_to_float,
    to_signed,
    to_unsigned,
)

#: Default cache block geometry (Table 1: 64-byte lines of 4-byte words).
WORD_BYTES = 4
BLOCK_BYTES = 64
WORDS_PER_BLOCK = BLOCK_BYTES // WORD_BYTES


class DataType(enum.Enum):
    """Word interpretation carried as block metadata."""

    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True)
class CacheBlock:
    """An immutable cache block: raw 32-bit word patterns plus metadata.

    ``words`` always stores raw unsigned 32-bit patterns; use
    :meth:`as_ints` / :meth:`as_floats` for typed views and the
    :meth:`from_ints` / :meth:`from_floats` constructors to build blocks from
    typed values.
    """

    words: Tuple[int, ...]
    dtype: DataType = DataType.INT
    approximable: bool = False

    def __post_init__(self) -> None:
        words = self.words
        if not words:
            raise ValueError("a cache block must contain at least one word")
        if min(words) < 0 or max(words) > WORD_MASK:
            object.__setattr__(self, "words",
                               tuple(w & WORD_MASK for w in words))

    @classmethod
    def from_ints(cls, values: Iterable[int],
                  approximable: bool = False) -> "CacheBlock":
        """Build an integer block from signed Python ints."""
        return cls(tuple(to_unsigned(v) for v in values),
                   dtype=DataType.INT, approximable=approximable)

    @classmethod
    def from_floats(cls, values: Iterable[float],
                    approximable: bool = False) -> "CacheBlock":
        """Build a float block from Python floats (stored as float32 bits).

        One ``struct`` round trip packs the whole block; it rounds each
        value exactly as :func:`~repro.util.bitops.float_to_bits` does.
        """
        floats = tuple(values)
        n = len(floats)
        return cls(struct.unpack(f"<{n}I", struct.pack(f"<{n}f", *floats)),
                   dtype=DataType.FLOAT, approximable=approximable)

    @property
    def size_bytes(self) -> int:
        """Uncompressed payload size of the block."""
        return len(self.words) * WORD_BYTES

    @property
    def size_bits(self) -> int:
        """Uncompressed payload size of the block, in bits."""
        return len(self.words) * WORD_BYTES * 8

    def as_ints(self) -> List[int]:
        """Words as signed integers."""
        return [to_signed(w) for w in self.words]

    def as_floats(self) -> List[float]:
        """Words as float32 values."""
        return [bits_to_float(w) for w in self.words]

    def replace_words(self, words: Sequence[int]) -> "CacheBlock":
        """A copy of this block with different word patterns."""
        return CacheBlock(tuple(words), dtype=self.dtype,
                          approximable=self.approximable)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[int]:
        return iter(self.words)


#: Two words packed, then read back as two float32 values: one ``struct``
#: round trip instead of two :func:`~repro.util.bitops.bits_to_float` calls.
_WORD_PAIR = struct.Struct("<2I")
_FLOAT_PAIR = struct.Struct("<2f")


def relative_word_error(precise: int, approx: int, dtype: DataType) -> float:
    """Relative error between a precise and an approximated word pattern.

    For integers the error is measured on the signed values; for floats it is
    measured on the decoded float32 values, with special values (inf/NaN)
    contributing 0 when unchanged and 1 when corrupted — the AVCL is supposed
    to bypass them entirely.
    """
    if dtype is DataType.INT:
        p, a = to_signed(precise), to_signed(approx)
        return abs(a - p) / max(abs(p), 1)
    pf, af = _FLOAT_PAIR.unpack(_WORD_PAIR.pack(precise & WORD_MASK,
                                                approx & WORD_MASK))
    if pf != pf or af != af:  # NaN on either side
        return 0.0 if precise == approx else 1.0
    if math.isinf(pf) or math.isinf(af):
        return 0.0 if pf == af else 1.0
    # The 1e-30 clamp keeps the divisor positive; the int-interval
    # domain cannot represent float constants.  # repro: allow[possible-zero-div]
    return abs(af - pf) / max(abs(pf), 1e-30)
