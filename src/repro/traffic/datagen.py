"""Benchmark value-locality models — the gem5/PARSEC trace substitute.

What APPROX-NoC exploits in application traffic is entirely captured by the
*value content* of data packets (§2.1): exact repetition of patterns
(compression), approximate similarity between patterns (VAXX), the int/float
mix, and how the working set of values drifts over time (which is what makes
dictionary mechanisms re-learn, §5.2.1).  This module models those properties
directly, per benchmark, instead of replaying the authors' gem5 traces which
we do not have.  See DESIGN.md §4 for the substitution rationale.

A :class:`ValueModel` produces cache blocks from a mixture distribution:

* ``p_zero`` — the word is zero (zero runs dominate real cache traffic);
* ``p_small`` — a narrow integer (sign-extends from a byte);
* ``p_pool`` — a draw from a slowly drifting *working-set pool* of base
  values, perturbed by ``cluster_noise`` relative jitter.  Exact repetition
  (compression) comes from zero-noise draws; approximate similarity (VAXX)
  from the jittered ones;
* remainder — a full-entropy random word (incompressible).

``phase_length`` blocks between pool mutations models program phases.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import List

from repro.core.block import CacheBlock, DataType
from repro.util.bitops import WORD_MASK
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class ValueModel:
    """Parameters of one benchmark's data-value distribution."""

    name: str
    dtype: DataType = DataType.INT
    p_zero: float = 0.2
    p_small: float = 0.2
    p_pool: float = 0.4
    pool_size: int = 16
    #: Relative jitter applied to pool draws (0 = exact repetition only).
    cluster_noise: float = 0.02
    #: Fraction of pool draws that repeat the base value exactly.
    exact_repeat: float = 0.5
    #: Blocks between working-set mutations (program phase length).
    phase_length: int = 200
    #: Fraction of the pool replaced at each phase change.
    phase_churn: float = 0.25
    #: Magnitude scale of generated values.
    scale: float = 1e4
    #: Zipf exponent for pool draws: hot values dominate real cache traffic
    #: (a handful of frequent values carries most of the repetition that
    #: dictionary compression exploits).  0 = uniform pool.
    pool_zipf: float = 1.2
    #: Probability a whole block is *array-like*: every word is the same
    #: pool base plus a small delta (what base-delta compression exploits,
    #: and a strong case for dictionary/approximate matching too).
    p_block_coherent: float = 0.15
    #: Relative spread of the deltas inside a coherent block.
    coherent_spread: float = 0.002

    def __post_init__(self) -> None:
        total = self.p_zero + self.p_small + self.p_pool
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"{self.name}: mixture probabilities sum to {total} > 1")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")


class BlockGenerator:
    """Stateful generator of cache blocks following a :class:`ValueModel`.

    Draw-sequence contract: every block consumes the RNG in the same
    order, draw for draw, as the straightforward per-word formulation
    (``bernoulli`` per decision, ``random.choices`` per Zipf pool draw);
    the loops below only inline those draws.
    """

    def __init__(self, model: ValueModel, rng: DeterministicRng):
        self.model = model
        self._rng = rng
        self._blocks_emitted = 0
        self._pool: List[float] = [self._base_value()
                                   for _ in range(model.pool_size)]
        weights = [1.0 / (rank + 1) ** model.pool_zipf
                   for rank in range(model.pool_size)]
        # What ``random.choices(pool, weights)`` computes on every call:
        # the cumulative weights, their float total and the bisect bound.
        self._pool_cum = list(accumulate(weights))
        self._pool_total = self._pool_cum[-1] + 0.0
        self._pool_hi = len(weights) - 1

    def _base_value(self) -> float:
        """A fresh working-set base value."""
        magnitude = self._rng.expovariate(1.0 / self.model.scale)
        sign = -1.0 if self._rng.bernoulli(0.3) else 1.0
        return sign * max(magnitude, 1.0)

    def _mutate_pool(self) -> None:
        """Phase change: replace a fraction of the working set.

        Mutation prefers the cold (high-rank) end of the pool: a program
        phase change swaps working-set values, but globally hot constants
        (0-adjacent sentinels, scale factors) persist.
        """
        replace = max(1, int(len(self._pool) * self.model.phase_churn))
        cold_start = len(self._pool) - max(replace * 2, 1)
        for _ in range(replace):
            index = self._rng.randint(max(cold_start, 0),
                                      len(self._pool) - 1)
            self._pool[index] = self._base_value()

    def _pool_base(self) -> float:
        """One Zipf-weighted pool draw, bit-identical to
        ``random.choices(pool, weights)[0]`` (one ``random()`` draw)."""
        return self._pool[bisect_right(
            self._pool_cum, self._rng.uniform() * self._pool_total, 0,
            self._pool_hi)]

    def _mixture_values(self, words: int) -> List[float]:
        """``words`` draws from the mixture (as floats; encoded later)."""
        model = self.model
        rng = self._rng
        uniform = rng.uniform
        p_zero, p_small, p_pool = model.p_zero, model.p_small, model.p_pool
        exact_repeat, noise = model.exact_repeat, model.cluster_noise
        values: List[float] = []
        append = values.append
        for _ in range(words):
            r = uniform()
            if r < p_zero:
                append(0.0)
                continue
            r -= p_zero
            if r < p_small:
                append(float(rng.randint(-128, 127)))
                continue
            r -= p_small
            if r < p_pool:
                base = self._pool_base()
                if uniform() < exact_repeat:
                    append(base)
                else:
                    append(base * (1.0 + rng.gauss(0.0, noise)))
                continue
            # Incompressible tail: full-entropy pattern.
            append(float(rng.randbits(31) - (1 << 30)))
        return values

    def _coherent_values(self, words: int) -> List[float]:
        """An array-like block: one base value plus small deltas."""
        base = self._pool_base()
        spread = abs(base) * self.model.coherent_spread + 1.0
        gauss = self._rng.gauss
        return [base + gauss(0.0, spread) for _ in range(words)]

    def next_block(self, words: int = 16,
                   approximable: bool = True) -> CacheBlock:
        """Produce the next cache block of the stream."""
        self._blocks_emitted += 1
        if self._blocks_emitted % self.model.phase_length == 0:
            self._mutate_pool()
        if self._rng.uniform() < self.model.p_block_coherent:
            values = self._coherent_values(words)
        else:
            values = self._mixture_values(words)
        if self.model.dtype is DataType.FLOAT:
            return CacheBlock.from_floats(values, approximable=approximable)
        return CacheBlock(tuple(int(v) & WORD_MASK for v in values),
                          dtype=DataType.INT, approximable=approximable)
