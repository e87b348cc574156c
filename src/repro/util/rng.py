"""Deterministic random number generation for reproducible experiments.

Every stochastic component (traffic injection, workload value models, cache
access streams) draws from a :class:`DeterministicRng` seeded from the
experiment configuration, so a figure regenerated twice produces identical
rows.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A thin, seedable wrapper around :class:`random.Random`.

    The wrapper exists so components never touch the global ``random`` module
    and so child generators can be forked deterministically (``fork``), which
    keeps per-node traffic streams independent of simulation interleaving.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def seed(self) -> int:
        """Seed this generator was created with."""
        return self._seed

    def fork(self, salt: int) -> "DeterministicRng":
        """Create an independent child generator for subcomponent ``salt``."""
        return DeterministicRng((self._seed * 1000003 + salt) & 0x7FFFFFFF)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    @property
    def uniform(self) -> Callable[[], float]:
        """The underlying generator's bound ``random`` method.

        Hot loops bind it once and inline their Bernoulli draws as
        ``uniform() < p``: that consumes exactly the draw
        :meth:`bernoulli` does, without a wrapper call per draw.
        """
        return self._rng.random

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def randbits(self, bits: int) -> int:
        """Uniform integer with ``bits`` random bits."""
        return self._rng.getrandbits(bits)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of ``items``."""
        return self._rng.choice(items)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._rng.gauss(mu, sigma)

    def expovariate(self, lam: float) -> float:
        """Exponential variate with rate ``lam``."""
        return self._rng.expovariate(lam)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        return self._rng.random() < p
