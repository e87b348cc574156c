"""Tests for the deterministic RNG wrapper."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRng(42), DeterministicRng(42)
        assert [a.random() for _ in range(20)] == \
            [b.random() for _ in range(20)]

    def test_different_seeds_differ(self):
        a, b = DeterministicRng(1), DeterministicRng(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != \
            [b.randint(0, 10**9) for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(7).fork(3)
        b = DeterministicRng(7).fork(3)
        assert a.random() == b.random()

    def test_forks_are_independent(self):
        parent = DeterministicRng(7)
        child = parent.fork(1)
        before = parent.random()
        child.random()
        # consuming the child does not perturb the parent's stream
        again = DeterministicRng(7)
        again.fork(1)
        assert again.random() == before

    def test_seed_property(self):
        assert DeterministicRng(9).seed == 9


class TestDistributions:
    def test_bernoulli_extremes(self):
        rng = DeterministicRng(1)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))

    def test_bernoulli_rate(self):
        rng = DeterministicRng(2)
        hits = sum(rng.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_randint_in_range(self, low, span):
        rng = DeterministicRng(3)
        value = rng.randint(low, low + span)
        assert low <= value <= low + span

    def test_randbits_width(self):
        rng = DeterministicRng(4)
        for _ in range(50):
            assert 0 <= rng.randbits(32) < 2**32

    def test_choice(self):
        rng = DeterministicRng(5)
        items = ["a", "b", "c"]
        assert rng.choice(items) in items

    def test_uniform_draw_is_the_bernoulli_draw(self):
        inlined, wrapped = DeterministicRng(9), DeterministicRng(9)
        uniform = inlined.uniform
        for p in (0.1, 0.5, 0.9) * 20:
            assert (uniform() < p) == wrapped.bernoulli(p)
        assert inlined.random() == wrapped.random()

    def test_shuffle_permutes(self):
        rng = DeterministicRng(6)
        items = list(range(20))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_gauss_and_expovariate_finite(self):
        rng = DeterministicRng(7)
        assert abs(rng.gauss(0, 1)) < 10
        assert rng.expovariate(1.0) >= 0
