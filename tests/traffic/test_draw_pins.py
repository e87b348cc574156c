"""History pins for the stochastic traffic sources.

Each digest hashes the first 2,000 cycles of requests a source emits —
``(cycle, src, dst, kind, words, dtype, approximable)`` per request — so
any change to the RNG draw sequence (how many draws, in which order, which
distribution) shows up here, not only as a moved figure row.  A change that
alters the draw sequence on purpose regenerates these digests and says why
in CHANGES.md.
"""

import hashlib

import pytest

from repro.noc import NocConfig
from repro.traffic import BenchmarkTraffic, SyntheticTraffic, get_benchmark

CYCLES = 2000


def _digest(source) -> str:
    h = hashlib.sha256()
    for cycle in range(CYCLES):
        for req in source.generate(cycle):
            block = req.block
            row = (cycle, req.src, req.dst, req.kind.value,
                   None if block is None else
                   (block.words, block.dtype.value, block.approximable))
            h.update(repr(row).encode())
    return h.hexdigest()


def _synthetic(pattern: str, benchmark: str) -> SyntheticTraffic:
    return SyntheticTraffic(NocConfig(), pattern=pattern, injection_rate=0.3,
                            data_ratio=0.5,
                            value_model=get_benchmark(benchmark).model,
                            seed=7)


SYNTHETIC_PINS = {
    ("uniform_random", "blackscholes"):
        "544731d56041ef6fee6d98c8a33df250d16d138c9c30387e49025be69549e8d3",
    ("uniform_random", "ssca2"):
        "48a843146059e8acd1b5cb13bc270c4c5c826a53e0a7795248808d0d0e9cc6e6",
    ("transpose", "blackscholes"):
        "75123a0823ab22c75371ea127fecd3ab27c9eba1d291442b3feccd9548b30100",
    ("transpose", "ssca2"):
        "beba4a788b93ba5bc9b0a3471e56b69e1bb9788ac6c43861cd4f8c6b6c0030ef",
}

BENCHMARK_PINS = {
    "canneal":
        "7fffa9ba43bb6a6789dc0cc8e780be265dbd2893c2edbf9257d7b45bf3b2eca6",
    "blackscholes":
        "5b88af42406e4cf61591ab5ba0bce1114b5142caeef5226708cb78d72fa6100c",
}


@pytest.mark.parametrize("pattern,model", sorted(SYNTHETIC_PINS))
def test_synthetic_draws_are_pinned(pattern, model):
    assert (_digest(_synthetic(pattern, model))
            == SYNTHETIC_PINS[(pattern, model)])


@pytest.mark.parametrize("name", sorted(BENCHMARK_PINS))
def test_benchmark_draws_are_pinned(name):
    source = BenchmarkTraffic(NocConfig(), get_benchmark(name), seed=7)
    assert _digest(source) == BENCHMARK_PINS[name]
