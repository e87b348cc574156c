"""History pins for every codec's encode/decode outputs.

A seeded stream of cache blocks (two float and two integer value models,
plus hand-made blocks of float special values and integer extremes) runs
through each mechanism's ``roundtrip``.  The digest covers every word's
``(decoded, bits, compressed, approximated, code)``, each block's
``size_bits`` and codec-latency overrides, and the final ``SchemeStats``
and ``QualityTracker`` fields (floats via ``repr``, so ``error_sum`` is
pinned bit for bit).  Sibling comparisons cannot catch a change every codec
shares; these pins can.  A change that moves codec outputs on purpose
regenerates the digests and says why in CHANGES.md.
"""

import hashlib
import math
from dataclasses import fields

import pytest

from repro.compression import (
    AdaptiveScheme,
    BaselineScheme,
    BdCompScheme,
    BdVaxxScheme,
    DiCompScheme,
    FpCompScheme,
)
from repro.core import DiVaxxScheme, FpVaxxScheme
from repro.core.block import CacheBlock, DataType
from repro.core.error_control import WindowErrorBudget
from repro.traffic import get_benchmark
from repro.traffic.datagen import BlockGenerator
from repro.util.rng import DeterministicRng

N_NODES = 8
BLOCKS = 480
MODELS = ("blackscholes", "ssca2", "streamcluster", "canneal")

#: Blocks the value models never produce: the AVCL float bypass (zero,
#: denormals, infinities, NaN), the largest normal floats and the integer
#: extremes.
SPECIAL_BLOCKS = (
    CacheBlock.from_floats(
        [0.0, -0.0, 1e-40, -1e-41, math.inf, -math.inf, math.nan, 1.0,
         3.4e38, -3.4e38, 1.17549435e-38, 2.0, 2.0009765625, 1e-3, 7.5, 0.0],
        approximable=True),
    CacheBlock((0x7FC00001, 0xFF800000, 0x00000001, 0x807FFFFF) * 4,
               dtype=DataType.FLOAT, approximable=True),
    CacheBlock.from_ints(
        [-2**31, 2**31 - 1, -1, 0, 1, 127, -128, 32767, -32768, 65536,
         0x7FFF0000, -0x10000, 9, 10, 11, 12],
        approximable=True),
)


def _block_stream():
    rng = DeterministicRng(2024)
    generators = [BlockGenerator(get_benchmark(name).model, rng.fork(i))
                  for i, name in enumerate(MODELS)]
    for i in range(BLOCKS):
        if i % 40 == 39:
            block = SPECIAL_BLOCKS[(i // 40) % len(SPECIAL_BLOCKS)]
        else:
            gen = generators[rng.randint(0, len(generators) - 1)]
            block = gen.next_block(approximable=rng.bernoulli(0.75))
        src = rng.randint(0, N_NODES - 1)
        dst = rng.randint(0, N_NODES - 2)
        if dst >= src:
            dst += 1
        yield block, src, dst


def _fields(obj) -> tuple:
    return tuple((f.name, repr(getattr(obj, f.name))) for f in fields(obj))


def _digest(scheme) -> str:
    h = hashlib.sha256()
    for block, src, dst in _block_stream():
        decoded, encoded = scheme.roundtrip(block, src, dst)
        words = tuple((w.decoded, w.bits, w.compressed, w.approximated,
                       w.code) for w in encoded.words)
        row = (words, encoded.size_bits, encoded.compression_cycles,
               encoded.decompression_cycles, decoded.words)
        h.update(repr(row).encode())
    h.update(repr(_fields(scheme.stats)).encode())
    h.update(repr(_fields(scheme.quality)).encode())
    return h.hexdigest()


def _window():
    return WindowErrorBudget(threshold_pct=2.0, window=4)


SCHEMES = {
    "Baseline": lambda: BaselineScheme(N_NODES),
    "DI-COMP": lambda: DiCompScheme(N_NODES),
    "FP-COMP": lambda: FpCompScheme(N_NODES),
    "BD-COMP": lambda: BdCompScheme(N_NODES),
    "BD-VAXX": lambda: BdVaxxScheme(N_NODES),
    "Adaptive(FP-VAXX)": lambda: AdaptiveScheme(FpVaxxScheme(N_NODES)),
    "FP-VAXX/window": lambda: FpVaxxScheme(N_NODES, budget_factory=_window),
    "DI-VAXX/window": lambda: DiVaxxScheme(N_NODES, budget_factory=_window),
    "BD-VAXX/window": lambda: BdVaxxScheme(N_NODES, budget_factory=_window),
}
for _pct in (5.0, 10.0, 20.0):
    for _mode in ("paper", "strict"):
        SCHEMES[f"FP-VAXX/{_pct:g}/{_mode}"] = (
            lambda p=_pct, m=_mode: FpVaxxScheme(
                N_NODES, error_threshold_pct=p, avcl_mode=m))
        SCHEMES[f"DI-VAXX/{_pct:g}/{_mode}"] = (
            lambda p=_pct, m=_mode: DiVaxxScheme(
                N_NODES, error_threshold_pct=p, avcl_mode=m))

PINS = {
    "Adaptive(FP-VAXX)":
        "e4934c6d11af7b19f1b1864c97a6c78309a2433888786a8f8a3ff1dcdd03c956",
    "BD-COMP":
        "b97381965b29f9a97750d626230aaa253934f3f51f804f38246418b1da71be61",
    "BD-VAXX":
        "c4ce8077ee5414f2e8439ff514b9d357f1fe892949188f37a4f5d0cd5fb5fbd6",
    "BD-VAXX/window":
        "c4ce8077ee5414f2e8439ff514b9d357f1fe892949188f37a4f5d0cd5fb5fbd6",
    "Baseline":
        "0e7401f38efc768943619a3bb2feb4133a4dbd885ac598e7e3d0540942eee736",
    "DI-COMP":
        "3d12c5a751436143cda62488cd72dcaea90194e74f504bff27cc61028d06eb67",
    "DI-VAXX/10/paper":
        "a454cd2ca62445bdd71a0b1e770f85c6b51cc9aa8510a66544d3bc8395446ae2",
    "DI-VAXX/10/strict":
        "d2c82ca1f9ae818652fcb45762bf91160e2bf6c9f140182843bb34cc2d0ccebf",
    "DI-VAXX/20/paper":
        "d192287d406d5734d4483d3a4ce672fd046acd698fb4001f0f298a58e22e7e71",
    "DI-VAXX/20/strict":
        "dbfb6234858fd69c5dd6721b3c07da7364adbbd240d19a1feb01cad78a5a72a4",
    "DI-VAXX/5/paper":
        "dbfb6234858fd69c5dd6721b3c07da7364adbbd240d19a1feb01cad78a5a72a4",
    "DI-VAXX/5/strict":
        "bcf812b06bc6e7b345e6d0ab42724b633b31bcc6691ff4b5c5291d9914178b6d",
    "DI-VAXX/window":
        "890ec70ea0683672488645e51e6e2e104c382c0a8cbdbd223d2d0ee9b4aded95",
    "FP-COMP":
        "af32a112f8d44d92d31366636d992ae7f312bc04e430bf364eb38f5ff688c4b0",
    "FP-VAXX/10/paper":
        "e4934c6d11af7b19f1b1864c97a6c78309a2433888786a8f8a3ff1dcdd03c956",
    "FP-VAXX/10/strict":
        "3827826d43baa977d6374ef74dc7772a69f6e01c898bcf41528f7deec8f543f8",
    "FP-VAXX/20/paper":
        "a8fb980a20ec5c3f713f0ef864cd2ccef15a938baa118b370d9625b1d356daf3",
    "FP-VAXX/20/strict":
        "0a674e3e49dbd8c61e5a95e7ddbfa8a51c5905ea8a7ce97d3f30ce16c3651ea5",
    "FP-VAXX/5/paper":
        "0a674e3e49dbd8c61e5a95e7ddbfa8a51c5905ea8a7ce97d3f30ce16c3651ea5",
    "FP-VAXX/5/strict":
        "8b7ab818aa5e6ad5e52e7b770031d869a193521b293d32b9a6acdcb9f2363c27",
    "FP-VAXX/window":
        "25315e32cb7564e38c342cfd41e91f530e9e8e55a5515e676ec8de54901b947d",
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_encode_outputs_are_pinned(name):
    assert _digest(SCHEMES[name]()) == PINS[name]
