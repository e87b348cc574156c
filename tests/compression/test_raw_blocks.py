"""The raw ``EncodedBlock`` form behaves exactly like the per-word form.

Baseline and every raw fallback ship a block as ``EncodedBlock(raw=...)``
and build no per-word ``WordEncoding``.  Each reader of encoded words -
the decoders, the fault layer's corruption models and NoCSan's delivery
oracle - must treat it like the equivalent per-word block of verbatim
words.
"""

import pytest

from repro.compression import (
    AdaptiveScheme,
    BaselineScheme,
    DiCompScheme,
    EncodedBlock,
    FpCompScheme,
)
from repro.core import CacheBlock, DiVaxxScheme, FpVaxxScheme
from repro.core.block import DataType
from repro.faults import FaultConfig
from repro.faults.inject import FaultInjector
from repro.noc import Network, PacketKind
from repro.noc.config import NocConfig, TINY_CONFIG
from repro.noc.packet import Packet, fragment
from repro.noc.topology import MeshTopology, NUM_DIRECTIONS
from repro.verify.sanitizer import SanitizerError

WORDS = (0x3F800000, 0x40490FDB, 0xC2C80000, 0x00000000, 0x3DCCCCCD,
         0x7F7FFFFF, 0x00000001, 0xBF000000) * 2
BLOCK = CacheBlock(WORDS, dtype=DataType.FLOAT, approximable=True)


def both_forms():
    """The raw block as Baseline encodes it, and its per-word twin."""
    raw = BaselineScheme(4).node(0).encode(BLOCK, 1)
    coded = EncodedBlock(words=raw.words, dtype=raw.dtype,
                         approximable=raw.approximable,
                         size_bits=raw.size_bits)
    return raw, coded


def test_baseline_ships_raw_and_materializes_verbatim_words():
    raw, coded = both_forms()
    assert raw.raw == WORDS
    assert raw.decoded_words() == coded.decoded_words() == WORDS
    assert all(w.original == w.decoded and w.bits == 32
               and not w.compressed and not w.approximated
               and w.error == 0.0 for w in raw.words)
    assert raw.original_bits == coded.original_bits == 32 * len(WORDS)
    assert raw.compression_ratio == coded.compression_ratio == 1.0


def test_raw_fallback_is_the_raw_form():
    # Random-looking words defeat FP-COMP, which then ships the block raw.
    block = CacheBlock((0x9E3779B9, 0x7F4A7C15, 0xF39CC060, 0x5CEDC834) * 4)
    encoded = FpCompScheme(4).node(0).encode(block, 1)
    assert encoded.raw == block.words


def test_an_encoded_block_has_exactly_one_form():
    with pytest.raises(ValueError):
        EncodedBlock(dtype=DataType.INT, approximable=False, size_bits=0)
    with pytest.raises(ValueError):
        EncodedBlock(words=[], raw=(), dtype=DataType.INT,
                     approximable=False, size_bits=0)


@pytest.mark.parametrize("make", [
    lambda: BaselineScheme(4),
    lambda: FpCompScheme(4),
    lambda: FpVaxxScheme(4),
    lambda: DiCompScheme(4, detect_threshold=2),
    lambda: DiVaxxScheme(4, detect_threshold=2),
    lambda: AdaptiveScheme(FpVaxxScheme(4)),
], ids=["Baseline", "FP-COMP", "FP-VAXX", "DI-COMP", "DI-VAXX",
        "Adaptive"])
def test_decoders_treat_both_forms_alike(make):
    """Same recovered block, same notifications and the same decoder
    learning (the repeated words cross the DI detection threshold)."""
    outcomes = []
    for encoded in both_forms():
        scheme = make()
        first = scheme.node(1).decode(encoded, 0)
        second = scheme.node(1).decode(encoded, 0)
        outcomes.append((first.block, first.notifications,
                         second.block, second.notifications,
                         scheme.stats))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].words == WORDS


def _link(topology):
    for rid in range(TINY_CONFIG.n_routers):
        for port in range(NUM_DIRECTIONS):
            if topology.link(rid, port) is not None:
                return rid, port
    raise AssertionError("no link in the tiny mesh")


@pytest.mark.parametrize("fault", [
    {"bitflip_rate": 1.0},
    {"drop_rate": 1.0},
    {"stuck_rate": 1.0, "stuck_duration": 10_000},
], ids=["bitflip", "drop", "stuck"])
def test_fault_corruption_treats_both_forms_alike(fault):
    topology = MeshTopology(TINY_CONFIG)
    rid, port = _link(topology)
    trails = []
    for encoded in both_forms():
        injector = FaultInjector(FaultConfig(seed=5, **fault), TINY_CONFIG,
                                 topology)
        packet = Packet(src=0, dst=1, kind=PacketKind.DATA, size_flits=6,
                        block=BLOCK, encoded=encoded)
        for now, flit in enumerate(fragment(packet)[1:-1], start=100):
            injector.on_link_traversal(rid, port, 0, flit, now)
        assert packet.fault is not None and packet.fault.corrupted
        trails.append((packet.fault.xors,
                       packet.fault.apply(CacheBlock(
                           encoded.decoded_words())).words,
                       injector.summary()))
    assert trails[0] == trails[1]


def test_nocsan_audits_both_forms_alike():
    config = NocConfig(mesh_width=2, mesh_height=2, concentration=1,
                       sanitize=True)
    sanitizer = Network(config, BaselineScheme(config.n_nodes))._sanitizer
    tampered = CacheBlock((WORDS[0] ^ 1,) + WORDS[1:], dtype=DataType.FLOAT)
    for encoded in both_forms():
        packet = Packet(src=0, dst=1, kind=PacketKind.DATA, size_flits=9,
                        block=BLOCK, encoded=encoded)
        sanitizer._check_delivered_block(packet, BLOCK)
        with pytest.raises(SanitizerError, match="promised") as excinfo:
            sanitizer._check_delivered_block(packet, tampered)
        assert excinfo.value.invariant == "error-bound"
        short = CacheBlock(WORDS[:-1], dtype=DataType.FLOAT)
        with pytest.raises(SanitizerError, match="were encoded"):
            sanitizer._check_delivered_block(packet, short)
