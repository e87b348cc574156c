"""Cache corruption tolerance (.repro_cache survives bit rot).

Contract: a present-but-unusable cache entry — truncated JSON, a tampered
result, a checksum that does not match, a pre-checksum legacy payload, a
result with a field the current code no longer has — must never poison a
sweep.  It is detected, logged, evicted from disk and
transparently recomputed; only intact entries are ever served.
"""

import json
import logging

import pytest

from repro.harness import parallel as parallel_mod
from repro.harness.parallel import (
    RunSpec,
    execute_spec,
    load_cached,
    run_specs,
    store_cached,
)
from repro.noc import NocConfig

SMALL = NocConfig(mesh_width=2, mesh_height=2, concentration=2)

LOGGER = "repro.harness.parallel"


def small_spec(**overrides) -> RunSpec:
    kw = dict(config=SMALL, mechanism="Baseline", benchmark="ssca2",
              trace_cycles=900, warmup=350, measure=350)
    kw.update(overrides)
    return RunSpec(**kw)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv(parallel_mod.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def entry_path(cache, spec):
    return cache / f"{spec.cache_key()}.json"


def store_entry(cache, spec):
    """A genuine cached result, returning (path, result)."""
    result = execute_spec(spec)
    store_cached(spec, result)
    path = entry_path(cache, spec)
    assert path.exists()
    return path, result


class TestCorruptEntryDetection:
    def test_intact_entry_survives(self, cache):
        spec = small_spec()
        path, result = store_entry(cache, spec)
        restored = load_cached(spec)
        assert restored is not None
        assert restored.simulation_outputs() == result.simulation_outputs()
        assert path.exists()  # a good entry is never evicted

    def test_garbled_json_evicted_and_logged(self, cache, caplog):
        spec = small_spec()
        path = entry_path(cache, spec)
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert load_cached(spec) is None
        assert not path.exists()
        assert any("evicting corrupt cache entry" in rec.message
                   for rec in caplog.records)

    def test_truncated_entry_evicted(self, cache):
        spec = small_spec()
        path, _ = store_entry(cache, spec)
        blob = path.read_text()
        path.write_text(blob[:len(blob) // 2])  # torn write
        assert load_cached(spec) is None
        assert not path.exists()

    def test_tampered_result_fails_checksum(self, cache, caplog):
        spec = small_spec()
        path, _ = store_entry(cache, spec)
        payload = json.loads(path.read_text())
        payload["result"]["avg_packet_latency"] = 0.0  # one-field bit rot
        path.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert load_cached(spec) is None
        assert not path.exists()
        assert any("checksum mismatch" in rec.message
                   for rec in caplog.records)

    def test_missing_checksum_key_evicted(self, cache):
        """A pre-v4 entry (no checksum field) is corruption, not a hit."""
        spec = small_spec()
        path, _ = store_entry(cache, spec)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert load_cached(spec) is None
        assert not path.exists()

    def test_entry_from_older_code_evicted_and_recomputed(self, cache,
                                                           caplog):
        """An intact, correctly checksummed entry written when RunResult
        still carried ``skipped_cycles`` (the retired event horizon's skip
        count) is evicted and recomputed, never served, never a crash."""
        spec = small_spec()
        path, result = store_entry(cache, spec)
        payload = json.loads(path.read_text())
        payload["result"]["skipped_cycles"] = 1234
        payload["checksum"] = parallel_mod._result_checksum(
            payload["result"])
        path.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert load_cached(spec) is None
        assert not path.exists()
        assert any("skipped_cycles" in rec.message
                   for rec in caplog.records)
        [outcome] = run_specs([spec], workers=1)
        assert outcome.ok and not outcome.cached
        assert (outcome.result.simulation_outputs()
                == result.simulation_outputs())

    def test_foreign_json_evicted(self, cache):
        """Valid JSON that is not a cache entry at all."""
        spec = small_spec()
        path = entry_path(cache, spec)
        path.write_text(json.dumps([1, 2, 3]))
        assert load_cached(spec) is None
        assert not path.exists()


class TestCorruptEntryRecomputation:
    def test_sweep_recomputes_through_corruption(self, cache):
        """End to end: a garbled entry behaves exactly like a cold miss —
        the sweep recomputes, and the recomputed result matches a clean
        run bit for bit and repairs the on-disk entry."""
        spec = small_spec()
        reference = execute_spec(spec)
        entry_path(cache, spec).write_text("{not json")
        [outcome] = run_specs([spec], workers=1)
        assert outcome.ok and not outcome.cached
        assert outcome.attempts == 1
        assert (outcome.result.simulation_outputs()
                == reference.simulation_outputs())
        restored = load_cached(spec)  # the entry was rewritten, intact
        assert restored is not None
        assert (restored.simulation_outputs()
                == reference.simulation_outputs())

    def test_repaired_entry_served_as_hit(self, cache):
        spec = small_spec()
        entry_path(cache, spec).write_text('{"result": {}}')
        run_specs([spec], workers=1)
        [warm] = run_specs([spec], workers=1)
        assert warm.cached and warm.attempts == 0
