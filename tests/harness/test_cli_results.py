"""Tests for the CLI entry points and the results/EXPERIMENTS generator."""

import hashlib
import json

import pytest

from repro.harness import figures
from repro.harness.__main__ import TARGETS, main as cli_main, run_target
from repro.harness.results import (
    collect_all,
    headline_rows,
    main as results_main,
    render_experiments_md,
)

#: sha256 of ``render_experiments_md(collect_all(scale=0.05))``.
RENDERED_SHA256_SCALE_0_05 = (
    "05efa0014cda421101b75076305ae591670cde410b6150bd09d97274be79a3da")


class TestCliTargets:
    def test_table1_target(self):
        text = run_target("table1", scale=1.0)
        assert "Table 1" in text

    def test_area_target(self):
        text = run_target("area", scale=1.0)
        assert "0.0037" in text

    def test_fig17_target(self):
        text = run_target("fig17", scale=0.1)
        assert "Figure 17" in text

    def test_fig13_target_small(self):
        text = run_target("fig13", scale=0.05)
        assert "Figure 13" in text

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_target("fig99", scale=1.0)

    def test_main_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    def test_main_runs_static_targets(self, capsys):
        assert cli_main(["table1", "area"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "encoder area" in out

    @pytest.mark.parametrize("target, driver", [
        ("fig9", "run_benchmark_suite"), ("fig12", "figure12"),
        ("fig13", "figure13"), ("fig14", "figure14"), ("fig16", "figure16")])
    def test_engine_options_reach_every_simulated_target(
            self, target, driver, monkeypatch):
        seen = {}

        class Reached(Exception):
            pass

        def fake(**kwargs):
            seen.update(kwargs)
            raise Reached

        monkeypatch.setattr(figures, driver, fake)
        with pytest.raises(Reached):
            run_target(target, scale=0.05, workers=3, use_cache=False)
        assert seen["workers"] == 3 and seen["use_cache"] is False

    def test_all_expands(self):
        assert set(TARGETS) >= {"table1", "fig9", "fig16", "area"}


class TestResultsBundle:
    @pytest.fixture(scope="class")
    def bundle(self):
        """A minimum-scale full collection (every experiment, tiny runs)."""
        return collect_all(scale=0.05)

    def test_bundle_keys(self, bundle):
        assert {"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                "fig15", "fig16", "fig17", "area"} <= set(bundle)

    def test_headline_rows_complete(self, bundle):
        rows = headline_rows(bundle)
        metrics = " ".join(r["metric"] for r in rows)
        for token in ("Fig 9", "Fig 10", "Fig 11", "Fig 12", "Fig 15",
                      "Fig 16", "Fig 17", "5.5"):
            assert token in metrics
        for row in rows:
            assert row["paper"] and row["measured"]

    def test_render_document(self, bundle):
        document = render_experiments_md(bundle)
        for heading in ("# EXPERIMENTS", "## Headline comparisons",
                        "## Figure 9", "## Figure 12", "## Figure 16",
                        "## §5.5"):
            assert heading in document
        # Pins every number of every figure at this scale: a refactor of
        # how figures reach the simulator must not move a single byte.
        assert (hashlib.sha256(document.encode()).hexdigest()
                == RENDERED_SHA256_SCALE_0_05)

    def test_main_writes_files(self, bundle, tmp_path, monkeypatch):
        out = tmp_path / "EXP.md"
        json_out = tmp_path / "exp.json"
        monkeypatch.setattr("repro.harness.results.collect_all",
                            lambda scale, progress=None: bundle)
        assert results_main(["--scale", "0.05", "--out", str(out),
                             "--json", str(json_out)]) == 0
        assert out.read_text().startswith("# EXPERIMENTS")
        payload = json.loads(json_out.read_text())
        assert "fig9" in payload
