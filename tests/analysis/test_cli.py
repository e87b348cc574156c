"""CLI behaviour: exit codes, output formats, baseline workflow."""

import json
import textwrap

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

CLEAN_SOURCE = "X = 1\n"
#: Trips banned-import when placed under a repro package path.
DIRTY_SOURCE = "import random\n"


def make_tree(tmp_path, source):
    """A one-module src tree whose module path is inside repro.noc."""
    pkg = tmp_path / "src" / "repro" / "noc"
    pkg.mkdir(parents=True)
    module = pkg / "fixture.py"
    module.write_text(source)
    return tmp_path / "src"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(src), "--no-baseline"]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        assert main([str(src), "--no-baseline"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "banned-import" in out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        src = make_tree(tmp_path, "def broken(:\n")
        assert main([str(src), "--no-baseline"]) == EXIT_FINDINGS
        assert "parse error" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(src), "--rule", "no-such-rule"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_no_files_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty)]) == EXIT_USAGE
        assert "no Python files" in capsys.readouterr().err

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert main([str(src), "--baseline", str(bad)]) == EXIT_USAGE
        assert "unreadable baseline" in capsys.readouterr().err


class TestBaselineWorkflow:
    def test_write_then_gate(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        # Grandfather the current findings...
        assert main([str(src), "--baseline", str(baseline),
                     "--write-baseline"]) == EXIT_CLEAN
        # ...after which the same tree gates clean...
        assert main([str(src), "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "1 baselined" in capsys.readouterr().out
        # ...but --no-baseline still reports the debt.
        assert main([str(src), "--no-baseline"]) == EXIT_FINDINGS

    def test_stale_entries_are_reported(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        main([str(src), "--baseline", str(baseline), "--write-baseline"])
        (src / "repro" / "noc" / "fixture.py").write_text(CLEAN_SOURCE)
        assert main([str(src), "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "stale baseline" in capsys.readouterr().out


class TestOutput:
    def test_json_format(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        assert payload["findings"][0]["rule"] == "banned-import"
        assert payload["parse_errors"] == []

    def test_human_format_has_location(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        main([str(src), "--no-baseline"])
        line = capsys.readouterr().out.splitlines()[0]
        assert "fixture.py:1:" in line
        assert "error[banned-import]" in line

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("REPRO101", "REPRO203", "REPRO301",
                     "REPRO401", "REPRO501"):
            assert code in out

    def test_list_rules_includes_value_analysis(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("REPRO901", "REPRO902", "REPRO903",
                     "REPRO904", "REPRO911"):
            assert code in out
        # The heuristic-era codes are retired, not renumbered.
        assert "REPRO201" not in out
        assert "REPRO202" not in out

    def test_rule_filter_restricts_scan(self, tmp_path):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        # banned-import fires; the float-eq-only run stays clean.
        assert main([str(src), "--no-baseline",
                     "--rule", "float-eq"]) == EXIT_CLEAN

    def test_list_rules_includes_flow_passes(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("REPRO811", "REPRO812", "REPRO821", "REPRO904"):
            assert code in out

    def test_json_includes_rule_explanations(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert "banned-import" in payload["rules"]
        entry = payload["rules"]["banned-import"]
        assert entry["code"]
        assert entry["invariant"]
        assert entry["explain"]

    def test_json_rules_empty_when_clean(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--format", "json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == {}


class TestExplain:
    def test_explain_by_name(self, capsys):
        assert main(["--explain", "rng-stream-isolation"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "REPRO811" in out
        assert "Invariant:" in out
        assert "Bad:" in out
        assert "Good:" in out

    def test_explain_by_code(self, capsys):
        assert main(["--explain", "REPRO902"]) == EXIT_CLEAN
        assert "unmasked-word-arith" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["--explain", "no-such-rule"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err


class TestValueAnalysisFlags:
    #: The abstract interpreter proves the sum is masked at its only
    #: use; the retired expression-local heuristic could not see past
    #: the assignment (there is no --bits-heuristic fallback any more).
    FLOW_OK = textwrap.dedent("""\
        WORD_MASK = 0xFFFFFFFF


        def mix(word, key):
            mixed = word + key
            return mixed & WORD_MASK
        """)

    def test_flow_proof_is_the_only_mode(self, tmp_path):
        src = make_tree(tmp_path, self.FLOW_OK)
        assert main([str(src), "--no-baseline",
                     "--rule", "unmasked-word-arith"]) == EXIT_CLEAN

    def test_bits_heuristic_flag_is_gone(self, tmp_path, capsys):
        src = make_tree(tmp_path, self.FLOW_OK)
        try:
            main([str(src), "--no-baseline", "--bits-heuristic"])
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE
        else:
            raise AssertionError("--bits-heuristic should be rejected")


class TestJobsAndBudget:
    def test_jobs_matches_serial(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--format", "json"]) == EXIT_FINDINGS
        serial = json.loads(capsys.readouterr().out)
        assert main([str(src), "--no-baseline", "--jobs", "2",
                     "--format", "json"]) == EXIT_FINDINGS
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["findings"] == serial["findings"]
        assert parallel["jobs"] == 2

    def test_json_reports_wall_time(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--format", "json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis_seconds"] >= 0.0
        assert payload["jobs"] == 1

    def test_max_seconds_budget_gates(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--max-seconds", "0"]) == EXIT_FINDINGS
        assert "over the --max-seconds budget" in capsys.readouterr().err

    def test_generous_budget_passes(self, tmp_path):
        src = make_tree(tmp_path, CLEAN_SOURCE)
        assert main([str(src), "--no-baseline",
                     "--max-seconds", "600"]) == EXIT_CLEAN


class TestUpdateBaseline:
    def test_update_writes_and_flags_stale(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        # Seed a baseline with the dirty finding...
        assert main([str(src), "--baseline", str(baseline),
                     "--write-baseline"]) == EXIT_CLEAN
        # ...fix the tree: --update-baseline shrinks the file and exits
        # non-zero so CI notices the drop.
        (src / "repro" / "noc" / "fixture.py").write_text(CLEAN_SOURCE)
        assert main([str(src), "--baseline", str(baseline),
                     "--update-baseline"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "dropped 1 stale baseline entry" in out
        payload = json.loads(baseline.read_text())
        assert payload["findings"] == []

    def test_update_is_quietly_clean_when_fresh(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        main([str(src), "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()
        assert main([str(src), "--baseline", str(baseline),
                     "--update-baseline"]) == EXIT_CLEAN
        assert "dropped" not in capsys.readouterr().out
