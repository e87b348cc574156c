"""The linter's own gate, run as a test: the real tree must be clean.

This is the same check CI runs via ``python -m repro.analysis src tests``,
kept as a test so a plain ``pytest`` run catches invariant violations even
without the CI lint job — and so the baseline policy (empty for
``repro.core`` and ``repro.util``) is enforced in-repo.
"""

from pathlib import Path

from repro.analysis import Baseline, analyze_paths
from repro.analysis.baseline import DEFAULT_BASELINE

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_is_clean():
    report = analyze_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert report.files_scanned > 100
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    new, _, _ = baseline.split(report.findings)
    assert report.parse_errors == []
    assert new == [], "\n".join(f.format_human() for f in new)


def test_analysis_package_itself_is_clean():
    # The linter must hold itself to its own rules (it sits inside the
    # strict-typing scope, so untyped-def applies to it too).
    report = analyze_paths([REPO_ROOT / "src" / "repro" / "analysis"])
    assert report.ok, "\n".join(f.format_human() for f in report.findings)


def test_committed_baseline_is_empty_for_core_and_util():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    protected = [f for f in baseline.findings
                 if "/repro/core/" in f.path.replace("\\", "/")
                 or "/repro/util/" in f.path.replace("\\", "/")]
    assert protected == [], (
        "baseline policy: repro.core and repro.util carry no grandfathered "
        "debt\n" + "\n".join(f.format_human() for f in protected))


def test_flow_proof_passes_hold_on_real_tree():
    """The whole-program proof passes (REPRO81x/82x/9xx) certify the real
    simulator with an *empty* baseline: every RNG stream boundary and
    cross-core surface is proven, not grandfathered."""
    from repro.analysis import get_rule

    flow_rules = [get_rule(name) for name in (
        "rng-stream-isolation", "rng-salt-collision",
        "router-surface-parity",
        "shift-range", "unmasked-word-arith", "possible-zero-div",
        "avcl-error-bound", "hot-alloc")]
    report = analyze_paths([REPO_ROOT / "src"], flow_rules)
    assert report.ok, "\n".join(f.format_human() for f in report.findings)


def test_committed_baseline_is_empty_for_flow_proofs():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    flow = [f for f in baseline.findings
            if f.rule.startswith(("rng-", "router-",
                                  "shift-", "unmasked-", "possible-",
                                  "avcl-", "hot-"))]
    assert flow == [], (
        "baseline policy: flow-proof findings are fixed or carry inline "
        "# repro: allow[...] justifications, never baseline entries\n"
        + "\n".join(f.format_human() for f in flow))
