"""The committed tree must be lint- and flow-clean — the CI gates in test
form."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import flow
from repro.analysis.flow.__main__ import main as flow_main
from repro.analysis.lint import run_lint
from repro.analysis.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_source_tree_is_lint_clean():
    violations = run_lint([str(REPO_ROOT / "src")])
    assert violations == [], "\n".join(v.format() for v in violations)


def test_source_tree_is_flow_clean():
    """Every flow finding (FLOW002 undeclared counters among them) is
    fixed or baselined, and every baseline entry still fires."""
    model, findings = flow.analyze(
        [REPO_ROOT / "src" / "repro"], tests_dir=REPO_ROOT / "tests"
    )
    baseline = flow.load_baseline(REPO_ROOT / "flow-baseline.txt")
    new, accepted, stale = flow.split_by_baseline(findings, baseline)
    assert (new, stale) == ([], []), flow.format_text(
        new, accepted, stale, model
    )


def test_cli_reports_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    x = 1\nexcept:\n    pass\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(bad)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "ANL001" in proc.stdout


def test_cli_clean_exit(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(good)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("main", [lint_main, flow_main],
                         ids=["lint", "flow"])
def test_cli_has_no_jobs_option(main, tmp_path, capsys):
    # both analyzers parse serially; there is no worker count to pass
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")
    with pytest.raises(SystemExit) as exited:
        main(["--jobs", "2", str(good)])
    assert exited.value.code == 2
    assert "--jobs" in capsys.readouterr().err
