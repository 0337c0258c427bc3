"""Checks on the project's own tooling: the pytest settings and the size of src/."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ROADMAP item 7: src/ stays within this many lines. A change that needs more
# re-sets the budget there, with its reason.
SRC_LINE_BUDGET = 1943


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under filterwarnings = error, hypothesis's patch writer must not turn a
    # falsified @given test into an INTERNALERROR that ends the session.
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", "pyproject.toml", "-p", "no:cacheprovider",
         "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert run.returncode == 1


def test_src_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "uewpiot").glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, (
        f"src/uewpiot/*.py has {lines} lines, over the {SRC_LINE_BUDGET}-line budget of "
        "ROADMAP item 7: delete what the change adds, or re-set the budget there with a reason"
    )
