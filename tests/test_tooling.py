"""Checks on the project's own tooling: the pytest settings, the size of src/ and
the modules src/ may use."""
import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# ROADMAP item 7: src/ stays within this many lines. A change that needs more
# re-sets the budget there, with its reason.
SRC_LINE_BUDGET = 1940

# ROADMAP: scipy is a test-only dependency (item 15); exact tours need no
# numpy.linalg, and the in-repo PCG64 keeps numpy.random unloaded (item 7).
BANNED_MODULES = ("scipy", "numpy.linalg", "numpy.random")


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


def banned_uses(source: str) -> list[str]:
    """The modules of BANNED_MODULES that ``source`` imports, or reaches as an
    attribute of a name bound to numpy; names in strings and comments do not count."""
    def banned(name):
        return any(name == module or name.startswith(module + ".") for module in BANNED_MODULES)

    numpy_names, found = {"numpy"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if banned(alias.name)]
            numpy_names |= {alias.asname or "numpy" for alias in node.names
                            if alias.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [name for name in (node.module, *(f"{node.module}.{alias.name}"
                                                       for alias in node.names)) if banned(name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in numpy_names and banned(f"numpy.{node.attr}"):
                found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("source", [
    "import scipy", "import scipy.optimize as so", "from scipy import optimize",
    "from scipy.optimize import milp", "import numpy.linalg", "from numpy import random",
    "from numpy.random import default_rng", "import numpy as np\nnp.linalg.norm(x)",
    "import numpy\nrng = numpy.random.default_rng(1)",
])
def test_the_module_scan_finds_each_way_in(source):
    assert banned_uses(source)


def test_the_module_scan_ignores_names_in_text():
    assert not banned_uses('"""Draws like ``np.random.default_rng``."""\n# scipy.optimize\n'
                           "import numpy as np\nfrom .errors import random\nnp.hypot(1, 2)\n")


def test_src_uses_neither_scipy_nor_numpy_linalg_nor_numpy_random():
    found = {path.name: uses for path in sorted((ROOT / "src").rglob("*.py"))
             if (uses := banned_uses(path.read_text(encoding="utf-8")))}
    assert not found, f"src/ must not use {', '.join(BANNED_MODULES)}: {found}"
