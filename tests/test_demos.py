"""Demo regression: each script in ``demos/`` prints the same bytes.

The pins are sha256 prefixes of each demo's stdout. A change to the
library that moves any printed digit fails here; re-pin only with a
CHANGES.md entry that says why the output moved.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "calibrate_defaults": "e3ef0dc4bc9f6150",
    "coverage_and_tours": "7e6644c36bde3f51",
    "link_budget_basics": "4c845ce181a6d6f5",
    "mission_walkthrough": "de4d46300749b1a1",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_matches_pin(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, env=env, check=True, timeout=120,
    )
    assert hashlib.sha256(run.stdout).hexdigest()[:16] == DEMO_STDOUT_SHA256[demo]
