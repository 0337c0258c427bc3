"""Golden bytes that do not depend on numpy's CPU dispatch.

numpy picks the SIMD loops of ``np.exp``, ``np.arcsin``, ``np.log10`` and
others at run time, by CPU, and their results may differ in the last bit.
``reproduce`` and the 400-node ``simulate`` are rerun in a child interpreter
with every dispatch target this CPU has switched off, and must still write the
golden bytes. On a CPU with no dispatch target the check proves nothing, so it
skips.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

from test_golden import FIELD_SCALE_CONFIG, FIELD_SCALE_SHA256_PREFIXES, GOLDEN_SHA256_PREFIXES

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import hashlib, json, sys
from pathlib import Path
from numpy._core import _multiarray_umath as umath
from uewpiot import cli

out = Path(sys.argv[1])
runs = {"reproduce": ["reproduce"],
        "field-scale": ["--config", str(out / "field-scale.cfg"), "--seed", "1", "simulate"]}
prefixes = {}
for run, args in runs.items():
    assert cli.main(["--out", str(out / run), *args]) == 0
    prefixes[run] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                     for path in (out / run).iterdir()}
on = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
print(json.dumps({"prefixes": prefixes, "dispatch_on": on}))  # after the CLI's own lines
"""


def test_golden_bytes_hold_with_every_dispatch_target_off(tmp_path):
    targets = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    if not targets:
        pytest.skip(f"this CPU has none of numpy's dispatch targets {umath.__cpu_dispatch__}, "
                    "so every run already takes the baseline loops")
    (tmp_path / "field-scale.cfg").write_text(FIELD_SCALE_CONFIG, encoding="utf-8")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["dispatch_on"] == []
    reproduce, field_scale = result["prefixes"]["reproduce"], result["prefixes"]["field-scale"]
    assert {name: reproduce[name] for name in GOLDEN_SHA256_PREFIXES} == GOLDEN_SHA256_PREFIXES
    assert ({name: field_scale[name] for name in FIELD_SCALE_SHA256_PREFIXES}
            == FIELD_SCALE_SHA256_PREFIXES)
