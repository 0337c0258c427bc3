"""Record the reference outputs that check.py compares against.

    python3 perfbench/record_reference.py

Run from the repository root at the commit the references should come
from. Writes xz-compressed CSVs under perfbench/reference/: the
sweep-design outputs (seed-independent) and the field-scale outputs at
field seed 1. Field seed 7 is deliberately left without a reference.
"""
from __future__ import annotations

import lzma
import shutil
import subprocess
import sys

import check
import run


def record(workload: str, field_seed: int) -> None:
    spec = run.WORKLOADS[workload]
    ref_dir = check.REFERENCE_DIR / spec["reference"]["dir"]
    out_dir = run.OUT / f"reference-{workload}"
    shutil.rmtree(out_dir, ignore_errors=True)
    for argv in run._calls(spec, field_seed, out_dir):
        subprocess.run([sys.executable, "-m", "uewpiot.cli", *argv], cwd=run.ROOT,
                       env=run._child_env(), check=True, stdout=subprocess.DEVNULL)
    ref_dir.mkdir(parents=True, exist_ok=True)
    for name in spec["files"]:
        data = (out_dir / name).read_bytes()
        (ref_dir / f"{name}.xz").write_bytes(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
    shutil.rmtree(out_dir)


if __name__ == "__main__":
    record("sweep-design", 1)
    record("field-scale", 1)
