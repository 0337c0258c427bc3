"""Package start-up: ``import uewpiot`` loads numpy without the OpenBLAS thread pool,
and no command loads ``numpy.random``: node fields come from the in-repo PCG64.

Each case imports in a fresh interpreter whose environment has none of the
BLAS thread variables unless the case presets one, and compares its thread
count with a control interpreter that imports numpy alone.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = Path(__file__).resolve().parents[1] / "src"


def _blas_name() -> str:
    try:
        return str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
    except (AttributeError, KeyError, TypeError):
        return ""


counts_openblas_threads = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _blas_name().lower(),
    reason="counts OpenBLAS threads in /proc/self/task",
)

PROBE = """
import json, os
before = dict(os.environ)
{imports}
print(json.dumps({{"tasks": len(os.listdir("/proc/self/task")),
                  "environ_unchanged": dict(os.environ) == before,
                  "environ": {{k: os.environ.get(k) for k in {variables!r}}}}}))
"""


def run_probe(imports: str, preset: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(preset)
    code = PROBE.format(imports=imports, variables=BLAS_THREAD_VARIABLES)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


@counts_openblas_threads
@pytest.mark.parametrize("numpy_first", [False, True], ids=["uewpiot-first", "numpy-first"])
@pytest.mark.parametrize(
    "preset",
    [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
    ids=["no-preset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"],
)
def test_import_uewpiot(numpy_first, preset):
    imports = "import numpy\nimport uewpiot" if numpy_first else "import uewpiot"
    after = run_probe(imports, preset)
    assert after["environ_unchanged"]
    assert after["environ"] == {k: preset.get(k) for k in BLAS_THREAD_VARIABLES}
    if numpy_first or preset:
        # The caller's numpy, or the caller's thread count, is left as numpy sets it up.
        assert after["tasks"] == run_probe("import numpy", preset)["tasks"]
    else:
        assert after["tasks"] == 1


def test_cli_sweep_leaves_numpy_random_unloaded(tmp_path):
    # Nothing loads numpy.random: neither start-up nor the sweeps pay for it.
    code = (
        "import sys\n"
        "from uewpiot import cli\n"
        "loaded = 'numpy.random' in sys.modules\n"
        f"assert cli.main(['--out', {str(tmp_path)!r}, 'sweep-eh']) == 0\n"
        "print(loaded, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.split()[-2:] == ["False", "False"]


def test_cli_field_commands_leave_numpy_random_unloaded(tmp_path):
    # generate_nodes draws numpy's PCG64 stream in-repo, so placing nodes loads it neither.
    config = tmp_path / "run.cfg"
    config.write_text("plan.mc_seeds = 2\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from uewpiot import cli\n"
        "for command in ('plan', 'simulate', 'reproduce'):\n"
        f"    out = {str(tmp_path)!r} + '/' + command\n"
        f"    assert cli.main(['--config', {str(config)!r}, '--out', out, command]) == 0\n"
        "    print('numpy.random loaded after', command, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    loaded = [line.split()[-2:] for line in proc.stdout.splitlines() if line.startswith("numpy")]
    assert loaded == [["plan", "False"], ["simulate", "False"], ["reproduce", "False"]]
