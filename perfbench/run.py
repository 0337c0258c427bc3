"""uewpiot benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each sample is a fresh interpreter
(probe.py) that imports ``uewpiot.cli`` from ``src/`` and calls
``cli.main`` for the workload. Sample k uses field seed N + k*M, where M
is the workload's Monte-Carlo field count, so the samples of a run share
no field. Samples repeat until the time budget is spent
(at least MIN_SAMPLES). Every sample's outputs are checked (check.py);
a nonzero exit or a failed check counts as a failed invocation.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics. The last line of stdout is the result object; the
line before it is a record of the machine, versions, seeds and samples,
also written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PLAN_FILES = ("tour.csv", "report.csv", "summary.csv")
# Why each workload is here: see README.md.
WORKLOADS = {
    "reproduce-default": {
        "config": None,
        "commands": ("reproduce",),
        "files": ("eh_sweep.csv", "rate_sweep.csv") + PLAN_FILES,
        "golden": 1,  # field seed of the golden outputs
        "heights_m": (10.0, 5.0),
        "mc_seeds": 100,
        "payload_bits": 10e6,
    },
    "sweep-design": {
        "config": "sweep-design.cfg",
        "commands": ("sweep-eh", "sweep-rate"),
        "files": ("eh_sweep.csv", "rate_sweep.csv"),
        "reference": {"dir": "sweep-design", "seed": None},  # seed-independent
    },
    "field-scale": {
        "config": "field-scale.cfg",
        "commands": ("simulate",),
        "files": PLAN_FILES,
        "reference": {"dir": "field-scale-seed1", "seed": 1},
        "heights_m": (10.0, 5.0),
        "mc_seeds": 2,
        "payload_bits": 10e6,
    },
}

# Import probes are spread over the run, so a burst of machine load
# cannot set the run's setup_s on its own.
IMPORT_PROBES = 15
IMPORT_TIMEOUT_S = 10.0
MIN_SAMPLES = 3
# A run must end well inside 180 s even when imports or samples run long.
HARD_LIMIT_S = 150.0
SAMPLE_TIMEOUT_S = 120.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Unset, not empty: the shipped default of one worker per CPU applies.
    env.pop("UEWPIOT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _probe(args: list[str], timeout: float) -> dict | None:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def _calls(spec: dict, field_seed: int, out_dir: Path) -> list[list[str]]:
    base = ["--seed", str(field_seed), "--out", str(out_dir)]
    if spec["config"]:
        base = ["--config", str(HERE / "workloads" / spec["config"])] + base
    return [base + [command] for command in spec["commands"]]


def _output_counts(spec: dict, out_dir: Path) -> dict[str, float]:
    rows = size = 0
    for name in spec["files"]:
        data = (out_dir / name).read_bytes()
        rows += data.count(b"\n") - 1
        size += len(data)
    counts = {"cli.rows_out": rows, "cli.bytes_out": size, "mc_tour_m": 0.0}
    if "summary.csv" in spec["files"]:
        _, summary = check._read(out_dir / "summary.csv")
        column = check.HEADERS["summary.csv"].index("mc_mean_length_m")
        counts["mc_tour_m"] = statistics.fmean(float(r[column]) for r in summary)
    return counts


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "uewpiot").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def _sample_loop(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 start: float, work_dir: Path) -> tuple[list[dict], dict | None, list[float]]:
    """Run and check samples until the time budget is spent.

    Import probe i runs once the run is i * slot seconds old, between
    samples; probes still due when sampling ends run last.
    """
    samples: list[dict] = []
    self_test = None
    imports: list[float] = []
    probes_run = 0
    slot = 0.9 * seconds / IMPORT_PROBES

    def import_probe() -> None:
        nonlocal probes_run
        probes_run += 1
        probe = _probe(["--import-only"], IMPORT_TIMEOUT_S)
        if probe:
            imports.append(probe["import_s"])

    min_samples = MIN_SAMPLES + 1 if trace else MIN_SAMPLES
    while True:
        while probes_run < IMPORT_PROBES and perf_counter() - start >= probes_run * slot:
            import_probe()
        k = len(samples)
        elapsed = perf_counter() - start
        estimate = _median([s["wall_s"] for s in samples])
        if k >= min_samples and elapsed + estimate > seconds:
            break
        if k >= 1 and elapsed + estimate > HARD_LIMIT_S:
            break
        traced = trace and k % 2 == 1
        field_seed = seed + k * spec.get("mc_seeds", 1)
        out_dir = work_dir / f"k{k}"
        args = ["--trace", str(OUT / f"trace-{workload}.jsonl")] if traced else []
        timeout = max(10.0, min(SAMPLE_TIMEOUT_S, HARD_LIMIT_S + 20 - elapsed))
        t0 = perf_counter()
        probe = _probe(args + [json.dumps(_calls(spec, field_seed, out_dir))], timeout)
        ran = probe is not None and all(code == 0 for code in probe["codes"])
        sample = {"field_seed": field_seed, "traced": traced, "wall_s": perf_counter() - t0,
                  "probe": probe or {}, "ran": ran}
        if probe is None:
            sample["problems"] = ["process failed"]
        elif not ran:
            sample["problems"] = [f"exit codes {probe['codes']}"]
        else:
            sample["problems"] = check.check_outputs(spec, out_dir, field_seed)
        if not sample["problems"]:
            sample["outputs"] = _output_counts(spec, out_dir)
            if self_test is None:
                self_test = check.self_test(spec, out_dir, field_seed, work_dir)
        samples.append(sample)
        shutil.rmtree(out_dir, ignore_errors=True)
    while probes_run < IMPORT_PROBES and perf_counter() - start < HARD_LIMIT_S:
        import_probe()
    return samples, self_test, imports


def _metrics(samples: list[dict], imports: list[float], trace: bool) -> dict[str, float] | None:
    """Medians over the samples that ran; layer metrics need checked outputs too."""
    plain = [s["probe"] for s in samples if s["ran"] and not s["traced"]]
    if not plain or not imports:
        return None
    run_s = _median([p["run_s"] for p in plain])
    cpu_s = _median([p["cpu_s"] for p in plain])
    if not trace:
        return {
            "run_s": run_s,
            "cpu_s": cpu_s,
            "setup_s": _median(imports),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        }
    traced = [s for s in samples if s["traced"] and "outputs" in s]
    if not traced:
        return None
    per_sample = [s["probe"]["layers"] | s["outputs"] for s in traced]
    layers = {name: _median([t[name] for t in per_sample]) for name in per_sample[0]}
    layers["cli.cpu_per_wall"] = cpu_s / run_s
    traced_run_s = _median([s["probe"]["run_s"] for s in traced])
    layers["trace.overhead_pct"] = 100.0 * (traced_run_s / run_s - 1.0)
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = WORKLOADS[workload]
    units = _declared_units(trace)
    start = perf_counter()
    work_dir = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        samples, self_test, imports = _sample_loop(spec, workload, seed, seconds, trace,
                                                   start, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = _metrics(samples, imports, trace)
    if values is None:
        sys.stderr.write(json.dumps([s["problems"] for s in samples]) + "\n")
        return 1
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        **{key: next(s["probe"][key] for s in samples if s["ran"])
           for key in ("workers", "python", "numpy")},
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "self_test": self_test, "import_s": imports,
        "samples": [
            {key: s["probe"].get(key) for key in ("run_s", "cpu_s", "peak_rss_mb")}
            | {"field_seed": s["field_seed"], "traced": s["traced"],
               "problems": s["problems"][:5]}
            for s in samples
        ],
    }
    (OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    failed = sum(1 for s in samples if s["problems"])
    correct = failed == 0 and self_test is not None and all(self_test.values())
    print(json.dumps({
        "correct": correct, "attempted": len(samples), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "uewpiot" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'uewpiot'} not found; run from a uewpiot checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
