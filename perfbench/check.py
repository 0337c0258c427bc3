"""Output checks for the benchmark workloads.

A workload's outputs pass when they match a reference recorded at
commit 3bab41c where one exists, and when they satisfy the invariants below
in every case. Tour order is free to change (a better tour heuristic is
an intended improvement), so ``tour.csv`` and ``summary.csv`` are checked
by invariants; everything that does not depend on tour order is checked
against the reference.

``check_outputs`` returns a list of problems; an empty list means pass.
``self_test`` corrupts a copy of good outputs and confirms each
corruption is flagged.
"""
from __future__ import annotations

import csv
import hashlib
import lzma
import math
import shutil
from functools import lru_cache
from pathlib import Path

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# sha256 prefixes of `uewpiot reproduce` at the default config and seed 1.
# The two sweeps do not depend on the field seed, so they hold at any seed.
GOLDEN_PREFIXES = {
    "eh_sweep.csv": "2f192d6ba27971f5",
    "rate_sweep.csv": "a7cb0c1a83b1a8f4",
    "report.csv": "5f72c2fab9290d3f",
}
SEED_INDEPENDENT = ("eh_sweep.csv", "rate_sweep.csv")

HEADERS = {
    "eh_sweep.csv": ["distance_m", "freq_hz", "elements", "received_dbm",
                     "harvested_dbm", "threshold_dbm"],
    "rate_sweep.csv": ["distance_m", "freq_hz", "elements", "rate_bps"],
    "tour.csv": ["strategy", "visit_order", "x_m", "y_m", "group_id", "group_size"],
    "report.csv": ["node", "x_m", "y_m", "group_id", "slant_m", "harvested_energy_j",
                   "tx_power_w", "tx_time_s", "bits_delivered"],
    "summary.csv": ["strategy", "height_m", "radius_m", "groups", "tour_length_m",
                    "saving_pct", "mc_seeds", "mc_mean_length_m", "mc_mean_saving_pct"],
}

# Columns compared as exact text against a reference; all other cells
# are compared as numbers within REL_TOL.
EXACT_COLUMNS = {
    "eh_sweep.csv": ("distance_m", "freq_hz", "elements", "threshold_dbm"),
    "rate_sweep.csv": ("distance_m", "freq_hz", "elements"),
    "report.csv": ("node", "group_id"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


@lru_cache(maxsize=None)
def _reference_text(relpath: str) -> str:
    return lzma.decompress((REFERENCE_DIR / relpath).read_bytes()).decode("utf-8")


def _reference_rows(relpath: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(_reference_text(relpath).splitlines()))
    return rows[0], rows[1:]


def _half_unit(value: float) -> float:
    """Largest rounding error of ``value`` printed with %.10g."""
    if value == 0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 9)


def _close(a: float, b: float, slack: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + slack


def _number_close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return _close(float(a), float(b))
    except ValueError:
        return False


def _compare_table(name: str, out: Path, relpath: str, problems: list[str]) -> None:
    """Row count and grid exact; numeric cells within REL_TOL of the reference."""
    header, rows = _read(out)
    ref_header, ref_rows = _reference_rows(relpath)
    if header != ref_header:
        problems.append(f"{name}: header {header} != reference {ref_header}")
        return
    if len(rows) != len(ref_rows):
        problems.append(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
        return
    exact = {header.index(c) for c in EXACT_COLUMNS[name]}
    for lineno, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        if len(row) != len(ref):
            problems.append(f"{name}:{lineno}: {len(row)} cells, reference has {len(ref)}")
            return
        for col, (cell, ref_cell) in enumerate(zip(row, ref)):
            ok = cell == ref_cell if col in exact else _number_close(cell, ref_cell)
            if not ok:
                problems.append(
                    f"{name}:{lineno}: {header[col]} = {cell}, reference {ref_cell}"
                )
                return


def _check_reference_file(name: str, out: Path, relpath: str, problems: list[str]) -> None:
    # Identical bytes pass without parsing the reference.
    if _sha256(out) != hashlib.sha256(_reference_text(relpath).encode("utf-8")).hexdigest():
        _compare_table(name, out, relpath, problems)


def _check_plan_invariants(
    out_dir: Path, heights_m: tuple[float, ...], mc_seeds: int,
    payload_bits: float, problems: list[str],
) -> None:
    """Invariants that tour.csv, summary.csv and report.csv satisfy at any seed."""
    _, tour_rows = _read(out_dir / "tour.csv")
    _, summary_rows = _read(out_dir / "summary.csv")
    _, report_rows = _read(out_dir / "report.csv")
    col = {name: HEADERS[name].index for name in HEADERS}
    t, s, r = col["tour.csv"], col["summary.csv"], col["report.csv"]

    strategies = [row[s("strategy")] for row in summary_rows]
    expected = ["one-by-one"] + [f"H={h:g}" for h in heights_m]
    if strategies != expected:
        problems.append(f"summary.csv: strategies {strategies}, expected {expected}")
        return

    n = len(report_rows)
    if [row[r("node")] for row in report_rows] != [str(i) for i in range(n)]:
        problems.append("report.csv: nodes are not 0..n-1 in order")
        return
    node_xy = [(row[r("x_m")], row[r("y_m")]) for row in report_rows]

    tours: dict[str, list[list[str]]] = {name: [] for name in strategies}
    for row in tour_rows:
        if row[t("strategy")] not in tours:
            problems.append(f"tour.csv: unknown strategy {row[t('strategy')]!r}")
            return
        tours[row[t("strategy")]].append(row)

    lengths = {}
    for srow in summary_rows:
        name = srow[s("strategy")]
        rows = tours[name]
        groups = int(srow[s("groups")])
        if [row[t("visit_order")] for row in rows] != [str(i) for i in range(len(rows))]:
            problems.append(f"tour.csv: {name} visit_order is not 0..k-1")
        if sorted(int(row[t("group_id")]) for row in rows) != list(range(groups)):
            problems.append(f"tour.csv: {name} does not visit each of {groups} groups once")
            continue
        if sum(int(row[t("group_size")]) for row in rows) != n:
            problems.append(f"tour.csv: {name} group sizes do not sum to n = {n}")
        if int(srow[s("mc_seeds")]) != mc_seeds:
            problems.append(f"summary.csv: {name} mc_seeds {srow[s('mc_seeds')]} != {mc_seeds}")
        mc_mean = float(srow[s("mc_mean_length_m")])
        if not (math.isfinite(mc_mean) and mc_mean > 0):
            problems.append(f"summary.csv: {name} mc_mean_length_m {mc_mean} is not positive")

        # Closed length from the printed coordinates; the slack covers their
        # %.10g rounding on top of the relative tolerance.
        pts = [(float(row[t("x_m")]), float(row[t("y_m")])) for row in rows]
        length = slack = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            length += math.hypot(x1 - x0, y1 - y0)
            slack += sum(_half_unit(v) for v in (x0, y0, x1, y1))
        reported = float(srow[s("tour_length_m")])
        if not _close(length, reported, slack + _half_unit(reported)):
            problems.append(
                f"summary.csv: {name} tour_length_m {reported} != {length} from tour.csv"
            )
        lengths[name] = reported

    if problems:
        return
    baseline = lengths["one-by-one"]
    for srow in summary_rows:
        name = srow[s("strategy")]
        saving = float(srow[s("saving_pct")])
        want = 100.0 * (1.0 - lengths[name] / baseline)
        if abs(saving - want) > 200.0 * REL_TOL + _half_unit(saving):
            problems.append(f"summary.csv: {name} saving_pct {saving} != {want}")
    if float(summary_rows[0][s("mc_mean_saving_pct")]) != 0.0:
        problems.append("summary.csv: one-by-one mc_mean_saving_pct is not 0")

    # One-by-one visits node i as group i.
    for row in tours["one-by-one"]:
        gid = int(row[t("group_id")])
        if row[t("group_size")] != "1" or (row[t("x_m")], row[t("y_m")]) != node_xy[gid]:
            problems.append(f"tour.csv: one-by-one group {gid} is not node {gid}")
            return

    # The mission flies the first height's groups; report.csv must agree.
    height = heights_m[0]
    members: dict[int, list[list[str]]] = {}
    for row in report_rows:
        members.setdefault(int(row[r("group_id")]), []).append(row)
    for row in tours[f"H={height:g}"]:
        gid = int(row[t("group_id")])
        group = members.get(gid, [])
        if len(group) != int(row[t("group_size")]):
            problems.append(f"report.csv: group {gid} has {len(group)} nodes, "
                            f"tour.csv says {row[t('group_size')]}")
            return
        anchor = (row[t("x_m")], row[t("y_m")])
        if anchor not in [(m[r("x_m")], m[r("y_m")]) for m in group]:
            problems.append(f"tour.csv: group {gid} traversal point is not a member")
            return
        _check_group_mission(gid, group, anchor, height, payload_bits, r, problems)
        if problems:
            return
    if len(members) != len(tours[f"H={height:g}"]):
        problems.append("report.csv: group ids differ from the mission height's groups")


def _check_group_mission(gid, group, anchor, height, payload_bits, r, problems) -> None:
    """Geometry and energy-neutral powering of one group in report.csv."""
    ax, ay = float(anchor[0]), float(anchor[1])
    taus = []
    for m in group:
        x, y, slant = float(m[r("x_m")]), float(m[r("y_m")]), float(m[r("slant_m")])
        want = math.hypot(height, math.hypot(x - ax, y - ay))
        slack = sum(_half_unit(v) for v in (x, y, ax, ay, slant))
        if not _close(slant, want, slack):
            problems.append(f"report.csv: node {m[r('node')]} slant_m {slant} != {want}")
            return
        energy, power, tx_time, bits = (float(m[r(c)]) for c in (
            "harvested_energy_j", "tx_power_w", "tx_time_s", "bits_delivered"))
        if bits == 0.0:
            if (energy, power, tx_time) != (0.0, 0.0, 0.0):
                problems.append(f"report.csv: node {m[r('node')]} delivered nothing "
                                "but has nonzero powering")
                return
        elif bits != payload_bits or power <= 0:
            problems.append(f"report.csv: node {m[r('node')]} bits_delivered {bits}")
            return
        else:
            taus.append((energy / power, tx_time))
    if taus:
        # Every served node is powered for tau = the slowest node's tx time.
        tau = max(tx for _, tx in taus)
        if not all(_close(ratio, tau, 4 * REL_TOL * tau) for ratio, _ in taus):
            problems.append(f"report.csv: group {gid} powering is not the slowest tx time")


def check_outputs(spec: dict, out_dir: Path, field_seed: int) -> list[str]:
    """Problems found in one invocation's outputs (empty when correct)."""
    problems: list[str] = []
    for name in spec["files"]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        header, _ = _read(path)
        if header != HEADERS[name]:
            problems.append(f"{name}: header {header}")
    if problems:
        return problems

    golden = spec.get("golden")
    reference = spec.get("reference")
    for name in spec["files"]:
        path = out_dir / name
        if golden and name in GOLDEN_PREFIXES and (
            name in SEED_INDEPENDENT or field_seed == golden
        ):
            if not _sha256(path).startswith(GOLDEN_PREFIXES[name]):
                problems.append(f"{name}: sha256 differs from the golden output")
        elif reference and name in EXACT_COLUMNS and (
            reference["seed"] is None or reference["seed"] == field_seed
        ):
            _check_reference_file(name, path, f"{reference['dir']}/{name}.xz", problems)

    if "tour.csv" in spec["files"]:
        try:
            _check_plan_invariants(out_dir, spec["heights_m"], spec["mc_seeds"],
                                   spec["payload_bits"], problems)
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            problems.append(f"malformed plan output: {exc!r}")
        if reference and reference["seed"] == field_seed:
            _check_grouping(out_dir, reference["dir"], problems)
    return problems


def _check_grouping(out_dir: Path, ref_dir: str, problems: list[str]) -> None:
    """Tour-order-free parts of tour.csv and summary.csv against the reference."""
    key = ("strategy", "group_id", "group_size", "x_m", "y_m")
    header, rows = _read(out_dir / "tour.csv")
    ref_header, ref_rows = _reference_rows(f"{ref_dir}/tour.csv.xz")
    groups = sorted(tuple(row[header.index(c)] for c in key) for row in rows)
    ref_groups = sorted(tuple(row[ref_header.index(c)] for c in key) for row in ref_rows)
    if groups != ref_groups:
        problems.append("tour.csv: groups differ from the reference")
    key = ("strategy", "height_m", "radius_m", "groups", "mc_seeds")
    header, rows = _read(out_dir / "summary.csv")
    ref_header, ref_rows = _reference_rows(f"{ref_dir}/summary.csv.xz")
    for row, ref in zip(rows, ref_rows):
        for c in key:
            if not _number_close(row[header.index(c)], ref[ref_header.index(c)]):
                problems.append(f"summary.csv: {c} differs from the reference")
                return
    if len(rows) != len(ref_rows):
        problems.append("summary.csv: row count differs from the reference")


def _alter_digit(path: Path, column: str) -> None:
    """Change the first significant digit of ``column`` in the middle data row."""
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    row_index = 1 + (len(lines) - 2) // 2
    cells = lines[row_index].split(",")
    cell = cells[header.index(column)]
    pos = next(i for i, ch in enumerate(cell) if ch in "123456789")
    cells[header.index(column)] = cell[:pos] + str(int(cell[pos]) % 9 + 1) + cell[pos + 1:]
    lines[row_index] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _drop_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    del lines[1 + (len(lines) - 2) // 2]
    path.write_text("\n".join(lines), encoding="utf-8", newline="\n")


def self_test(spec: dict, good_dir: Path, field_seed: int, work_dir: Path) -> dict[str, bool]:
    """Corrupt copies of good outputs; map each corruption to whether it was flagged."""
    corruptions = {}
    if "report.csv" in spec["files"]:
        corruptions["digit_altered"] = lambda d: _alter_digit(d / "report.csv", "slant_m")
    else:
        corruptions["digit_altered"] = lambda d: _alter_digit(d / "eh_sweep.csv", "received_dbm")
    if "tour.csv" in spec["files"]:
        corruptions["tour_row_dropped"] = lambda d: _drop_row(d / "tour.csv")
    flagged = {}
    for name, corrupt in corruptions.items():
        target = work_dir / name
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(good_dir, target)
        corrupt(target)
        flagged[name] = bool(check_outputs(spec, target, field_seed))
        shutil.rmtree(target, ignore_errors=True)
    return flagged
