"""Command-line front end: config ingestion, parameter sweeps, CSV output.

Subcommands:

* ``sweep-eh``    harvested/received power vs distance (one row per grid point)
* ``sweep-rate``  achievable uplink data rate vs distance
* ``plan``        node field, coverage groups, and per-strategy tours
* ``simulate``    plan plus a full mission run (per-node report)
* ``reproduce``   all of the above on the reference grids, five CSV files
* ``defaults``    print every config key with its default value

Configuration is a flat ``key = value`` text file with section-prefixed
keys (``link.frequency_hz = 400e6``), spelt as ``defaults`` prints them.
Building a ``RunConfig`` checks every key, whatever the command, so an
unknown key or a value that some command could not run with is rejected,
naming the key, before any file is written. All floating-point output
uses a fixed %.10g format so reruns are byte-identical. Exit codes: 0 ok,
2 configuration error, 3 infeasible request, 4 I/O error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import linkbudget as lb
from . import missionsim, planner
from .errors import ConfigurationError, InfeasibilityError, UewpiotError

FLOAT_FMT = "%.10g"

# Distance points per sweep series; a finer grid is a configuration error.
MAX_SWEEP_POINTS = 1_000_000
# Sweep rows formatted per string operation; bounds the text held at once.
ROWS_PER_BLOCK = 4096
# Nodes placed over all Monte-Carlo fields: 100 seeds fit any field size.
MAX_MC_NODES = 100 * planner.MAX_FIELD_NODES

REPRODUCE_FREQUENCIES_HZ = (400e6, 900e6, 2.4e9)
REPRODUCE_ELEMENTS = (1, 16, 32)


@dataclass(frozen=True)
class RunConfig:
    """Typed view of the flat key/value configuration, checked when built."""

    link_frequency_hz: float = 400e6
    link_bandwidth_hz: float = 15e6
    link_noise_figure_db: float = lb.CALIBRATED_NOISE_FIGURE_DB
    link_los_a: float = lb.SUBURBAN_LOS_A
    link_los_b: float = lb.SUBURBAN_LOS_B
    link_excess_los_db: float = lb.CALIBRATED_EXCESS_LOS_DB
    link_excess_nlos_db: float = lb.CALIBRATED_EXCESS_NLOS_DB
    array_elements: int = 32
    circuit_efficiency: float = lb.DEFAULT_CONVERSION_EFFICIENCY
    circuit_threshold_dbm: float | None = None  # None: per-band default
    sweep_distance_start_m: float = 1.0
    sweep_distance_stop_m: float = 50.0
    sweep_distance_step_m: float = 1.0
    sweep_frequencies_hz: tuple[float, ...] = (400e6,)
    sweep_elements: tuple[int, ...] = (1, 16, 32)
    field_width_m: float = 100.0
    field_height_m: float = 100.0
    field_density: float = 0.25
    field_count: int = 0  # 0: use density
    field_seed: int = 1
    plan_heights_m: tuple[float, ...] = (10.0, 5.0)
    plan_d_eh_m: float | None = None  # None ("auto"): derive from link budget
    plan_mode: str = "heuristic"
    plan_mc_seeds: int = 100
    mission_wpt_power_w: float = 10.0
    mission_wur_power_w: float = 1.0
    mission_wur_wake_threshold_dbm: float = -50.0
    mission_payload_bits: float = 10e6
    mission_latency_cap_s: float = 30.0

    def __post_init__(self) -> None:
        _check_config(self)


def _attr_to_key(attr: str) -> str:
    return attr.replace("_", ".", 1)


def _parse_value(attr: str, raw: str, default):
    raw = raw.strip()
    key = _attr_to_key(attr)
    if isinstance(default, str):  # plan.mode
        return raw
    if attr in ("circuit_threshold_dbm", "plan_d_eh_m") and raw.lower() == "auto":
        return None
    if isinstance(default, tuple):
        items = [part.strip() for part in raw.split(",") if part.strip()]
        integral = isinstance(default[0], int)
        return tuple(_parse_number(key, part, integral) for part in items)
    return _parse_number(key, raw, isinstance(default, int))


def _parse_number(key: str, raw: str, integral: bool) -> float | int:
    """A finite float, or the exact int written when ``integral``; errors name ``key``."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{key} must be finite, got {raw!r}")
    if not integral:
        return value
    try:
        return int(raw)  # exact, where float rounds above 2**53
    except ValueError:  # 1e3 or 10.0; a rare spelling, so decimal loads only here
        from decimal import Decimal
    exact = Decimal(raw)  # finite, so at most 309 digits
    if exact != exact.to_integral_value():
        raise ConfigurationError(f"{key} must be an integer, got {raw!r}")
    return int(exact)


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        short = f"{value:g}"  # 4e+08 for the defaults; repr when :g would round
        return short if float(short) == value else repr(value)
    return str(value)


def parse_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Load a config file (optional) and apply CLI overrides; the RunConfig
    built from them checks the values."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    known = {_attr_to_key(attr): attr for attr in defaults}
    values = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
                )
            key, _, raw = stripped.partition("=")
            attr = known.get(key.strip())
            if attr is None:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            try:
                values[attr] = _parse_value(attr, raw, defaults[attr])
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    values.update(overrides or {})
    return RunConfig(**values)


# The config key of each library field or argument that can reject a value.
# A sweep series reads its band and element count from the sweep keys.
FIELD_KEYS = {
    "carrier_frequency_hz": "link.frequency_hz", "band_hz": "link.frequency_hz",
    "los_a": "link.los_a", "los_b": "link.los_b", "bandwidth_hz": "link.bandwidth_hz",
    "excess_loss_los_db": "link.excess_los_db", "excess_loss_nlos_db": "link.excess_nlos_db",
    "noise_figure_db": "link.noise_figure_db", "elements_n": "array.elements",
    "conversion_efficiency": "circuit.efficiency", "seed": "field.seed",
    "input_threshold_dbm": "circuit.threshold_dbm",  # not finite, or no default for the band
    "density_per_cell": "field.density", "payload_bits": "mission.payload_bits",
    "wpt_power_w": "mission.wpt_power_w", "wur_power_w": "mission.wur_power_w",
    "latency_cap_s": "mission.latency_cap_s", "eh_distance_m": "plan.d_eh_m",
}
SWEEP_FIELD_KEYS = {**FIELD_KEYS, "carrier_frequency_hz": "sweep.frequencies_hz",
                    "band_hz": "sweep.frequencies_hz", "elements_n": "sweep.elements"}


def _check_config(config: RunConfig) -> None:
    """Reject a config that some command could not run with, naming the key.
    Every RunConfig runs this once, when it is built. The library objects the
    commands build check their own fields; the rest is checked here."""
    for attr in ("plan_heights_m", "sweep_frequencies_hz", "sweep_elements"):
        if not getattr(config, attr):
            raise ConfigurationError(f"{_attr_to_key(attr)} needs at least one value")
    if config.plan_mode not in ("heuristic", "exact"):
        raise ConfigurationError(f"plan.mode must be heuristic or exact, got {config.plan_mode!r}")
    for attr in ("field_width_m", "field_height_m", "plan_mc_seeds"):
        value = getattr(config, attr)
        if not value > 0:
            raise ConfigurationError(f"{_attr_to_key(attr)} must be > 0, got {value:g}")
    if not 0 <= config.field_count <= planner.MAX_FIELD_NODES:
        raise ConfigurationError(
            f"field.count must be in 0..{planner.MAX_FIELD_NODES} (0: use field.density), "
            f"got {config.field_count}"
        )
    width, height, keys = config.field_width_m, config.field_height_m, FIELD_KEYS
    try:
        lb.noise_power_dbm(config.link_bandwidth_hz, config.link_noise_figure_db)
        for hover_m in config.plan_heights_m:  # the traversal node sits below the hover point
            _check_passive(config, "plan.heights_m", hover_m, config.link_frequency_hz,
                           config.array_elements)
        planner.pcg64_start(config.field_seed)
        # On an empty field: the check places no node.
        build_scenario(config, planner.NodeField(width, height, np.empty((0, 2))))
        count = config.field_count or planner.density_node_count(width, height,
                                                                 config.field_density)
        keys = SWEEP_FIELD_KEYS
        for frequency in config.sweep_frequencies_hz:
            _environment(config, frequency)
            _circuit(config, frequency)
        for elements in config.sweep_elements:
            lb.AntennaArray(elements)
    except ConfigurationError as exc:
        if exc.field not in keys:
            raise
        raise ConfigurationError(str(exc).replace(exc.field, keys[exc.field])) from None
    if count > planner.MAX_FIELD_NODES:
        raise ConfigurationError(
            f"field.density = {config.field_density:g} gives {count} nodes on a {width:g} m x "
            f"{height:g} m field, over the {planner.MAX_FIELD_NODES}-node limit"
        )
    if count * config.plan_mc_seeds > MAX_MC_NODES:
        raise ConfigurationError(f"plan.mc_seeds = {config.plan_mc_seeds} fields of {count} "
                                 f"nodes exceed the {MAX_MC_NODES}-node Monte-Carlo limit")
    # The one-by-one tour visits every node.
    if config.plan_mode == "exact" and count > planner.EXACT_SOLVER_MAX_POINTS:
        raise ConfigurationError(
            f"plan.mode = exact plans at most {planner.EXACT_SOLVER_MAX_POINTS} points, "
            f"and the field has {count} nodes"
        )
    if not config.sweep_distance_step_m > 0:
        raise ConfigurationError("sweep.distance_step_m must be > 0")
    for frequency in config.sweep_frequencies_hz:  # the closest link, at the largest gain
        _check_passive(config, "sweep.distance_start_m", config.sweep_distance_start_m,
                       frequency, max(config.sweep_elements))
    span = _sweep_span(config)
    if span < 0:
        raise ConfigurationError("empty distance grid: sweep.distance_stop_m is below the start")
    if not span < MAX_SWEEP_POINTS:
        raise ConfigurationError(f"sweep.distance_step_m gives over {MAX_SWEEP_POINTS} points")


def _check_passive(config: RunConfig, key: str, distance_m: float, frequency_hz: float,
                   elements: int) -> None:
    """A node directly below the UAV at ``distance_m`` > 0 must not receive more than the
    UAV transmits: path loss there, which rises with distance, is at least the array gain."""
    if not distance_m > 0:
        raise ConfigurationError(f"{key} must be > 0, got {distance_m:g}")
    excess_db = lb.array_gain_db(lb.AntennaArray(elements)) - float(
        lb.link_budget(_environment(config, frequency_hz), distance_m, distance_m).path_loss_db)
    if excess_db > 0:
        raise ConfigurationError(
            f"{key} = {distance_m:g} is too close: a node there would receive {excess_db:.4g} dB "
            f"more than the UAV transmits at {frequency_hz:g} Hz"
        )


def default_lines() -> list[str]:
    """Every config key with its default, one `key = value` line each."""
    return [f"{_attr_to_key(f.name)} = {_format_value(f.default)}" for f in fields(RunConfig)]


def _environment(config: RunConfig, frequency_hz: float) -> lb.RadioEnvironment:
    return lb.RadioEnvironment(
        frequency_hz,
        los_a=config.link_los_a,
        los_b=config.link_los_b,
        excess_loss_los_db=config.link_excess_los_db,
        excess_loss_nlos_db=config.link_excess_nlos_db,
    )


def _circuit(config: RunConfig, frequency_hz: float) -> lb.EhCircuit:
    if config.circuit_threshold_dbm is None:
        return lb.EhCircuit.for_band(frequency_hz, config.circuit_efficiency)
    return lb.EhCircuit(frequency_hz, config.circuit_threshold_dbm, config.circuit_efficiency)


def _field(config: RunConfig, seed: int) -> planner.NodeField:
    return planner.generate_nodes(
        config.field_width_m,
        config.field_height_m,
        config.field_density,
        seed,
        count=config.field_count or None,
    )


def build_scenario(config: RunConfig,
                   node_field: planner.NodeField | None = None) -> missionsim.MissionScenario:
    """The config's mission, on ``node_field`` or else on the field at ``field.seed``."""
    frequency = config.link_frequency_hz
    return missionsim.MissionScenario(
        field=node_field or _field(config, config.field_seed),
        env=_environment(config, frequency),
        array=lb.AntennaArray(config.array_elements),
        circuit=_circuit(config, frequency),
        wpt_power_w=config.mission_wpt_power_w,
        wur_power_w=config.mission_wur_power_w,
        wur_wake_threshold_dbm=config.mission_wur_wake_threshold_dbm,
        payload_bits=config.mission_payload_bits,
        bandwidth_hz=config.link_bandwidth_hz,
        noise_figure_db=config.link_noise_figure_db,
        latency_cap_s=config.mission_latency_cap_s,
        height_m=config.plan_heights_m[0],
        eh_distance_m=config.plan_d_eh_m,
    )


def _cell(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return "" if value is None else str(value)


def _write_csv(path: Path, header: list[str], lines) -> Path:
    """Write the header, then ``lines`` (text ending in newlines); the file
    is moved into place once complete, so an error leaves no partial file."""
    partial = path.with_name(path.name + ".partial")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with partial.open("w", encoding="utf-8", newline="\n") as out:
            out.write(",".join(header) + "\n")
            out.writelines(lines)
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def _rows(rows: list[list]):
    return (",".join(map(_cell, row)) + "\n" for row in rows)


def _sweep_span(config: RunConfig) -> float:
    """Steps from the sweep start to its stop, which float error must not drop."""
    start, stop = config.sweep_distance_start_m, config.sweep_distance_stop_m
    return (stop + 1e-9 - start) / config.sweep_distance_step_m


def _sweep_distances(config: RunConfig) -> np.ndarray:
    steps = np.arange(math.floor(_sweep_span(config)) + 1)
    return config.sweep_distance_start_m + steps * config.sweep_distance_step_m


def _sweep(config: RunConfig, path: Path, columns: list[str], values, **uplink) -> Path:
    """Write one row per (frequency, elements, distance) grid point.

    The node sits directly below the UAV, so slant range equals distance.
    Each (frequency, elements) series is one ``lb.link_budget`` call over
    the grid, given ``uplink`` for the rate stage. ``values(budget, circuit)``
    gives the remaining columns: each an array over the grid or one number.
    Each distance cell is formatted once per file and shared by every
    series; a series formats its array columns one ``%`` per block of rows.
    """
    distances = _sweep_distances(config)
    distance_cells = [FLOAT_FMT % distance for distance in distances.tolist()]

    def series():
        for frequency in config.sweep_frequencies_hz:
            env, circuit = _environment(config, frequency), _circuit(config, frequency)
            for elements in config.sweep_elements:
                budget = lb.link_budget(env, distances, distances, config.mission_wpt_power_w,
                                        lb.AntennaArray(elements), circuit, **uplink)
                cells, arrays = ["%s", _cell(frequency), _cell(elements)], []
                for value in values(budget, circuit):
                    is_array = isinstance(value, np.ndarray)
                    cells.append(FLOAT_FMT if is_array else _cell(value))
                    arrays += [value] if is_array else []
                row, width = ",".join(cells) + "\n", 1 + len(arrays)
                for lo in range(0, len(distance_cells), ROWS_PER_BLOCK):
                    hi = min(lo + ROWS_PER_BLOCK, len(distance_cells))
                    flat = [None] * (width * (hi - lo))  # the block's cells in row order
                    flat[::width] = distance_cells[lo:hi]
                    for k, a in enumerate(arrays, 1):
                        flat[k::width] = a[lo:hi].tolist()
                    yield (row * (hi - lo)) % tuple(flat)

    return _write_csv(path, ["distance_m", "freq_hz", "elements", *columns], series())


def sweep_eh(config: RunConfig, out_dir: Path) -> Path:
    """Received/harvested power over the (distance, frequency, elements) grid."""
    return _sweep(
        config, out_dir / "eh_sweep.csv", ["received_dbm", "harvested_dbm", "threshold_dbm"],
        lambda budget, circuit: (
            budget.received_dbm, budget.harvested_dbm, circuit.input_threshold_dbm
        ),
    )


def sweep_rate(config: RunConfig, out_dir: Path) -> Path:
    """Achievable uplink rate over the same grid as sweep_eh."""
    return _sweep(
        config, out_dir / "rate_sweep.csv", ["rate_bps"], lambda budget, _: (budget.rate_bps,),
        bandwidth_hz=config.link_bandwidth_hz, noise_figure_db=config.link_noise_figure_db,
    )


def _mc_lengths(config: RunConfig, d_eh: float, first) -> dict[str, list[float]]:
    """Per-strategy tour lengths over the Monte-Carlo seed range; ``first``
    is the comparison already made on the field at ``field.seed``."""
    lengths: dict[str, list[float]] = {}
    for seed in range(config.field_seed, config.field_seed + config.plan_mc_seeds):
        comparison = first if seed == config.field_seed else planner.compare_strategies(
            _field(config, seed), d_eh, list(config.plan_heights_m), mode=config.plan_mode
        )
        for result in comparison.results:
            lengths.setdefault(result.name, []).append(result.length_m)
    return lengths


def plan_mission(
    config: RunConfig,
) -> tuple[missionsim.MissionScenario, planner.StrategyComparison]:
    """The scenario with d_EH resolved, and its field's strategies."""
    scenario = build_scenario(config)
    scenario = replace(scenario, eh_distance_m=missionsim.resolve_eh_distance_m(scenario))
    comparison = planner.compare_strategies(
        scenario.field, scenario.eh_distance_m, list(config.plan_heights_m), mode=config.plan_mode
    )
    return scenario, comparison


def plan_and_simulate(
    config: RunConfig, out_dir: Path, with_report: bool = True, planned: tuple | None = None
) -> list[Path]:
    """Tours for every strategy, a mission report, and the strategy summary.

    ``tour.csv`` holds each strategy's visit sequence, ``report.csv`` the
    per-node mission outcomes at the first configured height, and
    ``summary.csv`` per-strategy lengths, savings, and Monte-Carlo means
    over ``plan.mc_seeds`` seeded fields. A field whose one-by-one tour has
    length 0 (one node, or coincident nodes) counts a saving of 0.
    ``planned`` is ``plan_mission(config)``, when the caller has it already.
    """
    scenario, comparison = planned or plan_mission(config)
    node_field, d_eh = scenario.field, scenario.eh_distance_m

    tour_rows = []
    for result in comparison.results:
        for stop, group_pos in enumerate(result.plan.visit_order):
            group = result.groups[group_pos]
            point = node_field.positions[group.traversal_index]
            tour_rows.append(
                [result.name, stop, float(point[0]), float(point[1]),
                 group_pos, len(group.member_indices)]
            )
    paths = [
        _write_csv(
            out_dir / "tour.csv",
            ["strategy", "visit_order", "x_m", "y_m", "group_id", "group_size"],
            _rows(tour_rows),
        )
    ]

    if with_report:
        # results[0] is the one-by-one baseline, results[1] the first height.
        report = missionsim.simulate_mission(scenario, comparison.results[1])
        report_rows = []
        for node in report.nodes:
            x, y = node_field.positions[node.node_index]
            report_rows.append(
                [node.node_index, float(x), float(y), node.group_id, node.slant_m,
                 node.harvested_energy_j, node.tx_power_w, node.tx_time_s,
                 node.bits_delivered]
            )
        paths.append(
            _write_csv(
                out_dir / "report.csv",
                ["node", "x_m", "y_m", "group_id", "slant_m", "harvested_energy_j",
                 "tx_power_w", "tx_time_s", "bits_delivered"],
                _rows(report_rows),
            )
        )

    mc = _mc_lengths(config, d_eh, comparison)
    baseline_lengths = mc["one-by-one"]
    summary_rows = []
    for result in comparison.results:
        lengths = mc[result.name]
        mc_mean = sum(lengths) / len(lengths)
        mc_saving = sum(
            1.0 - l / b if b > 0 else 0.0 for l, b in zip(lengths, baseline_lengths)
        ) / len(lengths)
        summary_rows.append(
            [
                result.name,
                result.height_m,
                result.radius_m,
                result.group_count,
                result.length_m,
                100.0 * comparison.saving_fraction(result.name),
                len(lengths),
                mc_mean,
                100.0 * mc_saving,
            ]
        )
    paths.append(
        _write_csv(
            out_dir / "summary.csv",
            ["strategy", "height_m", "radius_m", "groups", "tour_length_m",
             "saving_pct", "mc_seeds", "mc_mean_length_m", "mc_mean_saving_pct"],
            _rows(summary_rows),
        )
    )
    return paths


def reproduce(config: RunConfig, out_dir: Path) -> list[Path]:
    """Regenerate all figure data: both sweeps on the full reference grid
    (three carrier bands, three array sizes) plus tours, mission report,
    and the Monte-Carlo strategy summary. Emits exactly five CSV files.
    The mission is planned first, so a config it rejects writes no file;
    the reference bands are checked when ``replace`` builds their config.
    """
    full = replace(
        config,
        sweep_frequencies_hz=REPRODUCE_FREQUENCIES_HZ,
        sweep_elements=REPRODUCE_ELEMENTS,
    )
    planned = plan_mission(full)
    paths = [sweep_eh(full, out_dir), sweep_rate(full, out_dir)]
    paths.extend(plan_and_simulate(full, out_dir, with_report=True, planned=planned))
    return paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uewpiot",
        description="Wireless-power link sweeps, UAV tour planning, and mission simulation.",
    )
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override field.seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument(
        "command",
        choices=["sweep-eh", "sweep-rate", "plan", "simulate", "reproduce", "defaults"],
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "defaults":
            for line in default_lines():
                print(line)
            return 0
        overrides = {} if args.seed is None else {"field_seed": args.seed}
        config = parse_config(args.config, overrides)
        if args.command == "sweep-eh":
            paths = [sweep_eh(config, args.out)]
        elif args.command == "sweep-rate":
            paths = [sweep_rate(config, args.out)]
        elif args.command == "plan":
            paths = plan_and_simulate(config, args.out, with_report=False)
        elif args.command == "simulate":
            paths = plan_and_simulate(config, args.out, with_report=True)
        else:
            paths = reproduce(config, args.out)
        for path in paths:
            print(path)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except UewpiotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
