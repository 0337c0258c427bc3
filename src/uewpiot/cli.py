"""Command-line front end: config ingestion, parameter sweeps, CSV output.

Subcommands:

* ``sweep-eh``    harvested/received power vs distance (one row per grid point)
* ``sweep-rate``  achievable uplink data rate vs distance
* ``plan``        node field, coverage groups, and per-strategy tours
* ``simulate``    plan plus a full mission run (per-node report)
* ``reproduce``   all of the above on the reference grids, five CSV files
* ``defaults``    print every config key with its default value

Configuration is a flat ``key = value`` text file with section-prefixed
keys (``link.frequency_hz = 400e6``). Unknown keys are rejected. All
floating-point output uses a fixed %.10g format so reruns are
byte-identical. Exit codes: 0 ok, 2 configuration error, 3 infeasible
request, 4 I/O error.

``UEWPIOT_THREADS`` caps sweep/Monte-Carlo parallelism (0 or unset: one
worker per CPU).
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import linkbudget as lb
from . import missionsim, planner
from .errors import ConfigurationError, InfeasibilityError, UewpiotError

FLOAT_FMT = "{:.10g}"

REPRODUCE_FREQUENCIES_HZ = (400e6, 900e6, 2.4e9)
REPRODUCE_ELEMENTS = (1, 16, 32)


@dataclass
class RunConfig:
    """Typed view of the flat key/value configuration."""

    link_frequency_hz: float = 400e6
    link_bandwidth_hz: float = 15e6
    link_noise_figure_db: float = lb.CALIBRATED_NOISE_FIGURE_DB
    link_los_a: float = lb.SUBURBAN_LOS_A
    link_los_b: float = lb.SUBURBAN_LOS_B
    link_excess_los_db: float = lb.CALIBRATED_EXCESS_LOS_DB
    link_excess_nlos_db: float = lb.CALIBRATED_EXCESS_NLOS_DB
    array_elements: int = 32
    array_spacing_wavelengths: float = 0.5
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
    mission_wake_duration_s: float = 0.1
    mission_payload_bits: float = 10e6
    mission_latency_cap_s: float = 30.0
    mission_cost_weight_energy: float = 0.01
    mission_cost_weight_time: float = 1.0
    mission_hover_power_w: float = 150.0
    mission_cruise_speed_mps: float = 10.0


def _key_to_attr(key: str) -> str:
    return key.replace(".", "_").replace("-", "_")


def _attr_to_key(attr: str) -> str:
    return attr.replace("_", ".", 1)


def _parse_value(attr: str, raw: str, template: RunConfig):
    raw = raw.strip()
    default = getattr(template, attr)
    if attr in ("circuit_threshold_dbm", "plan_d_eh_m"):
        return None if raw.lower() == "auto" else float(raw)
    if attr == "plan_mode":
        if raw not in ("heuristic", "exact"):
            raise ConfigurationError(f"plan.mode must be heuristic or exact, got {raw!r}")
        return raw
    if isinstance(default, tuple):
        items = [part for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigurationError(f"{_attr_to_key(attr)} needs at least one value")
        caster = int if default and isinstance(default[0], int) else float
        return tuple(caster(float(part)) if caster is int else caster(part) for part in items)
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(default, int):
        return int(float(raw))
    return float(raw)


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def parse_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Load a config file (optional) and apply CLI overrides."""
    config = RunConfig()
    known = {f.name for f in fields(RunConfig)}
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
            attr = _key_to_attr(key.strip())
            if attr not in known:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            try:
                setattr(config, attr, _parse_value(attr, raw, config))
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    for attr, value in (overrides or {}).items():
        setattr(config, attr, value)
    return config


def default_lines() -> list[str]:
    """Every config key with its default, one `key = value` line each."""
    template = RunConfig()
    return [
        f"{_attr_to_key(f.name)} = {_format_value(getattr(template, f.name))}"
        for f in fields(RunConfig)
    ]


def _environment(config: RunConfig, frequency_hz: float) -> lb.RadioEnvironment:
    return lb.RadioEnvironment(
        frequency_hz,
        los_a=config.link_los_a,
        los_b=config.link_los_b,
        excess_loss_los_db=config.link_excess_los_db,
        excess_loss_nlos_db=config.link_excess_nlos_db,
    )


def _circuit(config: RunConfig, frequency_hz: float) -> lb.EhCircuit:
    if config.circuit_threshold_dbm is not None:
        return lb.EhCircuit(
            frequency_hz, config.circuit_threshold_dbm, config.circuit_efficiency
        )
    return lb.EhCircuit.for_band(frequency_hz, config.circuit_efficiency)


def _field(config: RunConfig) -> planner.NodeField:
    return planner.generate_nodes(
        config.field_width_m,
        config.field_height_m,
        config.field_density,
        config.field_seed,
        count=config.field_count or None,
    )


def build_scenario(config: RunConfig, height_m: float | None = None) -> missionsim.MissionScenario:
    frequency = config.link_frequency_hz
    return missionsim.MissionScenario(
        field=_field(config),
        env=_environment(config, frequency),
        array=lb.AntennaArray.with_elements(
            config.array_elements, config.array_spacing_wavelengths
        ),
        circuit=_circuit(config, frequency),
        wpt_power_w=config.mission_wpt_power_w,
        wur_power_w=config.mission_wur_power_w,
        wur_wake_threshold_dbm=config.mission_wur_wake_threshold_dbm,
        payload_bits=config.mission_payload_bits,
        bandwidth_hz=config.link_bandwidth_hz,
        noise_figure_db=config.link_noise_figure_db,
        latency_cap_s=config.mission_latency_cap_s,
        cost_weight_energy=config.mission_cost_weight_energy,
        cost_weight_time=config.mission_cost_weight_time,
        hover_power_w=config.mission_hover_power_w,
        cruise_speed_mps=config.mission_cruise_speed_mps,
        height_m=config.plan_heights_m[0] if height_m is None else height_m,
        wake_duration_s=config.mission_wake_duration_s,
        eh_distance_m=config.plan_d_eh_m,
    )


def _max_workers() -> int:
    raw = os.environ.get("UEWPIOT_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"UEWPIOT_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise ConfigurationError("UEWPIOT_THREADS must be >= 0")
    return value or (os.cpu_count() or 1)


def _parallel_map(func, items):
    """Order-preserving map, fanned out over the configured worker cap."""
    items = list(items)
    workers = min(_max_workers(), max(len(items), 1))
    if workers <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    def cell(value) -> str:
        if isinstance(value, float):
            return FLOAT_FMT.format(value)
        return "" if value is None else str(value)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _sweep_distances(config: RunConfig) -> list[float]:
    if not config.sweep_distance_step_m > 0:
        raise ConfigurationError("sweep.distance_step_m must be > 0")
    distances = []
    d = config.sweep_distance_start_m
    while d <= config.sweep_distance_stop_m + 1e-9:
        distances.append(d)
        d += config.sweep_distance_step_m
    if not distances:
        raise ConfigurationError("empty distance grid")
    return distances


def sweep_eh(config: RunConfig, out_dir: Path) -> Path:
    """Received/harvested power over the (distance, frequency, elements) grid.

    The node sits directly below the UAV, so the slant range equals the
    grid distance.
    """
    distances = _sweep_distances(config)

    def one_series(args):
        frequency, elements = args
        env = _environment(config, frequency)
        circuit = _circuit(config, frequency)
        array = lb.AntennaArray.with_elements(elements, config.array_spacing_wavelengths)
        rows = []
        for d in distances:
            geom = lb.LinkGeometry.overhead(d)
            received = lb.received_power_dbm(config.mission_wpt_power_w, array, env, geom)
            harvested = lb.harvested_power_dbm(
                config.mission_wpt_power_w, array, circuit, env, geom
            )
            rows.append(
                [d, frequency, elements, received, harvested, circuit.input_threshold_dbm]
            )
        return rows

    grid = [(f, n) for f in config.sweep_frequencies_hz for n in config.sweep_elements]
    rows = [row for series in _parallel_map(one_series, grid) for row in series]
    return _write_csv(
        out_dir / "eh_sweep.csv",
        ["distance_m", "freq_hz", "elements", "received_dbm", "harvested_dbm", "threshold_dbm"],
        rows,
    )


def sweep_rate(config: RunConfig, out_dir: Path) -> Path:
    """Achievable uplink rate over the same grid as sweep_eh."""
    distances = _sweep_distances(config)

    def one_series(args):
        frequency, elements = args
        env = _environment(config, frequency)
        circuit = _circuit(config, frequency)
        array = lb.AntennaArray.with_elements(elements, config.array_spacing_wavelengths)
        rows = []
        for d in distances:
            rate = lb.achievable_data_rate_bps(
                lb.LinkGeometry.overhead(d),
                env,
                array,
                circuit,
                config.link_bandwidth_hz,
                config.link_noise_figure_db,
                wpt_power_w=config.mission_wpt_power_w,
            )
            rows.append([d, frequency, elements, rate])
        return rows

    grid = [(f, n) for f in config.sweep_frequencies_hz for n in config.sweep_elements]
    rows = [row for series in _parallel_map(one_series, grid) for row in series]
    return _write_csv(
        out_dir / "rate_sweep.csv",
        ["distance_m", "freq_hz", "elements", "rate_bps"],
        rows,
    )


def _resolve_d_eh(config: RunConfig) -> float:
    if config.plan_d_eh_m is not None:
        return config.plan_d_eh_m
    frequency = config.link_frequency_hz
    d_eh = lb.achievable_eh_distance_m(
        config.mission_wpt_power_w,
        lb.AntennaArray.with_elements(config.array_elements, config.array_spacing_wavelengths),
        _circuit(config, frequency),
        _environment(config, frequency),
        config.plan_heights_m[0],
    )
    if d_eh is None:
        raise InfeasibilityError(
            "harvester threshold unreachable at the first configured height; "
            "set plan.d_eh_m explicitly"
        )
    return d_eh


def _mc_lengths(config: RunConfig, d_eh: float) -> dict[str, list[float]]:
    """Per-strategy tour lengths over the Monte-Carlo seed range."""

    def one_seed(seed: int):
        field = planner.generate_nodes(
            config.field_width_m,
            config.field_height_m,
            config.field_density,
            seed,
            count=config.field_count or None,
        )
        comparison = planner.compare_strategies(
            field, d_eh, list(config.plan_heights_m), mode=config.plan_mode
        )
        return {result.name: result.length_m for result in comparison.results}

    seeds = [config.field_seed + i for i in range(config.plan_mc_seeds)]
    lengths: dict[str, list[float]] = {}
    for per_seed in _parallel_map(one_seed, seeds):
        for name, value in per_seed.items():
            lengths.setdefault(name, []).append(value)
    return lengths


def plan_and_simulate(config: RunConfig, out_dir: Path, with_report: bool = True) -> list[Path]:
    """Tours for every strategy, a mission report, and the strategy summary.

    ``tour.csv`` holds each strategy's visit sequence, ``report.csv`` the
    per-node mission outcomes at the first configured height, and
    ``summary.csv`` per-strategy lengths, savings, and Monte-Carlo means
    over ``plan.mc_seeds`` seeded fields.
    """
    if config.plan_mc_seeds < 1:
        raise ConfigurationError(f"plan.mc_seeds must be >= 1, got {config.plan_mc_seeds}")
    d_eh = _resolve_d_eh(config)
    node_field = _field(config)
    comparison = planner.compare_strategies(
        node_field, d_eh, list(config.plan_heights_m), mode=config.plan_mode
    )

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
            tour_rows,
        )
    ]

    if with_report:
        scenario = build_scenario(config)
        report = missionsim.simulate_mission(scenario)
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
                report_rows,
            )
        )

    mc = _mc_lengths(config, d_eh)
    baseline_lengths = mc["one-by-one"]
    summary_rows = []
    for result in comparison.results:
        lengths = mc[result.name]
        mc_mean = sum(lengths) / len(lengths)
        mc_saving = sum(
            1.0 - l / b for l, b in zip(lengths, baseline_lengths)
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
            summary_rows,
        )
    )
    return paths


def reproduce(config: RunConfig, out_dir: Path) -> list[Path]:
    """Regenerate all figure data: both sweeps on the full reference grid
    (three carrier bands, three array sizes) plus tours, mission report,
    and the Monte-Carlo strategy summary. Emits exactly five CSV files.
    """
    full = replace(
        config,
        sweep_frequencies_hz=REPRODUCE_FREQUENCIES_HZ,
        sweep_elements=REPRODUCE_ELEMENTS,
    )
    paths = [sweep_eh(full, out_dir), sweep_rate(full, out_dir)]
    paths.extend(plan_and_simulate(full, out_dir, with_report=True))
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
