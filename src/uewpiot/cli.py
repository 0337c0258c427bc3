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
Building a ``RunConfig`` checks every key, whatever the command: each value
against its physical range in ``RANGES``, then the rules that span keys. So an
unknown key or a value that some command could not run with is rejected,
naming the key, before any file is written. ``plan``, ``simulate`` and
``reproduce`` plan the mission in one function, ``plan_and_simulate``.
All five CSV files go through one writer, ``_lines``, which fills a row
template from columns a block of rows at a time; floats use a fixed
%.10g format so reruns are byte-identical. Exit codes: 0 ok, 2
configuration error, 3 infeasible request, 4 I/O error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import linkbudget as lb
from . import missionsim, planner
from .errors import ConfigurationError, InfeasibilityError, is_integer

FLOAT_FMT = "%.10g"

# Distance points per sweep series; a finer grid is a configuration error.
MAX_SWEEP_POINTS = 1_000_000
# CSV rows formatted per string operation; bounds the text held at once.
ROWS_PER_BLOCK = 4096
# Nodes placed over all Monte-Carlo fields: 100 seeds fit any field size. A
# field is charged at least MC_FIELD_MIN_NODES, since a small one costs its
# per-field overhead: so at most 10,000 seeds.
MAX_MC_NODES = 100 * planner.MAX_FIELD_NODES
MC_FIELD_MIN_NODES = 1000

REPRODUCE_FREQUENCIES_HZ = tuple(lb.BAND_THRESHOLDS_DBM)  # each band with a default threshold
REPRODUCE_ELEMENTS = (1, 16, 32)


@dataclass(frozen=True)
class RunConfig:
    """Typed view of the flat key/value configuration, checked when built."""

    link_frequency_hz: float = 400e6
    link_bandwidth_hz: float = missionsim.MissionScenario.bandwidth_hz
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
    plan_heights_m: tuple[float, ...] = (missionsim.MissionScenario.height_m, 5.0)
    plan_d_eh_m: float | None = None  # None ("auto"): derive from link budget
    plan_mode: str = "heuristic"
    plan_mc_seeds: int = 100
    mission_wpt_power_w: float = missionsim.MissionScenario.wpt_power_w
    mission_wur_power_w: float = missionsim.MissionScenario.wur_power_w
    mission_wur_wake_threshold_dbm: float = missionsim.MissionScenario.wur_wake_threshold_dbm
    mission_payload_bits: float = missionsim.MissionScenario.payload_bits
    mission_latency_cap_s: float = missionsim.MissionScenario.latency_cap_s

    def __post_init__(self) -> None:
        _check_config(self)


def _attr_to_key(attr: str) -> str:
    return attr.replace("_", ".", 1)


def _parse_value(attr: str, raw: str, default):
    raw = raw.strip()
    key = _attr_to_key(attr)
    if isinstance(default, str):  # plan.mode
        return raw
    if default is None and raw.lower() == "auto":
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
        try:
            text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")  # a BOM
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text at byte {exc.start}") from None
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


class Range(NamedTuple):
    """``low`` to ``high``, ``low`` excluded if ``open_low``; int bounds hold only integers."""

    low: float
    high: float
    open_low: bool = False

    def __contains__(self, value) -> bool:
        if isinstance(self.low, int) and not is_integer(value):
            return False
        return (self.low < value if self.open_low else self.low <= value) and value <= self.high

    def __str__(self) -> str:
        return f"{'[('[self.open_low]}{self.low:g}, {self.high:g}]"


# Each config key's physical range, which each value of a list key lies in too. Inside
# them no product in the link budget, grouping, tours or Monte-Carlo sums overflows.
RANGES = {
    # Up to 10,000 km: a squared distance is below 1e15 m^2, every tour length sum below 1e17 m.
    **dict.fromkeys(["sweep.distance_start_m", "sweep.distance_stop_m", "sweep.distance_step_m",
                     "field.width_m", "field.height_m", "plan.heights_m", "plan.d_eh_m"],
                    Range(0.0, 1e7, open_low=True)),
    # The radio spectrum: 20 log10(4 pi f / c) is -88 to 102 dB.
    **dict.fromkeys(["link.frequency_hz", "sweep.frequencies_hz"], Range(1e3, 3e12)),
    # Up to 1 MW (90 dBm) and 60 dB of gain; with no link amplifying, no node gets more.
    **dict.fromkeys(["mission.wpt_power_w", "mission.wur_power_w"],
                    Range(0.0, 1e6, open_low=True)),
    **dict.fromkeys(["array.elements", "sweep.elements"], Range(1, 10**6)),
    "circuit.efficiency": Range(0.0, 1.0, open_low=True),
    # -1,000 dBm is met within 1e62 m (path loss > 20 log10 d - 88 dB): auto d_EH^2 is finite.
    **dict.fromkeys(["circuit.threshold_dbm", "mission.wur_wake_threshold_dbm"], Range(-1e3, 1e3)),
    # Noise of at least -174 dBm keeps the uplink SNR under 90 + 174 dB: every rate is finite.
    "link.bandwidth_hz": Range(1.0, 1e12),
    # Losses in dB are sums; P_LoS's exp may pass the float range, and link_budget takes 0.
    **dict.fromkeys(["link.noise_figure_db", "link.excess_los_db", "link.excess_nlos_db"],
                    Range(0.0, 1e3)),
    **dict.fromkeys(["link.los_a", "link.los_b"], Range(0.0, 1e3, open_low=True)),
    # Node counts: density x area is at most 1e20, and the node limits below then bind.
    "field.density": Range(0.0, 1e6, open_low=True),
    "field.count": Range(0, planner.MAX_FIELD_NODES),
    "plan.mc_seeds": Range(1, MAX_MC_NODES // MC_FIELD_MIN_NODES),
    "field.seed": Range(0, sys.float_info.max),  # what a finite number spells: 32 words to hash
    "plan.mode": ("heuristic", "exact"),
    # A served node is powered at most for the cap: 1e12 J at 1 MW.
    "mission.payload_bits": Range(0.0, 1e12),
    "mission.latency_cap_s": Range(0.0, 1e6, open_low=True),
}
# The config key of each library field that rejects some config inside RANGES.
FIELD_KEYS = {"excess_loss_nlos_db": "link.excess_nlos_db",  # below the LoS excess loss
              "input_threshold_dbm": "circuit.threshold_dbm",  # no default for the band
              "density_per_cell": "field.density"}  # no node on the field


def _check_config(config: RunConfig) -> None:
    """Reject a config that some command could not run with, naming the key.
    Every RunConfig runs this once, when it is built: each value against its
    row of RANGES, then the rules that span keys, some in library objects."""
    for f in fields(config):
        key, value = _attr_to_key(f.name), getattr(config, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if not values:
            raise ConfigurationError(f"{key} needs at least one value")
        for item in values:
            if not (item is None is f.default or item in RANGES[key]):  # None: auto
                raise ConfigurationError(f"{key} must be in {RANGES[key]}, got {item!r}")
    width, height = config.field_width_m, config.field_height_m
    # A node below the UAV must lose at least the array gain, so that it receives no more
    # than the UAV transmits. Path loss rises with distance, so the closest links bind: the
    # lowest hover height, and in each sweep band the start at the largest array.
    links = [("plan.heights_m", min(config.plan_heights_m), config.link_frequency_hz,
              config.array_elements)] + [
        ("sweep.distance_start_m", config.sweep_distance_start_m, frequency,
         max(config.sweep_elements)) for frequency in config.sweep_frequencies_hz]
    try:
        for key, distance, frequency, elements in links:
            env, array = _environment(config, frequency), lb.AntennaArray(elements)
            _circuit(config, frequency)  # a band with no default threshold needs one set
            loss_db = float(lb.link_budget(env, distance, distance).path_loss_db)
            if lb.array_gain_db(array) > loss_db:
                raise ConfigurationError(
                    f"{key} = {distance:g} is too close: a node there would receive "
                    f"{lb.array_gain_db(array) - loss_db:.4g} dB more than the UAV transmits "
                    f"at {frequency:g} Hz")
        count = config.field_count or planner.density_node_count(width, height,
                                                                 config.field_density)
    except ConfigurationError as exc:
        if exc.field not in FIELD_KEYS:
            raise
        raise ConfigurationError(str(exc).replace(exc.field, FIELD_KEYS[exc.field])) from None
    if count > planner.MAX_FIELD_NODES:
        raise ConfigurationError(
            f"field.density = {config.field_density:g} gives {count} nodes on a {width:g} m x "
            f"{height:g} m field, over the {planner.MAX_FIELD_NODES}-node limit")
    if max(count, MC_FIELD_MIN_NODES) * config.plan_mc_seeds > MAX_MC_NODES:
        raise ConfigurationError(
            f"plan.mc_seeds = {config.plan_mc_seeds} fields of {count} nodes, each charged at "
            f"least {MC_FIELD_MIN_NODES}, exceed the {MAX_MC_NODES}-node Monte-Carlo limit")
    # The one-by-one tour visits every node.
    if config.plan_mode == "exact" and count > planner.EXACT_SOLVER_MAX_POINTS:
        raise ConfigurationError(
            f"plan.mode = exact plans at most {planner.EXACT_SOLVER_MAX_POINTS} points, "
            f"and the field has {count} nodes")
    span = _sweep_span(config)
    if span < 0:
        raise ConfigurationError("empty distance grid: sweep.distance_stop_m is below the start")
    if not span < MAX_SWEEP_POINTS:
        raise ConfigurationError(f"sweep.distance_step_m gives over {MAX_SWEEP_POINTS} points")


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
    return lb.EhCircuit(config.circuit_threshold_dbm, config.circuit_efficiency)


def _field(config: RunConfig, seed: int) -> planner.NodeField:
    return planner.generate_nodes(
        config.field_width_m,
        config.field_height_m,
        config.field_density,
        seed,
        count=config.field_count or None,
    )


def build_scenario(config: RunConfig) -> missionsim.MissionScenario:
    """The config's mission, on the field at ``field.seed``."""
    frequency = config.link_frequency_hz
    return missionsim.MissionScenario(
        field=_field(config, config.field_seed),
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


def _lines(template: str, columns):
    """CSV text: ``template``, one row with one ``%`` field per column, filled
    from ``columns`` (sequences of equal length) one ``%`` per block of
    ``ROWS_PER_BLOCK`` rows. A numpy column is listed a block at a time, so
    the text and cells held at once are bounded by the block.
    """
    width, count = len(columns), len(columns[0])
    for lo in range(0, count, ROWS_PER_BLOCK):
        hi = min(lo + ROWS_PER_BLOCK, count)
        flat = [None] * (width * (hi - lo))  # the block's cells in row order
        for k, column in enumerate(columns):
            block = column[lo:hi]
            flat[k::width] = block.tolist() if isinstance(block, np.ndarray) else block
        yield (template * (hi - lo)) % tuple(flat)


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
    series; a series' constant cells are formatted into its row template.
    """
    distances = _sweep_distances(config)
    distance_cells = [FLOAT_FMT % distance for distance in distances.tolist()]

    def series():
        for frequency in config.sweep_frequencies_hz:
            env, circuit = _environment(config, frequency), _circuit(config, frequency)
            for elements in config.sweep_elements:
                budget = lb.link_budget(env, distances, distances, config.mission_wpt_power_w,
                                        lb.AntennaArray(elements), circuit, **uplink)
                cells, arrays = ["%s", FLOAT_FMT % frequency, str(elements)], [distance_cells]
                for value in values(budget, circuit):
                    is_array = isinstance(value, np.ndarray)
                    cells.append(FLOAT_FMT if is_array else FLOAT_FMT % value)
                    arrays += [value] if is_array else []
                yield from _lines(",".join(cells) + "\n", arrays)

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


def plan_and_simulate(config: RunConfig, out_dir: Path, with_report: bool = True) -> list[Path]:
    """Plan the mission, then write its tours, report and strategy summary.

    The strategies are compared on the field at ``field.seed`` before any
    file is written. ``tour.csv`` holds each strategy's visit sequence,
    ``report.csv`` the per-node mission outcomes at the first configured
    height, and ``summary.csv`` per-strategy lengths, savings, and means
    over ``plan.mc_seeds`` fields from ``field.seed`` on, by strategy
    position. A one-by-one tour of length 0 (one node, or coincident
    nodes) counts a saving of 0.
    """
    scenario = build_scenario(config)
    scenario = replace(scenario, eh_distance_m=missionsim.resolve_eh_distance_m(scenario))
    d_eh, heights, mode = scenario.eh_distance_m, list(config.plan_heights_m), config.plan_mode
    strategies = planner.compare_strategies(scenario.field, d_eh, heights, mode=mode)
    positions, f = scenario.field.positions, FLOAT_FMT

    def tour_lines():
        for result in strategies:
            order, groups = list(result.plan.visit_order), result.groups
            points = positions[groups.traversal[order]]
            yield from _lines(f"%s,%d,{f},{f},%d,%d\n", [
                [result.name] * len(order), range(len(order)), points[:, 0], points[:, 1],
                order, np.bincount(groups.group_of, minlength=len(groups))[order],
            ])

    paths = [_write_csv(out_dir / "tour.csv",
                        ["strategy", "visit_order", "x_m", "y_m", "group_id", "group_size"],
                        tour_lines())]

    if with_report:
        # strategies[0] is the one-by-one baseline, strategies[1] the first height.
        nodes = missionsim.simulate_mission(scenario, strategies[1]).nodes
        paths.append(_write_csv(
            out_dir / "report.csv", ["node", "x_m", "y_m", *missionsim.NODE_COLUMNS],
            _lines(f"%d,{f},{f},%d,{f},{f},{f},{f},{f}\n",
                   [range(len(positions)), positions[:, 0], positions[:, 1],
                    *(nodes[name] for name in missionsim.NODE_COLUMNS)]),
        ))

    # Per field, in seed order: each strategy's tour length, and its saving.
    lengths = [[result.length_m for result in strategies]] + [
        [result.length_m for result in planner.compare_strategies(
            _field(config, seed), d_eh, heights, mode=mode)]
        for seed in range(config.field_seed + 1, config.field_seed + config.plan_mc_seeds)
    ]
    savings = [[1.0 - l / row[0] if row[0] > 0 else 0.0 for l in row] for row in lengths]
    n = len(lengths)
    summary = [
        (result.name, "" if result.height_m is None else f % result.height_m,  # baseline: ""
         result.radius_m, len(result.groups), result.length_m, 100.0 * saving[0], n,
         sum(length) / n, 100.0 * (sum(saving) / n))
        for result, length, saving in zip(strategies, zip(*lengths), zip(*savings))
    ]
    paths.append(_write_csv(
        out_dir / "summary.csv",
        ["strategy", "height_m", "radius_m", "groups", "tour_length_m",
         "saving_pct", "mc_seeds", "mc_mean_length_m", "mc_mean_saving_pct"],
        _lines(f"%s,%s,{f},%d,{f},{f},%d,{f},{f}\n", list(zip(*summary))),
    ))
    return paths


def reproduce(config: RunConfig, out_dir: Path) -> list[Path]:
    """Regenerate all figure data: both sweeps on the full reference grid
    (three carrier bands, three array sizes) plus tours, mission report,
    and the Monte-Carlo strategy summary. Emits exactly five CSV files,
    listed sweeps first. The plan files are written first, so a mission
    that cannot be planned writes no file; the reference bands are checked
    when ``replace`` builds their config.
    """
    full = replace(
        config,
        sweep_frequencies_hz=REPRODUCE_FREQUENCIES_HZ,
        sweep_elements=REPRODUCE_ELEMENTS,
    )
    planned = plan_and_simulate(full, out_dir, with_report=True)
    return [sweep_eh(full, out_dir), sweep_rate(full, out_dir), *planned]


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
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
