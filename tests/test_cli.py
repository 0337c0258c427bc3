"""CLI tests: config parsing, CSV contracts, determinism, exit codes."""
import contextlib
import io
import math
import re
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uewpiot import cli, linkbudget, missionsim, planner
from uewpiot.errors import ConfigurationError


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


COMMANDS = ("sweep-eh", "sweep-rate", "plan", "simulate", "reproduce")


def cell(value):
    """One CSV cell, as the oracles format it: %.10g for a float, empty for None."""
    if isinstance(value, float):
        return cli.FLOAT_FMT % value
    return "" if value is None else str(value)


# --- configuration -------------------------------------------------------------

def test_defaults_round_trip(tmp_path):
    path = write_config(tmp_path, "\n".join(cli.default_lines()) + "\n")
    assert cli.parse_config(path) == cli.RunConfig()


def in_row(key):
    """The floats of ``key``'s row of cli.RANGES."""
    row = cli.RANGES[key]
    return st.floats(row.low, row.high, exclude_min=row.open_low)


@st.composite
def run_configs(draw):
    """A RunConfig that its check accepts, its floats drawn at full precision from
    their rows of cli.RANGES, narrowed where a rule spans keys."""
    excess_los_db = draw(in_row("link.excess_los_db"))
    count = draw(st.integers(0, 200))
    mode = draw(st.sampled_from(["heuristic", "exact"] if count and count <= 12 else ["heuristic"]))
    threshold_dbm = draw(st.none() | in_row("circuit.threshold_dbm"))
    # An auto threshold needs a band with a default; 100 MHz and up keeps 250 m
    # from the UAV lossier than 10^6 elements gain, so no sweep start amplifies.
    bands = st.floats(1e8, 1e10) if threshold_dbm is not None else st.sampled_from(
        sorted(linkbudget.BAND_THRESHOLDS_DBM))
    start = draw(st.floats(250.0, 1e4))
    width, height = draw(st.floats(10.0, 1e3)), draw(st.floats(10.0, 1e3))
    density = draw(st.floats(1.0, 10.0))  # 1 to 10^5 nodes at field.count = 0
    nodes = count or planner.density_node_count(width, height, density)
    return cli.RunConfig(
        link_frequency_hz=draw(bands),
        link_bandwidth_hz=draw(in_row("link.bandwidth_hz")),
        link_noise_figure_db=draw(in_row("link.noise_figure_db")),
        link_los_a=draw(in_row("link.los_a")),  # P_LoS may overflow to its limit, 0
        link_los_b=draw(in_row("link.los_b")),
        link_excess_los_db=excess_los_db,
        link_excess_nlos_db=draw(st.floats(excess_los_db, cli.RANGES["link.excess_nlos_db"].high)),
        array_elements=draw(st.integers(1, 64)),
        circuit_efficiency=draw(in_row("circuit.efficiency")),
        circuit_threshold_dbm=threshold_dbm,
        sweep_distance_start_m=start,
        sweep_distance_stop_m=start + draw(st.floats(0.0, 1e4)),
        sweep_distance_step_m=draw(st.floats(0.1, 1e4)),  # at most 10^5 points
        sweep_frequencies_hz=tuple(draw(st.lists(bands, min_size=1, max_size=3))),
        sweep_elements=tuple(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3))),
        field_width_m=width,
        field_height_m=height,
        field_density=density,
        field_count=count,
        field_seed=draw(st.integers(0, 2**128)),
        plan_heights_m=tuple(draw(st.lists(st.floats(10.0, 1e3), min_size=1, max_size=3))),
        plan_d_eh_m=draw(st.none() | in_row("plan.d_eh_m")),
        plan_mode=mode,
        plan_mc_seeds=draw(st.integers(  # the work cap
            1, cli.MAX_MC_NODES // max(nodes, cli.MC_FIELD_MIN_NODES))),
        mission_wpt_power_w=draw(in_row("mission.wpt_power_w")),
        mission_wur_power_w=draw(in_row("mission.wur_power_w")),
        mission_wur_wake_threshold_dbm=draw(in_row("mission.wur_wake_threshold_dbm")),
        mission_payload_bits=draw(in_row("mission.payload_bits")),
        mission_latency_cap_s=draw(in_row("mission.latency_cap_s")),
    )


@settings(max_examples=200, deadline=None)
@given(config=run_configs())
@example(config=cli.RunConfig(mission_wpt_power_w=10.123456789))  # :g keeps 10.1235
@example(config=cli.RunConfig(field_seed=2**53 + 1))  # float() reads 2**53
def test_config_round_trip(config):
    lines = [f"{cli._attr_to_key(f.name)} = {cli._format_value(getattr(config, f.name))}"
             for f in fields(cli.RunConfig)]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "\n".join(lines) + "\n")
        assert cli.parse_config(path) == config


@pytest.mark.parametrize(
    ("raw", "value"),
    [("9007199254740993", 2**53 + 1), ("1e3", 1000), ("1.5e1", 15), ("-0", 0),
     ("1" + "0" * 40, 10**40)],
)
def test_integer_keys_parse_exactly(tmp_path, raw, value):
    config = cli.parse_config(write_config(tmp_path, f"field.seed = {raw}\n"))
    assert type(config.field_seed) is int and config.field_seed == value


def test_run_config_is_checked_when_built():
    with pytest.raises(ConfigurationError, match="sweep.distance_step_m"):
        cli.RunConfig(sweep_distance_step_m=0.0)
    config = cli.RunConfig()
    with pytest.raises(ConfigurationError, match="circuit.threshold_dbm"):
        replace(config, link_frequency_hz=1e9)
    with pytest.raises(ConfigurationError, match="plan.heights_m"):
        replace(config, plan_heights_m=(0.01,))
    with pytest.raises(FrozenInstanceError):
        config.sweep_distance_step_m = 0.0
    explicit = replace(config, circuit_threshold_dbm=-30.0, link_frequency_hz=1e9)
    assert explicit.link_frequency_hz == 1e9


@pytest.mark.parametrize(
    ("overrides", "key"),
    [
        ({"plan_mode": "fast"}, "plan.mode"),
        ({"plan_heights_m": ()}, "plan.heights_m"),
        ({"sweep_frequencies_hz": ()}, "sweep.frequencies_hz"),
        ({"sweep_elements": ()}, "sweep.elements"),
    ],
    ids=["plan.mode", "plan.heights_m", "sweep.frequencies_hz", "sweep.elements"],
)
def test_run_config_checks_mode_and_empty_lists(overrides, key):
    # A RunConfig built in code, not parsed from a file, gets these rules too.
    with pytest.raises(ConfigurationError, match=key):
        cli.RunConfig(**overrides)


# Values of other keys that let each bound of a row build a RunConfig: a band with
# no default threshold, a link that would otherwise amplify, a grid of one point, a
# LoS loss that the NLoS one must reach, and a field count that overrides the density.
RANGE_COMPANIONS = {
    "link.frequency_hz": {"circuit_threshold_dbm": -20.0, "plan_heights_m": (1e7,)},
    "sweep.frequencies_hz": {"circuit_threshold_dbm": -20.0, "sweep_distance_start_m": 1e5,
                             "sweep_distance_stop_m": 1e5},
    "sweep.elements": {"sweep_distance_start_m": 10.0},
    "sweep.distance_start_m": {"sweep_distance_stop_m": 1e7},
    "sweep.distance_stop_m": {"sweep_distance_step_m": 1e7},
    "link.excess_los_db": {"link_excess_nlos_db": 1e3},
    "link.excess_nlos_db": {"link_excess_los_db": 0.0},
    **dict.fromkeys(["field.width_m", "field.height_m", "field.density"], {"field_count": 20}),
    "plan.mode": {"field_count": 12},
}
# Rows whose smallest positive value breaks a rule across keys, which names the key as
# well: a link that close amplifies in every band, a stop that low is below every start
# that does not, and a step that fine gives over MAX_SWEEP_POINTS points.
AMPLIFY_OR_OVERFILL_AT_ZERO = {"sweep.distance_start_m", "sweep.distance_stop_m",
                               "sweep.distance_step_m", "plan.heights_m"}


def range_bounds(row):
    """(inside, past) at each end of a numeric row: the bound, or the next value in when
    it is open, and the next value out."""
    if isinstance(row.low, int):
        return [(row.low, row.low - 1), (int(row.high), int(row.high) + 1)]
    if row.open_low:
        return [(math.nextafter(row.low, math.inf), row.low),
                (row.high, math.nextafter(row.high, math.inf))]
    return [(row.low, math.nextafter(row.low, -math.inf)),
            (row.high, math.nextafter(row.high, math.inf))]


def test_range_rows_are_the_config_keys():
    assert sorted(cli.RANGES) == sorted(line.split(" = ")[0] for line in cli.default_lines())


@pytest.mark.parametrize("key", list(cli.RANGES))
def test_range_row_bounds(key):
    row, attr = cli.RANGES[key], key.replace(".", "_")
    default = getattr(cli.RunConfig(), attr)
    listed = isinstance(default, tuple)
    assert all(value in row for value in (default if listed else (default,)) if value is not None)

    def build(value):
        return cli.RunConfig(**{**RANGE_COMPANIONS.get(key, {}), attr: (value,) if listed else value})

    if key == "plan.mode":
        cases = [(choice, "fast") for choice in row]
    else:
        cases = range_bounds(row)
        if isinstance(row.low, int):
            cases.append((row.low, row.low + 0.5))  # an integer row takes no fraction
    for inside, past in cases:
        assert inside in row and past not in row
        if key in AMPLIFY_OR_OVERFILL_AT_ZERO and inside == math.ulp(0.0):
            with pytest.raises(ConfigurationError, match=key) as raised:
                build(inside)
            assert "must be in" not in str(raised.value)
        else:
            assert getattr(build(inside), attr) == ((inside,) if listed else inside)
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(key)} must be in {re.escape(str(row))}, got "):
            build(past)


def empty_scenario(**overrides):
    return missionsim.MissionScenario(
        field=planner.NodeField(10.0, 10.0, np.empty((0, 2))),
        env=linkbudget.RadioEnvironment(400e6), array=linkbudget.AntennaArray(32),
        circuit=linkbudget.EhCircuit.for_band(400e6), **overrides,
    )


# Library rules that a config key feeds: a library call given one value of the field,
# a value it rejects, and RunConfig values that feed that value to it. A config inside
# cli.RANGES reaches the rules of cli.FIELD_KEYS; the range check rejects the rest first.
FIELD_KEY_CASES = [
    ("carrier_frequency_hz", "link.frequency_hz", linkbudget.RadioEnvironment, 0.0,
     {"link_frequency_hz": 0.0}),
    ("carrier_frequency_hz", "sweep.frequencies_hz", linkbudget.RadioEnvironment, -1.0,
     {"sweep_frequencies_hz": (4e8, -1.0)}),
    ("carrier_frequency_hz", "link.frequency_hz", linkbudget.RadioEnvironment, 1e-320,
     {"link_frequency_hz": 1e-320, "circuit_threshold_dbm": -20.0}),  # no finite wavelength
    ("los_a", "link.los_a", lambda v: linkbudget.RadioEnvironment(4e8, los_a=v), 0.0,
     {"link_los_a": 0.0}),
    ("los_b", "link.los_b", lambda v: linkbudget.RadioEnvironment(4e8, los_b=v), -0.43,
     {"link_los_b": -0.43}),
    ("excess_loss_los_db", "link.excess_los_db",
     lambda v: linkbudget.RadioEnvironment(4e8, excess_loss_los_db=v), -1.0,
     {"link_excess_los_db": -1.0}),
    ("excess_loss_nlos_db", "link.excess_nlos_db",  # below the LoS default
     lambda v: linkbudget.RadioEnvironment(4e8, excess_loss_nlos_db=v), 10.0,
     {"link_excess_nlos_db": 10.0}),
    ("bandwidth_hz", "link.bandwidth_hz", linkbudget.noise_power_dbm, 0.0,
     {"link_bandwidth_hz": 0.0}),
    ("noise_figure_db", "link.noise_figure_db", lambda v: linkbudget.noise_power_dbm(15e6, v),
     -1.0, {"link_noise_figure_db": -1.0}),
    ("elements_n", "array.elements", lambda v: linkbudget.AntennaArray(v), 0,
     {"array_elements": 0}),
    ("elements_n", "sweep.elements", lambda v: linkbudget.AntennaArray(v), -3,
     {"sweep_elements": (1, -3)}),
    ("conversion_efficiency", "circuit.efficiency",
     lambda v: linkbudget.EhCircuit(-20.0, v), 1.5, {"circuit_efficiency": 1.5}),
    ("input_threshold_dbm", "circuit.threshold_dbm", linkbudget.EhCircuit.for_band, 5.8e9,
     {"link_frequency_hz": 5.8e9}),  # a band with no default threshold
    ("density_per_cell", "field.density", lambda v: planner.density_node_count(100.0, 100.0, v),
     0.001, {"field_density": 0.001}),  # 0.1 nodes rounds to 0
    ("wpt_power_w", "mission.wpt_power_w", lambda v: empty_scenario(wpt_power_w=v), 0.0,
     {"mission_wpt_power_w": 0.0}),
    ("wur_power_w", "mission.wur_power_w", lambda v: empty_scenario(wur_power_w=v), -1.0,
     {"mission_wur_power_w": -1.0}),
    ("payload_bits", "mission.payload_bits", lambda v: empty_scenario(payload_bits=v), -1.0,
     {"mission_payload_bits": -1.0}),
    ("latency_cap_s", "mission.latency_cap_s", lambda v: empty_scenario(latency_cap_s=v), 0.0,
     {"mission_latency_cap_s": 0.0}),
    ("input_threshold_dbm", "circuit.threshold_dbm",
     lambda v: linkbudget.EhCircuit(v), -math.inf, {"circuit_threshold_dbm": math.nan}),
    ("eh_distance_m", "plan.d_eh_m", lambda v: empty_scenario(eh_distance_m=v), math.inf,
     {"plan_d_eh_m": math.inf}),
    ("eh_distance_m", "plan.d_eh_m", lambda v: empty_scenario(eh_distance_m=v), -math.inf,
     {"plan_d_eh_m": math.nan}),
    ("seed", "field.seed", planner.pcg64_start, -1, {"field_seed": -1}),
    ("height_m", "plan.heights_m", lambda v: empty_scenario(height_m=v), -1.0,
     {"plan_heights_m": (-1.0, 5.0)}),
    ("wur_wake_threshold_dbm", "mission.wur_wake_threshold_dbm",
     lambda v: empty_scenario(wur_wake_threshold_dbm=v), math.inf,
     {"mission_wur_wake_threshold_dbm": math.inf}),
]
# field-key; a second case of one table entry also names its config value.
FIELD_KEY_CASE_IDS = [
    f"{field}-{key}" + ("" if (field, key) not in [case[:2] for case in FIELD_KEY_CASES[:i]]
                        else f"-{[*overrides.values()][0]}")
    for i, (field, key, *_, overrides) in enumerate(FIELD_KEY_CASES)
]


def inside_ranges(overrides):
    """Whether each value of ``overrides`` (RunConfig fields) lies in its row of cli.RANGES."""
    return all(item in cli.RANGES[cli._attr_to_key(attr)] for attr, value in overrides.items()
               for item in (value if isinstance(value, tuple) else (value,)))


def test_field_key_cases_cover_the_table():
    # Every cli.FIELD_KEYS entry has a case inside the ranges, and every case inside
    # them reaches a library rule that cli.FIELD_KEYS names.
    assert {(field, key) for field, key, *_, overrides in FIELD_KEY_CASES
            if inside_ranges(overrides)} == set(cli.FIELD_KEYS.items())


@pytest.mark.parametrize(("field", "key", "build", "bad", "overrides"), FIELD_KEY_CASES,
                         ids=FIELD_KEY_CASE_IDS)
def test_library_field_errors_name_the_config_key(field, key, build, bad, overrides):
    # The library object owns the rule and names its field, NaN included; the
    # config check reports the value under the config key alone, through cli.FIELD_KEYS
    # or the range check.
    for value in (bad, math.nan):
        with pytest.raises(ConfigurationError) as raised:
            build(value)
        assert raised.value.field == field and field in str(raised.value)
    with pytest.raises(ConfigurationError) as raised:
        cli.RunConfig(**overrides)
    message = str(raised.value)
    assert key in message
    assert not [name for name, *_ in FIELD_KEY_CASES if name in message.replace(key, "")]


# Each MissionScenario field, and a config key and value that build_scenario turns
# into a different value of it than the defaults give.
SCENARIO_KEYS = {
    "field": ("field.seed", "2"),
    "env": ("link.los_a", "9.6"),
    "array": ("array.elements", "64"),
    "circuit": ("circuit.efficiency", "0.5"),
    "wpt_power_w": ("mission.wpt_power_w", "20"),
    "wur_power_w": ("mission.wur_power_w", "0.01"),
    "wur_wake_threshold_dbm": ("mission.wur_wake_threshold_dbm", "-30"),
    "payload_bits": ("mission.payload_bits", "1e6"),
    "bandwidth_hz": ("link.bandwidth_hz", "5e6"),
    "noise_figure_db": ("link.noise_figure_db", "8"),
    "latency_cap_s": ("mission.latency_cap_s", "0.05"),
    "height_m": ("plan.heights_m", "8,5"),
    "eh_distance_m": ("plan.d_eh_m", "12"),
}


def test_every_scenario_field_comes_from_a_config_key(tmp_path):
    # A field that no config key sets is a constant; missionsim keeps those as such.
    assert sorted(SCENARIO_KEYS) == sorted(f.name for f in fields(missionsim.MissionScenario))
    default = cli.build_scenario(cli.RunConfig())
    for name, (key, value) in SCENARIO_KEYS.items():
        config = cli.parse_config(write_config(tmp_path, f"{key} = {value}\n"))
        scenario = cli.build_scenario(config)
        assert repr(getattr(scenario, name)) != repr(getattr(default, name)), key


@pytest.mark.parametrize("command", COMMANDS)
def test_config_checked_once_per_config(tmp_path, monkeypatch, command):
    # One config per command; reproduce builds a second one for its reference bands.
    calls = []
    check = cli._check_config

    def counted(config):
        calls.append(config)
        check(config)

    monkeypatch.setattr(cli, "_check_config", counted)
    config = write_config(tmp_path, "plan.mc_seeds = 1\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0
    assert len(calls) == (2 if command == "reproduce" else 1)


def test_defaults_cover_every_key():
    lines = cli.default_lines()
    keys = {line.split(" = ")[0] for line in lines}
    assert "link.frequency_hz" in keys
    assert "plan.heights_m" in keys
    assert "mission.latency_cap_s" in keys
    assert len(keys) == len(lines)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "link.warp_factor = 9\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        cli.parse_config(path)


def test_bad_value_rejected(tmp_path):
    path = write_config(tmp_path, "link.frequency_hz = fast\n")
    with pytest.raises(ConfigurationError):
        cli.parse_config(path)


def test_comments_and_blank_lines(tmp_path):
    path = write_config(
        tmp_path,
        "# carrier setup\n\nlink.frequency_hz = 900e6\nplan.heights_m = 10,5,2.5\n",
    )
    config = cli.parse_config(path)
    assert config.link_frequency_hz == 900e6
    assert config.plan_heights_m == (10.0, 5.0, 2.5)


def test_auto_values(tmp_path):
    path = write_config(
        tmp_path, "plan.d_eh_m = auto\ncircuit.threshold_dbm = -25\n"
    )
    config = cli.parse_config(path)
    assert config.plan_d_eh_m is None
    assert config.circuit_threshold_dbm == -25.0
    explicit = cli.parse_config(write_config(tmp_path, "plan.d_eh_m = 13\n"))
    assert explicit.plan_d_eh_m == 13.0


@pytest.mark.parametrize("field", fields(cli.RunConfig), ids=lambda f: f.name)
def test_auto_is_accepted_exactly_where_the_default_is_none(tmp_path, field):
    key = field.name.replace("_", ".", 1)
    path = write_config(tmp_path, f"{key} = AUTO\n")
    if field.default is None:
        assert getattr(cli.parse_config(path), field.name) is None
    else:
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            cli.parse_config(path)


# --- sweeps ----------------------------------------------------------------------

def test_sweep_eh_default_grid(tmp_path):
    path = cli.sweep_eh(cli.RunConfig(), tmp_path)
    header, rows = read_rows(path)
    assert header == [
        "distance_m", "freq_hz", "elements", "received_dbm", "harvested_dbm",
        "threshold_dbm",
    ]
    assert len(rows) == 150  # 50 distances x 1 band x 3 array sizes
    for row in rows:
        received, harvested = float(row[3]), float(row[4])
        assert harvested - received == pytest.approx(10 * math.log10(0.3), abs=1e-6)
        assert float(row[5]) == -20.0


def test_sweep_eh_crossing_near_calibrated_range(tmp_path):
    from uewpiot import AntennaArray, EhCircuit, RadioEnvironment, achievable_eh_distance_m

    path = cli.sweep_eh(cli.RunConfig(), tmp_path)
    _, rows = read_rows(path)
    series = [
        (float(r[0]), float(r[4])) for r in rows if r[2] == "32"
    ]
    crossings = [
        d for (d, h), (_, h2) in zip(series, series[1:]) if h >= -20.0 > h2
    ]
    assert len(crossings) == 1
    reference = achievable_eh_distance_m(
        10.0,
        AntennaArray(32),
        EhCircuit.for_band(400e6),
        RadioEnvironment(400e6),
        10.0,
    )
    assert abs(crossings[0] - reference) <= 1.0  # grid step plus geometry delta


def test_sweep_rate_contract(tmp_path):
    config = cli.RunConfig(sweep_frequencies_hz=(400e6, 900e6), sweep_elements=(32,))
    path = cli.sweep_rate(config, tmp_path)
    header, rows = read_rows(path)
    assert header == ["distance_m", "freq_hz", "elements", "rate_bps"]
    assert all(float(r[3]) >= 0.0 for r in rows)
    for freq in (400e6, 900e6):
        series = [float(r[3]) for r in rows if float(r[1]) == freq]
        assert len(series) == 50
        assert all(b < a for a, b in zip(series, series[1:]))


def test_sweep_rate_reference_row(tmp_path):
    config = cli.RunConfig(sweep_frequencies_hz=(900e6,), sweep_elements=(32,))
    path = cli.sweep_rate(config, tmp_path)
    _, rows = read_rows(path)
    ten_m = [r for r in rows if float(r[0]) == 10.0]
    assert len(ten_m) == 1
    assert 50e6 <= float(ten_m[0][3]) <= 100e6


def sweep_oracle(config, distances, values, **uplink):
    """Every sweep row, cell by cell, from one direct link_budget call per series."""
    rows = []
    for frequency in config.sweep_frequencies_hz:
        env, circuit = cli._environment(config, frequency), cli._circuit(config, frequency)
        for elements in config.sweep_elements:
            array = linkbudget.AntennaArray(elements)
            budget = linkbudget.link_budget(
                env, distances, distances, config.mission_wpt_power_w, array, circuit, **uplink)
            columns = [v.tolist() if isinstance(v, np.ndarray) else [v] * len(distances)
                       for v in values(budget, circuit)]
            for i, distance in enumerate(distances.tolist()):
                cells = [distance, frequency, elements, *(column[i] for column in columns)]
                rows.append(",".join(cell(v) for v in cells))
    return rows


def assert_sweeps_match_oracle(config, distances):
    """Every row of both sweep files equals the per-cell oracle on ``distances``."""
    with tempfile.TemporaryDirectory() as out:
        eh_lines = cli.sweep_eh(config, Path(out)).read_text(encoding="utf-8").splitlines()
        rate_lines = cli.sweep_rate(config, Path(out)).read_text(encoding="utf-8").splitlines()
    assert eh_lines[1:] == sweep_oracle(
        config, distances,
        lambda budget, circuit: (
            budget.received_dbm, budget.harvested_dbm, circuit.input_threshold_dbm),
    )
    assert rate_lines[1:] == sweep_oracle(
        config, distances, lambda budget, _: (budget.rate_bps,),
        bandwidth_hz=config.link_bandwidth_hz, noise_figure_db=config.link_noise_figure_db,
    )


@settings(max_examples=40, deadline=None)
@given(
    start=st.floats(0.0, 5.0, exclude_min=True),
    step=st.floats(0.01, 2.0),
    count=st.integers(1, 40),
    bands=st.lists(st.sampled_from(sorted(linkbudget.BAND_THRESHOLDS_DBM)),
                   min_size=1, max_size=3),
    elements=st.lists(st.integers(1, 64), min_size=1, max_size=3),
)
@example(start=1.0, step=0.07, count=40, bands=[400e6, 2.4e9], elements=[1, 64])
@example(start=5e-324, step=1.0, count=3, bands=[400e6], elements=[1])
@example(start=0.01, step=1.0, count=3, bands=[400e6], elements=[64])
@example(start=0.02, step=1.0, count=3, bands=[2.4e9, 400e6], elements=[1, 64])  # 400 MHz x 64
def test_sweep_rows_match_per_cell_oracle(start, step, count, bands, elements):
    grid = dict(
        sweep_distance_start_m=start, sweep_distance_step_m=step,
        sweep_distance_stop_m=start + (count - 1) * step,
        sweep_frequencies_hz=tuple(bands), sweep_elements=tuple(elements),
    )
    distances = start + np.arange(count) * step
    if step == 0.07:  # the raw grid carries float error (1.1400000000000001) that %.10g hides
        assert any(repr(d) != cli.FLOAT_FMT % d for d in distances.tolist())
    defaults = cli.RunConfig()
    power_w = defaults.mission_wpt_power_w
    amplifies = any(  # a node at the start would receive more than the UAV transmits
        linkbudget.link_budget(cli._environment(defaults, band), start, start, power_w,
                               linkbudget.AntennaArray(n)).received_dbm
        > linkbudget.watts_to_dbm(power_w)
        for band in bands for n in elements
    )
    if not amplifies:
        assert_sweeps_match_oracle(cli.RunConfig(**grid), distances)
        return
    with pytest.raises(ConfigurationError, match="sweep.distance_start_m"):
        cli.RunConfig(**grid)


@settings(max_examples=30, deadline=None)
@given(
    block=st.integers(1, 7),
    full_blocks=st.integers(2, 5),
    tail=st.integers(0, 6),
    start=st.floats(1.0, 5.0),
    step=st.floats(0.01, 2.0),
    elements=st.lists(st.integers(1, 64), min_size=1, max_size=2),
)
@example(block=3, full_blocks=4, tail=0, start=1.0, step=0.07, elements=[1, 32])
def test_sweep_blocks_match_per_cell_oracle(block, full_blocks, tail, start, step, elements):
    # Grids of several blocks, some ending exactly on a block edge (tail % block == 0).
    count = full_blocks * block + tail % block
    config = cli.RunConfig(
        sweep_distance_start_m=start, sweep_distance_step_m=step,
        sweep_distance_stop_m=start + (count - 1) * step,
        sweep_frequencies_hz=(400e6, 2.4e9), sweep_elements=tuple(elements),
    )
    with mock.patch.object(cli, "ROWS_PER_BLOCK", block):
        assert_sweeps_match_oracle(config, start + np.arange(count) * step)


def test_los_sigmoid_overflow_is_silent(tmp_path, capsys):
    # b * (a - theta) > 709 overflows exp; P_LoS then takes its exact limit, 0.
    config = write_config(tmp_path, "link.los_a = 96\nlink.los_b = 118\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "sweep-eh"]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_rows(tmp_path / "eh_sweep.csv")
    assert all(math.isfinite(float(row[3])) for row in rows)


def test_sweep_memory_bounded_by_file_size(tmp_path):
    # One series of 2e5 rows: the formatted text is held a block at a time, not whole.
    config = cli.RunConfig(sweep_distance_stop_m=20.9999, sweep_distance_step_m=1e-4,
                           sweep_elements=(32,))
    tracemalloc.start()
    try:
        path = cli.sweep_eh(config, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 10e6
    assert peak < 3 * size


# --- no inert keys ------------------------------------------------------------------

# Key -> (perturbed value, companion lines). Companions are set on both sides,
# for a key that reaches an output only under another setting.
PERTURBATIONS = {
    "link.frequency_hz": ("2.4e9", ""),
    "link.bandwidth_hz": ("5e6", ""),
    "link.noise_figure_db": ("8", ""),
    "link.los_a": ("9.6", ""),
    "link.los_b": ("0.28", ""),
    "link.excess_los_db": ("20", ""),
    "link.excess_nlos_db": ("30", ""),
    "array.elements": ("64", ""),
    "circuit.efficiency": ("0.5", ""),
    "circuit.threshold_dbm": ("-25", ""),
    "sweep.distance_start_m": ("2", ""),
    "sweep.distance_stop_m": ("40", ""),
    "sweep.distance_step_m": ("0.5", ""),
    "sweep.frequencies_hz": ("9e8", ""),
    "sweep.elements": ("4", ""),
    "field.width_m": ("120", ""),
    "field.height_m": ("120", ""),
    "field.density": ("0.3", "field.count = 0"),
    "field.count": ("10", ""),
    "field.seed": ("2", ""),
    "plan.heights_m": ("10,4", ""),
    "plan.d_eh_m": ("12", ""),
    "plan.mode": ("exact", "field.count = 8"),
    "plan.mc_seeds": ("2", ""),
    "mission.wpt_power_w": ("20", ""),
    "mission.wur_power_w": ("0.01", ""),
    "mission.wur_wake_threshold_dbm": ("-30", ""),
    "mission.payload_bits": ("1e6", ""),
    "mission.latency_cap_s": ("0.05", ""),
}


def test_every_config_key_reaches_an_output(tmp_path):
    assert sorted(PERTURBATIONS) == sorted(line.split(" = ")[0] for line in cli.default_lines())

    def outputs(text):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        config = write_config(out, "plan.mc_seeds = 1\n" + text + "\n")
        for command in ("sweep-eh", "sweep-rate", "simulate"):
            assert cli.main(["--config", str(config), "--out", str(out), command]) == 0
        return {path.name: path.read_bytes() for path in out.glob("*.csv")}

    defaults = outputs("")
    for key, (value, companion) in PERTURBATIONS.items():
        base = outputs(companion) if companion else defaults
        assert outputs(f"{companion}\n{key} = {value}") != base, f"{key} changes no output"


# --- planning and simulation --------------------------------------------------------

@pytest.fixture
def fast_config():
    return cli.RunConfig(plan_mc_seeds=5)


def test_plan_and_simulate_files(tmp_path, fast_config):
    paths = cli.plan_and_simulate(fast_config, tmp_path, with_report=True)
    names = [p.name for p in paths]
    assert names == ["tour.csv", "report.csv", "summary.csv"]

    header, rows = read_rows(tmp_path / "tour.csv")
    assert header == ["strategy", "visit_order", "x_m", "y_m", "group_id", "group_size"]
    strategies = {r[0] for r in rows}
    assert strategies == {"one-by-one", "H=10", "H=5"}

    header, rows = read_rows(tmp_path / "report.csv")
    assert header[0] == "node"
    assert len(rows) == 25

    header, rows = read_rows(tmp_path / "summary.csv")
    assert header == [
        "strategy", "height_m", "radius_m", "groups", "tour_length_m",
        "saving_pct", "mc_seeds", "mc_mean_length_m", "mc_mean_saving_pct",
    ]
    assert len(rows) == 3


def test_simulate_files_across_a_block_match_per_cell_oracle(tmp_path):
    # 4,100 report rows and more tour rows cross ROWS_PER_BLOCK = 4096; summary.csv
    # is one short block. The oracle formats each cell of each file on its own.
    config = cli.RunConfig(field_count=4100, plan_mc_seeds=1)
    assert cli.ROWS_PER_BLOCK < 4100
    cli.plan_and_simulate(config, tmp_path)
    scenario = cli.build_scenario(config)
    scenario = replace(scenario, eh_distance_m=missionsim.resolve_eh_distance_m(scenario))
    strategies = planner.compare_strategies(
        scenario.field, scenario.eh_distance_m, list(config.plan_heights_m))
    positions = scenario.field.positions.tolist()
    tour = []
    for result in strategies:
        traversal, group_of = result.groups.traversal.tolist(), result.groups.group_of.tolist()
        for stop, group_id in enumerate(result.plan.visit_order):
            tour.append([result.name, stop, *positions[traversal[group_id]], group_id,
                         group_of.count(group_id)])
    nodes = missionsim.simulate_mission(scenario, strategies[1]).nodes
    columns = [nodes[name].tolist() for name in missionsim.NODE_COLUMNS]
    report = [[i, *positions[i], *(column[i] for column in columns)]
              for i in range(len(positions))]
    baseline_m = strategies[0].length_m
    summary = [  # one Monte-Carlo field: the field at field.seed itself
        [r.name, r.height_m, r.radius_m, len(r.groups), r.length_m,
         100.0 * (1.0 - r.length_m / baseline_m), 1, r.length_m,
         100.0 * (1.0 - r.length_m / baseline_m)]
        for r in strategies
    ]
    for name, rows in (("tour.csv", tour), ("report.csv", report), ("summary.csv", summary)):
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [",".join(cell(v) for v in row) for row in rows], name
    assert len(report) == 4100 and len(tour) > 4100


def test_savings_recomputable_from_columns(tmp_path, fast_config):
    cli.plan_and_simulate(fast_config, tmp_path, with_report=False)
    _, rows = read_rows(tmp_path / "summary.csv")
    baseline = float(rows[0][4])
    for row in rows:
        expected = 100.0 * (1.0 - float(row[4]) / baseline)
        assert float(row[5]) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_single_node_field_saves_nothing(tmp_path, command):
    # One node: every tour, the one-by-one baseline included, is 0 m long.
    config = write_config(tmp_path, "field.count = 1\nplan.mc_seeds = 3\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0
    header, rows = read_rows(tmp_path / "summary.csv")
    length, saving, mc_saving = (header.index(name) for name in (
        "tour_length_m", "saving_pct", "mc_mean_saving_pct"))
    assert len(rows) == 3
    for row in rows:
        assert (row[length], row[saving], row[mc_saving]) == ("0", "0", "0")


def test_saving_fraction_of_coincident_nodes_is_zero(tmp_path, monkeypatch):
    node_field = planner.NodeField(10.0, 10.0, np.full((4, 2), 5.0))
    strategies = planner.compare_strategies(node_field, 10.0, [10.0, 5.0])
    assert [r.length_m for r in strategies] == [0.0, 0.0, 0.0]
    # Every Monte-Carlo field is that field: each saving, and each mean, is 0.
    monkeypatch.setattr(cli, "_field", lambda config, seed: node_field)
    cli.plan_and_simulate(cli.RunConfig(plan_mc_seeds=2), tmp_path, with_report=False)
    header, rows = read_rows(tmp_path / "summary.csv")
    columns = [header.index(name) for name in ("saving_pct", "mc_mean_saving_pct")]
    assert [[row[k] for k in columns] for row in rows] == [["0", "0"]] * 3


def test_summary_keeps_strategies_that_print_alike_apart(tmp_path):
    # Two heights of one name each average their own Monte-Carlo fields.
    def summary(heights):
        config = cli.RunConfig(plan_heights_m=heights, plan_mc_seeds=3)
        return read_rows(cli.plan_and_simulate(config, tmp_path, with_report=False)[-1])[1]

    one = summary((10.0,))
    assert summary((10.0, 10.0)) == [one[0], one[1], one[1]]
    assert [row[6] for row in summary((5.0, 5.000001))] == ["3"] * 3  # both named H=5


def test_rerun_byte_identical(tmp_path, fast_config):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    cli.plan_and_simulate(fast_config, a_dir, with_report=True)
    cli.plan_and_simulate(fast_config, b_dir, with_report=True)
    for name in ("tour.csv", "report.csv", "summary.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_reproduce_emits_five_files(tmp_path, fast_config):
    paths = cli.reproduce(fast_config, tmp_path)
    assert [p.name for p in paths] == [
        "eh_sweep.csv", "rate_sweep.csv", "tour.csv", "report.csv", "summary.csv",
    ]
    # full reference grid: 50 distances x 3 bands x 3 array sizes
    _, rows = read_rows(tmp_path / "eh_sweep.csv")
    assert len(rows) == 450


# --- exit codes ----------------------------------------------------------------------

def test_main_defaults_command(capsys):
    assert cli.main(["defaults"]) == 0
    out = capsys.readouterr().out
    assert "link.frequency_hz = 4e+08" in out


# Keys are accepted only as `defaults` spells them. The last six were keys that
# reached no output file.
@pytest.mark.parametrize("key", [
    "nope.nope", "link_frequency_hz", "field.width-m", "field-width-m", "field.width.m",
    "array.spacing_wavelengths", "mission.cost_weight_energy", "mission.cost_weight_time",
    "mission.hover_power_w", "mission.cruise_speed_mps", "mission.wake_duration_s",
])
def test_main_unknown_key_exit_2(tmp_path, capsys, key):
    config = write_config(tmp_path, f"{key} = 1\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "sweep-eh"]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_main_infeasible_height_exit_3(tmp_path, capsys):
    config = write_config(tmp_path, "plan.heights_m = 14\nplan.d_eh_m = 13\nplan.mc_seeds = 2\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "plan"]) == 3


def test_main_unwritable_out_exit_4(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory", encoding="utf-8")
    assert cli.main(["--out", str(target), "sweep-eh"]) == 4


def test_main_seed_override(tmp_path):
    config = write_config(tmp_path, "plan.mc_seeds = 2\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", str(config), "--seed", "5", "--out", str(a), "plan"]) == 0
    assert cli.main(["--config", str(config), "--seed", "6", "--out", str(b), "plan"]) == 0
    assert (a / "tour.csv").read_bytes() != (b / "tour.csv").read_bytes()


def test_main_negative_seed_flag_exit_2(tmp_path, capsys):
    # --seed overrides field.seed, and the config check rejects a negative seed.
    assert cli.main(["--seed", "-1", "--out", str(tmp_path), "plan"]) == 2
    assert "field.seed" in capsys.readouterr().err
    assert not (tmp_path / "tour.csv").exists()


@pytest.mark.parametrize("step", ["0", "-1", "nan"])
def test_main_nonpositive_distance_step_exit_2(tmp_path, capsys, step):
    config = write_config(tmp_path, f"sweep.distance_step_m = {step}\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "sweep-eh"]) == 2
    assert "sweep.distance_step_m" in capsys.readouterr().err
    assert not (tmp_path / "eh_sweep.csv").exists()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_main_mc_seeds_below_one_exit_2(tmp_path, capsys, seeds):
    config = write_config(tmp_path, f"plan.mc_seeds = {seeds}\n")
    for command in ("plan", "reproduce"):
        out = tmp_path / command
        assert cli.main(["--config", str(config), "--out", str(out), command]) == 2
        assert "plan.mc_seeds" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    ("line", "key"),
    [
        ("array.elements = 1.9", "array.elements"),
        ("field.count = 2.5", "field.count"),
        ("field.seed = 1e-3", "field.seed"),
        ("field.seed = 9007199254740993.5", "field.seed"),  # float() reads an integer
        ("field.seed = 1e-400", "field.seed"),  # float() reads 0
        ("sweep.elements = 1,16.5", "sweep.elements"),
        ("link.frequency_hz = nan", "link.frequency_hz"),
        ("mission.latency_cap_s = inf", "mission.latency_cap_s"),
        ("sweep.frequencies_hz = 4e8,-inf", "sweep.frequencies_hz"),
        ("plan.d_eh_m = nan", "plan.d_eh_m"),
        ("array.elements = abc", "array.elements"),
        ("sweep.distance_start_m = 0", "sweep.distance_start_m"),
        ("sweep.distance_start_m = -2", "sweep.distance_start_m"),
        ("sweep.distance_stop_m = 0.5", "sweep.distance_stop_m"),
        ("sweep.distance_stop_m = 1e308\nsweep.distance_step_m = 1e-300", "sweep.distance_stop_m"),
        ("field.count = -5", "field.count"),
        ("field.width_m = -5", "field.width_m"),
        ("field.height_m = 0", "field.height_m"),
        ("field.density = 0", "field.density"),
        ("field.density = 0.001", "field.density"),  # 0.1 nodes on 100 m x 100 m rounds to 0
        ("field.seed = -2", "field.seed"),
        ("field.count = 1000000000000", "field.count"),
        ("field.width_m = 1e200\nfield.height_m = 1e200", "field.width_m"),  # the first key out
        # Plan and mission values are checked before any command runs, too.
        ("mission.wpt_power_w = 0", "mission.wpt_power_w"),
        ("mission.wur_power_w = -1", "mission.wur_power_w"),
        ("mission.latency_cap_s = 0", "mission.latency_cap_s"),
        ("mission.payload_bits = -1", "mission.payload_bits"),
        ("plan.mode = exact", "plan.mode"),  # the one-by-one tour visits all 25 nodes
        ("plan.mode = exact\nfield.count = 13", "plan.mode"),  # EXACT_SOLVER_MAX_POINTS + 1
        # Link, array and circuit values name their key, not a dataclass field.
        ("link.frequency_hz = -1", "link.frequency_hz"),
        ("link.frequency_hz = 0", "link.frequency_hz"),
        ("sweep.frequencies_hz = 4e8,0", "sweep.frequencies_hz"),
        ("link.los_a = 0", "link.los_a"),
        ("link.los_b = -0.43", "link.los_b"),
        ("link.excess_los_db = -1", "link.excess_los_db"),
        ("link.excess_nlos_db = 10", "link.excess_nlos_db"),  # below the LoS default
        ("circuit.efficiency = 0", "circuit.efficiency"),
        ("circuit.efficiency = 1.5", "circuit.efficiency"),
        ("array.elements = 0", "array.elements"),
        ("sweep.elements = 1,0", "sweep.elements"),
        # Every key is checked whatever the command reads, so these fail plan and
        # simulate as well as the commands that use them.
        ("sweep.distance_step_m = 0", "sweep.distance_step_m"),
        ("link.frequency_hz = 1e9", "circuit.threshold_dbm"),  # no default threshold
        ("sweep.frequencies_hz = 4e8,5.8e9", "circuit.threshold_dbm"),
        ("sweep.distance_start_m = 0.01\nsweep.elements = 64", "sweep.distance_start_m"),
        ("link.noise_figure_db = -1", "link.noise_figure_db"),  # a receiver adds noise
        ("plan.mode = fast", "plan.mode"),
        ("plan.heights_m = ,", "plan.heights_m"),
        # 10^18 fields, and 10^7 one-node fields: both outside plan.mc_seeds' range row,
        # 1..10,000, which is checked first. test_monte_carlo_limit_spans_two_keys
        # reaches the limit on nodes over all fields.
        ("plan.mc_seeds = 1e18", "plan.mc_seeds"),
        ("field.count = 1\nplan.mc_seeds = 10000000", "plan.mc_seeds"),
        # Values outside their key's range, at magnitudes where a band's wavelength c/f,
        # the uplink SNR at the closest link, a coverage radius (from an explicit d_EH or
        # one the range search finds) or the Monte-Carlo tour sums would overflow. The
        # first key out of range, in `defaults` order, is named.
        ("link.frequency_hz = 1e-320\ncircuit.threshold_dbm = -20", "link.frequency_hz"),
        ("sweep.frequencies_hz = 1e-320\ncircuit.threshold_dbm = -20", "sweep.frequencies_hz"),
        ("link.bandwidth_hz = 1e-300", "link.bandwidth_hz"),
        ("mission.wpt_power_w = 1e300\nlink.bandwidth_hz = 1e-12", "link.bandwidth_hz"),
        ("plan.d_eh_m = 1e300", "plan.d_eh_m"),
        ("circuit.threshold_dbm = -1e300", "circuit.threshold_dbm"),
        ("circuit.threshold_dbm = -1e150", "circuit.threshold_dbm"),
        ("field.width_m = 1e308\nfield.height_m = 1\nfield.count = 20", "field.width_m"),
        ("field.height_m = 1e306\nfield.count = 20", "field.height_m"),
        # Links far past their ranges: a hover, a sweep stop, and a field at a band.
        ("plan.heights_m = 1e300", "plan.heights_m"),
        ("sweep.distance_stop_m = 1e300\nsweep.distance_step_m = 1e298", "sweep.distance_stop_m"),
        ("link.frequency_hz = 1e160\ncircuit.threshold_dbm = -20\nfield.width_m = 1e150\n"
         "plan.d_eh_m = 1e150\nfield.count = 20", "link.frequency_hz"),
    ],
)
def test_main_bad_value_exit_2(tmp_path, capsys, line, key):
    config = write_config(tmp_path, line + "\n")
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main(["--config", str(config), "--out", str(out), command]) == 2, command
        assert key in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


def test_monte_carlo_limit_spans_two_keys(tmp_path, capsys):
    # Each key is inside its range row; together they ask for 101 fields of
    # 100,000 nodes, over the 10^7-node Monte-Carlo limit.
    over = write_config(tmp_path, "field.count = 100000\nplan.mc_seeds = 101\n")
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main(["--config", str(over), "--out", str(out), command]) == 2, command
        err = capsys.readouterr().err
        assert "Monte-Carlo limit" in err and "plan.mc_seeds" in err
        assert not out.exists()
    # 100 such fields are exactly at the limit: the config builds (it is not run).
    at = cli.parse_config(write_config(tmp_path, "field.count = 100000\nplan.mc_seeds = 100\n"))
    assert (at.field_count, at.plan_mc_seeds) == (100000, 100)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        # A line without '=' names the file and its line.
        (b"field.count = 5\nfield.count 6\n", "run.cfg:2: expected 'key = value'"),
        # A file that is not UTF-8 names the file and the first bad byte.
        (b"field.count = 5\n\xff\xfe = 1\n", "run.cfg: not UTF-8 text at byte 16"),
        # The offset counts the byte-order mark: the bad byte is the file's 20th.
        (b"\xef\xbb\xbffield.count = 5\n\xff = 1\n", "run.cfg: not UTF-8 text at byte 19"),
        # Only one leading mark is dropped; one anywhere else is part of a key.
        (b"\xef\xbb\xbf\xef\xbb\xbffield.count = 5\n", "run.cfg:1: unknown key '\\ufefffield"),
        (b"field.count = 5\n\xef\xbb\xbfplan.mc_seeds = 3\n", "run.cfg:2: unknown key '\\ufeffplan"),
    ],
)
def test_main_unreadable_config_line_exit_2(tmp_path, capsys, text, message):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    for command in COMMANDS:
        out = tmp_path / command
        assert cli.main(["--config", str(config), "--out", str(out), command]) == 2, command
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbffield.count = 5\n")
    assert cli.parse_config(config).field_count == 5
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "plan"]) == 0
    header, rows = read_rows(out / "summary.csv")
    assert rows[0][header.index("groups")] == "5"  # one-by-one: one stop a node


CONFIG_KEYS = [line.split(" = ")[0] for line in cli.default_lines()]
# Magnitudes from each end of the float range. The middle ones stay out: there,
# field.count or field.density can legally ask for 10^4-10^5 nodes.
EXTREMES = [0.0, *(sign * m for m in (5e-324, 1e-300, 1e-12, 1e12, 1e150, 1e300)
                   for sign in (1, -1))]


@settings(max_examples=200, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(EXTREMES),
                                 min_size=1, max_size=2))
@example(overrides={"link.bandwidth_hz": 1e-300})  # an uplink SNR that overflows
@example(overrides={"mission.wpt_power_w": 1e300, "link.bandwidth_hz": 1e-12})
@example(overrides={"plan.d_eh_m": 1e300})  # a coverage radius that overflows
@example(overrides={"circuit.threshold_dbm": -1e300})  # and one the range search finds
@example(overrides={"circuit.threshold_dbm": -1e150})
# A threshold met only past 1.34e154 m, where d_EH**2 overflows, at a 10^300 Hz band:
# the d_EH search could not end.
@example(overrides={"link.frequency_hz": 1e300, "circuit.threshold_dbm": -1e12})
# Mission links past d*f = 1.4e307, where 4 pi d f / c as one product overflows.
@example(overrides={"link.frequency_hz": 1e160, "circuit.threshold_dbm": -20,
                    "field.width_m": 1e150, "plan.d_eh_m": 1e150})
@example(overrides={"link.frequency_hz": 1e-320, "circuit.threshold_dbm": -20})  # c/f overflows
@example(overrides={"sweep.frequencies_hz": 1e-320, "circuit.threshold_dbm": -20})
# Pairs on a 1e300 m strip whose squared distance overflows: out of reach, with no warning.
@example(overrides={"field.count": 2000, "field.width_m": 1e300, "field.height_m": 1})
@example(overrides={"field.width_m": 1e308, "field.height_m": 1})  # a tour past the largest float
# A bounding-box area past the largest float, in the tours' first search reach.
@example(overrides={"field.count": 100, "field.width_m": 1e200, "field.height_m": 1e200})
def test_every_command_keeps_the_exit_contract(overrides):
    # Exit 0 with every cell finite and nothing on stderr, exit 2 naming a key, or
    # exit 3; a run that fails leaves no file. A numpy warning fails the test.
    values = {"field.count": 20, "plan.mc_seeds": 1, **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "".join(f"{k} = {v!r}\n" for k, v in values.items()))
        for command in COMMANDS:
            out, err = Path(tmp) / command, io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", str(path), "--out", str(out), command])
            message = err.getvalue()
            if code:
                assert code == 3 or code == 2 and any(key in message for key in CONFIG_KEYS), (
                    command, code, message)
                assert not out.exists() or not any(out.iterdir()), command
                continue
            assert not message, command
            assert_cells_finite(out, command)


def assert_cells_finite(out, command):
    for table in out.glob("*.csv"):
        header, rows = read_rows(table)
        numeric = [j for j, name in enumerate(header) if name != "strategy"]
        assert all(math.isfinite(float(row[j])) for row in rows for j in numeric if row[j]), (
            command, table.name)


@pytest.mark.parametrize(
    ("line", "excess"),
    [
        ("sweep.distance_start_m = 5e-324", "6434 dB"),
        ("sweep.distance_start_m = 0.01\nsweep.elements = 64", "10.52 dB"),  # +50.5 dBm from 10 W
        ("sweep.distance_start_m = 0.02\nsweep.elements = 1,64\nsweep.frequencies_hz = 2.4e9,4e8",
         "4.498 dB"),  # only the second band, at the largest array, amplifies
    ],
)
@pytest.mark.parametrize("command", ["sweep-eh", "sweep-rate", "reproduce"])
def test_main_amplifying_sweep_start_exit_2(tmp_path, capsys, line, excess, command):
    config = write_config(tmp_path, line + "\nplan.mc_seeds = 1\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    # reproduce sweeps at most 32 elements, but the config is checked as written.
    assert "sweep.distance_start_m" in err and excess in err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_start_just_past_the_passive_bound_runs(tmp_path):
    # 0.04 m at 400 MHz loses 19.58 dB, above the 18.06 dB gain of 64 elements.
    config = cli.RunConfig(sweep_distance_start_m=0.04, sweep_elements=(64,))
    _, rows = read_rows(cli.sweep_eh(config, tmp_path))
    assert float(rows[0][3]) < linkbudget.watts_to_dbm(config.mission_wpt_power_w)


def test_plan_and_simulate_rejects_zero_mc_seeds_before_any_file(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="plan.mc_seeds"):
        cli.plan_and_simulate(cli.RunConfig(plan_mc_seeds=0), out)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    ("line", "command"),
    [
        ("link.frequency_hz = 1e9", "simulate"),
        ("sweep.frequencies_hz = 4e8,1e9", "sweep-eh"),
    ],
)
def test_main_band_without_threshold_names_the_key(tmp_path, capsys, line, command):
    config = write_config(tmp_path, line + "\nplan.mc_seeds = 1\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 2
    err = capsys.readouterr().err
    assert "circuit.threshold_dbm" in err and "input_threshold_dbm" not in err
    config = write_config(tmp_path, line + "\nplan.mc_seeds = 1\ncircuit.threshold_dbm = -40\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0


@pytest.mark.parametrize("bandwidth", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "sweep-rate"])
def test_main_nonpositive_bandwidth_exit_2(tmp_path, capsys, bandwidth, command):
    config = write_config(tmp_path, f"link.bandwidth_hz = {bandwidth}\nplan.mc_seeds = 1\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), command]) == 2
    assert "link.bandwidth_hz" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("heights", ["0", "10,0", "-5"])
def test_main_nonpositive_height_exit_2(tmp_path, capsys, heights):
    config = write_config(tmp_path, f"plan.heights_m = {heights}\nplan.mc_seeds = 1\n")
    for command in ("simulate", "reproduce"):
        out = tmp_path / command
        assert cli.main(["--config", str(config), "--out", str(out), command]) == 2
        assert "plan.heights_m" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    ("lines", "excess"),
    [
        ("plan.heights_m = 1e-6,5\nplan.d_eh_m = 10", "87.51 dB"),  # was 1.69 GW from a 10 W beam
        ("plan.heights_m = 0.01,5", "7.509 dB"),  # 7.5 dB of path loss, 15.05 dB of gain
        ("plan.heights_m = 1e-300", "5968 dB"),  # was an OverflowError after tour.csv
    ],
)
def test_main_amplifying_height_exit_2(tmp_path, capsys, lines, excess):
    config = write_config(tmp_path, lines + "\nplan.mc_seeds = 1\n")
    for command in ("plan", "simulate", "reproduce"):
        out = tmp_path / command
        assert cli.main(["--config", str(config), "--out", str(out), command]) == 2
        err = capsys.readouterr().err
        assert "plan.heights_m" in err and excess in err
        assert not out.exists() or not any(out.iterdir())


def test_height_just_past_the_passive_bound_runs(tmp_path):
    # 0.0238 m at 400 MHz loses 15.07 dB, above the 15.05 dB gain of 32 elements.
    config = cli.RunConfig(plan_heights_m=(0.0238,), plan_mc_seeds=1)
    _, rows = read_rows(cli.plan_and_simulate(config, tmp_path)[1])
    assert rows and all(float(row[6]) < config.mission_wpt_power_w for row in rows)


def closest_link_amplifies(config, frequency, height, elements):
    """The overhead link at ``height`` loses less than ``elements`` gain."""
    budget = linkbudget.link_budget(cli._environment(config, frequency), height, height)
    return budget.path_loss_db < linkbudget.array_gain_db(
        linkbudget.AntennaArray(elements))


@settings(max_examples=30, deadline=None)
@given(
    heights=st.lists(st.floats(0.0, 10.0, exclude_min=True), min_size=1, max_size=2),
    start=st.floats(0.0, 2.0, exclude_min=True),
    count=st.integers(1, 30),
    band=st.sampled_from(sorted(linkbudget.BAND_THRESHOLDS_DBM)),
    elements=st.integers(1, 64),
    power_w=st.floats(0.01, 100.0),
    seed=st.integers(0, 1000),
)
@example(heights=[1e-6, 5.0], start=1.0, count=25, band=400e6, elements=32, power_w=10.0, seed=1)
@example(heights=[10.0], start=5e-324, count=25, band=400e6, elements=32, power_w=10.0, seed=1)
def test_no_link_amplifies(heights, start, count, band, elements, power_w, seed):
    # Exit 2 naming the key when a closest link would amplify; else every cell is
    # finite and nothing received or harvested exceeds the transmit power.
    lines = [f"plan.heights_m = {','.join(map(repr, heights))}", "plan.d_eh_m = 10",
             f"sweep.distance_start_m = {start!r}", f"field.count = {count}",
             f"link.frequency_hz = {band!r}", f"array.elements = {elements}",
             f"mission.wpt_power_w = {power_w!r}", f"field.seed = {seed}", "plan.mc_seeds = 1"]
    config = cli.RunConfig(link_frequency_hz=band)
    low_height = any(closest_link_amplifies(config, band, h, elements) for h in heights)
    close_start = any(closest_link_amplifies(config, f, start, max(cli.REPRODUCE_ELEMENTS))
                      for f in cli.REPRODUCE_FREQUENCIES_HZ)
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp) / "out", io.StringIO()
        path = write_config(Path(tmp), "\n".join(lines) + "\n")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(path), "--out", str(out), "reproduce"])
        if low_height or close_start:
            assert code == 2
            assert ("plan.heights_m" if low_height else "sweep.distance_start_m") in err.getvalue()
            assert not out.exists()
            return
        assert code == 0, err.getvalue()
        tables = {p.name: read_rows(p) for p in out.glob("*.csv")}
    assert len(tables) == 5
    for header, rows in tables.values():
        numeric = [j for j, name in enumerate(header) if name != "strategy"]
        assert all(math.isfinite(float(row[j])) for row in rows for j in numeric if row[j])
    header, rows = tables["report.csv"]
    column = header.index("tx_power_w")  # the node sends at its harvested power
    assert all(float(row[column]) <= power_w for row in rows)
    header, rows = tables["eh_sweep.csv"]
    column = header.index("received_dbm")
    assert all(float(row[column]) <= linkbudget.watts_to_dbm(power_w) for row in rows)


@pytest.mark.parametrize(
    ("lines", "code"),
    [
        ("plan.heights_m = 14\nplan.d_eh_m = 13", 3),  # hovers above the EH range
        ("circuit.threshold_dbm = 40", 3),  # no node harvests enough, even overhead
        ("plan.heights_m = 1e300", 2),  # outside its range
        ("link.frequency_hz = 1e9", 2),  # no default threshold for the band
        ("array.elements = 0", 2),
    ],
)
def test_reproduce_rejects_mission_before_any_file(tmp_path, capsys, lines, code):
    # Exit 3 comes from planning, which runs before any sweep is written; exit 2 from
    # the config check, before any command runs.
    config = write_config(tmp_path, lines + "\nplan.mc_seeds = 1\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "reproduce"]) == code
    assert capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    ("lines", "codes"),
    [
        # The highest hover: the sweeps do not read it, and it is far above d_EH.
        ("plan.heights_m = 1e7", (0, 0, 3, 3, 3)),
        # The farthest sweep stop, on a grid of 100 points.
        ("sweep.distance_stop_m = 1e7\nsweep.distance_step_m = 1e5", (0,) * 5),
        # 20 nodes across the widest field at the highest band, all within d_EH.
        ("link.frequency_hz = 3e12\ncircuit.threshold_dbm = -20\nfield.width_m = 1e7\n"
         "plan.d_eh_m = 1e7\nfield.count = 20", (0,) * 5),
    ],
    ids=["hover-1e7", "sweep-stop-1e7", "mission-1e7-at-3e12-hz"],
)
def test_links_of_any_finite_length_run(tmp_path, capsys, lines, codes):
    # Path loss is a sum of logs, finite at every finite distance. The longest links
    # inside cli.RANGES end with finite cells, or with no feasible mission.
    config = write_config(tmp_path, lines + "\nplan.mc_seeds = 1\n")
    for command, code in zip(COMMANDS, codes):
        out = tmp_path / command
        assert cli.main(["--config", str(config), "--out", str(out), command]) == code, command
        err = capsys.readouterr().err
        if code:
            assert err.startswith("infeasible:") and not list(out.glob("*.csv")), command
        else:
            assert not err, command
            assert_cells_finite(out, command)


@pytest.mark.parametrize("heights", [(10.0, 0.01), (5.0, math.nan)])
def test_every_hover_height_is_checked(heights):
    # One passive-link check at the lowest height binds them all; a NaN anywhere fails it.
    with pytest.raises(ConfigurationError, match="plan.heights_m"):
        cli.RunConfig(plan_heights_m=heights)


def test_largest_eh_distance_runs(tmp_path):
    # The top of plan.d_eh_m's range plans every height; the next float up is rejected.
    top = cli.RANGES["plan.d_eh_m"].high
    config = cli.RunConfig(plan_d_eh_m=top, field_count=20, plan_mc_seeds=1)
    header, rows = read_rows(cli.plan_and_simulate(config, tmp_path)[2])
    assert [row[header.index("radius_m")] for row in rows[1:]] == [
        cell(planner.coverage_radius_m(height, top)) for height in config.plan_heights_m]
    with pytest.raises(ConfigurationError, match="plan.d_eh_m"):
        replace(config, plan_d_eh_m=math.nextafter(top, math.inf))


def test_simulate_resolves_eh_distance_once(tmp_path, monkeypatch):
    calls = []
    bisect = linkbudget.achievable_eh_distance_m

    def counted(*args, **kwargs):
        calls.append(args)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(linkbudget, "achievable_eh_distance_m", counted)
    config = write_config(tmp_path, "plan.mc_seeds = 1\n")
    for command in ("simulate", "reproduce"):
        calls.clear()
        assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0
        assert len(calls) == 1


def test_sweep_grid_point_cap():
    step = 0.5
    at_cap = cli.RunConfig(sweep_distance_stop_m=1.0 + (cli.MAX_SWEEP_POINTS - 1) * step,
                           sweep_distance_step_m=step)
    assert len(cli._sweep_distances(at_cap)) == cli.MAX_SWEEP_POINTS
    with pytest.raises(ConfigurationError, match="sweep.distance_step_m"):
        cli.RunConfig(sweep_distance_stop_m=1.0 + cli.MAX_SWEEP_POINTS * step,
                      sweep_distance_step_m=step)


@pytest.mark.parametrize(
    ("line", "command"),
    [
        ("sweep.frequencies_hz = 4e8,5.8e9", "sweep-eh"),  # second band has no threshold
        ("sweep.elements = 16,0", "sweep-eh"),
        ("link.bandwidth_hz = 0", "sweep-rate"),
    ],
)
def test_sweep_error_leaves_no_file(tmp_path, line, command):
    # Sweeps stream series by series; a failing series must not leave a partial CSV.
    config = write_config(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), command]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sweep", [cli.sweep_eh, cli.sweep_rate], ids=["eh", "rate"])
def test_sweep_failing_series_leaves_no_file(tmp_path, monkeypatch, sweep):
    # The config check rejects bad values before a sweep starts, so fail the
    # second series mid-stream instead: neither the CSV nor its .partial remains.
    config = cli.RunConfig()
    calls = []
    link_budget = linkbudget.link_budget

    def second_series_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second series")
        return link_budget(*args, **kwargs)

    monkeypatch.setattr(cli.lb, "link_budget", second_series_fails)
    with pytest.raises(RuntimeError, match="second series"):
        sweep(config, tmp_path)
    assert len(calls) == 2
    assert not list(tmp_path.iterdir())


def test_plan_compares_strategies_once_per_mc_seed(tmp_path, monkeypatch):
    # The Monte-Carlo summary reuses the comparison made on field.seed.
    calls = []
    compare = planner.compare_strategies

    def counted(*args, **kwargs):
        calls.append(args)
        return compare(*args, **kwargs)

    monkeypatch.setattr(planner, "compare_strategies", counted)
    config = write_config(tmp_path, "plan.mc_seeds = 3\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "plan"]) == 0
    assert len(calls) == 3


def test_simulate_plans_each_height_once_per_mc_seed(tmp_path, monkeypatch):
    # The mission flies the first height's strategy from the comparison on
    # field.seed: two fields x (one-by-one + two heights) tours, two heights
    # grouped per field, and nothing planned again for the mission.
    calls = {"form_wpc_groups": 0, "plan_tour": 0}
    for name in calls:
        original = getattr(planner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(planner, name, counted)
    config = write_config(tmp_path, "plan.mc_seeds = 2\nplan.heights_m = 10,5\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path), "simulate"]) == 0
    assert calls == {"form_wpc_groups": 4, "plan_tour": 6}


@pytest.mark.parametrize(
    ("line", "key"),
    [
        ("field.count = {cap}", "field.count"),
        # density 1 per 10 m x 10 m cell on a {cap} m x 100 m field: {cap} nodes
        ("field.density = 1\nfield.width_m = {cap}\nfield.height_m = 100", "field.density"),
    ],
)
def test_field_node_cap(tmp_path, capsys, monkeypatch, line, key):
    cap = planner.MAX_FIELD_NODES
    at_cap = cli.parse_config(write_config(tmp_path, line.format(cap=cap) + "\n"))
    assert (at_cap.field_count or planner.density_node_count(
        at_cap.field_width_m, at_cap.field_height_m, at_cap.field_density)) == cap

    def no_field(*args, **kwargs):
        raise AssertionError("a field over the cap must be rejected before it is generated")

    monkeypatch.setattr(planner, "generate_nodes", no_field)
    over = write_config(tmp_path, line.format(cap=cap + 1) + "\n")
    with pytest.raises(ConfigurationError, match=key):
        cli.parse_config(over)
    assert cli.main(["--config", str(over), "--out", str(tmp_path), "simulate"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "tour.csv").exists()
