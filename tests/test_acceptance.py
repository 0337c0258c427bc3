"""Acceptance suite.

One test per shipped guarantee, each printing a PASS line (run with
``pytest -v tests/test_acceptance.py -s`` to see them):

 1. Planar-array physical sizes at 400 MHz / 900 MHz / 2.4 GHz (+-0.005 m),
    in under a second.
 2. Coverage radii R(10, 13) = 8.3066 m and R(5, 13) = 12.000 m (+-0.01 m).
 3. Shipped-default operating points: 400 MHz / 32-element EH range at
    10 m hover in [10, 16] m; 900 MHz / 32-element rate at 10 m in
    [50, 100] Mbps.
 4. Link-budget property sweep (10^4 random cases): conversion-efficiency
    identity, strict distance monotonicity, exact array-gain spacing,
    EH-range root within 0.01 dB, in under 10 s.
 5. Tour statistics over 100 seeded 25-node fields: mean length ordering
    one-by-one > H=10 > H=5 and mean H=5 saving in [2%, 30%], under 60 s.
 6. Exact-solver subset dominance on 50 random instances.
 7. The powering duration of a one-stop mission, and its cost, match a
    1e-4 s grid search on 100 random groups, including feasibility verdicts.
 8. Mission invariants on 50 random scenarios: per-node energy
    conservation, back-to-back TDMA slots, exact time decomposition,
    bit-identical reruns.
 9. ``reproduce`` emits its five CSV files deterministically in under
    5 minutes.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from uewpiot import (
    AntennaArray,
    EhCircuit,
    Groups,
    MissionScenario,
    NodeField,
    RadioEnvironment,
    TourPlan,
    achievable_eh_distance_m,
    compare_strategies,
    coverage_radius_m,
    generate_nodes,
    link_budget,
    plan_tour,
    powering_cost,
    simulate_mission,
    upa_physical_size_m,
)
from uewpiot import cli, missionsim
from uewpiot.planner import StrategyResult


def test_criterion_1_upa_sizing():
    started = time.perf_counter()
    cases = {
        400e6: (1.125, 2.625),
        900e6: (0.500, 7.0 / 6.0),
        2.4e9: (0.1875, 0.4375),
    }
    for freq, (short, long) in cases.items():
        size = upa_physical_size_m(RadioEnvironment(freq), 4, 8)
        assert size[0] == pytest.approx(short, abs=0.005)
        assert size[1] == pytest.approx(long, abs=0.005)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: UPA sizes match at all three bands ({elapsed:.3f}s)")


def test_criterion_2_coverage_radii():
    assert coverage_radius_m(10.0, 13.0) == pytest.approx(8.3066, abs=0.01)
    assert coverage_radius_m(5.0, 13.0) == pytest.approx(12.000, abs=0.01)
    print("\nACCEPTANCE 2 PASS: coverage radii 8.3066 m and 12.000 m")


def test_criterion_3_calibration_targets():
    array = AntennaArray(32)
    eh_range = achievable_eh_distance_m(
        10.0, array, EhCircuit.for_band(400e6), RadioEnvironment(400e6), 10.0
    )
    assert eh_range is not None and 10.0 <= eh_range <= 16.0
    rate = link_budget(
        RadioEnvironment(900e6), 10.0, 10.0, 10.0, array, EhCircuit.for_band(900e6), 15e6, 5.0
    ).rate_bps
    assert 50e6 <= rate <= 100e6
    print(
        f"\nACCEPTANCE 3 PASS: shipped defaults give EH range {eh_range:.2f} m "
        f"and rate {rate / 1e6:.1f} Mbps"
    )


def test_criterion_4_link_budget_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(101)

    # conversion-efficiency identity, 10^4 random cases
    for _ in range(10_000):
        freq = float(rng.choice([400e6, 900e6, 2.4e9]))
        env = RadioEnvironment(freq)
        eta = float(rng.uniform(0.05, 1.0))
        circuit = EhCircuit(-20.0, conversion_efficiency=eta)
        array = AntennaArray(int(rng.integers(1, 65)))
        h = float(rng.uniform(0.0, 40.0))
        d = h + float(rng.uniform(0.01, 120.0))
        p = float(rng.uniform(0.5, 40.0))
        budget = link_budget(env, h, d, p, array, circuit)
        assert budget.harvested_dbm == pytest.approx(
            budget.received_dbm + 10.0 * math.log10(eta), abs=1e-9
        )

    # strict monotonicity in distance at fixed height
    env = RadioEnvironment(400e6)
    array = AntennaArray(32)
    circuit = EhCircuit.for_band(400e6)
    values = [
        link_budget(env, 10.0, d, 10.0, array, circuit).harvested_dbm
        for d in np.linspace(10.0, 300.0, 400)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))

    # exact array-gain spacing
    for n1, n2 in [(1, 16), (16, 32), (1, 32), (4, 64)]:
        h1, h2 = (
            link_budget(env, 10.0, 30.0, 10.0, AntennaArray(n), circuit).harvested_dbm
            for n in (n1, n2)
        )
        delta = h2 - h1
        assert delta == pytest.approx(10.0 * math.log10(n2 / n1), abs=1e-9)

    # root accuracy of the EH-range solver
    for h in (0.0, 5.0, 10.0):
        root = achievable_eh_distance_m(10.0, array, circuit, env, h)
        harvested = link_budget(env, h, root, 10.0, array, circuit).harvested_dbm
        assert abs(harvested - circuit.input_threshold_dbm) <= 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS: link-budget property sweep ({elapsed:.2f}s)")


def test_criterion_5_tour_statistics():
    started = time.perf_counter()
    lengths = {"one-by-one": [], "H=10": [], "H=5": []}
    savings = []
    for seed in range(100):
        field = generate_nodes(100.0, 100.0, 0.25, seed=seed)
        strategies = compare_strategies(field, 13.0, [10.0, 5.0])
        assert [result.name for result in strategies] == list(lengths)
        for result in strategies:
            lengths[result.name].append(result.length_m)
        savings.append(1.0 - strategies[2].length_m / strategies[0].length_m)
    means = {name: sum(vals) / len(vals) for name, vals in lengths.items()}
    mean_saving = sum(savings) / len(savings)
    assert means["one-by-one"] > means["H=10"] > means["H=5"]
    assert 0.02 <= mean_saving <= 0.30
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 PASS: mean lengths {means['one-by-one']:.1f} > "
        f"{means['H=10']:.1f} > {means['H=5']:.1f} m, mean H=5 saving "
        f"{100 * mean_saving:.1f}% ({elapsed:.1f}s)"
    )


def test_criterion_6_subset_dominance():
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 50:
        n = int(rng.integers(4, 11))
        pts = rng.uniform(0.0, 100.0, size=(n, 2))
        k = int(rng.integers(2, n))
        subset = sorted(rng.choice(n, size=k, replace=False))
        full_length = plan_tour(pts, mode="exact").length_m
        subset_length = plan_tour(pts[subset], mode="exact").length_m
        assert subset_length <= full_length + 1e-9
        checked += 1
    print("\nACCEPTANCE 6 PASS: exact subset tours never longer, 50/50 instances")


def _random_group_scenario(rng):
    k = int(rng.integers(1, 6))
    center = rng.uniform(20.0, 80.0, size=2)
    positions = np.clip(center + rng.uniform(-7.0, 7.0, size=(k, 2)), 0.0, 100.0)
    freq = float(rng.choice([400e6, 900e6]))
    scenario = MissionScenario(
        field=NodeField(100.0, 100.0, positions),
        env=RadioEnvironment(freq),
        array=AntennaArray(int(rng.choice([16, 32]))),
        circuit=EhCircuit.for_band(freq),
        payload_bits=float(rng.uniform(1e6, 40e6)),
        latency_cap_s=float(rng.uniform(0.05, 1.0)),
        height_m=float(rng.uniform(2.0, 12.0)),
        wur_wake_threshold_dbm=-1e3,  # every member wakes
    )
    return scenario, positions[0], range(k)


def _one_stop(scenario):
    """The mission of one stop, over node 0, whose group is the whole field; d_EH,
    which only sizes the plan, is pinned to the height."""
    scenario = replace(scenario, eh_distance_m=scenario.height_m)
    group = Groups([0], [0] * scenario.field.node_count)
    stop = StrategyResult("one stop", scenario.height_m, 0.0, group, TourPlan((0,), 0.0))
    return simulate_mission(scenario, stop).groups[0]


def test_criterion_7_optimizer_matches_grid_search():
    step = 1e-4
    rng = np.random.default_rng(77)
    agreements = 0
    for _ in range(100):
        scenario, uav_xy, members = _random_group_scenario(rng)

        # independent grid oracle
        links = {}
        for i in members:
            node = scenario.field.positions[i]
            slant = math.hypot(scenario.height_m, math.dist(node, uav_xy))
            budget = link_budget(
                scenario.env, scenario.height_m, slant, scenario.wpt_power_w, scenario.array,
                scenario.circuit, scenario.bandwidth_hz, scenario.noise_figure_db,
            )
            harvested_w = 10.0 ** ((float(budget.harvested_dbm) - 30.0) / 10.0)
            links[i] = (harvested_w, float(budget.rate_bps))
        t_data = sum(scenario.payload_bits / rate for _, rate in links.values())
        grid_best = None
        tau = 0.0
        while tau + t_data <= scenario.latency_cap_s + 1e-12:
            if all(
                harvested * tau + 1e-15 >= harvested * scenario.payload_bits / rate
                for harvested, rate in links.values()
            ):
                service = tau + t_data
                energy = (scenario.wpt_power_w * tau
                          + missionsim.HOVER_POWER_W * service)
                grid_best = (
                    tau,
                    missionsim.COST_WEIGHT_ENERGY * energy
                    + missionsim.COST_WEIGHT_TIME * service,
                )
                break
            tau += step

        stop = _one_stop(scenario)
        assert stop.activated_count == len(members)
        if not stop.feasible:
            assert grid_best is None
        else:
            assert grid_best is not None
            assert abs(stop.powering_s - grid_best[0]) <= step
            cost_slack = (
                missionsim.COST_WEIGHT_ENERGY
                * (scenario.wpt_power_w + missionsim.HOVER_POWER_W)
                + missionsim.COST_WEIGHT_TIME
            ) * step
            cost = powering_cost(scenario, stop.powering_s, stop.data_s)
            assert abs(cost - grid_best[1]) <= cost_slack + 1e-9
        agreements += 1
    assert agreements == 100
    print("\nACCEPTANCE 7 PASS: one-stop tau and cost agree with grid search, 100/100 groups")


def test_criterion_8_mission_invariants():
    rng = np.random.default_rng(88)
    for trial in range(50):
        freq = float(rng.choice([400e6, 900e6]))
        scenario = MissionScenario(
            field=generate_nodes(
                100.0, 100.0, float(rng.uniform(0.1, 0.4)), seed=int(rng.integers(0, 10_000))
            ),
            env=RadioEnvironment(freq),
            array=AntennaArray(32),
            circuit=EhCircuit.for_band(freq),
            payload_bits=float(rng.uniform(1e6, 30e6)),
            latency_cap_s=float(rng.uniform(0.5, 30.0)),
            height_m=float(rng.uniform(2.0, 8.0)),
        )
        report = simulate_mission(scenario)

        nodes = report.nodes
        assert np.all(nodes["tx_power_w"] * nodes["tx_time_s"]
                      <= nodes["harvested_energy_j"] + 1e-12)
        for group in report.groups:  # slots back to back: the data phase is their sum
            slots = nodes["tx_time_s"][nodes["group_id"] == group.group_id]
            assert np.sum(slots) == pytest.approx(group.data_s, rel=1e-12)
        service = sum(missionsim.WAKE_DURATION_S + g.latency_s for g in report.groups)
        assert report.service_time_s == service
        assert report.mission_time_s == report.flight_time_s + service
        rerun = simulate_mission(scenario)
        assert repr(replace(rerun, nodes={})) == repr(replace(report, nodes={}))
        assert all(rerun.nodes[k].tolist() == nodes[k].tolist() for k in nodes)
    print("\nACCEPTANCE 8 PASS: mission invariants hold on 50 random scenarios")


def test_criterion_9_reproduce_end_to_end(tmp_path):
    started = time.perf_counter()
    config = cli.RunConfig()
    first = cli.reproduce(config, tmp_path / "run1")
    second = cli.reproduce(config, tmp_path / "run2")
    elapsed = time.perf_counter() - started
    names = [p.name for p in first]
    assert names == [
        "eh_sweep.csv", "rate_sweep.csv", "tour.csv", "report.csv", "summary.csv",
    ]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()

    # the emitted Monte-Carlo summary shows the mean-length ordering
    lines = (tmp_path / "run1" / "summary.csv").read_text().splitlines()
    mc_means = {
        row.split(",")[0]: float(row.split(",")[7]) for row in lines[1:]
    }
    assert mc_means["one-by-one"] > mc_means["H=10"] > mc_means["H=5"]

    assert elapsed < 300.0
    print(f"\nACCEPTANCE 9 PASS: reproduce emitted 5 deterministic CSVs ({elapsed:.1f}s)")
