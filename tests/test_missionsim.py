"""Mission simulation unit tests.

The per-stop behaviour (wake test, powering duration tau, data phase,
binding node) is checked through one-stop missions and against a
node-by-node oracle that recomputes every quantity directly from the link
budget. tau is also checked against a grid search that scans candidate
powering durations at 1e-4 s resolution.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uewpiot import linkbudget, missionsim, planner
from uewpiot import (
    AntennaArray,
    ConfigurationError,
    EhCircuit,
    Groups,
    MissionScenario,
    NodeField,
    RadioEnvironment,
    TourPlan,
    compare_strategies,
    coverage_radius_m,
    form_wpc_groups,
    generate_nodes,
    link_budget,
    powering_cost,
    simulate_mission,
)
from uewpiot.missionsim import resolve_eh_distance_m
from uewpiot.planner import StrategyResult

GRID_STEP_S = 1e-4
NOT_WOKEN = "no nodes activated by the wake-up signal"


def make_scenario(positions, **overrides):
    field = NodeField(100.0, 100.0, np.asarray(positions, dtype=float))
    defaults = dict(
        field=field,
        env=RadioEnvironment(400e6),
        array=AntennaArray(32),
        circuit=EhCircuit.for_band(400e6),
        payload_bits=10e6,
        latency_cap_s=30.0,
    )
    defaults.update(overrides)
    return MissionScenario(**defaults)


def one_stop(scenario, traversal=0):
    """The mission of one hover stop, over node ``traversal``, whose group is the
    whole field: the stop's outcome and the per-node columns. d_EH only sizes
    the plan, so it is pinned to the height (coverage radius 0)."""
    scenario = replace(scenario, eh_distance_m=scenario.height_m)
    group = Groups([traversal], [0] * scenario.field.node_count)
    stop = StrategyResult("one stop", scenario.height_m, 0.0, group, TourPlan((0,), 0.0))
    report = simulate_mission(scenario, stop)
    return report.groups[0], report.nodes


def assert_same_report(a, b):
    assert repr(replace(a, nodes={})) == repr(replace(b, nodes={}))
    for name in missionsim.NODE_COLUMNS:
        assert a.nodes[name].tolist() == b.nodes[name].tolist(), name


def node_link(scenario, uav_xy, index):
    """Independent per-node link computation used by the oracles."""
    node = scenario.field.positions[index]
    slant = math.hypot(scenario.height_m, math.hypot(node[0] - uav_xy[0], node[1] - uav_xy[1]))
    budget = link_budget(
        scenario.env, scenario.height_m, slant, scenario.wpt_power_w, scenario.array,
        scenario.circuit, scenario.bandwidth_hz, scenario.noise_figure_db,
    )
    harvested_w = 10.0 ** ((float(budget.harvested_dbm) - 30.0) / 10.0)
    return harvested_w, float(budget.rate_bps)


def wake_received_dbm(scenario, uav_xy, index):
    """Independent received wake-up power at one node, from a 0-d kernel call."""
    node = scenario.field.positions[index]
    slant = math.hypot(scenario.height_m, math.hypot(node[0] - uav_xy[0], node[1] - uav_xy[1]))
    budget = link_budget(scenario.env, scenario.height_m, slant)
    return 10.0 * math.log10(scenario.wur_power_w * 1e3) - float(budget.path_loss_db)


def grid_search_tau(scenario, uav_xy, members):
    """Feasibility verdict and best grid tau for one group."""
    links = {i: node_link(scenario, uav_xy, i) for i in members}
    t_data = sum(scenario.payload_bits / rate for _, rate in links.values())
    best = None
    tau = 0.0
    while tau + t_data <= scenario.latency_cap_s + 1e-12:
        feasible = all(
            harv * tau + 1e-15 >= harv * (scenario.payload_bits / rate)
            for harv, rate in links.values()
        )
        if feasible:
            service = tau + t_data
            energy = scenario.wpt_power_w * tau + missionsim.HOVER_POWER_W * service
            cost = (missionsim.COST_WEIGHT_ENERGY * energy
                    + missionsim.COST_WEIGHT_TIME * service)
            best = (tau, cost)
            break  # cost is nondecreasing in tau; first feasible point is optimal
        tau += GRID_STEP_S
    return best


def stop_oracle(scenario, traversal, members):
    """One stop over node ``traversal``, node by node over ``members`` in ascending
    order: (activated count, diagnostic, tau, data phase,
    {served node: (harvested W, transmit s)})."""
    uav_xy = scenario.field.positions[traversal]
    woken = [i for i in members
             if wake_received_dbm(scenario, uav_xy, i) >= scenario.wur_wake_threshold_dbm]
    if not woken:
        return 0, NOT_WOKEN, 0.0, 0.0, {}
    bits, cap = scenario.payload_bits, scenario.latency_cap_s
    links = {i: node_link(scenario, uav_xy, i) for i in woken}
    if bits and any(rate <= 0 for _, rate in links.values()):
        return len(woken), f"cannot deliver {bits} bits over a zero-rate link", 0.0, 0.0, {}
    tx = {i: bits / rate if bits else 0.0 for i, (_, rate) in links.items()}
    tau = max(tx.values())
    data_s = sum(tx[i] for i in woken)  # the TDMA slots, back to back in ascending node order
    if tau + data_s > cap:
        binding = next(i for i in woken if tx[i] == tau)
        diagnostic = (f"group latency {tau + data_s:.4f} s exceeds cap {cap} s "
                      f"(binding node {binding})")
        return len(woken), diagnostic, 0.0, 0.0, {}
    return len(woken), "", tau, data_s, {i: (links[i][0], tx[i]) for i in woken}


# Every node wakes: the optimizer checks below price tau for the whole group.
WAKE_ALL_DBM = -1e3


# --- wake-up -----------------------------------------------------------------

def test_wake_up_boundary_node_activates():
    # A node whose received wake-up power equals the threshold wakes (>=).
    positions = [[50.0, 50.0], [60.0, 50.0]]
    threshold = wake_received_dbm(make_scenario(positions), positions[0], 1)
    stop, _ = one_stop(make_scenario(positions, wur_wake_threshold_dbm=threshold))
    assert stop.activated_count == 2
    above = make_scenario(positions, wur_wake_threshold_dbm=math.nextafter(threshold, math.inf))
    assert one_stop(above)[0].activated_count == 1


def test_wake_up_all_out_of_range():
    scenario = make_scenario(
        [[0.0, 0.0], [90.0, 90.0]], wur_wake_threshold_dbm=30.0
    )
    stop, nodes = one_stop(scenario)
    assert (stop.activated_count, stop.diagnostic, stop.powering_s) == (0, NOT_WOKEN, 0.0)
    assert nodes["bits_delivered"].tolist() == [0.0, 0.0]


def test_wake_up_mixed_group_matches_per_node_oracle():
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, 100.0, size=(5, 2))
    scenario = make_scenario(positions, wur_wake_threshold_dbm=-55.0, latency_cap_s=1e9)
    expected = [i for i in range(5) if wake_received_dbm(scenario, positions[2], i) >= -55.0]
    stop, nodes = one_stop(scenario, traversal=2)
    assert 0 < stop.activated_count == len(expected) < 5 and stop.feasible
    assert np.flatnonzero(nodes["bits_delivered"]).tolist() == expected


# --- powering phase -------------------------------------------------------------

# Three nodes within 11 m of node 0: one group around node 0 at an 18 m range.
POWERING_NODES = [[50.0, 50.0], [56.0, 50.0], [50.0, 61.0]]


def test_powering_phase_zero_duration():
    # No payload: no transmission to power, so every powering phase lasts 0 s
    # and no node harvests anything.
    scenario = make_scenario(POWERING_NODES, payload_bits=0.0, eh_distance_m=18.0)
    report = simulate_mission(scenario)
    outcomes = [(g.feasible, g.activated_count, g.powering_s) for g in report.groups]
    assert outcomes == [(True, 3, 0.0)]
    assert report.nodes["harvested_energy_j"].tolist() == [0.0, 0.0, 0.0]


def test_powering_phase_linear_in_tau():
    # Twice the payload needs twice the powering time, and each node harvests
    # twice the energy over it.
    once, twice = (
        simulate_mission(make_scenario(POWERING_NODES, payload_bits=bits, eh_distance_m=18.0))
        for bits in (1e6, 2e6)
    )
    assert twice.groups[0].powering_s == 2.0 * once.groups[0].powering_s > 0.0
    energy = once.nodes["harvested_energy_j"]
    assert np.all(energy > 0.0)
    np.testing.assert_allclose(twice.nodes["harvested_energy_j"], 2.0 * energy, rtol=1e-12)


def test_powering_phase_matches_link_oracle():
    scenario = make_scenario(POWERING_NODES, eh_distance_m=18.0)
    report = simulate_mission(scenario)
    (group,) = report.groups
    assert group.feasible and group.powering_s > 0.0
    uav_xy = scenario.field.positions[group.traversal_index]
    for index, energy in enumerate(report.nodes["harvested_energy_j"].tolist()):
        harvested_w, _ = node_link(scenario, uav_xy, index)
        assert energy == pytest.approx(harvested_w * group.powering_s, rel=1e-12)


# --- required transmission --------------------------------------------------------

def test_required_tx_basic():
    # A woken node needs bits / rate to send its payload.
    for bits in (15e6, 10e6):
        scenario = make_scenario([[50.0, 50.0]], payload_bits=bits)
        _, rate = node_link(scenario, scenario.field.positions[0], 0)
        stop, nodes = one_stop(scenario)
        assert nodes["tx_time_s"].tolist() == [bits / rate] == [stop.powering_s]


def test_required_tx_zero_payload():
    # An empty payload needs no time, even over a zero-rate link.
    for noise_figure_db in (linkbudget.CALIBRATED_NOISE_FIGURE_DB, 1e300):
        scenario = make_scenario([[50.0, 50.0]], payload_bits=0.0,
                                 noise_figure_db=noise_figure_db)
        stop, nodes = one_stop(scenario)
        assert stop.feasible and nodes["tx_time_s"].tolist() == [0.0]


def test_required_tx_zero_rate():
    # A noise figure of 1e300 dB leaves no rate: the stop cannot be served.
    scenario = make_scenario([[50.0, 50.0], [52.0, 50.0]], noise_figure_db=1e300)
    assert node_link(scenario, scenario.field.positions[0], 0)[1] == 0.0
    stop, nodes = one_stop(scenario)
    assert stop.diagnostic == "cannot deliver 10000000.0 bits over a zero-rate link"
    assert (stop.activated_count, stop.powering_s, stop.data_s) == (2, 0.0, 0.0)
    assert nodes["bits_delivered"].tolist() == [0.0, 0.0]


# --- powering optimizer --------------------------------------------------------------

def test_optimizer_zero_payload():
    scenario = make_scenario([[50.0, 50.0], [52.0, 50.0]], payload_bits=0.0)
    stop, _ = one_stop(scenario)
    assert (stop.feasible, stop.powering_s, stop.data_s) == (True, 0.0, 0.0)
    assert powering_cost(scenario, stop.powering_s, stop.data_s) == 0.0


def test_optimizer_single_node_matches_grid():
    scenario = make_scenario([[50.0, 50.0]], latency_cap_s=2.0)
    uav_xy = scenario.field.positions[0]
    stop, _ = one_stop(scenario)
    oracle = grid_search_tau(scenario, uav_xy, [0])
    assert oracle is not None
    assert abs(stop.powering_s - oracle[0]) <= GRID_STEP_S
    harvested_w, rate = node_link(scenario, uav_xy, 0)
    assert stop.powering_s == pytest.approx(scenario.payload_bits / rate, rel=1e-12)


def test_optimizer_infeasible_latency_names_binding_node():
    # Node 1, 7 m out, is the slower one.
    scenario = make_scenario(
        [[50.0, 50.0], [57.0, 50.0]], latency_cap_s=0.05
    )
    stop, _ = one_stop(scenario)
    assert not stop.feasible and stop.activated_count == 2
    assert stop.diagnostic.startswith("group latency ")
    assert stop.diagnostic.endswith("exceeds cap 0.05 s (binding node 1)")


def test_optimizer_grid_equivalence_random_groups():
    rng = np.random.default_rng(19)
    for _ in range(15):
        k = int(rng.integers(1, 5))
        center = rng.uniform(20.0, 80.0, size=2)
        offsets = rng.uniform(-6.0, 6.0, size=(k, 2))
        scenario = make_scenario(
            np.clip(center + offsets, 0.0, 100.0),
            payload_bits=float(rng.uniform(1e6, 30e6)),
            latency_cap_s=2.0,
            wur_wake_threshold_dbm=WAKE_ALL_DBM,
        )
        oracle = grid_search_tau(scenario, scenario.field.positions[0], range(k))
        stop, _ = one_stop(scenario)
        assert stop.activated_count == k
        if not stop.feasible:
            assert oracle is None
        else:
            assert oracle is not None
            assert abs(stop.powering_s - oracle[0]) <= GRID_STEP_S
            assert powering_cost(scenario, stop.powering_s, stop.data_s) <= oracle[1] + 1e-9


def test_optimizer_feasibility_monotone_in_latency_cap():
    positions = [[50.0, 50.0], [55.0, 52.0], [47.0, 46.0]]
    stop, _ = one_stop(make_scenario(positions, latency_cap_s=1.0))
    assert stop.feasible
    for cap in (2.0, 5.0, 50.0):
        widened, _ = one_stop(make_scenario(positions, latency_cap_s=cap))
        assert widened.powering_s == pytest.approx(stop.powering_s, rel=1e-12)


def count_link_budget_calls(monkeypatch):
    calls = []
    kernel = linkbudget.link_budget

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(linkbudget, "link_budget", counted)
    return calls


FOUR_NODES = [[50.0, 50.0], [55.0, 50.0], [58.0, 53.0], [47.0, 46.0]]


def test_optimizer_evaluates_link_budget_once_per_node(monkeypatch):
    # One kernel call prices every node of the group.
    calls = count_link_budget_calls(monkeypatch)
    stop, nodes = one_stop(make_scenario(FOUR_NODES))
    assert stop.feasible and np.all(nodes["tx_time_s"] > 0.0)
    assert len(calls) == 1 and len(calls[0][2]) == 4


def test_wake_up_evaluates_link_budget_once(monkeypatch):
    # The wake test reads the path loss of the same call that prices the powering.
    calls = count_link_budget_calls(monkeypatch)
    stop, _ = one_stop(make_scenario(FOUR_NODES))
    assert stop.activated_count == 4
    assert len(calls) == 1


# --- full mission -----------------------------------------------------------------

def full_scenario(seed=1, **overrides):
    field = generate_nodes(100.0, 100.0, 0.25, seed=seed)
    defaults = dict(
        field=field,
        env=RadioEnvironment(400e6),
        array=AntennaArray(32),
        circuit=EhCircuit.for_band(400e6),
    )
    defaults.update(overrides)
    return MissionScenario(**defaults)


def test_mission_deterministic_rerun():
    scenario = full_scenario(seed=6)
    assert_same_report(simulate_mission(scenario), simulate_mission(scenario))


def test_mission_time_decomposition_exact():
    scenario = full_scenario(seed=2)
    report = simulate_mission(scenario)
    service = sum(missionsim.WAKE_DURATION_S + g.latency_s for g in report.groups)
    assert report.service_time_s == service
    assert report.mission_time_s == report.flight_time_s + report.service_time_s
    assert report.flight_time_s == report.tour.length_m / 10.0


def test_mission_energy_conservation_per_node():
    nodes = simulate_mission(full_scenario(seed=4)).nodes
    spent = nodes["tx_power_w"] * nodes["tx_time_s"]
    assert np.all(spent <= nodes["harvested_energy_j"] + 1e-12)
    assert set(nodes["bits_delivered"].tolist()) <= {0.0, 10e6}


def test_mission_slots_disjoint():
    # The TDMA slots run back to back: a served stop's data phase is the sum of
    # its served members' transmit times, and tau covers the longest slot.
    report = simulate_mission(full_scenario(seed=9))
    nodes = report.nodes
    for group in report.groups:
        slots = nodes["tx_time_s"][nodes["group_id"] == group.group_id]
        assert np.sum(slots) == pytest.approx(group.data_s, rel=1e-12)
        assert np.max(slots) == group.powering_s


def test_mission_totals_equal_sum_of_parts():
    scenario = full_scenario(seed=5)
    report = simulate_mission(scenario)
    assert report.wpt_energy_j == sum(10.0 * g.powering_s for g in report.groups)
    assert report.wur_energy_j == sum(1.0 * missionsim.WAKE_DURATION_S for _ in report.groups)
    assert report.hover_energy_j == pytest.approx(150.0 * report.service_time_s)
    assert report.cruise_energy_j == pytest.approx(150.0 * report.flight_time_s)
    assert report.uav_energy_j == pytest.approx(
        report.wpt_energy_j + report.wur_energy_j
        + report.hover_energy_j + report.cruise_energy_j
    )


def test_mission_per_node_values_recomputable():
    # Every served node's report row must reproduce exactly from the
    # scenario inputs via the public link-budget functions.
    scenario = full_scenario(seed=10)
    report = simulate_mission(scenario)
    group_tau = {g.group_id: g.powering_s for g in report.groups}
    traversal = {
        g.group_id: scenario.field.positions[g.traversal_index] for g in report.groups
    }
    rows = zip(*(report.nodes[name].tolist() for name in missionsim.NODE_COLUMNS))
    served = 0
    for index, (group_id, _, energy_j, power_w, tx_s, bits) in enumerate(rows):
        if bits == 0.0:
            continue
        harvested_w, rate = node_link(scenario, traversal[group_id], index)
        assert energy_j == harvested_w * group_tau[group_id]
        assert power_w == harvested_w
        assert tx_s == scenario.payload_bits / rate
        served += 1
    assert served > 0


def test_mission_all_nodes_reported_once():
    scenario = full_scenario(seed=3)
    report = simulate_mission(scenario)
    assert all(len(report.nodes[name]) == 25 for name in missionsim.NODE_COLUMNS)
    assert sorted(report.nodes["group_id"].tolist()) == sorted(
        g.group_id for g in report.groups for _ in range(g.member_count))
    assert report.total_bits_delivered == 25 * 10e6


def test_mission_infeasible_group_skipped_not_fatal():
    # A latency cap below any group's requirement skips every group but
    # still completes the mission with zero delivered bits.
    scenario = full_scenario(seed=7, latency_cap_s=1e-4, payload_bits=50e6)
    report = simulate_mission(scenario)
    assert all(not g.feasible for g in report.groups)
    assert all("latency" in g.diagnostic for g in report.groups)
    assert report.total_bits_delivered == 0.0
    # wake attempts still cost time and energy
    assert report.service_time_s == pytest.approx(
        sum(missionsim.WAKE_DURATION_S for _ in report.groups)
    )
    assert report.wur_energy_j > 0.0


def test_mission_no_nodes_activated():
    # A wake threshold no node can reach skips every stop before powering:
    # each spends only its wake-up phase.
    scenario = full_scenario(seed=7, wur_wake_threshold_dbm=100.0)
    report = simulate_mission(scenario)
    for group in report.groups:
        assert group.activated_count == 0
        assert not group.feasible
        assert group.diagnostic == NOT_WOKEN
        assert powering_cost(scenario, group.powering_s, group.data_s) == 0.0
        assert group.latency_s == 0.0
    assert report.wpt_energy_j == 0.0
    assert report.wur_energy_j == pytest.approx(len(report.groups) * (
        scenario.wur_power_w * missionsim.WAKE_DURATION_S))
    assert report.total_bits_delivered == 0.0
    assert len(report.nodes["slant_m"]) == 25


def test_mission_derived_range_matches_explicit():
    implicit = simulate_mission(full_scenario(seed=8))
    explicit = simulate_mission(
        full_scenario(seed=8, eh_distance_m=implicit.eh_distance_m)
    )
    assert explicit.tour.length_m == implicit.tour.length_m
    assert len(explicit.groups) == len(implicit.groups)


def test_mission_flies_the_planned_strategy():
    # 12 nodes, so the exact solver can also plan the one-by-one baseline.
    scenario = full_scenario(field=generate_nodes(100.0, 100.0, 0.0, seed=8, count=12))
    d_eh = resolve_eh_distance_m(scenario)
    _, planned = compare_strategies(scenario.field, d_eh, [scenario.height_m])
    assert_same_report(simulate_mission(scenario, planned), simulate_mission(scenario))
    _, exact = compare_strategies(scenario.field, d_eh, [scenario.height_m], mode="exact")
    report = simulate_mission(scenario, exact)
    assert report.tour is exact.plan
    heuristic = simulate_mission(scenario).nodes
    for name in missionsim.NODE_COLUMNS:  # visit order changes no node
        assert report.nodes[name].tolist() == heuristic[name].tolist()


def test_mission_rejects_a_plan_for_another_height_or_range():
    scenario = full_scenario(seed=8)
    d_eh = resolve_eh_distance_m(scenario)
    for field_d_eh, height in ((d_eh, 5.0), (d_eh + 1.0, scenario.height_m)):
        _, planned = compare_strategies(scenario.field, field_d_eh, [height])
        with pytest.raises(ConfigurationError, match="does not match"):
            simulate_mission(scenario, planned)


def test_mission_rejects_a_tour_short_of_its_groups():
    # A one-stop tour of an 18-group plan would fly 1 group and report 3 nodes.
    scenario = full_scenario(seed=1)
    _, planned = compare_strategies(
        scenario.field, resolve_eh_distance_m(scenario), [scenario.height_m])
    assert len(planned.groups) == 18
    with pytest.raises(ConfigurationError, match="has 1 tour stops for 18 groups"):
        simulate_mission(scenario, replace(planned, plan=TourPlan((0,), 0.0)))
    # Per-node columns need every node in exactly one group, and each group
    # its own traversal node; Groups holds nothing else.
    traversal, group_of = planned.groups.traversal.tolist(), planned.groups.group_of.tolist()
    other = next(i for i in range(len(group_of)) if i not in traversal)

    def changed(ids, at, value):
        return [value if i == at else g for i, g in enumerate(ids)]

    for bad_traversal, bad_group_of in (
        (traversal, changed(group_of, traversal[0], 1)),  # traversal node outside its group
        (traversal, changed(group_of, other, -1)),  # group id below 0
        (traversal, changed(group_of, other, 18)),  # group id at the group count
        (changed(traversal, 1, traversal[0]), group_of),  # a repeated traversal node
    ):
        with pytest.raises(ConfigurationError, match="each group, its traversal node"):
            Groups(bad_traversal, bad_group_of)
    # One node more than the field: a valid partition, of another field.
    with pytest.raises(ConfigurationError, match="must group each node once"):
        simulate_mission(scenario, replace(planned, groups=Groups(traversal, group_of + [0])))


@pytest.mark.parametrize(("side_m", "count"), [(100.0, 25), (400.0, 400)])
def test_mission_prices_every_stop_in_one_kernel_call(monkeypatch, side_m, count):
    # The groups partition the nodes, so the one call prices each node once.
    field = generate_nodes(side_m, side_m, 0.0, seed=1, count=count)
    scenario = full_scenario(field=field, eh_distance_m=13.0)
    _, planned = compare_strategies(field, 13.0, [scenario.height_m])
    calls = count_link_budget_calls(monkeypatch)
    report = simulate_mission(scenario, planned)
    assert len(calls) == 1
    assert len(calls[0][2]) == len(report.nodes["slant_m"]) == count


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)), min_size=1, max_size=40
    ),
    eh_distance_m=st.floats(10.5, 30.0),
    latency_cap_s=st.floats(0.01, 2.0),
    payload_mbit=st.integers(0, 40),
    wake_threshold_dbm=st.floats(-50.0, -30.0),
)
@example(  # every group skipped for its latency
    points=[(10.0, 10.0), (14.0, 10.0), (50.0, 50.0)], eh_distance_m=15.0,
    latency_cap_s=0.01, payload_mbit=20, wake_threshold_dbm=-55.0,
)
@example(  # (P * t) / P rounds one ulp above t here, so a tau derived from energy misses
    points=[(10.0, 10.0)], eh_distance_m=15.0,
    latency_cap_s=2.0, payload_mbit=33, wake_threshold_dbm=-50.0,
)
@example(  # every group skipped unwoken
    points=[(10.0, 10.0), (14.0, 10.0), (50.0, 50.0)], eh_distance_m=15.0,
    latency_cap_s=2.0, payload_mbit=10, wake_threshold_dbm=-35.0,
)
def test_mission_matches_per_stop_oracle_and_conserves(
    points, eh_distance_m, latency_cap_s, payload_mbit, wake_threshold_dbm
):
    # Each stop of the one-pass mission equals the node-by-node stop_oracle, bit
    # for bit, and the report conserves time, energy and bits.
    scenario = make_scenario(
        points, eh_distance_m=eh_distance_m, latency_cap_s=latency_cap_s,
        payload_bits=payload_mbit * 1e6, wur_wake_threshold_dbm=wake_threshold_dbm,
    )
    report = simulate_mission(scenario)
    groups = form_wpc_groups(scenario.field, coverage_radius_m(scenario.height_m, eh_distance_m))
    assert sorted(g.group_id for g in report.groups) == list(range(len(groups)))
    columns = [report.nodes[name].tolist() for name in missionsim.NODE_COLUMNS]
    assert all(len(column) == len(points) for column in columns)
    served = 0
    for outcome in report.groups:
        traversal = int(groups.traversal[outcome.group_id])
        members = np.flatnonzero(groups.group_of == outcome.group_id).tolist()
        assert (outcome.traversal_index, outcome.member_count) == (traversal, len(members))
        activated, diagnostic, tau, data_s, links = stop_oracle(scenario, traversal, members)
        assert (outcome.activated_count, outcome.feasible, outcome.diagnostic) == (
            activated, not diagnostic, diagnostic)
        assert (outcome.powering_s, outcome.data_s) == (tau, data_s)
        assert outcome.latency_s <= latency_cap_s or diagnostic
        served += len(links)
        uav_xy = scenario.field.positions[traversal]
        for index in members:
            node_xy = scenario.field.positions[index]
            ground = math.hypot(node_xy[0] - uav_xy[0], node_xy[1] - uav_xy[1])
            row = [column[index] for column in columns]
            harvested_w, tx_s = links.get(index, (0.0, 0.0))
            bits = scenario.payload_bits if index in links else 0.0
            assert row == [outcome.group_id, math.hypot(scenario.height_m, ground),
                           harvested_w * tau, harvested_w, tx_s, bits]
            # tau >= tx_time and the node sends at its harvested power, so
            # the rounded products keep that order.
            assert row[2] >= row[3] * row[4]

    assert report.total_bits_delivered == payload_mbit * 1e6 * served
    assert report.service_time_s == sum(
        missionsim.WAKE_DURATION_S + g.latency_s for g in report.groups
    )
    assert report.uav_energy_j == (
        report.wpt_energy_j + report.wur_energy_j + report.hover_energy_j + report.cruise_energy_j
    )
    assert report.wpt_energy_j == sum(scenario.wpt_power_w * g.powering_s for g in report.groups)
    assert report.wur_energy_j == sum(
        scenario.wur_power_w * missionsim.WAKE_DURATION_S for _ in report.groups
    )
    assert report.hover_energy_j == missionsim.HOVER_POWER_W * report.service_time_s
    assert report.cruise_energy_j == missionsim.HOVER_POWER_W * report.flight_time_s


def test_scenario_validation():
    field = generate_nodes(100.0, 100.0, 0.25, seed=1)
    kwargs = dict(
        field=field,
        env=RadioEnvironment(400e6),
        array=AntennaArray(32),
        circuit=EhCircuit.for_band(400e6),
    )
    with pytest.raises(ConfigurationError):
        MissionScenario(**kwargs, wpt_power_w=0.0)
    with pytest.raises(ConfigurationError):
        MissionScenario(**kwargs, latency_cap_s=0.0)
    # A d_EH past the planner's one length limit fails when the scenario is
    # built, naming the field; 1e152 m used to build and fail later, in
    # grouping. A d_EH exactly at the limit builds and flies one stop.
    for bad in (1e152, math.nextafter(planner.MAX_COORDINATE_M, math.inf)):
        with pytest.raises(ConfigurationError, match="eh_distance_m") as caught:
            MissionScenario(**kwargs, eh_distance_m=bad)
        assert caught.value.field == "eh_distance_m"
    scenario = MissionScenario(**kwargs, eh_distance_m=planner.MAX_COORDINATE_M)
    assert len(simulate_mission(scenario).groups) == 1
