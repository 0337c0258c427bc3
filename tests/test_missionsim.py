"""Mission simulation unit tests.

The powering optimizer is checked against a grid-search oracle that
recomputes every per-node quantity directly from the link budget and
scans candidate powering durations at 1e-4 s resolution.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uewpiot import linkbudget
from uewpiot import (
    AntennaArray,
    ConfigurationError,
    EhCircuit,
    InfeasibilityError,
    MissionScenario,
    NodeField,
    RadioEnvironment,
    WpcGroup,
    compare_strategies,
    coverage_radius_m,
    form_wpc_groups,
    generate_nodes,
    link_budget,
    optimize_powering,
    required_tx,
    simulate_mission,
    tdma_schedule,
    wake_up,
)
from uewpiot.missionsim import NodeOutcome, resolve_eh_distance_m

GRID_STEP_S = 1e-4


def make_scenario(positions, **overrides):
    field = NodeField(100.0, 100.0, np.asarray(positions, dtype=float), seed=0)
    defaults = dict(
        field=field,
        env=RadioEnvironment(400e6),
        array=AntennaArray.with_elements(32),
        circuit=EhCircuit.for_band(400e6),
        payload_bits=10e6,
        latency_cap_s=30.0,
    )
    defaults.update(overrides)
    return MissionScenario(**defaults)


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
            energy = scenario.wpt_power_w * tau + scenario.hover_power_w * service
            cost = (scenario.cost_weight_energy * energy
                    + scenario.cost_weight_time * service)
            best = (tau, cost)
            break  # cost is nondecreasing in tau; first feasible point is optimal
        tau += GRID_STEP_S
    return best


# --- wake-up -----------------------------------------------------------------

def test_wake_up_boundary_node_activates():
    scenario = make_scenario([[50.0, 50.0], [60.0, 50.0]])
    uav_xy = scenario.field.positions[0]
    boundary = make_scenario(
        [[50.0, 50.0], [60.0, 50.0]],
        wur_wake_threshold_dbm=wake_received_dbm(scenario, uav_xy, 1),
    )
    group = WpcGroup(0, frozenset({0, 1}))
    assert wake_up(boundary, uav_xy, group) == frozenset({0, 1})


def test_wake_up_all_out_of_range():
    scenario = make_scenario(
        [[0.0, 0.0], [90.0, 90.0]], wur_wake_threshold_dbm=30.0
    )
    group = WpcGroup(0, frozenset({0, 1}))
    assert wake_up(scenario, scenario.field.positions[0], group) == frozenset()


def test_wake_up_mixed_group_matches_per_node_oracle():
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, 100.0, size=(5, 2))
    scenario = make_scenario(positions, wur_wake_threshold_dbm=-55.0)
    uav_xy = positions[2]
    group = WpcGroup(2, frozenset(range(5)))
    expected = {i for i in range(5) if wake_received_dbm(scenario, uav_xy, i) >= -55.0}
    assert wake_up(scenario, uav_xy, group) == frozenset(expected)


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
    assert [n.harvested_energy_j for n in report.nodes] == [0.0, 0.0, 0.0]


def test_powering_phase_linear_in_tau():
    # Twice the payload needs twice the powering time, and each node harvests
    # twice the energy over it.
    once, twice = (
        simulate_mission(make_scenario(POWERING_NODES, payload_bits=bits, eh_distance_m=18.0))
        for bits in (1e6, 2e6)
    )
    assert twice.groups[0].powering_s == 2.0 * once.groups[0].powering_s > 0.0
    for a, b in zip(once.nodes, twice.nodes):
        assert a.harvested_energy_j > 0.0
        assert b.harvested_energy_j == pytest.approx(2.0 * a.harvested_energy_j, rel=1e-12)


def test_powering_phase_matches_link_oracle():
    scenario = make_scenario(POWERING_NODES, eh_distance_m=18.0)
    report = simulate_mission(scenario)
    (group,) = report.groups
    assert group.feasible and group.powering_s > 0.0
    uav_xy = scenario.field.positions[group.traversal_index]
    for node in report.nodes:
        harvested_w, _ = node_link(scenario, uav_xy, node.node_index)
        assert node.harvested_energy_j == pytest.approx(harvested_w * group.powering_s, rel=1e-12)


# --- required transmission --------------------------------------------------------

def test_required_tx_basic():
    assert required_tx(15e6, 15e6) == 1.0
    assert required_tx(10e6, 4e6) == 2.5


def test_required_tx_zero_payload():
    assert required_tx(0.0, 1e6) == 0.0
    assert required_tx(0.0, 0.0) == 0.0  # an empty payload needs no link


def test_required_tx_zero_rate():
    with pytest.raises(InfeasibilityError):
        required_tx(1e6, 0.0)


# --- TDMA schedule -----------------------------------------------------------------

def test_tdma_sequential_slots():
    slots = tdma_schedule({0: 1.0, 1: 2.0, 2: 3.0})
    assert [s.start_s for s in slots] == [0.0, 1.0, 3.0]
    assert sum(s.duration_s for s in slots) == 6.0


def test_tdma_single_and_empty():
    single = tdma_schedule({4: 2.5})
    assert len(single) == 1 and single[0].start_s == 0.0
    assert tdma_schedule({}) == ()


def test_tdma_ascending_node_order():
    slots = tdma_schedule({5: 1.0, 1: 2.0, 3: 0.5})
    assert [s.node_index for s in slots] == [1, 3, 5]
    for a, b in zip(slots, slots[1:]):
        assert b.start_s == pytest.approx(a.start_s + a.duration_s)


# --- powering optimizer --------------------------------------------------------------

def test_optimizer_zero_payload():
    scenario = make_scenario([[50.0, 50.0], [52.0, 50.0]], payload_bits=0.0)
    solution = optimize_powering(scenario, scenario.field.positions[0], {0, 1})
    assert solution.tau_s == 0.0
    assert solution.data_s == 0.0
    assert solution.cost == 0.0


def test_optimizer_single_node_matches_grid():
    scenario = make_scenario([[50.0, 50.0]], latency_cap_s=2.0)
    uav_xy = scenario.field.positions[0]
    solution = optimize_powering(scenario, uav_xy, {0})
    oracle = grid_search_tau(scenario, uav_xy, [0])
    assert oracle is not None
    assert abs(solution.tau_s - oracle[0]) <= GRID_STEP_S
    harvested_w, rate = node_link(scenario, uav_xy, 0)
    assert solution.tau_s == pytest.approx(scenario.payload_bits / rate, rel=1e-12)


def test_optimizer_infeasible_latency_names_binding_node():
    scenario = make_scenario(
        [[50.0, 50.0], [57.0, 50.0]], latency_cap_s=0.05
    )
    with pytest.raises(InfeasibilityError, match="binding node"):
        optimize_powering(scenario, scenario.field.positions[0], {0, 1})


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
        )
        uav_xy = scenario.field.positions[0]
        members = set(range(k))
        oracle = grid_search_tau(scenario, uav_xy, members)
        try:
            solution = optimize_powering(scenario, uav_xy, members)
        except InfeasibilityError:
            assert oracle is None
        else:
            assert oracle is not None
            assert abs(solution.tau_s - oracle[0]) <= GRID_STEP_S
            assert solution.cost <= oracle[1] + 1e-9


def test_optimizer_feasibility_monotone_in_latency_cap():
    positions = [[50.0, 50.0], [55.0, 52.0], [47.0, 46.0]]
    base = make_scenario(positions, latency_cap_s=1.0)
    uav_xy = base.field.positions[0]
    solution = optimize_powering(base, uav_xy, {0, 1, 2})
    for cap in (2.0, 5.0, 50.0):
        relaxed = make_scenario(positions, latency_cap_s=cap)
        widened = optimize_powering(relaxed, uav_xy, {0, 1, 2})
        assert widened.tau_s == pytest.approx(solution.tau_s, rel=1e-12)


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
    scenario = make_scenario(FOUR_NODES)
    solution = optimize_powering(scenario, scenario.field.positions[0], {0, 1, 2, 3})
    assert len(solution.services) == 4
    assert len(calls) == 1


def test_wake_up_evaluates_link_budget_once(monkeypatch):
    calls = count_link_budget_calls(monkeypatch)
    scenario = make_scenario(FOUR_NODES)
    group = WpcGroup(0, frozenset(range(4)))
    assert wake_up(scenario, scenario.field.positions[0], group) == frozenset(range(4))
    assert len(calls) == 1


def test_optimizer_rejects_empty_group():
    scenario = make_scenario([[50.0, 50.0]])
    with pytest.raises(ConfigurationError):
        optimize_powering(scenario, scenario.field.positions[0], set())


# --- full mission -----------------------------------------------------------------

def full_scenario(seed=1, **overrides):
    field = generate_nodes(100.0, 100.0, 0.25, seed=seed)
    defaults = dict(
        field=field,
        env=RadioEnvironment(400e6),
        array=AntennaArray.with_elements(32),
        circuit=EhCircuit.for_band(400e6),
    )
    defaults.update(overrides)
    return MissionScenario(**defaults)


def test_mission_deterministic_rerun():
    scenario = full_scenario(seed=6)
    assert repr(simulate_mission(scenario)) == repr(simulate_mission(scenario))


def test_mission_time_decomposition_exact():
    scenario = full_scenario(seed=2)
    report = simulate_mission(scenario)
    service = sum(scenario.wake_duration_s + g.latency_s for g in report.groups)
    assert report.service_time_s == service
    assert report.mission_time_s == report.flight_time_s + report.service_time_s
    assert report.flight_time_s == report.tour.length_m / 10.0


def test_mission_energy_conservation_per_node():
    report = simulate_mission(full_scenario(seed=4))
    for node in report.nodes:
        spent = node.tx_power_w * node.tx_time_s
        assert spent <= node.harvested_energy_j + 1e-12
    assert all(n.bits_delivered in (0.0, 10e6) for n in report.nodes)


def test_mission_slots_disjoint():
    report = simulate_mission(full_scenario(seed=9))
    for group in report.groups:
        slots = group.slots
        for a, b in zip(slots, slots[1:]):
            assert b.start_s >= a.start_s + a.duration_s - 1e-12
        assert sum(s.duration_s for s in slots) == pytest.approx(group.data_s, rel=1e-12)


def test_mission_totals_equal_sum_of_parts():
    scenario = full_scenario(seed=5)
    report = simulate_mission(scenario)
    assert report.wpt_energy_j == sum(10.0 * g.powering_s for g in report.groups)
    assert report.wur_energy_j == sum(1.0 * scenario.wake_duration_s for _ in report.groups)
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
    for node in report.nodes:
        if node.bits_delivered == 0.0:
            continue
        harvested_w, rate = node_link(scenario, traversal[node.group_id], node.node_index)
        assert node.harvested_energy_j == harvested_w * group_tau[node.group_id]
        assert node.tx_power_w == harvested_w
        assert node.tx_time_s == scenario.payload_bits / rate


def test_mission_all_nodes_reported_once():
    scenario = full_scenario(seed=3)
    report = simulate_mission(scenario)
    assert [n.node_index for n in report.nodes] == list(range(25))
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
        sum(scenario.wake_duration_s for _ in report.groups)
    )
    assert report.wur_energy_j > 0.0


def test_mission_no_nodes_activated():
    # A wake threshold no node can reach skips every stop before powering.
    scenario = full_scenario(seed=7, wur_wake_threshold_dbm=100.0)
    report = simulate_mission(scenario)
    wake_energy = scenario.wur_power_w * scenario.wake_duration_s
    for group in report.groups:
        assert group.activated_count == 0
        assert not group.feasible
        assert group.diagnostic == "no nodes activated by the wake-up signal"
        assert group.supplied_energy_j == wake_energy
        assert group.cost == 0.0
        assert group.latency_s == 0.0
    assert report.total_bits_delivered == 0.0
    assert [n.node_index for n in report.nodes] == list(range(25))


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
    planned = compare_strategies(scenario.field, d_eh, [scenario.height_m]).results[1]
    assert repr(simulate_mission(scenario, planned)) == repr(simulate_mission(scenario))
    exact = compare_strategies(scenario.field, d_eh, [scenario.height_m], mode="exact")
    report = simulate_mission(scenario, exact.results[1])
    assert report.tour is exact.results[1].plan
    assert report.nodes == simulate_mission(scenario).nodes  # visit order changes no node


def test_mission_rejects_a_plan_for_another_height_or_range():
    scenario = full_scenario(seed=8)
    d_eh = resolve_eh_distance_m(scenario)
    for field_d_eh, height in ((d_eh, 5.0), (d_eh + 1.0, scenario.height_m)):
        planned = compare_strategies(scenario.field, field_d_eh, [height]).results[1]
        with pytest.raises(ConfigurationError, match="does not match"):
            simulate_mission(scenario, planned)


@pytest.mark.parametrize(("side_m", "count"), [(100.0, 25), (400.0, 400)])
def test_mission_prices_every_stop_in_one_kernel_call(monkeypatch, side_m, count):
    # The groups partition the nodes, so the one call prices each node once.
    field = generate_nodes(side_m, side_m, 0.0, seed=1, count=count)
    scenario = full_scenario(field=field, eh_distance_m=13.0)
    planned = compare_strategies(field, 13.0, [scenario.height_m]).results[1]
    calls = count_link_budget_calls(monkeypatch)
    report = simulate_mission(scenario, planned)
    assert len(calls) == 1
    assert len(calls[0][2]) == len(report.nodes) == count


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
    # Each stop of the batched mission equals the public per-stop wake_up and
    # optimize_powering, and the report conserves time, energy and bits.
    scenario = make_scenario(
        points, eh_distance_m=eh_distance_m, latency_cap_s=latency_cap_s,
        payload_bits=payload_mbit * 1e6, wur_wake_threshold_dbm=wake_threshold_dbm,
    )
    report = simulate_mission(scenario)
    groups = form_wpc_groups(scenario.field, coverage_radius_m(scenario.height_m, eh_distance_m))
    assert sorted(g.group_id for g in report.groups) == list(range(len(groups)))
    assert [n.node_index for n in report.nodes] == list(range(len(points)))
    served = 0
    for outcome in report.groups:
        group = groups[outcome.group_id]
        members = sorted(group.member_indices)
        assert [n.node_index for n in report.nodes if n.group_id == outcome.group_id] == members
        assert (outcome.traversal_index, outcome.member_count) == (group.traversal_index, len(members))
        uav_xy = scenario.field.positions[group.traversal_index]
        activated = wake_up(scenario, uav_xy, group)
        assert outcome.activated_count == len(activated)
        try:
            solution = optimize_powering(scenario, uav_xy, activated) if activated else None
            diagnostic = "" if activated else "no nodes activated by the wake-up signal"
        except InfeasibilityError as exc:
            solution, diagnostic = None, str(exc)
        assert (outcome.feasible, outcome.diagnostic) == (not diagnostic, diagnostic)
        if solution is None:
            assert (outcome.powering_s, outcome.data_s, outcome.slots) == (0.0, 0.0, ())
            served_nodes = {}
        else:
            assert (outcome.powering_s, outcome.data_s, outcome.cost) == (
                solution.tau_s, solution.data_s, solution.cost
            )
            assert outcome.slots == solution.slots
            assert outcome.latency_s <= latency_cap_s
            served_nodes = {svc.node_index: svc for svc in solution.services}
            # tau is the slowest served node's transmit time, bit for bit.
            assert outcome.powering_s == max(
                report.nodes[index].tx_time_s for index in served_nodes
            )
        served += len(served_nodes)
        for index in members:
            node = report.nodes[index]
            node_xy = scenario.field.positions[index]
            ground = math.hypot(node_xy[0] - uav_xy[0], node_xy[1] - uav_xy[1])
            slant = math.hypot(scenario.height_m, ground)
            svc = served_nodes.get(index)
            if svc is None:
                assert node == NodeOutcome(index, outcome.group_id, slant, 0.0, 0.0, 0.0, 0.0)
                continue
            assert node == NodeOutcome(
                index, outcome.group_id, slant, svc.harvested_power_w * solution.tau_s,
                svc.harvested_power_w, svc.tx_time_s, scenario.payload_bits,
            )
            # tau >= tx_time and the node sends at its harvested power, so
            # the rounded products keep that order.
            assert node.harvested_energy_j >= node.tx_power_w * node.tx_time_s

    assert report.total_bits_delivered == payload_mbit * 1e6 * served
    assert report.service_time_s == sum(
        scenario.wake_duration_s + g.latency_s for g in report.groups
    )
    assert report.uav_energy_j == (
        report.wpt_energy_j + report.wur_energy_j + report.hover_energy_j + report.cruise_energy_j
    )
    assert report.wpt_energy_j == sum(scenario.wpt_power_w * g.powering_s for g in report.groups)
    assert report.wur_energy_j == sum(
        scenario.wur_power_w * scenario.wake_duration_s for _ in report.groups
    )
    assert report.hover_energy_j == scenario.hover_power_w * report.service_time_s
    assert report.cruise_energy_j == scenario.hover_power_w * report.flight_time_s


def test_scenario_validation():
    field = generate_nodes(100.0, 100.0, 0.25, seed=1)
    kwargs = dict(
        field=field,
        env=RadioEnvironment(400e6),
        array=AntennaArray.with_elements(32),
        circuit=EhCircuit.for_band(400e6),
    )
    with pytest.raises(ConfigurationError):
        MissionScenario(**kwargs, wpt_power_w=0.0)
    with pytest.raises(ConfigurationError):
        MissionScenario(**kwargs, cost_weight_energy=0.0, cost_weight_time=0.0)
    with pytest.raises(ConfigurationError):
        MissionScenario(**kwargs, latency_cap_s=0.0)
