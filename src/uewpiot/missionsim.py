"""Wake/power/transmit mission simulation along a planned tour.

The UAV flies a closed tour over traversal points. At each hover stop it
wakes the group with an omnidirectional wake-up signal, beams wireless
power for a duration tau, then collects each activated node's payload in
back-to-back TDMA slots.

Nodes are energy neutral: a node transmits at exactly the power it
harvests, so it needs powering for as long as its own slot lasts. tau is
therefore the slowest activated member's transmit time, and that node is
the binding one. A group whose tau plus data phase breaks the latency cap
is skipped. The joint energy-and-latency cost of each stop is reported,
not optimised: tau has no free variable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from . import linkbudget as lb
from . import planner
from .errors import ConfigurationError, InfeasibilityError, check_fields


# Mission constants: the cost weights and the UAV's draw and speed reach only
# the cost and the mission totals, which no config key sets.
COST_WEIGHT_ENERGY = 0.01  # per Joule
COST_WEIGHT_TIME = 1.0  # per second
HOVER_POWER_W = 150.0
CRUISE_SPEED_MPS = 10.0
WAKE_DURATION_S = 0.1


@dataclass(frozen=True)
class MissionScenario:
    """Full mission parameterization over one node field."""

    field: planner.NodeField
    env: lb.RadioEnvironment
    array: lb.AntennaArray
    circuit: lb.EhCircuit
    wpt_power_w: float = 10.0
    wur_power_w: float = 1.0
    wur_wake_threshold_dbm: float = -50.0
    payload_bits: float = 10e6
    bandwidth_hz: float = 15e6
    noise_figure_db: float = lb.CALIBRATED_NOISE_FIGURE_DB
    latency_cap_s: float = 30.0
    height_m: float = 10.0
    eh_distance_m: float | None = None  # None: derive from the link budget

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "wpt_power_w", "wur_power_w", "latency_cap_s")
        check_fields(self, ">= 0", "payload_bits", "height_m")
        if self.eh_distance_m is not None and not math.isfinite(self.eh_distance_m):
            raise ConfigurationError("eh_distance_m must be finite", "eh_distance_m")


@dataclass(frozen=True)
class TdmaSlot:
    node_index: int
    start_s: float  # offset from the start of the data phase
    duration_s: float


@dataclass(frozen=True)
class NodeService:
    """Link-budget snapshot for one activated node at its hover stop."""

    node_index: int
    slant_m: float
    harvested_power_w: float  # also its transmit power: the node is energy neutral
    rate_bps: float
    tx_time_s: float


@dataclass(frozen=True)
class PoweringSolution:
    """Powering duration, cost and TDMA slots of one group."""

    tau_s: float
    data_s: float
    cost: float
    slots: tuple[TdmaSlot, ...]
    services: tuple[NodeService, ...]


def _price(scenario: MissionScenario, stops) -> list[list[tuple]]:
    """Every (hover point, member) link of ``stops``, priced in one kernel call.

    ``stops`` holds (uav_xy, members) pairs. Per stop, the result holds one
    (node, slant, path loss, harvested dBm, rate) tuple per member, in the
    given member order. A slant is hypot(H, ground distance), computed as
    ``math.hypot`` twice; ``np.hypot`` can differ in the last bit.
    """
    nodes, hover = [], []
    for uav_xy, members in stops:
        nodes += members
        hover += [(float(uav_xy[0]), float(uav_xy[1]))] * len(members)
    height = scenario.height_m
    slants = [
        math.hypot(height, math.hypot(x - ux, y - uy))
        for (x, y), (ux, uy) in zip(scenario.field.positions[nodes].tolist(), hover)
    ]
    budget = lb.link_budget(
        scenario.env, height, slants, scenario.wpt_power_w, scenario.array,
        scenario.circuit, scenario.bandwidth_hz, scenario.noise_figure_db,
    )
    rest = zip(
        nodes, slants, budget.path_loss_db.tolist(), budget.harvested_dbm.tolist(),
        budget.rate_bps.tolist(),
    )
    return [list(islice(rest, len(members))) for _, members in stops]


def _woken(scenario: MissionScenario, links) -> list[tuple]:
    """The priced links whose received wake-up power (``link[2]`` is the path
    loss) meets the threshold."""
    wake_dbm = lb.watts_to_dbm(scenario.wur_power_w)
    return [link for link in links if wake_dbm - link[2] >= scenario.wur_wake_threshold_dbm]


def wake_up(scenario: MissionScenario, uav_xy, group: planner.WpcGroup) -> frozenset[int]:
    """Nodes whose received wake-up power meets the wake threshold.

    The wake-up radio is omnidirectional (no array gain); activation uses
    a >= comparison, so a node exactly at the threshold wakes.
    """
    (links,) = _price(scenario, [(uav_xy, sorted(group.member_indices))])
    return frozenset(link[0] for link in _woken(scenario, links))


def required_tx(payload_bits: float, rate_bps: float) -> float:
    """Transmit time of a payload: bits / rate, and 0 for an empty payload."""
    if payload_bits == 0:
        return 0.0
    if rate_bps <= 0:
        raise InfeasibilityError(
            f"cannot deliver {payload_bits} bits over a zero-rate link"
        )
    return payload_bits / rate_bps


def tdma_schedule(tx_times: dict[int, float]) -> tuple[TdmaSlot, ...]:
    """Back-to-back slots in ascending node-index order, starting at 0."""
    slots = []
    start = 0.0
    for index in sorted(tx_times):
        duration = tx_times[index]
        if duration < 0:
            raise ConfigurationError("slot durations must be >= 0")
        slots.append(TdmaSlot(index, start, duration))
        start += duration
    return tuple(slots)


def powering_cost(scenario: MissionScenario, tau_s: float, data_s: float) -> float:
    """Joint energy-and-latency cost of one hover stop.

    cost = w_E * (P_wpt * tau + P_hover * (tau + T_data))
         + w_T * (tau + T_data)
    """
    service = tau_s + data_s
    energy = scenario.wpt_power_w * tau_s + HOVER_POWER_W * service
    return COST_WEIGHT_ENERGY * energy + COST_WEIGHT_TIME * service


def optimize_powering(
    scenario: MissionScenario, uav_xy, activated
) -> PoweringSolution:
    """Powering duration, its cost, and the slot schedule for one group.

    Each node sends at the power it harvests, so harvesting for tau covers
    its own transmission exactly when tau >= its transmit time. tau is the
    slowest member's transmit time; ``powering_cost`` prices the stop at
    that tau. Raises when tau plus the data phase breaks the latency cap,
    naming the binding (lowest-index slowest) node.
    """
    members = sorted(activated)
    if not members:
        raise ConfigurationError("cannot optimize powering for an empty group")
    (links,) = _price(scenario, [(uav_xy, members)])
    return _powering(scenario, links)


def _powering(scenario: MissionScenario, links) -> PoweringSolution:
    """``optimize_powering`` over priced links of activated nodes, in
    ascending node order, so ``max`` picks the lowest-index slowest node.
    """
    services = tuple(
        NodeService(
            index, slant, lb.dbm_to_watts(harvested_dbm), rate,
            required_tx(scenario.payload_bits, rate),
        )
        for index, slant, _, harvested_dbm, rate in links
    )
    binding = max(services, key=lambda svc: svc.tx_time_s)
    tau = binding.tx_time_s
    data_s = sum(svc.tx_time_s for svc in services)

    if tau + data_s > scenario.latency_cap_s:
        raise InfeasibilityError(
            f"group latency {tau + data_s:.4f} s exceeds cap {scenario.latency_cap_s} s "
            f"(binding node {binding.node_index})"
        )

    return PoweringSolution(
        tau_s=tau,
        data_s=data_s,
        cost=powering_cost(scenario, tau, data_s),
        slots=tdma_schedule({svc.node_index: svc.tx_time_s for svc in services}),
        services=services,
    )


@dataclass(frozen=True)
class NodeOutcome:
    node_index: int
    group_id: int
    slant_m: float
    harvested_energy_j: float
    tx_power_w: float
    tx_time_s: float
    bits_delivered: float


@dataclass(frozen=True)
class GroupOutcome:
    group_id: int
    traversal_index: int
    member_count: int
    activated_count: int
    feasible: bool
    diagnostic: str
    slots: tuple[TdmaSlot, ...]
    powering_s: float
    data_s: float
    latency_s: float  # powering + data, the capped quantity
    supplied_energy_j: float  # radiated wake-up + powering energy
    cost: float


@dataclass(frozen=True)
class MissionReport:
    """Per-node, per-group, and whole-mission outcomes."""

    eh_distance_m: float
    coverage_radius_m: float
    tour: planner.TourPlan
    groups: tuple[GroupOutcome, ...]
    nodes: tuple[NodeOutcome, ...]
    flight_time_s: float
    service_time_s: float
    mission_time_s: float
    wpt_energy_j: float
    wur_energy_j: float
    hover_energy_j: float
    cruise_energy_j: float
    uav_energy_j: float

    @property
    def total_bits_delivered(self) -> float:
        return sum(node.bits_delivered for node in self.nodes)


def resolve_eh_distance_m(scenario: MissionScenario) -> float:
    """The scenario's EH distance d_EH: the explicit value when given,
    else the link-budget range at the hover height.
    """
    if scenario.eh_distance_m is not None:
        return scenario.eh_distance_m
    eh_distance = lb.achievable_eh_distance_m(
        scenario.wpt_power_w,
        scenario.array,
        scenario.circuit,
        scenario.env,
        scenario.height_m,
    )
    if eh_distance is None:
        raise InfeasibilityError(
            "harvester threshold is unreachable even directly overhead "
            f"at height {scenario.height_m} m; set eh_distance_m (plan.d_eh_m) explicitly"
        )
    return eh_distance


def _group_outcome(
    scenario: MissionScenario,
    group_id: int,
    group: planner.WpcGroup,
    activated_count: int,
    solution: PoweringSolution,
    diagnostic: str,
) -> GroupOutcome:
    """Outcome of one hover stop; an empty diagnostic marks a served group."""
    return GroupOutcome(
        group_id=group_id,
        traversal_index=group.traversal_index,
        member_count=len(group.member_indices),
        activated_count=activated_count,
        feasible=not diagnostic,
        diagnostic=diagnostic,
        slots=solution.slots,
        powering_s=solution.tau_s,
        data_s=solution.data_s,
        latency_s=solution.tau_s + solution.data_s,
        supplied_energy_j=scenario.wur_power_w * WAKE_DURATION_S
        + scenario.wpt_power_w * solution.tau_s,
        cost=solution.cost,
    )


def simulate_mission(
    scenario: MissionScenario, planned: planner.StrategyResult | None = None
) -> MissionReport:
    """Run the full wake/power/transmit mission over the scenario's field.

    Groups whose latency requirement cannot be met are skipped with a
    diagnostic (their wake attempt still costs time and energy) and their
    nodes deliver nothing; the mission continues. Deterministic given the
    scenario.

    ``planned``, a strategy already planned on this field (for instance by
    ``planner.compare_strategies``), gives the groups and tour to fly; it
    must be for the scenario's height and coverage radius. Without it the
    mission plans one with ``planner.plan_strategy`` and a heuristic tour.
    """
    eh_distance = resolve_eh_distance_m(scenario)
    radius = planner.coverage_radius_m(scenario.height_m, eh_distance)
    if planned is None:
        planned = planner.plan_strategy(scenario.field, eh_distance, scenario.height_m)
    elif (planned.height_m, planned.radius_m) != (scenario.height_m, radius):
        raise ConfigurationError(
            f"planned strategy {planned.name} does not match height {scenario.height_m} m "
            f"and radius {radius} m"
        )
    groups, tour = planned.groups, planned.plan
    visit_order = tour.visit_order

    # A skipped group spends only its wake-up phase and serves no node.
    skipped = PoweringSolution(0.0, 0.0, 0.0, (), ())
    # Group ids are the planner's formation indices; the outcome list is in
    # tour visit order. One kernel call prices every stop's members.
    stops = [groups[group_id] for group_id in visit_order]
    priced = _price(scenario, [
        (scenario.field.positions[g.traversal_index], sorted(g.member_indices)) for g in stops
    ])
    node_outcomes: dict[int, NodeOutcome] = {}
    group_outcomes = []
    for group_id, group, links in zip(visit_order, stops, priced):
        activated = _woken(scenario, links)
        solution, diagnostic = skipped, "no nodes activated by the wake-up signal"
        if activated:
            try:
                solution, diagnostic = _powering(scenario, activated), ""
            except InfeasibilityError as exc:
                diagnostic = str(exc)
        group_outcomes.append(
            _group_outcome(scenario, group_id, group, len(activated), solution, diagnostic)
        )
        for svc in solution.services:
            node_outcomes[svc.node_index] = NodeOutcome(
                node_index=svc.node_index,
                group_id=group_id,
                slant_m=svc.slant_m,
                harvested_energy_j=svc.harvested_power_w * solution.tau_s,
                tx_power_w=svc.harvested_power_w,
                tx_time_s=svc.tx_time_s,
                bits_delivered=scenario.payload_bits,
            )
        for index, slant, *_ in links:
            if index not in node_outcomes:
                node_outcomes[index] = NodeOutcome(index, group_id, slant, 0.0, 0.0, 0.0, 0.0)

    flight_time = tour.length_m / CRUISE_SPEED_MPS
    service_time = sum(WAKE_DURATION_S + g.latency_s for g in group_outcomes)
    wpt_energy = sum(scenario.wpt_power_w * g.powering_s for g in group_outcomes)
    wur_energy = sum(scenario.wur_power_w * WAKE_DURATION_S for _ in group_outcomes)
    hover_energy = HOVER_POWER_W * service_time
    cruise_energy = HOVER_POWER_W * flight_time  # same propulsion draw en route

    return MissionReport(
        eh_distance_m=eh_distance,
        coverage_radius_m=radius,
        tour=tour,
        groups=tuple(group_outcomes),
        nodes=tuple(node_outcomes[i] for i in sorted(node_outcomes)),
        flight_time_s=flight_time,
        service_time_s=service_time,
        mission_time_s=flight_time + service_time,
        wpt_energy_j=wpt_energy,
        wur_energy_j=wur_energy,
        hover_energy_j=hover_energy,
        cruise_energy_j=cruise_energy,
        uav_energy_j=wpt_energy + wur_energy + hover_energy + cruise_energy,
    )
