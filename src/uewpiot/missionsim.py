"""Wake/power/transmit mission simulation along a planned tour.

The UAV flies a closed tour over traversal points. At each hover stop it
wakes the group with an omnidirectional wake-up signal, beams wireless
power for a duration tau, then collects each activated node's payload in
back-to-back TDMA slots.

Nodes are energy neutral: a node transmits at exactly the power it
harvests, so it needs powering for as long as its own slot lasts. tau is
therefore the slowest activated member's transmit time, and that node is
the binding one. A group whose tau plus data phase breaks the latency cap
is skipped. ``powering_cost`` prices a stop's energy and latency jointly;
it is not optimised, since tau has no free variable.

``simulate_mission`` runs every stop in one pass: one kernel call prices
every member link, and the report holds one outcome per stop and per-node
columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not math.isfinite(self.wur_wake_threshold_dbm):
            raise ConfigurationError("wur_wake_threshold_dbm must be finite",
                                     "wur_wake_threshold_dbm")
        if self.eh_distance_m is not None and not (
                -math.inf < self.eh_distance_m <= planner.MAX_COORDINATE_M):
            raise ConfigurationError(
                f"eh_distance_m must be finite and at most {planner.MAX_COORDINATE_M:g} m, "
                f"got {self.eh_distance_m:g}", "eh_distance_m")


def powering_cost(scenario: MissionScenario, tau_s: float, data_s: float) -> float:
    """Joint energy-and-latency cost of one hover stop.

    cost = w_E * (P_wpt * tau + P_hover * (tau + T_data))
         + w_T * (tau + T_data)
    """
    service = tau_s + data_s
    energy = scenario.wpt_power_w * tau_s + HOVER_POWER_W * service
    return COST_WEIGHT_ENERGY * energy + COST_WEIGHT_TIME * service


@dataclass(frozen=True)
class GroupOutcome:
    """One hover stop; an empty diagnostic marks a served group."""

    group_id: int
    traversal_index: int
    member_count: int
    activated_count: int
    diagnostic: str
    powering_s: float  # tau
    data_s: float

    @property
    def feasible(self) -> bool:
        return not self.diagnostic

    @property
    def latency_s(self) -> float:
        """Powering plus data phase: the capped quantity."""
        return self.powering_s + self.data_s


# The per-node outcome columns; a node its stop does not serve has zeros past slant_m.
NODE_COLUMNS = ("group_id", "slant_m", "harvested_energy_j", "tx_power_w", "tx_time_s",
                "bits_delivered")


@dataclass(frozen=True)
class MissionReport:
    """Per-node, per-group, and whole-mission outcomes."""

    eh_distance_m: float
    coverage_radius_m: float
    tour: planner.TourPlan
    groups: tuple[GroupOutcome, ...]  # in visit order
    nodes: dict[str, np.ndarray]  # NODE_COLUMNS, each in node order
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
        return sum(self.nodes["bits_delivered"].tolist())


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


def _price(scenario: MissionScenario, groups: planner.Groups, visit_order: list[int]):
    """Every node, priced from its group's hover point in one kernel call: the nodes
    stop by stop in ``visit_order``, ascending within a stop, their slants and their
    link budget. A slant is hypot(H, ground distance), computed as ``math.hypot``
    twice; ``np.hypot`` can differ in the last bit.
    """
    positions = scenario.field.positions
    nodes = np.argsort(np.argsort(visit_order)[groups.group_of], kind="stable")  # by stop rank
    hover = positions[groups.traversal[groups.group_of[nodes]]]
    height = scenario.height_m
    slants = [
        math.hypot(height, math.hypot(x - ux, y - uy))
        for (x, y), (ux, uy) in zip(positions[nodes].tolist(), hover.tolist())
    ]
    return nodes.tolist(), slants, lb.link_budget(
        scenario.env, height, slants, scenario.wpt_power_w, scenario.array,
        scenario.circuit, scenario.bandwidth_hz, scenario.noise_figure_db,
    )


def simulate_mission(
    scenario: MissionScenario, planned: planner.StrategyResult | None = None
) -> MissionReport:
    """Run the full wake/power/transmit mission over the scenario's field.

    At each stop, a member wakes when its received wake-up power meets the
    threshold (``>=``; the wake-up radio has no array gain). A woken member
    needs bits / rate to send its payload, and tau is the slowest one's
    time. A stop whose tau plus data phase breaks the latency cap is
    skipped, naming the binding (lowest-index slowest) node; so is a stop
    that wakes no node, or one with a woken node on a zero-rate link. A
    skipped stop spends only its wake-up phase and serves no node; the
    mission continues. Deterministic given the scenario.

    ``planned``, a strategy already planned on this field (for instance by
    ``planner.compare_strategies``), gives the groups and tour to fly; it
    must be for the scenario's height and coverage radius, tour every
    group, and group each node once. Without it the mission plans one with
    ``planner.plan_strategy`` and a heuristic tour.
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
    elif planned.plan.point_count != len(planned.groups):
        raise ConfigurationError(
            f"planned strategy {planned.name} has {planned.plan.point_count} tour stops "
            f"for {len(planned.groups)} groups"
        )
    elif len(planned.groups.group_of) != scenario.field.node_count:
        raise ConfigurationError(f"planned strategy {planned.name} must group each node once")
    tour, groups, visit_order = planned.plan, planned.groups, list(planned.plan.visit_order)
    payload, cap = scenario.payload_bits, scenario.latency_cap_s

    # Group ids are the planner's pick indices; stops are in visit order.
    sizes = np.bincount(groups.group_of, minlength=len(groups))[visit_order].tolist()
    nodes, slants, budget = _price(scenario, groups, visit_order)
    wake_dbm = lb.watts_to_dbm(scenario.wur_power_w)
    woken = wake_dbm - budget.path_loss_db >= scenario.wur_wake_threshold_dbm
    tx = np.zeros(len(nodes))  # an empty payload needs no link
    if payload:
        with np.errstate(divide="ignore", over="ignore"):  # inf, as Python's float division
            tx = np.where(woken, payload / budget.rate_bps, 0.0)
    tx_times, woken_list = tx.tolist(), woken.tolist()
    no_rate = (woken & (budget.rate_bps <= 0)).tolist()

    group_outcomes, hi, traversal = [], 0, groups.traversal.tolist()
    for group_id, size in zip(visit_order, sizes):
        lo, hi = hi, hi + size
        members = tx_times[lo:hi]
        # An unwoken member's 0.0 changes neither the maximum nor the sum.
        tau, data_s, activated = max(members), sum(members), sum(woken_list[lo:hi])
        if not activated:
            diagnostic = "no nodes activated by the wake-up signal"
        elif payload and any(no_rate[lo:hi]):
            diagnostic = f"cannot deliver {payload} bits over a zero-rate link"
        elif tau + data_s > cap:  # so tau > 0, and no unwoken 0.0 is the binding node
            diagnostic = (f"group latency {tau + data_s:.4f} s exceeds cap {cap} s "
                          f"(binding node {nodes[lo + members.index(tau)]})")
        else:
            diagnostic = ""
        if diagnostic:
            tau = data_s = 0.0
        group_outcomes.append(GroupOutcome(group_id, traversal[group_id], size, activated,
                                           diagnostic, tau, data_s))

    served = woken & np.repeat([g.feasible for g in group_outcomes], sizes)
    tx_power = np.array([  # the node sends at the power it harvests
        lb.dbm_to_watts(harvested) if up else 0.0
        for harvested, up in zip(budget.harvested_dbm.tolist(), served.tolist())
    ])
    taus = np.repeat([g.powering_s for g in group_outcomes], sizes)
    links = (groups.group_of[nodes], np.array(slants), tx_power * taus, tx_power,
             np.where(served, tx, 0.0), np.where(served, payload, 0.0))
    order = np.argsort(nodes)

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
        nodes={name: column[order] for name, column in zip(NODE_COLUMNS, links)},
        flight_time_s=flight_time,
        service_time_s=service_time,
        mission_time_s=flight_time + service_time,
        wpt_energy_j=wpt_energy,
        wur_energy_j=wur_energy,
        hover_energy_j=hover_energy,
        cruise_energy_j=cruise_energy,
        uav_energy_j=wpt_energy + wur_energy + hover_energy + cruise_energy,
    )
