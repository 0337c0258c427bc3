"""UAV-powered IoT toolkit: link budgets, tour planning, mission simulation."""

from .errors import (
    CapabilityError,
    ConfigurationError,
    GeometryError,
    InfeasibilityError,
    UewpiotError,
)
from .linkbudget import (
    AntennaArray,
    EhCircuit,
    LinkBudget,
    RadioEnvironment,
    achievable_eh_distance_m,
    array_gain_db,
    free_space_path_loss_db,
    link_budget,
    noise_power_dbm,
    upa_physical_size_m,
    wavelength_m,
)
from .missionsim import (
    MissionReport,
    MissionScenario,
    optimize_powering,
    required_tx,
    simulate_mission,
    tdma_schedule,
    wake_up,
)
from .planner import (
    NodeField,
    StrategyComparison,
    TourPlan,
    WpcGroup,
    compare_strategies,
    coverage_radius_m,
    form_wpc_groups,
    generate_nodes,
    plan_tour,
    tour_length_m,
)

__version__ = "0.1.0"
