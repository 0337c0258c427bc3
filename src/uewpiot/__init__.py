"""UAV-powered IoT toolkit: link budgets, tour planning, mission simulation."""

import os as _os
import sys as _sys

# No uewpiot call is served by a BLAS thread pool, and starting one is a third
# of import time. OpenBLAS reads the variable once, at load; a caller's choice,
# or a numpy already loaded, is left alone, and the environment is restored.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import ConfigurationError, InfeasibilityError, UewpiotError
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
    powering_cost,
    simulate_mission,
)
from .planner import (
    NodeField,
    TourPlan,
    WpcGroup,
    compare_strategies,
    coverage_radius_m,
    form_wpc_groups,
    generate_nodes,
    plan_strategy,
    plan_tour,
)

__version__ = "0.1.0"
