"""Job search with expiring, discretionarily extendable UI benefits.

The package solves reservation-wage schedules for a sequential-search
worker whose unemployment benefits expire and may be extended once,
evaluates misperceived-belief policies exactly, and simulates spells
reproducibly at scale.
"""

from .closedform import expected_welfare_at_offer, uniform_closed_form
from .distributions import UniformOffers
from .errors import (ConfigError, DivergenceError, InfeasibleError,
                     NonConvergenceError)
from .evaluate import build_policy, evaluate_policy, welfare_loss
from .experiments import (SweepRow, calibrate_z, default_calibration,
                          sweep_beliefs)
from .montecarlo import CounterStream, simulate_many, simulate_spell
from .params import ExtensionSpec, MarketParams
from .schedule import (ReservationSchedule, reservation_identity_residual,
                       solve_schedules, solve_w0_basic, solve_w0_extension)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CounterStream",
    "DivergenceError",
    "ExtensionSpec",
    "InfeasibleError",
    "MarketParams",
    "NonConvergenceError",
    "ReservationSchedule",
    "SweepRow",
    "UniformOffers",
    "build_policy",
    "calibrate_z",
    "default_calibration",
    "evaluate_policy",
    "expected_welfare_at_offer",
    "reservation_identity_residual",
    "simulate_many",
    "simulate_spell",
    "solve_schedules",
    "solve_w0_basic",
    "solve_w0_extension",
    "sweep_beliefs",
    "uniform_closed_form",
    "welfare_loss",
]
