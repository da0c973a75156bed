"""Job search with expiring, discretionarily extendable UI benefits.

The package solves reservation-wage schedules for a sequential-search
worker whose unemployment benefits expire and may be extended once,
evaluates misperceived-belief policies exactly, and simulates spells
reproducibly at scale.
"""

from .closedform import (expected_welfare_at_offer, uniform_closed_form,
                         w0_basic_closed_form, w0_extension_closed_form)
from .config import RunConfig, parse_config
from .distributions import (OfferDistribution, UniformOffers,
                            validate_assumptions)
from .errors import (ConfigError, DivergenceError, InfeasibleError,
                     NonConvergenceError)
from .evaluate import (PolicyEvaluation, PolicyProfile, build_policy,
                       evaluate_policy, welfare_loss)
from .experiments import (Calibration, SweepRow, calibrate_z,
                          default_calibration, sweep_beliefs)
from .montecarlo import (CounterStream, SimulationSummary, SpellRecord,
                         simulate_block, simulate_many, simulate_spell)
from .params import ExtensionSpec, MarketParams
from .schedule import (ReservationSchedule, build_basic_schedule,
                       build_extension_schedule,
                       reservation_identity_residual, solve_schedules,
                       solve_w0_basic, solve_w0_extension, upsilon)

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "ConfigError",
    "CounterStream",
    "DivergenceError",
    "ExtensionSpec",
    "InfeasibleError",
    "MarketParams",
    "NonConvergenceError",
    "OfferDistribution",
    "PolicyEvaluation",
    "PolicyProfile",
    "ReservationSchedule",
    "RunConfig",
    "SimulationSummary",
    "SpellRecord",
    "SweepRow",
    "UniformOffers",
    "build_basic_schedule",
    "build_extension_schedule",
    "build_policy",
    "calibrate_z",
    "default_calibration",
    "evaluate_policy",
    "expected_welfare_at_offer",
    "parse_config",
    "reservation_identity_residual",
    "simulate_block",
    "simulate_many",
    "simulate_spell",
    "solve_schedules",
    "solve_w0_basic",
    "solve_w0_extension",
    "sweep_beliefs",
    "uniform_closed_form",
    "upsilon",
    "validate_assumptions",
    "w0_basic_closed_form",
    "w0_extension_closed_form",
    "welfare_loss",
]
