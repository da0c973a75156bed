"""Job search with expiring, discretionarily extendable UI benefits.

The package solves reservation-wage schedules for a sequential-search
worker whose unemployment benefits expire and may be extended once,
evaluates misperceived-belief policies exactly, and simulates spells
reproducibly at scale.

The exact path (solving, evaluation, sweeps and calibration) and the
closed-form oracle run on Python floats and never import numpy. The
Monte Carlo names (``CounterStream``, ``simulate_many``,
``simulate_spell``) need numpy, so their module loads on first access to
one of them. The oracle's names (``uniform_closed_form``,
``expected_welfare_at_offer``) load their module on first access too,
only so that CLI start-up does not compile it.
"""

import importlib

from .distributions import UniformOffers
from .errors import (ConfigError, DivergenceError, InfeasibleError,
                     NonConvergenceError)
from .evaluate import build_policy, evaluate_policy, welfare_loss
from .experiments import (SweepRow, calibrate_z, default_calibration,
                          sweep_beliefs)
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

# The module of each name loaded on demand (PEP 562).
_ON_DEMAND = {"CounterStream": "montecarlo", "simulate_many": "montecarlo",
              "simulate_spell": "montecarlo", "uniform_closed_form": "closedform",
              "expected_welfare_at_offer": "closedform"}


def __getattr__(name):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_ON_DEMAND[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_ON_DEMAND})
