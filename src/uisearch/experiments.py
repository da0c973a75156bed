"""Calibration and belief-misperception sweeps.

The headline experiment fixes a true extension process, lets the worker
hold a wrong belief about either the probability or the length of the
extension, and measures the welfare lost to the resulting suboptimal
acceptance decisions, together with how spell duration and the accepted
wage shift. Exact evaluation is the default; Monte Carlo mode exists to
demonstrate agreement.
"""

import math
from dataclasses import dataclass

from .distributions import UniformOffers
from .errors import InfeasibleError
from .evaluate import build_policies, evaluate_beliefs, loss_pct
from .params import (DEFAULT_MAX_PERIODS, DEFAULT_SEED, DEFAULT_SPELLS,
                     ExtensionSpec, MarketParams)
from .schedule import check_solvable, upsilon

DELTA_GRID_DEFAULT = tuple(round(0.10 + 0.05 * k, 2) for k in range(17))
LENGTH_GRID_DEFAULT = tuple(range(5, 46, 5))


@dataclass(frozen=True)
class Calibration:
    """A fully pinned-down experiment environment. ``z_full`` is derived
    as ``z + c``, so it cannot disagree with ``params``;
    ``target_duration`` is NaN when no duration was calibrated to."""

    params: MarketParams
    dist: UniformOffers
    truth: ExtensionSpec
    target_duration: float

    @property
    def z_full(self) -> float:
        return self.params.z + self.params.c


def calibrate_z(target_duration, beta, dist: UniformOffers) -> float:
    """Nonwork flow that yields a target expected unemployment duration.

    With no benefits and no extension the threshold ``w0`` is constant,
    so the duration ``1 / (1 - F(w0))`` fixes ``w0 = F^{-1}(1 - 1 / D)``,
    and the fixed point ``w0 = flow (1 - beta) + beta * upsilon(w0)``
    gives the flow in closed form. A target is infeasible when it is not
    finite and above 1, when ``w0`` rounds to an end of the support, or
    when the flow is not positive or fails ``check_solvable``. ``beta``
    must lie in (0, 1).
    """
    if not 1.0 < target_duration < math.inf:
        raise InfeasibleError("duration target must be finite and exceed 1")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1) to solve a fixed point")
    w0 = dist.quantile(1.0 - 1.0 / target_duration)
    if not dist.low < w0 < dist.high:
        raise InfeasibleError(f"target duration {target_duration} puts the "
                              f"threshold at the edge of the support, {w0}")
    flow = (w0 - beta * upsilon(dist, w0)) / (1.0 - beta)
    if not flow > 0.0:
        raise InfeasibleError(
            f"target duration {target_duration} implies a nonpositive flow value")
    try:
        check_solvable(dist, beta, flow)
    except ValueError as exc:
        raise InfeasibleError(f"target duration {target_duration} implies the "
                              f"flow value {flow}: {exc}") from exc
    return flow


def default_calibration(truth=ExtensionSpec(delta=0.5, length=25),
                        dist=UniformOffers()) -> Calibration:
    """Benchmark environment: beta 0.95 and N = 10, with the nonwork flow
    calibrated to an expected duration of 10 and split half-and-half
    between leisure value and compensation. The halves are exact, so
    ``z_full`` is the calibrated flow bit for bit."""
    half = 0.5 * calibrate_z(10.0, 0.95, dist)
    params = MarketParams(beta=0.95, z=half, c=half, n_periods=10)
    return Calibration(params=params, dist=dist, truth=truth, target_duration=10.0)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a misperception sweep.

    ``truncated_count`` counts the spells truncated at ``max_periods`` in
    the two Monte Carlo runs the row compares, its belief's and the
    baseline's; it is always 0 in exact mode.
    """

    varied_param: str
    belief_value: float
    misperception: float
    loss_pct: float
    duration_ratio: float
    wage_gap_pct: float
    truncated_count: int


def sweep_beliefs(cal: Calibration, vary="delta", grid=None, mode="exact",
                  seed=DEFAULT_SEED, spells=DEFAULT_SPELLS,
                  max_periods=DEFAULT_MAX_PERIODS, n_workers=1) -> list[SweepRow]:
    """Evaluate a grid of misperceived beliefs against the truth.

    ``vary`` is ``"delta"`` or ``"len"``; the other belief parameter is
    pinned to its true value. Exact mode uses the closed recursions; mc
    mode simulates every grid point (and the baseline) with the same
    master seed, so common random numbers cancel out of the
    comparisons. Rows come back in grid order. Grid points run one
    after another; ``n_workers`` sets the worker processes of each
    ``simulate_many`` call in mc mode and does nothing in exact mode.
    """
    if vary not in ("delta", "len"):
        raise ValueError("vary must be 'delta' or 'len'")
    if mode not in ("exact", "mc"):
        raise ValueError("mode must be 'exact' or 'mc'")
    if grid is None:
        grid = DELTA_GRID_DEFAULT if vary == "delta" else LENGTH_GRID_DEFAULT

    params, dist, truth = cal.params, cal.dist, cal.truth
    if vary == "delta":
        beliefs = [ExtensionSpec(delta=float(v), length=truth.length) for v in grid]
    else:
        beliefs = [ExtensionSpec(delta=truth.delta, length=int(v)) for v in grid]
    if mode == "exact":
        stats = [(ev.welfare, ev.duration, ev.accepted_wage, 0)
                 for ev in evaluate_beliefs([truth, *beliefs], truth, params, dist)]
    else:
        from .montecarlo import simulate_many
        runs = [simulate_many(p, truth, params, dist, spells, seed,
                              max_periods=max_periods, n_workers=n_workers)
                for p in build_policies(dist, params, [truth, *beliefs], truth.length)]
        stats = [(r.welfare_mean, r.duration_mean, r.wage_mean, r.truncated_count)
                 for r in runs]
    (base_welfare, base_duration, base_wage, base_truncated), *stats = stats

    rows = []
    for value, (welfare, dur, wage, truncated) in zip(grid, stats):
        true_value = truth.delta if vary == "delta" else truth.length
        rows.append(SweepRow(
            varied_param=vary,
            belief_value=float(value),
            misperception=float(value) - true_value,
            loss_pct=loss_pct(base_welfare, welfare),
            duration_ratio=dur / base_duration,
            wage_gap_pct=100.0 * (wage - base_wage) / base_wage,
            truncated_count=base_truncated + truncated,
        ))
    return rows
