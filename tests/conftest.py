from dataclasses import astuple

import numpy as np
import pytest

from uisearch import ExtensionSpec, MarketParams, UniformOffers


@pytest.fixture(scope="session")
def uniform():
    return UniformOffers()


@pytest.fixture(scope="session")
def fig3_params():
    """Parameters behind the schedule-shape illustration."""
    return MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=10)


@pytest.fixture(scope="session")
def benchmark_params():
    """Duration-10 benchmark: nonwork value 0.805 split half-and-half."""
    return MarketParams(beta=0.95, z=0.4025, c=0.4025, n_periods=10)


@pytest.fixture(scope="session")
def benchmark_truth():
    return ExtensionSpec(delta=0.5, length=25)


# Config fields parse_config accepts whose float rounding reaches the
# edges of the model. Here z + c is one ulp below the top of the support,
# an uncapped step of the basic recursion rounds one ulp past the top,
# and the zero-entitlement thresholds land 1-2 ulps below it. There the
# tails hi**2 - x**2 keep no correct digit, the expected accepted wage
# comes out above the support, and evaluate_policy raises DivergenceError
# for every belief, although the exact value lies inside it.
FLOW_AN_ULP_BELOW_TOP = {
    "beta": 0.3644547477637597, "z": 0.3644547477637596,
    "c": 5.551115123125783e-17, "N": 0,
    "delta_true": 0.0, "len_true": 1, "delta_belief": 0.0, "len_belief": 9,
    "distribution": {"type": "uniform", "low": 0.3019547477637597,
                     "high": 0.3644547477637597},
}
# Here the post-extension threshold at zero entitlement lies 2 ulps below
# the top of [-5, 1], where its CDF (x + 5) / 6 rounds to 1. Its
# acceptance probability comes from the survival function (1 - x) / 6
# instead, so the evaluation stays within an ulp of exact.
ROUNDED_TO_CERTAIN_REJECTION = {
    "beta": 0.001, "z": 0.9999999999999998, "c": 1.1102230246251565e-16,
    "N": 1, "delta_true": 0.5, "len_true": 2, "delta_belief": 0.5, "len_belief": 2,
    "distribution": {"type": "uniform", "low": -5.0, "high": 1.0},
}

# Here every threshold lies a few ulps below the top of [-5, 1], and the
# acceptance probabilities and tails are near 1e-16. 1 - cdf(x) would
# carry the expected accepted wage to 0.8333 and the duration to 2**53;
# from the survival function both stay within 2 ulps of exact.
ACCEPTED_WAGE_LEAVES_SUPPORT = {
    "beta": 0.5, "z": 0.9999999999999996, "c": 3.3306690738754696e-16,
    "N": 2, "delta_true": 0.5, "len_true": 2, "delta_belief": 0.5, "len_belief": 2,
    "distribution": {"type": "uniform", "low": -5.0, "high": 1.0},
}


def summary_bits(summary):
    """A ``SimulationSummary`` with each float as ``float.hex``, so that
    equality is equality bit for bit."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(summary))


def random_valid_params(rng: np.random.Generator):
    """Draw parameters satisfying every solver assumption (uniform offers).

    Ranges also keep the schedule's analytic increments above float64
    resolution over the tested horizons: increments shrink like
    ``(beta * F)^n``, and once they fall below machine epsilon strict
    inequality of stored values is not decidable.
    """
    beta = rng.uniform(0.85, 0.99)
    z = rng.uniform(0.1, 0.6)
    c = rng.uniform(0.05, min(0.95 - z, 0.5))
    n_periods = int(rng.integers(1, 13))
    return MarketParams(beta=beta, z=z, c=c, n_periods=n_periods)


def random_belief(rng: np.random.Generator):
    return ExtensionSpec(delta=float(rng.uniform(0.0, 1.0)),
                         length=int(rng.integers(1, 21)))


def assert_dominance(dist, params, belief, schedule):
    """Post-extension wages dominate pre-extension wages at shifted states.

    The gap contracts each step with modulus ``beta (1 - delta) F``, so
    for beliefs near certainty it falls below float64 resolution at deep
    entitlements (at certainty the two sequences coincide exactly).
    Strictness is asserted wherever the analytic lower bound on the gap
    is comfortably representable; float ties are tolerated below that.
    """
    states = np.arange(params.n_periods + 1) + belief.length
    gaps = schedule.basic[states] - schedule.with_extension
    assert gaps[0] > 0.0
    modulus = (params.beta * (1.0 - belief.delta)
               * dist.cdf(schedule.with_extension[0]))
    floor = gaps[0] * modulus ** np.arange(params.n_periods + 1)
    assert np.all(gaps[floor > 1e-10] > 0.0)
    assert np.all(gaps > -1e-10)
