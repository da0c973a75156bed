"""An exact-rational oracle for the evaluator.

Given float thresholds under uniform offers, every quantity
``evaluate_policy`` computes is a rational function of its inputs.
``exact_evaluation`` repeats its recursions in ``fractions.Fraction``
from the same thresholds, with the CDF and the partial expectation of
its own, so the two differ only by the evaluator's rounding.
"""

import math
from fractions import Fraction

import pytest

from uisearch import (DivergenceError, ExtensionSpec, MarketParams, UniformOffers,
                      build_policy, default_calibration, evaluate_policy,
                      sweep_beliefs)
from uisearch.experiments import DELTA_GRID_DEFAULT, LENGTH_GRID_DEFAULT

from conftest import (ACCEPTED_WAGE_LEAVES_SUPPORT, FLOW_AN_ULP_BELOW_TOP,
                      ROUNDED_TO_CERTAIN_REJECTION)


def exact_evaluation(policy, truth, params, dist):
    """Welfare, duration and accepted wage of ``policy`` under ``truth``
    as exact rationals, with ``dist`` uniform on [low, high]."""
    lo, hi = Fraction(dist.low), Fraction(dist.high)
    beta, z, c = Fraction(params.beta), Fraction(params.z), Fraction(params.c)
    delta, length = Fraction(truth.delta), truth.length

    def reject(x):  # F(x) for a threshold inside the support
        return (Fraction(x) - lo) / (hi - lo)

    def tail(x):  # the integral of w dF(w) over [x, high]
        return (hi * hi - Fraction(x) ** 2) / (2 * (hi - lo))

    post = [(reject(x), tail(x), Fraction(x)) for x in policy.post_thresholds]
    option = [(x * f + t) / (1 - beta) for f, t, x in post]
    f, t, _ = post[0]
    durations, wages = [1 / (1 - f)], [t / (1 - f)]
    for f, t, _ in post[1:]:
        durations.append(1 + f * durations[-1])
        wages.append(t + f * wages[-1])

    f, t = reject(policy.pre_thresholds[0]), tail(policy.pre_thresholds[0])
    stuck = 1 - (1 - delta) * f
    value = (z + beta * delta * option[length]
             + beta * (1 - delta) * t / (1 - beta)) / (1 - beta * (1 - delta) * f)
    duration = (delta * durations[length] + 1 - delta) / stuck
    wage = (delta * wages[length] + (1 - delta) * t) / stuck
    for n in range(1, params.n_periods + 1):
        m = n - 1 + length
        f, t = reject(policy.pre_thresholds[n - 1]), tail(policy.pre_thresholds[n - 1])
        value = z + c + beta * (delta * option[m] + (1 - delta) * (f * value + t / (1 - beta)))
        duration = delta * durations[m] + (1 - delta) * (1 + f * duration)
        wage = delta * wages[m] + (1 - delta) * (t + f * wage)
    return value, duration, wage


CAL = default_calibration()
DEFAULT_SWEEP_CASES = (
    [(f"delta-grid-{delta}", ExtensionSpec(delta, CAL.truth.length))
     for delta in DELTA_GRID_DEFAULT]
    + [(f"len-grid-{n}", ExtensionSpec(CAL.truth.delta, n)) for n in LENGTH_GRID_DEFAULT])

def setting(fields, delta_belief=None):
    """(params, dist, truth, belief) of a config dict; ``delta_belief``
    overrides the config's own."""
    return (MarketParams(beta=fields["beta"], z=fields["z"], c=fields["c"],
                         n_periods=fields["N"]),
            UniformOffers(fields["distribution"]["low"], fields["distribution"]["high"]),
            ExtensionSpec(fields["delta_true"], fields["len_true"]),
            ExtensionSpec(fields["delta_belief"] if delta_belief is None else delta_belief,
                          fields["len_belief"]))


# Near the top of the support the partial expectation's hi**2 - x**2
# cancels, so with thresholds 1-2 ulps below the top the tails, and the
# accepted wage they average, carry no correct digit (ROADMAP item 8's
# tails without cancellation).
TAILS_CANCEL = pytest.mark.xfail(
    strict=True, raises=DivergenceError,
    reason="accepted wage comes out above the support where the exact value is "
           "0.36445474776375963: hi**2 - x**2 cancels in the tails (ROADMAP item 8)")

CASES = [pytest.param(CAL.params, CAL.dist, CAL.truth, belief, id=name)
         for name, belief in DEFAULT_SWEEP_CASES] + [
    # thresholds a few ulps below the top of [-5, 1]: the acceptance
    # probabilities, near 1e-16, come from the survival function
    pytest.param(*setting(ROUNDED_TO_CERTAIN_REJECTION),
                 id="rounded_to_certain_rejection"),
    pytest.param(*setting(ACCEPTED_WAGE_LEAVES_SUPPORT),
                 id="accepted_wage_leaves_support"),
    pytest.param(*setting(FLOW_AN_ULP_BELOW_TOP, 0.5),
                 id="flow_an_ulp_below_top-delta0.5", marks=TAILS_CANCEL),
    pytest.param(*setting(FLOW_AN_ULP_BELOW_TOP, 0.2),
                 id="flow_an_ulp_below_top-delta0.2", marks=TAILS_CANCEL),
]


@pytest.mark.parametrize("params, dist, truth, belief", CASES)
def test_evaluation_within_two_ulps_of_exact(params, dist, truth, belief):
    # measured worst: 1.7 ulps on the default sweeps, 1.25 at the edges
    policy = build_policy(dist, params, belief, true_length=truth.length)
    ev = evaluate_policy(policy, truth, params, dist)
    exact = exact_evaluation(policy, truth, params, dist)
    for name, value, want in zip(("welfare", "duration", "accepted_wage"),
                                 (ev.welfare, ev.duration, ev.accepted_wage), exact):
        ulps = abs(Fraction(value) - want) / Fraction(math.ulp(value))
        assert ulps <= 2, f"{name} {value!r} is {float(ulps):.3g} ulps from exact"


@pytest.mark.parametrize("vary", ["delta", "len"])
def test_sweep_loss_within_measured_relative_error(vary):
    params, dist, truth = CAL.params, CAL.dist, CAL.truth

    def exact_welfare(belief):
        policy = build_policy(dist, params, belief, true_length=truth.length)
        return exact_evaluation(policy, truth, params, dist)[0]

    j_truth = exact_welfare(truth)
    for row in sweep_beliefs(CAL, vary=vary):
        belief = (ExtensionSpec(row.belief_value, truth.length) if vary == "delta"
                  else ExtensionSpec(truth.delta, int(row.belief_value)))
        exact = 100 * (j_truth - exact_welfare(belief)) / j_truth
        # loss_pct subtracts two welfares near 18, so its relative error
        # grows as the loss shrinks: measured worst 1.8e-8, at belief
        # delta 0.45. A welfare-difference recursion would remove the
        # cancellation (ROADMAP item 8).
        assert abs(Fraction(row.loss_pct) - exact) <= Fraction(2e-8) * exact
