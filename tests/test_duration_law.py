"""The exact law of a spell's length, as an oracle for the Monte Carlo.

A spell is an absorbing chain over (pending, n) and (extended, m)
states (Kemeny & Snell, *Finite Markov Chains*, 1960; its length has a
phase-type law, Neuts 1981). One forward pass over the periods gives
P(duration = t) for every t up to ``max_periods``, and the mass still
searching after the last one, which the simulator truncates. The pass
reads only the policy's thresholds and ``dist.sf``, none of
``evaluate.py`` or the simulation kernel, so it checks both.
"""

import math

import pytest

from uisearch import (ExtensionSpec, build_policy, default_calibration,
                      evaluate_policy, simulate_many)

SPELLS = 1 << 20
SEED = 2024


def duration_law(policy, truth, params, dist, max_periods):
    """P(duration = t) for t = 1 .. ``max_periods``, and the truncated mass.

    Each period the entitlement falls by one, down to zero. While the
    extension is pending it is granted with probability ``truth.delta``,
    adding ``truth.length`` periods. Then an offer arrives and is
    accepted with probability ``sf`` of the threshold at the new state.
    """
    accept_pre = [dist.sf(x) for x in policy.pre_thresholds]
    accept_post = [dist.sf(x) for x in policy.post_thresholds]
    delta, length = truth.delta, truth.length
    pending, extended = {params.n_periods: 1.0}, {}
    law = []
    for _ in range(max_periods):
        next_pending, next_extended = {}, {}
        accepted = []

        def offer(states, accept, n, mass):
            accepted.append(mass * accept[n])
            states[n] = states.get(n, 0.0) + mass * (1.0 - accept[n])

        for n, mass in pending.items():
            down = max(n - 1, 0)
            offer(next_extended, accept_post, down + length, delta * mass)
            offer(next_pending, accept_pre, down, (1.0 - delta) * mass)
        for m, mass in extended.items():
            offer(next_extended, accept_post, max(m - 1, 0), mass)
        law.append(math.fsum(accepted))
        pending, extended = next_pending, next_extended
    return law, math.fsum([*pending.values(), *extended.values()])


def moments(law):
    """Total mass, mean and variance of the durations 1 .. len(law) under
    ``law``, conditional on completing within them."""
    mass = math.fsum(law)
    mean = math.fsum(t * p for t, p in enumerate(law, 1)) / mass
    second = math.fsum(t * t * p for t, p in enumerate(law, 1)) / mass
    return mass, mean, second - mean * mean


@pytest.fixture(scope="module")
def case():
    """The pessimist belief (0.1, 25) against the truth (0.5, 25) at the
    default calibration."""
    cal = default_calibration()
    policy = build_policy(cal.dist, cal.params, ExtensionSpec(delta=0.1, length=25),
                          true_length=cal.truth.length)
    return policy, cal.truth, cal.params, cal.dist


def test_law_and_truncated_mass_sum_to_one(case):
    for max_periods in (1, 30, 2_000):
        law, truncated = duration_law(*case, max_periods)
        assert math.fsum([*law, truncated]) == pytest.approx(1.0, abs=1e-14)


def test_mean_is_the_evaluators_duration(case):
    law, truncated = duration_law(*case, 2_000)
    assert truncated < 1e-100  # far below the mean's rounding
    _, mean, _ = moments(law)
    exact = evaluate_policy(*case).duration
    assert mean == pytest.approx(exact, rel=1e-12)


def test_duration_mean_and_stderr_match_the_law(case):
    _, mean, variance = moments(duration_law(*case, 2_000)[0])
    summary = simulate_many(*case, SPELLS, SEED)
    assert summary.truncated_count == 0
    assert summary.duration_stderr == pytest.approx(math.sqrt(variance / SPELLS),
                                                    rel=0.02)
    assert abs(summary.duration_mean - mean) < 4 * summary.duration_stderr


def test_truncated_count_and_completed_mean_match_the_law(case):
    law, truncated = duration_law(*case, 30)
    _, mean, variance = moments(law)
    summary = simulate_many(*case, SPELLS, SEED, max_periods=30)
    expected = SPELLS * truncated
    assert abs(summary.truncated_count - expected) < 4 * math.sqrt(
        expected * (1.0 - truncated))
    completed = SPELLS - summary.truncated_count
    assert abs(summary.duration_mean - mean) < 4 * math.sqrt(variance / completed)
