"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them).
"""

import contextlib
import sys
import time

import numpy as np
import pytest

from uisearch import (ExtensionSpec, MarketParams, ReservationSchedule,
                      UniformOffers, build_policy, calibrate_z,
                      default_calibration, evaluate_policy,
                      expected_welfare_at_offer,
                      reservation_identity_residual, simulate_many,
                      solve_schedules, solve_w0_basic, solve_w0_extension,
                      sweep_beliefs, uniform_closed_form)
from uisearch.schedule import build_basic_schedule

from conftest import assert_dominance, random_belief, random_valid_params

UNIFORM = UniformOffers()


@contextlib.contextmanager
def criterion(name, budget_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", file=sys.stderr)
        raise
    elapsed = time.monotonic() - started
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {name}: FAIL (runtime {elapsed:.2f}s "
              f">= {budget_seconds}s)", file=sys.stderr)
        pytest.fail(f"{name} exceeded its {budget_seconds}s runtime budget")
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_schedule_anchor_values():
    """Zero-entitlement pre-extension wages at the illustration calibration."""
    with criterion("1 schedule-anchors", 1.0):
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=15)
        basic = build_basic_schedule(UNIFORM, p, horizon=14 + 13)
        likely = solve_w0_extension(UNIFORM, p, ExtensionSpec(0.5, 13), basic[13])
        unlikely = solve_w0_extension(UNIFORM, p, ExtensionSpec(0.1, 13), basic[13])
        assert likely == pytest.approx(0.864, abs=0.005)
        assert unlikely == pytest.approx(0.825, abs=0.005)


def test_criterion_2_closed_form_exactness():
    """Iterative solver against the closed forms, index by index."""
    with criterion("2 closed-form-exactness", 10.0):
        assert solve_w0_basic(UNIFORM, MarketParams(0.95, 0.42, 0.42, 1),
                              flow=0.42) == pytest.approx(0.8, abs=1e-14)
        cal = default_calibration()
        belief = cal.truth
        iterative = solve_schedules(UNIFORM, cal.params, belief)
        closed = uniform_closed_form(cal.params, belief)
        assert np.max(np.abs(iterative.basic - closed.basic)) < 1e-14
        assert np.max(np.abs(iterative.with_extension - closed.with_extension)) < 1e-14


def test_criterion_3_proposition_suite():
    """Strict orderings, monotonicity, dominance, interiority, identities
    over 100 random valid parameter draws."""
    with criterion("3 proposition-suite", 10.0):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            p = random_valid_params(rng)
            belief = random_belief(rng)
            # one index past the recursion's needs, for the dominance lookup
            s = solve_schedules(UNIFORM, p, belief,
                                horizon=p.n_periods + belief.length)

            # strict increase and interiority of both schedules
            assert np.all(np.diff(s.basic) > 0)
            assert np.all(np.diff(s.with_extension) > 0)
            assert 0.0 < s.basic[0] and s.basic[-1] < 1.0
            assert 0.0 < s.with_extension[0] and s.with_extension[-1] < 1.0

            # dominance of the post-extension schedule
            if belief.delta < 1.0:
                assert_dominance(UNIFORM, p, belief, s)

            # first-step identities
            step = p.c * (1 - p.beta)
            assert abs((s.basic[1] - s.basic[0]) - step) < 1e-10
            assert abs((s.with_extension[1] - s.with_extension[0]) - step) < 1e-10

            # reduction at delta = 0 and collapse at delta = 1
            zero = solve_schedules(UNIFORM, p, ExtensionSpec(0.0, belief.length))
            assert np.max(np.abs(zero.with_extension
                                 - zero.basic[:p.n_periods + 1])) < 1e-10
            one = solve_schedules(UNIFORM, p, ExtensionSpec(1.0, belief.length),
                                  horizon=p.n_periods + belief.length)
            shifted = one.basic[belief.length + 1:
                                belief.length + p.n_periods + 1]
            assert np.max(np.abs(one.with_extension[1:] - shifted)) < 1e-10

        # monotonicity in the belief parameters, all else fixed
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=10)
        previous = None
        for delta in np.round(np.arange(0.0, 1.001, 0.1), 10):
            s = solve_schedules(UNIFORM, p, ExtensionSpec(float(delta), 13))
            if previous is not None:
                assert np.all(s.with_extension > previous)
            previous = s.with_extension
        previous = None
        for length in range(1, 41):
            s = solve_schedules(UNIFORM, p, ExtensionSpec(0.5, length))
            if previous is not None:
                assert np.all(s.with_extension > previous)
            previous = s.with_extension


def test_criterion_4_search_identity():
    """Cost-of-search identity residual, with perturbation power check."""
    with criterion("4 search-identity", 10.0):
        rng = np.random.default_rng(577)
        for _ in range(50):
            p = random_valid_params(rng)
            s = solve_schedules(UNIFORM, p, random_belief(rng))
            assert reservation_identity_residual(UNIFORM, s) < 1e-13
        s = solve_schedules(UNIFORM, MarketParams(0.95, 0.42, 0.42, 10),
                            ExtensionSpec(0.5, 13))
        tampered = np.array(s.with_extension)
        tampered[0] += 0.01
        bad = ReservationSchedule(basic=np.array(s.basic),
                                  with_extension=tampered,
                                  params=s.params, belief=s.belief)
        assert reservation_identity_residual(UNIFORM, bad) > 1e-4


def test_criterion_5_duration_calibration():
    """Nonwork flow reproducing the 10-period expected duration."""
    with criterion("5 duration-calibration", 10.0):
        z_full = calibrate_z(10.0, 0.95, UNIFORM)
        assert z_full == pytest.approx(0.805, abs=1e-6)
        assert 0.5 * z_full == pytest.approx(0.4025, abs=1e-6)
        w0 = solve_w0_basic(UNIFORM, MarketParams(0.95, z_full, 0.1, 0),
                            flow=z_full)
        assert 1.0 / (1.0 - w0) == pytest.approx(10.0, abs=1e-6)


def test_criterion_6_misperception_experiment():
    """Shape and sign properties of the welfare-loss sweeps (exact mode)."""
    with criterion("6 misperception-experiment", 30.0):
        cal = default_calibration()

        delta_rows = sweep_beliefs(cal, vary="delta")
        by_delta = {round(r.belief_value, 2): r for r in delta_rows}
        assert abs(by_delta[0.5].loss_pct) < 1e-8
        assert all(r.loss_pct >= -1e-8 for r in delta_rows)
        assert by_delta[0.1].loss_pct > by_delta[0.9].loss_pct
        assert max(r.loss_pct for r in delta_rows) < 1.0
        for r in delta_rows:
            if r.belief_value < 0.5:
                assert r.duration_ratio < 1.0 and r.wage_gap_pct < 0.0
            elif r.belief_value > 0.5:
                assert r.duration_ratio > 1.0 and r.wage_gap_pct > 0.0

        length_rows = sweep_beliefs(cal, vary="len")
        by_length = {int(r.belief_value): r for r in length_rows}
        assert abs(by_length[25].loss_pct) < 1e-8
        assert all(r.loss_pct >= -1e-8 for r in length_rows)
        assert max(r.loss_pct for r in length_rows) < 1.0
        for r in length_rows:
            if r.belief_value < 25:
                assert r.duration_ratio < 1.0 and r.wage_gap_pct < 0.0
            elif r.belief_value > 25:
                assert r.duration_ratio > 1.0 and r.wage_gap_pct > 0.0


def test_criterion_7_monte_carlo_vs_exact():
    """Million-spell simulations against the exact evaluator, plus
    bit-identical results across worker counts."""
    with criterion("7 monte-carlo-vs-exact", 120.0):
        cal = default_calibration()
        for delta_b in (0.1, 0.5, 0.9):
            belief = ExtensionSpec(delta=delta_b, length=25)
            policy = build_policy(UNIFORM, cal.params, belief,
                                  true_length=cal.truth.length)
            exact = evaluate_policy(policy, cal.truth, cal.params, UNIFORM)
            summary = simulate_many(policy, cal.truth, cal.params, UNIFORM,
                                    1_000_000, 20_240_817)
            assert abs(summary.welfare_mean - exact.welfare) \
                < 3 * summary.welfare_stderr
            assert abs(summary.duration_mean - exact.duration) \
                < 3 * summary.duration_stderr
            assert abs(summary.wage_mean - exact.accepted_wage) \
                < 3 * summary.wage_stderr
            if delta_b == 0.5:
                replay = simulate_many(policy, cal.truth, cal.params, UNIFORM,
                                       1_000_000, 20_240_817, n_workers=8)
                assert replay == summary


def test_criterion_8_expected_welfare_formula():
    """Exact evaluator against the closed-form offer-node welfare."""
    with criterion("8 welfare-formula", 10.0):
        cal = default_calibration()
        belief = ExtensionSpec(delta=0.0, length=1)
        policy = build_policy(UNIFORM, cal.params, belief)
        result = evaluate_policy(policy, belief, cal.params, UNIFORM)
        for n in range(cal.params.n_periods + 1):
            formula = expected_welfare_at_offer(cal.params.beta,
                                                policy.pre_thresholds[n])
            assert result.offer_values[n] == pytest.approx(formula, abs=1e-9)
