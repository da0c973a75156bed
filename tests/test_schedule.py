import math

import numpy as np
import pytest

from uisearch import (ExtensionSpec, MarketParams, NonConvergenceError,
                      ReservationSchedule, build_policy, default_calibration,
                      evaluate_policy, reservation_identity_residual, solve_schedules,
                      solve_w0_basic, solve_w0_extension, sweep_beliefs)
from uisearch import schedule as schedule_module
from uisearch.schedule import (build_basic_schedule, build_extension_schedule,
                               upsilon)

from conftest import assert_dominance, random_belief, random_valid_params


class TestUpsilon:
    def test_bottom_of_support_gives_mean(self, uniform):
        assert upsilon(uniform, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_top_of_support_gives_top(self, uniform):
        assert upsilon(uniform, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint(self, uniform):
        # oracle: 0.5 * F(0.5) + int_{0.5}^1 w dw
        w = np.linspace(0.5, 1.0, 100_001)
        oracle = 0.5 * 0.5 + np.trapezoid(w, w)
        assert oracle == pytest.approx(0.625, abs=1e-10)
        assert upsilon(uniform, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_nondecreasing_and_bounded(self, uniform):
        grid = np.linspace(0.0, 1.0, 501)
        values = np.array([upsilon(uniform, x) for x in grid])
        assert np.all(np.diff(values) >= 0.0)
        assert np.all(values <= 1.0 + 1e-15)

    def test_domain_error(self, uniform):
        for x in (1.5, math.nan):
            with pytest.raises(ValueError, match="outside support"):
                upsilon(uniform, x)


class TestBasicFixedPoint:
    def test_closed_form_oracle(self, uniform, fig3_params):
        w0 = solve_w0_basic(uniform, fig3_params, flow=0.42)
        assert w0 == pytest.approx(0.8, abs=1e-9)

    def test_duration_ten_flow(self, uniform, fig3_params):
        w0 = solve_w0_basic(uniform, fig3_params, flow=0.805)
        assert w0 == pytest.approx(0.9, abs=1e-9)

    def test_myopic_limit(self, uniform):
        p = MarketParams(beta=1e-12, z=0.3, c=0.1, n_periods=1)
        w0 = solve_w0_basic(uniform, p, flow=0.3)
        assert w0 == pytest.approx(0.3, abs=1e-9)

    def test_residual_below_tol(self, uniform):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_valid_params(rng)
            w0 = solve_w0_basic(uniform, p, flow=p.z)
            image = p.z * (1 - p.beta) + p.beta * upsilon(uniform, w0)
            assert abs(w0 - image) < 1e-12

    def test_nonconvergence_reports_residual(self, uniform, fig3_params,
                                             monkeypatch):
        monkeypatch.setattr(schedule_module, "_MAX_STEPS", 1)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_w0_basic(uniform, fig3_params, flow=0.42)
        assert excinfo.value.residual > 0

    def test_rejects_invalid_discounting(self, uniform):
        p = MarketParams(beta=1.0, z=0.4, c=0.4, n_periods=1)
        with pytest.raises(ValueError):
            solve_w0_basic(uniform, p, flow=0.4)

    def test_flow_far_below_support_fails_interiority(self, uniform):
        # (1 - beta) * flow + beta * mean = -5 + 0.475, below the bottom 0
        with pytest.raises(ValueError, match="interiority"):
            schedule_module.check_solvable(uniform, 0.95, -100.0)


def test_default_sweeps_solve_each_fixed_point_in_at_most_twelve_steps(monkeypatch):
    # Newton steps, one upsilon call each: measured 5 to 8 per solve.
    calls, steps = [], []
    fixed_point = schedule_module._fixed_point

    def counting_upsilon(dist, x):
        calls.append(x)
        return upsilon(dist, x)

    def counting_fixed_point(*args):
        before = len(calls)
        root = fixed_point(*args)
        steps.append(len(calls) - before)
        return root

    monkeypatch.setattr(schedule_module, "upsilon", counting_upsilon)
    monkeypatch.setattr(schedule_module, "_fixed_point", counting_fixed_point)
    for vary in ("delta", "len"):
        sweep_beliefs(default_calibration(), vary=vary)
    # one basic solve per sweep and one extension solve per belief and baseline
    assert len(steps) == 2 + (17 + 1) + (9 + 1)
    assert max(steps) <= 12


class TestBasicSchedule:
    def test_first_two_entries(self, uniform, fig3_params):
        # oracle: closed-form recursion w[n] = (z+c)(1-b) + b(1+w[n-1]^2)/2
        wages = build_basic_schedule(uniform, fig3_params, horizon=5)
        assert wages[0] == pytest.approx(0.8, abs=1e-9)
        assert wages[1] == pytest.approx(0.821, abs=1e-9)

    def test_no_compensation_is_flat(self, uniform):
        # flat to solver precision: the recursion contracts the rounding
        # left in the fixed point, where the last Newton step did not rise
        p = MarketParams(beta=0.95, z=0.42, c=0.0, n_periods=5)
        wages = np.array(build_basic_schedule(uniform, p, horizon=5))
        assert np.max(np.abs(wages - wages[0])) < 1e-10

    def test_first_step_identity(self, uniform):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_valid_params(rng)
            wages = build_basic_schedule(uniform, p, horizon=2)
            assert wages[1] - wages[0] == pytest.approx(p.c * (1 - p.beta), abs=1e-10)

    def test_indefinite_benefit_diagnostic(self, uniform, fig3_params):
        wages = np.array(build_basic_schedule(uniform, fig3_params, horizon=40))
        w_inf = solve_w0_basic(uniform, fig3_params,
                               flow=fig3_params.z + fig3_params.c)
        assert np.all(wages < w_inf)
        gaps = w_inf - wages
        assert np.all(np.diff(gaps) < 0.0)


class TestExtensionFixedPoint:
    def test_delta_zero_reduces_to_basic(self, uniform, fig3_params):
        basic = build_basic_schedule(uniform, fig3_params, horizon=13)
        w0 = solve_w0_extension(uniform, fig3_params,
                                ExtensionSpec(delta=0.0, length=13), basic[13])
        assert w0 == solve_w0_basic(uniform, fig3_params, flow=fig3_params.z)

    def test_delta_one_is_explicit(self, uniform, fig3_params):
        basic = build_basic_schedule(uniform, fig3_params, horizon=13)
        w0 = solve_w0_extension(uniform, fig3_params,
                                ExtensionSpec(delta=1.0, length=13), basic[13])
        direct = (fig3_params.z * 0.05 + 0.95 * upsilon(uniform, basic[13]))
        assert w0 == pytest.approx(direct, abs=1e-12)

    def test_nan_basic_wage_raises(self, uniform, fig3_params):
        # NaN fails every comparison, so Newton's first step would not
        # rise and the solve would return the bottom of the support.
        with pytest.raises(ValueError, match=r"cdf argument nan outside support \[0.0, 1.0\]"):
            solve_w0_extension(uniform, fig3_params, ExtensionSpec(0.5, 13), math.nan)


class TestExtensionSchedule:
    def test_delta_zero_coincides_with_basic(self, uniform, fig3_params):
        schedule = solve_schedules(uniform, fig3_params,
                                   ExtensionSpec(delta=0.0, length=13))
        # bit for bit: the recursion adds beta * 0.0 * upsilon(...) and
        # multiplies by 1.0 - 0.0, so delta = 0 is the no-extension problem
        n = fig3_params.n_periods
        assert np.array_equal(schedule.with_extension, schedule.basic[:n + 1])

    def test_delta_one_collapses_for_positive_entitlement(self, uniform, fig3_params):
        n, length = fig3_params.n_periods, 13
        schedule = solve_schedules(uniform, fig3_params,
                                   ExtensionSpec(delta=1.0, length=length),
                                   horizon=n + length)
        shifted = schedule.basic[1 + length:n + length + 1]
        assert np.max(np.abs(schedule.with_extension[1:] - shifted)) < 1e-10

    def test_higher_delta_dominates_pointwise(self, uniform, fig3_params):
        low = solve_schedules(uniform, fig3_params, ExtensionSpec(0.1, 13))
        high = solve_schedules(uniform, fig3_params, ExtensionSpec(0.9, 13))
        assert np.all(high.with_extension > low.with_extension)

    def test_short_basic_schedule_rejected(self, uniform, fig3_params):
        basic = build_basic_schedule(uniform, fig3_params, horizon=5)
        with pytest.raises(ValueError, match="basic schedule"):
            build_extension_schedule(uniform, fig3_params,
                                     ExtensionSpec(delta=0.5, length=13), basic)

    def test_a_builders_result_cannot_change(self, uniform, fig3_params):
        # The builders' tuples carry the prices of their wages, so no
        # entry can change after it is priced.
        basic = build_basic_schedule(uniform, fig3_params, horizon=12)
        pre = build_extension_schedule(uniform, fig3_params, ExtensionSpec(0.5, 3), basic)
        for wages in (basic, pre):
            with pytest.raises(TypeError):
                wages[1] = 0.5

    def test_an_unpriced_basic_schedule_gives_the_same_wages(self, uniform, fig3_params):
        belief = ExtensionSpec(delta=0.5, length=3)
        basic = build_basic_schedule(uniform, fig3_params, horizon=12)
        assert (build_extension_schedule(uniform, fig3_params, belief, basic)
                == build_extension_schedule(uniform, fig3_params, belief, list(basic)))

    def test_zero_entitlement_is_legal(self, uniform):
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=0)
        schedule = solve_schedules(uniform, p, ExtensionSpec(delta=0.5, length=13))
        assert schedule.with_extension.shape == (1,)
        assert schedule.basic.shape == (14,)


class TestPropositionProperties:
    """Quick seeded sweep; the full 100-draw suite lives in acceptance."""

    def test_orderings_dominance_interiority(self, uniform):
        rng = np.random.default_rng(23)
        for _ in range(15):
            p = random_valid_params(rng)
            belief = random_belief(rng)
            s = solve_schedules(uniform, p, belief,
                                horizon=p.n_periods + belief.length)
            assert np.all(np.diff(s.basic) > 0)
            if p.n_periods >= 1:
                assert np.all(np.diff(s.with_extension) > 0)
            assert 0.0 < s.basic[0] and s.basic[-1] < 1.0
            assert 0.0 < s.with_extension[0] and s.with_extension[-1] < 1.0
            if belief.delta < 1.0:
                assert_dominance(uniform, p, belief, s)

    def test_monotone_in_delta_and_length(self, uniform, fig3_params):
        previous = None
        for delta in np.arange(0.0, 1.01, 0.1):
            s = solve_schedules(uniform, fig3_params,
                                ExtensionSpec(float(delta), 13))
            if previous is not None:
                assert np.all(s.with_extension > previous)
            previous = s.with_extension
        previous = None
        for length in (1, 5, 10, 20, 40):
            s = solve_schedules(uniform, fig3_params, ExtensionSpec(0.5, length))
            if previous is not None:
                assert np.all(s.with_extension > previous)
            previous = s.with_extension


class TestReservationIdentity:
    def test_residual_tiny_on_solved_schedules(self, uniform):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_valid_params(rng)
            s = solve_schedules(uniform, p, random_belief(rng))
            assert reservation_identity_residual(uniform, s) < 1e-13

    def test_basic_only_schedule(self, uniform, fig3_params):
        s = solve_schedules(uniform, fig3_params, ExtensionSpec(0.0, 1))
        assert reservation_identity_residual(uniform, s) < 1e-13

    def test_perturbation_gives_power(self, uniform, fig3_params):
        s = solve_schedules(uniform, fig3_params, ExtensionSpec(0.5, 13))
        tampered = np.array(s.with_extension)
        tampered[0] += 0.01
        bad = ReservationSchedule(basic=np.array(s.basic), with_extension=tampered,
                                  params=s.params, belief=s.belief)
        assert reservation_identity_residual(uniform, bad) > 1e-4


class TestValueAccessors:
    def test_schedule_arrays_are_read_only(self, uniform, fig3_params):
        s = solve_schedules(uniform, fig3_params, ExtensionSpec(0.5, 13))
        with pytest.raises(ValueError):
            s.basic[0] = 0.0
        with pytest.raises(ValueError):
            s.with_extension[0] = 0.0

    @pytest.mark.parametrize("owner, name", [
        ("schedule", "basic"), ("schedule", "with_extension"),
        ("policy", "pre_thresholds"), ("policy", "post_thresholds"),
        ("evaluation", "offer_values")])
    def test_array_attributes_are_cached_read_only_copies_of_the_floats(
            self, uniform, benchmark_params, benchmark_truth, owner, name):
        # Each result stores a tuple of floats and builds its array on
        # the first read; the same read-only array serves every later one.
        belief = ExtensionSpec(0.1, 25)
        policy = build_policy(uniform, benchmark_params, belief,
                              true_length=benchmark_truth.length)
        obj = {"schedule": solve_schedules(uniform, benchmark_params, belief),
               "policy": policy,
               "evaluation": evaluate_policy(policy, benchmark_truth, benchmark_params,
                                             uniform)}[owner]
        stored = getattr(obj, f"_{name}")
        assert type(stored) in (tuple, schedule_module._Priced)
        assert all(type(v) is float for v in stored)
        array = getattr(obj, name)
        assert array.dtype == np.float64 and not array.flags.writeable
        assert getattr(obj, name) is array
        assert [v.hex() for v in array.tolist()] == [v.hex() for v in stored]


@pytest.mark.parametrize("make, message", [
    (lambda: MarketParams(0.95, 0.4, 0.4, n_periods=-1), "n_periods must be"),
    (lambda: MarketParams(0.95, 0.4, 0.4, n_periods=2.5), "n_periods must be"),
    (lambda: ExtensionSpec(delta=1.5, length=3), r"delta must lie in \[0, 1\]"),
    (lambda: ExtensionSpec(delta=0.5, length=0), "length must be a positive integer"),
    (lambda: MarketParams(0.95, 0.4, 0.4, n_periods=float("inf")), "n_periods must be"),
    (lambda: ExtensionSpec(delta=0.5, length=float("inf")),
     "length must be a positive integer"),
    (lambda: ExtensionSpec(delta=0.5, length=float("nan")),
     "length must be a positive integer"),
], ids=["n_periods_negative", "n_periods_fraction", "delta_above_one", "length_zero",
        "n_periods_infinite", "length_infinite", "length_nan"])
def test_model_inputs_are_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make()
