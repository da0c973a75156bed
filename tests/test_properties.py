"""Property tests over randomly drawn models.

``hypothesis`` draws each model; ``derandomize=True`` fixes the examples,
so every run checks the same ones and a failure reproduces.
"""

import math
import os
from unittest import mock

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from uisearch import (ConfigError, DivergenceError, ExtensionSpec,
                      MarketParams, NonConvergenceError, UniformOffers,
                      build_policy, evaluate_policy,
                      reservation_identity_residual, simulate_many,
                      solve_schedules, sweep_beliefs, welfare_loss)
from uisearch.config import parse_config
from uisearch.evaluate import PolicyProfile, loss_pct
from uisearch.experiments import Calibration
from uisearch.montecarlo import DEFAULT_CHUNK
from uisearch.schedule import (build_basic_schedule, build_extension_schedule,
                               post_extension_state)

from conftest import (ACCEPTED_WAGE_LEAVES_SUPPORT, FLOW_AN_ULP_BELOW_TOP,
                      ROUNDED_TO_CERTAIN_REJECTION, summary_bits)


@st.composite
def sweep_cases(draw):
    """A solvable model, a true extension process and a belief grid that
    holds the true value among up to four others, in random order."""
    low = draw(st.floats(0.0, 1.0))
    high = low + draw(st.floats(0.5, 2.0))
    beta = draw(st.floats(0.8, 0.97))
    # z above the support's bottom keeps the interiority condition;
    # z + c below its top keeps every fixed point inside the support.
    z = low + draw(st.floats(0.05, 0.6)) * (high - low)
    c = draw(st.floats(0.05, 0.9)) * (high - z)
    params = MarketParams(beta=beta, z=z, c=c, n_periods=draw(st.integers(0, 8)))
    truth = ExtensionSpec(delta=draw(st.floats(0.0, 1.0)),
                          length=draw(st.integers(1, 15)))
    vary = draw(st.sampled_from(["delta", "len"]))
    if vary == "delta":
        others = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        true_value = truth.delta
    else:
        others = draw(st.lists(st.integers(1, 20), min_size=1, max_size=4))
        true_value = truth.length
    grid = draw(st.permutations(others + [true_value]))
    cal = Calibration(params=params, dist=UniformOffers(low, high), truth=truth,
                      target_duration=float("nan"))
    return cal, vary, grid, true_value


def unshared_rows(cal, vary, grid):
    """Sweep rows with every belief, and the baseline, evaluated against
    its own copy of the basic schedule, so no two calls share one array."""
    params, dist, truth = cal.params, cal.dist, cal.truth
    beliefs = [ExtensionSpec(delta=float(v), length=truth.length) if vary == "delta"
               else ExtensionSpec(delta=truth.delta, length=int(v)) for v in grid]
    horizon = post_extension_state(
        params.n_periods, max([truth.length] + [b.length for b in beliefs]))
    basic = build_basic_schedule(dist, params, horizon)

    def statistics(belief):
        post = list(basic)
        pre = build_extension_schedule(dist, params, belief, post)
        ev = evaluate_policy(PolicyProfile(pre_thresholds=pre, post_thresholds=post),
                             truth, params, dist)
        return ev.welfare, ev.duration, ev.accepted_wage

    base_welfare, base_duration, base_wage = statistics(truth)
    return [(loss_pct(base_welfare, welfare), duration / base_duration,
             100.0 * (wage - base_wage) / base_wage)
            for welfare, duration, wage in map(statistics, beliefs)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(sweep_cases())
def test_sweep_rows_match_unshared_evaluation(case):
    cal, vary, grid, true_value = case
    rows = sweep_beliefs(cal, vary=vary, grid=grid)
    assert [(r.loss_pct.hex(), r.duration_ratio.hex(), r.wage_gap_pct.hex())
            for r in rows] == [tuple(v.hex() for v in row)
                               for row in unshared_rows(cal, vary, grid)]
    for value, row in zip(grid, rows):
        if value == true_value:
            assert row.loss_pct == 0.0
        assert row.loss_pct >= -1e-12


@st.composite
def accepted_configs(draw):
    """Config fields ``parse_config`` mostly accepts, edges included:
    ``z + c`` one ulp below the top of the support, ``z`` one ulp below
    that, ``beta`` from 0.001 up to 0.99, negative support bottoms,
    beliefs and truths with delta 0 or 1, and no initial entitlement."""
    high = draw(st.floats(0.05, 3.0))
    low = high - draw(st.floats(0.05, 10.0))
    top = math.nextafter(high, -math.inf)
    flow = draw(st.one_of(st.just(top), st.floats(0.0, top, exclude_min=True)))
    z = draw(st.one_of(st.just(math.nextafter(flow, -math.inf)),
                       st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True).map(lambda u: u * flow)))
    deltas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    return {
        "beta": draw(st.one_of(st.sampled_from([0.001, 0.99]),
                               st.floats(0.001, 0.99))),
        "z": z, "c": flow - z,
        "N": draw(st.one_of(st.just(0), st.integers(0, 12))),
        "delta_true": draw(deltas), "len_true": draw(st.integers(1, 30)),
        "delta_belief": draw(deltas), "len_belief": draw(st.integers(1, 30)),
        "distribution": {"type": "uniform", "low": low, "high": high},
    }


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(accepted_configs())
@example(FLOW_AN_ULP_BELOW_TOP)
@example(ROUNDED_TO_CERTAIN_REJECTION)
@example(ACCEPTED_WAGE_LEAVES_SUPPORT)
@example({  # the pre-extension recursion rounds a step past the top
    "beta": 0.5, "z": 2.468683795386459, "c": 4.440892098500626e-16, "N": 2,
    "delta_true": 0.0, "len_true": 1, "delta_belief": 1.0, "len_belief": 6,
    "distribution": {"type": "uniform", "low": 2.4179025453864598,
                     "high": 2.4686837953864598}})
def test_accepted_configs_diverge_only_by_rounding(fields):
    # In exact arithmetic every threshold of an accepted config lies
    # below the top of the support, so some offer is always acceptable,
    # and the expected accepted wage lies inside the support. In floats
    # a threshold reaches at most the top, and evaluate_policy raises
    # DivergenceError (exit 5 in the CLI) only by rounding: when a
    # state-0 threshold rounds to the top, so that its survival function
    # is 0, or when tails too small to resolve carry the expected
    # accepted wage out of the support. Otherwise that wage lies inside it.
    try:
        cfg = parse_config(overrides=fields)
    except ConfigError:
        reject()
    dist = cfg.distribution
    try:
        policies = [build_policy(dist, cfg.params, belief,
                                 true_length=cfg.truth.length)
                    for belief in (cfg.belief, cfg.truth)]
    except NonConvergenceError:
        return  # the CLI exits 3 before any evaluation
    for policy in policies:
        assert policy.post_thresholds.max() <= dist.high
        assert policy.pre_thresholds.max() <= dist.high
        try:
            result = evaluate_policy(policy, cfg.truth, cfg.params, dist)
        except DivergenceError as exc:
            state0 = (policy.post_thresholds[0], policy.pre_thresholds[0])
            assert (min(dist.sf(w) for w in state0) == 0.0
                    or "outside the offer support" in str(exc))
        else:
            assert dist.low <= result.accepted_wage <= dist.high


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(accepted_configs())
def test_loss_is_zero_at_the_truth_and_never_below_rounding(fields):
    # The truth's policy is optimal under the truth, so holding any other
    # belief loses welfare. loss_pct subtracts two welfares, so rounding
    # can leave it just below zero, but never below -2e-8 percent.
    try:
        cfg = parse_config(overrides=fields)
    except ConfigError:
        reject()
    args = (cfg.truth, cfg.params, cfg.distribution)
    try:
        assert welfare_loss(cfg.truth, *args) == 0.0
        assert welfare_loss(cfg.belief, *args) >= -2e-8
    except (DivergenceError, NonConvergenceError):
        return  # the CLI exits 5 or 3


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(accepted_configs())
def test_extension_schedule_reduces_at_delta_zero_and_one(fields):
    # Bit for bit: at delta 0 the recursion adds beta * 0.0 * upsilon(...)
    # and multiplies by 1.0 - 0.0, so it is the problem without an
    # extension; at delta 1 the self-referencing term has weight 0.0, so
    # from entitlement 1 on each wage is the basic one `length` above.
    try:
        cfg = parse_config(overrides=fields)
    except ConfigError:
        reject()
    dist, params, length = cfg.distribution, cfg.params, cfg.belief.length
    n = params.n_periods
    try:
        zero = solve_schedules(dist, params, ExtensionSpec(0.0, length))
        one = solve_schedules(dist, params, ExtensionSpec(1.0, length),
                              horizon=n + length)
    except NonConvergenceError:
        return  # the CLI exits 3
    assert zero.with_extension.tobytes() == zero.basic[:n + 1].tobytes()
    assert one.with_extension[1:].tobytes() == one.basic[length + 1:n + length + 1].tobytes()


@st.composite
def extension_specs(draw):
    return ExtensionSpec(delta=draw(st.floats(0.0, 1.0)), length=draw(st.integers(1, 30)))


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(truth=extension_specs(), belief=extension_specs(),
       seed=st.integers(0, 2 ** 63 - 1),
       n_spells=st.integers(DEFAULT_CHUNK + 1, 3 * DEFAULT_CHUNK))
def test_summary_bits_independent_of_worker_count(truth, belief, seed, n_spells):
    # Two or three blocks, so the 2-worker call fans them out to forked
    # workers; two CPUs are reported so that it does so on any host.
    params = MarketParams(beta=0.95, z=0.4025, c=0.4025, n_periods=10)
    dist = UniformOffers()
    policy = build_policy(dist, params, belief, true_length=truth.length)

    def bits(n_workers):
        return summary_bits(simulate_many(policy, truth, params, dist, n_spells, seed,
                                          n_workers=n_workers))

    with mock.patch.object(os, "cpu_count", return_value=2):
        assert bits(1) == bits(2)


@st.composite
def scaled_models(draw):
    """A solvable model on a uniform support 1e-6 to 1e6 wide whose bottom
    lies within one width of zero, and a belief."""
    width = 10.0 ** draw(st.floats(-6.0, 6.0))
    low = width * draw(st.floats(-1.0, 1.0))
    dist = UniformOffers(low, low + width)
    # Up to 0.99: the search identity multiplies the rounding of each
    # wage by beta / (1 - beta), so at 0.999 a schedule whose wages are
    # off by an ulp leaves up to 9e-13 of the width.
    # test_narrow_support_solves_to_the_decimal_root covers beta 0.999.
    beta = draw(st.floats(0.01, 0.99))
    z = low + width * draw(st.floats(0.01, 0.99))
    c = (dist.high - z) * draw(st.floats(0.01, 0.99))
    params = MarketParams(beta=beta, z=z, c=c, n_periods=draw(st.integers(0, 40)))
    belief = ExtensionSpec(delta=draw(st.floats(0.0, 1.0)),
                           length=draw(st.integers(1, 30)))
    return dist, params, belief


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scaled_models())
@example((  # an absolute stopping tolerance of 1e-12 left 3.0e-12 of the width
    UniformOffers(low=8.403597261646497e-08, high=1.6279817657591509e-06),
    MarketParams(beta=0.99, z=7.513991872110823e-07, c=5.125870094585754e-07,
                 n_periods=37),
    ExtensionSpec(delta=0.0, length=24)))
def test_schedules_rise_dominate_and_solve_on_any_scale(model):
    dist, params, belief = model
    schedule = solve_schedules(dist, params, belief)
    width = dist.high - dist.low
    # The exact increments and extension gaps shrink geometrically in n,
    # so at a schedule's plateau they fall below the rounding of each
    # step, an ulp at the support's scale.
    ulp = np.spacing(max(abs(dist.low), abs(dist.high)))
    # Entitlement never lowers the wage.
    for wages in (schedule.basic, schedule.with_extension):
        assert np.all(np.diff(wages) >= -ulp)
    # The possibility of an extension raises the entire sequence.
    assert np.all(schedule.with_extension
                  >= schedule.basic[:params.n_periods + 1] - ulp)
    assert reservation_identity_residual(dist, schedule) / width < 1e-12
