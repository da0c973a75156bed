"""Property tests over randomly drawn models.

``hypothesis`` draws each model; ``derandomize=True`` fixes the examples,
so every run checks the same ones and a failure reproduces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from uisearch import (Calibration, ExtensionSpec, MarketParams, PolicyProfile,
                      UniformOffers, build_basic_schedule,
                      build_extension_schedule, evaluate_policy, sweep_beliefs)
from uisearch.evaluate import loss_pct
from uisearch.schedule import post_extension_state


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
                      z_full=z + c, target_duration=float("nan"))
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
        post = basic.copy()
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
