import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uisearch import (ExtensionSpec, MarketParams, UniformOffers,
                      expected_welfare_at_offer, solve_schedules,
                      uniform_closed_form)


def oracle_gap(params, belief):
    """Worst absolute gap between the solver and the closed forms over
    both schedules, uniform offers on [0, 1]."""
    iterative = solve_schedules(UniformOffers(), params, belief)
    closed = uniform_closed_form(params, belief)
    assert closed.basic.shape == iterative.basic.shape
    assert closed.with_extension.shape == iterative.with_extension.shape
    return max(np.max(np.abs(iterative.basic - closed.basic)),
               np.max(np.abs(iterative.with_extension - closed.with_extension)))


def test_w0_exact_hand_value(fig3_params):
    # 2t / (1 + sqrt(D)) with t = 0.42 * 0.05 + 0.95 / 2 = 0.496 and
    # D = 0.05 * 1.152 = 0.0576, so sqrt(D) = 0.24 and w0 = 0.992 / 1.24 = 0.8
    assert math.sqrt((1 - 0.95) * (1 + 0.95 - 2 * 0.95 * 0.42)) == pytest.approx(0.24, abs=1e-15)
    closed = uniform_closed_form(fig3_params, ExtensionSpec(delta=0.5, length=13))
    assert closed.basic[0] == pytest.approx(0.8, abs=1e-15)


def test_matches_iterative_solver_on_benchmark(uniform, benchmark_params):
    belief = ExtensionSpec(delta=0.5, length=25)
    iterative = solve_schedules(uniform, benchmark_params, belief)
    closed = uniform_closed_form(benchmark_params, belief)
    assert np.max(np.abs(iterative.basic - closed.basic)) < 1e-14
    assert np.max(np.abs(iterative.with_extension - closed.with_extension)) < 1e-14


def test_delta_zero_equals_no_extension_form(fig3_params):
    with_zero = uniform_closed_form(fig3_params, ExtensionSpec(delta=0.0, length=13))
    basic_only = with_zero.basic[:fig3_params.n_periods + 1]
    assert np.max(np.abs(with_zero.with_extension - basic_only)) < 1e-15
    assert with_zero.with_extension[0] == with_zero.basic[0]


def test_delta_one_limit_matches_solver(uniform, fig3_params):
    belief = ExtensionSpec(delta=1.0, length=13)
    iterative = solve_schedules(uniform, fig3_params, belief)
    closed = uniform_closed_form(fig3_params, belief)
    assert np.max(np.abs(iterative.with_extension - closed.with_extension)) < 1e-14


def test_expected_welfare_at_offer_hand_value():
    assert expected_welfare_at_offer(0.95, 0.8) == pytest.approx(16.4, abs=1e-12)


def test_zero_entitlement_closed_form():
    p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=0)
    closed = uniform_closed_form(p, ExtensionSpec(delta=0.5, length=13))
    assert closed.with_extension.shape == (1,)
    assert closed.basic.shape == (14,)


def test_delta_an_ulp_below_one_matches_solver(fig3_params):
    belief = ExtensionSpec(delta=math.nextafter(1.0, 0.0), length=13)
    assert oracle_gap(fig3_params, belief) <= 1e-13


def test_tiny_beta_matches_solver():
    p = MarketParams(beta=1e-9, z=0.42, c=0.42, n_periods=10)
    assert oracle_gap(p, ExtensionSpec(delta=0.5, length=13)) <= 1e-13


BETAS = (st.floats(1e-12, 0.99)
         | st.floats(-12.0, math.log10(0.99)).map(lambda u: 10.0 ** u))
DELTAS = (st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
          | st.integers(1, 16).map(lambda k: 1.0 - 10.0 ** -k)
          | st.integers(1, 16).map(lambda k: 10.0 ** -k))
# z + c: anywhere in (0, 1), or k ulps of 2**-53 below the top
FLOWS = (st.floats(1e-9, 1.0, exclude_max=True)
         | st.integers(1, 1 << 20).map(lambda k: 1.0 - k * 2.0 ** -53))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(beta=BETAS, delta=DELTAS, flow=FLOWS,
       share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n_periods=st.integers(0, 200), length=st.integers(1, 200))
def test_oracle_matches_solver_on_accepted_configs(beta, delta, flow, share,
                                                   n_periods, length):
    """Over the configs ``parse_config`` accepts under uniform offers on
    [0, 1] (``z, c > 0`` and ``z + c < 1``), the closed forms and the
    solver agree to 1e-13, with beliefs at and near both ends of [0, 1]."""
    z = flow * share
    c = flow - z
    assume(z > 0.0 and c > 0.0 and z + c < 1.0)
    params = MarketParams(beta=beta, z=z, c=c, n_periods=n_periods)
    assert oracle_gap(params, ExtensionSpec(delta=delta, length=length)) <= 1e-13
