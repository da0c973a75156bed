import math

import numpy as np
import pytest

from uisearch import (ExtensionSpec, MarketParams, expected_welfare_at_offer,
                      solve_schedules, uniform_closed_form)
from uisearch.closedform import w0_basic_closed_form, w0_extension_closed_form


def test_w0_exact_hand_value(fig3_params):
    # (1 - sqrt(0.05 * 1.152)) / 0.95 with sqrt(0.0576) = 0.24 exactly
    assert math.sqrt((1 - 0.95) * (1 + 0.95 - 2 * 0.95 * 0.42)) == pytest.approx(0.24, abs=1e-15)
    assert w0_basic_closed_form(0.95, 0.42) == pytest.approx(0.8, abs=1e-15)


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
    assert w0_extension_closed_form(0.95, 0.42, 0.0, 0.9) == pytest.approx(
        w0_basic_closed_form(0.95, 0.42), abs=1e-15)


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
