import json
import math
import numbers
from collections import Counter

import numpy as np
import pytest

from uisearch import (CounterStream, ExtensionSpec, MarketParams, UniformOffers,
                      build_policy, calibrate_z, default_calibration, evaluate_policy,
                      reservation_identity_residual, simulate_many, simulate_spell,
                      solve_schedules, sweep_beliefs, welfare_loss)
from uisearch.cli import main
from uisearch.evaluate import evaluate_beliefs
from uisearch.experiments import Calibration
from uisearch.schedule import (build_basic_schedule, build_extension_schedule,
                               solve_w0_basic, solve_w0_extension)


def quadrature_partial_expectation(dist, a, b, n=200_001):
    """Independent oracle: int_a^b w dF(w) by trapezoidal quadrature."""
    w = np.linspace(a, b, n)
    density = 1.0 / (dist.high - dist.low)
    return np.trapezoid(w * density, w)


class TestCdf:
    def test_support_endpoints(self, uniform):
        assert uniform.cdf(0.0) == 0.0
        assert uniform.cdf(1.0) == 1.0

    def test_identity_on_unit_interval(self, uniform):
        assert uniform.cdf(0.42) == pytest.approx(0.42, abs=0)

    def test_nondecreasing(self, uniform):
        grid = np.linspace(0.0, 1.0, 401)
        values = np.array([uniform.cdf(x) for x in grid])
        assert np.all(np.diff(values) >= 0.0)

    def test_shifted_support(self):
        d = UniformOffers(low=2.0, high=5.0)
        assert d.cdf(2.0) == 0.0
        assert d.cdf(5.0) == 1.0
        assert d.cdf(3.5) == pytest.approx(0.5)


class TestSurvival:
    def test_support_endpoints_and_clamps(self, uniform):
        assert uniform.sf(0.0) == 1.0 and uniform.sf(1.0) == 0.0
        assert uniform.sf(-3.0) == 1.0 and uniform.sf(7.0) == 0.0

    def test_complements_cdf(self):
        d = UniformOffers(low=-5.0, high=1.0)
        for x in np.linspace(-5.0, 1.0, 61):
            assert d.sf(x) + d.cdf(x) == pytest.approx(1.0, abs=1e-15)

    def test_resolves_an_ulp_below_the_top(self):
        # (x + 5) / 6 rounds to 1 here, so 1 - cdf(x) would be 0
        d = UniformOffers(low=-5.0, high=1.0)
        x = math.nextafter(1.0, 0.0)
        assert d.cdf(x) == 1.0
        assert d.sf(x) == (1.0 - x) / 6.0 > 0.0


class TestPartialExpectation:
    def test_full_support_equals_mean(self, uniform):
        assert uniform.partial_expectation(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_upper_half(self, uniform):
        oracle = quadrature_partial_expectation(uniform, 0.5, 1.0)
        assert oracle == pytest.approx(0.375, abs=1e-10)
        assert uniform.partial_expectation(0.5, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_empty_interval(self, uniform):
        assert uniform.partial_expectation(0.3, 0.3) == 0.0

    @pytest.mark.parametrize("dist", [UniformOffers(), UniformOffers(2.0, 5.0)])
    def test_additive_over_adjacent_intervals(self, dist):
        rng = np.random.default_rng(7)
        lo, hi = dist.low, dist.high
        for _ in range(200):
            a, m, b = np.sort(rng.uniform(lo, hi, size=3))
            left = dist.partial_expectation(a, m)
            right = dist.partial_expectation(m, b)
            whole = dist.partial_expectation(a, b)
            assert left + right == pytest.approx(whole, abs=1e-12)


class TestDomain:
    # cdf and partial_expectation price thresholds only: they refuse what
    # no threshold can be instead of clamping it, and sf still clamps.
    @pytest.mark.parametrize("member, args", [
        ("cdf", (1.999,)), ("cdf", (5.001,)), ("cdf", (math.nan,)),
        ("partial_expectation", (1.999, 3.0)), ("partial_expectation", (3.0, 5.001)),
        ("partial_expectation", (math.nan, 5.0)), ("partial_expectation", (2.0, math.nan)),
        ("partial_expectation", (4.0, 3.0)),
    ], ids=["cdf-below", "cdf-above", "cdf-nan", "pe-below", "pe-above", "pe-nan-a",
            "pe-nan-b", "pe-reversed"])
    def test_refuses_arguments_outside_the_support(self, member, args):
        with pytest.raises(ValueError, match=r"support \[2\.0, 5\.0\]"):
            getattr(UniformOffers(2.0, 5.0), member)(*args)


class TestSampling:
    def test_quantile_is_identity_on_uniform(self, uniform):
        assert uniform.quantile(0.0) == 0.0
        assert uniform.quantile(0.75) == 0.75
        assert uniform.quantile(0.999) == 0.999
        u = np.array([0.0, 0.25, 0.999])
        assert np.array_equal(uniform.quantile(u), u)

    @pytest.mark.parametrize("dist", [UniformOffers(), UniformOffers(2.0, 5.0)])
    def test_cdf_quantile_round_trip(self, dist):
        u = np.linspace(0.0, 1.0, 1000)
        back = np.array([dist.cdf(x) for x in dist.quantile(u)])
        assert np.max(np.abs(back - u)) < 1e-12

    def test_empirical_mean(self, uniform):
        n = 1_000_000
        rng = np.random.default_rng(314)
        draws = uniform.quantile(rng.random(n))
        stderr = np.sqrt(1.0 / 12.0 / n)
        assert abs(draws.mean() - uniform.mean) < 4.0 * stderr


class ScalarOnlyUniform(UniformOffers):
    """Uniform offers that count ``cdf``, ``sf`` and ``partial_expectation``
    calls, keep each call's method and first argument in ``thresholds``,
    and reject any argument that is not one real number."""

    def __init__(self, low=0.0, high=1.0):
        super().__init__(low=low, high=high)
        object.__setattr__(self, "calls", Counter())
        object.__setattr__(self, "thresholds", [])

    def _count(self, name, *args):
        if not all(isinstance(a, numbers.Real) for a in args):
            raise TypeError(f"{name} called with {args!r}")
        self.calls[name] += 1
        self.thresholds.append((name, args[0]))

    def cdf(self, x):
        self._count("cdf", x)
        return super().cdf(x)

    def sf(self, x):
        self._count("sf", x)
        return super().sf(x)

    def partial_expectation(self, a, b):
        self._count("partial_expectation", a, b)
        return super().partial_expectation(a, b)


TRAFFIC_PARAMS = MarketParams(beta=0.95, z=0.8, c=0.6, n_periods=10)
TRAFFIC_BELIEF = ExtensionSpec(delta=0.1, length=25)
TRAFFIC_TRUTH = ExtensionSpec(delta=0.5, length=30)
TRAFFIC_CONFIG = {"beta": 0.95, "z": 0.8, "c": 0.6, "N": 10,
                  "delta_true": 0.5, "len_true": 30,
                  "delta_belief": 0.1, "len_belief": 25,
                  "distribution": {"type": "uniform", "low": 0.2, "high": 1.7}}


def _traffic_sweep(vary, grid):
    return lambda dist: sweep_beliefs(
        Calibration(TRAFFIC_PARAMS, dist, TRAFFIC_TRUTH, 10.0),
        vary=vary, grid=grid)


# Every exact-path entry point; the benchmark's traced census reads both
# call counts, so each path must keep calling both.
EXACT_PATHS = {
    "solve_schedules": lambda dist: solve_schedules(dist, TRAFFIC_PARAMS,
                                                    TRAFFIC_BELIEF),
    "identity_residual": lambda dist: reservation_identity_residual(
        dist, solve_schedules(dist, TRAFFIC_PARAMS, TRAFFIC_BELIEF)),
    "evaluate_policy": lambda dist: evaluate_policy(
        build_policy(dist, TRAFFIC_PARAMS, TRAFFIC_BELIEF,
                     true_length=TRAFFIC_TRUTH.length),
        TRAFFIC_TRUTH, TRAFFIC_PARAMS, dist),
    "sweep_delta": _traffic_sweep("delta", [0.1, 0.9]),
    "sweep_len": _traffic_sweep("len", [20, 40]),
    "calibrate_z": lambda dist: calibrate_z(10.0, 0.95, dist),
}


class TestScalarTraffic:
    def test_guard_rejects_arrays(self):
        with pytest.raises(TypeError):
            ScalarOnlyUniform().cdf(np.zeros(2))
        with pytest.raises(TypeError):
            ScalarOnlyUniform().partial_expectation(0.1, np.ones(1))

    @pytest.mark.parametrize("name", EXACT_PATHS)
    def test_exact_paths_call_both_with_scalars(self, name):
        dist = ScalarOnlyUniform(0.2, 1.7)
        EXACT_PATHS[name](dist)
        assert dist.calls["cdf"] > 0
        assert dist.calls["partial_expectation"] > 0

    @pytest.mark.parametrize("entry, grid", [
        ("delta", [0.1, 0.5, 0.9]), ("len", [20, 30, 40]),
        pytest.param("welfare_loss", None, id="welfare_loss"),
        pytest.param("evaluate", None, id="cli_evaluate")])
    def test_sweep_runs_each_post_chain_entry_once(self, monkeypatch, tmp_path,
                                                   entry, grid):
        # Every belief comparison, a sweep, welfare_loss or the evaluate
        # command, solves one basic schedule. Outside the zero-entitlement
        # solvers, whose Newton steps price their own iterates, the
        # distribution prices each basic entry and each belief's
        # pre-extension thresholds exactly once: the post chains and the
        # evaluations reuse the prices the builders made.
        built = []

        def recording(builder):
            def build(dist, *args):
                built.append((builder, dist, builder(dist, *args)))
                return built[-1][2]
            return build

        def forgetting(solver):
            def solve(dist, *args):
                start = len(dist.thresholds)
                try:
                    return solver(dist, *args)
                finally:
                    del dist.thresholds[start:]
            return solve

        for builder in (build_basic_schedule, build_extension_schedule):
            monkeypatch.setattr(f"uisearch.evaluate.{builder.__name__}",
                                recording(builder))
        for solver in (solve_w0_basic, solve_w0_extension):
            monkeypatch.setattr(f"uisearch.schedule.{solver.__name__}",
                                forgetting(solver))
        dist = ScalarOnlyUniform(0.2, 1.7)
        if entry == "welfare_loss":
            welfare_loss(TRAFFIC_BELIEF, TRAFFIC_TRUTH, TRAFFIC_PARAMS, dist)
        elif entry == "evaluate":
            monkeypatch.setattr("uisearch.config.UniformOffers", ScalarOnlyUniform)
            path = tmp_path / "traffic.json"
            path.write_text(json.dumps(TRAFFIC_CONFIG))
            assert main(["evaluate", "--config", str(path)]) == 0
            dist = built[0][1]
        else:
            rows = _traffic_sweep(entry, grid)(dist)
            assert len(rows) == len(grid)
        assert [builder for builder, _, _ in built].count(build_basic_schedule) == 1
        assert all(used is dist for _, used, _ in built)
        # the baseline and every belief share the prices of one basic schedule
        thresholds = Counter(x for _, _, wages in built for x in wages)
        for method in ("cdf", "partial_expectation"):
            assert Counter(x for name, x in dist.thresholds if name == method) \
                == thresholds, method

    @pytest.mark.parametrize("entry", ["solve_schedules", "evaluate_beliefs", "sweep_pass"])
    def test_every_cdf_read_comes_with_its_tail(self, entry):
        # _price reads both for each threshold it prices, and nothing else
        # reads either: Newton's slope is the rejection probability of the
        # price its step already took. The benchmark's census of a default
        # delta-plus-length sweep pass reads the two counts.
        dist = ScalarOnlyUniform()
        cal = default_calibration(truth=ExtensionSpec(delta=0.4, length=20), dist=dist)
        dist.calls.clear()
        if entry == "solve_schedules":
            solve_schedules(dist, cal.params, TRAFFIC_BELIEF)
        elif entry == "evaluate_beliefs":
            evaluate_beliefs([TRAFFIC_BELIEF, cal.truth], cal.truth, cal.params, dist)
        else:
            sweep_beliefs(cal, vary="delta")
            sweep_beliefs(cal, vary="len")
        assert dist.calls["cdf"] == dist.calls["partial_expectation"] > 0


def test_support_must_be_ordered():
    with pytest.raises(ValueError):
        UniformOffers(low=1.0, high=1.0)


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (-1.35e154, 1.35e154),
                                       (0.0, 1.35e154), (-1.35e154, 0.0)])
def test_support_must_square_to_finite_floats(low, high):
    # partial_expectation forms high**2 - low**2, which would be inf - inf.
    with pytest.raises(ValueError, match="square to finite floats"):
        UniformOffers(low=low, high=high)


def test_widest_accepted_support_keeps_finite_expectations():
    d = UniformOffers(low=-1.3e154, high=1.3e154)
    assert d.partial_expectation(d.low, d.high) == d.mean == 0.0
    assert d.partial_expectation(0.0, d.high) == 3.25e153


class DelegatingOffers:
    """Not a ``UniformOffers``: only the seven members the package calls on
    a distribution, each taken from one. ``__slots__`` admits no others."""

    __slots__ = ("_inner", "low", "high", "mean")

    def __init__(self, inner):
        self._inner = inner
        self.low, self.high, self.mean = inner.low, inner.high, inner.mean

    def cdf(self, x):
        return self._inner.cdf(x)

    def sf(self, x):
        return self._inner.sf(x)

    def partial_expectation(self, a, b):
        return self._inner.partial_expectation(a, b)

    def quantile(self, u):
        return self._inner.quantile(u)


def _solved(dist):
    schedule = solve_schedules(dist, TRAFFIC_PARAMS, TRAFFIC_BELIEF)
    return (schedule._basic, schedule._with_extension,
            reservation_identity_residual(dist, schedule))


def _simulated(dist):
    policy = build_policy(dist, TRAFFIC_PARAMS, TRAFFIC_BELIEF,
                          true_length=TRAFFIC_TRUTH.length)
    spell = simulate_spell(policy, TRAFFIC_TRUTH, TRAFFIC_PARAMS, dist,
                           CounterStream(7, 3))
    return spell, simulate_many(policy, TRAFFIC_TRUTH, TRAFFIC_PARAMS, dist, 3000, 7)


class TestInterfaceWithoutBaseClass:
    """Any object with the seven members serves as the offer distribution:
    each entry point gives the same bits through one as through the
    ``UniformOffers`` it forwards to."""

    INNER = UniformOffers(low=0.2, high=1.7)

    def test_the_stand_in_has_only_the_seven_members(self):
        stand_in = DelegatingOffers(self.INNER)
        assert not isinstance(stand_in, UniformOffers)
        assert {name for name in dir(stand_in) if not name.startswith("_")} == {
            "low", "high", "mean", "cdf", "sf", "partial_expectation", "quantile"}

    @pytest.mark.parametrize("run", [
        _solved,
        lambda d: evaluate_beliefs([TRAFFIC_BELIEF, TRAFFIC_TRUTH], TRAFFIC_TRUTH,
                                   TRAFFIC_PARAMS, d),
        lambda d: [sweep_beliefs(Calibration(TRAFFIC_PARAMS, d, TRAFFIC_TRUTH, math.nan),
                                 vary=vary) for vary in ("delta", "len")],
        lambda d: (calibrate_z(10.0, 0.95, d), default_calibration(dist=d).params),
        _simulated,
    ], ids=["solve_schedules", "evaluate_beliefs", "sweep_beliefs", "calibrate_z",
            "simulate"])
    def test_same_bits_as_the_uniform_it_forwards_to(self, run):
        # repr prints each float's shortest round-trip form, so equal reprs
        # are equal bits.
        assert repr(run(DelegatingOffers(self.INNER))) == repr(run(self.INNER))
