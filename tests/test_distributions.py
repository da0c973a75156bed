import numpy as np
import pytest

from uisearch import MarketParams, UniformOffers, validate_assumptions


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

    def test_clamps_outside_support(self, uniform):
        assert uniform.cdf(-3.0) == 0.0
        assert uniform.cdf(7.0) == 1.0

    def test_nondecreasing(self, uniform):
        grid = np.linspace(-0.5, 1.5, 401)
        values = uniform.cdf(grid)
        assert np.all(np.diff(values) >= 0.0)

    def test_shifted_support(self):
        d = UniformOffers(low=2.0, high=5.0)
        assert d.cdf(2.0) == 0.0
        assert d.cdf(5.0) == 1.0
        assert d.cdf(3.5) == pytest.approx(0.5)


class TestPartialExpectation:
    def test_full_support_equals_mean(self, uniform):
        assert uniform.partial_expectation(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_upper_half(self, uniform):
        oracle = quadrature_partial_expectation(uniform, 0.5, 1.0)
        assert oracle == pytest.approx(0.375, abs=1e-10)
        assert uniform.partial_expectation(0.5, 1.0) == pytest.approx(0.375, abs=1e-15)

    def test_empty_interval(self, uniform):
        assert uniform.partial_expectation(0.3, 0.3) == 0.0

    def test_invalid_interval_raises(self, uniform):
        with pytest.raises(ValueError, match="invalid interval"):
            uniform.partial_expectation(0.6, 0.2)

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

    def test_clamps_to_support(self, uniform):
        assert uniform.partial_expectation(-2.0, 2.0) == pytest.approx(0.5, abs=1e-15)


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
        back = dist.cdf(dist.quantile(u))
        assert np.max(np.abs(back - u)) < 1e-12

    def test_empirical_mean(self, uniform):
        n = 1_000_000
        rng = np.random.default_rng(314)
        draws = uniform.quantile(rng.random(n))
        stderr = np.sqrt(1.0 / 12.0 / n)
        assert abs(draws.mean() - uniform.mean) < 4.0 * stderr


class TestValidateAssumptions:
    def test_benchmark_passes(self, uniform):
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=10)
        assert validate_assumptions(uniform, p) == []

    def test_flow_above_support(self, uniform):
        p = MarketParams(beta=0.95, z=1.2, c=0.42, n_periods=10)
        assert validate_assumptions(uniform, p) == ["z + c < w_high"]

    def test_degenerate_discounting(self, uniform):
        p = MarketParams(beta=1.0, z=0.4, c=0.4, n_periods=10)
        assert validate_assumptions(uniform, p) == ["0 < beta < 1"]

    def test_violations_accumulate(self, uniform):
        p = MarketParams(beta=1.5, z=-0.1, c=0.0, n_periods=0)
        violations = validate_assumptions(uniform, p)
        assert "z > 0" in violations
        assert "0 < beta < 1" in violations
        assert "c > 0" in violations


def test_support_must_be_ordered():
    with pytest.raises(ValueError):
        UniformOffers(low=1.0, high=1.0)
