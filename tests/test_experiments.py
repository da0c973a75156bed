import hashlib
import itertools
import math
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uisearch.schedule
from uisearch import (ExtensionSpec, InfeasibleError, MarketParams, UniformOffers,
                      build_policy, calibrate_z, default_calibration,
                      simulate_many, solve_w0_basic, sweep_beliefs, welfare_loss)
from uisearch.config import parse_config
from uisearch.experiments import DELTA_GRID_DEFAULT, LENGTH_GRID_DEFAULT
from uisearch.montecarlo import DEFAULT_CHUNK


def exact_flow(dist, beta, target):
    """Threshold and flow value a duration target implies, as exact
    rationals of the float inputs: an oracle that shares no arithmetic
    with ``calibrate_z``."""
    lo, hi, b, d = map(Fraction, (dist.low, dist.high, beta, target))
    w0 = lo + (1 - 1 / d) * (hi - lo)
    upsilon = (w0 * (w0 - lo) + (hi * hi - w0 * w0) / 2) / (hi - lo)
    return w0, (w0 - b * upsilon) / (1 - b)


def relative_error(value, exact):
    return abs(float((Fraction(value) - exact) / exact))


ORACLE_SUPPORTS = [UniformOffers(), UniformOffers(0.2, 1.7), UniformOffers(-5.0, 1.0)]
ORACLE_BETAS = [0.5, 0.95, 0.99]
# 1e18 puts the threshold within half an ulp of the top on every support.
ORACLE_TARGETS = [1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e18]


class TestCalibrateZ:
    def test_duration_ten(self, uniform):
        z_full = calibrate_z(10.0, 0.95, uniform)
        # duration 10 needs acceptance probability 0.1, so threshold 0.9
        w0, oracle = exact_flow(uniform, 0.95, 10.0)
        assert w0 == Fraction(9, 10)
        assert float(oracle) == pytest.approx(0.805, abs=1e-12)
        assert relative_error(z_full, oracle) < 1e-13

    def test_duration_five(self, uniform):
        assert calibrate_z(5.0, 0.95, uniform) == pytest.approx(0.42, abs=1e-9)

    def test_resolving_hits_target(self, uniform, fig3_params):
        for target in (4.0, 10.0, 25.0):
            z_full = calibrate_z(target, 0.95, uniform)
            w0 = solve_w0_basic(uniform, fig3_params, flow=z_full)
            assert 1 / (1 - uniform.cdf(w0)) == pytest.approx(target, abs=1e-6)

    def test_matches_exact_rational_flow(self):
        """Infeasible exactly where the exact flow is at or below 0 or
        rounds to the top of the support, or the exact threshold rounds
        to an end of it; within 1e-13 of the exact flow elsewhere."""
        cases = list(itertools.product(ORACLE_SUPPORTS, ORACLE_BETAS, ORACLE_TARGETS))
        infeasible = 0
        for dist, beta, target in cases:
            w0, flow = exact_flow(dist, beta, target)
            if flow > 0 and dist.low < float(w0) < dist.high and float(flow) < dist.high:
                assert relative_error(calibrate_z(target, beta, dist), flow) < 1e-13
            else:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    calibrate_z(target, beta, dist)
        assert 0 < infeasible < len(cases)

    @pytest.mark.parametrize("target, beta, dist", [
        (1e13, 0.95, UniformOffers()),
        (1 + 1e-15, 0.5, UniformOffers(0.9, 1.0)),
    ], ids=["long", "barely_above_one"])
    def test_edge_targets_are_feasible(self, target, beta, dist):
        _, exact = exact_flow(dist, beta, target)
        assert relative_error(calibrate_z(target, beta, dist), exact) < 1e-13

    def test_infeasible_targets(self, uniform):
        with pytest.raises(InfeasibleError):
            calibrate_z(1.0, 0.95, uniform)
        with pytest.raises(InfeasibleError):
            calibrate_z(0.5, 0.95, uniform)
        # below the duration implied by a zero flow value
        with pytest.raises(InfeasibleError, match="nonpositive"):
            calibrate_z(2.0, 0.95, uniform)
        for target in (float("nan"), float("inf")):
            with pytest.raises(InfeasibleError, match="finite"):
                calibrate_z(target, 0.95, uniform)
        # the threshold rounds to the bottom of the support
        with pytest.raises(InfeasibleError, match="edge of the support"):
            calibrate_z(math.nextafter(1.0, 2.0), 0.5, UniformOffers(0.9, 1.0))

    def test_target_beyond_top_flow_is_infeasible(self, uniform):
        # the threshold, 1 - 1e-17, rounds to the top of [0, 1]
        with pytest.raises(InfeasibleError, match="edge of the support"):
            calibrate_z(1e17, 0.95, uniform)

    @pytest.mark.xfail(strict=True, raises=InfeasibleError, reason=(
        "upsilon's rounding near the top, scaled by beta / (1 - beta), carries the "
        "computed flow to 1.0 where the exact flow lies five ulps below it "
        "(ROADMAP item 7, thresholds as gaps below the top)"))
    @pytest.mark.parametrize("target", [1.66e15, 2e15])
    def test_flow_five_ulps_below_top_is_feasible(self, uniform, target):
        # `uisearch calibrate --duration 1.66e15 --beta 0.9` exits 4 on the same refusal
        _, exact = exact_flow(uniform, 0.9, target)
        assert float(exact) == 0.9999999999999994
        assert relative_error(calibrate_z(target, 0.9, uniform), exact) < 1e-13

    @pytest.mark.parametrize("beta", [1.5, 1.0, 0.0, float("nan")])
    def test_beta_outside_unit_interval(self, uniform, beta):
        with pytest.raises(ValueError, match="beta") as excinfo:
            calibrate_z(10.0, beta, uniform)
        assert not isinstance(excinfo.value, InfeasibleError)

    @pytest.mark.parametrize("target", [10.0, 1e13])
    def test_makes_no_fixed_point_solve(self, uniform, monkeypatch, target):
        def no_solve(*args, **kwargs):
            raise AssertionError("calibrate_z solved a fixed point")

        monkeypatch.setattr(uisearch.schedule, "_fixed_point", no_solve)
        calibrate_z(target, 0.95, uniform)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(low=st.floats(-5.0, 1.0), width=st.floats(0.01, 5.0),
           beta=st.floats(0.01, 0.99), exponent=st.floats(-16.0, 18.0))
    def test_returned_flows_are_admissible(self, low, width, beta, exponent):
        """Every flow returned passes the solver's and the config's checks,
        split in half as the CLI splits it, and the solved threshold gives
        back the target's acceptance probability to the solver's error."""
        dist = UniformOffers(low, low + width)
        target = 1.0 + 10.0 ** exponent
        try:
            flow = calibrate_z(target, beta, dist)
        except InfeasibleError:
            return
        params = MarketParams(beta=beta, z=0.5 * flow, c=0.5 * flow, n_periods=0)
        w0 = solve_w0_basic(dist, params, flow)
        # The solver stops at the first Newton step that does not rise,
        # where |g| is the rounding of its few-ulp evaluation, far below
        # 1e-12 on these supports; |g'| >= 1 - beta, so the root is off
        # by less than 1e-12 / (1 - beta).
        slack = (1e-12 / (1.0 - beta) + 1e-12) / width
        assert abs((1.0 - dist.cdf(w0)) - 1.0 / target) <= slack
        # Any positive z is interior when the support's bottom is at most
        # beta times its mean; parse_config checks interiority at z alone.
        if dist.low <= beta * dist.mean:
            cfg = parse_config(overrides={
                "beta": beta, "z": params.z, "c": params.c, "N": 0,
                "delta_true": 0.0, "len_true": 1,
                "distribution": {"type": "uniform", "low": dist.low,
                                 "high": dist.high}})
            assert cfg.params == params


class TestDefaultCalibration:
    def test_benchmark_values(self):
        cal = default_calibration()
        assert cal.z_full == pytest.approx(0.805, abs=1e-9)
        assert cal.params.z == pytest.approx(0.4025, abs=1e-9)
        assert cal.params.c == cal.params.z
        assert cal.params.beta == 0.95
        assert cal.params.n_periods == 10
        assert cal.truth == ExtensionSpec(delta=0.5, length=25)

    def test_z_full_is_the_calibrated_flow_bit_for_bit(self):
        assert default_calibration().z_full == calibrate_z(10.0, 0.95, UniformOffers())


@pytest.fixture(scope="module")
def cal():
    return default_calibration()


class TestSweep:
    def test_single_point_at_truth(self, cal):
        rows = sweep_beliefs(cal, vary="delta", grid=[0.5])
        assert len(rows) == 1
        assert abs(rows[0].loss_pct) < 1e-8
        assert rows[0].misperception == 0.0
        assert rows[0].duration_ratio == pytest.approx(1.0, abs=1e-12)

    def test_delta_sweep_shape(self, cal):
        rows = sweep_beliefs(cal, vary="delta", grid=[0.1, 0.3, 0.5, 0.7, 0.9])
        losses = {r.belief_value: r.loss_pct for r in rows}
        assert all(r.loss_pct >= -1e-8 for r in rows)
        assert losses[0.1] > losses[0.9] > 0.0
        for r in rows:
            if r.belief_value < 0.5:
                assert r.duration_ratio < 1.0 and r.wage_gap_pct < 0.0
            elif r.belief_value > 0.5:
                assert r.duration_ratio > 1.0 and r.wage_gap_pct > 0.0

    def test_length_sweep_shape(self, cal):
        rows = sweep_beliefs(cal, vary="len", grid=[5, 15, 25, 35, 45])
        at_truth = [r for r in rows if r.belief_value == 25][0]
        assert abs(at_truth.loss_pct) < 1e-8
        for r in rows:
            if r.belief_value < 25:
                assert r.duration_ratio < 1.0 and r.wage_gap_pct < 0.0
            elif r.belief_value > 25:
                assert r.duration_ratio > 1.0 and r.wage_gap_pct > 0.0

    def test_default_grids(self, cal):
        assert DELTA_GRID_DEFAULT[0] == 0.1 and DELTA_GRID_DEFAULT[-1] == 0.9
        assert 0.5 in DELTA_GRID_DEFAULT
        assert LENGTH_GRID_DEFAULT == tuple(range(5, 46, 5))

    def test_rows_in_grid_order_and_parallel_identical(self, cal):
        grid = [0.2, 0.4, 0.6, 0.8]
        # two blocks per simulation, so mc mode fans out inside simulate_many
        for mode in ("exact", "mc"):
            kwargs = dict(vary="delta", grid=grid, mode=mode, seed=2,
                          spells=DEFAULT_CHUNK + 1)
            serial = sweep_beliefs(cal, **kwargs)
            parallel = sweep_beliefs(cal, n_workers=4, **kwargs)
            assert [r.belief_value for r in serial] == grid
            assert serial == parallel

    def test_mc_mode_agrees_with_exact(self, cal):
        grid = [0.1, 0.9]
        exact = sweep_beliefs(cal, vary="delta", grid=grid)
        mc = sweep_beliefs(cal, vary="delta", grid=grid, mode="mc",
                           seed=17, spells=50_000)
        for e, m in zip(exact, mc):
            assert m.varied_param == e.varied_param
            assert m.duration_ratio == pytest.approx(e.duration_ratio, abs=0.02)
            assert m.wage_gap_pct == pytest.approx(e.wage_gap_pct, abs=0.05)

    def test_mc_mode_zero_loss_at_truth(self, cal):
        rows = sweep_beliefs(cal, vary="delta", grid=[0.5], mode="mc",
                             seed=3, spells=2_000)
        # belief equals truth, same seed: the comparison is exact
        assert rows[0].loss_pct == 0.0

    def test_rows_count_truncated_spells(self, cal):
        kwargs = dict(vary="delta", grid=[0.1, 0.5], seed=3, spells=2_000,
                      max_periods=1)
        assert [r.truncated_count for r in sweep_beliefs(cal, **kwargs)] == [0, 0]
        rows = sweep_beliefs(cal, mode="mc", **kwargs)
        baseline = simulate_many(build_policy(cal.dist, cal.params, cal.truth),
                                 cal.truth, cal.params, cal.dist, 2_000, 3,
                                 max_periods=1).truncated_count
        assert baseline > 0
        assert rows[0].truncated_count > baseline
        # belief equals truth: the row's run is the baseline run, counted twice
        assert rows[1].truncated_count == 2 * baseline

    def test_invalid_arguments(self, cal):
        with pytest.raises(ValueError, match="vary"):
            sweep_beliefs(cal, vary="beta")
        with pytest.raises(ValueError, match="mode"):
            sweep_beliefs(cal, vary="delta", mode="fast")


def _rows_digest(rows):
    """sha256 over the float.hex of every field of every row, in order."""
    text = "\n".join(",".join(v.hex() if isinstance(v, float) else str(v)
                              for v in astuple(row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class TestSweepGolden:
    """Default exact sweeps, recorded with the post-extension chains
    computed afresh for every belief, so reusing them across beliefs is
    checked bit for bit."""

    DIGESTS = {
        ("unit", "delta"): "038f308113e43dcb130ee4affeebddc16ac7c219f65000ed92e2748e3e8c6902",
        ("unit", "len"): "321bfbdf79e8630b8a78c90444ca0b1ab551bc0f107e5fd34191f2575c29e373",
        ("wide", "delta"): "3b881e028bad7a13c790671a57cf85b01d4ea26b9c7109d68427cbfc7aae1532",
        ("wide", "len"): "81dc55b890b3329c62b3e233558178735be5d5f1d47774832b8d86f3dc73ac98",
    }
    SUPPORTS = {"unit": UniformOffers(), "wide": UniformOffers(0.2, 1.7)}

    @pytest.mark.parametrize("support, vary", DIGESTS)
    def test_default_sweep_bits(self, support, vary):
        cal = default_calibration(dist=self.SUPPORTS[support])
        rows = sweep_beliefs(cal, vary=vary)
        assert _rows_digest(rows) == self.DIGESTS[support, vary]
        # each row loses what welfare_loss of its belief does, bit for bit
        for row in rows:
            belief = (ExtensionSpec(row.belief_value, cal.truth.length) if vary == "delta"
                      else ExtensionSpec(cal.truth.delta, int(row.belief_value)))
            assert row.loss_pct == welfare_loss(belief, cal.truth, cal.params, cal.dist)
