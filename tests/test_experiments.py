import hashlib
from dataclasses import astuple

import numpy as np
import pytest

import uisearch.experiments
from uisearch import (ExtensionSpec, InfeasibleError, UniformOffers, build_policy,
                      calibrate_z, default_calibration, simulate_many,
                      solve_w0_basic, sweep_beliefs)
from uisearch.experiments import DELTA_GRID_DEFAULT, LENGTH_GRID_DEFAULT
from uisearch.montecarlo import DEFAULT_CHUNK
from uisearch.schedule import upsilon


def invert_flow_for_threshold(dist, beta, w0):
    """Independent oracle: solve the fixed point for the flow value."""
    return (w0 - beta * upsilon(dist, w0)) / (1 - beta)


class TestCalibrateZ:
    def test_duration_ten(self, uniform):
        z_full = calibrate_z(10.0, 0.95, uniform)
        # duration 10 needs acceptance probability 0.1, so threshold 0.9
        oracle = invert_flow_for_threshold(uniform, 0.95, 0.9)
        assert oracle == pytest.approx(0.805, abs=1e-12)
        assert z_full == pytest.approx(oracle, abs=1e-9)

    def test_duration_five(self, uniform):
        assert calibrate_z(5.0, 0.95, uniform) == pytest.approx(0.42, abs=1e-9)

    def test_resolving_hits_target(self, uniform, fig3_params):
        for target in (4.0, 10.0, 25.0):
            z_full = calibrate_z(target, 0.95, uniform)
            w0 = solve_w0_basic(uniform, fig3_params, flow=z_full)
            assert 1 / (1 - uniform.cdf(w0)) == pytest.approx(target, abs=1e-6)

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

    def test_target_beyond_top_flow_is_infeasible(self, uniform):
        # the top of the flow range gives about 5e10 periods on [0, 1]
        with pytest.raises(InfeasibleError, match="longest reachable"):
            calibrate_z(1e13, 0.95, uniform)

    @pytest.mark.parametrize("target, solves", [(10.0, 41), (1e13, 42)])
    def test_only_unreached_targets_cost_an_extra_solve(self, uniform, monkeypatch,
                                                       target, solves):
        calls = []
        solve = uisearch.experiments.solve_w0_basic

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(uisearch.experiments, "solve_w0_basic", counting)
        try:
            calibrate_z(target, 0.95, uniform)
        except InfeasibleError:
            pass
        assert len(calls) == solves


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
    """Default exact sweeps recorded before the evaluator reused the
    post-extension chains across beliefs, so "bit for bit" is checked."""

    DIGESTS = {
        ("unit", "delta"): "71ee566fbf56eb4b3391eaa2dc18c5aaffbf8edc1aee4f0d8c9834379c2f287b",
        ("unit", "len"): "08ec41e843c5e4c47d50d7dac6b9c391319c0c6a599e2276991047157cb18725",
        ("wide", "delta"): "4d141d025f46e07a7734fef4f15c0e96a1a50660009ecf12d6a5bcb80bd19d8c",
        ("wide", "len"): "00b312509027d2ff51fe18a3d9a03f4763891cbd0a1c4662409fb32f3c69cad3",
    }
    SUPPORTS = {"unit": UniformOffers(), "wide": UniformOffers(0.2, 1.7)}

    @pytest.mark.parametrize("support, vary", DIGESTS)
    def test_default_sweep_bits(self, support, vary):
        cal = default_calibration(dist=self.SUPPORTS[support])
        rows = sweep_beliefs(cal, vary=vary)
        assert _rows_digest(rows) == self.DIGESTS[support, vary]
