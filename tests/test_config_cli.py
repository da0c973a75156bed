import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import uisearch
from uisearch import (ConfigError, build_policy, cli, simulate_many, solve_schedules,
                      solve_w0_basic, welfare_loss)
from uisearch.cli import MAX_GRID_POINTS, _parse_grid, main
from uisearch.config import parse_config
from uisearch.evaluate import PolicyProfile

from conftest import (ACCEPTED_WAGE_LEAVES_SUPPORT, FLOW_AN_ULP_BELOW_TOP,
                      ROUNDED_TO_CERTAIN_REJECTION)

BENCHMARK = {
    "beta": 0.95, "z": 0.4025, "c": 0.4025, "N": 10,
    "delta_true": 0.5, "len_true": 25,
    "delta_belief": 0.1, "len_belief": 25,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BENCHMARK))
    return str(path)


class TestParseConfig:
    def test_benchmark_file(self, config_path):
        cfg = parse_config(config_path)
        assert cfg.params.beta == 0.95
        assert cfg.params.n_periods == 10
        assert cfg.truth.delta == 0.5 and cfg.truth.length == 25
        assert cfg.belief.delta == 0.1
        assert cfg.max_periods == 2_000 and cfg.spells == 1_000_000

    def test_idempotent_under_empty_overrides(self, config_path):
        assert parse_config(config_path) == parse_config(config_path, overrides={})

    def test_belief_defaults_to_truth(self, tmp_path):
        path = tmp_path / "run.json"
        data = {k: v for k, v in BENCHMARK.items()
                if k not in ("delta_belief", "len_belief")}
        path.write_text(json.dumps(data))
        cfg = parse_config(str(path))
        assert cfg.belief == cfg.truth

    def test_overrides_win(self, config_path):
        cfg = parse_config(config_path, overrides={"spells": 5, "seed": 9})
        assert cfg.spells == 5 and cfg.seed == 9

    def test_beta_out_of_range_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, "beta": 1.2}))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert excinfo.value.field == "beta"

    def test_flow_above_support_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, "z": 0.7, "c": 0.7}))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert excinfo.value.field == "c"

    @pytest.mark.parametrize("fields, blamed", [
        ({"beta": 1.0}, "beta"), ({"beta": 0.0}, "beta"),
        ({"z": 0.0}, "z"), ({"c": 0.0}, "c"),
    ], ids=["beta_one", "beta_zero", "z_zero", "c_zero"])
    def test_range_checks_cover_model_conditions(self, tmp_path, fields, blamed):
        # 0 < beta < 1, z > 0 and c > 0 are range checks on single fields
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, **fields}))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert excinfo.value.field == blamed

    @pytest.mark.parametrize("fields, message", [
        ({"distribution": {"type": "uniform", "low": 0.95, "high": 1.0}, "z": 0.01},
         "z: solver assumption violated: w_low < (1 - beta) * z + beta * mean_wage"),
        ({"z": 0.7, "c": 0.7}, "c: solver assumption violated: z + c < w_high"),
        # interiority is checked first when both conditions fail
        ({"distribution": {"type": "uniform", "low": 0.95, "high": 1.0},
          "z": 0.01, "c": 2.0},
         "z: solver assumption violated: w_low < (1 - beta) * z + beta * mean_wage"),
    ], ids=["interiority", "flow_above_support", "both"])
    def test_model_condition_names_field(self, tmp_path, capsys, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, **fields}))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert str(excinfo.value) == message
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "bad.json"
        data = {k: v for k, v in BENCHMARK.items() if k != "beta"}
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert excinfo.value.field == "beta"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, "gamma": 1.0}))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert excinfo.value.field == "gamma"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        # the second integer has more digits than int() converts
        for text in ("{not json", '{"z": 1' + "0" * 5000 + "}"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                parse_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.json"))

    def test_distribution_descriptor(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            **BENCHMARK,
            "distribution": {"type": "uniform", "low": 0.0, "high": 1.0}}))
        cfg = parse_config(str(path))
        assert cfg.distribution.low == 0.0 and cfg.distribution.high == 1.0

    @pytest.mark.parametrize("descriptor, message", [
        ({"type": "uniform", "low": "0", "high": float("inf")},
         "low and high must be numbers"),
        ({"type": "uniform", "low": float("nan")}, "low and high must be finite"),
        ({"type": "uniform", "low": 1, "high": 0.5, "lo": 0},
         "low must be strictly less than high"),
        ({"type": "uniform", "lo": 0.5, "hi": 1.0},
         "unknown keys ['hi', 'lo']: expected only 'type', 'low' and 'high'"),
    ], ids=["not_number_first", "not_finite", "order_before_keys", "typos"])
    def test_distribution_error_lines(self, tmp_path, capsys, descriptor, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, "distribution": descriptor}))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: distribution: {message}\n"

    @pytest.mark.parametrize("data, message", [
        ({**BENCHMARK, "N": 2.5}, "N: expected an integer, got 2.5"),
        ({**BENCHMARK, "N": True}, "N: expected an integer, got True"),
        ({**BENCHMARK, "N": -1}, "N: value -1 must be at least 0"),
        ({**BENCHMARK, "spells": 0}, "spells: value 0 must be at least 1"),
        ({**BENCHMARK, "len_true": 0}, "len_true: value 0 must be at least 1"),
        ({**BENCHMARK, "distribution": 5},
         "distribution: expected an object with a 'type' key"),
        ({**BENCHMARK, "distribution": {"low": 0}},
         "distribution: expected an object with a 'type' key"),
        ([], "config: top-level JSON value must be an object"),
    ], ids=["N_fraction", "N_bool", "N_negative", "spells_zero", "len_true_zero",
            "distribution_number", "distribution_untyped", "top_level_list"])
    def test_shape_error_lines(self, tmp_path, capsys, monkeypatch, data, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr("uisearch.cli.solve_schedules", no_solve)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("bound", [1e308, 1.35e154])
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_support_whose_squares_overflow_rejected_before_work(
            self, tmp_path, capsys, monkeypatch, command, bound):
        # The ends square to inf, so the offer tail high**2 - low**2 would be
        # inf - inf: unchecked, solve printed nan wages and simulate ended in
        # a "not JSON compliant: inf" traceback.
        def no_policy(*args, **kwargs):
            raise AssertionError("built a policy before the config was checked")

        monkeypatch.setattr("uisearch.cli.solve_schedules", no_policy)
        monkeypatch.setattr("uisearch.cli.build_policy", no_policy)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**BENCHMARK, "distribution": {
            "type": "uniform", "low": -bound, "high": bound}}))
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: distribution: low and high must square to "
                                "finite floats: magnitudes up to about 1.34e154\n")

    def test_unsupported_distribution(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK,
                                    "distribution": {"type": "lognormal"}}))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(str(path))
        assert excinfo.value.field == "distribution"


class TestCli:
    def test_solve_round_trip(self, config_path, capsys):
        assert main(["solve", "--config", config_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,w_basic,w_ext"
        n_periods, length = BENCHMARK["N"], BENCHMARK["len_belief"]
        assert len(lines) - 1 == n_periods - 1 + length + 1
        for raw in lines[1:]:
            n, w_basic, w_ext = raw.split(",")
            # printed with 12 significant digits and re-readable
            assert format(float(w_basic), ".12g") == w_basic
            if int(n) <= n_periods:
                assert format(float(w_ext), ".12g") == w_ext
            else:
                assert w_ext == ""

    def test_solve_to_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "schedule.csv"
        assert main(["solve", "--config", config_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("n,w_basic,w_ext\n")

    @pytest.mark.parametrize("command", [
        ["solve"], ["simulate", "--spells", "200"], ["calibrate", "--duration", "10"]],
        ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target, reason", [
        ("missing/x.csv", "No such file or directory"), (".", "Is a directory")],
        ids=["missing_directory", "a_directory"])
    def test_unwritable_out_is_config_error(self, config_path, tmp_path, capsys,
                                            monkeypatch, command, target, reason):
        from uisearch import montecarlo

        def no_spells(*args, **kwargs):
            raise AssertionError("spells ran before --out was checked")

        monkeypatch.setattr(montecarlo, "simulate_many", no_spells)
        name, *rest = command
        config = [] if name == "calibrate" else ["--config", config_path]
        out = str(tmp_path / target)
        assert main([name, *config, *rest, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out: cannot write {out}: {reason}\n"

    @pytest.mark.parametrize("command, work", [
        (["solve"], "solve_schedules"), (["evaluate"], "evaluate_beliefs"),
        (["simulate"], "build_policy"), (["sweep"], "sweep_beliefs"),
        (["calibrate", "--duration", "10"], "calibrate_z")],
        ids=["solve", "evaluate", "simulate", "sweep", "calibrate"])
    def test_unwritable_out_refused_before_work(self, config_path, tmp_path, capsys,
                                                monkeypatch, command, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(f"uisearch.cli.{work}", no_work)
        name, *rest = command
        config = [] if name == "calibrate" else ["--config", config_path]
        out = str(tmp_path / "missing" / "x")
        assert main([name, *config, *rest, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: out: cannot write {out}: No such file or directory\n")
        assert not (tmp_path / "missing").exists()

    def test_empty_out_refused_before_any_spell(self, config_path, capsys, monkeypatch):
        from uisearch import montecarlo

        def no_spells(*args, **kwargs):
            raise AssertionError("spells ran before --out was checked")

        monkeypatch.setattr(montecarlo, "simulate_many", no_spells)
        assert main(["simulate", "--config", config_path, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out: cannot write : No such file or directory\n"

    @pytest.mark.parametrize("command", [
        ["solve"], ["evaluate"], ["simulate", "--spells", "500"],
        ["simulate", "--spells", "500", "--trace", "5"], ["sweep", "--vary", "len"],
        ["calibrate", "--duration", "10"]],
        ids=["solve", "evaluate", "simulate", "simulate_trace", "sweep", "calibrate"])
    def test_out_file_holds_the_stdout_bytes(self, config_path, tmp_path, capsys,
                                             command):
        name, *rest = command
        config = [] if name == "calibrate" else ["--config", config_path]
        assert main([name, *config, *rest]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "data.txt"
        assert main([name, *config, *rest, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_config_error_comes_before_out(self, tmp_path, capsys):
        config, out = tmp_path / "absent.json", tmp_path / "missing" / "x.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: cannot read {config}")

    def test_failed_run_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        assert main(["calibrate", "--duration", "1", "--out", str(out)]) == 4
        assert not out.exists()

    def test_evaluate_json(self, config_path, capsys):
        assert main(["evaluate", "--config", config_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"welfare", "duration", "accepted_wage", "loss_pct"}
        assert payload["loss_pct"] > 0  # belief 0.1 misperceives truth 0.5
        cfg = parse_config(config_path)
        assert payload["loss_pct"] == welfare_loss(cfg.belief, cfg.truth, cfg.params,
                                                   cfg.distribution)

    def test_simulate_json_and_trace(self, config_path, capsys):
        assert main(["simulate", "--config", config_path, "--spells", "2000",
                     "--seed", "7", "--trace", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("spell,duration,accepted_wage,welfare,extended,"
                          "extension_period,truncated")
        assert len(out) == 1 + 3 + 1
        summary = json.loads(out[-1])
        assert summary["n_spells"] == 2000
        assert summary["truncated_count"] == 0
        assert capsys.readouterr().err == ""

    def test_truncation_warns_on_stderr_only(self, config_path, capsys):
        assert main(["simulate", "--config", config_path, "--spells", "1000",
                     "--max-periods", "1"]) == 0
        captured = capsys.readouterr()
        cfg = parse_config(config_path, overrides={"spells": 1000, "max_periods": 1})
        policy = build_policy(cfg.distribution, cfg.params, cfg.belief,
                              true_length=cfg.truth.length)
        summary = simulate_many(policy, cfg.truth, cfg.params, cfg.distribution,
                                1000, cfg.seed, max_periods=1)
        assert summary.truncated_count > 0
        # stdout is exactly the data a warning-free run would print
        assert captured.out == json.dumps(asdict(summary)) + "\n"
        assert captured.err == (
            f"warning: {summary.truncated_count} of 1000 spells truncated at "
            "max_periods=1; means cover completed spells only\n")

    @pytest.mark.parametrize("completed", [0, 1])
    def test_undefined_statistics_are_json_null(self, tmp_path, capsys, monkeypatch,
                                               completed):
        # max_periods 1 and thresholds above the support complete no
        # spell; a single spell completes one. A mean over no spell and a
        # standard error over fewer than two are undefined.
        path = tmp_path / "run.json"
        if completed == 0:
            def above_support(dist, params, belief, **kwargs):
                top = dist.high + 0.1
                return PolicyProfile(
                    pre_thresholds=np.full(params.n_periods + 1, top),
                    post_thresholds=np.full(params.n_periods + belief.length + 1, top))

            monkeypatch.setattr(cli, "build_policy", above_support)
            path.write_text(json.dumps({**BENCHMARK, "max_periods": 1, "spells": 50}))
        else:
            path.write_text(json.dumps({**BENCHMARK, "spells": 1}))
        assert main(["simulate", "--config", str(path)]) == 0

        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        summary = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        means = ("welfare_mean", "duration_mean", "wage_mean")
        stderrs = ("welfare_stderr", "duration_stderr", "wage_stderr")
        assert all(summary[key] is None for key in stderrs)
        assert all((summary[key] is None) == (completed == 0) for key in means)
        assert summary["truncated_count"] == summary["n_spells"] - completed

    def test_spells_beyond_index_space_rejected_before_work(self, config_path,
                                                            capsys, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("simulate_block ran before the count was checked")

        monkeypatch.setattr("uisearch.montecarlo.simulate_block", no_block)
        at_limit = parse_config(config_path, overrides={"spells": 1 << 32})
        assert at_limit.spells == 1 << 32
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_path, overrides={"spells": (1 << 32) + 1})
        assert excinfo.value.field == "spells"
        assert main(["simulate", "--config", config_path,
                     "--spells", "5000000000"]) == 2
        assert capsys.readouterr().err.startswith("error: spells")

    def test_seed_beyond_one_word_rejected_before_work(self, config_path, capsys,
                                                       monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("simulate_block ran before the seed was checked")

        monkeypatch.setattr("uisearch.montecarlo.simulate_block", no_block)
        at_limit = parse_config(config_path, overrides={"seed": (1 << 64) - 1})
        assert at_limit.seed == (1 << 64) - 1
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_path, overrides={"seed": 1 << 64})
        assert excinfo.value.field == "seed"
        # 2**64 + 1 masked to 64 bits is seed 1
        assert main(["simulate", "--config", config_path, "--spells", "10",
                     "--seed", "18446744073709551617"]) == 2
        assert capsys.readouterr().err.startswith("error: seed")

    def test_max_periods_beyond_draw_counter_rejected_before_work(self, config_path,
                                                                  capsys, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("simulate_block ran before max_periods was checked")

        monkeypatch.setattr("uisearch.montecarlo.simulate_block", no_block)
        at_limit = parse_config(config_path, overrides={"max_periods": 1 << 30})
        assert at_limit.max_periods == 1 << 30
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_path, overrides={"max_periods": (1 << 30) + 1})
        assert excinfo.value.field == "max_periods"
        assert main(["simulate", "--config", config_path, "--spells", "10",
                     "--max-periods", "2000000000"]) == 2
        assert capsys.readouterr().err.startswith("error: max_periods")

    @pytest.mark.parametrize("field, read", [
        ("N", lambda cfg: cfg.params.n_periods),
        ("len_true", lambda cfg: cfg.truth.length),
        ("len_belief", lambda cfg: cfg.belief.length)], ids=["N", "len_true", "len_belief"])
    def test_entitlement_beyond_longest_rejected_before_work(self, tmp_path, capsys,
                                                            monkeypatch, field, read):
        # A schedule holds one wage per period of entitlement, so 10**12
        # periods ran out of memory building the first one.
        def no_schedule(*args, **kwargs):
            raise AssertionError(f"solved before {field} was checked")

        for module in ("schedule", "evaluate"):
            monkeypatch.setattr(f"uisearch.{module}.build_basic_schedule", no_schedule)
        assert read(parse_config(overrides={**BENCHMARK, field: 1 << 16})) == 1 << 16
        with pytest.raises(ConfigError) as excinfo:
            parse_config(overrides={**BENCHMARK, field: (1 << 16) + 1})
        assert excinfo.value.field == field
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**BENCHMARK, field: 10**12}))
        for command in (["solve"], ["evaluate"], ["simulate", "--spells", "10"],
                        ["sweep", "--vary", "len"]):
            assert main([*command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {field}: value 1000000000000 exceeds "
                                    "2**16 periods, the longest entitlement\n")

    def test_sweep_truncation_warns_on_stderr_only(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({**BENCHMARK, "max_periods": 1}))
        assert main(["sweep", "--config", str(path), "--mode", "mc",
                     "--spells", "1000", "--grid", "0.1:0.9:0.8"]) == 0
        captured = capsys.readouterr()
        # stdout is the CSV alone
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert [line.split(",")[1] for line in lines[1:]] == ["0.1", "0.9"]
        assert captured.err == (
            "warning: spells truncated at max_periods=1 in the runs behind "
            "2 of 2 rows; means cover completed spells only\n")
        assert main(["sweep", "--config", str(path), "--grid", "0.1:0.9:0.8"]) == 0
        assert capsys.readouterr().err == ""

    def test_simulate_threads_do_not_change_output(self, config_path, capsys):
        main(["simulate", "--config", config_path, "--spells", "30000",
              "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", "--config", config_path, "--spells", "30000",
              "--seed", "5", "--threads", "8"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command, threads", [(["simulate"], "0"),
                                                  (["simulate"], "-1"),
                                                  (["sweep", "--mode", "mc"], "0"),
                                                  (["sweep"], "-3")])
    def test_threads_below_one_rejected(self, config_path, capsys, monkeypatch,
                                        command, threads):
        def no_config(*args, **kwargs):
            raise AssertionError("the config was read before --threads was checked")

        monkeypatch.setattr("uisearch.cli.parse_config", no_config)
        assert main([*command, "--config", config_path, "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: threads: expected at least 1 worker "
                                f"process, got {threads}\n")

    def test_negative_trace_rejected(self, config_path, capsys, monkeypatch):
        def no_config(*args, **kwargs):
            raise AssertionError("the config was read before --trace was checked")

        monkeypatch.setattr("uisearch.cli.parse_config", no_config)
        assert main(["simulate", "--config", config_path, "--trace", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace: expected at least 0 spell records, got -3\n"

    def test_sweep_csv_schema(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--vary", "delta",
                     "--grid", "0.3:0.7:0.2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("varied_param,belief_value,misperception,"
                            "loss_pct,duration_ratio,wage_gap_pct")
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["0.3", "0.5", "0.7"]

    def test_sweep_length_grid(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--vary", "len",
                     "--grid", "20:30:5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["len"] * 3

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--duration", "10", "--beta", "0.95"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["z_full"] == pytest.approx(0.805, abs=1e-9)
        assert payload["z"] == payload["c"] == pytest.approx(0.4025, abs=1e-9)

    def test_exit_code_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BENCHMARK, "beta": 1.2}))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "beta" in err

    def test_exit_code_nonconvergence(self, config_path, capsys, monkeypatch):
        monkeypatch.setattr(uisearch.schedule, "_MAX_STEPS", 1)
        assert main(["solve", "--config", config_path]) == 3
        assert capsys.readouterr().err.startswith("error: basic fixed point")

    @pytest.mark.parametrize("key, value", [("tol", 1e-12), ("max_iter", 100_000)])
    def test_solver_settings_are_unknown_keys(self, tmp_path, capsys, key, value):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**BENCHMARK, key: value}))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {key}: unknown configuration key\n"

    def test_narrow_support_solves_to_the_decimal_root(self, tmp_path, capsys):
        # A support 1e-6 wide: an absolute stopping tolerance of 1e-12
        # left the zero-entitlement wage off by 8.8e-11 of the width and
        # the CLI printed 1.02133454562e-06.
        high = 1.024927568931378e-06
        fields = {"beta": 0.999, "z": 1.0150429274280168e-06, "c": 1e-9, "N": 0,
                  "delta_true": 0.0, "len_true": 1,
                  "distribution": {"type": "uniform", "low": 0.0, "high": high}}
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(fields))
        cfg = parse_config(str(path))
        # Uniform offers on [0, h] make x = z (1 - b) + b (x**2 + h**2) / (2 h)
        # a quadratic; its root below h, in 60 decimal digits.
        with localcontext() as ctx:
            ctx.prec = 60
            h, b, z = Decimal(high), Decimal(fields["beta"]), Decimal(fields["z"])
            exact = h * (1 - (1 - b * b - 2 * b * (1 - b) * z / h).sqrt()) / b
            w0 = solve_w0_basic(cfg.distribution, cfg.params, cfg.params.z)
            assert abs(Decimal(w0) - exact) <= Decimal(1e-12) * h
        assert format(float(exact), ".12g") == "1.02133454571e-06"
        assert main(["solve", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "0,1.02133454571e-06,1.02133454571e-06"

    def test_exit_code_infeasible(self, capsys):
        assert main(["calibrate", "--duration", "1"]) == 4

    def test_flow_an_ulp_below_top_stays_in_support(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(FLOW_AN_ULP_BELOW_TOP))
        cfg = parse_config(str(path))
        schedule = solve_schedules(cfg.distribution, cfg.params, cfg.belief)
        top = cfg.distribution.high
        assert max(schedule.basic.max(), schedule.with_extension.max()) <= top
        assert main(["solve", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_exit_code_divergence(self, tmp_path, capsys, command):
        # Thresholds 1-2 ulps below the top leave the tails hi**2 - x**2
        # no correct digit, and the accepted wage they average lands above
        # the support; evaluate and sweep refuse to print it.
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(FLOW_AN_ULP_BELOW_TOP))
        assert main([command, "--config", str(path)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: expected accepted wage ")
                and captured.err.count("\n") == 1)

    @pytest.mark.parametrize("fields, command", [
        (ROUNDED_TO_CERTAIN_REJECTION, "evaluate"),
        (ROUNDED_TO_CERTAIN_REJECTION, "sweep"),
        (ACCEPTED_WAGE_LEAVES_SUPPORT, "evaluate"),
    ], ids=["rounded_to_certain_rejection-evaluate", "rounded_to_certain_rejection-sweep",
            "accepted_wage_leaves_support-evaluate"])
    def test_thresholds_ulps_below_top_evaluate(self, tmp_path, capsys, fields, command):
        # test_rational_oracle checks these values within 2 ulps of exact
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(fields))
        assert main([command, "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "evaluate":
            assert -5.0 <= json.loads(captured.out)["accepted_wage"] <= 1.0

    def test_calibrate_unreachable_duration_is_infeasible(self, capsys):
        # the flow, 1 - 1e-17, cannot be represented below the top of [0, 1]
        assert main(["calibrate", "--duration", "1e17"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: target duration")

    def test_calibrate_beta_out_of_range_is_config_error(self, capsys):
        assert main(["calibrate", "--duration", "10", "--beta", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error: beta")

    def test_bad_grid_is_config_error(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--grid", "oops"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "0.9:0.1:0.05"], "empty or descending grid '0.9:0.1:0.05'"),
        (["--grid", "0.1:0.9:0"], "empty or descending grid '0.1:0.9:0'"),
        (["--grid", "0.5:1.5:0.5"], "belief probabilities must lie in [0, 1]"),
        (["--vary", "len", "--grid", "0:10:5"], "belief lengths must be at least 1"),
        (["--vary", "len", "--grid", "1000000000000:1000000000000:1"],
         "belief lengths may not exceed 2**16 periods"),
    ], ids=["descending", "zero_step", "probability_above_one", "length_zero",
            "length_beyond_longest"])
    def test_grid_rejected_before_work(self, config_path, capsys, monkeypatch,
                                       argv, message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the grid was checked")

        monkeypatch.setattr("uisearch.cli.sweep_beliefs", no_sweep)
        assert main(["sweep", "--config", config_path, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid: {message}\n"

    @pytest.mark.parametrize("grid", ["0.1:0.1000000000001:1e-14",
                                      "0.5:0.5000000001:1e-13"])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_grid_finer_than_printed_digits_rejected(self, config_path, capsys,
                                                     monkeypatch, grid, mode):
        # These printed 50 identical rows, and 1 005 rows of which 101
        # were distinct.
        def no_work(*args, **kwargs):
            raise AssertionError("built a belief before the grid was checked")

        monkeypatch.setattr("uisearch.cli.sweep_beliefs", no_work)
        monkeypatch.setattr("uisearch.experiments.build_policies", no_work)
        assert main(["sweep", "--config", config_path, "--mode", mode,
                     "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: grid: STEP of {grid!r} is finer")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["1:3:0.5", "1.5:3:1"])
    def test_fractional_length_grid_rejected(self, config_path, capsys, grid):
        # rounding would turn 1:3:0.5 into the lengths 1, 2, 2, 2, 3
        assert main(["sweep", "--config", config_path, "--vary", "len",
                     "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid: ")

    def test_whole_length_grid_with_fractional_end(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--vary", "len",
                     "--grid", "20:30.5:5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["20", "25", "30"]

    @pytest.mark.parametrize("spec, count", [
        ("0:1e-9:1e-10", 11), ("0:5e-12:1e-12", 6), ("0:4e-13:1e-13", 5),
        ("0.5:0.5000001:1e-8", 11), ("0.1:0.10000002:1e-9", 21)])
    def test_fine_grid_ends_at_hi(self, spec, count):
        # Points and HI are compared as the CSV prints them, so LO + k * STEP
        # that misses HI by rounding only still ends the grid at HI.
        values = _parse_grid(spec, as_int=False)
        assert len(set(values)) == len(values) == count
        assert values[-1] == float(spec.split(":")[1])

    @pytest.mark.parametrize("spec, as_int, points", [
        ("0:0.29999999999:0.1", False, [0.0, 0.1, 0.2]),
        ("1:2.9999999999:1", True, [1, 2]),
        ("0:0.9:0.30000000000000004", False, [0.0, 0.3, 0.6, 0.9])])
    def test_grid_ends_at_hi_as_printed(self, spec, as_int, points):
        # 3 * 0.30000000000000004 is 0.9000000000000001, printed 0.9
        assert _parse_grid(spec, as_int) == points

    def test_length_past_float_precision_is_beyond_longest(self, config_path, capsys,
                                                           monkeypatch):
        # As floats 10**16 + 1 rounds to 10**16, and to 12 digits so do its
        # neighbours; as ints the grid is the one length 10**16.
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the grid was checked")

        monkeypatch.setattr("uisearch.cli.sweep_beliefs", no_sweep)
        assert main(["sweep", "--config", config_path, "--vary", "len", "--grid",
                     "10000000000000000:10000000000000000:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid: belief lengths may not exceed 2**16 periods\n"

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_grid_ends_where_points_print_above_hi(self, data):
        def decimal(digits, places):
            return Decimal(data.draw(digits)).scaleb(-data.draw(places))

        lo = decimal(st.integers(0, 999), st.integers(0, 4))
        step = decimal(st.integers(1, 999), st.integers(1, 13))
        # HI on a grid point, or off it by a few units of a late digit
        hi = (lo + data.draw(st.integers(0, 300)) * step
              + decimal(st.integers(-50, 50), st.integers(10, 18)))
        if hi < lo:
            reject()
        top = float(format(float(hi), ".12g"))
        printed = []
        while len(printed) <= MAX_GRID_POINTS and (not printed or printed[-1] <= top):
            printed.append(float(format(float(lo) + len(printed) * float(step), ".12g")))
        kept = printed[:-1]
        assert all(v <= top for v in kept)
        assert printed[-1] > top
        if any(a == b for a, b in zip(kept, kept[1:])):
            # a STEP finer than the printed digits is refused
            with pytest.raises(ConfigError, match="finer than the 12 digits"):
                _parse_grid(f"{lo}:{hi}:{step}", as_int=False)
        else:
            assert _parse_grid(f"{lo}:{hi}:{step}", as_int=False) == kept

    @pytest.mark.parametrize("spec, as_int, count", [
        ("0.1:0.9:0.8", False, 2), ("0.3:0.7:0.2", False, 3), ("0.1:0.9:0.4", False, 3),
        ("0.1:0.9:0.05", False, 17), ("20:30:5", True, 3), ("20:30.5:5", True, 3),
        ("1:10000:1", True, 10_000)])
    def test_grids_in_use_parse_as_before(self, spec, as_int, count):
        # The old rule: COUNT points LO + k * STEP, rounded to 12 decimals.
        lo, _, step = map(float, spec.split(":"))
        points = [lo + k * step for k in range(count)]
        assert _parse_grid(spec, as_int) == [int(v) if as_int else round(v, 12)
                                            for v in points]


class TestStdoutDigests:
    """The bytes each subcommand writes to stdout, as sha256 digests.

    Any change to the printed data shows here.
    """

    CONFIGS = {
        "unit": BENCHMARK,
        "wide": {**BENCHMARK,
                 "distribution": {"type": "uniform", "low": 0.2, "high": 1.7}},
        # About the widest symmetric support whose squares stay finite.
        "widest": {**BENCHMARK, "distribution": {"type": "uniform", "low": -1.3e154,
                                                 "high": 1.3e154}},
    }
    COMMANDS = {
        "solve": ["solve"],
        "evaluate": ["evaluate"],
        "sweep_delta": ["sweep", "--vary", "delta"],
        "sweep_len": ["sweep", "--vary", "len"],
        "simulate": ["simulate", "--spells", "20000", "--trace", "20",
                     "--threads", "2"],
    }
    DIGESTS = {
        ("solve", "unit"): "006b610e9db45f00b719bebafd17ec318a9d54986c6797e09cf71cb43c34fbcc",
        ("evaluate", "unit"): "00aa951d8c0b49136179e05b7137312e20ed5336110021add04fc2385e8ebc27",
        ("sweep_delta", "unit"): "0cead1a616b5e6a5047f03fde25f54130eedca7d59aa5a2a44e31b7ae227cc1c",
        ("sweep_len", "unit"): "3778f308b1592128004c1900b53eed7262c9b91cba84138dc1ac6a6e824da6f3",
        ("simulate", "unit"): "5eb827ce36043d960c031869f6f70cbf83345e9d6213b6f477e725d68394e4bf",
        ("solve", "wide"): "9d2adcf9999c148d36897090fd094e137607e39492d5846828f354a000e415cb",
        ("evaluate", "wide"): "e8ed97d31b656bd78dd8720d93ec06b8e2b034a5ba9f7d3bde79d1857b1f64d7",
        ("sweep_delta", "wide"): "a63fec163f5ede9b8100961991b8052389754a52facafd5c48b864f66749c83e",
        ("sweep_len", "wide"): "3cd0cb78cc097fbc08e56a2531274461478a9731ea6153f22b9ca1dc387269b1",
        ("simulate", "wide"): "ff9b173a1d20123755237360ba5d995e6f7b883e527f2c25903f8f8b3ec8e758",
        # Recorded before supports whose squares overflow were rejected.
        ("solve", "widest"): "29425f97e9c21c357d9162333296f5333db5f504c12dbdcfe07e37fdd067fc7d",
        ("evaluate", "widest"): "832280e022452eed187d0eae47ab1f9dcb5ec1b5296d78b8165b271ede4d654d",
        ("sweep_delta", "widest"): "84c82a01f7fab83866106114e614cc9766718765ad44047b7b616ec984dd9282",
        ("sweep_len", "widest"): "83d3cf60107b06ab697e8b3df99c26c2ba3f47512d5ecce2606548eed7f74471",
    }
    CALIBRATE_DIGEST = "5e7f6e8ebf5beeecb442acfe33f6cc43cbcbe6b634158e99208f38bfd4421ea4"

    @staticmethod
    def digest(argv, capsys):
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    @pytest.mark.parametrize("command, config", sorted(DIGESTS),
                             ids=lambda v: v)
    def test_config_command(self, tmp_path, capsys, command, config):
        path = tmp_path / f"{config}.json"
        path.write_text(json.dumps(self.CONFIGS[config]))
        name, *rest = self.COMMANDS[command]
        argv = [name, "--config", str(path), *rest]
        assert self.digest(argv, capsys) == self.DIGESTS[command, config]

    def test_calibrate(self, capsys):
        argv = ["calibrate", "--duration", "10"]
        assert self.digest(argv, capsys) == self.CALIBRATE_DIGEST


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang into a failure: raise in the main thread after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNonFiniteInputs:
    """NaN and infinities pass every range comparison's negation, so each
    is rejected explicitly, naming the field, before any work."""

    @pytest.mark.parametrize("fields, blamed", [
        ({"delta_true": float("nan")}, "delta_true"),
        ({"delta_belief": float("nan")}, "delta_belief"),
        ({"c": float("nan")}, "c"),
        ({"c": float("inf")}, "c"),
        ({"beta": float("nan")}, "beta"),
        ({"distribution": {"type": "uniform", "low": float("-inf"), "high": 1.0}},
         "distribution"),
        ({"z": float("inf")}, "z"),
        ({"distribution": {"type": "uniform", "low": False, "high": True}},
         "distribution"),
        ({"distribution": {"type": "uniform", "lo": 0.5, "high": 1.0}}, "distribution"),
        ({"z": 10 ** 400}, "z"),
    ], ids=["delta_true_nan", "delta_belief_nan", "c_nan", "c_inf", "beta_nan",
            "low_minus_inf", "z_inf", "low_high_bool", "unknown_key_lo",
            "z_400_digits"])
    def test_config_number_names_field(self, tmp_path, capsys, monkeypatch,
                                       fields, blamed):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr("uisearch.cli.solve_schedules", no_solve)
        path = tmp_path / "bad.json"
        # json.dumps writes NaN and Infinity, which json.loads accepts
        path.write_text(json.dumps({**BENCHMARK, **fields}))
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {blamed}:")

    @pytest.mark.parametrize("grid", ["nan:0.9:0.1", "0.1:inf:0.1", "0.1:0.9:nan"])
    def test_grid_bounds_and_step(self, config_path, capsys, grid):
        with deadline(2):
            assert main(["sweep", "--config", config_path, "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("error: grid")

    def test_dense_grid_rejected_before_any_point(self, config_path, capsys):
        with deadline(2):
            assert main(["sweep", "--config", config_path,
                         "--grid", "0.1:0.9:1e-9"]) == 2
        assert capsys.readouterr().err.startswith("error: grid")

    def test_grid_point_cap(self):
        assert len(_parse_grid(f"1:{MAX_GRID_POINTS}:1", as_int=True)) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="grid"):
            _parse_grid(f"1:{MAX_GRID_POINTS + 1}:1", as_int=True)

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_calibrate_duration(self, capsys, monkeypatch, duration):
        def no_solve(*args, **kwargs):
            raise AssertionError("calibrated before the duration was checked")

        monkeypatch.setattr("uisearch.cli.calibrate_z", no_solve)
        assert main(["calibrate", "--duration", duration]) == 2
        assert capsys.readouterr().err.startswith("error: duration")


def test_cli_import_leaves_worker_pool_unloaded():
    """CLI start-up loads neither the fork fan-out, which ``simulate_many``
    imports only when it forks, nor ``multiprocessing`` or
    ``concurrent.futures``, which nothing imports."""
    src = os.path.dirname(os.path.dirname(uisearch.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, uisearch.cli; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures', 'uisearch._forks')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


# Runs ``main`` on its arguments in a fresh interpreter and prints the exit
# code, whether numpy was loaded, and the sha256 of stdout.
_COMMAND_CHILD = """
import contextlib, hashlib, io, sys
import uisearch
from uisearch.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, 'numpy' in sys.modules, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

_DIGESTS = TestStdoutDigests.DIGESTS


@pytest.mark.parametrize("argv, loads_numpy, digest", [
    (["solve"], False, _DIGESTS["solve", "unit"]),
    (["evaluate"], False, _DIGESTS["evaluate", "unit"]),
    (["sweep", "--mode", "exact"], False, _DIGESTS["sweep_delta", "unit"]),
    (["calibrate", "--duration", "10"], False, TestStdoutDigests.CALIBRATE_DIGEST),
    (TestStdoutDigests.COMMANDS["simulate"], True, _DIGESTS["simulate", "unit"]),
    (["sweep", "--mode", "mc", "--spells", "2000", "--grid", "0.1:0.9:0.4"], True,
     "d4bb23f8c1e5f258658d95b278d9e9cec4a5aa2963d4b8d26ffa8c3834ddd7fe"),
], ids=["solve", "evaluate", "sweep_exact", "calibrate", "simulate", "sweep_mc"])
def test_only_simulation_loads_numpy(config_path, argv, loads_numpy, digest):
    """The exact commands run on Python floats and never import numpy;
    the Monte Carlo module, which needs it, loads only to simulate."""
    src = os.path.dirname(os.path.dirname(uisearch.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if argv[0] != "calibrate":
        argv = [argv[0], "--config", config_path, *argv[1:]]
    result = subprocess.run([sys.executable, "-c", _COMMAND_CHILD, *argv], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", str(loads_numpy), digest]


def test_package_names_resolve_on_demand():
    # The Monte Carlo and closed-form names load their modules on first
    # access (PEP 562); every exported name resolves and is listed.
    for name in uisearch.__all__:
        assert getattr(uisearch, name).__name__ == name
    assert set(uisearch.__all__) <= set(dir(uisearch))
    with pytest.raises(AttributeError, match="no_such_name"):
        uisearch.no_such_name
