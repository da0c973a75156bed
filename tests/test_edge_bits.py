"""Exact-path bits pinned on configs at the edges of the model.

The stdout goldens cover the benchmark config on two supports and round
to 12 digits. These pins hold the full bits where the support's range
check and the cap at its top matter: thresholds a few ulps below the
top, a support with a negative bottom, and beliefs with delta 0 and 1.
Each was recorded before the solver and the evaluator began sharing the
prices of their thresholds, which must move no bit. The evaluator pins,
on a long schedule, a one-period one and a post-extension state 0 that
never accepts, were recorded before the exact recursions became one
pass each.
"""

import hashlib
import json

import numpy as np
import pytest

from uisearch import DivergenceError, solve_schedules
from uisearch.cli import main
from uisearch.config import parse_config
from uisearch.evaluate import (PolicyProfile, build_policy, evaluate_beliefs,
                               evaluate_policy, post_chains)

from conftest import (ACCEPTED_WAGE_LEAVES_SUPPORT, FLOW_AN_ULP_BELOW_TOP,
                      ROUNDED_TO_CERTAIN_REJECTION)

BENCHMARK = {"beta": 0.95, "z": 0.4025, "c": 0.4025, "N": 10, "delta_true": 0.5,
             "len_true": 25, "delta_belief": 0.1, "len_belief": 25}
NEGATIVE_BOTTOM = {"beta": 0.9, "z": 0.3, "c": 0.25, "N": 6, "delta_true": 0.4,
                   "len_true": 7, "delta_belief": 0.7, "len_belief": 4,
                   "distribution": {"type": "uniform", "low": -2.0, "high": 1.5}}
CONFIGS = {
    "flow_an_ulp_below_top": FLOW_AN_ULP_BELOW_TOP,
    "rounded_to_certain_rejection": ROUNDED_TO_CERTAIN_REJECTION,
    "accepted_wage_leaves_support": ACCEPTED_WAGE_LEAVES_SUPPORT,
    "negative_bottom": NEGATIVE_BOTTOM,
    "belief_delta_zero": {**BENCHMARK, "delta_belief": 0.0},
    "belief_delta_one": {**NEGATIVE_BOTTOM, "delta_true": 0.0, "delta_belief": 1.0},
}

# The accepted wage of FLOW_AN_ULP_BELOW_TOP leaves the support (see conftest).
LEAVES = ("expected accepted wage 0.375 lies outside the offer support "
          "[0.3019547477637597, 0.3644547477637597]: acceptance probabilities too "
          "small to resolve in floating point")


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def bits(ev):
    return (ev.welfare.hex(), ev.duration.hex(), ev.accepted_wage.hex(),
            digest(ev.offer_values))


class TestLibraryBits:
    # Digests of solve_schedules' basic and with_extension arrays.
    SCHEDULES = {
        "flow_an_ulp_below_top": ("60bbf786c6ce0383", "5678db8373532dfc"),
        "rounded_to_certain_rejection": ("f53ceb7f1c29d508", "fb225462a14e035d"),
        "accepted_wage_leaves_support": ("0a490bafe431de0d", "0452725e18191c2d"),
        "negative_bottom": ("eaf5ae1dc04f94be", "fce4a72870ce543c"),
        "belief_delta_zero": ("e6c8823948ed2529", "702fed8bc305635d"),
        "belief_delta_one": ("eaf5ae1dc04f94be", "005d7ad616f68156"),
    }
    # evaluate_beliefs([belief, truth], truth): the bits of each
    # evaluation, or the message of the DivergenceError it raises.
    EVALUATIONS = {
        "flow_an_ulp_below_top": LEAVES,
        "rounded_to_certain_rejection": 2 * [
            ("0x1.00419a0290041p+0", "0x1.8000000000000p+54", "0x1.0000000000000p+0",
             "cffc9c789446eeed")],
        "accepted_wage_leaves_support": 2 * [
            ("0x1.ffffffffffffep+0", "0x1.0000000000000p+54", "0x1.0000000000000p+0",
             "3b1cc974c00c7f19")],
        "negative_bottom": [
            ("0x1.2da267510f111p+3", "0x1.83a0459b28f68p+2", "0x1.35d992ffd39d0p+0",
             "8ad52f2279f68faa"),
            ("0x1.2da28efef7765p+3", "0x1.84178da3e42e0p+2", "0x1.35ef0f88d54eep+0",
             "d8636d68d8c029b2")],
        "belief_delta_zero": [
            ("0x1.1fd5b71467ecdp+4", "0x1.2db612991f1c2p+3", "0x1.e46f2d1a3542fp-1",
             "0e71cedf8f3a4bab"),
            ("0x1.1fe65e793361dp+4", "0x1.33b31026cf2dep+3", "0x1.e507254a13de1p-1",
             "393a761b870dc04c")],
        "belief_delta_one": [
            ("0x1.28bccfdc3ac70p+3", "0x1.812dfa5e04b03p+2", "0x1.357e2bc0c228cp+0",
             "fa61b8633731a470"),
            ("0x1.28eefe25bd9dep+3", "0x1.6b9e4466cb0acp+2", "0x1.30f31b3a4f99ep+0",
             "89a3a1a0f8743673")],
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_schedules(self, name):
        cfg = parse_config(overrides=CONFIGS[name])
        schedule = solve_schedules(cfg.distribution, cfg.params, cfg.belief)
        assert (digest(schedule.basic),
                digest(schedule.with_extension)) == self.SCHEDULES[name]

    @pytest.mark.parametrize("name", CONFIGS)
    def test_evaluations(self, name):
        cfg = parse_config(overrides=CONFIGS[name])
        try:
            found = [bits(ev) for ev in evaluate_beliefs(
                [cfg.belief, cfg.truth], cfg.truth, cfg.params, cfg.distribution)]
        except DivergenceError as exc:
            found = str(exc)
        assert found == self.EVALUATIONS[name]


class TestEvaluatorBits:
    # evaluate_beliefs([belief, truth], truth): the bits of each evaluation.
    EVALUATIONS = {
        "long_schedule": (
            {**BENCHMARK, "N": 300, "len_true": 300, "len_belief": 300}, [
                ("0x1.1fffffffffff7p+4", "0x1.3ffffffffffcbp+3", "0x1.e66666666665cp-1",
                 "48f1003e6dc9328b"),
                ("0x1.1fffffffffff7p+4", "0x1.3ffffffffffcbp+3", "0x1.e66666666665cp-1",
                 "fe49397062339ff3")]),
        "one_period": (
            {**BENCHMARK, "N": 1}, [
                ("0x1.1acc199e9d4cep+4", "0x1.12ce623ebc474p+3", "0x1.e0a4ad1f78e7cp-1",
                 "bfd9f7c133ff0435"),
                ("0x1.1b023e654dc0dp+4", "0x1.1cc47d3ddda31p+3", "0x1.e26856b4ea48cp-1",
                 "da81f750d0f2c28d")]),
    }

    @pytest.mark.parametrize("name", EVALUATIONS)
    def test_evaluations(self, name):
        overrides, expected = self.EVALUATIONS[name]
        cfg = parse_config(overrides=overrides)
        assert [bits(ev) for ev in evaluate_beliefs(
            [cfg.belief, cfg.truth], cfg.truth, cfg.params, cfg.distribution)] == expected

    def test_post_state_zero_that_never_accepts(self):
        # A post-extension state 0 at the top of the support accepts with
        # probability 0, which only a truth with delta 0 evaluates:
        # post_chains then leaves its state-0 duration and wage at 0.
        cfg = parse_config(overrides={**BENCHMARK, "delta_true": 0.0})
        dist = cfg.distribution
        policy = build_policy(dist, cfg.params, cfg.belief, cfg.truth.length)
        hand = PolicyProfile(list(policy._pre_thresholds),
                             [dist.high, *policy._post_thresholds[1:]])
        chains = post_chains(hand._post_thresholds, cfg.params.beta, dist)
        assert [digest(np.array(chain)) for chain in chains] == [
            "6fbe8dfba51672a5", "25298d72f7738de6", "eaf0603b3808c4bf"]
        assert bits(evaluate_policy(hand, cfg.truth, cfg.params, dist)) == (
            "0x1.1a6b36303e029p+4", "0x1.e42a7cbfa70bfp+2", "0x1.dcb8c9cd8d44dp-1",
            "4d34e1f3dd786ff9")


class TestCommandOutput:
    COMMANDS = {"solve": ["solve"], "evaluate": ["evaluate"],
                "sweep_delta": ["sweep", "--vary", "delta"],
                "sweep_len": ["sweep", "--vary", "len"]}
    # (exit code, the first 16 hex digits of stdout's sha256, stderr) of
    # each command on each config; every command but solve exits 5 on
    # FLOW_AN_ULP_BELOW_TOP.
    EMPTY = "e3b0c44298fc1c14"
    OUTPUT = {
        ("flow_an_ulp_below_top", "solve"): (0, "3b095456efc286c3", ""),
        ("flow_an_ulp_below_top", "evaluate"): (5, EMPTY, f"error: {LEAVES}\n"),
        ("flow_an_ulp_below_top", "sweep_delta"): (5, EMPTY, f"error: {LEAVES}\n"),
        ("flow_an_ulp_below_top", "sweep_len"): (5, EMPTY, f"error: {LEAVES}\n"),
        ("rounded_to_certain_rejection", "solve"): (0, "007a0bce0311e1ec", ""),
        ("rounded_to_certain_rejection", "evaluate"): (0, "7e8544e4e2a339cf", ""),
        ("rounded_to_certain_rejection", "sweep_delta"): (0, "270a61e54ff6025c", ""),
        ("rounded_to_certain_rejection", "sweep_len"): (0, "0777eb224b6b8247", ""),
        ("accepted_wage_leaves_support", "solve"): (0, "833faaf85fcc7144", ""),
        ("accepted_wage_leaves_support", "evaluate"): (0, "f60dcec15b824a1c", ""),
        ("accepted_wage_leaves_support", "sweep_delta"): (0, "270a61e54ff6025c", ""),
        ("accepted_wage_leaves_support", "sweep_len"): (0, "0777eb224b6b8247", ""),
        ("negative_bottom", "solve"): (0, "123c69676abd5eb0", ""),
        ("negative_bottom", "evaluate"): (0, "265dba7ba82c6fe3", ""),
        ("negative_bottom", "sweep_delta"): (0, "352c49e7bf11fe3e", ""),
        ("negative_bottom", "sweep_len"): (0, "d7d4c3864bc51bd0", ""),
        ("belief_delta_zero", "solve"): (0, "e2cd90e717577829", ""),
        ("belief_delta_zero", "evaluate"): (0, "bb7b2cdcd15aefad", ""),
        ("belief_delta_zero", "sweep_delta"): (0, "0cead1a616b5e6a5", ""),
        ("belief_delta_zero", "sweep_len"): (0, "3778f308b1592128", ""),
        ("belief_delta_one", "solve"): (0, "81539fa64dc96a62", ""),
        ("belief_delta_one", "evaluate"): (0, "9be869f8f52a4d28", ""),
        ("belief_delta_one", "sweep_delta"): (0, "5c7e5ad254977d93", ""),
        ("belief_delta_one", "sweep_len"): (0, "8567908e991fd54d", ""),
    }

    @pytest.mark.parametrize("name, command", sorted(OUTPUT), ids="-".join)
    def test_command(self, tmp_path, capsys, name, command):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(CONFIGS[name]))
        code = main([*self.COMMANDS[command], "--config", str(path)])
        captured = capsys.readouterr()
        assert (code, hashlib.sha256(captured.out.encode()).hexdigest()[:16],
                captured.err) == self.OUTPUT[name, command]
