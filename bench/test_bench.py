"""Tests of the benchmark's own checks and of what it prints.

Run from the repository root (about a minute on two cores):

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import uisearch as us
import workloads
from uisearch.evaluate import PolicyProfile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts a later change may cite as counts, so they must repeat exactly.
DETERMINISTIC = ("schedule.upsilon_calls", "schedule.w0_iters",
                 "experiments.calibrate_solves", "distributions.cdf_calls",
                 "distributions.partial_expectation_calls",
                 "montecarlo.variates_per_spell", "montecarlo.periods_per_block")

OWN_METRICS = {
    "exact_sweeps": {"sweep_p50_ms": "ms", "sweep_tail_ms": "ms", "beliefs_per_s": "1/s"},
    "mc_million": {"mc_spells_per_s": "1/s", "mc_spells_per_s_serial": "1/s"},
    "cli_session": {"cli_p50_ms": "ms", "cli_tail_ms": "ms"},
}


def run_bench(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return out


@pytest.fixture(scope="module")
def runs():
    results = {}
    for workload in OWN_METRICS:
        for trace in (0, 1):
            out = run_bench(workload, trace)
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            results[workload, trace] = (json.loads(lines[-2])["report"],
                                        json.loads(lines[-1]))
    return results


def test_mc_check_catches_a_nudged_threshold():
    mc = workloads.MCMillion(seed=1)
    summary, _ = mc.simulate(mc.workers)
    assert workloads.check_mc(summary, mc.exact) == []
    # Without an extension the first offer meets the threshold at N - 1.
    pre = mc.policy.pre_thresholds.copy()
    pre[mc.cal.params.n_periods - 1] += 0.01
    tampered = PolicyProfile(pre_thresholds=pre,
                             post_thresholds=mc.policy.post_thresholds.copy())
    summary = us.simulate_many(tampered, mc.cal.truth, mc.cal.params, mc.cal.dist,
                               workloads.MC_SPELLS, 1, n_workers=mc.workers)
    assert workloads.check_mc(summary, mc.exact)


def test_cli_check_counts_a_wrong_expected_value(tmp_path):
    session = workloads.CLISession(seed=2, workdir=tmp_path)
    session.expected["evaluate"]["welfare"] += 1e-9
    session.expected["solve"][3][0] += 1e-6
    ops = session.round()
    assert [op.kind for op in ops if not op.ok] == ["solve", "evaluate"]


def test_p50_counts_every_cli_command():
    # The middle command of a round is the median of all commands, so a
    # slower first command moves only the mean of the per-command medians.
    ops = [workloads.Op(kind, 1.0 + i, 1)
           for _ in range(3) for i, kind in enumerate(workloads.CLI_COMMANDS)]
    slower = [replace(op, seconds=op.seconds + (op.kind == "solve")) for op in ops]
    assert run.p50(slower, lambda op: op.seconds) > run.p50(ops, lambda op: op.seconds)


def test_sweep_check_catches_a_wrong_row():
    exact = workloads.ExactSweeps(seed=4)
    [op] = exact.round()
    assert op.ok
    delta_rows, len_rows = exact.first
    assert workloads.check_sweeps(delta_rows, len_rows, exact.cal.truth) == []
    negative = [replace(delta_rows[0], loss_pct=-1e-6)] + delta_rows[1:]
    assert workloads.check_sweeps(negative, len_rows, exact.cal.truth)
    assert workloads.check_sweeps(delta_rows[1:], len_rows, exact.cal.truth)


@pytest.mark.parametrize("workload", OWN_METRICS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, result = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert report["failed_frac"] == 0.0
        for fact in ("nproc", "python", "numpy", "commit", "seed"):
            assert fact in report["machine"]
    report, _ = runs[workload, 0]
    own = {name: m["unit"] for name, m in report["detail"].items()
           if isinstance(m, dict) and "unit" in m}
    assert own.items() >= OWN_METRICS[workload].items()


def test_traced_counts_repeat_for_the_same_seed(runs):
    again = json.loads(run_bench("exact_sweeps", 1).stdout.strip().splitlines()[-1])
    first = runs["exact_sweeps", 1][1]
    for name in DETERMINISTIC:
        assert again["metrics"][name] == first["metrics"][name]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("exact_sweeps", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
