"""Benchmark harness for uisearch.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact_sweeps --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` reports the per-layer metrics instead: the workload runs
half its time untraced and half traced (giving ``trace_overhead_frac``),
then a fixed traced census times every layer on one operation of each
workload. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a fuller report with the machine facts and the per-workload
metric names. ``--out FILE`` also merges that report into a result file.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact_sweeps", "mc_million", "cli_session")
SETUP_REPEATS = 9
# Each set-up probe times this many rounds of the reference work after it.
# On a quiet 2-vCPU Xeon they take about NOMINAL_REF_S; ``setup_s`` is the
# set-up time scaled to a host on which they take exactly that.
SETUP_REF_ROUNDS = 5
NOMINAL_REF_S = 0.030
CENSUS_PASSES = 3
CENSUS_CLI_ROUNDS = 3
PYTHON_REPEATS = 5


def tail(samples):
    """The value with exactly ten samples above it, and its percentile.

    This is the highest percentile with at least ten samples beyond it.
    It is never reported below the median: with fewer than twenty
    samples the median is returned, and with ten or fewer the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    median = statistics.median(ordered)
    if ordered[n - 11] <= median:
        return median, 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine_facts(seed):
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": cgroup_quota(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def cgroup_quota():
    """CPUs allowed by the cgroup, or None when unlimited or unreadable."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        return None if quota < 0 else quota / period
    except (OSError, ValueError):
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def probe_setup(workload, seed, workdir):
    """Set up ``workload`` in this fresh interpreter, then time the reference.

    Prints the seconds the set-up took and the seconds that
    ``SETUP_REF_ROUNDS`` rounds of the reference work took right after it.
    """
    start = time.perf_counter()
    import uisearch  # noqa: F401
    import workloads
    wl = workloads.build(workload, seed, workdir)
    setup = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(SETUP_REF_ROUNDS):
        workloads.Workload.reference(wl, None)
    print(setup, time.perf_counter() - start)


def measure_setup(workload, seed, workdir):
    """``(setup, reference)`` seconds from ``SETUP_REPEATS`` fresh interpreters."""
    samples = []
    for k in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
            env=dict(os.environ, BENCH_WORKDIR=str(workdir / f"setup{k}")))
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr[-500:]}")
        setup, ref = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(ref)))
    return samples


def run_for(workload, seconds):
    """Rounds of ``workload`` until ``seconds`` have passed; at least one.

    The workload's reference runs after each operation, and its time is
    kept with the operation.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        ops = []
        for step in workload.steps():
            op = step()
            start = time.perf_counter()
            workload.reference(op)
            op.ref_seconds = time.perf_counter() - start
            ops.append(op)
        rounds.append(ops)
        if time.perf_counter() >= deadline:
            return rounds


# The workload's own names for the wall-time figures in the report.
OWN_NAMES = {
    "exact_sweeps": {"sweep_p50_ms": ("p50", "ms"), "sweep_tail_ms": ("tail", "ms"),
                     "beliefs_per_s": ("rate", "1/s")},
    "mc_million": {"mc_p50_ms": ("p50", "ms"), "mc_tail_ms": ("tail", "ms"),
                   "mc_spells_per_s": ("rate", "1/s"),
                   "mc_spells_per_s_serial": ("serial_rate", "1/s")},
    "cli_session": {"cli_p50_ms": ("p50", "ms"), "cli_tail_ms": ("tail", "ms"),
                    "commands_per_s": ("rate", "1/s")},
}


def p50(ops, cost):
    """The mean over operation kinds of each kind's median cost.

    A ``cli_session`` round runs five different commands; the median of
    them all would always be the middle command, so each command counts
    through its own median instead. Other workloads time one kind.
    """
    kinds = sorted({op.kind for op in ops})
    return statistics.fmean(statistics.median(cost(op) for op in ops if op.kind == kind)
                            for kind in kinds)


def end_to_end(name, ops, setup_samples):
    """The end-to-end metrics, and the wall-time figures behind them.

    Each operation's wall time is divided by the time of the reference
    that ran right after it, so the metrics are in reference units
    ("ref") and a host that is busier in one run than in another moves
    them little. Set-up is scaled the same way, back to seconds on a
    host where the probe's reference takes ``NOMINAL_REF_S``. The
    wall-time figures, tails included, go into the report under the
    workload's own names.
    """
    import workloads
    if name == "mc_million":
        timed = [op for op in ops if op.kind == "parallel"]
        serial = [op for op in ops if op.kind == "serial"]
    else:
        timed = serial = ops

    def figures(cost):
        values = [cost(op) for op in timed]
        top, pct = tail(values)
        return {"p50": p50(timed, cost), "tail": top, "pct": pct,
                "rate": sum(op.work for op in timed) / sum(values),
                "serial_rate": sum(op.work for op in serial)
                / sum(cost(op) for op in serial)}

    ref = figures(lambda op: op.seconds / op.ref_seconds)
    wall = figures(lambda op: op.seconds)
    if name == "cli_session":
        rss_kb = max(op.rss_kb for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = NOMINAL_REF_S * statistics.median(
        setup / ref_s for setup, ref_s in setup_samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (ref["p50"], "ref"),
        "work_per_ref": (ref["rate"], "1/ref"),
        "serial_work_per_ref": (ref["serial_rate"], "1/ref"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    units = {"p50": 1e3, "tail": 1e3, "rate": 1.0, "serial_rate": 1.0}
    detail = {alias: {"value": wall[key] * units[key], "unit": unit}
              for alias, (key, unit) in OWN_NAMES[name].items()}
    detail["tail"] = {"percentile": wall["pct"], "samples": len(timed),
                      "value_ref": ref["tail"]}
    detail["reference_ms"] = {
        "value": 1e3 * statistics.median(op.ref_seconds for op in ops), "unit": "ms"}
    detail["setup_wall_s"] = {
        "value": statistics.median(setup for setup, _ in setup_samples), "unit": "s"}
    detail["setup_samples_s"] = [{"setup": setup, "reference": ref_s}
                                 for setup, ref_s in setup_samples]
    if name == "cli_session":
        detail["command_p50_ms"] = {
            kind: 1e3 * statistics.median(op.seconds for op in ops if op.kind == kind)
            for kind in sorted({op.kind for op in ops})}
    if name == "mc_million":
        detail["workers"] = workloads.mc_workers()
    return metrics, detail


def census(seed, workdir):
    """Trace one operation of each workload and derive the per-layer metrics."""
    import workloads
    from layers import Recorder, TracedUniform, median_ms, named, patched

    recorder = Recorder()
    dist = TracedUniform(recorder)
    ops = []
    with patched(recorder):
        exact = workloads.ExactSweeps(seed, dist=dist)
        mark = len(recorder.spans)
        recorder.counts.clear()
        for _ in range(CENSUS_PASSES):
            ops += exact.round()
        sweep = recorder.spans[mark:]
        sweep_counts = dict(recorder.counts)
        mc = workloads.MCMillion(seed, dist=dist)
        mark = len(recorder.spans)
        ops += mc.round()
        kernel = recorder.spans[mark:]
        cli = workloads.CLISession(seed, workdir / "census", dist=dist, traced=True)
        cli_ops = [op for _ in range(CENSUS_CLI_ROUNDS) for op in cli.round()]
        ops += cli_ops
    spans = recorder.spans

    upsilon = named(sweep, "schedule.upsilon")
    beliefs = len(named(sweep, "evaluate.evaluate_policy"))
    metrics = {
        "schedule.basic_ms": (median_ms(
            [s.dur_ns for s in named(sweep, "schedule.build_basic_schedule")]), "ms"),
        "schedule.extension_ms": (median_ms(
            [s.dur_ns for s in named(sweep, "schedule.build_extension_schedule")]), "ms"),
        "schedule.upsilon_calls": (len(upsilon) / CENSUS_PASSES, "count"),
        "schedule.upsilon_ns": (sum(s.dur_ns for s in upsilon) / len(upsilon), "ns"),
        "schedule.w0_iters": (sum(
            s.parent_name in ("schedule.solve_w0_basic", "schedule.solve_w0_extension")
            for s in upsilon) / CENSUS_PASSES, "count"),
        "distributions.cdf_calls": (
            sweep_counts["distributions.cdf"] / beliefs, "count"),
        "distributions.partial_expectation_calls": (
            sweep_counts["distributions.partial_expectation"] / beliefs, "count"),
        "evaluate.build_policy_ms": (median_ms(
            [s.self_ns for s in named(spans, "evaluate.build_policy")]), "ms"),
        "evaluate.evaluate_policy_ms": (median_ms(
            [s.self_ns for s in named(sweep, "evaluate.evaluate_policy")]), "ms"),
        "experiments.sweep_self_ms": (median_ms(
            [s.self_ns for s in named(sweep, "experiments.sweep_beliefs")]), "ms"),
        "experiments.calibrate_ms": (median_ms(
            [s.dur_ns for s in named(spans, "experiments.calibrate_z")]), "ms"),
        "experiments.calibrate_solves": (
            len(named(spans, "schedule.solve_w0_basic", "experiments.calibrate_z"))
            / len(named(spans, "experiments.calibrate_z")), "count"),
        **kernel_metrics(kernel, mc.workers),
        **cli_metrics([op for op in cli_ops if op.layers]),
    }
    return {k: v for k, v in metrics.items() if v[0] is not None}, ops


def kernel_metrics(spans, workers):
    """Block, variate, quantile and fan-out metrics of one ``mc_million`` round.

    The round runs the parallel call first, then the serial one. Serial
    blocks are the ones whose parent span is ``simulate_many``; parallel
    blocks run on the pool's threads, so they have no parent span. The
    parallel call has at least two workers, so it always uses the pool.
    """
    from layers import median_ms, named
    parallel_run, serial_run = named(spans, "montecarlo.simulate_many")
    blocks = named(spans, "montecarlo.simulate_block")
    serial_blocks = [b for b in blocks if b.parent == serial_run.ident]
    parallel_blocks = [b for b in blocks if b.parent is None]
    full = [b for b in serial_blocks if b.size == max(b.size for b in serial_blocks)]
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def per_block(name, value):
        return [value([c for c in children.get(b.ident, []) if c.name == name])
                for b in full]

    def total_ns(group):
        return sum(c.dur_ns for c in group)

    serial_ids = {b.ident for b in serial_blocks}
    variates = [s for s in named(spans, "montecarlo._variates") if s.parent in serial_ids]
    spells = sum(b.size for b in serial_blocks)
    metrics = {
        "montecarlo.block_ms": (median_ms([b.dur_ns for b in full]), "ms"),
        "montecarlo.quantile_ms": (
            median_ms(per_block("distributions.quantile", total_ns)), "ms"),
        "montecarlo.bookkeeping_ms": (median_ms([b.self_ns for b in full]), "ms"),
        "montecarlo.periods_per_block": (
            statistics.median(per_block("distributions.quantile", len)), "count"),
        "montecarlo.fanout_efficiency": (
            serial_run.dur_ns / (workers * parallel_run.dur_ns), "ratio"),
        "montecarlo.worker_idle_frac": (
            1.0 - sum(b.dur_ns for b in parallel_blocks)
            / (workers * parallel_run.dur_ns), "ratio"),
        "montecarlo.reduce_ms": (serial_run.self_ns / 1e6, "ms"),
    }
    if variates:
        metrics.update({
            "montecarlo.variates_ms": (
                median_ms(per_block("montecarlo._variates", total_ns)), "ms"),
            "montecarlo.ns_per_variate": (
                total_ns(variates) / sum(s.size for s in variates), "ns"),
            "montecarlo.variates_per_spell": (
                sum(s.size for s in variates) / spells, "count"),
        })
    return metrics


def cli_metrics(ops):
    """Start-up and per-command metrics from traced ``uisearch`` commands."""
    python = []
    for _ in range(PYTHON_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, timeout=60)
        python.append(time.perf_counter() - start)
    metrics = {
        "cli.python_ms": (1e3 * statistics.median(python), "ms"),
        "cli.import_ms": (statistics.median(op.layers["import_ms"] for op in ops), "ms"),
    }
    for command in sorted({op.kind for op in ops}):
        metrics[f"cli.{command}_ms"] = (statistics.median(
            op.layers["main_ms"] for op in ops if op.kind == command), "ms")
    parse = [ns for op in ops for ns in op.layers["spans_ns"].get("config.parse_config", [])]
    spell = [ns for op in ops for ns in op.layers["spans_ns"].get("montecarlo.simulate_spell", [])]
    metrics["config.parse_ms"] = (statistics.median(parse) / 1e6, "ms")
    metrics["montecarlo.trace_spell_us"] = (sum(spell) / len(spell) / 1e3, "us")
    return metrics


def traced_run(name, seed, seconds, workdir):
    """Untraced then traced rounds for the overhead, then the layer census."""
    import workloads
    from layers import Recorder, TracedUniform, patched

    plain = workloads.build(name, seed, workdir / "plain")
    ops = plain.round()
    untraced = run_for(plain, seconds / 2)
    recorder = Recorder()
    traced_wl = workloads.build(name, seed, workdir / "traced",
                                dist=TracedUniform(recorder), traced=True)
    with patched(recorder):
        ops += traced_wl.round()
        traced = run_for(traced_wl, seconds / 2)
        recorder.spans.clear()
    ops += [op for r in untraced + traced for op in r]

    def round_median(rounds):
        return statistics.median(sum(op.seconds / op.ref_seconds for op in r)
                                 for r in rounds)

    overhead = round_median(traced) / round_median(untraced) - 1.0
    metrics, census_ops = census(seed, workdir)
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics, ops + census_ops, {}


def untraced_run(name, seed, seconds, workdir):
    import workloads
    setup_samples = measure_setup(name, seed, workdir)
    wl = workloads.build(name, seed, workdir / "run")
    warmup = wl.round()
    ops = [op for r in run_for(wl, seconds) for op in r]
    metrics, detail = end_to_end(name, ops, setup_samples)
    return metrics, warmup + ops, detail


def write_result(path, key, report):
    """Merge one run's report into the result file at ``path``."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    data["runs"][key] = report
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="merge the report into this file")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "uisearch" / "__init__.py").is_file():
        print(f"error: no uisearch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed, Path(os.environ["BENCH_WORKDIR"]))
        return 0

    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        run = traced_run if args.trace else untraced_run
        metrics, ops, detail = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed = [op for op in ops if not op.ok]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_facts(args.seed),
        "failed_frac": len(failed) / len(ops),
        "problems": [p for op in failed for p in op.problems][:20],
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        write_result(args.out, f"{args.workload}/trace{args.trace}/seed{args.seed}",
                     report)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
