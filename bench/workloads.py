"""The benchmark's three closed-loop workloads and their correctness checks.

Each workload is built from the workload seed. ``steps()`` lists its
operations and ``round()`` runs them once, each returning an ``Op`` that
is already checked; the next operation starts only after the previous
one has returned. ``reference(op)`` is the work the harness times after
an operation, to express the operation's time in reference units.
Check functions are module-level so that tests can feed them tampered
inputs.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import uisearch as us
from uisearch import CounterStream, ExtensionSpec, UniformOffers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The true extensions the seed picks from. With each, one exact_sweeps
# pass makes between 2939 and 3005 upsilon calls, so the seed moves the
# truth without moving the amount of work much.
TRUTHS = tuple(ExtensionSpec(delta=d, length=n) for d, n in (
    (0.3, 15), (0.35, 20), (0.4, 20), (0.45, 25), (0.5, 25), (0.55, 25),
    (0.6, 30), (0.65, 30), (0.7, 30)))
PESSIMIST = ExtensionSpec(delta=0.1, length=25)
MC_SPELLS = 1_000_000
MC_ZMAX = 3.0
CLI_SPELLS = 20_000
CLI_TRACE = 50
CLI_COMMANDS = ("solve", "evaluate", "sweep", "calibrate", "simulate")


@dataclass
class Op:
    """One checked operation: its wall time, the work it did, and its faults."""

    kind: str
    seconds: float
    work: int
    problems: list = field(default_factory=list)
    rss_kb: int = 0
    layers: dict | None = None
    ref_seconds: float | None = None

    @property
    def ok(self):
        return not self.problems


class Workload:
    """A workload's operations; ``steps()`` lists them in the order they run."""

    def steps(self):
        raise NotImplementedError

    def round(self):
        return [step() for step in self.steps()]

    def reference(self, op):
        """Fixed work that shares no code with uisearch, timed after ``op``.

        It mixes interpreter-bound scalar numpy calls with 64-bit integer
        mixing over a 65 536-lane array, like the solver and the kernel,
        so a busy host slows it about as much as it slows the workload.
        """
        acc = 0.0
        for i in range(1500):
            acc += float(np.clip(np.asarray(i * 1e-4), 0.0, 1.0)) + math.sqrt(i)
        lanes = np.arange(65_536, dtype=np.uint64)
        shifted = np.empty_like(lanes)
        for _ in range(8):
            np.right_shift(lanes, np.uint64(30), out=shifted)
            np.bitwise_xor(lanes, shifted, out=lanes)
            np.multiply(lanes, np.uint64(0xBF58476D1CE4E5B9), out=lanes)
        return acc + float(lanes[0])


def nproc():
    return len(os.sched_getaffinity(0))


def mc_workers():
    """Workers for ``mc_million``'s parallel call: ``nproc``, but at least two.

    With one worker ``simulate_many`` runs its blocks inline, so on a
    one-CPU host the fan-out would go untimed and the check that worker
    counts agree would compare a call with itself.
    """
    return max(2, nproc())


# exact_sweeps ---------------------------------------------------------------

def check_sweeps(delta_rows, len_rows, truth):
    """Problems with one pass of the two headline sweeps (empty when correct)."""
    problems = []
    if (len(delta_rows), len(len_rows)) != (17, 9):
        problems.append(f"grid sizes {len(delta_rows)}, {len(len_rows)} != 17, 9")
    by_delta = {round(r.belief_value, 2): r.loss_pct for r in delta_rows}
    by_len = {int(r.belief_value): r.loss_pct for r in len_rows}
    for label, loss in (("delta", by_delta.get(truth.delta)),
                        ("len", by_len.get(truth.length))):
        if loss is None or not abs(loss) < 1e-8:
            problems.append(f"{label} sweep: loss at the truth is {loss}")
    worst = min(r.loss_pct for r in delta_rows + len_rows)
    if not worst >= -1e-8:
        problems.append(f"negative loss {worst}")
    if not by_delta.get(0.1, -1.0) > by_delta.get(0.9, math.inf):
        problems.append("pessimist loss at 0.1 is not above optimist loss at 0.9")
    return problems


def check_closed_form(cal):
    """The iterative truth schedule against the uniform closed form."""
    solved = us.solve_schedules(cal.dist, cal.params, cal.truth)
    closed = us.uniform_closed_form(cal.params, cal.truth)
    gap = max(float(abs(solved.basic - closed.basic).max()),
              float(abs(solved.with_extension - closed.with_extension).max()))
    return [] if gap <= 1e-9 else [f"schedule differs from closed form by {gap}"]


class ExactSweeps(Workload):
    """Demo 02's headline experiment: a delta sweep then a length sweep."""

    name = "exact_sweeps"

    def __init__(self, seed, dist=None):
        truth = random.Random(seed).choice(TRUTHS)
        self.cal = us.default_calibration(truth=truth, dist=dist or UniformOffers())
        self.closed_form_problems = check_closed_form(self.cal)
        self.first = None

    def steps(self):
        return [self.sweep_pass]

    def sweep_pass(self):
        start = time.perf_counter()
        delta_rows = us.sweep_beliefs(self.cal, vary="delta", n_workers=1)
        len_rows = us.sweep_beliefs(self.cal, vary="len", n_workers=1)
        seconds = time.perf_counter() - start
        problems = self.closed_form_problems + check_sweeps(
            delta_rows, len_rows, self.cal.truth)
        rows = (delta_rows, len_rows)
        if self.first is None:
            self.first = rows
        elif rows != self.first:
            problems.append("sweep rows differ from the first pass")
        return Op("pass", seconds, len(delta_rows) + len(len_rows), problems)


# mc_million -----------------------------------------------------------------

def check_mc(summary, exact, zmax=MC_ZMAX):
    """Monte Carlo means within ``zmax`` standard errors of the exact values."""
    problems = []
    for label, mean, err, value in (
            ("welfare", summary.welfare_mean, summary.welfare_stderr, exact.welfare),
            ("duration", summary.duration_mean, summary.duration_stderr, exact.duration),
            ("wage", summary.wage_mean, summary.wage_stderr, exact.accepted_wage)):
        if not abs(mean - value) <= zmax * err:
            problems.append(f"{label}: simulated {mean} vs exact {value} "
                            f"({(mean - value) / err:+.2f} stderr)")
    if summary.truncated_count:
        problems.append(f"{summary.truncated_count} truncated spells")
    return problems


class MCMillion(Workload):
    """Demo 03's check: a million pessimist spells against the exact evaluator."""

    name = "mc_million"

    def __init__(self, seed, dist=None):
        self.seed = seed
        self.workers = mc_workers()
        self.cal = us.default_calibration(dist=dist or UniformOffers())
        self.policy = us.build_policy(self.cal.dist, self.cal.params, PESSIMIST,
                                   true_length=self.cal.truth.length)
        self.exact = us.evaluate_policy(self.policy, self.cal.truth, self.cal.params,
                                     self.cal.dist)
        self.first = None

    def simulate(self, workers):
        start = time.perf_counter()
        summary = us.simulate_many(self.policy, self.cal.truth, self.cal.params,
                                self.cal.dist, MC_SPELLS, self.seed, n_workers=workers)
        return summary, time.perf_counter() - start

    def steps(self):
        return [self.parallel_call, self.serial_call]

    def parallel_call(self):
        summary, seconds = self.simulate(self.workers)
        problems = check_mc(summary, self.exact)
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            problems.append("summary differs from the first repeat")
        return Op("parallel", seconds, MC_SPELLS, problems)

    def reference(self, op):
        """Five rounds of the reference work, on as many threads as ``op`` used.

        A call takes about a second, so one round, about 10 ms, would
        sample the host's speed too briefly to stand for it.
        """
        def rounds(_):
            for _ in range(5):
                super(MCMillion, self).reference(op)
        if op.kind == "serial":
            return rounds(None)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(rounds, range(self.workers)))

    def serial_call(self):
        summary, seconds = self.simulate(1)
        problems = [] if summary == self.first else [
            f"1-worker summary differs from the {self.workers}-worker summary"]
        return Op("serial", seconds, MC_SPELLS, problems)


# cli_session ----------------------------------------------------------------

def _close(a, b):
    return abs(a - b) <= 1e-11 * max(1.0, abs(b))


def _csv_rows(text):
    lines = text.strip().splitlines()
    return [[float(cell) if cell else None for cell in line.split(",")[1:]]
            for line in lines[1:]]


def _trace_row(line):
    _, duration, wage, welfare, extended, period, truncated = line.split(",")
    return (int(duration), float(wage) if wage else None, float(welfare),
            extended == "true", int(period) if period else None, truncated == "true")


def _same_record(got, want):
    return all(g == w or (isinstance(w, float) and g is not None and _close(g, w))
               for g, w in zip(got, want, strict=True))


def check_cli(command, stdout, expected):
    """Compare one command's stdout with the library's own results."""
    try:
        text = stdout.decode()
        if command in ("solve", "sweep"):
            rows = _csv_rows(text)
            want = expected[command]
            if len(rows) != len(want):
                return [f"{command}: {len(rows)} rows, expected {len(want)}"]
            for got_row, want_row in zip(rows, want):
                for got, value in zip(got_row, want_row, strict=True):
                    if (got is None) != (value is None) or (
                            got is not None and not _close(got, value)):
                        return [f"{command}: row {got_row} != {want_row}"]
            return []
        if command in ("evaluate", "calibrate"):
            got = json.loads(text)
            return [] if got == expected[command] else [
                f"{command}: {got} != {expected[command]}"]
        lines = text.strip().splitlines()
        summary = json.loads(lines[-1])
        trace = [_trace_row(line) for line in lines[1:-1]]
        problems = []
        if summary != expected["simulate"]:
            problems.append(f"simulate: summary {summary} != {expected['simulate']}")
        if len(trace) != len(expected["trace"]) or not all(
                _same_record(got, want) for got, want in zip(trace, expected["trace"])):
            problems.append("simulate: trace rows differ from simulate_spell")
        return problems
    except (ValueError, KeyError) as exc:
        return [f"{command}: unreadable output ({exc})"]


def expected_outputs(cfg, cal, seed):
    """The library's results for every command of the session."""
    params, dist, truth = cal.params, cal.dist, cal.truth
    belief = ExtensionSpec(delta=cfg["delta_belief"], length=cfg["len_belief"])
    schedule = us.solve_schedules(dist, params, belief)
    ext = schedule.with_extension
    solve = [[float(w), float(ext[n]) if n < len(ext) else None]
             for n, w in enumerate(schedule.basic)]
    policy = us.build_policy(dist, params, belief, true_length=truth.length)
    ev = us.evaluate_policy(policy, truth, params, dist)
    evaluate = {"welfare": ev.welfare, "duration": ev.duration,
                "accepted_wage": ev.accepted_wage,
                "loss_pct": us.welfare_loss(belief, truth, params, dist)}
    sweep = [[r.belief_value, r.misperception, r.loss_pct, r.duration_ratio,
              r.wage_gap_pct] for r in us.sweep_beliefs(cal, vary="delta")]
    z_full = us.calibrate_z(cal.target_duration, params.beta, UniformOffers())
    calibrate = {"z_full": z_full, "z": 0.5 * z_full, "c": 0.5 * z_full}
    summary = asdict(us.simulate_many(policy, truth, params, dist, CLI_SPELLS, seed))
    trace = []
    for i in range(CLI_TRACE):
        rec = us.simulate_spell(policy, truth, params, dist, CounterStream(seed, i))
        trace.append((rec.duration, rec.accepted_wage, rec.welfare, rec.extended,
                      rec.extension_period, rec.truncated))
    return {"solve": solve, "evaluate": evaluate, "sweep": sweep,
            "calibrate": calibrate, "simulate": summary, "trace": trace}


class CLISession(Workload):
    """The five ``uisearch`` subcommands, run one at a time as subprocesses."""

    name = "cli_session"

    def __init__(self, seed, workdir, dist=None, traced=False):
        self.seed = seed
        self.traced = traced
        self.cal = us.default_calibration(dist=dist or UniformOffers())
        params = self.cal.params
        cfg = {"beta": params.beta, "z": params.z, "c": params.c,
               "N": params.n_periods, "delta_true": self.cal.truth.delta,
               "len_true": self.cal.truth.length, "delta_belief": PESSIMIST.delta,
               "len_belief": PESSIMIST.length, "seed": seed}
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(cfg))
        self.expected = expected_outputs(cfg, self.cal, seed)
        self.first = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def argv(self, command):
        args = [command]
        if command == "calibrate":
            args += ["--duration", repr(self.cal.target_duration)]
        else:
            args += ["--config", str(self.config)]
        if command == "sweep":
            args += ["--mode", "exact"]
        if command == "simulate":
            args += ["--spells", str(CLI_SPELLS), "--trace", str(CLI_TRACE),
                     "--threads", "1", "--seed", str(self.seed)]
        runner = [str(BENCH_DIR / "clirun.py")] if self.traced else ["-m", "uisearch.cli"]
        return [sys.executable, *runner, *args]

    def run(self, command):
        start = time.perf_counter()
        proc = subprocess.Popen(self.argv(command), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        # wait4 reaps the child and returns its own peak memory.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        layers = None
        if proc.returncode != 0:
            problems = [f"{command}: exit code {proc.returncode}: "
                        f"{stderr.decode(errors='replace')[-300:]}"]
        else:
            if self.traced:
                layers = json.loads(stderr.decode().splitlines()[-1])
            problems = check_cli(command, stdout, self.expected)
            first = self.first.setdefault(command, stdout)
            if stdout != first:
                problems.append(f"{command}: stdout bytes differ from the first run")
        return Op(command, seconds, 1, problems, rss_kb=usage.ru_maxrss, layers=layers)

    def steps(self):
        return [functools.partial(self.run, command) for command in CLI_COMMANDS]

    def reference(self, op):
        """A bare interpreter start, then one that imports numpy.

        Together they are the floor under every command and take about
        as long as one.
        """
        for code in ("pass", "import numpy"):
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def build(name, seed, workdir, dist=None, traced=False):
    """Set up a workload: import-time work aside, everything it needs."""
    if name == CLISession.name:
        return CLISession(seed, workdir, dist=dist, traced=traced)
    return {w.name: w for w in (ExactSweeps, MCMillion)}[name](seed, dist=dist)
