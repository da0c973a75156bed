"""Command-line entry point.

Subcommands: solve, evaluate, simulate, sweep, calibrate. Each returns
the lines of its data, and ``main`` alone writes them, to stdout or
--out; diagnostics go to stderr. Exit codes: 0 success,
2 configuration or validation problem, or a failed write of the data
(no permission, a full disk, a closed pipe), 3 a fixed point that
reached the solver's private Newton step cap (no accepted configuration
is known to), 4 infeasible calibration, 5 a policy whose expected
duration diverges or cannot be resolved in floating point.
"""

import argparse
import contextlib
import errno
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import zip_longest

from .config import (parse_config, require_int, require_length, require_number,
                     require_probability, shown)
from .distributions import UniformOffers
from .errors import (ConfigError, DivergenceError, InfeasibleError,
                     NonConvergenceError)
from .evaluate import build_policy, evaluate_beliefs, loss_pct
from .experiments import Calibration, calibrate_z, sweep_beliefs
from .schedule import solve_schedules

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_INFEASIBLE = 4
EXIT_DIVERGENCE = 5

# The exit code of each error reported as one ``error:`` line on stderr.
_EXIT_CODES = {ConfigError: EXIT_CONFIG, NonConvergenceError: EXIT_NONCONVERGENCE,
               InfeasibleError: EXIT_INFEASIBLE, DivergenceError: EXIT_DIVERGENCE}

MAX_GRID_POINTS = 10_000


def _fmt(value) -> str:
    """Floating values are printed with 12 significant digits."""
    return format(float(value), ".12g")


def _check_out(path):
    """Refuse, before any work, an ``--out`` that is empty, holds a NUL, is
    a directory or is in a missing one. ``main`` opens the file once the
    data is ready, so that a failed run leaves none."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not path:
        reason = os.strerror(errno.ENOENT)
    elif "\0" in path:  # no file name holds one: open would raise ValueError
        reason = os.strerror(errno.EINVAL)
    elif os.path.isdir(path):
        reason = os.strerror(errno.EISDIR)
    elif not os.path.isdir(parent):
        reason = os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    else:
        return
    raise ConfigError("out", f"cannot write {shown(path, quoted=False)}: {reason}")


def _cmd_solve(args):
    cfg = parse_config(args.config)
    _check_out(args.out)
    schedule = solve_schedules(cfg.distribution, cfg.params, cfg.belief)
    lines = ["n,w_basic,w_ext\n"]
    # The basic schedule is the longer one; w_ext is blank past n_periods.
    for n, (w, ext) in enumerate(zip_longest(schedule._basic, schedule._with_extension)):
        lines.append(f"{n},{_fmt(w)},{'' if ext is None else _fmt(ext)}\n")
    return lines


def _cmd_evaluate(args):
    cfg = parse_config(args.config)
    _check_out(args.out)
    result, baseline = evaluate_beliefs([cfg.belief, cfg.truth], cfg.truth,
                                        cfg.params, cfg.distribution)
    payload = {
        "welfare": result.welfare,
        "duration": result.duration,
        "accepted_wage": result.accepted_wage,
        "loss_pct": loss_pct(baseline.welfare, result.welfare),
    }
    return [json.dumps(payload) + "\n"]


def _cmd_simulate(args):
    from .montecarlo import CounterStream, simulate_many, simulate_spell
    require_int(vars(args), "threads", lo=1)
    require_int(vars(args), "trace", lo=0)
    overrides = {"spells": args.spells, "seed": args.seed,
                 "max_periods": args.max_periods}
    cfg = parse_config(args.config, overrides=overrides)
    _check_out(args.out)
    policy = build_policy(cfg.distribution, cfg.params, cfg.belief,
                          true_length=cfg.truth.length)
    summary = simulate_many(policy, cfg.truth, cfg.params, cfg.distribution,
                            cfg.spells, cfg.seed,
                            max_periods=cfg.max_periods, n_workers=args.threads)
    if summary.truncated_count:
        print(f"warning: {summary.truncated_count} of {summary.n_spells} spells "
              f"truncated at max_periods={cfg.max_periods}; "
              "means cover completed spells only", file=sys.stderr)

    def lines():  # lazy, so that main streams a long trace as it writes
        if args.trace:
            yield ("spell,duration,accepted_wage,welfare,extended,"
                   "extension_period,truncated\n")
            for i in range(min(args.trace, cfg.spells)):
                stream = CounterStream(cfg.seed, i)
                rec = simulate_spell(policy, cfg.truth, cfg.params,
                                     cfg.distribution, stream,
                                     max_periods=cfg.max_periods)
                wage = "" if rec.accepted_wage is None else _fmt(rec.accepted_wage)
                period = "" if rec.extension_period is None else rec.extension_period
                yield (f"{i},{rec.duration},{wage},{_fmt(rec.welfare)},"
                       f"{str(rec.extended).lower()},{period},"
                       f"{str(rec.truncated).lower()}\n")
        # A mean over no completed spell, or a stderr over one, is
        # undefined: JSON null, since NaN is not JSON.
        yield json.dumps({key: None if isinstance(value, float) and math.isnan(value) else value
                          for key, value in asdict(summary).items()}, allow_nan=False) + "\n"
    return lines()


def _parse_grid(spec, as_int):
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ConfigError("grid", f"expected LO:HI:STEP, got {shown(spec)}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError("grid", f"LO, HI and STEP must be finite, got {shown(spec)}")
    if step <= 0 or hi < lo:
        raise ConfigError("grid", f"empty or descending grid {shown(spec)}")
    if as_int and not (lo.is_integer() and step.is_integer()):
        raise ConfigError("grid", f"LO and STEP of a length grid must be whole "
                          f"numbers, got {shown(spec)}")
    # Points and HI are compared as the CSV prints them, to 12 significant
    # digits, so a LO + k * STEP that misses HI by float rounding alone
    # still ends the grid, and no point that prints above HI is kept.
    # Lengths are whole numbers, compared exactly as ints: 12 digits would
    # merge lengths past 10**12. A STEP too fine for 12 digits would print
    # one belief on several rows, so it is refused.
    if as_int:
        lo, step = int(lo), int(step)
    printed = math.floor if as_int else lambda v: float(_fmt(v))
    values = []
    while (v := printed(lo + len(values) * step)) <= printed(hi):
        if len(values) == MAX_GRID_POINTS:
            raise ConfigError("grid", f"{shown(spec)} has more than "
                              f"{MAX_GRID_POINTS} points")
        if values and v == values[-1]:
            raise ConfigError("grid", f"STEP of {shown(spec)} is finer than the 12 digits "
                              f"printed: two points print as {_fmt(v)}")
        values.append(v)
    return values


def _cmd_sweep(args):
    require_int(vars(args), "threads", lo=1)
    overrides = {"spells": args.spells, "seed": args.seed}
    cfg = parse_config(args.config, overrides=overrides)
    cal = Calibration(params=cfg.params, dist=cfg.distribution, truth=cfg.truth,
                      target_duration=float("nan"))
    grid = None
    if args.grid is not None:
        grid = _parse_grid(args.grid, as_int=(args.vary == "len"))
        check = require_length if args.vary == "len" else require_probability
        for point in grid:
            check({"grid": point}, "grid")
    _check_out(args.out)
    rows = sweep_beliefs(cal, vary=args.vary, grid=grid, mode=args.mode,
                         seed=cfg.seed, spells=cfg.spells,
                         max_periods=cfg.max_periods, n_workers=args.threads)
    truncated_rows = sum(row.truncated_count > 0 for row in rows)
    if truncated_rows:
        print(f"warning: spells truncated at max_periods={cfg.max_periods} in "
              f"the runs behind {truncated_rows} of {len(rows)} rows; "
              "means cover completed spells only", file=sys.stderr)
    lines = ["varied_param,belief_value,misperception,loss_pct,"
             "duration_ratio,wage_gap_pct\n"]
    for row in rows:
        lines.append(f"{row.varied_param},{_fmt(row.belief_value)},"
                     f"{_fmt(row.misperception)},{_fmt(row.loss_pct)},"
                     f"{_fmt(row.duration_ratio)},{_fmt(row.wage_gap_pct)}\n")
    return lines


def _cmd_calibrate(args):
    require_number(vars(args), "beta", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    require_number(vars(args), "duration")
    _check_out(args.out)
    z_full = calibrate_z(args.duration, args.beta, UniformOffers())
    payload = {"z_full": z_full, "z": 0.5 * z_full, "c": 0.5 * z_full}
    return [json.dumps(payload) + "\n"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uisearch",
        description="Job search with expiring, possibly extended UI benefits.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each declared once: --out, then
    # --config with it, then the Monte Carlo flags with both.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write data to a file")
    config = argparse.ArgumentParser(add_help=False, parents=[out])
    config.add_argument("--config", required=True, help="JSON config file")
    monte_carlo = argparse.ArgumentParser(add_help=False, parents=[config])
    monte_carlo.add_argument("--spells", type=int, default=None)
    monte_carlo.add_argument("--seed", type=int, default=None)
    monte_carlo.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("solve", parents=[config],
                       help="emit both reservation-wage schedules as CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", parents=[config], help="exact policy evaluation as JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", parents=[monte_carlo],
                       help="Monte Carlo spell simulation as JSON")
    p.add_argument("--max-periods", type=int, default=None)
    p.add_argument("--trace", type=int, default=0, metavar="K",
                   help="also dump the first K spell records as CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[monte_carlo], help="belief-misperception sweep as CSV")
    p.add_argument("--vary", choices=("delta", "len"), default="delta")
    p.add_argument("--grid", default=None, metavar="LO:HI:STEP")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", parents=[out],
                       help="solve the nonwork flow for a duration target")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.95)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a thread pool on import, and no command makes
    # a BLAS call: one thread spares each simulating process the pool's
    # start-up and its forks a multi-threaded parent. Set before any
    # command imports numpy; a value the user set wins, and the library
    # leaves the environment to its caller.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.func(args)
        # One guarded write: no permission, a race with _check_out, a full
        # disk or a closed pipe, on open, write or flush, is one error line.
        try:
            with (contextlib.nullcontext(sys.stdout) if args.out is None
                  else open(args.out, "w")) as handle:
                handle.writelines(lines)
                handle.flush()
        except OSError as exc:
            raise ConfigError("out", f"cannot write {shown(args.out or 'stdout', quoted=False)}"
                              f": {exc.strerror or shown(exc, quoted=False)}") from None
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
