"""Command-line entry point.

Subcommands: solve, evaluate, simulate, sweep, calibrate. Each returns
the lines of its data, and ``main`` alone writes them, to stdout or
--out; diagnostics go to stderr. Exit codes: 0 success,
2 configuration or validation problem, 3 a fixed point that reached the
solver's private Newton step cap (no accepted configuration is known to),
4 infeasible calibration, 5 a policy whose expected duration diverges
or cannot be resolved in floating point.
"""

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict

from .config import parse_config
from .distributions import UniformOffers
from .errors import (ConfigError, DivergenceError, InfeasibleError,
                     NonConvergenceError)
from .evaluate import build_policy, evaluate_beliefs, loss_pct
from .experiments import Calibration, calibrate_z, sweep_beliefs
from .params import MAX_ENTITLEMENT
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
    """Refuse, before any work, an ``--out`` that is empty, a directory or
    in a missing one. ``main`` opens the file once the data is ready, so
    that a failed run leaves none."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not path:
        reason = os.strerror(errno.ENOENT)
    elif os.path.isdir(path):
        reason = os.strerror(errno.EISDIR)
    elif not os.path.isdir(parent):
        reason = os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    else:
        return
    raise ConfigError("out", f"cannot write {path}: {reason}")


def _cmd_solve(args):
    cfg = parse_config(args.config)
    _check_out(args.out)
    schedule = solve_schedules(cfg.distribution, cfg.params, cfg.belief)
    lines = ["n,w_basic,w_ext\n"]
    ext_wages = schedule._with_extension
    for n, w in enumerate(schedule._basic):
        ext = _fmt(ext_wages[n]) if n < len(ext_wages) else ""
        lines.append(f"{n},{_fmt(w)},{ext}\n")
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


def _check_threads(threads):
    if threads < 1:
        raise ConfigError("threads", f"expected at least 1 worker process, got {threads}")


def _cmd_simulate(args):
    from .montecarlo import CounterStream, simulate_many, simulate_spell
    _check_threads(args.threads)
    if args.trace < 0:
        raise ConfigError("trace", f"expected at least 0 spell records, got {args.trace}")
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
        raise ConfigError("grid", f"expected LO:HI:STEP, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError("grid", f"LO, HI and STEP must be finite, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ConfigError("grid", f"empty or descending grid {spec!r}")
    if as_int and not (lo.is_integer() and step.is_integer()):
        raise ConfigError("grid", f"LO and STEP of a length grid must be whole "
                          f"numbers, got {spec!r}")
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
            raise ConfigError("grid", f"{spec!r} has more than {MAX_GRID_POINTS} points")
        if values and v == values[-1]:
            raise ConfigError("grid", f"STEP of {spec!r} is finer than the 12 digits "
                              f"printed: two points print as {_fmt(v)}")
        values.append(v)
    return values


def _cmd_sweep(args):
    _check_threads(args.threads)
    overrides = {"spells": args.spells, "seed": args.seed}
    cfg = parse_config(args.config, overrides=overrides)
    cal = Calibration(params=cfg.params, dist=cfg.distribution, truth=cfg.truth,
                      target_duration=float("nan"))
    grid = None
    if args.grid:
        grid = _parse_grid(args.grid, as_int=(args.vary == "len"))
        if args.vary == "delta" and any(not 0.0 <= v <= 1.0 for v in grid):
            raise ConfigError("grid", "belief probabilities must lie in [0, 1]")
        if args.vary == "len" and any(v < 1 for v in grid):
            raise ConfigError("grid", "belief lengths must be at least 1")
        if args.vary == "len" and any(v > MAX_ENTITLEMENT for v in grid):
            raise ConfigError("grid", "belief lengths may not exceed 2**16 periods")
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
    if not 0.0 < args.beta < 1.0:
        raise ConfigError("beta", f"value {args.beta} outside (0, 1)")
    if not math.isfinite(args.duration):
        raise ConfigError("duration", f"expected a finite number, got {args.duration}")
    _check_out(args.out)
    z_full = calibrate_z(args.duration, args.beta, UniformOffers())
    payload = {"z_full": z_full, "z": 0.5 * z_full, "c": 0.5 * z_full}
    return [json.dumps(payload) + "\n"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uisearch",
        description="Job search with expiring, possibly extended UI benefits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="write data to a file")

    p = sub.add_parser("solve", help="emit both reservation-wage schedules as CSV")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="exact policy evaluation as JSON")
    add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo spell simulation as JSON")
    add_common(p)
    p.add_argument("--spells", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-periods", type=int, default=None)
    p.add_argument("--trace", type=int, default=0, metavar="K",
                   help="also dump the first K spell records as CSV")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="belief-misperception sweep as CSV")
    add_common(p)
    p.add_argument("--vary", choices=("delta", "len"), default="delta")
    p.add_argument("--grid", default=None, metavar="LO:HI:STEP")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--spells", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="solve the nonwork flow for a duration target")
    add_common(p, needs_config=False)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.95)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.func(args)
        if args.out is None:
            sys.stdout.writelines(lines)
        else:
            try:
                handle = open(args.out, "w")
            except OSError as exc:  # no permission, or a race with _check_out
                raise ConfigError("out", f"cannot write {args.out}: "
                                  f"{exc.strerror or exc}") from None
            with handle:
                handle.writelines(lines)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
