"""JSON run configuration.

The file is a flat object (only the distribution descriptor nests), so
sweep scripts in any language can write one. All randomness in a run
flows from the single ``seed`` field.
"""

import errno
import json
import math
import os
import reprlib
from dataclasses import dataclass
from pathlib import Path

from .distributions import UniformOffers
from .errors import ConfigError
from .params import (DEFAULT_MAX_PERIODS, DEFAULT_SEED, DEFAULT_SPELLS, MAX_ENTITLEMENT,
                     MAX_PERIODS, MAX_SEED, MAX_SPELLS, ExtensionSpec, MarketParams)

_DEFAULTS = {
    "delta_belief": None,   # falls back to delta_true
    "len_belief": None,     # falls back to len_true
    "distribution": {"type": "uniform", "low": 0.0, "high": 1.0},
    "max_periods": DEFAULT_MAX_PERIODS,
    "seed": DEFAULT_SEED,
    "spells": DEFAULT_SPELLS,
}
_REQUIRED = ("beta", "z", "c", "N", "delta_true", "len_true")

# How error messages show a value from outside, be it from the config, a
# flag or a path: a repr of a few items and levels, cut by ``shown``.
_SHOWN_BYTES = 200
_SHOWN = reprlib.Repr()
_SHOWN.maxstring = _SHOWN_BYTES
_SHOWN.maxlevel = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one CLI run: the model objects and the
    simulation settings."""

    params: MarketParams
    truth: ExtensionSpec
    belief: ExtensionSpec
    distribution: UniformOffers
    max_periods: int
    seed: int
    spells: int


def shown(value, quoted=True):
    """``value`` as an error message shows it: its repr, or unless
    ``quoted`` the repr of its ``str`` without the quotes, in at most
    ``_SHOWN_BYTES`` bytes of UTF-8, where ``...`` stands for what is cut
    from the middle, from a long string, list or object, and below the
    third level. Escapes keep it on one line."""
    text = _SHOWN.repr(value) if quoted else _SHOWN.repr(str(value))[1:-1]
    data = text.encode()
    if len(data) <= _SHOWN_BYTES:
        return text
    keep = (_SHOWN_BYTES - 3) // 2
    return (data[:keep].decode(errors="ignore") + "..."
            + data[-keep:].decode(errors="ignore"))


def _numbers(values, field, not_number, not_finite):
    """``values`` as finite floats, or a ConfigError naming ``field``."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ConfigError(field, not_number.format(*map(shown, values)))
    try:
        values = [float(v) for v in values]
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(field, not_finite.format(math.inf, math.inf)) from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(field, not_finite.format(*values))
    return values


def require_number(data, field, lo=None, hi=None, lo_open=False, hi_open=False):
    """``data[field]`` as a finite float within the bounds, each closed
    unless marked open, or a ConfigError naming ``field``."""
    value, = _numbers([data[field]], field, "expected a number, got {}",
                      "expected a finite number, got {}")
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(field, f"value {value} below the admissible range")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(field, f"value {value} above the admissible range")
    return value


def require_int(data, field, lo, hi=None, limit=None):
    """``data[field]`` as an int of at least ``lo`` and at most ``hi``,
    which ``limit`` names, or a ConfigError naming ``field``."""
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {shown(value)}")
    if value < lo:
        raise ConfigError(field, f"value {shown(value)} must be at least {lo}")
    if hi is not None and value > hi:
        raise ConfigError(field, f"value {shown(value)} exceeds {limit}")
    return value


def require_probability(data, field):
    """An extension probability, in [0, 1]."""
    return require_number(data, field, lo=0.0, hi=1.0)


def require_length(data, field, lo=1):
    """An entitlement length in periods, from ``lo`` to the longest."""
    return require_int(data, field, lo=lo, hi=MAX_ENTITLEMENT,
                       limit="2**16 periods, the longest entitlement")


def _build_distribution(descriptor):
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise ConfigError("distribution", "expected an object with a 'type' key")
    if descriptor["type"] != "uniform":
        raise ConfigError("distribution",
                          f"unsupported type {shown(descriptor['type'])}")
    low, high = _numbers([descriptor.get("low", 0.0), descriptor.get("high", 1.0)],
                         "distribution", "low and high must be numbers",
                         "low and high must be finite")
    try:
        dist = UniformOffers(low=low, high=high)
    except ValueError as exc:  # the bounds out of order, or too large to square
        raise ConfigError("distribution", str(exc)) from None
    # Last, so that every descriptor refused before keeps its message.
    unknown = sorted(descriptor.keys() - {"type", "low", "high"})
    if unknown:
        raise ConfigError("distribution", f"unknown keys {shown(unknown)}: expected only "
                          "'type', 'low' and 'high'")
    return dist


def parse_config(path=None, overrides=None) -> RunConfig:
    """Load, merge, and validate a run configuration.

    ``overrides`` (a mapping using the same keys as the file) wins over
    the file, which wins over defaults. Raises ConfigError naming the
    offending field on any problem.
    """
    data = dict(_DEFAULTS)
    if path is not None:
        # No file name holds a NUL: for such a path, reading raises
        # ValueError before it opens anything.
        try:
            raw = Path(path).read_bytes()
        except (OSError, ValueError) as exc:
            reason = (exc.strerror if isinstance(exc, OSError)
                      else os.strerror(errno.EINVAL))
            raise ConfigError("config", f"cannot read {shown(path, quoted=False)}: "
                              f"{reason}") from exc
        # json decodes UTF-8, UTF-16 and UTF-32 bytes, a BOM included. A
        # ValueError is also bytes valid in none of them, or an integer over
        # int's digit limit; a RecursionError, values nested too deep.
        try:
            loaded = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ConfigError("config", f"malformed JSON in {shown(path, quoted=False)}: "
                              f"{exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
        data.update(loaded)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})

    known = set(_DEFAULTS) | set(_REQUIRED)
    for key in data:
        if key not in known:
            raise ConfigError(shown(key, quoted=False), "unknown configuration key")
    for key in _REQUIRED:
        if key not in data or data[key] is None:
            raise ConfigError(key, "required field is missing")

    beta = require_number(data, "beta", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    z = require_number(data, "z", lo=0.0, lo_open=True)
    c = require_number(data, "c", lo=0.0, lo_open=True)
    n_periods = require_length(data, "N", lo=0)
    delta_true = require_probability(data, "delta_true")
    len_true = require_length(data, "len_true")
    if data["delta_belief"] is None:
        data["delta_belief"] = delta_true
    if data["len_belief"] is None:
        data["len_belief"] = len_true
    delta_belief = require_probability(data, "delta_belief")
    len_belief = require_length(data, "len_belief")
    max_periods = require_int(data, "max_periods", lo=1, hi=MAX_PERIODS,
                              limit="the 2**30 periods the draw counter allows")
    seed = require_int(data, "seed", lo=0, hi=MAX_SEED,
                       limit="2**64 - 1, the largest seed")
    spells = require_int(data, "spells", lo=1, hi=MAX_SPELLS,
                         limit="the 2**32 spell indices")
    dist = _build_distribution(data["distribution"])

    # The model's two conditions that the range checks above leave open.
    if not dist.low < (1.0 - beta) * z + beta * dist.mean:
        raise ConfigError("z", "solver assumption violated: "
                          "w_low < (1 - beta) * z + beta * mean_wage")
    if not z + c < dist.high:
        raise ConfigError("c", "solver assumption violated: z + c < w_high")

    return RunConfig(params=MarketParams(beta=beta, z=z, c=c, n_periods=n_periods),
                     truth=ExtensionSpec(delta=delta_true, length=len_true),
                     belief=ExtensionSpec(delta=delta_belief, length=len_belief),
                     distribution=dist, max_periods=max_periods, seed=seed,
                     spells=spells)
