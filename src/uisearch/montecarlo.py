"""Seeded, reproducible Monte Carlo simulation of unemployment spells.

Randomness comes from a counter-based scheme so that results never
depend on worker count or scheduling: uniform variate ``j`` of spell
``i`` is a pure function of ``(master_seed, i, j)``. Concretely, the
64-bit counter ``(i << 32) | j`` indexes a splitmix64 sequence offset by
a mix of the master seed, and the mixed output is mapped to [0, 1).
Each spell consumes one variate per extension trial (only while an
extension is still possible) and one per wage offer, in that order
within a period.

Spells are simulated either one at a time (``simulate_spell``, which
also accepts hand-built variate streams for tracing) or in vectorized
blocks (``simulate_block``, whose lanes carry only a spell index and an
extension period, with entitlement and welfare kept per extension
period and draw counters derived from the period); the two paths
consume identical streams and produce identical records.
``simulate_many`` always cuts spells into blocks of ``DEFAULT_CHUNK``,
runs them inline or on forked worker processes, and combines per-block
sums with an exact (order-insensitive) reduction, so a fixed
``(master_seed, n_spells)`` gives a bit-identical summary for any
worker count.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .distributions import OfferDistribution
from .params import ExtensionSpec, MarketParams

DEFAULT_MAX_PERIODS = 2_000
DEFAULT_CHUNK = 65_536

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _seed_offset(master_seed: int) -> int:
    return _mix64(master_seed & _MASK64)


def _variate(seed_offset: int, spell: int, draw: int) -> float:
    """Uniform variate in [0, 1) for draw ``draw`` of spell ``spell``."""
    counter = (spell << 32) | draw
    state = (seed_offset + (counter + 1) * _GAMMA) & _MASK64
    return (_mix64(state) >> 11) * 2.0 ** -53


def _variates(seed_offset, spells: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Vectorized ``_variate`` over uint64 index arrays, computed in place."""
    x = np.left_shift(spells, np.uint64(32))
    x |= draws
    x += np.uint64(1)
    x *= np.uint64(_GAMMA)
    x += np.uint64(seed_offset)
    shifted = np.right_shift(x, np.uint64(30))
    x ^= shifted
    x *= np.uint64(_MIX1)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(_MIX2)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    x >>= np.uint64(11)
    return np.multiply(x, 2.0 ** -53, out=shifted.view(np.float64))


class CounterStream:
    """Per-spell uniform stream derived from ``(master_seed, index)``."""

    def __init__(self, master_seed: int, index: int):
        self._offset = _seed_offset(master_seed)
        self._spell = index
        self._draw = 0

    def _next(self) -> float:
        u = _variate(self._offset, self._spell, self._draw)
        self._draw += 1
        return u

    def next_extension(self, delta) -> bool:
        """One extension trial: True with probability ``delta``."""
        return self._next() < delta

    def next_offer(self, dist: OfferDistribution) -> float:
        """One wage offer by inverse-CDF sampling."""
        return dist.quantile(self._next())


@dataclass(frozen=True)
class SpellRecord:
    """One simulated unemployment spell.

    ``duration`` counts offers received up to and including the accepted
    one (``max_periods`` when truncated). ``extension_period`` is the
    1-based offer index at which the extension first applied, or None.
    ``accepted_wage`` is None when the spell was truncated.
    """

    duration: int
    accepted_wage: float | None
    welfare: float
    extended: bool
    extension_period: int | None
    truncated: bool


def simulate_spell(policy, truth: ExtensionSpec, params: MarketParams,
                   dist: OfferDistribution, stream,
                   max_periods=DEFAULT_MAX_PERIODS) -> SpellRecord:
    """Simulate one spell under (belief policy, true process).

    Each period: collect the flow (nonwork plus compensation while
    entitled), resolve the extension trial if still pending (entitlement
    jumps to ``max(n - 1, 0) + length`` on success, so an extension at
    zero entitlement restores the full extension length), then draw an
    offer and compare it against the threshold at the new state. The
    spell truncates after ``max_periods`` offers.
    """
    z, c, beta = params.z, params.c, params.beta
    n = params.n_periods
    extended = False
    extension_period = None
    welfare = 0.0
    disc = 1.0
    for t in range(max_periods):
        welfare += disc * (z + (c if n > 0 else 0.0))
        n = max(n - 1, 0)
        if not extended and stream.next_extension(truth.delta):
            extended = True
            n += truth.length
            extension_period = t + 1
        disc *= beta
        w = stream.next_offer(dist)
        threshold = (policy.post_thresholds[n] if extended
                     else policy.pre_thresholds[n])
        if w >= threshold:
            welfare += disc * w / (1.0 - beta)
            return SpellRecord(duration=t + 1, accepted_wage=w, welfare=welfare,
                               extended=extended, extension_period=extension_period,
                               truncated=False)
    return SpellRecord(duration=max_periods, accepted_wage=None, welfare=welfare,
                       extended=extended, extension_period=extension_period,
                       truncated=True)


def simulate_block(policy, truth: ExtensionSpec, params: MarketParams,
                   dist: OfferDistribution, master_seed: int,
                   start: int, count: int,
                   max_periods=DEFAULT_MAX_PERIODS) -> dict:
    """Simulate spells ``start .. start + count - 1`` vectorized.

    Consumes exactly the streams ``CounterStream(master_seed, i)`` would,
    so results are independent of how spells are grouped into blocks.
    Returns arrays keyed ``duration``, ``accepted_wage`` (NaN when
    truncated), ``welfare``, ``extended``, ``extension_period`` (-1 when
    none), and ``truncated``.

    All active lanes are at the same period ``t``, so a lane's
    entitlement, welfare and discount depend on it only through its
    extension period ``k`` (0 while the trial is pending). Lanes carry
    their spell index and ``k``; entitlement and welfare are per-``k``
    vectors. Draw counters are derived: a pending lane draws its trial
    at ``2t`` and its offer at ``2t + 1``, an extended one its offer at
    ``t + k``.
    """
    if start + count > 1 << 32:
        raise ValueError("spell indices must fit in 32 bits")
    if max_periods > 1 << 30:
        raise ValueError("max_periods too large for the draw counter")
    z, c, beta = params.z, params.c, params.beta
    delta, length = truth.delta, truth.length
    pre = policy.pre_thresholds
    post = policy.post_thresholds
    offset = _seed_offset(master_seed)

    duration = np.full(count, max_periods, dtype=np.int64)
    wage = np.full(count, np.nan)
    welfare = np.zeros(count)
    ext_period = np.zeros(count, dtype=np.int64)

    # Active lanes, compacted as spells end, and the per-k state.
    spell = np.arange(start, start + count, dtype=np.uint64)
    k = np.zeros(count, dtype=np.int64)
    n_k = np.array([params.n_periods], dtype=np.int64)
    wel_k = np.zeros(1)
    disc = 1.0

    for t in range(max_periods):
        wel_k = wel_k + disc * (z + c * (n_k > 0))
        n_k = np.maximum(n_k - 1, 0)
        n_k = np.append(n_k, n_k[0] + length)
        wel_k = np.append(wel_k, wel_k[0])
        pending = np.flatnonzero(k == 0)
        if pending.size:
            u_ext = _variates(offset, spell[pending], np.uint64(2 * t))
            k[pending[u_ext < delta]] = t + 1
        disc *= beta
        draws = np.arange(t, 2 * t + 2, dtype=np.uint64)
        draws[0] = 2 * t + 1
        w = dist.quantile(_variates(offset, spell, draws[k]))
        accept = w >= np.concatenate((pre[n_k[:1]], post[n_k[1:]]))[k]
        acc = np.flatnonzero(accept)
        if acc.size:
            orig = (spell[acc] - start).view(np.int64)
            k_acc, w_acc = k[acc], w[acc]
            welfare[orig] = wel_k[k_acc] + disc * w_acc / (1.0 - beta)
            duration[orig] = t + 1
            wage[orig] = w_acc
            ext_period[orig] = k_acc
            keep = np.flatnonzero(~accept)
            spell, k = spell[keep], k[keep]
            if spell.size == 0:
                break

    orig = (spell - start).view(np.int64)
    welfare[orig] = wel_k[k]
    ext_period[orig] = k
    extended = ext_period > 0
    ext_period[~extended] = -1
    return {"duration": duration, "accepted_wage": wage, "welfare": welfare,
            "extended": extended, "extension_period": ext_period,
            "truncated": np.isnan(wage)}


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregate statistics over a batch of simulated spells.

    Means and standard errors cover completed (non-truncated) spells;
    extension and truncation tallies are raw counts over all spells.
    """

    n_spells: int
    welfare_mean: float
    welfare_stderr: float
    duration_mean: float
    duration_stderr: float
    wage_mean: float
    wage_stderr: float
    extension_count: int
    truncated_count: int

    @property
    def extension_frequency(self) -> float:
        return self.extension_count / self.n_spells


def _block_partials(block: dict) -> tuple:
    done = ~block["truncated"]
    w = block["welfare"][done]
    d = block["duration"][done].astype(float)
    a = block["accepted_wage"][done]
    return (
        int(done.sum()),
        float(np.sum(w)), float(np.sum(w * w)),
        float(np.sum(d)), float(np.sum(d * d)),
        float(np.sum(a)), float(np.sum(a * a)),
        int(block["extended"].sum()),
        int(block["truncated"].sum()),
    )


def _mean_stderr(total, total_sq, n):
    if n == 0:
        return math.nan, math.nan
    mean = total / n
    if n == 1:
        return mean, math.nan
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


# The job a forked pool worker serves: (policy, truth, params, dist,
# master_seed, n_spells, max_periods). ``_set_job`` sets it once in each
# worker process, handed over by fork without pickling; it stays None in
# the calling process, whose inline path passes the job explicitly.
_JOB = None


def _set_job(job):
    global _JOB
    _JOB = job


def _run_block(job, start):
    """Partial sums of the block of ``job`` that starts at spell ``start``."""
    policy, truth, params, dist, master_seed, n_spells, max_periods = job
    count = min(DEFAULT_CHUNK, n_spells - start)
    return _block_partials(simulate_block(
        policy, truth, params, dist, master_seed, start, count,
        max_periods=max_periods))


def _worker_block(start):
    return _run_block(_JOB, start)


def simulate_many(policy, truth: ExtensionSpec, params: MarketParams,
                  dist: OfferDistribution, n_spells: int, master_seed: int,
                  max_periods=DEFAULT_MAX_PERIODS, n_workers=1) -> SimulationSummary:
    """Simulate ``n_spells`` spells and summarize them.

    Spell ``i`` always uses the stream derived from
    ``(master_seed, i)``, blocks always start at multiples of
    ``DEFAULT_CHUNK``, and cross-block totals are combined with exact
    summation, so the summary is bit-identical for a given
    ``(master_seed, n_spells)`` regardless of ``n_workers``.

    Blocks run on ``min(n_workers, blocks, os.cpu_count())`` worker
    processes, forked for this call and shut down before it returns:
    processes rather than threads, because the kernel's many small
    numpy calls hand the GIL back and forth. Workers inherit the job
    through fork, so neither ``policy`` nor ``dist`` has to be
    picklable. With one worker, or where the platform has no ``fork``
    start method, the blocks run inline; with one worker
    ``multiprocessing`` is not even imported.
    """
    if n_spells < 1:
        raise ValueError("n_spells must be at least 1")
    if n_spells > 1 << 32:
        raise ValueError("spell indices must fit in 32 bits")
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    job = (policy, truth, params, dist, master_seed, n_spells, max_periods)
    starts = range(0, n_spells, DEFAULT_CHUNK)
    workers = min(n_workers, len(starts), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        partials = [_run_block(job, s) for s in starts]
    else:
        from concurrent.futures.process import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_job, initargs=(job,)) as pool:
            partials = list(pool.map(_worker_block, starts))

    n_done = sum(p[0] for p in partials)
    sums = [math.fsum(p[k] for p in partials) for k in range(1, 7)]
    welfare_mean, welfare_stderr = _mean_stderr(sums[0], sums[1], n_done)
    duration_mean, duration_stderr = _mean_stderr(sums[2], sums[3], n_done)
    wage_mean, wage_stderr = _mean_stderr(sums[4], sums[5], n_done)
    return SimulationSummary(
        n_spells=n_spells,
        welfare_mean=welfare_mean, welfare_stderr=welfare_stderr,
        duration_mean=duration_mean, duration_stderr=duration_stderr,
        wage_mean=wage_mean, wage_stderr=wage_stderr,
        extension_count=sum(p[7] for p in partials),
        truncated_count=sum(p[8] for p in partials),
    )
