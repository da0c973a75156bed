"""Seeded, reproducible Monte Carlo simulation of unemployment spells.

Randomness comes from a counter-based scheme so that results never
depend on worker count or scheduling: uniform variate ``j`` of spell
``i`` is a pure function of ``(master_seed, i, j)``. Concretely, the
64-bit counter ``(i << 32) | j`` indexes a splitmix64 sequence offset by
a mix of the master seed, and the top 53 bits of the mixed output, a
word ``k``, give the variate ``k * 2**-53`` in [0, 1). Each spell
consumes one variate per extension trial (only while an extension is
still possible) and one per wage offer, in that order within a period.

Spells are simulated either one at a time (``simulate_spell``, which
also accepts hand-built variate streams for tracing, and compares
floats) or in vectorized blocks (``simulate_block``, which takes every
decision on the words, against integer cutoffs computed once per
policy); the two paths consume identical streams and produce identical
records. A block's lanes carry only a key, the spell's counter times the
splitmix64 increment, so each draw is the key plus one word per period;
they sit in segments of one extension period each, the pending prefix
first, so entitlement, welfare and cutoffs are per-segment values.
``simulate_many`` always cuts spells into blocks of
``DEFAULT_CHUNK``, deals them into shares that ``_forks.fork_map`` runs,
the first in the calling process and each other one in a child forked
for the call, and combines per-block sums with an exact
(order-insensitive) reduction, so a fixed
``(master_seed, n_spells)`` gives a bit-identical summary for any
worker count. Each process running blocks reuses one workspace of
arrays for all of them, so a block allocates no array of its size
beyond a few short-lived temporaries.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._forks import fork_map
from .distributions import UniformOffers
from .params import (DEFAULT_MAX_PERIODS, MAX_PERIODS, MAX_SEED, MAX_SPELLS,
                     ExtensionSpec, MarketParams)

DEFAULT_CHUNK = 65_536

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U32, _U30, _U27, _U31, _U11 = (np.uint64(k) for k in (32, 30, 27, 31, 11))
_GAMMA_U, _MIX1_U, _MIX2_U = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_GAMMA_INV_U = np.uint64(pow(_GAMMA, -1, 1 << 64))
_LOW32_U = np.uint64((1 << 32) - 1)
_WORDS = 1 << 53  # a variate is a word k < 2**53, scaled by 2**-53


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _seed_offset(master_seed: int) -> int:
    """Stream offset of ``master_seed``, which must fit one word: masked,
    it would replay another seed's streams."""
    if not 0 <= master_seed <= MAX_SEED:
        raise ValueError("master_seed must lie in [0, 2**64)")
    return _mix64(master_seed)


def _check_max_periods(max_periods: int):
    """A spell sees at least one offer, and its draws, at most two a
    period, must fit the 32-bit draw counter."""
    if not 1 <= max_periods <= MAX_PERIODS:
        raise ValueError("max_periods must lie in [1, 2**30], "
                         "the periods the draw counter allows")


def _variate(seed_offset: int, spell: int, draw: int) -> float:
    """Uniform variate in [0, 1) for draw ``draw`` of spell ``spell``."""
    counter = (spell << 32) | draw
    state = (seed_offset + (counter + 1) * _GAMMA) & _MASK64
    return (_mix64(state) >> 11) * 2.0 ** -53


def _variates(add: int, keys: np.ndarray, out=None) -> np.ndarray:
    """Vectorized ``_variate`` as 53-bit words: the top 53 bits of the
    splitmix64 finalizer at ``keys + add``, a word ``k`` standing for the
    variate ``k * 2**-53``.

    With keys ``counter * gamma`` and ``add`` equal to ``gamma + offset``
    these are ``_variate``'s variates; ``simulate_block`` moves part of
    each counter from the keys into ``add``, which is equal modulo
    2**64. ``out`` is an optional pair of uint64 scratch arrays shaped
    like ``keys``; the words are written to the first.
    """
    x, shifted = out if out is not None else (np.empty(len(keys), np.uint64),
                                              np.empty(len(keys), np.uint64))
    np.add(keys, np.uint64(add & _MASK64), out=x)
    x ^= np.right_shift(x, _U30, out=shifted)
    x *= _MIX1_U
    x ^= np.right_shift(x, _U27, out=shifted)
    x *= _MIX2_U
    x ^= np.right_shift(x, _U31, out=shifted)
    x >>= _U11
    return x


def _offer_cutoffs(thresholds, dist: UniformOffers) -> np.ndarray:
    """The least word ``k`` whose offer ``dist.quantile(k * 2**-53)``
    reaches each of ``thresholds``, or ``2**53`` where none does.

    ``quantile`` is non-decreasing on the grid ``k * 2**-53``, so a word
    at or above its cutoff makes exactly the decision its offer would:
    a bisection over ``k``, all thresholds at once in 54 steps. A NaN
    threshold is never reached, as a float comparison with it never is.
    """
    lo = np.zeros(thresholds.shape, np.int64)
    hi = np.full(thresholds.shape, _WORDS, np.int64)
    # Where the search is done, mid is hi, so hi stays.
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        reached = dist.quantile(mid * 2.0 ** -53) >= thresholds
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid + 1)
    return hi.view(np.uint64)


def _extension_cutoff(delta) -> int:
    """The words ``k`` whose variate ``k * 2**-53`` is below ``delta`` are
    those below this; scaling by a power of two is exact, so it holds at
    0, at 1 and at subnormal ``delta`` alike."""
    return math.ceil(delta * _WORDS)


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

    def next_offer(self, dist: UniformOffers) -> float:
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
                   dist: UniformOffers, stream,
                   max_periods=DEFAULT_MAX_PERIODS) -> SpellRecord:
    """Simulate one spell under (belief policy, true process).

    Each period: collect the flow (nonwork plus compensation while
    entitled), resolve the extension trial if still pending (entitlement
    jumps to ``max(n - 1, 0) + length`` on success, so an extension at
    zero entitlement restores the full extension length), then draw an
    offer and compare it against the threshold at the new state. The
    spell truncates after ``max_periods`` offers.
    """
    _check_max_periods(max_periods)
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


class _Workspace:
    """The arrays one process reuses for every block of a simulation.

    Sized for the largest block, ``min(DEFAULT_CHUNK, n_spells)`` spells
    (about 4.8 MB at ``DEFAULT_CHUNK``): two lane buffers that compaction
    copies between, the two ``_variates`` scratch arrays (which
    ``_block_partials`` reuses), the keys of spells in the order they
    ended, the four per-spell outputs, which ``simulate_block`` returns
    views of, and a mask for the trial and acceptance outcomes. It also
    keeps the offer cutoffs of the last policy and distribution it was
    given. Each process that runs blocks of a ``simulate_many`` call,
    the calling one or a child forked for it, makes its own, so
    concurrent calls share no array.
    """

    def __init__(self, size):
        # One allocation for the nine word arrays, not nine. Freeing a
        # chunk this large raises glibc malloc's mmap and trim
        # thresholds above it, so later calls take their workspace from
        # the heap, and the blocks' temporaries are no longer handed
        # back to the OS and faulted in again every period.
        words = np.empty((9, size), np.uint64)
        self.lanes = words[0], words[1]
        self.scratch = words[2], words[3]
        self.order = words[4]
        self.duration = words[5].view(np.int64)
        self.accepted_wage = words[6].view(np.float64)
        self.welfare = words[7].view(np.float64)
        self.extension_period = words[8].view(np.int64)
        self.mask = np.empty(size, bool)
        self._cutoffs = None

    def variates_out(self, lo, hi):
        return self.scratch[0][lo:hi], self.scratch[1][lo:hi]

    def cutoffs(self, policy, dist):
        """``_offer_cutoffs`` of the pre- then the post-extension
        thresholds, searched once for a given ``policy`` and ``dist``."""
        memo = self._cutoffs
        if memo is None or memo[0] is not policy or memo[1] is not dist:
            thresholds = np.concatenate((policy.pre_thresholds, policy.post_thresholds))
            memo = self._cutoffs = (policy, dist, _offer_cutoffs(thresholds, dist))
        return memo[2]


def simulate_block(policy, truth: ExtensionSpec, params: MarketParams,
                   dist: UniformOffers, master_seed: int,
                   start: int, count: int,
                   max_periods=DEFAULT_MAX_PERIODS, *, workspace=None) -> dict:
    """Simulate spells ``start .. start + count - 1`` vectorized.

    Consumes exactly the streams ``CounterStream(master_seed, i)`` would,
    so results are independent of how spells are grouped into blocks.
    Returns arrays keyed ``duration``, ``accepted_wage`` (NaN when
    truncated), ``welfare``, ``extended``, ``extension_period`` (-1 when
    none), and ``truncated``. They are fresh arrays unless a
    ``workspace`` of at least ``count`` spells is given; then they are
    views of it, valid until its next block, and it keeps the offer
    cutoffs for the next block of the same policy.

    Every decision is taken on the 53-bit word ``k`` of a variate
    ``u = k * 2**-53``, with no float formed: the trial extends when
    ``k < ceil(delta * 2**53)``, and an offer is accepted when ``k``
    reaches the threshold's cutoff (``_offer_cutoffs``). Only accepted
    offers go through ``dist.quantile``, on the same floats ``u``.

    All active lanes are at the same period ``t``, so a lane's
    entitlement, welfare and threshold depend on it only through its
    extension period ``e`` (0 while the trial is pending). A lane
    carries just its key ``((spell << 32) | e) * gamma``, and lanes sit
    in segments of equal ``e``: the pending prefix first, then the
    extended lanes, newest extension first. Because draw ``d`` hashes
    ``(spell << 32 | d) * gamma + gamma + offset``, every lane's draw is
    its key plus one word per period: ``(2t + 1) * gamma`` for a pending
    trial, ``(2t + 2) * gamma`` for a pending offer, and
    ``(t + 1) * gamma`` for an extended one's offer (draw ``t + e``),
    each plus the seed offset. The trial runs on the prefix, and the
    lanes it extends, their keys raised by ``(t + 1) * gamma``, move to
    a new segment right after it. Entitlement and welfare are kept per
    segment, and compaction keeps the segments in order. A spell's key
    and record are written when it ends, in the order spells end; after
    the last period one multiply by the inverse of gamma decodes each
    key into its spell and extension period, and the records are put in
    spell order.
    """
    if start + count > MAX_SPELLS:
        raise ValueError("spell indices must fit in 32 bits")
    _check_max_periods(max_periods)
    ws = _Workspace(count) if workspace is None else workspace
    z, c, beta = params.z, params.c, params.beta
    length = truth.length
    extends = np.uint64(_extension_cutoff(truth.delta))
    cutoffs = ws.cutoffs(policy, dist)
    pre_cutoffs = cutoffs[:len(policy.pre_thresholds)]
    post_cutoffs = cutoffs[len(policy.pre_thresholds):]
    offset = _seed_offset(master_seed)

    order = ws.order[:count]
    duration = ws.duration[:count]
    wage = ws.accepted_wage[:count]
    welfare = ws.welfare[:count]
    ext_period = ws.extension_period[:count]

    # Active lanes are lane[:m]. Segment i holds the next sizes[i] of
    # them, with entitlement ns[i] and welfare so far wels[i]; segment 0
    # is the pending prefix.
    lane, spare = ws.lanes
    lane[:count] = np.arange(start, start + count, dtype=np.uint64)
    lane[:count] <<= _U32
    lane[:count] *= _GAMMA_U
    m = count
    sizes = np.array([count])
    ns = np.array([params.n_periods])
    wels = np.zeros(1)
    disc = 1.0
    # Spells leave the lanes in order[:ended], and the outputs hold their
    # records in that order until one scatter per output at the end puts
    # them in spell order: cheaper than four scatters every period, since
    # each output then stays in cache while it is placed.
    ended = 0

    for t in range(max_periods):
        wels = wels + disc * (z + c * (ns > 0))
        ns = np.maximum(ns - 1, 0)
        pending = int(sizes[0])
        if pending:
            trial = _variates((2 * t + 1) * _GAMMA + offset, lane[:pending],
                              out=ws.variates_out(0, pending))
            hit = np.less(trial, extends, out=ws.mask[:pending])
            if hit.any():
                # This period's extensions leave the prefix for a segment
                # of their own, right after it.
                moved = hit.nonzero()[0]
                stay = np.logical_not(hit, out=hit).nonzero()[0]
                lane.take(stay, out=spare[:stay.size], mode="wrap")
                lane.take(moved, out=spare[stay.size:pending], mode="wrap")
                spare[stay.size:pending] += np.uint64((t + 1) * _GAMMA & _MASK64)
                lane[:pending] = spare[:pending]
                pending = stay.size
                sizes = np.concatenate(([pending, moved.size], sizes[1:]))
                ns = np.concatenate((ns[:1], ns[:1] + length, ns[1:]))
                wels = np.concatenate((wels[:1], wels))
        disc *= beta
        if pending:
            _variates((2 * t + 2) * _GAMMA + offset, lane[:pending],
                      out=ws.variates_out(0, pending))
        if m > pending:
            _variates((t + 1) * _GAMMA + offset, lane[pending:m],
                      out=ws.variates_out(pending, m))
        words = ws.scratch[0][:m]
        cut = np.concatenate((pre_cutoffs[ns[:1]], post_cutoffs[ns[1:]])).repeat(sizes)
        accept = np.greater_equal(words, cut, out=ws.mask[:m])
        del cut
        acc = accept.nonzero()[0]
        if not acc.size:
            continue
        ends = sizes.cumsum()
        seg = ends.searchsorted(acc, side="right")
        records = slice(ended, ended + acc.size)
        lane.take(acc, out=order[records], mode="wrap")
        w_acc = wage[records]
        # Below 2**53 the int64 conversion is exact, and faster than uint64's.
        u = words.view(np.int64).take(acc, out=w_acc.view(np.int64), mode="wrap")
        w_acc[:] = dist.quantile(np.multiply(u, 2.0 ** -53, out=w_acc))
        welfare[records] = wels[seg] + disc * w_acc / (1.0 - beta)
        duration[records] = t + 1
        ended += acc.size

        # Compact the survivors into the spare buffer; the segments keep
        # their order.
        kept = np.logical_not(accept, out=accept).nonzero()[0]
        below = kept.searchsorted(ends)
        sizes = below.copy()
        np.subtract(below[1:], below[:-1], out=sizes[1:])
        m = kept.size
        lane.take(kept, out=spare[:m], mode="wrap")
        del kept
        lane, spare = spare, lane
        if m == 0:
            break

    rest = slice(ended, count)
    order[rest] = lane[:m]
    duration[rest] = max_periods
    wage[rest] = np.nan
    welfare[rest] = wels.repeat(sizes)
    order *= _GAMMA_INV_U
    np.bitwise_and(order, _LOW32_U, out=ext_period.view(np.uint64))
    order >>= _U32
    order -= np.uint64(start)
    for out in (duration, wage, welfare, ext_period):
        records = ws.scratch[0][:count].view(out.dtype)
        records[:] = out
        out[order.view(np.int64)] = records
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


def _square_scale(params: MarketParams, dist: UniformOffers) -> float:
    """The power of two, at most 1, that brings every welfare and accepted
    wage of a run below 2**480 in magnitude, so that the squares of
    ``MAX_SPELLS`` of them sum to a finite float.

    It is taken from their bound ``(|z| + |c| + max|w|) / (1 - beta)``,
    not from the values, so every block of a run uses the same one, and
    it is 1 unless that bound reaches about 1e144. The bound's exponent
    is read off its two parts, within one, so no ``beta`` divides by zero.
    """
    flows = abs(params.z) + abs(params.c) + max(-dist.low, dist.high)
    over = math.frexp(flows)[1] - math.frexp(1.0 - params.beta)[1] + 1 - 480
    return math.ldexp(1.0, -max(over, 0))


def _block_partials(block: dict, workspace: _Workspace, scale: float) -> tuple:
    """Counts and sums of one block's spells: of each value, and of the
    square of each value, welfare and wages multiplied by ``scale`` first.

    Squares, durations as floats and, when a spell is truncated, the
    completed spells' values go to the scratch arrays of ``workspace``.
    Each sum runs over a contiguous array in spell order, so it rounds
    as a sum over a fresh array would.
    """
    truncated = block["truncated"]
    n_truncated = int(np.count_nonzero(truncated))
    n_done = truncated.size - n_truncated
    done = np.flatnonzero(~truncated) if n_truncated else None
    x, sq = (a[:n_done].view(np.float64) for a in workspace.scratch)
    sums = []
    for key, by in (("welfare", scale), ("duration", 1.0), ("accepted_wage", scale)):
        values = block[key]
        if done is not None:
            values = np.take(values, done, out=sq.view(values.dtype), mode="wrap")
        if values.dtype != np.float64:
            np.copyto(x, values)
            values = x
        sums.append(float(np.sum(values)))
        if by != 1.0:  # exact: a power of two
            values = np.multiply(values, by, out=sq)
        sums.append(float(np.sum(np.multiply(values, values, out=sq))))
    return (n_done, *sums, int(np.count_nonzero(block["extended"])), n_truncated)


def _mean_stderr(total, total_sq, n, scale=1.0):
    """Mean and standard error of ``n`` values from their sum and the sum
    of their squares after multiplying each by ``scale``."""
    if n == 0:
        return math.nan, math.nan
    mean = total / n
    if n == 1:
        return mean, math.nan
    scaled = mean * scale
    var = max(total_sq - n * scaled * scaled, 0.0) / (n - 1)
    return mean, math.sqrt(var / n) / scale


def simulate_many(policy, truth: ExtensionSpec, params: MarketParams,
                  dist: UniformOffers, n_spells: int, master_seed: int,
                  max_periods=DEFAULT_MAX_PERIODS, n_workers=1) -> SimulationSummary:
    """Simulate ``n_spells`` spells and summarize them.

    Spell ``i`` always uses the stream derived from
    ``(master_seed, i)``, blocks always start at multiples of
    ``DEFAULT_CHUNK``, and cross-block totals are combined with exact
    summation, so the summary is bit-identical for a given
    ``(master_seed, n_spells)`` regardless of ``n_workers``.

    Blocks are dealt into ``w = min(n_workers, blocks, os.cpu_count())``
    shares, share ``i`` holding every ``w``-th block from the ``i``-th,
    or into one share where ``os`` has no ``fork``. ``_forks.fork_map``
    runs them all: the first in the calling process, and each other one
    in a child forked for this call, which exits and is reaped before
    the call returns. So one share forks nothing. Processes rather than
    threads, because the kernel's many small numpy calls hand the GIL
    back and forth. Children inherit the job through fork, so neither
    ``policy`` nor ``dist`` has to be picklable; only their partial
    sums come back, pickled. Each process runs its blocks in one
    ``_Workspace`` of ``min(DEFAULT_CHUNK, n_spells)`` spells made for
    this call.
    """
    if n_spells < 1:
        raise ValueError("n_spells must be at least 1")
    if n_spells > MAX_SPELLS:
        raise ValueError("spell indices must fit in 32 bits")
    _seed_offset(master_seed)  # rejects a bad seed before any worker starts
    _check_max_periods(max_periods)
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    scale = _square_scale(params, dist)

    def run(starts):
        """Partial sums of the blocks at ``starts``, in one workspace."""
        workspace = _Workspace(min(DEFAULT_CHUNK, n_spells))
        partials = []
        for start in starts:
            block = simulate_block(policy, truth, params, dist, master_seed, start,
                                   min(DEFAULT_CHUNK, n_spells - start),
                                   max_periods=max_periods, workspace=workspace)
            partials.append(_block_partials(block, workspace, scale))
        return partials

    starts = range(0, n_spells, DEFAULT_CHUNK)
    workers = min(n_workers, len(starts), os.cpu_count() or 1)
    if not hasattr(os, "fork"):
        workers = 1
    shares = fork_map(run, [starts[i::workers] for i in range(workers)])
    partials = [p for share in shares for p in share]

    n_done = sum(p[0] for p in partials)
    sums = [math.fsum(p[k] for p in partials) for k in range(1, 7)]
    welfare_mean, welfare_stderr = _mean_stderr(sums[0], sums[1], n_done, scale)
    duration_mean, duration_stderr = _mean_stderr(sums[2], sums[3], n_done)
    wage_mean, wage_stderr = _mean_stderr(sums[4], sums[5], n_done, scale)
    return SimulationSummary(
        n_spells=n_spells,
        welfare_mean=welfare_mean, welfare_stderr=welfare_stderr,
        duration_mean=duration_mean, duration_stderr=duration_stderr,
        wage_mean=wage_mean, wage_stderr=wage_stderr,
        extension_count=sum(p[7] for p in partials),
        truncated_count=sum(p[8] for p in partials),
    )
