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
records. A block's lanes carry only a key, a multiple of the
splitmix64 increment, and each draw is a lane's key plus one word that
every lane shares in that period; the lanes sit in the segments of
one table, a row for each block in flight and extension period, so
entitlement, welfare and cutoffs are per-row values.
``simulate_many`` always cuts spells into blocks of
``DEFAULT_CHUNK``, deals them into shares that ``_forks.fork_map`` runs,
the first in the calling process and each other one in a child forked
for the call, and combines per-block sums with an exact
(order-insensitive) reduction, so a fixed
``(master_seed, n_spells)`` gives a bit-identical summary for any
worker count. Each process runs its share in one workspace made for
that share's blocks, whose arrays every block reuses, so a block
allocates no array of its size beyond a few short-lived temporaries.
One generator, ``_share``, runs the share's periods from its first
block's first spell to its last block's last one, and yields each
block's records when that block's last spell ends; each
``simulate_block`` call takes the workspace's next block from it, and
a call for any other block, or another job, is refused. A lone
``simulate_block`` call is a share of one block, on the same path.

No block of a share runs its tail alone. A block's last few thousand
spells take dozens of periods, each costing about as many numpy calls
as a full one; so once at most ``_HEADROOM`` lanes are active, the
share's next block joins them as a second cohort, writing to a second
record slot of the workspace (about 2.5 MB more). A cohort is data, a
column of the segment table, so one path simulates one cohort or two
in the same periods. A spell's record depends only on its own stream,
not on which lanes share its periods, so every block returns the
records it has alone. This halves the periods of a million-spell share.
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
_GAMMA32_U = np.uint64(_GAMMA << 32 & _MASK64)  # (spell << 32) * gamma == spell * this
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
    these are ``_variate``'s variates; the block kernel, ``_share``,
    moves part of each counter from the keys into ``add``, which is
    equal modulo 2**64. ``out`` is an optional pair of uint64 scratch
    arrays shaped like ``keys``; the words are written to the first.
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
        if not 0 <= index < MAX_SPELLS:  # the counter's high word
            raise ValueError("spell indices must fit in 32 bits")
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


# A share's next block joins the lanes once at most this many are
# active, so its workspace holds this many lanes beyond DEFAULT_CHUNK.
# On a 2-vCPU Xeon a 1-worker million-spell call at the benchmark policy
# ran as fast at 2 048, 4 096 and 8 192 (within 1%); 1 024 leaves 2-5%
# more periods. Each lane of headroom costs 12 words and a byte.
_HEADROOM = DEFAULT_CHUNK // 16


class _Cohort:
    """A block in flight: spells ``start .. start + count - 1``, which
    joined the lanes at the share's period ``first`` and write their
    records to record slot ``slot``, ``ended`` of them so far."""

    __slots__ = ("start", "count", "first", "slot", "ended")

    def __init__(self, start, count):
        self.start, self.count, self.ended = start, count, 0


class _Workspace:
    """One share of blocks, the ``(start, count)`` pairs ``blocks`` in
    the order they run, and the arrays that every one of them reuses.

    Sized for the largest block: two lane buffers that compaction
    copies between, the two ``_variates`` scratch arrays
    (which ``_block_partials`` reuses) and a mask for the trial and
    acceptance outcomes; a record slot for each block in flight, each
    the keys of a block's spells in the order they ended and three
    per-spell outputs, which ``simulate_block`` returns views of; and
    the extension periods of the block returned last. A share of one
    block has one slot, 9 words and a byte a spell, about 4.8 MB at
    ``DEFAULT_CHUNK``. A share of several has two, and ``_HEADROOM``
    more room in each lane, scratch and record array, about 7.3 MB in
    all; there are at most two, as the segment table has two sides.

    ``blocks`` keeps the blocks not yet returned; ``job``, what the
    share simulates, and ``share``, the ``_share`` generator that runs
    it, are set by its first block. The generator holds the arrays,
    not the workspace, so the two form no reference cycle and the
    workspace goes with its last reference. Each process that runs
    blocks of a ``simulate_many`` call, the calling one or a child
    forked for it, makes its own, so concurrent calls share no array.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)
        size, slots = max(count for _, count in self.blocks), min(len(self.blocks), 2)
        room = size + (_HEADROOM if slots > 1 else 0)
        # One allocation for every word array, not one each. Freeing a
        # chunk this large raises glibc malloc's mmap and trim
        # thresholds above it, so later calls take their workspace from
        # the heap, and the blocks' temporaries are no longer handed
        # back to the OS and faulted in again every period.
        words = np.empty(4 * room * (1 + slots) + size, np.uint64)
        lanes = words[:4 * room].reshape(4, room)
        records = words[4 * room:4 * room * (1 + slots)].reshape(slots, 4, room)
        self.lanes = lanes[0], lanes[1]
        self.scratch = lanes[2], lanes[3]
        self.mask = np.empty(room, bool)
        self.slots = [(keys, duration.view(np.int64), wage.view(np.float64),
                       welfare.view(np.float64))
                      for keys, duration, wage, welfare in records]
        self.extension_period = words[4 * room * (1 + slots):].view(np.int64)
        self.job = self.share = None


def _outputs(duration, wage, welfare, ext_period) -> dict:
    """The dict ``simulate_block`` returns; extension period 0 becomes -1."""
    extended = ext_period > 0
    ext_period -= ~extended  # a masked store is several times slower
    return {"duration": duration, "accepted_wage": wage, "welfare": welfare,
            "extended": extended, "extension_period": ext_period,
            "truncated": np.isnan(wage)}


def _share(blocks, policy, truth, params, dist, offset, max_periods,
           lanes, scratch, mask, slots, ext_periods):
    """Simulate the ``(start, count)`` blocks of a share, yielding each
    block's ``simulate_block`` outputs, views of the record arrays
    ``slots`` and ``ext_periods``, when its last spell ends.

    Every decision is taken on the 53-bit word ``k`` of a variate
    ``u = k * 2**-53``, with no float formed: the trial extends when
    ``k < ceil(delta * 2**53)``, and an offer is accepted when ``k``
    reaches the threshold's cutoff (``_offer_cutoffs``, searched once
    for the share). Only accepted offers go through ``dist.quantile``,
    on the same floats ``u``.

    The lanes hold a cohort of spells for each block in flight, one a
    record slot: the first block, and once at most ``_HEADROOM`` lanes
    are active and a slot is free, the next. All active lanes are at the
    share's period ``t``, and a cohort that joined at period ``s`` is at
    its own period ``t - s``. A lane carries just its key. Because draw
    ``d`` hashes ``(spell << 32 | d) * gamma + gamma + offset``, the key
    can hold the draw's counter less the period's, so that every lane's
    draw in period ``t`` is its key plus ``(t + 1) * gamma`` and the
    seed offset: a pending lane's key ``((spell << 32) - 2s + t) *
    gamma`` gives its trial, and raised by ``gamma`` it gives its offer
    and, once the lane extends in its period ``e``, as the key
    ``((spell << 32) + e - s) * gamma``, every later offer. So the trial
    is one ``_variates`` call on the pending lanes, and the offers one
    on all lanes.

    A lane's entitlement, welfare, discount and threshold depend on it
    only through its cohort and ``e`` (0 while pending), so the lanes sit
    in the rows of one segment table: row ``i`` holds the next
    ``sizes[i]`` lanes, at the cutoff ``cutoffs[at[i]]`` (``at[i]``
    counts down to ``floor[i]``, the start of its threshold schedule,
    while entitled), with welfare so far ``wels[i]``, and ``cohort[i]``
    is its cohort's record slot, whose discount scales its flows. A row
    is pending iff its floor is 0. The rows run in slot order, slot 0's
    (the first ``b``) from its oldest extension to its pending row, slot
    1's from its pending row to its oldest extension. So the pending
    rows, one a cohort, are one run of lanes; the lanes of a cohort that
    extend in a period leave its pending row for a new row beside it, on
    its side of that run; and each cohort's lanes, and the spells it
    ends in a period, are one run too, compaction keeping every row in
    order. A row that compaction empties stays until its block ends.

    A spell ends when an offer reaches its cutoff, or, truncated, when
    its cohort has searched ``max_periods`` periods; only the oldest
    cohort, the block yielded next, can get that far. Its key and record
    go to its cohort's slot, in the order spells end, the key of a spell
    that ends pending lowered to that with ``e = 0``. After the block's
    last spell has ended, one multiply by the inverse of gamma, and
    ``s`` added back, decode each key into its spell and extension
    period, and the records are put in spell order. A spell's record
    depends only on its own stream, so every block's records are those
    it has alone.
    """
    cutoffs = _offer_cutoffs(np.r_[policy.pre_thresholds, policy.post_thresholds], dist)
    extends = np.uint64(_extension_cutoff(truth.delta))
    n_pre = len(policy.pre_thresholds)
    extension = n_pre + truth.length  # from a pending cutoff to its extension's
    # The segment table is the columns sizes, at, floor, cohort and wels;
    # discs holds the discount of each slot.
    table = [*np.zeros((4, 0), np.int64), np.zeros(0)]
    t, m, (lane, spare), discs = 0, 0, lanes, np.ones(2)
    waiting, cohorts = [_Cohort(*block) for block in blocks], []
    for own in list(waiting):
        edges, paid = (), None
        while own.ended < own.count:
            if waiting and m <= _HEADROOM and len(cohorts) < len(slots):
                # A block's spells join as a pending row, slot 0's at the
                # front, slot 1's at the back, their keys lowered by t
                # counters so that its draws count from 0.
                co = waiting.pop(0)
                co.first, co.slot = t, 1 - cohorts[0].slot if cohorts else 0
                row, at_lane = (len(table[0]), m) if co.slot else (0, 0)
                lane[at_lane + co.count:m + co.count] = lane[at_lane:m]
                keys = np.multiply(np.arange(co.start, co.start + co.count, dtype=np.uint64),
                                   _GAMMA32_U, out=lane[at_lane:at_lane + co.count])
                keys -= np.uint64(t * _GAMMA & _MASK64)
                m += co.count
                table = [np.concatenate((a[:row], [v], a[row:]))
                         for a, v in zip(table, (co.count, params.n_periods, 0, co.slot, 0.0))]
                discs[co.slot] = 1.0
                cohorts.append(co)
            sizes, at, floor, cohort, wels = table
            if len(edges) != len(sizes) + 1:  # on a block's first period and after a join
                b, edges = int(cohort.searchsorted(1)), np.concatenate(([0], sizes.cumsum()))

            entitled = at > floor
            wels += discs[cohort] * (params.z + params.c * entitled)
            at -= entitled
            # The pending rows, one a cohort, are first .. last - 1.
            first, last = b - (b > 0), b + (len(sizes) > b)
            p0, p1 = int(edges[first]), int(edges[last])
            if p1 > p0:
                trial = _variates((t + 1) * _GAMMA + offset, lane[p0:p1],
                                  out=[s[:p1 - p0] for s in scratch])
                lane[p0:p1] += _GAMMA_U  # their offers, and any extension's
                hit = np.less(trial, extends, out=mask[:p1 - p0])
                if hit.any():
                    # The lanes that extend leave their pending row for a
                    # copy of it, a new row: slot 0's (a0 lanes) go to the
                    # front of the pending run, their row before its own,
                    # and slot 1's to the back, their row after its own.
                    moved = hit.nonzero()[0]
                    stay = np.logical_not(hit, out=hit).nonzero()[0]
                    a0 = int(moved.searchsorted(edges[b] - p0))
                    order = np.concatenate((moved[:a0], stay, moved[a0:]),
                                           out=scratch[0][:p1 - p0].view(np.int64))
                    lane[p0:p1].take(order, out=spare[:p1 - p0], mode="wrap")
                    lane[p0:p1] = spare[:p1 - p0]
                    counts = np.ones(len(sizes), np.int64)
                    counts[first] += a0 > 0
                    counts[last - 1] += moved.size > a0
                    table = [a.repeat(counts) for a in table]
                    sizes, at, floor, cohort, wels = table
                    b += a0 > 0
                    # Each copy (new) takes its n lanes from the pending row
                    # (old), and its cutoffs from the extended schedule.
                    for new, old, n in ((first, first + 1, a0), (b + 1, b, moved.size - a0)):
                        if n:
                            sizes[old], sizes[new], at[new], floor[new] = (
                                sizes[old] - n, n, at[new] + extension, n_pre)
                    edges = np.concatenate(([0], sizes.cumsum()))
            discs *= params.beta
            words = _variates((t + 1) * _GAMMA + offset, lane[:m], out=[s[:m] for s in scratch])
            accept = np.greater_equal(words, cutoffs[at].repeat(sizes), out=mask[:m])
            t += 1
            if t - own.first == max_periods:
                # The block's spells still searching end with its accepted
                # ones, truncated.
                paid, accept = accept, accept | (cohort == own.slot).repeat(sizes)
            acc = accept.nonzero()[0]
            if acc.size:
                kept = np.logical_not(accept, out=accept).nonzero()[0]
                below = kept.searchsorted(edges)  # lanes kept before each row
                x = (edges - below).tolist()  # and lanes ended
                # Below 2**53 the int64 conversion is exact, and faster than uint64's.
                u = words.take(acc, out=scratch[1][:acc.size], mode="wrap")
                w = np.multiply(u.view(np.int64), 2.0 ** -53, out=u.view(np.float64))
                if paid is None:
                    w = paying = dist.quantile(w)
                else:  # a truncated spell has no wage, and gains nothing
                    ok = paid[acc]
                    w[ok] = dist.quantile(w[ok])
                    paying, w[~ok] = np.where(ok, w, 0.0), np.nan
                welfare = wels.repeat(sizes - (below[1:] - below[:-1]))
                for co in cohorts:
                    # Of acc, a cohort's spells are lo .. hi - 1, and those
                    # that ended pending x[b - 1 + slot] .. x[b + slot] - 1.
                    lo, hi = (x[b], x[-1]) if co.slot else (0, x[b])
                    if hi > lo:
                        keys, duration, wage, gain = slots[co.slot]
                        n = co.ended - lo  # acc[i] goes to record i + n
                        lane.take(acc[lo:hi], out=keys[lo + n:hi + n], mode="wrap")
                        keys[x[b - 1 + co.slot] + n:x[b + co.slot] + n] -= np.uint64(
                            (t - co.first) * _GAMMA & _MASK64)
                        wage[lo + n:hi + n] = w[lo:hi]
                        # welfare + disc * w / (1 - beta), in place
                        gain = np.multiply(paying[lo:hi], discs[co.slot],
                                           out=gain[lo + n:hi + n])
                        gain /= 1.0 - params.beta
                        gain += welfare[lo:hi]
                        duration[lo + n:hi + n] = t - co.first
                        co.ended = hi + n

                # Compact the survivors into the spare buffer; the rows keep
                # their order.
                np.subtract(below[1:], below[:-1], out=sizes)
                edges, m = below, kept.size
                lane.take(kept, out=spare[:m], mode="wrap")
                del kept
                lane, spare = spare, lane

        # The block's rows, empty now, go. (Its loop may not have run
        # since the last block's rows went, so the cohort column is read
        # from the table, not from the loop's last period.)
        cohorts.remove(own)
        keep = table[3] != own.slot
        table = [a[keep] for a in table]
        count = own.count
        keys, duration, wage, welfare = (a[:count] for a in slots[own.slot])
        keys *= _GAMMA_INV_U
        # The spell offsets, in the high word, and s added back.
        keys += np.uint64(own.first - (own.start << 32) & _MASK64)
        ext_period = ext_periods[:count]
        np.bitwise_and(keys, _LOW32_U, out=ext_period.view(np.uint64))
        keys >>= _U32
        # The records go to spell order by gathers through the inverse
        # permutation, faster than scatters, each into the array the one
        # before it has freed. ("clip", unlike "wrap", cannot spin on an
        # index far out of range.)
        spells = scratch[1][:count].view(np.int64)
        spells[keys.view(np.int64)] = np.arange(count)
        outputs = [records.take(spells, out=out.view(records.dtype), mode="clip")
                   for records, out in ((ext_period, keys), (duration, ext_period),
                                        (wage, duration), (welfare, wage))]
        yield _outputs(outputs[1], outputs[2], outputs[3], outputs[0])


def simulate_block(policy, truth: ExtensionSpec, params: MarketParams, dist: UniformOffers,
                   master_seed: int, start: int, count: int,
                   max_periods=DEFAULT_MAX_PERIODS, *, workspace=None) -> dict:
    """Simulate spells ``start .. start + count - 1`` vectorized.

    Consumes exactly the streams ``CounterStream(master_seed, i)`` would,
    so results are independent of how spells are grouped into blocks.
    Returns arrays keyed ``duration``, ``accepted_wage`` (NaN when
    truncated), ``welfare``, ``extended``, ``extension_period`` (-1 when
    none), and ``truncated``.

    With no ``workspace`` the block is a share of its own, run by
    ``_share`` in a workspace made for it, and the arrays are fresh.
    With one, the block must be the workspace's next and, after its
    first, of the same job (the same policy and distribution objects,
    and equal truth, parameters, seed and ``max_periods``); any other
    raises ``ValueError`` before any work. The arrays are then views of
    the workspace, valid until its next block, which may already have
    joined this one's tail.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must not be negative")
    if start + count > MAX_SPELLS:
        raise ValueError("spell indices must fit in 32 bits")
    _check_max_periods(max_periods)
    offset = _seed_offset(master_seed)
    # The policy and distribution by identity: the share holds them, so
    # their ids stay theirs.
    job = (id(policy), id(dist), truth, params, master_seed, max_periods)
    ws = workspace
    if ws is not None and (ws.blocks[:1] != [(start, count)] or ws.job not in (None, job)):
        raise ValueError(f"the block of {count} spells from {start} is not the next "
                         "block of this workspace's job")
    if not count:
        if ws is not None:
            del ws.blocks[0]
        return _outputs(*(np.empty(0, dtype) for dtype in (np.int64, float, float, np.int64)))
    if len(policy.pre_thresholds) <= params.n_periods:
        # The cutoffs of both schedules are one table, so a short first
        # one would lend the second's.
        raise IndexError("pre_thresholds must cover entitlements 0 .. n_periods")
    if ws is None:
        ws = _Workspace([(start, count)])
    if ws.share is None:
        ws.job, ws.share = job, _share(
            [block for block in ws.blocks if block[1]], policy, truth, params, dist,
            offset, max_periods, ws.lanes, ws.scratch, ws.mask, ws.slots,
            ws.extension_period)
    del ws.blocks[0]
    return next(ws.share)


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
    sums come back, pickled. Each process runs its share in one
    ``_Workspace`` made for its blocks, ``min(DEFAULT_CHUNK, n_spells)``
    spells, with a second record slot when it has several, so that each
    block's successor joins its tail.
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
        """Partial sums of the blocks at ``starts``, one share in one
        workspace, each block's successor riding along in its tail."""
        blocks = [(start, min(DEFAULT_CHUNK, n_spells - start)) for start in starts]
        workspace = _Workspace(blocks)
        partials = []
        for start, count in blocks:
            block = simulate_block(policy, truth, params, dist, master_seed, start,
                                   count, max_periods=max_periods, workspace=workspace)
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
