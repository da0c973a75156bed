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
every lane shares in that period; the lanes sit in segments of one
extension period each, the pending ones first, so entitlement, welfare
and cutoffs are per-segment values.
``simulate_many`` always cuts spells into blocks of
``DEFAULT_CHUNK``, deals them into shares that ``_forks.fork_map`` runs,
the first in the calling process and each other one in a child forked
for the call, and combines per-block sums with an exact
(order-insensitive) reduction, so a fixed
``(master_seed, n_spells)`` gives a bit-identical summary for any
worker count. Each process running blocks reuses one workspace of
arrays for all of them, so a block allocates no array of its size
beyond a few short-lived temporaries.

No block of a share runs its tail alone. A block's last few thousand
spells take dozens of periods, each costing about as many numpy calls
as a full one; so once at most ``_HEADROOM`` lanes are active, the
share's next block joins them as a second cohort, in a second record
slot of the workspace (about 2.5 MB more), and the two are simulated in
the same periods. A spell's record depends only on its own stream, not
on which lanes share its periods, so every block returns the records it
has alone. This halves the periods of a million-spell share.
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


# A share's next block joins the lanes once at most this many are
# active, so its workspace holds this many lanes beyond DEFAULT_CHUNK.
# On a 2-vCPU Xeon a 1-worker million-spell call at the benchmark policy
# ran as fast at 2 048, 4 096 and 8 192 (within 1%); 1 024 leaves 2-5%
# more periods. Each lane of headroom costs 12 words and a byte.
_HEADROOM = DEFAULT_CHUNK // 16


class _Cohort:
    """A block in flight: spells ``start .. start + count - 1``, which
    joined the lanes at the workspace's period ``first`` and write their
    records to record slot ``slot``, ``ended`` of them so far. All its
    lanes are at its own period, so they share the discount ``disc``."""

    __slots__ = ("start", "count", "first", "slot", "ended", "disc")

    def __init__(self, start, count, first, slot):
        self.start, self.count, self.first, self.slot = start, count, first, slot
        self.ended = 0
        self.disc = 1.0


class _Workspace:
    """The arrays one process reuses for every block of a simulation, and
    the block it keeps in flight between two of them.

    Sized for the largest block, ``size`` = ``min(DEFAULT_CHUNK,
    n_spells)`` spells: two lane buffers that compaction copies between,
    the two ``_variates`` scratch arrays (which ``_block_partials``
    reuses) and a mask for the trial and acceptance outcomes; ``slots``
    record slots, each the keys of a block's spells in the order they
    ended and three per-spell outputs, which ``simulate_block`` returns
    views of; and the extension periods of the block returned last. With
    one slot, as a lone block has, that is 9 words and a byte a spell,
    about 4.8 MB at ``DEFAULT_CHUNK``. ``simulate_many`` gives a share
    of several blocks two slots, and ``_HEADROOM`` more room in each
    lane, scratch and record array, about 7.3 MB in all; before each
    block it sets ``following`` to the ``(start, count)`` of the share's
    next one, which then rides along in the current block's tail (see
    ``simulate_block``). A block can then start about half a block's
    70 periods after the one before it; a third slot would bring that
    to about 25 periods, but the workspace to about 9.4 MB.

    It also keeps the offer cutoffs of the last policy and distribution
    it was given. Each process that runs blocks of a ``simulate_many``
    call, the calling one or a child forked for it, makes its own, so
    concurrent calls share no array.
    """

    def __init__(self, size, slots=1):
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
        self.size = size
        self.following = None
        self.flight = None
        self._cutoffs = None

    def variates_out(self, n):
        return self.scratch[0][:n], self.scratch[1][:n]

    def cutoffs(self, policy, dist):
        """``_offer_cutoffs`` of the pre- then the post-extension
        thresholds, searched once for a given ``policy`` and ``dist``."""
        memo = self._cutoffs
        if memo is None or memo[0] is not policy or memo[1] is not dist:
            thresholds = np.concatenate((policy.pre_thresholds, policy.post_thresholds))
            memo = self._cutoffs = (policy, dist, _offer_cutoffs(thresholds, dist))
        return memo[2]


def _outputs(duration, wage, welfare, ext_period) -> dict:
    """The dict ``simulate_block`` returns; extension period 0 becomes -1."""
    extended = ext_period > 0
    ext_period -= ~extended  # a masked store is several times slower
    return {"duration": duration, "accepted_wage": wage, "welfare": welfare,
            "extended": extended, "extension_period": ext_period,
            "truncated": np.isnan(wage)}


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

    The lanes hold a cohort of spells for each block in flight, at most
    two. All active lanes are at the same period ``t`` of the workspace,
    and a cohort that joined at period ``s`` is at its own period
    ``t - s``; so a lane's entitlement, welfare, discount and threshold
    depend on it only through its cohort and its extension period ``e``
    (0 while the trial is pending). A lane carries just its key. Because
    draw ``d`` hashes ``(spell << 32 | d) * gamma + gamma + offset``, the
    key can hold the draw's counter less the period's, so that every
    lane's draw in period ``t`` is its key plus ``(t + 1) * gamma`` and
    the seed offset: a pending lane's key ``((spell << 32) - 2s + t) *
    gamma`` gives its trial, and raised by ``gamma`` it gives its offer
    and, as an extended lane's key from then on, every later offer. So
    the trial is one ``_variates`` call on the pending lanes, and all
    offers one call on all lanes. Lanes sit in segments of one cohort and
    one ``e``: first the pending segments, the newer cohort's first,
    then the older cohort's extended segments, then the newer one's,
    each cohort's newest extension first. So the pending lanes are one
    run of lanes, and so are the older cohort's. Entitlement and welfare
    are kept per segment, the discount, which starts at 1 and is
    multiplied by ``beta`` each period, per cohort, and compaction keeps
    the segments in order. An extended lane's key is ``((spell << 32) +
    e - s) * gamma``; a spell that ends pending has its key lowered to
    that with ``e = 0``. The key and the record are written to the
    cohort's record slot when the spell ends, in the order spells end,
    and a cohort's spells still searching ``max_periods`` periods after
    it joined end truncated. After the block's last spell has ended, one
    multiply by the inverse of gamma, and ``s`` added back, decode each
    key into its spell and extension period, and the records are put in
    spell order.

    A workspace whose ``following`` names another block, with a record
    slot free, runs that block too: its spells join the lanes as the
    newer cohort once at most ``_HEADROOM`` lanes are in flight. The
    call still returns when the last spell of its own block ends;
    the other block stays in flight, and the call for it goes on from
    there. A call for any other block, or for another job, drops what is
    in flight and starts afresh. Either way every block's records are
    those it has alone.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must not be negative")
    if start + count > MAX_SPELLS:
        raise ValueError("spell indices must fit in 32 bits")
    _check_max_periods(max_periods)
    offset = _seed_offset(master_seed)
    if workspace is not None and count > workspace.size:
        raise ValueError(f"a block of {count} spells does not fit a workspace "
                         f"of {workspace.size}")
    if not count:
        return _outputs(np.empty(0, np.int64), np.empty(0), np.empty(0),
                        np.empty(0, np.int64))
    if len(policy.pre_thresholds) <= params.n_periods:
        # The cutoffs of both schedules are one table, so a short first
        # one would lend the second's.
        raise IndexError("pre_thresholds must cover entitlements 0 .. n_periods")
    ws = _Workspace(count) if workspace is None else workspace
    z, c, beta = params.z, params.c, params.beta
    extends = np.uint64(_extension_cutoff(truth.delta))
    cutoffs = ws.cutoffs(policy, dist)
    n_pre = len(policy.pre_thresholds)
    extension = n_pre + truth.length  # from a pending cutoff to its extension's

    # Active lanes are lane[:m], of the cohorts in flight, the older
    # first, each with a segment among the first `live` (the pending
    # ones). Segment i holds the next sizes[i] lanes, with the cutoff
    # cutoffs[at[i]] (at[i] is never below floor[i], the start of its
    # threshold schedule, and is above it while entitled) and welfare so
    # far wels[i]; segments from `split` on are the newer cohort's
    # extended ones.
    job = (policy, dist, truth, params, master_seed, max_periods)
    flight, ws.flight = ws.flight, None  # an error leaves nothing in flight
    own = None
    if (flight is not None and flight[0][0] is policy and flight[0][1] is dist
            and flight[0][2:] == job[2:]):
        _, t, m, lane, spare, segments, split, cohorts = flight
        own = next((co for co in cohorts if (co.start, co.count) == (start, count)), None)
    if own is None:
        t = m = split = 0
        lane, spare = ws.lanes
        segments = (np.zeros(0, np.int64),) * 3 + (np.zeros(0),)
        cohorts = []
        joining = own = _Cohort(start, count, 0, 0)
    else:
        joining = None
    sizes, at, floor, wels = segments
    live = len(cohorts)
    pending = int(sizes[:live].sum())
    left = int(sizes[live - 1:split].sum()) if joining is None else 0
    following = ws.following
    if (following is None or following[1] > ws.size or following == (start, count)
            or len(cohorts) + (joining is not None) == len(ws.slots)
            or any((co.start, co.count) == following for co in cohorts)):
        following = None

    def grow(a, pend, old_new, new_new):
        """``a`` with the pending segments ``pend`` and a new extended
        segment for each cohort whose lanes the trial extended."""
        pieces = [pend]
        if older:
            pieces.append(old_new)
        pieces.append(a[live:split])
        if newer:
            pieces.append(new_new)
        pieces.append(a[split:])
        return np.concatenate(pieces)

    while left or joining is not None:
        if joining is None and following is not None and m <= _HEADROOM:
            joining = _Cohort(*following, t, 1 - own.slot)
            following = None
        if joining is not None:
            # The block's spells join as the first pending segment, their
            # keys lowered by t counters so that its draws count from 0.
            size = joining.count
            new = np.multiply(np.arange(joining.start, joining.start + size,
                                        dtype=np.uint64), _GAMMA32_U, out=spare[:size])
            if t:
                new -= np.uint64(t * _GAMMA & _MASK64)
            spare[size:size + m] = lane[:m]
            lane, spare = spare, lane
            m += size
            pending += size
            sizes = np.concatenate(([size], sizes))
            at = np.concatenate(([params.n_periods], at))
            floor = np.concatenate(([0], floor))
            wels = np.concatenate(([0.0], wels))
            cohorts.append(joining)
            live += 1
            split = len(sizes)
            if joining is own:
                left = size
            joining = None

        entitled = at > floor
        if live == 1:
            wels = wels + own.disc * (z + c * entitled)
        else:
            flows = z + c * entitled
            # The older cohort's segments are 1 .. split - 1.
            scaled = np.multiply(flows, cohorts[1].disc)
            np.multiply(flows[1:split], own.disc, out=scaled[1:split])
            wels = wels + scaled
        at = at - entitled
        if pending:
            trial = _variates((t + 1) * _GAMMA + offset, lane[:pending],
                              out=ws.variates_out(pending))
            lane[:pending] += _GAMMA_U  # their offers, and any extension's
            hit = np.less(trial, extends, out=ws.mask[:pending])
            if hit.any():
                # This period's extensions leave the pending segments for
                # a new segment at the head of their cohort's extended
                # ones: the older cohort's right after the pending lanes,
                # the newer one's after the older one's extended lanes,
                # which shift to make room.
                moved = hit.nonzero()[0]
                stay = np.logical_not(hit, out=hit).nonzero()[0]
                newer = int(moved.searchsorted(sizes[0])) if live == 2 else 0
                older = moved.size - newer
                lane.take(stay, out=spare[:stay.size], mode="wrap")
                lane.take(moved[newer:], out=spare[stay.size:pending - newer], mode="wrap")
                reach = pending
                if newer:
                    reach = int(sizes[:split].sum())
                    spare[pending - newer:reach - newer] = lane[pending:reach]
                    lane.take(moved[:newer], out=spare[reach - newer:reach], mode="wrap")
                lane[:reach] = spare[:reach]
                pending = stay.size

                sizes = grow(sizes, sizes[:live] - (newer, older)[-live:], [older], [newer])
                at = grow(at, at[:live], at[live - 1:live] + extension, at[:1] + extension)
                floor = grow(floor, floor[:live], [n_pre], [n_pre])
                wels = grow(wels, wels[:live], wels[live - 1:live], wels[:1])
                split += older > 0
        for co in cohorts:
            co.disc *= beta
        words = _variates((t + 1) * _GAMMA + offset, lane[:m], out=ws.variates_out(m))
        cut = cutoffs[at].repeat(sizes)
        accept = np.greater_equal(words, cut, out=ws.mask[:m])
        del cut
        acc = accept.nonzero()[0]
        t += 1
        if acc.size:
            ends = sizes.cumsum()
            kept = np.logical_not(accept, out=accept).nonzero()[0]
            below = kept.searchsorted(ends)  # lanes kept, and so ended, per segment end
            co, mixed = own, 0
            if live == 2:
                # The records go to the newer cohort's slot, the older
                # cohort's last, whence they move to its own slot: they
                # are acc[lo:hi], at most _HEADROOM of them.
                co = cohorts[1]
                lo, hi = int(ends[0] - below[0]), int(ends[split - 1] - below[split - 1])
                mixed = hi - lo
                if mixed:
                    acc = np.concatenate((acc[:lo], acc[hi:], acc[lo:hi]))
            keys, duration, wage, welfares = ws.slots[co.slot]
            records = slice(co.ended, co.ended + acc.size)
            ended_keys = lane.take(acc, out=keys[records], mode="wrap")
            n = acc.size - mixed
            if pending:
                # A spell that ends pending has its key lowered to an
                # extended one's with e = 0. The newer cohort's pending
                # spells come first, the older one's first among its
                # mixed ones.
                ended_keys[:int(ends[0] - below[0])] -= np.uint64(
                    (t - co.first) * _GAMMA & _MASK64)
                if mixed:
                    ended_keys[n:n + int(ends[1] - below[1]) - lo] -= np.uint64(
                        (t - own.first) * _GAMMA & _MASK64)
            w_acc = wage[records]
            # Below 2**53 the int64 conversion is exact, and faster than uint64's.
            u = words.view(np.int64).take(acc, out=w_acc.view(np.int64), mode="wrap")
            w_acc[:] = dist.quantile(np.multiply(u, 2.0 ** -53, out=w_acc))
            welfare = wels[ends.searchsorted(acc, side="right")]
            # welfare + disc * w / (1 - beta), in place, with each
            # cohort's discount
            gain = np.multiply(w_acc, co.disc, out=welfares[records])
            if mixed:
                np.multiply(w_acc[n:], own.disc, out=gain[n:])
            gain /= 1.0 - beta
            gain += welfare
            duration[co.ended:co.ended + n] = t - co.first
            if mixed:
                theirs = slice(co.ended + n, co.ended + acc.size)
                mine = slice(own.ended, own.ended + mixed)
                own_keys, own_duration, own_wage, own_welfares = ws.slots[own.slot]
                own_keys[mine] = keys[theirs]
                own_wage[mine] = wage[theirs]
                own_welfares[mine] = welfares[theirs]
                own_duration[mine] = t - own.first
                own.ended += mixed
            co.ended += n

            # Compact the survivors into the spare buffer; the segments
            # keep their order.
            sizes = below.copy()
            np.subtract(below[1:], below[:-1], out=sizes[1:])
            m = kept.size
            pending = int(below[live - 1])
            left = int(below[split - 1]) - (int(below[0]) if live == 2 else 0)
            lane.take(kept, out=spare[:m], mode="wrap")
            del kept
            lane, spare = spare, lane
        if left and t - own.first == max_periods:
            # The block's spells still searching end truncated.
            lo = int(sizes[0]) if live == 2 else 0
            hi = lo + left
            keys, duration, wage, welfares = ws.slots[own.slot]
            records = slice(own.ended, own.ended + left)
            keys[records] = lane[lo:hi]
            keys[own.ended:own.ended + int(sizes[live - 1])] -= np.uint64(
                (t - own.first) * _GAMMA & _MASK64)
            wage[records] = np.nan
            welfares[records] = wels[live - 1:split].repeat(sizes[live - 1:split])
            duration[records] = max_periods
            own.ended += left
            lane[lo:m - left] = lane[hi:m]
            m -= left
            pending -= int(sizes[live - 1])
            sizes = np.concatenate((sizes[:live - 1], np.zeros(split - live + 1, np.int64),
                                    sizes[split:]))
            left = 0

    # The block's segments, empty now, go.
    sizes, at, floor, wels = (np.concatenate((a[:live - 1], a[split:]))
                              for a in (sizes, at, floor, wels))
    cohorts.remove(own)
    if cohorts:
        ws.flight = (job, t, m, lane, spare, (sizes, at, floor, wels), len(sizes),
                     cohorts)

    keys, duration, wage, welfare = (a[:count] for a in ws.slots[own.slot])
    keys *= _GAMMA_INV_U
    keys += np.uint64(own.first - (start << 32) & _MASK64)  # spell offsets, in the high word
    ext_period = ws.extension_period[:count]
    np.bitwise_and(keys, _LOW32_U, out=ext_period.view(np.uint64))
    keys >>= _U32
    # The records go to spell order by gathers through the inverse
    # permutation, faster than scatters, each into the array the one
    # before it has freed. ("clip", unlike "wrap", cannot spin on an
    # index far out of range.)
    spells = ws.scratch[1][:count].view(np.int64)
    spells[keys.view(np.int64)] = np.arange(count)
    outputs = []
    for records, out in ((ext_period, keys), (duration, ext_period),
                         (wage, duration), (welfare, wage)):
        outputs.append(records.take(spells, out=out.view(records.dtype), mode="clip"))
    return _outputs(outputs[1], outputs[2], outputs[3], outputs[0])


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
    this call, with a second record slot when it has several blocks, so
    that each block's successor joins its tail.
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
        """Partial sums of the blocks at ``starts``, in one workspace, each
        block's successor riding along in its tail."""
        blocks = [(start, min(DEFAULT_CHUNK, n_spells - start)) for start in starts]
        workspace = _Workspace(min(DEFAULT_CHUNK, n_spells), slots=min(len(blocks), 2))
        partials = []
        for i, (start, count) in enumerate(blocks):
            workspace.following = blocks[i + 1] if i + 1 < len(blocks) else None
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
