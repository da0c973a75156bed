import gc
import hashlib
import itertools
import math
import os
import pickle
import signal
import sys
import threading
import time
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uisearch import (CounterStream, ExtensionSpec, MarketParams, ReservationSchedule,
                      UniformOffers, build_policy, evaluate_policy,
                      reservation_identity_residual, simulate_many, simulate_spell,
                      solve_schedules, solve_w0_basic)
from uisearch import montecarlo
from uisearch.evaluate import PolicyProfile
from uisearch.montecarlo import (DEFAULT_CHUNK, _seed_offset, _variate,
                                 _variates, simulate_block)
from uisearch.schedule import build_extension_schedule

from conftest import summary_bits

BENCH = MarketParams(beta=0.95, z=0.4025, c=0.4025, n_periods=10)
BENCH_TRUTH = ExtensionSpec(delta=0.5, length=25)
UNIT = UniformOffers()
WIDE = UniformOffers(low=0.5, high=2.0)
WIDE_PARAMS = MarketParams(beta=0.9, z=0.6, c=0.6, n_periods=3)


GAMMA = montecarlo._GAMMA
GAMMA_INV = pow(GAMMA, -1, 1 << 64)
LOW32 = (1 << 32) - 1


def _keys(spells, draws):
    """``_variates`` keys of draws ``draws`` of ``spells``, uint64 arrays;
    an ``add`` of ``gamma + offset`` then hashes exactly those draws."""
    return ((spells << np.uint64(32)) | draws) * np.uint64(GAMMA)


def _scratch(n):
    """A pair of uint64 scratch arrays for a ``_variates`` call on ``n`` keys."""
    return np.empty(n, np.uint64), np.empty(n, np.uint64)


def _decoded(add, keys, offset):
    """The ``(spell, draw)`` pairs a ``_variates(add, keys)`` call hashes
    under ``offset``, decoded from ``keys + add`` through gamma's inverse."""
    counters = (keys + np.uint64((add - GAMMA - offset) % (1 << 64))) * np.uint64(GAMMA_INV)
    return counters >> np.uint64(32), counters & np.uint64(LOW32)


def _policy(dist, params, truth, belief):
    """Thresholds for ``belief``, or thresholds above the support when None."""
    if belief is None:
        top = dist.high + 0.1
        return PolicyProfile(pre_thresholds=np.full(params.n_periods + 1, top),
                             post_thresholds=np.full(params.n_periods + truth.length + 1,
                                                     top))
    return build_policy(dist, params, belief, true_length=truth.length)


class ForcedStream:
    """Hand-scripted stream for deterministic spell traces."""

    def __init__(self, offers, extensions=()):
        self._offers = iter(offers)
        self._extensions = iter(extensions)

    def next_extension(self, delta):
        return next(self._extensions, False)

    def next_offer(self, dist):
        return next(self._offers)


class RecordingStream:
    """Wraps a stream and records every event it produced."""

    def __init__(self, inner):
        self._inner = inner
        self.extensions = []
        self.offers = []

    def next_extension(self, delta):
        outcome = self._inner.next_extension(delta)
        self.extensions.append(outcome)
        return outcome

    def next_offer(self, dist):
        offer = self._inner.next_offer(dist)
        self.offers.append(offer)
        return offer


@pytest.fixture(scope="module")
def no_extension_policy(uniform):
    p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=2)
    return p, build_policy(uniform, p, ExtensionSpec(delta=0.0, length=1))


class TestSingleSpell:
    def test_top_offer_accepted_immediately(self, uniform, no_extension_policy):
        p, policy = no_extension_policy
        rec = simulate_spell(policy, ExtensionSpec(0.0, 1), p, uniform,
                             ForcedStream(offers=[1.0]))
        assert rec.duration == 1
        assert rec.accepted_wage == 1.0
        assert not rec.extended and not rec.truncated

    def test_hand_traced_welfare(self, uniform, no_extension_policy):
        # two entitlement periods, first offer compared one state down:
        # 0.83 clears w_R(1) = 0.821, so welfare is one flow of z + c
        # plus the discounted perpetuity of the accepted wage
        p, policy = no_extension_policy
        assert policy.pre_thresholds[1] == pytest.approx(0.821, abs=1e-9)
        rec = simulate_spell(policy, ExtensionSpec(0.0, 1), p, uniform,
                             ForcedStream(offers=[0.83, 0.83]))
        assert rec.duration == 1
        assert rec.accepted_wage == 0.83
        assert rec.welfare == pytest.approx(0.84 + 0.95 * 0.83 / 0.05, abs=1e-12)
        assert rec.welfare == pytest.approx(16.61, abs=1e-9)

    def test_rejection_forever_truncates(self, uniform, no_extension_policy):
        p, policy = no_extension_policy
        rec = simulate_spell(policy, ExtensionSpec(0.0, 1), p, uniform,
                             ForcedStream(offers=itertools.repeat(0.0)),
                             max_periods=50)
        assert rec.truncated
        assert rec.duration == 50
        assert rec.accepted_wage is None

    def test_extension_at_zero_entitlement_restores_full_length(self, uniform):
        # an extension drawn at zero entitlement leads to the offer being
        # compared at the full extension length, not one period less
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=0)
        truth = ExtensionSpec(delta=0.5, length=13)
        policy = build_policy(uniform, p, truth)
        between = 0.5 * (policy.post_thresholds[12] + policy.post_thresholds[13])
        rec = simulate_spell(policy, truth, p, uniform,
                             ForcedStream(offers=[between, 1.0],
                                          extensions=[True]))
        assert rec.extended and rec.extension_period == 1
        assert rec.duration == 2  # first offer rejected against post[13]

    def test_discount_correctness_by_independent_summation(self, uniform,
                                                           benchmark_params,
                                                           benchmark_truth):
        policy = build_policy(uniform, benchmark_params,
                              ExtensionSpec(delta=0.2, length=25),
                              true_length=benchmark_truth.length)
        beta, z, c = (benchmark_params.beta, benchmark_params.z,
                      benchmark_params.c)
        for spell in range(50):
            stream = RecordingStream(CounterStream(2024, spell))
            rec = simulate_spell(policy, benchmark_truth, benchmark_params,
                                 uniform, stream)
            assert not rec.truncated
            # replay the recorded events, discounting with explicit powers
            n = benchmark_params.n_periods
            extended = False
            flows = []
            extensions = iter(stream.extensions)
            for t, offer in enumerate(stream.offers):
                flows.append(beta ** t * (z + (c if n > 0 else 0.0)))
                n = max(n - 1, 0)
                if not extended and next(extensions):
                    extended = True
                    n += benchmark_truth.length
                if offer == rec.accepted_wage:
                    break
            welfare = math.fsum(flows) + beta ** rec.duration * rec.accepted_wage / (1 - beta)
            assert welfare == pytest.approx(rec.welfare, abs=1e-12)

    def test_certain_extension(self, uniform, benchmark_params):
        truth = ExtensionSpec(delta=1.0, length=25)
        policy = build_policy(uniform, benchmark_params, truth)
        rec = simulate_spell(policy, truth, benchmark_params, uniform,
                             CounterStream(5, 0))
        assert rec.extended and rec.extension_period == 1


class TestCounterStreams:
    def test_scalar_matches_vectorized(self):
        spells = np.array([0, 1, 7, 123456], dtype=np.uint64)
        draws = np.array([0, 3, 11, 2], dtype=np.uint64)
        offset = _seed_offset(42)
        vec = _variates(GAMMA + offset, _keys(spells, draws),
                        _scratch(len(spells))) * 2.0 ** -53
        for k in range(len(spells)):
            assert vec[k] == _variate(offset, int(spells[k]), int(draws[k]))

    def test_stream_reproducible_and_distinct(self):
        a = [CounterStream(9, 3)._next() for _ in range(5)]
        b = [CounterStream(9, 3)._next() for _ in range(5)]
        c = [CounterStream(9, 4)._next() for _ in range(5)]
        d = [CounterStream(10, 3)._next() for _ in range(5)]
        assert a == b
        assert a != c and a != d

    # Masked to one word, 2**64 + 1 and -(2**64) + 1 would replay seed 1's
    # streams and -1 seed 2**64 - 1's.
    @pytest.mark.parametrize("seed", [-1, montecarlo.MAX_SEED + 1, (1 << 64) + 1,
                                      -(1 << 64) + 1])
    def test_seed_beyond_one_word_rejected_by_stream_and_block(self, seed):
        message = r"master_seed must lie in \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=message):
            CounterStream(seed, 0)
        policy = build_policy(UNIT, BENCH, BENCH_TRUTH)
        with pytest.raises(ValueError, match=message):
            simulate_block(policy, BENCH_TRUTH, BENCH, UNIT, seed, 0, 4)

    # 2**32 used to replay spell 0's stream, and -1 to yield variates.
    @pytest.mark.parametrize("index", [-1, 1 << 32])
    def test_spell_index_beyond_32_bits_rejected_by_stream(self, index):
        with pytest.raises(ValueError, match="spell indices must fit in 32 bits"):
            CounterStream(1, index)

    def test_spell_indices_at_the_ends_of_32_bits_are_distinct(self):
        first = {CounterStream(1, index)._next() for index in (0, 1, (1 << 32) - 1)}
        assert len(first) == 3

    def test_seeds_at_the_ends_of_one_word_are_distinct(self):
        first = {CounterStream(seed, 0)._next() for seed in (0, 1, montecarlo.MAX_SEED)}
        assert len(first) == 3

    def test_draws_uniform_on_unit_interval(self):
        offset = _seed_offset(1234)
        n = 200_000
        u = _variates(GAMMA + offset, _keys(np.arange(n, dtype=np.uint64),
                                            np.zeros(n, dtype=np.uint64)),
                      _scratch(n)) * 2.0 ** -53
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 4 * math.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 4 * math.sqrt(1 / 180 / n)


# (params, dist, truth, belief, simulate_block overrides); belief None
# means no offer ever clears the thresholds, so every spell truncates.
ORACLE_CASES = {
    "benchmark": (BENCH, UNIT, BENCH_TRUTH, ExtensionSpec(0.1, 25), {}),
    "delta_zero": (BENCH, UNIT, ExtensionSpec(0.0, 25), ExtensionSpec(0.3, 25), {}),
    "delta_one": (BENCH, UNIT, ExtensionSpec(1.0, 25), ExtensionSpec(0.6, 25), {}),
    "no_entitlement": (replace(BENCH, n_periods=0), UNIT, ExtensionSpec(0.5, 3),
                       ExtensionSpec(0.5, 3), {}),
    "wide_support": (WIDE_PARAMS, WIDE, ExtensionSpec(0.4, 4), ExtensionSpec(0.2, 4), {}),
    "one_spell_offset": (BENCH, UNIT, BENCH_TRUTH, ExtensionSpec(0.1, 25),
                         {"start": 70_000, "count": 1}),
    "truncate_1": (BENCH, UNIT, BENCH_TRUTH, ExtensionSpec(0.1, 25), {"max_periods": 1}),
    "truncate_2": (BENCH, UNIT, BENCH_TRUTH, ExtensionSpec(0.1, 25), {"max_periods": 2}),
    "truncate_3": (WIDE_PARAMS, WIDE, ExtensionSpec(0.4, 4), ExtensionSpec(0.2, 4),
                   {"max_periods": 3, "start": 9}),
    "above_support": (replace(BENCH, n_periods=1), UNIT, ExtensionSpec(0.5, 2), None,
                      {"max_periods": 7}),
    # a rare extension keeps the pending prefix alive for dozens of
    # periods, so many extension-period segments coexist
    "many_periods": (BENCH, UNIT, ExtensionSpec(0.05, 40), ExtensionSpec(0.9, 40), {}),
    # both pending and extended lanes are still searching at truncation
    "truncate_mixed": (BENCH, UNIT, ExtensionSpec(0.3, 25), ExtensionSpec(0.1, 25),
                       {"max_periods": 4}),
    "one_spell_extended": (BENCH, UNIT, ExtensionSpec(1.0, 25), ExtensionSpec(0.6, 25),
                           {"start": 131_071, "count": 1}),
}


class TestBlockEquivalence:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_block_matches_scalar_loop(self, case):
        params, dist, truth, belief, overrides = ORACLE_CASES[case]
        policy = _policy(dist, params, truth, belief)
        kwargs = {"master_seed": 77, "start": 0, "count": 300, **overrides}
        block = simulate_block(policy, truth, params, dist, **kwargs)
        max_periods = kwargs.get("max_periods", montecarlo.DEFAULT_MAX_PERIODS)
        for i in range(kwargs["count"]):
            rec = simulate_spell(policy, truth, params, dist,
                                 CounterStream(77, kwargs["start"] + i),
                                 max_periods=max_periods)
            wage = block["accepted_wage"][i]
            period = block["extension_period"][i]
            assert rec.duration == block["duration"][i]
            assert rec.welfare == block["welfare"][i]
            assert rec.extended == block["extended"][i]
            assert rec.truncated == block["truncated"][i]
            assert rec.accepted_wage == (None if np.isnan(wage) else wage)
            assert rec.extension_period == (None if period == -1 else period)

    def test_cases_reach_their_situations(self):
        def block(case):
            params, dist, truth, belief, overrides = ORACLE_CASES[case]
            kwargs = {"master_seed": 77, "start": 0, "count": 300, **overrides}
            return simulate_block(_policy(dist, params, truth, belief), truth, params,
                                  dist, **kwargs)

        many = block("many_periods")
        assert len(np.unique(many["extension_period"][many["extended"]])) >= 20
        mixed = block("truncate_mixed")
        truncated = mixed["truncated"]
        assert truncated.any() and (mixed["extended"] & truncated).any() \
            and (~mixed["extended"] & truncated).any()
        one = block("one_spell_extended")
        assert one["extended"].tolist() == [True]

    def test_block_start_offset_matches_global_indexing(self, uniform,
                                                        benchmark_params,
                                                        benchmark_truth):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        whole = simulate_block(policy, benchmark_truth, benchmark_params,
                               uniform, master_seed=3, start=0, count=64)
        tail = simulate_block(policy, benchmark_truth, benchmark_params,
                              uniform, master_seed=3, start=32, count=32)
        np.testing.assert_array_equal(whole["duration"][32:], tail["duration"])
        np.testing.assert_array_equal(whole["welfare"][32:], tail["welfare"])


WORDS = 1 << 53


def _offer(dist, k):
    """The offer of word ``k``."""
    return float(dist.quantile(k * 2.0 ** -53))


def _grid_thresholds(dist):
    """Offers of words near 0, near 2**52 and at the top, one ulp either
    side of each, and thresholds below, at and above the support."""
    thresholds = [dist.low - 1.0, math.nextafter(dist.low, -math.inf), dist.high,
                  math.nextafter(dist.high, math.inf), dist.high + 1.0]
    for k in (0, 1, 2, (1 << 52) - 1, 1 << 52, (1 << 52) + 1, WORDS - 2, WORDS - 1):
        offer = _offer(dist, k)
        thresholds += [math.nextafter(offer, -math.inf), offer,
                       math.nextafter(offer, math.inf)]
    return thresholds


class TestWordDecisions:
    """Each decision taken on a 53-bit word is the float decision."""

    @pytest.mark.parametrize("dist", [UNIT, WIDE, UniformOffers(low=-2.0, high=1.5)],
                             ids=["unit", "wide", "negative_low"])
    def test_offer_cutoffs_are_exact_on_both_sides(self, dist):
        thresholds = _grid_thresholds(dist)
        cutoffs = montecarlo._offer_cutoffs(np.array(thresholds), dist)
        assert cutoffs.dtype == np.uint64
        for r, cutoff in zip(thresholds, cutoffs.tolist()):
            assert 0 <= cutoff <= WORDS
            if cutoff < WORDS:
                assert _offer(dist, cutoff) >= r
            if cutoff > 0:
                assert _offer(dist, cutoff - 1) < r
        assert cutoffs[:2].tolist() == [0, 0]  # below the support: every offer
        assert cutoffs[3:5].tolist() == [WORDS, WORDS]  # above it: none
        # On the grid, the offer's own word is the cutoff unless the words
        # below it give the same offer.
        assert cutoffs[6] == 0 and cutoffs[9] == 1

    def test_nan_threshold_never_accepts(self):
        cutoffs = montecarlo._offer_cutoffs(np.array([math.nan, 0.5]), UNIT)
        assert cutoffs.tolist() == [WORDS, 1 << 52]

    @pytest.mark.parametrize("delta", [0.0, 5e-324, 2.0 ** -53, 0.5,
                                       math.nextafter(1.0, 0.0), 1.0])
    def test_extension_cutoff_is_the_float_trial(self, delta):
        cutoff = montecarlo._extension_cutoff(delta)
        assert 0 <= cutoff <= WORDS
        for k in {0, 1, cutoff - 1, cutoff, cutoff + 1, WORDS - 1}:
            if 0 <= k < WORDS:
                assert (k < cutoff) == (k * 2.0 ** -53 < delta), k

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_thresholds_on_drawn_offers_match_scalar_loop(self, data):
        # Each threshold is the first offer (draw 1) of a spell of the
        # block, or one at or beyond the support's ends. Every first offer
        # meets the threshold of the state it is drawn in, so that spell
        # meets it exactly, and the block must accept as the scalar loop does.
        low = data.draw(st.sampled_from([0.0, -2.0, 0.5]))
        dist = UniformOffers(low, low + data.draw(st.sampled_from([1.0, 1.5, 3.5])))
        params = MarketParams(beta=0.9, z=low, c=0.1, n_periods=data.draw(st.integers(0, 3)))
        truth = ExtensionSpec(delta=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
                              length=data.draw(st.integers(1, 3)))
        seed, count, max_periods = data.draw(st.integers(0, 1000)), 40, 12
        offset = _seed_offset(seed)
        offer = st.builds(lambda i: dist.quantile(_variate(offset, i, 1)),
                          st.integers(0, count - 1))
        threshold = st.one_of(offer, st.sampled_from(
            [dist.low, dist.high, math.nextafter(dist.high, math.inf), math.nan]))

        def schedule(n):
            return np.array(data.draw(st.lists(threshold, min_size=n, max_size=n)))

        policy = PolicyProfile(pre_thresholds=schedule(params.n_periods + 1),
                               post_thresholds=schedule(params.n_periods + truth.length + 1))
        block = simulate_block(policy, truth, params, dist, seed, 0, count,
                               max_periods=max_periods)
        for i in range(count):
            rec = simulate_spell(policy, truth, params, dist, CounterStream(seed, i),
                                 max_periods=max_periods)
            wage = block["accepted_wage"][i]
            period = block["extension_period"][i]
            assert (rec.duration, rec.welfare, rec.extended, rec.truncated) == (
                block["duration"][i], block["welfare"][i], block["extended"][i],
                block["truncated"][i])
            assert rec.accepted_wage == (None if np.isnan(wage) else wage)
            assert rec.extension_period == (None if period == -1 else period)


class TestSimulateMany:
    def test_geometric_duration_no_benefits(self, uniform):
        p = MarketParams(beta=0.95, z=0.42, c=0.0, n_periods=0)
        truth = ExtensionSpec(delta=0.0, length=1)
        policy = build_policy(uniform, p, truth)
        summary = simulate_many(policy, truth, p, uniform, 100_000, 21)
        expected = 1 / (1 - solve_w0_basic(uniform, p, flow=p.z))
        assert abs(summary.duration_mean - expected) < 3 * summary.duration_stderr

    def test_widest_support_keeps_finite_standard_errors(self):
        # Squared welfare near 1e155 overflows a float, so the reduction
        # scales welfare and wages by a power of two before squaring.
        dist = UniformOffers(low=-1.3e154, high=1.3e154)
        policy = _policy(dist, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = simulate_many(policy, BENCH_TRUTH, BENCH, dist, 100, 0)
        block = simulate_block(policy, BENCH_TRUTH, BENCH, dist, 0, 0, 100)
        assert not block["truncated"].any()
        for key, stderr in (("welfare", summary.welfare_stderr),
                            ("accepted_wage", summary.wage_stderr)):
            values = [Fraction(v) for v in block[key].tolist()]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            assert math.isfinite(stderr), key
            assert math.isclose(stderr, math.sqrt(var / len(values)), rel_tol=1e-12), key

    def test_all_truncated_reports_counts(self, uniform):
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=1)
        policy = PolicyProfile(pre_thresholds=np.full(2, 1.1),
                               post_thresholds=np.full(5, 1.1))
        summary = simulate_many(policy, ExtensionSpec(0.0, 1), p, uniform,
                                200, 4, max_periods=10)
        assert summary.truncated_count == 200
        assert math.isnan(summary.welfare_mean)
        # the discounted value beyond the truncation horizon is negligible
        # even at the default cap
        assert 0.95 ** 2000 / 0.05 * 1.0 < 1e-40

    def test_requires_at_least_one_spell(self, uniform, benchmark_params,
                                         benchmark_truth):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        with pytest.raises(ValueError):
            simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                          0, 1)

    def test_rejects_spell_count_beyond_index_space(self, uniform, benchmark_params,
                                                    benchmark_truth, monkeypatch):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)

        def no_block(*args, **kwargs):
            raise AssertionError("simulate_block ran before the count was checked")

        monkeypatch.setattr("uisearch.montecarlo.simulate_block", no_block)
        with pytest.raises(ValueError, match="32 bits"):
            simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                          (1 << 32) + 1, 1)

    @pytest.mark.parametrize("bounds, message", [
        ({"start": (1 << 32) - 2, "count": 4}, "32 bits"),
        ({"start": 0, "count": 4, "max_periods": (1 << 30) + 1}, "draw counter"),
    ], ids=["spell_index", "max_periods"])
    def test_block_rejects_counters_beyond_their_words(self, uniform, benchmark_params,
                                                       benchmark_truth, bounds, message):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        with pytest.raises(ValueError, match=message):
            simulate_block(policy, benchmark_truth, benchmark_params, uniform, 1,
                           **bounds)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("max_periods", [0, -1, (1 << 30) + 1])
    def test_rejects_max_periods_before_any_work(self, monkeypatch, two_cpus, forks,
                                                 max_periods, n_workers):
        # 0 or -1 used to truncate every spell; 2**30 + 1 was refused by
        # the first block, once the workers had started
        def no_work(*args, **kwargs):
            raise AssertionError("worked before max_periods was checked")

        monkeypatch.setattr("uisearch.montecarlo.simulate_block", no_work)
        monkeypatch.setattr("uisearch.montecarlo._Workspace", no_work)
        with pytest.raises(ValueError, match="max_periods"):
            simulate_many(TestWorkerPool.POLICY, BENCH_TRUTH, BENCH, UNIT,
                          DEFAULT_CHUNK + 1, 1, max_periods=max_periods,
                          n_workers=n_workers)
        assert forks == []

    @pytest.mark.parametrize("max_periods", [0, -1, (1 << 30) + 1])
    def test_block_and_spell_reject_max_periods(self, max_periods):
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        with pytest.raises(ValueError, match="max_periods"):
            simulate_block(policy, BENCH_TRUTH, BENCH, UNIT, 1, 0, 4,
                           max_periods=max_periods)
        with pytest.raises(ValueError, match="max_periods"):
            simulate_spell(policy, BENCH_TRUTH, BENCH, UNIT, CounterStream(1, 0),
                           max_periods=max_periods)

    @pytest.mark.parametrize("start, count", [(-1, 4), (0, -1)], ids=["start", "count"])
    def test_block_refuses_negative_bounds_before_any_work(self, monkeypatch, start,
                                                           count):
        # A negative start used to overflow uint64, a negative count to
        # fail inside numpy.
        forbid_kernel_work(monkeypatch)
        with pytest.raises(ValueError, match="start and count must not be negative"):
            simulate_block(TestWorkerPool.POLICY, BENCH_TRUTH, BENCH, UNIT, 1, start, count)

    @pytest.mark.parametrize("start, count", [(300, 300), (0, 301), (1, 300), (0, 0)],
                             ids=["second_first", "longer", "shifted", "empty"])
    def test_block_refuses_all_but_its_workspaces_next_block(self, monkeypatch, start,
                                                             count):
        # A workspace runs its share's blocks in order, (0, 300) first.
        workspace = montecarlo._Workspace([(0, 300), (300, 300)])
        forbid_kernel_work(monkeypatch)
        with pytest.raises(ValueError, match=f"the block of {count} spells from {start} is "
                                             "not the next block of this workspace's job"):
            simulate_block(TestWorkerPool.POLICY, BENCH_TRUTH, BENCH, UNIT, 1, start, count,
                           workspace=workspace)
        assert workspace.blocks == [(0, 300), (300, 300)]

    @pytest.mark.parametrize("workspace", [False, True], ids=["fresh", "workspace"])
    def test_empty_block_returns_at_once(self, monkeypatch, workspace):
        # It used to step max_periods empty periods.
        workspace = montecarlo._Workspace([(7, 0)]) if workspace else None
        forbid_kernel_work(monkeypatch)
        block = simulate_block(TestWorkerPool.POLICY, BENCH_TRUTH, BENCH, UNIT, 1, 7, 0,
                               workspace=workspace)
        assert {key: (a.dtype.str, a.shape) for key, a in block.items()} == {
            "duration": ("<i8", (0,)), "accepted_wage": ("<f8", (0,)),
            "welfare": ("<f8", (0,)), "extended": ("|b1", (0,)),
            "extension_period": ("<i8", (0,)), "truncated": ("|b1", (0,))}

    @pytest.mark.parametrize("seed", [-1, montecarlo.MAX_SEED + 1, (1 << 64) + 1])
    def test_rejects_seed_beyond_one_word(self, uniform, benchmark_params,
                                          benchmark_truth, monkeypatch, seed):
        # a seed masked to 64 bits would silently replay another seed's spells
        policy = build_policy(uniform, benchmark_params, benchmark_truth)

        def no_block(*args, **kwargs):
            raise AssertionError("simulate_block ran before the seed was checked")

        monkeypatch.setattr("uisearch.montecarlo.simulate_block", no_block)
        with pytest.raises(ValueError, match="master_seed"):
            simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                          10, seed)

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_requires_at_least_one_worker(self, uniform, benchmark_params,
                                          benchmark_truth, n_workers):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        with pytest.raises(ValueError, match="n_workers"):
            simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                          10, 1, n_workers=n_workers)

    def test_stderr_definition(self, uniform, benchmark_params, benchmark_truth):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        block = simulate_block(policy, benchmark_truth, benchmark_params,
                               uniform, master_seed=8, start=0, count=4_000)
        summary = simulate_many(policy, benchmark_truth, benchmark_params,
                                uniform, 4_000, 8)
        welfare = block["welfare"][~block["truncated"]]
        assert summary.welfare_mean == pytest.approx(welfare.mean(), rel=1e-12)
        assert summary.welfare_stderr == pytest.approx(
            welfare.std(ddof=1) / math.sqrt(welfare.size), rel=1e-9)

    @pytest.mark.parametrize("max_periods", [3, montecarlo.DEFAULT_MAX_PERIODS])
    def test_sums_cover_completed_spells_bit_for_bit(self, max_periods):
        # One block: the summary is these numpy sums over the completed
        # spells, however the block's scratch is reused.
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        block = simulate_block(policy, BENCH_TRUTH, BENCH, UNIT, 8, 0, 4_000,
                               max_periods=max_periods)
        summary = simulate_many(policy, BENCH_TRUTH, BENCH, UNIT, 4_000, 8,
                                max_periods=max_periods)
        done = ~block["truncated"]
        n = int(done.sum())
        for key, field in (("welfare", "welfare"), ("duration", "duration"),
                           ("accepted_wage", "wage")):
            values = block[key][done].astype(float)
            mean = float(np.sum(values)) / n
            var = max(float(np.sum(values * values)) - n * mean * mean, 0.0) / (n - 1)
            assert getattr(summary, f"{field}_mean") == mean
            assert getattr(summary, f"{field}_stderr") == math.sqrt(var / n)
        assert summary.truncated_count == 4_000 - n
        assert (summary.truncated_count > 0) == (max_periods == 3)


def forbid_kernel_work(monkeypatch):
    """Make any workspace, cutoff search or variate a ``simulate_block``
    call would start raise instead."""
    def no_work(*args, **kwargs):
        raise AssertionError("simulate_block worked before refusing its input")

    for name in ("_Workspace", "_offer_cutoffs", "_variates"):
        monkeypatch.setattr(montecarlo, name, no_work)


class CountingUniform(UniformOffers):
    """Uniform offers that record the size of each ``quantile`` call."""

    def quantile(self, u):
        self.__dict__.setdefault("sizes", []).append(np.size(u))
        return super().quantile(u)


def counted_searches(monkeypatch):
    """The cutoff searches from now on, each the ``quantile`` call sizes
    it made; those calls are taken out of the distribution's ``sizes``,
    so that the sizes left are the kernel's own calls."""
    searches = []
    real = montecarlo._offer_cutoffs

    def search(thresholds, dist):
        sizes = dist.__dict__.setdefault("sizes", [])
        before = len(sizes)
        cutoffs = real(thresholds, dist)
        searches.append(sizes[before:])
        del sizes[before:]
        return cutoffs

    monkeypatch.setattr(montecarlo, "_offer_cutoffs", search)
    return searches


class TestStreamConsumption:
    """Each spell draws exactly its trials and offers, counters 0, 1, 2, ...

    One variate per pending extension trial (through the period of the
    extension) and one per offer, drawn through the positional
    ``_variates(add, keys)`` call, whose ``(spell, draw)`` pairs are
    decoded from ``keys + add``. ``quantile`` sees just the accepted
    offers, and the cutoff search runs once per workspace and policy.
    """

    @pytest.mark.parametrize("case", ["benchmark", "delta_one", "truncate_2",
                                      "above_support", "many_periods",
                                      "truncate_mixed"])
    def test_block_draws_each_variate_once(self, case, monkeypatch):
        params, _, truth, belief, overrides = ORACLE_CASES[case]
        dist = CountingUniform()
        policy = _policy(dist, params, truth, belief)
        drawn = Counter()
        sizes = []
        offset = _seed_offset(5)

        def counting(add, keys, out):
            sizes.append(len(keys))
            drawn.update(zip(*(a.tolist() for a in _decoded(add, keys, offset))))
            return _variates(add, keys, out=out)

        monkeypatch.setattr(montecarlo, "_variates", counting)
        searches = counted_searches(monkeypatch)
        kwargs = {"master_seed": 5, "start": 0, "count": 400, **overrides}
        block = simulate_block(policy, truth, params, dist, **kwargs)
        duration = block["duration"]
        trials = np.where(block["extended"], block["extension_period"], duration)
        assert sum(sizes) == duration.sum() + trials.sum()
        assert max(drawn.values()) == 1
        for i, n in enumerate(duration + trials):
            spell = kwargs["start"] + i
            assert all((spell, j) in drawn for j in range(n))
        assert sum(dist.sizes) == np.count_nonzero(~block["truncated"])
        assert len(searches) == 1

    def test_simulate_many_searches_cutoffs_once(self, monkeypatch):
        # Three blocks on one worker: a search per block would be three.
        searches = counted_searches(monkeypatch)
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        simulate_many(policy, BENCH_TRUTH, BENCH, UNIT, 2 * DEFAULT_CHUNK + 500, 13)
        assert len(searches) == 1

    def test_serial_blocks_go_through_module_seams(self, monkeypatch):
        # Three blocks inline: each is one call of the module-level
        # simulate_block with count at position 6, and every trial and
        # offer batch one positional _variates call, keys at position 1.
        # bench/layers.py times both seams.
        n_spells = 2 * DEFAULT_CHUNK + 500
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        blocks, sizes, counters = [], [], []
        real_block, real_variates = simulate_block, _variates
        offset = _seed_offset(13)

        def block(*args, **kwargs):
            out = real_block(*args, **kwargs)
            trials = np.where(out["extended"], out["extension_period"], out["duration"])
            blocks.append((args[5], args[6], out["duration"] + trials))
            return out

        def variates(add, keys, out):
            sizes.append(len(keys))
            spells, draws = _decoded(add, keys, offset)
            counters.append((spells << np.uint64(32)) | draws)
            return real_variates(add, keys, out=out)

        monkeypatch.setattr(montecarlo, "simulate_block", block)
        monkeypatch.setattr(montecarlo, "_variates", variates)
        simulate_many(policy, BENCH_TRUTH, BENCH, UNIT, n_spells, 13)
        assert [(start, count) for start, count, _ in blocks] == [
            (0, DEFAULT_CHUNK), (DEFAULT_CHUNK, DEFAULT_CHUNK), (2 * DEFAULT_CHUNK, 500)]
        draws = np.concatenate([n for _, _, n in blocks])
        assert sum(sizes) == draws.sum()
        # Every variate exactly once: spell i draws counters 0 .. draws[i] - 1.
        drawn = np.unique(np.concatenate(counters))
        assert drawn.size == draws.sum()
        spells = drawn >> np.uint64(32)
        assert np.array_equal(np.bincount(spells.astype(np.int64), minlength=n_spells),
                              draws)
        assert np.all((drawn & np.uint64(LOW32)) < draws[spells.astype(np.int64)])


class TestGolden:
    """Outputs recorded before the two-array kernel rewrite.

    A change to any stream, float operation or dtype changes a digest,
    so "bit for bit" is checked, not claimed.
    """

    BLOCKS = {
        "benchmark": ((BENCH, UNIT, BENCH_TRUTH, ExtensionSpec(0.1, 25)),
                      dict(master_seed=77, start=0, count=3000), {
            "duration": "7b07cf2d1754169d73f50c6c359ff688ab28cc3f34f52264ec59180303ee6457",
            "accepted_wage": "4c8237ad309717f811261fb7fc2bce8d6a35551c09166ad467448f38c82a9182",
            "welfare": "1c75ea69b0a7b4081590ce29a80afe13ee1ecfe28586571288d2313a8f69f125",
            "extended": "626b35abb71b5d22cae425c101c018b8c4c87c41b6784bf09bc3b919239d23a6",
            "extension_period": "1ad4432fa95cef82b6b911b3285e7f26024d1dc0f9f0d7df2526beb65f8d13a1",
            "truncated": "0a31f2a49def05d4aaef40c90dab07eeda350df10035f7cf9b14f598d7cc3e51",
        }),
        "certain_wide": ((replace(WIDE_PARAMS, n_periods=0), WIDE, ExtensionSpec(1.0, 4),
                          ExtensionSpec(0.3, 4)),
                         dict(master_seed=5, start=70_000, count=500), {
            "duration": "aa6118d985deee58a4d5184f5ca07690c991838cde0e55fd0b31147986d7b3d6",
            "accepted_wage": "c4d8ef779aa52257708d3a5997c5e3e8d21a474f94521b533b47394698b3a0b3",
            "welfare": "192446c6203112984c3715a1e4e1a87f415aa703b477ee6153dde875c3ca78c2",
            "extended": "f24ecc13bcdfc6b97c9b2e1e5e398ea04875a88725fb056a02eec83ccc6a1bc6",
            "extension_period": "95d6ac1daa4b21bc8b6fc9672a4d8fede7c3ba55831a02824e326a135da1b23c",
            "truncated": "a691909cd544db6a9ae36cdf2c28f26a4c60f67ddebb00c3cf2ce23bcfa3d5c5",
        }),
        "truncating": ((BENCH, UNIT, BENCH_TRUTH, ExtensionSpec(0.1, 25)),
                       dict(master_seed=9, start=5, count=1000, max_periods=2), {
            "duration": "b6792c1d36ab7be800647d3b9c6b926d0d388bc5d43839f581de47cc82e06a3f",
            "accepted_wage": "d0bfea85dadea465bd00dd48a4e1b17917d30946aa09fa30b85572f0887f9d84",
            "welfare": "e97071b5e4e747670f9ba1ac5a8d662278ec54a238f11ffe38dfa7ba7a97b7f3",
            "extended": "372c786961ddce542d9a01eecf19aa92e07ccec6a790f412ddc311cda4358c07",
            "extension_period": "43fb68ebeb1c9c4d59bcd9c3646ca1909f106d647b1bc7cdf3dec70d999df465",
            "truncated": "66a9296f31c55b01c0ad97d62a8cb5ebec3a0efa53fd15ca79552c28f9ee2620",
        }),
    }

    # float.hex of every float field of a three-block summary. Blocks
    # always start at multiples of DEFAULT_CHUNK, so the bits depend on
    # (seed, n_spells) alone, at any worker count.
    SUMMARY = (140_000, "0x1.1fe09614036eep+4", "0x1.10c13aaabc544p-9",
               "0x1.31cb385968ea8p+3", "0x1.6fc3677b6530ep-6",
               "0x1.e4dbb920f2b4bp-1", "0x1.650df9019fd53p-14", 126_246, 0)

    @pytest.mark.parametrize("name", BLOCKS)
    def test_block_digests(self, name):
        (params, dist, truth, belief), kwargs, expected = self.BLOCKS[name]
        block = simulate_block(_policy(dist, params, truth, belief), truth, params,
                               dist, **kwargs)
        assert self._digests(block) == expected

    @pytest.mark.parametrize("name", BLOCKS)
    def test_one_workspace_serves_blocks_of_any_size(self, name):
        # A share of the full block, then shorter ones from the same
        # spell, then the full one again: nothing a block leaves in the
        # workspace reaches the next one. A short block's records are
        # the full block's first ones.
        (params, dist, truth, belief), kwargs, expected = self.BLOCKS[name]
        start, count = kwargs["start"], kwargs["count"]
        blocks = [(start, count), (start, count // 6), (start, count // 2), (start, count)]
        workspace = montecarlo._Workspace(blocks)
        policy = _policy(dist, params, truth, belief)
        full = None
        for start, count in blocks:
            block = simulate_block(policy, truth, params, dist, workspace=workspace,
                                   **{**kwargs, "start": start, "count": count})
            if count == kwargs["count"]:
                assert self._digests(block) == expected
                if full is None:
                    full = {key: a.copy() for key, a in block.items()}
            else:
                for key, a in block.items():
                    assert a.tobytes() == full[key][:count].tobytes(), (count, key)

    def test_policy_rebuilt_from_arrays_keeps_digests(self):
        # A policy built from ndarray copies of the thresholds stores the
        # same floats, so the kernel draws the same decisions.
        (params, dist, truth, belief), kwargs, expected = self.BLOCKS["benchmark"]
        built = _policy(dist, params, truth, belief)
        rebuilt = PolicyProfile(pre_thresholds=np.array(built.pre_thresholds),
                                post_thresholds=np.array(built.post_thresholds))
        block = simulate_block(rebuilt, truth, params, dist, **kwargs)
        assert self._digests(block) == expected

    @staticmethod
    def _digests(block):
        return {key: hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()
                for key, a in block.items()}

    def test_concurrent_calls_share_no_workspace(self):
        # Two threads run this job and one with another seed at once;
        # each must get the bits it gets alone.
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))

        def bits(seed):
            return summary_bits(simulate_many(policy, BENCH_TRUTH, BENCH, UNIT,
                                              140_000, seed))

        seeds = (2024, 2024, 7)
        expected = [self.SUMMARY, self.SUMMARY, bits(7)]
        results = [None] * len(seeds)

        def run(i):
            results[i] = bits(seeds[i])

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(seeds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_summary_bits(self, n_workers):
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        summary = simulate_many(policy, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024,
                                n_workers=n_workers)
        assert summary_bits(summary) == self.SUMMARY


class LockedUniform(UniformOffers):
    """Uniform offers on [0, 1] holding a lock, so they cannot be pickled."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "lock", threading.Lock())


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker processes need os.fork")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs as far as ``simulate_many`` can tell, so it forks on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child ``os.fork`` made, which still forks."""
    children = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return children


@pytest.fixture
def deadline():
    """Fail a test that runs 30 s, instead of hanging on a lost child."""
    def expire(signum, frame):
        raise TimeoutError("simulate_many still waiting after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_children(monkeypatch, failure):
    """Make every block past the first call ``failure(start)`` instead;
    a forked child inherits the patch."""
    real = simulate_block

    def block(*args, **kwargs):
        if args[5] >= DEFAULT_CHUNK:
            failure(args[5])
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_block", block)


class Untouched:
    """A distribution or a stream whose every member raises, so a reader
    that prices, draws or samples has started work."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} before refusing its input")


class TestCoverage:
    """Every reader of a policy refuses one without exactly ``N + 1``
    pre-extension thresholds or with post-extension ones that stop short
    of a state an extension leads to, and every reader of a basic
    schedule refuses one that stops short: ``ValueError`` naming the
    field, before any price, draw, workspace or cutoff search, and with
    no child forked."""

    POLICY = build_policy(UNIT, BENCH, BENCH_TRUTH)  # 11 and 35 thresholds
    SCHEDULE = solve_schedules(UNIT, BENCH, BENCH_TRUTH)  # basic: 35 wages

    FAULTS = {
        "pre_short": lambda pre, post: PolicyProfile(pre[:-1], post),
        "pre_long": lambda pre, post: PolicyProfile((*pre, pre[-1]), post),
        "post_short": lambda pre, post: PolicyProfile(pre, post[:-1]),
    }
    READERS = {
        "evaluate_policy": lambda policy, dist: evaluate_policy(
            policy, BENCH_TRUTH, BENCH, dist),
        "simulate_spell": lambda policy, dist: simulate_spell(
            policy, BENCH_TRUTH, BENCH, dist, Untouched()),
        "simulate_block": lambda policy, dist: simulate_block(
            policy, BENCH_TRUTH, BENCH, dist, 1, 0, 4),
        "simulate_many_1": lambda policy, dist: simulate_many(
            policy, BENCH_TRUTH, BENCH, dist, DEFAULT_CHUNK + 1, 1, n_workers=1),
        "simulate_many_2": lambda policy, dist: simulate_many(
            policy, BENCH_TRUTH, BENCH, dist, DEFAULT_CHUNK + 1, 1, n_workers=2),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_policy_readers_refuse_a_missed_state(self, monkeypatch, two_cpus, forks,
                                                  reader, fault):
        policy = self.FAULTS[fault](self.POLICY._pre_thresholds,
                                    self.POLICY._post_thresholds)
        forbid_kernel_work(monkeypatch)
        with pytest.raises(ValueError, match=fault.split("_")[0] + "_thresholds must cover"):
            self.READERS[reader](policy, Untouched())
        assert forks == []

    def test_the_faults_are_one_threshold_off(self):
        lengths = {name: (len(policy._pre_thresholds), len(policy._post_thresholds))
                   for name, fault in self.FAULTS.items()
                   for policy in [fault(self.POLICY._pre_thresholds,
                                        self.POLICY._post_thresholds)]}
        assert lengths == {"pre_short": (10, 35), "pre_long": (12, 35),
                           "post_short": (11, 34)}
        # The policy as built passes every reader.
        for reader in ("evaluate_policy", "simulate_block"):
            self.READERS[reader](self.POLICY, UNIT)

    @pytest.mark.parametrize("reader", ["build_extension_schedule",
                                        "reservation_identity_residual"])
    def test_schedule_readers_refuse_a_short_basic_schedule(self, reader):
        short = self.SCHEDULE._basic[:-1]
        with pytest.raises(ValueError, match="basic schedule must cover entitlements "
                                             "0..34, not 0..33"):
            if reader == "build_extension_schedule":
                build_extension_schedule(Untouched(), BENCH, BENCH_TRUTH, short)
            else:
                reservation_identity_residual(Untouched(), ReservationSchedule(
                    basic=short, with_extension=self.SCHEDULE._with_extension,
                    params=BENCH, belief=BENCH_TRUTH))


class LockedError(Exception):
    """An exception holding a lock, so it cannot be pickled."""

    def __init__(self):
        super().__init__("locked")
        self.lock = threading.Lock()


class TestWorkerPool:
    """``simulate_many`` on the calling process and forked children.

    The three-block job is ``TestGolden``'s, so ``TestGolden.SUMMARY``
    is its 1-worker summary.
    """

    POLICY = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))

    @needs_fork
    @pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 3)])
    def test_worker_count_capped_by_cpus_and_blocks(self, monkeypatch, forks,
                                                    cpus, expected):
        # The calling process is one of the workers.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        summary = simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024,
                                n_workers=10 ** 6)
        assert len(forks) == expected - 1
        assert summary_bits(summary) == TestGolden.SUMMARY
        assert_no_children()

    @needs_fork
    def test_unpicklable_distribution(self, two_cpus, forks):
        dist = LockedUniform()
        with pytest.raises(TypeError):
            pickle.dumps(dist)
        summary = simulate_many(self.POLICY, BENCH_TRUTH, BENCH, dist, 140_000, 2024,
                                n_workers=2)
        assert len(forks) == 1
        assert summary_bits(summary) == TestGolden.SUMMARY

    @needs_fork
    def test_worker_error_keeps_its_type(self, monkeypatch, two_cpus, forks, deadline):
        # Every share fails once it has started, in the calling process
        # and in the child forked for the second share alike.
        def fail(*args, **kwargs):
            raise IndexError(f"block {args[5]}")

        monkeypatch.setattr(montecarlo, "simulate_block", fail)
        raised = []
        for n_workers in (1, 2):
            with pytest.raises(Exception) as info:
                simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, DEFAULT_CHUNK + 1, 6,
                              n_workers=n_workers)
            raised.append(type(info.value))
        assert len(forks) == 1
        assert raised[0] is raised[1] is IndexError
        assert_no_children()

    @needs_fork
    def test_error_in_a_child_alone_keeps_its_type(self, monkeypatch, two_cpus, forks,
                                                   deadline):
        def fail(start):
            raise IndexError(f"block {start} in process {os.getpid()}")

        fail_in_children(monkeypatch, fail)
        with pytest.raises(IndexError, match=f"block {DEFAULT_CHUNK} in process") as info:
            simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, DEFAULT_CHUNK + 1, 6,
                          n_workers=2)
        assert str(os.getpid()) not in str(info.value)
        assert len(forks) == 1
        assert_no_children()

    @needs_fork
    def test_unpicklable_error_comes_back_as_its_repr(self, monkeypatch, two_cpus,
                                                      deadline):
        def fail(start):
            raise LockedError()

        fail_in_children(monkeypatch, fail)
        with pytest.raises(RuntimeError, match=r"LockedError\('locked'\)"):
            simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, DEFAULT_CHUNK + 1, 6,
                          n_workers=2)
        assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("death, status", [
        (lambda: os._exit(3), "wait status 768, exit code 3"),
        (lambda: os._exit(0), "wait status 0, exit code 0"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "wait status 9, exit code -9"),
    ], ids=["exit_3", "exit_0_without_result", "sigkill"])
    def test_child_ending_without_a_result(self, monkeypatch, two_cpus, deadline,
                                           death, status):
        fail_in_children(monkeypatch, lambda start: death())
        with pytest.raises(RuntimeError, match=f"without a result \\({status}\\)"):
            simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, DEFAULT_CHUNK + 1, 6,
                          n_workers=2)
        assert_no_children()

    @needs_fork
    def test_callers_error_kills_and_reaps_every_child(self, monkeypatch, forks,
                                                       deadline):
        # Four workers: the caller's first block raises while each child
        # would sleep for a minute; the call must not wait for them.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        real = simulate_block

        def block(*args, **kwargs):
            if args[5] == 0:
                raise KeyError("the caller's own block")
            time.sleep(60)
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_block", block)
        started = time.monotonic()
        with pytest.raises(KeyError, match="the caller's own block"):
            simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 4 * DEFAULT_CHUNK, 6,
                          n_workers=4)
        assert time.monotonic() - started < 20
        assert len(forks) == 3
        for pid in forks:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert_no_children()

    @needs_fork
    def test_a_live_thread_in_the_caller(self, two_cpus, forks, deadline):
        # Another thread of the calling process is blocked on an Event
        # while the call fans out; whether the call forks or not, it
        # returns the 1-worker summary and leaves no child behind.
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            summary = simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024,
                                    n_workers=2)
        finally:
            release.set()
            waiter.join()
        assert summary_bits(summary) == TestGolden.SUMMARY
        for pid in forks:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert_no_children()

    def test_one_worker_runs_one_share_through_fork_map(self, monkeypatch):
        # One worker takes the one fan-out path: fork_map, given a single
        # share of every block, runs it in this process and forks nothing.
        calls = []
        real = montecarlo.fork_map

        def fork_map(work, shares):
            calls.append(shares)
            return real(work, shares)

        def no_fork():
            raise AssertionError("forked for one worker")

        monkeypatch.setattr(montecarlo, "fork_map", fork_map)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        summary = simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024)
        assert calls == [[range(0, 140_000, DEFAULT_CHUNK)]]
        assert summary_bits(summary) == TestGolden.SUMMARY

    @needs_fork
    def test_inline_without_fork(self, monkeypatch, two_cpus):
        # Every block runs in this process: none is lost to a child.
        starts = []
        real = simulate_block

        def block(*args, **kwargs):
            starts.append(args[5])
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_block", block)
        monkeypatch.delattr(os, "fork")
        summary = simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024,
                                n_workers=2)
        assert starts == [0, DEFAULT_CHUNK, 2 * DEFAULT_CHUNK]
        assert summary_bits(summary) == TestGolden.SUMMARY


def workspace_bytes(workspace):
    """The bytes of every array a ``_Workspace`` holds, each buffer once."""
    buffers = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            base = value if value.base is None else value.base
            buffers[id(base)] = base.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)

    for value in vars(workspace).values():
        walk(value)
    return sum(buffers.values())


class TestOverlappedBlocks:
    """A share's next block rides along in the tail of the current one.

    Whatever shares the lanes with it, each block of a ``simulate_many``
    share must return, from the module-level ``simulate_block`` that
    ``bench/layers.py`` times, the records it has alone, bit for bit.
    """

    POLICY = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
    N_SPELLS = 2 * DEFAULT_CHUNK + 500  # the last block is short
    CASES = {
        "benchmark": (BENCH_TRUTH, {}),
        # Many spells stay pending, so two cohorts' trials share periods.
        "pending_heavy": (ExtensionSpec(0.02, 25), {}),
        # Every block truncates 40 periods after it joined; the second
        # joins the first one's tail, so it truncates in a later call.
        "truncating": (BENCH_TRUTH, {"max_periods": 40}),
        # No spell extends: both cohorts stay pending, and no extended
        # row ever exists.
        "delta_zero": (ExtensionSpec(0.0, 25), {}),
        # Every spell extends in its cohort's first trial.
        "delta_one": (ExtensionSpec(1.0, 25), {}),
        # Spells still pending truncate while the next block is in flight.
        "pending_truncating": (ExtensionSpec(0.02, 25), {"max_periods": 40}),
    }

    @needs_fork
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_each_block_returns_its_lone_records(self, monkeypatch, two_cpus, case,
                                                 n_workers):
        truth, kwargs = self.CASES[case]
        policy = _policy(UNIT, BENCH, truth, ExtensionSpec(0.1, 25))
        real_block, real_variates = simulate_block, _variates
        offset = _seed_offset(13)
        returned, calls, tracing = [], [], [True]

        def block(*args, **kw):
            out = real_block(*args, **kw)
            tracing[0] = False
            lone = real_block(*args, max_periods=kw["max_periods"])
            tracing[0] = True
            for key, a in out.items():  # raised in a child too, with its type
                assert a.dtype == lone[key].dtype and a.tobytes() == lone[key].tobytes(), \
                    (args[5], key)
            returned.append((args[5], args[6], int(out["truncated"].sum())))
            return out

        def variates(add, keys, out):
            if tracing[0]:
                spells, draws = _decoded(add, keys, offset)
                blocks = (spells // np.uint64(DEFAULT_CHUNK)).tolist()
                calls.append({b: set() for b in blocks})
                for b, d in zip(blocks, draws.tolist()):
                    calls[-1][b].add(d)
            return real_variates(add, keys, out=out)

        monkeypatch.setattr(montecarlo, "simulate_block", block)
        monkeypatch.setattr(montecarlo, "_variates", variates)
        summary = simulate_many(policy, truth, BENCH, UNIT, self.N_SPELLS, 13,
                                n_workers=n_workers, **kwargs)
        own = [0, DEFAULT_CHUNK, 2 * DEFAULT_CHUNK][::n_workers]
        assert [start for start, _, _ in returned] == own
        # The blocks of this process shared the lanes ...
        assert any(len(call) == 2 for call in calls)
        if case == "pending_heavy":
            # ... and the pending lanes of two cohorts one trial: one
            # even draw for each block.
            assert any(len(call) == 2 and all(len(d) == 1 and min(d) % 2 == 0
                                               for d in call.values())
                       for call in calls)
        if case == "truncating":
            # Block 0 and, on one worker, block 1, which joined its tail.
            assert all(truncated for _, _, truncated in returned[:3 - n_workers])
            assert summary.truncated_count > 0

    def test_edge_cases_reach_their_situations(self, monkeypatch):
        # One worker, so each block after the first joins the tail of the
        # one before it.
        real_block, real_variates = simulate_block, _variates
        offset = _seed_offset(13)
        seen, calls = [], []

        def block(*args, **kw):
            out = real_block(*args, **kw)
            seen.append((out["extension_period"].copy(), out["truncated"].copy()))
            return out

        def variates(add, keys, out):
            # The blocks drawing in this call, and block 0's last draw.
            spells, draws = _decoded(add, keys, offset)
            blocks = spells // np.uint64(DEFAULT_CHUNK)
            calls.append((set(blocks.tolist()), int(draws[blocks == 0].max(initial=0))))
            return real_variates(add, keys, out=out)

        monkeypatch.setattr(montecarlo, "simulate_block", block)
        monkeypatch.setattr(montecarlo, "_variates", variates)
        runs = {}
        for case in ("delta_zero", "delta_one", "pending_truncating"):
            truth, kwargs = self.CASES[case]
            policy = _policy(UNIT, BENCH, truth, ExtensionSpec(0.1, 25))
            simulate_many(policy, truth, BENCH, UNIT, self.N_SPELLS, 13, **kwargs)
            runs[case], seen[:], calls[:] = (seen[:], calls[:]), [], []
        assert all((period == -1).all() for period, _ in runs["delta_zero"][0])
        assert all((period == 1).all() for period, _ in runs["delta_one"][0])
        # Block 0 truncates pending spells, whose last offer in period 40
        # is draw 79, in a call that block 1 draws in too.
        (period, truncated), _, _ = runs["pending_truncating"][0]
        assert (truncated & (period == -1)).any()
        assert ({0, 1}, 79) in runs["pending_truncating"][1]

    @pytest.mark.parametrize("foreign", ["seed", "policy"])
    def test_a_foreign_block_between_two_of_a_share(self, monkeypatch, foreign):
        # The share's second block is in flight when a block of another
        # job, with the same spells, is asked of the workspace: it is
        # refused before any work, and the share's block then returns
        # the records it has alone.
        other = (_policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.9, 25))
                 if foreign == "policy" else self.POLICY)
        seed = 14 if foreign == "seed" else 13
        first, second = (0, DEFAULT_CHUNK), (DEFAULT_CHUNK, DEFAULT_CHUNK)
        workspace = montecarlo._Workspace([first, second])
        for start, count in (first, second):
            block = simulate_block(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 13, start, count,
                                   workspace=workspace)
            lone = simulate_block(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 13, start, count)
            for key, a in block.items():
                assert a.tobytes() == lone[key].tobytes(), (start, key)
            if start == 0:
                with monkeypatch.context() as patched, pytest.raises(
                        ValueError, match="not the next block of this workspace's job"):
                    forbid_kernel_work(patched)
                    simulate_block(other, BENCH_TRUTH, BENCH, UNIT, seed, *second,
                                   workspace=workspace)

    def test_overlap_saves_variates_calls(self, monkeypatch):
        # TestGolden's three-block job on one worker, against its blocks
        # run alone: a kernel that lost the overlap would make as many.
        calls = []
        real = _variates

        def variates(add, keys, out):
            calls.append(len(keys))
            return real(add, keys, out=out)

        monkeypatch.setattr(montecarlo, "_variates", variates)
        summary = simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024)
        shared = len(calls)
        del calls[:]
        for start in range(0, 140_000, DEFAULT_CHUNK):
            simulate_block(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 2024, start,
                           min(DEFAULT_CHUNK, 140_000 - start))
        assert summary_bits(summary) == TestGolden.SUMMARY
        assert (shared, len(calls)) == (174, 246)

    def test_workspace_bytes_within_budget(self, monkeypatch):
        # A lone block's workspace is 9 words and a mask byte a spell,
        # about 4.8 MB at DEFAULT_CHUNK; a share's second record slot and
        # headroom add less than 3 MiB.
        made = []
        real = montecarlo._Workspace

        class Recorded(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(montecarlo, "_Workspace", Recorded)
        simulate_block(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 2024, 0, DEFAULT_CHUNK)
        simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024)
        lone, share = (workspace_bytes(ws) for ws in made)
        assert 73 * DEFAULT_CHUNK <= lone < 73 * DEFAULT_CHUNK + 4096
        assert share < 73 * DEFAULT_CHUNK + 3 * 2 ** 20

    def test_no_workspace_outlives_its_call(self, monkeypatch):
        # With the cyclic collector off, a workspace and the generator
        # running its share must not keep each other alive: such a cycle
        # kept 7.3 MB until a collection, and each call faulted its
        # workspace in afresh.
        made = []
        real = montecarlo._Workspace

        class Recorded(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(montecarlo, "_Workspace", Recorded)
        enabled = gc.isenabled()
        gc.disable()
        try:
            simulate_many(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 140_000, 2024)
            block = simulate_block(self.POLICY, BENCH_TRUTH, BENCH, UNIT, 2024, 0, 1000)
            assert len(made) == 2 and block["duration"].size == 1000
            assert [ref() for ref in made] == [None, None]
        finally:
            if enabled:
                gc.enable()
