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
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from uisearch import (CounterStream, ExtensionSpec, MarketParams,
                      UniformOffers, build_policy, simulate_many,
                      simulate_spell, solve_w0_basic)
from uisearch import montecarlo
from uisearch.evaluate import PolicyProfile
from uisearch.montecarlo import (DEFAULT_CHUNK, _variate, _variates,
                                 simulate_block)

from conftest import summary_bits

BENCH = MarketParams(beta=0.95, z=0.4025, c=0.4025, n_periods=10)
BENCH_TRUTH = ExtensionSpec(delta=0.5, length=25)
UNIT = UniformOffers()
WIDE = UniformOffers(low=0.5, high=2.0)
WIDE_PARAMS = MarketParams(beta=0.9, z=0.6, c=0.6, n_periods=3)


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
        from uisearch.montecarlo import _seed_offset
        offset = _seed_offset(42)
        vec = _variates(offset, spells, draws)
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

    def test_seeds_at_the_ends_of_one_word_are_distinct(self):
        first = {CounterStream(seed, 0)._next() for seed in (0, 1, montecarlo.MAX_SEED)}
        assert len(first) == 3

    def test_draws_uniform_on_unit_interval(self):
        from uisearch.montecarlo import _seed_offset
        offset = _seed_offset(1234)
        n = 200_000
        u = _variates(offset, np.arange(n, dtype=np.uint64),
                      np.zeros(n, dtype=np.uint64))
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


class CountingUniform(UniformOffers):
    """Uniform offers that count ``quantile`` calls."""

    def quantile(self, u):
        object.__setattr__(self, "calls", getattr(self, "calls", 0) + 1)
        return super().quantile(u)


class TestStreamConsumption:
    """Each spell draws exactly its trials and offers, counters 0, 1, 2, ...

    One variate per pending extension trial (through the period of the
    extension) and one per offer, drawn through the positional
    ``_variates(offset, spells, draws)`` call, and one ``quantile`` call
    per simulated period.
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

        def counting(offset, spells, draws, out=None):
            sizes.append(len(spells))
            drawn.update(zip(spells.tolist(),
                             np.broadcast_to(draws, spells.shape).tolist()))
            return _variates(offset, spells, draws, out=out)

        monkeypatch.setattr(montecarlo, "_variates", counting)
        kwargs = {"master_seed": 5, "start": 0, "count": 400, **overrides}
        block = simulate_block(policy, truth, params, dist, **kwargs)
        duration = block["duration"]
        trials = np.where(block["extended"], block["extension_period"], duration)
        assert sum(sizes) == duration.sum() + trials.sum()
        assert max(drawn.values()) == 1
        for i, n in enumerate(duration + trials):
            spell = kwargs["start"] + i
            assert all((spell, j) in drawn for j in range(n))
        assert dist.calls == duration.max()

    def test_serial_blocks_go_through_module_seams(self, monkeypatch):
        # Three blocks inline: each is one call of the module-level
        # simulate_block with count at position 6, and every trial and
        # offer batch one positional _variates call. bench/layers.py
        # times both seams.
        n_spells = 2 * DEFAULT_CHUNK + 500
        policy = _policy(UNIT, BENCH, BENCH_TRUTH, ExtensionSpec(0.1, 25))
        blocks, sizes = [], []
        real_block, real_variates = simulate_block, _variates

        def block(*args, **kwargs):
            out = real_block(*args, **kwargs)
            trials = np.where(out["extended"], out["extension_period"], out["duration"])
            blocks.append((args[5], args[6], int(out["duration"].sum() + trials.sum())))
            return out

        def variates(offset, spells, draws, out=None):
            sizes.append(len(spells))
            return real_variates(offset, spells, draws, out=out)

        monkeypatch.setattr(montecarlo, "simulate_block", block)
        monkeypatch.setattr(montecarlo, "_variates", variates)
        simulate_many(policy, BENCH_TRUTH, BENCH, UNIT, n_spells, 13)
        assert [(start, count) for start, count, _ in blocks] == [
            (0, DEFAULT_CHUNK), (DEFAULT_CHUNK, DEFAULT_CHUNK), (2 * DEFAULT_CHUNK, 500)]
        assert sum(sizes) == sum(draws for _, _, draws in blocks)


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

    def test_one_workspace_serves_blocks_of_any_size(self):
        # A full block, then shorter ones, then a full one again: nothing
        # a block leaves in the workspace reaches the next one.
        workspace = montecarlo._Workspace(3000)
        for name in ("benchmark", "certain_wide", "truncating", "benchmark"):
            (params, dist, truth, belief), kwargs, expected = self.BLOCKS[name]
            block = simulate_block(_policy(dist, params, truth, belief), truth, params,
                                   dist, workspace=workspace, **kwargs)
            assert self._digests(block) == expected, name

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
    def test_worker_error_keeps_its_type(self, two_cpus, forks, deadline):
        short = PolicyProfile(pre_thresholds=self.POLICY.pre_thresholds,
                              post_thresholds=self.POLICY.post_thresholds[:3])
        raised = []
        for n_workers in (1, 2):
            with pytest.raises(Exception) as info:
                simulate_many(short, BENCH_TRUTH, BENCH, UNIT, DEFAULT_CHUNK + 1, 6,
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
