import itertools
import math

import numpy as np
import pytest

from uisearch import (CounterStream, ExtensionSpec, MarketParams,
                      PolicyProfile, build_policy, simulate_block,
                      simulate_many, simulate_spell, solve_w0_basic)
from uisearch.montecarlo import _variate, _variates


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

    def test_draws_uniform_on_unit_interval(self):
        from uisearch.montecarlo import _seed_offset
        offset = _seed_offset(1234)
        n = 200_000
        u = _variates(offset, np.arange(n, dtype=np.uint64),
                      np.zeros(n, dtype=np.uint64))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 4 * math.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 4 * math.sqrt(1 / 180 / n)


class TestBlockEquivalence:
    def test_block_matches_scalar_loop(self, uniform, benchmark_params,
                                       benchmark_truth):
        policy = build_policy(uniform, benchmark_params,
                              ExtensionSpec(delta=0.1, length=25),
                              true_length=benchmark_truth.length)
        count = 300
        block = simulate_block(policy, benchmark_truth, benchmark_params,
                               uniform, master_seed=77, start=0, count=count)
        for i in range(count):
            rec = simulate_spell(policy, benchmark_truth, benchmark_params,
                                 uniform, CounterStream(77, i))
            assert rec.duration == block["duration"][i]
            assert rec.welfare == block["welfare"][i]
            assert rec.extended == block["extended"][i]
            if rec.accepted_wage is None:
                assert np.isnan(block["accepted_wage"][i])
            else:
                assert rec.accepted_wage == block["accepted_wage"][i]

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
    def test_identical_across_workers_and_chunks(self, uniform, benchmark_params,
                                                 benchmark_truth):
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        one = simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                            50_000, 11, n_workers=1)
        eight = simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                              50_000, 11, n_workers=8)
        odd = simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                            50_000, 11, n_workers=3, chunk_size=7_001)
        assert one == eight == odd

    def test_geometric_duration_no_benefits(self, uniform):
        p = MarketParams(beta=0.95, z=0.42, c=0.0, n_periods=0)
        truth = ExtensionSpec(delta=0.0, length=1)
        policy = build_policy(uniform, p, truth)
        summary = simulate_many(policy, truth, p, uniform, 100_000, 21)
        expected = 1 / (1 - solve_w0_basic(uniform, p, flow=p.z))
        assert abs(summary.duration_mean - expected) < 3 * summary.duration_stderr

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
