import copy
import hashlib
import math
import pickle

import numpy as np
import pytest

from uisearch import (DivergenceError, ExtensionSpec, MarketParams,
                      UniformOffers, build_policy, default_calibration,
                      evaluate_policy, expected_welfare_at_offer, simulate_many,
                      solve_schedules, solve_w0_basic, sweep_beliefs, welfare_loss)
from uisearch import schedule as schedule_module
from uisearch.evaluate import PolicyProfile, build_policies, post_chains
from uisearch.schedule import FloatArray, build_basic_schedule, upsilon

from conftest import random_belief, random_valid_params


NO_EXTENSION = ExtensionSpec(delta=0.0, length=1)


class TestPostExtensionValues:
    def test_continuation_value(self, uniform, fig3_params):
        basic = solve_schedules(uniform, fig3_params, NO_EXTENSION).basic
        assert basic[0] / (1 - fig3_params.beta) == pytest.approx(16.0, abs=1e-7)

    def test_offer_node_value(self, uniform, fig3_params):
        basic = solve_schedules(uniform, fig3_params, NO_EXTENSION).basic
        assert upsilon(uniform, basic[0]) / (1 - fig3_params.beta) == pytest.approx(
            16.4, abs=1e-7)

    def test_myopic_limit(self, uniform):
        p = MarketParams(beta=1e-9, z=0.3, c=0.1, n_periods=1)
        basic = solve_schedules(uniform, p, NO_EXTENSION).basic
        assert basic[0] / (1 - p.beta) == pytest.approx(0.3, abs=1e-6)


class TestBellmanConsistency:
    def test_true_belief_recovers_optimal_value(self, uniform, benchmark_params,
                                                benchmark_truth):
        schedule = solve_schedules(uniform, benchmark_params, benchmark_truth)
        policy = build_policy(uniform, benchmark_params, benchmark_truth)
        result = evaluate_policy(policy, benchmark_truth, benchmark_params, uniform)
        optimal = schedule.with_extension[-1] / (1 - benchmark_params.beta)
        assert result.welfare == pytest.approx(optimal, abs=1e-9)

    def test_no_extension_offer_values_match_closed_form(self, uniform,
                                                         benchmark_params):
        belief = ExtensionSpec(delta=0.0, length=1)
        policy = build_policy(uniform, benchmark_params, belief)
        result = evaluate_policy(policy, belief, benchmark_params, uniform)
        for n in range(benchmark_params.n_periods + 1):
            expected = expected_welfare_at_offer(benchmark_params.beta,
                                                 policy.pre_thresholds[n])
            assert result.offer_values[n] == pytest.approx(expected, abs=1e-9)


class TestOptimalityOfTruth:
    def test_loss_nonnegative_and_zero_only_at_truth(self, uniform, benchmark_params,
                                                     benchmark_truth):
        for delta_b in (0.3, 0.4, 0.5, 0.6, 0.7):
            for length_b in (15, 20, 25, 30, 35):
                belief = ExtensionSpec(delta=delta_b, length=length_b)
                loss = welfare_loss(belief, benchmark_truth, benchmark_params,
                                    uniform)
                assert loss >= -1e-10
                if belief == benchmark_truth:
                    assert abs(loss) < 1e-8
                else:
                    assert loss > 1e-8


class TestDurationAndWage:
    def test_geometric_duration_identity(self, uniform):
        # no compensation, no extension: constant threshold, geometric count
        p = MarketParams(beta=0.95, z=0.42, c=0.0, n_periods=4)
        truth = ExtensionSpec(delta=0.0, length=1)
        policy = build_policy(uniform, p, truth)
        result = evaluate_policy(policy, truth, p, uniform)
        threshold = solve_w0_basic(uniform, p, flow=p.z)
        assert result.duration == pytest.approx(1 / (1 - threshold), abs=1e-10)

    def test_direction_of_errors(self, uniform, benchmark_params, benchmark_truth):
        optimal = build_policy(uniform, benchmark_params, benchmark_truth)
        base = evaluate_policy(optimal, benchmark_truth, benchmark_params, uniform)
        pessimist = build_policy(uniform, benchmark_params,
                                 ExtensionSpec(delta=0.1, length=25))
        optimist = build_policy(uniform, benchmark_params,
                                ExtensionSpec(delta=0.9, length=25))
        low = evaluate_policy(pessimist, benchmark_truth, benchmark_params, uniform)
        high = evaluate_policy(optimist, benchmark_truth, benchmark_params, uniform)
        assert low.duration < base.duration < high.duration
        assert low.accepted_wage < base.accepted_wage < high.accepted_wage

    def test_duration_at_least_one_and_wage_in_support(self, uniform,
                                                       benchmark_params,
                                                       benchmark_truth):
        policy = build_policy(uniform, benchmark_params,
                              ExtensionSpec(delta=0.2, length=10),
                              true_length=benchmark_truth.length)
        result = evaluate_policy(policy, benchmark_truth, benchmark_params, uniform)
        assert result.duration >= 1.0
        assert 0.0 <= result.accepted_wage <= 1.0


class TestWelfareLoss:
    def test_zero_at_truth(self, uniform, benchmark_params, benchmark_truth):
        assert abs(welfare_loss(benchmark_truth, benchmark_truth,
                                benchmark_params, uniform)) < 1e-10

    def test_pessimism_costs_more_than_optimism(self, uniform, benchmark_params,
                                                benchmark_truth):
        low = welfare_loss(ExtensionSpec(0.1, 25), benchmark_truth,
                           benchmark_params, uniform)
        high = welfare_loss(ExtensionSpec(0.9, 25), benchmark_truth,
                            benchmark_params, uniform)
        assert low > high > 0.0

    def test_length_misperception_zero_at_truth(self, uniform, benchmark_params,
                                                benchmark_truth):
        for length_b in (5, 25, 45):
            loss = welfare_loss(ExtensionSpec(0.5, length_b), benchmark_truth,
                                benchmark_params, uniform)
            if length_b == 25:
                assert abs(loss) < 1e-10
            else:
                assert loss > 0.0


class TestValidation:
    def test_divergence_when_state_zero_never_accepts(self, uniform):
        p = MarketParams(beta=0.95, z=0.42, c=0.42, n_periods=2)
        policy = PolicyProfile(pre_thresholds=np.full(3, 1.0),
                               post_thresholds=np.full(30, 1.0))
        with pytest.raises(DivergenceError):
            evaluate_policy(policy, ExtensionSpec(delta=0.0, length=1), p, uniform)


class TestMonteCarloAgreement:
    def test_exact_within_mc_error_bars(self, uniform, benchmark_params,
                                        benchmark_truth):
        belief = ExtensionSpec(delta=0.3, length=25)
        policy = build_policy(uniform, benchmark_params, belief,
                              true_length=benchmark_truth.length)
        exact = evaluate_policy(policy, benchmark_truth, benchmark_params, uniform)
        summary = simulate_many(policy, benchmark_truth, benchmark_params, uniform,
                                n_spells=100_000, master_seed=99)
        assert abs(summary.welfare_mean - exact.welfare) < 3 * summary.welfare_stderr
        assert abs(summary.duration_mean - exact.duration) < 3 * summary.duration_stderr
        assert abs(summary.wage_mean - exact.accepted_wage) < 3 * summary.wage_stderr


def _bits(ev):
    return (ev.welfare.hex(), ev.duration.hex(), ev.accepted_wage.hex(),
            hashlib.sha256(ev.offer_values.tobytes()).hexdigest()[:16])


@pytest.fixture
def priced(monkeypatch):
    """Thresholds the uniform distribution prices, in order: the first
    argument of each ``partial_expectation`` call."""
    seen = []
    tail = UniformOffers.partial_expectation

    def counting(dist, a, b):
        seen.append(float(a))
        return tail(dist, a, b)

    monkeypatch.setattr(UniformOffers, "partial_expectation", counting)
    return seen


class TestPostChainReuse:
    """The belief-free post-extension chains give the same bits whether
    the call computes them or reuses chains it is handed."""

    # float.hex of welfare, duration and accepted wage, and a digest of
    # offer_values, recorded when every call computed its own chains.
    BITS = {
        ExtensionSpec(0.1, 25): ("0x1.1fe401ba2579ep+4", "0x1.31875c78c7144p+3",
                                 "0x1.e4d66d5063f27p-1", "9dda6171856846fa"),
        ExtensionSpec(0.9, 40): ("0x1.1fe659e51f158p+4", "0x1.33d4dbd95e60ep+3",
                                 "0x1.e509dc2aaa648p-1", "1a69f9f6719de159"),
    }

    @pytest.fixture
    def setting(self, uniform, benchmark_params, benchmark_truth):
        policy = build_policy(uniform, benchmark_params, ExtensionSpec(0.1, 25),
                              true_length=benchmark_truth.length)
        return policy, benchmark_truth, benchmark_params, uniform

    def test_alternating_post_arrays_keep_recorded_values(
            self, uniform, benchmark_params, benchmark_truth, priced):
        built = {belief: build_policy(uniform, benchmark_params, belief,
                                      true_length=benchmark_truth.length)
                 for belief in self.BITS}
        # the same thresholds, without the prices build_policy carries
        bare = {belief: PolicyProfile(pre_thresholds=policy.pre_thresholds,
                                      post_thresholds=policy.post_thresholds)
                for belief, policy in built.items()}
        before = len(priced)
        for _ in range(3):
            for belief in self.BITS:
                for policy in (built[belief], bare[belief]):
                    ev = evaluate_policy(policy, benchmark_truth, benchmark_params,
                                         uniform)
                    assert _bits(ev) == self.BITS[belief]
        # without chains every bare call prices its own chain and its 11
        # pre-extension thresholds, and a built policy brings its prices
        assert len(priced) - before == 3 * ((35 + 11) + (50 + 11))

    def test_passed_chains_keep_recorded_values(
            self, uniform, benchmark_params, benchmark_truth, priced):
        for belief, bits in self.BITS.items():
            policy = build_policy(uniform, benchmark_params, belief,
                                  true_length=benchmark_truth.length)
            before = len(priced)
            chains = post_chains(policy.post_thresholds, benchmark_params.beta, uniform)
            assert priced[before:] == list(policy.post_thresholds)
            before = len(priced)
            ev = evaluate_policy(policy, benchmark_truth, benchmark_params, uniform,
                                 chains=chains)
            assert _bits(ev) == bits
            assert len(priced) == before

    def test_prices_from_another_distribution_are_not_used(
            self, uniform, benchmark_params, benchmark_truth, priced):
        # A policy's thresholds carry their prices under the distribution
        # that built them; under another one, every threshold is priced.
        policy = build_policy(uniform, benchmark_params, ExtensionSpec(0.1, 25),
                              true_length=benchmark_truth.length)
        bare = PolicyProfile(pre_thresholds=policy.pre_thresholds,
                             post_thresholds=policy.post_thresholds)
        wider = UniformOffers(0.0, 1.5)
        before = len(priced)
        assert (_bits(evaluate_policy(policy, benchmark_truth, benchmark_params, wider))
                == _bits(evaluate_policy(bare, benchmark_truth, benchmark_params, wider)))
        assert len(priced) - before == 2 * (35 + 11)

    def test_out_of_support_post_threshold_raises(self, setting):
        policy, truth, params, uniform = setting
        for value in (1.2, math.nan):
            post = policy.post_thresholds.copy()
            post[5] = value
            bad = PolicyProfile(pre_thresholds=policy.pre_thresholds, post_thresholds=post)
            evaluate_policy(*setting)
            for _ in range(2):
                with pytest.raises(ValueError,
                                   match=rf"cdf argument {value} outside support \[0.0, 1.0\]"):
                    evaluate_policy(bad, truth, params, uniform)

    @pytest.mark.parametrize("index", [0, -1])
    def test_nan_pre_threshold_raises(self, setting, index):
        policy, truth, params, uniform = setting
        pre = policy.pre_thresholds.copy()
        pre[index] = math.nan
        bad = PolicyProfile(pre_thresholds=pre, post_thresholds=policy.post_thresholds)
        with pytest.raises(ValueError, match=r"cdf argument nan outside support \[0.0, 1.0\]"):
            evaluate_policy(bad, truth, params, uniform)


class TestSharedSchedules:
    """Results store the builders' tuples as they are: the policies of one
    comparison share one basic tuple, and nothing copies it."""

    def test_policies_share_the_builders_basic_tuple(
            self, monkeypatch, uniform, benchmark_params, benchmark_truth):
        built = []

        def recording(*args):
            built.append(build_basic_schedule(*args))
            return built[-1]

        monkeypatch.setattr("uisearch.evaluate.build_basic_schedule", recording)
        beliefs = [benchmark_truth, ExtensionSpec(0.1, 25), ExtensionSpec(0.9, 40)]
        policies = build_policies(uniform, benchmark_params, beliefs,
                                  benchmark_truth.length)
        assert len(built) == 1 and type(built[0]) is schedule_module._Priced
        assert all(policy._post_thresholds is built[0] for policy in policies)

    def test_a_delta_sweep_copies_no_schedule(self, monkeypatch):
        copied = []
        store = FloatArray.__set__

        def recording(field, obj, values):
            store(field, obj, values)
            if obj.__dict__[field.floats] is not values:
                copied.append(field.floats)

        monkeypatch.setattr(FloatArray, "__set__", recording)
        rows = sweep_beliefs(default_calibration(), vary="delta")
        # only each evaluation's offer values, built as a list, are copied
        assert copied == ["_offer_values"] * (len(rows) + 1)

    @pytest.mark.parametrize("copy_of", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                         copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_evaluate_to_the_same_bits(
            self, uniform, benchmark_params, benchmark_truth, copy_of):
        belief = ExtensionSpec(0.1, 25)
        policy = build_policy(uniform, benchmark_params, belief,
                              true_length=benchmark_truth.length)
        schedule = solve_schedules(uniform, benchmark_params, belief,
                                   horizon=len(policy.post_thresholds) - 1)

        def bits(policy, schedule, dist):
            from_schedule = PolicyProfile(schedule._with_extension, schedule._basic)
            return [_bits(evaluate_policy(p, benchmark_truth, benchmark_params, dist))
                    for p in (policy, from_schedule)]

        expected = bits(policy, schedule, uniform)
        # copied together with their distribution, the thresholds keep their prices
        copies = copy_of((policy, schedule, uniform))
        assert bits(*copies) == expected
        assert bits(*copies[:2], uniform) == expected
        assert copies[1].basic.tobytes() == schedule.basic.tobytes()
        assert copies[1].with_extension.tobytes() == schedule.with_extension.tobytes()


def markov_chain_oracle(policy, truth, params, low, high):
    """Welfare, duration, accepted wage and pre-extension offer values of
    ``policy`` under ``truth`` with uniform offers on [low, high], by
    policy evaluation on a Markov chain (Puterman 1994, section 6.1).

    Nodes are offer nodes ``(settled, m)``: the extension question is
    settled or not, and ``m`` is the entitlement the offer is compared
    at. Rejecting (probability F(threshold)) leads to the flow node with
    entitlement ``m``, which pays its flow; the next offer then arrives
    at ``max(m - 1, 0)``, or, while the extension is pending and is
    granted (probability delta), at ``max(m - 1, 0) + length`` settled.
    The CDF and the tail ``int_t^high w dF(w)`` are this function's own.
    """
    beta, z, c, top_pre = params.beta, params.z, params.c, params.n_periods
    delta, length = truth.delta, truth.length
    nodes = ([(False, m) for m in range(top_pre + 1)]
             + [(True, m) for m in range(max(top_pre - 1, 0) + length + 1)])
    index = {node: i for i, node in enumerate(nodes)}

    # after_flow[i, j]: probability that the flow node of node i leads
    # to offer node j
    after_flow = np.zeros((len(nodes), len(nodes)))
    for i, (settled, m) in enumerate(nodes):
        down = max(m - 1, 0)
        if settled:
            after_flow[i, index[(True, down)]] += 1.0
        else:
            after_flow[i, index[(True, down + length)]] += delta
            after_flow[i, index[(False, down)]] += 1.0 - delta

    thresholds = np.array([(policy.post_thresholds if settled
                            else policy.pre_thresholds)[m] for settled, m in nodes])
    clamped = np.clip(thresholds, low, high)
    reject = (clamped - low) / (high - low)
    tail = (high * high - clamped * clamped) / (2.0 * (high - low))
    flow = np.array([z + (c if m > 0 else 0.0) for _, m in nodes])

    P = reject[:, None] * after_flow
    eye = np.eye(len(nodes))
    values = np.linalg.solve(eye - beta * P, tail / (1.0 - beta) + reject * flow)
    durations = np.linalg.solve(eye - P, np.ones(len(nodes)))
    wages = np.linalg.solve(eye - P, tail)

    start = after_flow[index[(False, top_pre)]]
    welfare = z + (c if top_pre > 0 else 0.0) + beta * start @ values
    return welfare, start @ durations, start @ wages, values[:top_pre + 1]


def _oracle_cases():
    """Random environments with belief != truth, on two supports, with the
    true delta drawn, 0 or 1, and two with no initial entitlement."""
    rng = np.random.default_rng(2023)
    cases = []
    for k in range(12):
        unit = random_valid_params(rng)
        low, high = (0.0, 1.0) if k % 2 == 0 else (0.2, 1.7)
        scale = high - low
        params = MarketParams(beta=unit.beta, z=low + scale * unit.z,
                              c=scale * unit.c,
                              n_periods=0 if k in (3, 10) else unit.n_periods)
        truth = random_belief(rng)
        if k % 3:
            truth = ExtensionSpec(delta=float(k % 3 - 1), length=truth.length)
        belief = random_belief(rng)
        cases.append((params, low, high, truth, belief))
    return cases


class TestMarkovChainOracle:
    """The evaluator's recursions against a linear solve over the whole
    offer-node chain.

    Tolerances, fixed before the first run: duration and accepted wage
    are exact for the given thresholds in both methods, so they agree to
    1e-10 relative. Welfare and offer values agree to 1e-9 relative: the
    evaluator prices the settled side by its Bellman value
    ``upsilon(post[m]) / (1 - beta)``, exact only at the fixed point the
    solver reaches within ``1e-12 * beta / (1 - beta)``, which moves
    welfare by up to that over ``1 - beta`` (about 1.1e-10 relative at
    beta = 0.99).
    """

    @pytest.mark.parametrize("case", range(12))
    def test_matches_linear_solve(self, case):
        params, low, high, truth, belief = _oracle_cases()[case]
        assert belief != truth
        dist = UniformOffers(low, high)
        # the two model conditions parse_config enforces on a run
        assert low < (1 - params.beta) * params.z + params.beta * dist.mean
        assert params.z + params.c < high
        policy = build_policy(dist, params, belief, true_length=truth.length)
        ev = evaluate_policy(policy, truth, params, dist)
        welfare, duration, wage, offer_values = markov_chain_oracle(
            policy, truth, params, low, high)
        assert ev.welfare == pytest.approx(welfare, rel=1e-9, abs=0)
        assert ev.duration == pytest.approx(duration, rel=1e-10, abs=0)
        assert ev.accepted_wage == pytest.approx(wage, rel=1e-10, abs=0)
        np.testing.assert_allclose(ev.offer_values, offer_values, rtol=1e-9, atol=0)
