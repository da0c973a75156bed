"""Exact evaluation of a threshold policy under the true extension process.

The worker follows thresholds computed from a belief about extensions
while the actual extension draw follows the true process. Expected
discounted welfare, expected offers until acceptance, and the expected
accepted wage all satisfy linear one-step recursions over the
entitlement state, so they can be computed exactly instead of by brute
Monte Carlo, each in one upward pass over its thresholds that carries
the running value, duration and wage. The timing convention matches the
simulator: the spell starts at a flow node with full entitlement, and
the first offer arrives the following period.

Post-extension behaviour is belief-free, so ``evaluate_beliefs``
computes ``post_chains`` once and hands them to every evaluation; the
policies hold the tuples the schedule builders return, with their
prices, and share one basic tuple, so no threshold is priced twice.
"""

from dataclasses import dataclass

from .distributions import UniformOffers
from .errors import DivergenceError
from .params import ExtensionSpec, MarketParams
from .schedule import (FloatArray, _price_each, build_basic_schedule,
                       build_extension_schedule, check_cover, post_extension_state)


@dataclass(frozen=True, eq=False)
class PolicyProfile:
    """Acceptance thresholds the worker actually uses.

    ``pre_thresholds[n]`` applies while an extension is still possible
    (computed from the worker's belief); ``post_thresholds[n]`` applies
    once the extension question is settled. Post-extension behavior is
    belief-free, so ``post_thresholds`` is always the basic schedule.
    The thresholds are stored as tuples of floats, ``_pre_thresholds``
    and ``_post_thresholds``; the two attributes are read-only float64
    arrays built from them on first access (see ``FloatArray``).
    """

    pre_thresholds: FloatArray = FloatArray()
    post_thresholds: FloatArray = FloatArray()


def check_policy(policy: PolicyProfile, params: MarketParams, truth: ExtensionSpec):
    """Raise ValueError unless ``policy`` has a threshold for exactly the
    pre-extension states ``0..params.n_periods`` and post-extension ones
    up to every state an extension of ``truth.length`` leads to
    (``check_cover``). Every reader of a policy checks it here, the
    evaluator and the three simulators alike, before any work."""
    if len(policy._pre_thresholds) != params.n_periods + 1:
        raise ValueError(f"pre_thresholds must cover entitlements 0..{params.n_periods}, "
                         f"not 0..{len(policy._pre_thresholds) - 1}")
    check_cover("post_thresholds", policy._post_thresholds, params.n_periods, truth.length)


def build_policies(dist: UniformOffers, params: MarketParams, beliefs,
                   true_length) -> list[PolicyProfile]:
    """The policy of each of ``beliefs``: its pre-extension schedule, and
    one basic schedule they all share that reaches every state a true
    extension of ``true_length`` or a believed one can lead to."""
    lengths = [true_length, *(belief.length for belief in beliefs)]
    basic = build_basic_schedule(
        dist, params, post_extension_state(params.n_periods, max(lengths)))
    return [PolicyProfile(build_extension_schedule(dist, params, belief, basic), basic)
            for belief in beliefs]


def build_policy(dist: UniformOffers, params: MarketParams,
                 belief: ExtensionSpec, true_length=None) -> PolicyProfile:
    """The thresholds a worker holding ``belief`` would use: the one-belief
    case of ``build_policies``. ``true_length`` defaults to the believed
    length."""
    if true_length is None:
        true_length = belief.length
    return build_policies(dist, params, [belief], true_length)[0]


@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """Exact spell statistics for one (policy, true process) pair.

    ``welfare``, ``duration``, and ``accepted_wage`` are the ex-ante
    expectations at spell start (full entitlement); ``offer_values[n]``
    is the expected value at the pre-extension offer node with
    entitlement ``n``, the continuation value of the flow node at
    ``n + 1``. The offer values are stored as a tuple of floats,
    ``_offer_values``; the attribute is a read-only float64 array built
    from it on first access (see ``FloatArray``).
    """

    welfare: float
    duration: float
    accepted_wage: float
    offer_values: FloatArray = FloatArray()


def post_chains(post, beta, dist):
    """Option-value, duration and accepted-wage chains over the
    post-extension offer nodes ``0..len(post) - 1``.

    They depend on ``post``, ``beta`` and ``dist`` alone, not on the
    belief, so one set serves every policy that shares ``post``. Each
    option value is ``upsilon`` of its threshold, read from the price and
    scaled by ``1 / (1 - beta)``. The duration and wage chains come from
    one upward pass that carries the running duration and wage from
    state 0.
    """
    prices = _price_each(dist, post)
    g_post = [option / (1.0 - beta) for _, _, option in prices]
    duration = wage = 0.0
    accept0 = dist.sf(post[0])
    # At delta = 0 accept0 may be 0; the zeros then keep delta-weighted terms finite.
    if accept0 > 0.0:
        duration = 1.0 / accept0
        wage = prices[0][1] / accept0
    d_post, a_post = [duration], [wage]
    for reject, tail, _ in prices[1:]:
        duration = 1.0 + reject * duration
        wage = tail + reject * wage
        d_post.append(duration)
        a_post.append(wage)
    return g_post, d_post, a_post


def evaluate_policy(policy: PolicyProfile, truth: ExtensionSpec,
                    params: MarketParams, dist: UniformOffers, *,
                    chains=None) -> PolicyEvaluation:
    """Expected welfare, duration, and accepted wage under the true process.

    Takes the post-extension chains (their values are optimal Bellman
    quantities), then solves the pre-extension recursions in one upward
    pass from entitlement 0, whose equation is self-referencing and is
    solved in closed form as one linear equation. The pass carries the
    running value, duration and wage; offer value ``n`` is the
    continuation value it forms on the step to ``n + 1``, and the last
    one is formed after the pass. ``chains``, when given, must be
    ``post_chains(policy.post_thresholds, params.beta, dist)``, computed
    once by ``evaluate_beliefs`` for all the beliefs it compares;
    results are bit-identical without it, when the chains are computed
    here. Thresholds that are a builder's tuples, as in every policy from
    ``build_policies``, bring their prices under the distribution that
    built them; any others are priced here. Raises ``DivergenceError``
    when a state-0 acceptance probability is zero, or when the expected
    accepted wage comes out outside the support, and ``ValueError``,
    before any work, when ``check_policy`` refuses the policy's lengths,
    or when a threshold it prices lies outside the support, NaN included.
    """
    check_policy(policy, params, truth)
    beta, z, c = params.beta, params.z, params.c
    n_periods = params.n_periods
    delta, length = truth.delta, truth.length
    pre, post = policy._pre_thresholds, policy._post_thresholds

    # State-0 acceptance comes from the survival function, which keeps its
    # digits where 1 - cdf(x) cancels, and clamps where cdf refuses. It is
    # checked before any price, so a threshold above the support diverges
    # instead of failing its price in cdf.
    accept0_post = dist.sf(post[0])
    accept0_pre_stuck = delta + (1.0 - delta) * dist.sf(pre[0])
    if delta > 0.0 and accept0_post <= 0.0:
        raise DivergenceError("post-extension state 0 never accepts; duration diverges")
    if accept0_pre_stuck <= 0.0:
        raise DivergenceError("pre-extension state 0 never accepts; duration diverges")

    g_post, d_post, a_post = chains or post_chains(post, beta, dist)
    prices = _price_each(dist, pre)

    # Pre-extension flow-node recursions. At entitlement 0 the state
    # persists until extension or acceptance, so the equation contains
    # its own unknown and is solved linearly.
    f0, tail0, _ = prices[0]
    value = (z + beta * delta * g_post[length]
             + beta * (1.0 - delta) * tail0 / (1.0 - beta)) / (
                 1.0 - beta * (1.0 - delta) * f0)
    duration = (delta * d_post[length] + (1.0 - delta)) / accept0_pre_stuck
    wage = (delta * a_post[length] + (1.0 - delta) * tail0) / accept0_pre_stuck

    # The step to entitlement n + 1 prices threshold n, draws an extension
    # into post state n + length, and forms offer value n on the way.
    offer_values = []
    for (reject, tail, _), m in zip(prices, range(length, n_periods + length)):
        g_pre = reject * value + tail / (1.0 - beta)
        offer_values.append(g_pre)
        value = z + c + beta * (delta * g_post[m] + (1.0 - delta) * g_pre)
        duration = delta * d_post[m] + (1.0 - delta) * (1.0 + reject * duration)
        wage = delta * a_post[m] + (1.0 - delta) * (tail + reject * wage)
    reject, tail, _ = prices[n_periods]
    offer_values.append(reject * value + tail / (1.0 - beta))

    # The expected accepted wage averages offers inside the support. With
    # thresholds a few ulps below its top, the tails hi**2 - x**2 cancel,
    # and their rounding carries the quotients out.
    if not dist.low <= wage <= dist.high:
        raise DivergenceError(
            f"expected accepted wage {float(wage)!r} lies outside the offer "
            f"support [{dist.low!r}, {dist.high!r}]: acceptance "
            "probabilities too small to resolve in floating point")

    return PolicyEvaluation(welfare=value, duration=duration, accepted_wage=wage,
                            offer_values=offer_values)


def evaluate_beliefs(beliefs, truth: ExtensionSpec, params: MarketParams,
                     dist: UniformOffers) -> list[PolicyEvaluation]:
    """``evaluate_policy`` of each belief's policy under ``truth``, in
    order; the policies share one basic schedule and so one set of
    post-extension chains."""
    policies = build_policies(dist, params, beliefs, truth.length)
    chains = post_chains(policies[0]._post_thresholds, params.beta, dist)
    return [evaluate_policy(policy, truth, params, dist, chains=chains)
            for policy in policies]


def welfare_loss(belief: ExtensionSpec, truth: ExtensionSpec,
                 params: MarketParams, dist: UniformOffers) -> float:
    """Percent welfare lost to holding ``belief`` instead of the truth.

    The true-belief policy is optimal under the true process, so the loss
    is nonnegative up to rounding and zero when belief equals truth."""
    held, optimal = evaluate_beliefs([belief, truth], truth, params, dist)
    return loss_pct(optimal.welfare, held.welfare)


def loss_pct(j_truth, j) -> float:
    """Percent of the optimal welfare ``j_truth`` lost when achieving ``j``."""
    return 100.0 * (j_truth - j) / j_truth
