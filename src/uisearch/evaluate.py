"""Exact evaluation of a threshold policy under the true extension process.

The worker follows thresholds computed from a belief about extensions
while the actual extension draw follows the true process. Expected
discounted welfare, expected offers until acceptance, and the expected
accepted wage all satisfy linear one-step recursions over the
entitlement state, so they can be computed exactly instead of by brute
Monte Carlo. The timing convention matches the simulator: the spell
starts at a flow node with full entitlement, and the first offer
arrives the following period.

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
                       build_extension_schedule, post_extension_state)


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
    entitlement ``n``. The offer values are stored as a tuple of floats,
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
    belief, so one set serves every policy that shares ``post``.
    """
    prices = _price_each(dist, post)
    g_post = [(x * reject + tail) / (1.0 - beta)
              for x, (reject, tail) in zip(post, prices)]
    d_post, a_post = [0.0] * len(post), [0.0] * len(post)
    accept0 = dist.sf(post[0])
    # At delta = 0 accept0 may be 0; the zeros then keep delta-weighted terms finite.
    if accept0 > 0.0:
        d_post[0] = 1.0 / accept0
        a_post[0] = prices[0][1] / accept0
    for m in range(1, len(post)):
        reject, tail = prices[m]
        d_post[m] = 1.0 + reject * d_post[m - 1]
        a_post[m] = tail + reject * a_post[m - 1]
    return g_post, d_post, a_post


def evaluate_policy(policy: PolicyProfile, truth: ExtensionSpec,
                    params: MarketParams, dist: UniformOffers, *,
                    chains=None) -> PolicyEvaluation:
    """Expected welfare, duration, and accepted wage under the true process.

    Takes the post-extension chains (their values are optimal Bellman
    quantities), then solves the pre-extension recursions upward from
    entitlement 0, whose equation is self-referencing and is solved in
    closed form as one linear equation. ``chains``, when given, must be
    ``post_chains(policy.post_thresholds, params.beta, dist)``, computed
    once by ``evaluate_beliefs`` for all the beliefs it compares;
    results are bit-identical without it, when the chains are computed
    here. Thresholds that are a builder's tuples, as in every policy from
    ``build_policies``, bring their prices under the distribution that
    built them; any others are priced here. Raises ``DivergenceError``
    when a state-0 acceptance probability is zero, or when the expected
    accepted wage comes out outside the support, and ``ValueError`` when
    a threshold it prices lies outside the support, NaN included.
    """
    beta, z, c = params.beta, params.z, params.c
    n_periods = params.n_periods
    delta, length = truth.delta, truth.length
    pre = policy._pre_thresholds
    post = policy._post_thresholds

    if len(pre) != n_periods + 1:
        raise ValueError("pre_thresholds must cover entitlements 0..n_periods")
    top_post = post_extension_state(n_periods, length)
    if len(post) <= top_post:
        raise ValueError(
            f"post_thresholds cover 0..{len(post) - 1} but index {top_post} is needed"
        )

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
    values, durations, wages = ([0.0] * (n_periods + 1) for _ in range(3))

    f0, tail0 = prices[0]
    values[0] = (z + beta * delta * g_post[length]
                 + beta * (1.0 - delta) * tail0 / (1.0 - beta)) / (
                     1.0 - beta * (1.0 - delta) * f0)
    durations[0] = (delta * d_post[length] + (1.0 - delta)) / accept0_pre_stuck
    wages[0] = (delta * a_post[length] + (1.0 - delta) * tail0) / accept0_pre_stuck

    for n in range(1, n_periods + 1):
        k = n - 1
        m = post_extension_state(n, length)
        reject, tail = prices[k]
        g_pre = reject * values[k] + tail / (1.0 - beta)
        values[n] = z + c + beta * (delta * g_post[m] + (1.0 - delta) * g_pre)
        durations[n] = delta * d_post[m] + (1.0 - delta) * (1.0 + reject * durations[k])
        wages[n] = delta * a_post[m] + (1.0 - delta) * (tail + reject * wages[k])

    # The expected accepted wage averages offers inside the support. With
    # thresholds a few ulps below its top, the tails hi**2 - x**2 cancel,
    # and their rounding carries the quotients out.
    accepted_wage = wages[n_periods]
    if not dist.low <= accepted_wage <= dist.high:
        raise DivergenceError(
            f"expected accepted wage {float(accepted_wage)!r} lies outside the offer "
            f"support [{dist.low!r}, {dist.high!r}]: acceptance "
            "probabilities too small to resolve in floating point")

    return PolicyEvaluation(
        welfare=values[n_periods],
        duration=durations[n_periods],
        accepted_wage=accepted_wage,
        offer_values=[reject * value + tail / (1.0 - beta)
                      for (reject, tail), value in zip(prices, values)],
    )


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
