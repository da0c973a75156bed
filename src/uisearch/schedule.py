"""Reservation-wage schedules for job search with expiring benefits.

Two regimes are solved. After an extension has occurred (or when none is
possible) the worker faces plain expiring benefits, and the reservation
wage with zero entitlement is the root of
``g(x) = z * (1 - beta) + beta * upsilon(x) - x``. Before an extension,
each period carries a perceived chance ``delta`` of gaining ``length``
extra periods, and the zero-entitlement wage is the root of the same
kind of function with slope ``beta * (1 - delta)`` on ``upsilon``. Each
``g`` is convex and decreasing, so Newton's method from the bottom of
the support climbs to its root without overshooting, and it stops at
the first step that does not rise: in exact arithmetic every step
below the root rises, so such a step is rounding. The stop needs no
tolerance, so it has no scale to get wrong on a narrow or a wide
support. Each step prices its iterate once. Both schedules then build
upward by a one-step recursion on the option-value kernel, pricing each
wage once; the tuples they return carry the prices to the evaluator,
and results store them as they are. ``_price`` is the one place a
threshold is priced, and ``_price_each`` the one way to the prices of a
schedule.

In exact arithmetic every wage stays below the top of the wage support
when ``z + c`` does. With ``z + c`` a few ulps below the top, rounding
can carry a step past it, so each step is capped at the top.
"""

from dataclasses import dataclass

from .distributions import UniformOffers
from .errors import NonConvergenceError
from .params import ExtensionSpec, MarketParams

# Newton steps per fixed point before NonConvergenceError. The most
# measured is 35, on random supports 1e-8 to 1e8 wide with beta up to
# 1 - 2**-53 and flows up to an ulp below the top, so only a defect
# reaches this cap.
_MAX_STEPS = 100


def _price(dist, x):
    """``(F(x), int_x^w_high w dF(w))``, the rejection probability and the
    acceptance tail of threshold ``x``. ``x`` must lie inside the support:
    ``dist.cdf`` raises ValueError for any other ``x``, NaN included."""
    return dist.cdf(x), dist.partial_expectation(x, dist.high)


def upsilon(dist: UniformOffers, x) -> float:
    """Expected value of max(x, w) under the offer distribution.

    This is the option-value kernel of every recursion:
    ``x * F(x) + int_x^w_high w dF(w)``. It is nondecreasing in x and
    bounded above by the top of the wage support. ``x`` must lie inside
    the support.
    """
    reject, tail = _price(dist, x)
    return x * reject + tail


class _Priced(tuple):
    """Wages a builder climbed, as floats, each with its ``_price`` under
    ``dist`` in ``prices``. A tuple, so no wage changes after it is priced."""


def _climb(dist, w0, slope, terms):
    """Wages up from ``w0`` by ``w[n] = min(terms[n - 1] + slope * upsilon(w[n - 1]),
    top)``, each priced once."""
    wages, prices = [w0], [_price(dist, w0)]
    for term in terms:
        reject, tail = prices[-1]
        wages.append(min(term + slope * (wages[-1] * reject + tail), dist.high))
        prices.append(_price(dist, wages[-1]))
    climbed = _Priced(map(float, wages))
    climbed.dist, climbed.prices = dist, prices
    return climbed


def _price_each(dist, wages):
    """The ``_price`` of each of ``wages``: the prices a builder attached,
    if it climbed them under ``dist``, and otherwise priced here."""
    if getattr(wages, "dist", None) is dist:
        return wages.prices
    return [_price(dist, x) for x in wages]


def check_solvable(dist, beta, flow):
    """Raise ValueError unless the zero-entitlement fixed point is interior."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1) to solve a fixed point")
    if not flow < dist.high:
        raise ValueError("flow income must lie below the top of the wage support")
    if not dist.low < (1.0 - beta) * flow + beta * dist.mean:
        raise ValueError("offer distribution violates the interiority condition")


def post_extension_state(n, length):
    """Post-extension entitlement reached by an extension drawn at entitlement n.

    The period's entitlement is used up first, so an extension at zero
    entitlement restores the full ``length``.
    """
    return max(n - 1, 0) + length


def _fixed_point(dist, base, slope, label):
    """Root of ``g(x) = base + slope * upsilon(x) - x`` by Newton's method
    from the bottom of the support.

    ``g`` is convex with derivative ``slope * F(x) - 1 <= slope - 1 < 0``,
    so each step ``x + g(x) / (1 - slope * F(x))`` lands at or below the
    root and the iterates rise to it. Each step takes ``F(x)`` and
    ``upsilon(x)`` from one ``_price`` of ``x``, with the float
    operations ``upsilon`` performs. Stops at the first step that does
    not rise and keeps the iterate before it: below the root every step
    rises in exact arithmetic, so that step is rounding. The loop ends
    because the iterates are floats that rise strictly and never pass
    the top of the support; quadratic convergence makes that a handful
    of steps on any support width, and ``_MAX_STEPS`` only catches a
    defect.
    """
    x, top = dist.low, dist.high
    for _ in range(_MAX_STEPS):
        reject, tail = _price(dist, x)
        nxt = min(x + (base + slope * (x * reject + tail) - x) / (1.0 - slope * reject), top)
        if not nxt > x:
            return x
        x = nxt
    raise NonConvergenceError(
        f"{label} fixed point did not converge in {_MAX_STEPS} Newton steps",
        residual=abs(base + slope * upsilon(dist, x) - x),
    )


def solve_w0_basic(dist: UniformOffers, params: MarketParams, flow) -> float:
    """Reservation wage with zero entitlement and no chance of extension.

    Newton's method on ``x = flow * (1 - beta) + beta * upsilon(x)``
    from the bottom of the support, until a step does not rise. On any
    support width that step is rounding at the root, so no tolerance is
    needed. ``flow`` is ``z`` for the
    expired-benefit state; passing ``z + c`` instead solves the
    indefinite-benefit fixed point used as a convergence diagnostic.

    Raises
    ------
    NonConvergenceError
        If the private step cap is reached before a step fails to rise.
        A solve of the benchmark configurations takes 5 to 9 steps, and
        no accepted configuration is known to reach the cap.
    """
    beta = params.beta
    check_solvable(dist, beta, flow)
    return _fixed_point(dist, flow * (1.0 - beta), beta, "basic")


def build_basic_schedule(dist: UniformOffers, params: MarketParams,
                         horizon) -> tuple[float, ...]:
    """Post-extension reservation wages for entitlements 0..horizon.

    Entry ``n`` solves
    ``w[n] = (z + c) * (1 - beta) + beta * upsilon(w[n - 1])``
    upward from the zero-entitlement fixed point.
    """
    base = (params.z + params.c) * (1.0 - params.beta)
    return _climb(dist, solve_w0_basic(dist, params, params.z), params.beta,
                  [base] * horizon)


def solve_w0_extension(dist: UniformOffers, params: MarketParams,
                       belief: ExtensionSpec, w_basic_at_length) -> float:
    """Zero-entitlement reservation wage when an extension is still possible.

    ``w_basic_at_length`` is the post-extension wage at entitlement equal
    to the believed extension length. Newton's method solves
    ``x = z * (1 - beta) + beta * delta * upsilon(w_basic_at_length)
    + beta * (1 - delta) * upsilon(x)``. Both ``delta = 0`` and
    ``delta = 1`` run through this same path (at 1 the equation is
    linear and the first step lands on its root).
    """
    beta, delta = params.beta, belief.delta
    check_solvable(dist, beta, params.z)
    base = params.z * (1.0 - beta) + beta * delta * upsilon(dist, w_basic_at_length)
    return _fixed_point(dist, base, beta * (1.0 - delta), "extension")


def build_extension_schedule(dist: UniformOffers, params: MarketParams,
                             belief: ExtensionSpec, basic) -> tuple[float, ...]:
    """Pre-extension reservation wages for entitlements 0..n_periods.

    Entry ``n`` solves
    ``w[n] = (z + c) * (1 - beta)
    + beta * delta * upsilon(basic[n - 1 + length])
    + beta * (1 - delta) * upsilon(w[n - 1])``,
    so ``basic`` must cover index ``n_periods - 1 + length``.
    """
    n_periods, length = params.n_periods, belief.length
    needed = post_extension_state(n_periods, length)
    if len(basic) <= needed:
        raise ValueError(
            f"basic schedule covers 0..{len(basic) - 1} but index {needed} is needed"
        )
    w0 = solve_w0_extension(dist, params, belief, basic[length])
    beta, delta = params.beta, belief.delta
    base = (params.z + params.c) * (1.0 - beta)
    posts = range(length, n_periods + length)  # post_extension_state(n, length)
    terms = [base + beta * delta * (basic[m] * reject + tail)
             for m, (reject, tail) in zip(posts, _price_each(dist, basic)[length:])]
    return _climb(dist, w0, beta * (1.0 - delta), terms)


class FloatArray:
    """A dataclass field kept as a tuple of floats and read as an array.

    Assigning any sequence of floats stores it as a tuple under the
    field's name with a leading underscore, which the package's own code
    reads; a builder's tuple is stored as it is, so results share it.
    Reading the field returns a read-only float64 array of the same
    values, built with a local ``import numpy`` on the first read and
    cached, so later reads return the same object and code that never
    reads it never loads numpy.
    """

    def __set_name__(self, owner, name):
        self.floats, self.array = f"_{name}", f"_{name}_array"

    def __set__(self, obj, values):  # a builder's tuple is kept, prices and all
        obj.__dict__[self.floats] = (values if isinstance(values, _Priced)
                                     else tuple(map(float, values)))

    def __get__(self, obj, owner=None):
        if obj is None:  # how dataclass looks up a default: there is none
            raise AttributeError(self.floats)
        array = obj.__dict__.get(self.array)
        if array is None:
            import numpy as np
            array = np.array(obj.__dict__[self.floats], dtype=np.float64)
            array.flags.writeable = False
            # Threads that race on the first read all return the array stored first.
            array = obj.__dict__.setdefault(self.array, array)
        return array


@dataclass(frozen=True, eq=False)
class ReservationSchedule:
    """Solved reservation wages for one parameterization.

    ``basic[n]`` is the wage with ``n`` periods of entitlement after the
    extension question is settled; ``with_extension[n]`` is the wage
    while an extension is still possible. A belief with ``delta = 0``
    is the problem without an extension: ``with_extension`` then equals
    ``basic[:n_periods + 1]``. The wages are stored as tuples of floats,
    ``_basic`` and ``_with_extension``; the two attributes are read-only
    float64 arrays built from them on first access (see ``FloatArray``),
    so instances are safe to share across threads.
    """

    basic: FloatArray = FloatArray()
    with_extension: FloatArray = FloatArray()
    params: MarketParams
    belief: ExtensionSpec


def solve_schedules(dist: UniformOffers, params: MarketParams,
                    belief: ExtensionSpec, horizon=None) -> ReservationSchedule:
    """Solve both schedules for one parameterization and belief.

    ``horizon`` sets the top entitlement of the basic schedule. The
    default covers every index the pre-extension recursion looks up,
    ``post_extension_state(n_periods, length)``; pass a larger value when the
    basic schedule must also cover a different true extension length.
    """
    if horizon is None:
        horizon = post_extension_state(params.n_periods, belief.length)
    basic = build_basic_schedule(dist, params, horizon)
    with_ext = build_extension_schedule(dist, params, belief, basic)
    return ReservationSchedule(basic=basic, with_extension=with_ext,
                               params=params, belief=belief)


def reservation_identity_residual(dist: UniformOffers,
                                  schedule: ReservationSchedule) -> float:
    """Largest gap in the search cost/benefit identity across the schedule.

    At every entitlement the reservation wage equates the cost of one
    more search period with its expected benefit: with x the wage at
    entitlement n,

    ``x - flow = (beta / (1 - beta)) * (delta * (upsilon(y) - x)
    + (1 - delta) * (upsilon(u) - x))``

    where flow is ``z`` at n = 0 and ``z + c`` above, y is the
    post-extension wage the extension would lead to, and u is the wage
    one entitlement down (x itself at n = 0). The residual is a cheap
    independence check on the fixed-point algebra. The identity scales
    each wage's rounding by ``beta / (1 - beta)``, so the tests' 1e-13
    bound on [0, 1] holds because ``conftest.random_valid_params`` keeps
    ``beta <= 0.99``.
    """
    params = schedule.params
    per_period = params.beta / (1.0 - params.beta)
    delta, length = schedule.belief.delta, schedule.belief.length
    wages, post = schedule._with_extension, schedule._basic

    worst = 0.0
    for n in range(len(wages)):
        x = wages[n]
        flow = params.z if n == 0 else params.z + params.c
        u = x if n == 0 else wages[n - 1]
        y = post[post_extension_state(n, length)]
        lhs = x - flow
        rhs = per_period * (delta * (upsilon(dist, y) - x)
                            + (1.0 - delta) * (upsilon(dist, u) - x))
        worst = max(worst, abs(lhs - rhs))
    return worst
