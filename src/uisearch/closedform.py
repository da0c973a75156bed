"""Closed-form schedules under uniform offers on [0, 1].

With identity CDF every fixed point reduces to a quadratic and every
recursion step to a polynomial, so the whole schedule can be written
down without iteration. These expressions serve as an independent
oracle for the iterative solver.

Both zero-entitlement wages are the smaller root of
``a x^2 - x + t = 0``, taken as ``2t / (1 + sqrt(1 - 4at))`` with the
discriminant written as a sum of nonnegative terms. Nothing cancels, so
the root keeps its digits as ``delta -> 1`` or ``beta -> 0``, and at
``a = 0`` (``delta = 1``) it is ``t`` itself.
"""

import math

from .params import ExtensionSpec, MarketParams
from .schedule import ReservationSchedule, post_extension_state


def uniform_closed_form(params: MarketParams,
                        belief: ExtensionSpec) -> ReservationSchedule:
    """Build both schedules under uniform offers on [0, 1] from the
    closed forms alone.

    Mirrors ``solve_schedules`` at its default horizon,
    ``post_extension_state(n_periods, length)``, but never iterates, so
    it is a path-independent check on the solver.
    """
    beta, z, c = params.beta, params.z, params.c
    n_periods = params.n_periods
    delta, length = belief.delta, belief.length
    horizon = post_extension_state(n_periods, length)

    def w0(d, y):
        # x = z (1 - beta) + (beta/2) (1 + d y^2 + (1 - d) x^2); d = 0 is the basic wage
        t = z * (1.0 - beta) + 0.5 * beta * (1.0 + d * y ** 2)
        disc = (1.0 - beta) * (1.0 + beta - 2.0 * beta * z) + beta * d * (
            beta * (1.0 - (1.0 - d) * y ** 2) + 2.0 * z * (1.0 - beta))
        return 2.0 * t / (1.0 + math.sqrt(disc))

    basic = [w0(0.0, 0.0)]
    base = (z + c) * (1.0 - beta)
    for n in range(1, horizon + 1):
        basic.append(base + 0.5 * beta * (1.0 + basic[n - 1] ** 2))

    with_ext = [w0(delta, basic[length])]
    for n in range(1, n_periods + 1):
        with_ext.append(base + 0.5 * beta * (
            1.0
            + delta * basic[n - 1 + length] ** 2
            + (1.0 - delta) * with_ext[n - 1] ** 2
        ))

    return ReservationSchedule(basic=basic, with_extension=with_ext,
                               params=params, belief=belief)


def expected_welfare_at_offer(beta, reservation_wage) -> float:
    """Expected value at an offer node under uniform offers.

    The worker holds threshold ``reservation_wage`` and draws one offer:
    ``(1 + reservation_wage^2) / (2 (1 - beta))``.
    """
    return (1.0 + reservation_wage ** 2) / (2.0 * (1.0 - beta))
