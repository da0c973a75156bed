"""Closed-form schedules under uniform offers on [0, 1].

With identity CDF every fixed point reduces to a quadratic and every
recursion step to a polynomial, so the whole schedule can be written
down without iteration. These expressions serve as an independent
oracle for the iterative solver.
"""

import math

from .params import ExtensionSpec, MarketParams
from .schedule import ReservationSchedule, post_extension_state


def w0_basic_closed_form(beta, flow) -> float:
    """Zero-entitlement wage: the economically relevant root of the quadratic.

    ``(beta/2) x^2 - x + flow (1 - beta) + beta/2 = 0`` has one root
    inside [0, 1]; the other lies above 1.
    """
    return (1.0 - math.sqrt((1.0 - beta) * (1.0 + beta - 2.0 * beta * flow))) / beta


def w0_extension_closed_form(beta, z, delta, w_basic_at_length) -> float:
    """Zero-entitlement wage while an extension is possible.

    At ``delta = 1`` the quadratic degenerates to a linear equation
    (the self-referencing branch has weight zero); the general root
    formula would divide by zero, so that limit is evaluated directly.
    """
    if delta == 1.0:
        return z * (1.0 - beta) + 0.5 * beta * (1.0 + w_basic_at_length ** 2)
    inner = 1.0 - beta * (1.0 - delta) * (
        beta + 2.0 * z * (1.0 - beta) + beta * delta * w_basic_at_length ** 2
    )
    return (1.0 - math.sqrt(inner)) / (beta * (1.0 - delta))


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

    basic = [w0_basic_closed_form(beta, z)]
    base = (z + c) * (1.0 - beta)
    for n in range(1, horizon + 1):
        basic.append(base + 0.5 * beta * (1.0 + basic[n - 1] ** 2))

    with_ext = [w0_extension_closed_form(beta, z, delta, basic[length])]
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
