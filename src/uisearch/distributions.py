"""Wage-offer distributions and the analytic operations the solver needs.

The package calls seven members of a distribution and needs no base
class: the support ends ``low`` and ``high``, the ``mean``, and the
methods ``cdf``, ``sf`` (the survival function ``1 - F``),
``partial_expectation`` (``int_a^b w dF(w)``) and ``quantile`` (the
inverse CDF, for inverse-CDF sampling). The solver and the evaluator
call ``cdf``, ``sf`` and ``partial_expectation`` on one float at a
time. ``cdf`` and ``partial_expectation`` serve only the pricing of a
threshold (``uisearch.schedule._price``), so they check its domain and
refuse an argument outside the support, NaN included, instead of
clamping it. ``sf`` still clamps: the evaluator takes the state-0
acceptance probabilities from it before any price, on thresholds that
may lie above the support. The simulator calls ``quantile`` on whole
arrays of variates, and takes its decisions on the integer words ``k``
of the variates ``k * 2**-53``, so ``quantile`` must be non-decreasing
on that grid (``UniformOffers``' ``low + u * W`` is, since rounding is
monotone).
``UniformOffers`` is the one distribution shipped, and its methods'
docstrings state the contract any other must keep. Instances are
immutable after construction and safe to share across threads. The
conditions a model puts on its distribution (an interior
zero-entitlement wage, ``z + c`` below the top of the support) are
checked by ``parse_config``; the fixed-point solvers check the ones
their own iteration needs.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class UniformOffers:
    """Uniform wage offers on [low, high]; the default is [0, 1].

    On [0, 1] the CDF is the identity, which makes every fixed point of
    the solver available in closed form (see ``uisearch.closedform``).
    ``low`` and ``high`` must square to finite floats (magnitudes up to
    about 1.34e154), since the partial expectation forms their squares.
    """

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError("low must be strictly less than high")
        if not (math.isfinite(self.low * self.low) and math.isfinite(self.high * self.high)):
            raise ValueError("low and high must square to finite floats: "
                             "magnitudes up to about 1.34e154")

    @property
    def mean(self):
        """Mean wage offer."""
        return 0.5 * (self.low + self.high)

    def cdf(self, x):
        """P(w <= x) for one float x in the support. Raises ValueError for
        an x outside it, NaN included."""
        if not self.low <= x <= self.high:
            raise ValueError(f"cdf argument {x} outside support [{self.low}, {self.high}]")
        return (x - self.low) / (self.high - self.low)

    def sf(self, x):
        """P(w > x) for one float x, computed without forming ``1 - cdf(x)``,
        which cancels near the top of the support. Clamps to 1 below the
        support and 0 above it."""
        return min(max((self.high - x) / (self.high - self.low), 0.0), 1.0)

    def partial_expectation(self, a, b):
        """int_a^b w dF(w) for floats ``low <= a <= b <= high``.

        Additive over adjacent intervals; over the full support it
        equals the mean. Raises ValueError for a reversed interval or
        an end outside the support, NaN included.
        """
        if not self.low <= a <= b <= self.high:
            raise ValueError(f"partial_expectation interval [{a}, {b}] is not "
                             f"an interval of support [{self.low}, {self.high}]")
        # int_a^b w/(high-low) dw
        return (b * b - a * a) / (2.0 * (self.high - self.low))

    def quantile(self, u):
        """Inverse CDF at u in [0, 1]: a float or a numpy array of them.

        Returns the same kind it is given, elementwise on arrays, and is
        non-decreasing in u.
        """
        return self.low + u * (self.high - self.low)
