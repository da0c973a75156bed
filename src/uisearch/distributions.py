"""Wage-offer distributions and the analytic operations the solver needs.

Every distribution exposes the CDF, the survival function ``1 - F``,
the partial expectation ``int_a^b w dF(w)``, and the quantile function
used for inverse-CDF sampling. The solver and the evaluator call the
first three on one float at a time; the simulator calls the quantile on
whole arrays of variates. Instances are immutable after construction
and safe to share across threads. The conditions a model puts on its
distribution (an interior zero-entitlement wage, ``z + c`` below the
top of the support) are checked by ``parse_config``; the fixed-point
solvers check the ones their own iteration needs.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass


class OfferDistribution(ABC):
    """Continuous wage-offer distribution on a bounded support."""

    @property
    @abstractmethod
    def support_low(self) -> float:
        """Lower end of the wage support."""

    @property
    @abstractmethod
    def support_high(self) -> float:
        """Upper end of the wage support."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Mean wage offer."""

    @abstractmethod
    def cdf(self, x) -> float:
        """P(w <= x) for one float x. Clamps to 0 below the support and 1
        above it."""

    @abstractmethod
    def sf(self, x) -> float:
        """P(w > x) for one float x, computed without forming ``1 - cdf(x)``,
        which cancels near the top of the support. Clamps to 1 below the
        support and 0 above it."""

    @abstractmethod
    def partial_expectation(self, a, b) -> float:
        """int_a^b w dF(w) for floats a <= b.

        Additive over adjacent intervals; over the full support it
        equals the mean. Raises ValueError when a > b.
        """

    @abstractmethod
    def quantile(self, u):
        """Inverse CDF at u in [0, 1]: a float or a numpy array of them.

        Returns the same kind it is given, elementwise on arrays.
        """


@dataclass(frozen=True)
class UniformOffers(OfferDistribution):
    """Uniform wage offers on [low, high]; the default is [0, 1].

    On [0, 1] the CDF is the identity, which makes every fixed point of
    the solver available in closed form (see ``uisearch.closedform``).
    """

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError("low must be strictly less than high")

    @property
    def support_low(self):
        return self.low

    @property
    def support_high(self):
        return self.high

    @property
    def mean(self):
        return 0.5 * (self.low + self.high)

    def cdf(self, x):
        return min(max((x - self.low) / (self.high - self.low), 0.0), 1.0)

    def sf(self, x):
        return min(max((self.high - x) / (self.high - self.low), 0.0), 1.0)

    def partial_expectation(self, a, b):
        if a > b:
            raise ValueError(f"invalid interval: a={a} > b={b}")
        lo = min(max(a, self.low), self.high)
        hi = min(max(b, self.low), self.high)
        # int_lo^hi w/(high-low) dw
        return (hi * hi - lo * lo) / (2.0 * (self.high - self.low))

    def quantile(self, u):
        return self.low + u * (self.high - self.low)
