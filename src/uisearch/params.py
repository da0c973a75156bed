"""Market parameters, extension beliefs and the run limits.

The same ``ExtensionSpec`` shape describes both the true extension
process and a worker's (possibly wrong) belief about it; which role an
instance plays is decided by where it is passed. The run limits are the
simulation defaults and the largest seed, spell count, horizon and
entitlement; ``parse_config`` checks them before any work.
"""

from dataclasses import dataclass

DEFAULT_SEED = 0
DEFAULT_SPELLS = 1_000_000
DEFAULT_MAX_PERIODS = 2_000
MAX_SEED = (1 << 64) - 1  # the seed is mixed as one 64-bit word
MAX_SPELLS = 1 << 32   # spell indices fill a counter's high 32 bits
MAX_PERIODS = 1 << 30  # two draws a period fill its low 32
MAX_ENTITLEMENT = 1 << 16  # N and extension lengths: a schedule entry per period


@dataclass(frozen=True)
class MarketParams:
    """Per-period environment of the search problem.

    Parameters
    ----------
    beta : float
        Discount factor. The solver needs it in (0, 1); out-of-range
        values are representable, and ``parse_config`` rejects them.
    z : float
        Flow value of nonwork (leisure and home production), received
        every period while unemployed.
    c : float
        Unemployment-insurance compensation, received per period while
        entitlement remains.
    n_periods : int
        Initial entitlement: periods of compensation the worker may
        claim. Zero is legal (benefits already exhausted).
    """

    beta: float
    z: float
    c: float
    n_periods: int

    def __post_init__(self):
        if self.n_periods % 1 != 0 or self.n_periods < 0:  # inf % 1 and nan % 1 are nan
            raise ValueError("n_periods must be a nonnegative integer")
        object.__setattr__(self, "n_periods", int(self.n_periods))


@dataclass(frozen=True)
class ExtensionSpec:
    """A one-time benefit extension: per-period probability and length.

    Parameters
    ----------
    delta : float
        Probability, each period before the extension has occurred, that
        entitlement is extended. Must lie in [0, 1]; both endpoints are
        accepted and handled by the general solver path.
    length : int
        Periods of entitlement the extension adds. At least 1.
    """

    delta: float
    length: int

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.length % 1 != 0 or self.length < 1:
            raise ValueError("length must be a positive integer")
        object.__setattr__(self, "length", int(self.length))
