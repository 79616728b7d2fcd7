"""Exception types shared across the package.

Plain precondition violations (bad flags, empty inputs, out-of-range
parameters) raise ValueError with a message; the classes below mark
failures a caller may want to catch and handle differently.
"""


class PrecisionExhausted(Exception):
    """A certified-precision computation hit its bit/digit budget."""


class SupportOverflow(Exception):
    """A lattice or convolution would exceed ``distkit.MEMORY_BUDGET`` bytes."""


class QuadratureFailure(Exception):
    """Adaptive quadrature could not reach its error target."""


class InsufficientPeaks(ValueError):
    """Peak scan found fewer usable local maxima than requested."""


class InadmissibleT(ValueError):
    """A smoothing cutoff T below the valid range for the inequality."""


class TooFewPoints(ValueError):
    """A regression was asked to fit fewer points than its minimum."""
