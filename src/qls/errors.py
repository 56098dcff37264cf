"""Exception types and warning tags shared across the package."""


class QlsError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(QlsError, ValueError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(QlsError):
    """A matrix expected to be SPD has a pivot at or below tolerance."""


class DomainError(QlsError, ValueError):
    """Argument outside the mathematical domain of the function."""


class Unavailable(QlsError):
    """Requested quantity is undefined for this family/mode combination."""


class InvalidSeed(DomainError):
    """A seed is negative or not an integer (numpy's SeedSequence takes
    non-negative integers only)."""


class InvalidGrid(QlsError, ValueError):
    """Quantile grid violates 0 < a < b < 1 or k >= 2."""


class EmptySample(QlsError, ValueError):
    """An empty data vector was supplied."""


class NonFiniteData(QlsError, ValueError):
    """The sample holds NaN or infinite values."""


class ScaleOverflow(QlsError, ArithmeticError):
    """A result derived from the scale estimate (such as the squared scale
    in the covariance) exceeds the floating-point range."""


class DegenerateDensity(QlsError):
    """Standard density vanishes (or is non-finite) at a grid quantile."""


class RankDeficient(QlsError):
    """Design matrix does not have full column rank."""


class NoConvergence(QlsError):
    """Iterative optimizer exhausted its budget without converging."""


class InsufficientDof(QlsError):
    """The in-sample test statistic needs at least k >= 3 levels."""


class NonPositiveScale(QlsError):
    """Operation requires a fit with positive estimated scale."""


class BootstrapDegenerate(QlsError):
    """Too many bootstrap replicates failed to produce a fit."""


# Warning tags carried on fits/responses. Plain strings so they serialize
# cleanly into JSON/CSV reports.
WARN_NON_POSITIVE_SCALE = "non_positive_scale"
# a positive scale whose square falls below the normal floating-point range:
# the covariance, and so every standard error, reads 0
WARN_SCALE_UNDERFLOW = "scale_underflow"
WARN_DEGENERATE_GRID = "degenerate_grid"
WARN_RANK_CLAMPED = "rank_clamped_to_first_order_statistic"
# two levels at distinct ranks read the same order statistic (discrete data)
WARN_TIED_QUANTILES = "tied_quantiles"
