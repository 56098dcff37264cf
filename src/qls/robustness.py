"""Breakdown points and influence functions of the quantile LS estimators.

The influence function of a single sample quantile at level p is

    IF(x) = sigma * (p - 1{x <= mu + sigma Q0(p)}) / f0(Q0(p)),

a bounded step function; the estimator influence functions are the
corresponding weight-matrix combinations of the k quantile influences, so
they are piecewise constant with jumps only at the population quantiles of
the grid levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .estimators import FitPlan, _row_sums
from .families import Family, Params
from .quantiles import QuantileGrid, level_density

__all__ = [
    "BreakdownPoint",
    "InfluenceCurve",
    "breakdown_point",
    "if_quantile",
    "if_estimator",
    "influence_curve",
]


@dataclass(frozen=True)
class BreakdownPoint:
    lower: float
    upper: float
    value: float


def breakdown_point(grid: QuantileGrid) -> BreakdownPoint:
    """Asymptotic breakdown of a fit on this grid: contamination beyond the
    grid bounds cannot move any selected order statistic, so the lower/upper
    breakdown points are a and 1-b."""
    lbp = float(grid.a)
    ubp = float(1.0 - grid.b)
    return BreakdownPoint(lower=lbp, upper=ubp, value=min(lbp, ubp))


def if_quantile(x, p: float, fam: Family, params: Params):
    """Influence of a point mass at x on the sample quantile at level p.

    Right-continuous in x with a single downward jump of size
    sigma / f0(Q0(p)) at the population quantile (the indicator is
    inclusive: 1{x <= quantile}); NaN at a NaN x.  DomainError unless mu is
    finite and 0 < sigma < inf (``_jumps``).
    """
    _, q, f = level_density(fam, np.asarray([p], dtype=float))
    jump = _jumps(params, q)[0]
    xv = np.asarray(x, dtype=float)
    ind = np.where(np.isnan(xv), np.nan, xv <= jump)
    out = params.sigma * (p - ind) / f[0]
    return float(out) if xv.ndim == 0 else out


def _jumps(params: Params, q0: np.ndarray) -> np.ndarray:
    """The population quantiles mu + sigma Q0(p) of the standard quantiles
    ``q0``, where the influence jumps; DomainError unless mu is finite and
    0 < sigma < inf."""
    if not (0.0 < params.sigma < math.inf and math.isfinite(params.mu)):
        raise DomainError(f"influence needs a finite mu and 0 < sigma < inf, got {params}")
    return params.mu + params.sigma * q0


def if_estimator(x, kind: str, fam: Family, params: Params, grid: QuantileGrid):
    """Influence of a point mass at x on (mu_hat, sigma_hat): a pair of
    floats for scalar x, else of arrays (NaN at NaN).  Its k + 1 values
    between the ``_jumps`` are summed once each, in an order fixed by k
    (``_row_sums``): a point reads the same bits alone and in any batch."""
    plan = FitPlan.for_family(fam, grid, kind)
    jumps = _jumps(params, plan.x[:, 1])
    p, _, f = plan.spacing  # the levels and f0(Q0(p)); Q0(p) is the design column
    # row r: the quantile influences of a point above the first r jumps alone
    ifq = params.sigma * (p - (np.arange(p.size + 1)[:, None] <= np.arange(p.size))) / f
    values = _row_sums(plan.solver()[0][:, None, :], ifq)  # 2 x (k + 1)
    xv = np.asarray(x, dtype=float)
    # x <= jump_j exactly for j at or past x's interval (the jumps do not decrease)
    out = np.where(np.isnan(xv), np.nan, values[:, np.searchsorted(jumps, xv)])
    if xv.ndim == 0:
        return float(out[0]), float(out[1])
    return out[0], out[1]


@dataclass(frozen=True)
class InfluenceCurve:
    """Sampled influence curves for both parameters, with paired samples
    straddling every jump so the step geometry survives plotting."""

    x: np.ndarray
    if_mu: np.ndarray
    if_sigma: np.ndarray
    kind: str
    family: str
    grid: QuantileGrid
    jumps: np.ndarray = field(repr=False, default=None)


def influence_curve(kind: str, fam: Family, params: Params, grid: QuantileGrid,
                    x_range: tuple[float, float], points: int = 201) -> InfluenceCurve:
    lo, hi = float(x_range[0]), float(x_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError("x_range must be a finite increasing pair")
    jumps = _jumps(params, FitPlan.for_family(fam, grid, kind).x[:, 1])
    eps = 1e-9 * params.sigma
    xs = np.unique(np.concatenate([np.linspace(lo, hi, int(points)), jumps - eps, jumps + eps]))
    if_mu, if_sigma = if_estimator(xs, kind, fam, params, grid)
    return InfluenceCurve(x=xs, if_mu=if_mu, if_sigma=if_sigma, kind=kind,
                          family=fam.name, grid=grid, jumps=jumps)
