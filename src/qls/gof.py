"""Goodness-of-fit validation built on the generalized quantile LS fit.

Two tests:

* In-sample: W = (n / sigma_hat^2) e' P e with e the quantile residuals
  at the estimation levels and P = S^-1 the precision; approximately
  chi-square with k - 2 degrees of freedom under the null.
* Out-of-sample: the same quadratic form evaluated on a separate set of
  levels (default 0.01, 0.03, ..., 0.99), calibrated by a parametric
  bootstrap because its null distribution is intractable for mismatched
  grids.  When the out-levels equal the estimation levels the statistic
  reduces to W.

Both tests refuse fits other than a joint gQLS fit with positive scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import (
    BootstrapDegenerate,
    InsufficientDof,
    NonFiniteData,
    NonPositiveScale,
)
from .estimators import FitPlan, QlsFit, _response
from .families import Family, ParamMode, Params
from .quantiles import (
    QuantileGrid,
    _order_statistics,
    _ranks,
    empirical_quantiles,
    levels_of,
    replicate_blocks,
)

__all__ = [
    "GofResult",
    "OutGrid",
    "ResidualDiagnostics",
    "bootstrap_pvalue",
    "chi2_sf",
    "default_out_grid",
    "make_out_grid",
    "q_decomposition",
    "residual_analysis",
    "w_out_statistic",
    "w_test",
]

DEFAULT_ALPHAS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class OutGrid:
    """Validation levels, decoupled from the estimation grid."""

    levels: np.ndarray

    def __post_init__(self):
        lv = levels_of(self.levels, interior=True)
        lv.setflags(write=False)
        object.__setattr__(self, "levels", lv)

    @property
    def r(self) -> int:
        return self.levels.shape[0]


def default_out_grid() -> OutGrid:
    """Fifty levels 0.01 + 0.02 j, j = 0..49."""
    return OutGrid(levels=0.01 + 0.02 * np.arange(50))


def make_out_grid(levels=None) -> OutGrid:
    if levels is None:
        return default_out_grid()
    return OutGrid(levels=np.asarray(levels, dtype=float))


@dataclass(frozen=True)
class GofResult:
    statistic: float
    kind: str  # "in-sample" | "out-of-sample"
    p_value: float
    dof: int | None = None
    b_replicates: int | None = None
    failures: int = 0
    decision_at: dict = field(default_factory=dict)

    def reject(self, alpha: float = 0.05) -> bool:
        return self.p_value <= alpha


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return float(special.gammaincc(dof / 2.0, x / 2.0))


def _require_gqls(fit: QlsFit, op: str) -> None:
    if fit.kind != "gqls":
        raise ValueError(f"{op} is defined for gQLS fits only, got {fit.kind!r}")
    if fit.mode is not ParamMode.LOCATION_SCALE:
        raise ValueError(f"{op} needs a joint location-scale fit")
    if not fit.sigma > 0:
        raise NonPositiveScale(f"{op} requires a positive scale estimate")


@dataclass(frozen=True)
class ResidualDiagnostics:
    residuals: np.ndarray
    residual_cov: np.ndarray
    fitted: np.ndarray
    fitted_cov: np.ndarray


def residual_analysis(y, x, fit: QlsFit, sigma_star_mat: np.ndarray,
                      n: int | None = None) -> ResidualDiagnostics:
    """Quantile residuals and their plug-in covariances.

    residual covariance: (sigma_hat^2/n) (S - X (X'S^-1 X)^-1 X')
    fitted covariance:   (sigma_hat^2/n)  X (X'S^-1 X)^-1 X'
    The fitted values and residuals are asymptotically independent; exporting
    the pairs supports a predicted-versus-residual diagnostic plot.
    """
    _require_gqls(fit, "residual analysis")
    yv, n_obs, _ = _response(y, n)
    plan = FitPlan.from_matrices("gqls", x, sigma_star_mat)
    fitted = plan.x @ np.array([fit.mu, fit.sigma])
    resid_cov, fitted_cov = plan.projection_covs()
    scale2 = fit.sigma ** 2 / n_obs
    return ResidualDiagnostics(
        residuals=yv - fitted,
        residual_cov=scale2 * resid_cov,
        fitted=fitted,
        fitted_cov=scale2 * fitted_cov,
    )


def q_decomposition(y, x, sigma_star_mat: np.ndarray, beta_true: Params,
                    fit: QlsFit, n: int | None = None) -> tuple[float, float, float]:
    """Orthogonal split of the full quadratic form at the true parameters.

    Q  = (n/sigma^2) (Y - X b)' S^-1 (Y - X b)           (b = true beta)
    Q1 = same form at the fitted parameters
    Q2 = (n/sigma^2) (bhat - b)' X'S^-1X (bhat - b)
    and Q = Q1 + Q2 by the gQLS normal equations.
    """
    _require_gqls(fit, "quadratic-form decomposition")
    yv, n_obs, _ = _response(y, n)
    if not beta_true.sigma > 0:
        raise NonPositiveScale("true sigma must be positive")
    plan = FitPlan.from_matrices("gqls", x, sigma_star_mat)
    return plan.q_split(yv, np.array([fit.mu, fit.sigma]),
                        np.array([beta_true.mu, beta_true.sigma]), n_obs)


def w_test(y, x, sigma_star_mat: np.ndarray, fit: QlsFit, n: int | None = None,
           alphas=DEFAULT_ALPHAS) -> GofResult:
    """In-sample test: W = (n/sigma_hat^2) e' S^-1 e, chi-square k-2 dof."""
    return plan_w_test(FitPlan.from_matrices("gqls", x, sigma_star_mat), y, fit, n, alphas)


def plan_w_test(plan: FitPlan, y, fit: QlsFit, n: int | None = None,
                alphas=DEFAULT_ALPHAS) -> GofResult:
    """``w_test`` on a gQLS plan of the estimation levels."""
    _require_gqls(fit, "the in-sample test")
    yv, n_obs, _ = _response(y, n)
    k = yv.shape[0]
    if k < 3:
        raise InsufficientDof("need k >= 3 levels for a k-2 dof statistic")
    stat = float(plan.w_statistics(yv[None, :], np.array([[fit.mu, fit.sigma]]), n_obs)[0])
    dof = k - 2
    p = chi2_sf(stat, dof)
    return GofResult(statistic=stat, kind="in-sample", p_value=p, dof=dof,
                     decision_at={a: p <= a for a in alphas})


def w_out_statistic(data, fit: QlsFit, fam: Family, out_grid: OutGrid,
                    n: int | None = None) -> float:
    """Out-of-sample quadratic form at the validation levels."""
    _require_gqls(fit, "the out-of-sample statistic")
    data = np.asarray(data, dtype=float).ravel()
    n_obs = data.shape[0] if n is None else int(n)
    y_out = empirical_quantiles(data, out_grid).values
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    return float(plan_out.w_statistics(y_out[None, :], np.array([[fit.mu, fit.sigma]]), n_obs)[0])


def w_pvalues(plan: FitPlan, y: np.ndarray, n: int) -> np.ndarray:
    """In-sample test p-values of many samples at once: row i of y holds the
    quantiles of one sample of size n at the plan's levels.  A row whose
    joint gQLS fit has non-positive scale gets NaN, as does every row when
    k < 3 (``w_test`` raises in both cases)."""
    k = y.shape[1]
    p = np.full(y.shape[0], np.nan)
    if k < 3:
        return p
    beta = plan.solve(y)
    ok = beta[:, 1] > 0
    stats = plan.w_statistics(y[ok], beta[ok], n)
    p[ok] = [chi2_sf(stat, k - 2) for stat in stats]
    return p


# The last word of every bootstrap generator's key, [seed, _BOOTSTRAP_KEY].
# SeedSequence splits an integer key into 32-bit words and drops trailing
# zero words ([s], [s, 0] and s give one stream), so a small tag such as
# 2**32 + 1 ([s, 1, 1]) would replay a power-study key.  Both words of this
# one exceed any replicate or cell index, so no run_mc ([seed, r]) or
# power-study ([seed, i_h0, i_gen, i_grid, r]) key reaches it.
_BOOTSTRAP_KEY = 0x9E3779B97F4A7C15


def _bootstrap_order_statistics(fam: Family, params: Params, n: int, seed: int,
                                B: int, idx: list[np.ndarray]):
    """Order statistics at the 0-based positions ``idx`` of B samples of
    size n from ``fam`` at ``params``, one block of replicates at a time.

    Only the wanted order statistics are drawn, from gamma spacings (Renyi
    1953; David and Nagaraja, Order Statistics, 3rd ed., 2.5): with G_j a
    running sum of n + 1 standard exponentials, the r-th of n sorted
    uniforms is G_r / G_(n+1).  For the sorted wanted ranks r_1 < ... < r_m
    the jumps of G are Gamma(r_i - r_(i-1)) draws plus the tail
    Gamma(n + 1 - r_m), so a replicate costs m + 1 draws whatever n is.  The
    family's quantile map is nondecreasing, so applied to these uniforms it
    gives the sample's order statistics.

    All replicates draw, one row each in replicate order, from the single
    generator ``default_rng([seed, _BOOTSTRAP_KEY])``.  A block of rows
    takes the same draws as its rows one by one, so a replicate's values do
    not depend on the block size, and a run of B' < B replicates is the
    first B' rows of a run of B.  A block keeps about ten values per wanted
    position and row live (draws, their sums, both gathered level sets, and
    the temporaries of the fit and the statistic), within the budget of
    ``replicate_blocks``.
    """
    pos = np.unique(np.concatenate(idx))
    shapes = np.diff(np.concatenate(([0], pos + 1, [n + 1]))).astype(float)
    cols = [np.searchsorted(pos, i) for i in idx]
    rng = np.random.default_rng([seed, _BOOTSTRAP_KEY])
    for block in replicate_blocks(range(B), 10 * sum(i.size for i in idx)):
        g = rng.standard_gamma(shapes, size=(len(block), shapes.size))
        np.cumsum(g, axis=1, out=g)
        x = fam._from_uniform(params, g[:, :-1] / g[:, -1:])
        yield [x[:, c] for c in cols]


def bootstrap_pvalue(data, fam: Family, grid: QuantileGrid,
                     out_grid: OutGrid | None = None, B: int = 1000,
                     seed: int = 0, alphas=DEFAULT_ALPHAS,
                     max_failure_fraction: float = 0.10) -> GofResult:
    """Parametric-bootstrap p-value for the out-of-sample statistic.

    1. Fit gQLS on the data; record the observed statistic.
    2. Draw a sample of the same size from the fitted model, refit gQLS on
       the estimation levels, and recompute the statistic.
    3. Repeat B times.
    4. p-hat = fraction of replicate statistics strictly exceeding the
       observed one (ties count as non-exceedances); reject when
       p-hat <= alpha.

    A replicate draws only the order statistics at the two level sets, from
    gamma spacings (``_bootstrap_order_statistics``), so its cost does not
    grow with n.  The replicates are rows of one stream from a generator
    keyed by seed: runs are reproducible, distinct seeds give distinct
    streams, and the first B' replicates of a run of B are those of a run of
    B'.  Replicates whose refit fails (e.g. non-positive scale) are dropped
    and the replicate count adjusted; more than ``max_failure_fraction``
    failures aborts.
    """
    if B < 1:
        raise ValueError("need at least one bootstrap replicate")
    if out_grid is None:
        out_grid = default_out_grid()
    data = np.asarray(data, dtype=float).ravel()
    n = data.shape[0]

    plan = FitPlan.for_family(fam, grid, "gqls")
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    idx_fit = _ranks(n, levels_of(grid))[0] - 1
    idx_out = _ranks(n, levels_of(out_grid))[0] - 1

    pos = np.union1d(idx_fit, idx_out)
    values, first, last = _order_statistics(data, pos)
    if not (np.isfinite(first) and np.isfinite(last)):
        raise NonFiniteData("bootstrap data hold NaN or infinite values")
    beta0 = plan.solve(values[None, np.searchsorted(pos, idx_fit)])
    if not beta0[0, 1] > 0:
        raise NonPositiveScale("gQLS fit on the data has non-positive scale")
    observed = float(plan_out.w_statistics(values[None, np.searchsorted(pos, idx_out)],
                                           beta0, n)[0])
    fitted = Params(mu=float(beta0[0, 0]), sigma=float(beta0[0, 1]))

    exceed = 0
    failures = 0
    for y_fit, y_out in _bootstrap_order_statistics(
            fam, fitted, n, seed, B, [idx_fit, idx_out]):
        beta = plan.solve(y_fit)
        ok = beta[:, 1] > 0
        failures += int(np.count_nonzero(~ok))
        exceed += int(np.count_nonzero(plan_out.w_statistics(y_out[ok], beta[ok], n) > observed))
    b_eff = B - failures
    if failures > max_failure_fraction * B or b_eff == 0:
        raise BootstrapDegenerate(
            f"{failures} of {B} bootstrap replicates failed to fit"
        )
    p = exceed / b_eff
    return GofResult(statistic=observed, kind="out-of-sample", p_value=p,
                     b_replicates=b_eff, failures=failures,
                     decision_at={a: p <= a for a in alphas})
