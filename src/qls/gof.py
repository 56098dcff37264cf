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

Both tests refuse fits other than a joint gQLS fit with positive scale, and
raise ScaleOverflow when the observed statistic is not finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    WARN_TIED_QUANTILES,
    BootstrapDegenerate,
    InsufficientDof,
    NonFiniteData,
    NonPositiveScale,
    ScaleOverflow,
)
from .estimators import FitPlan, QlsFit, _response, _scale_tags
from .families import Family, ParamMode, Params, check_seed
from .quantiles import (
    QuantileGrid,
    _PlanStore,
    _order_statistics,
    _ranks,
    _tied,
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
class OutGrid(_PlanStore):
    """Validation levels, decoupled from the estimation grid."""

    levels: np.ndarray

    def __post_init__(self):
        lv = levels_of(self.levels, interior=True)
        lv.setflags(write=False)
        object.__setattr__(self, "levels", lv)
        self._new_store()

    @property
    def r(self) -> int:
        return self.levels.shape[0]


_DEFAULT_OUT_GRID = OutGrid(levels=0.01 + 0.02 * np.arange(50))


def default_out_grid() -> OutGrid:
    """Fifty levels 0.01 + 0.02 j, j = 0..49: one shared OutGrid, so its
    plans are built once per process."""
    return _DEFAULT_OUT_GRID


def make_out_grid(levels=None) -> OutGrid:
    if levels is None:
        return default_out_grid()
    return OutGrid(levels=np.asarray(levels, dtype=float))


@dataclass(frozen=True)
class GofResult:
    """A test's statistic and p-value; ``warnings`` holds the tags of the
    data, the grids and the fit it was computed from."""

    statistic: float
    kind: str  # "in-sample" | "out-of-sample"
    p_value: float
    dof: int | None = None
    b_replicates: int | None = None
    failures: int = 0
    decision_at: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def reject(self, alpha: float = 0.05) -> bool:
        return self.p_value <= alpha


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    import scipy.special  # costly to import; the W_out bootstrap never needs it
    return float(scipy.special.gammaincc(dof / 2.0, x / 2.0))


def _observed(plan: FitPlan, y: np.ndarray, beta, n: int, what: str) -> float:
    """The statistic of one observed response at beta = (mu, sigma);
    ScaleOverflow when it is not finite, so that no NaN or infinity reaches
    a test decision."""
    stat = float(plan.w_statistics(y[None, :], np.reshape(beta, (1, 2)), n)[0])
    if not np.isfinite(stat):
        raise ScaleOverflow(f"{what} is {stat}: the residuals over the scale estimate "
                            "exceed the floating-point range; rescale the data")
    return stat


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
    """``w_test`` on a gQLS plan of the estimation levels.  The result's
    warnings are the response's tags followed by the fit's, each once."""
    _require_gqls(fit, "the in-sample test")
    yv, n_obs, warns = _response(y, n)
    k = yv.shape[0]
    if k < 3:
        raise InsufficientDof("need k >= 3 levels for a k-2 dof statistic")
    stat = _observed(plan, yv, (fit.mu, fit.sigma), n_obs, "W")
    dof = k - 2
    p = chi2_sf(stat, dof)
    return GofResult(statistic=stat, kind="in-sample", p_value=p, dof=dof,
                     decision_at={a: p <= a for a in alphas},
                     warnings=tuple(dict.fromkeys(warns + fit.warnings)))


def w_out_statistic(data, fit: QlsFit, fam: Family, out_grid: OutGrid,
                    n: int | None = None) -> float:
    """Out-of-sample quadratic form at the validation levels."""
    _require_gqls(fit, "the out-of-sample statistic")
    data = np.asarray(data, dtype=float).ravel()
    n_obs = data.shape[0] if n is None else int(n)
    y_out = empirical_quantiles(data, out_grid).values
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    return _observed(plan_out, y_out, (fit.mu, fit.sigma), n_obs, "W_out")


def w_pvalues(plan: FitPlan, y: np.ndarray, n: int) -> np.ndarray:
    """In-sample test p-values of many samples at once: row i of y holds the
    quantiles of one sample of size n at the plan's levels.  A row whose
    joint gQLS fit has non-positive scale or whose W is not finite gets NaN,
    as does every row when k < 3 (``w_test`` raises in each case)."""
    k = y.shape[1]
    stats = np.full(y.shape[0], np.nan)
    if k < 3:
        return stats
    beta = plan.solve(y)
    ok = beta[:, 1] > 0
    stats[ok] = plan.w_statistics(y[ok], beta[ok], n)
    stats[~np.isfinite(stats)] = np.nan
    import scipy.special
    return scipy.special.gammaincc((k - 2) / 2.0, stats / 2.0)  # chi2_sf of each row


# The last word of every bootstrap generator's key, [seed, _BOOTSTRAP_KEY].
# SeedSequence splits an integer key into 32-bit words and drops trailing
# zero words ([s], [s, 0] and s give one stream), so a small tag such as
# 2**32 + 1 ([s, 1, 1]) would replay a power-study key.  Both words of this
# one exceed any replicate or cell index, so no run_mc ([seed, r]) or
# power-study ([seed, i_h0, i_gen, i_grid, r]) key reaches it.
_BOOTSTRAP_KEY = 0x9E3779B97F4A7C15


def _union_columns(idx: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted union of the 0-based position sets ``idx``, and the columns
    of each set in it."""
    pos = np.unique(np.concatenate(idx))
    return pos, [np.searchsorted(pos, i) for i in idx]


def _bootstrap_order_statistics(fam: Family, params: Params, n: int, seed: int,
                                B: int, pos: np.ndarray, cols: list[np.ndarray]):
    """Order statistics of B samples of size n from ``fam`` at ``params``,
    one block of replicates at a time: for each block, the values at the
    0-based positions ``pos[c]`` for each column set c in ``cols``, with
    ``pos`` sorted and unique (``_union_columns``).

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
    shapes = np.diff(np.concatenate(([0], pos + 1, [n + 1]))).astype(float)
    rng = np.random.default_rng([seed, _BOOTSTRAP_KEY])
    for block in replicate_blocks(range(B), 10 * sum(c.size for c in cols)):
        g = rng.standard_gamma(shapes, size=(len(block), shapes.size))
        np.cumsum(g, axis=1, out=g)
        u = g[:, :-1]
        u /= g[:, -1:]
        x = fam._from_uniform(params, u)
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
    B'.  Replicates whose refit fails (e.g. non-positive scale) or whose
    statistic is not finite are dropped and the replicate count adjusted;
    more than ``max_failure_fraction`` failures aborts.  A negative or
    non-integer seed raises InvalidSeed, and an observed statistic that is
    not finite ScaleOverflow.  The result's warnings hold, each once, the
    rank tags of the estimation and the out-levels at n, ``tied_quantiles``
    when either level set reads one value at distinct ranks of the data, and
    the tags of the fitted scale.
    """
    check_seed(seed)
    if B < 1:
        raise ValueError("need at least one bootstrap replicate")
    if out_grid is None:
        out_grid = default_out_grid()
    data = np.asarray(data, dtype=float).ravel()
    n = data.shape[0]

    plan = FitPlan.for_family(fam, grid, "gqls")
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    ranks, warns = _ranks(n, levels_of(grid))
    ranks_out, warns_out = _ranks(n, levels_of(out_grid))
    pos, cols = _union_columns([ranks - 1, ranks_out - 1])
    values, first, last = _order_statistics(data, pos)
    if not (np.isfinite(first) and np.isfinite(last)):
        raise NonFiniteData("bootstrap data hold NaN or infinite values")
    warns += warns_out
    if _tied(values[cols[0]], ranks) or _tied(values[cols[1]], ranks_out):
        warns.append(WARN_TIED_QUANTILES)
    beta0 = plan.solve(values[None, cols[0]])
    if not beta0[0, 1] > 0:
        raise NonPositiveScale("gQLS fit on the data has non-positive scale")
    observed = _observed(plan_out, values[cols[1]], beta0, n, "W_out")
    fitted = Params(mu=float(beta0[0, 0]), sigma=float(beta0[0, 1]))
    warns += _scale_tags(fitted.sigma)

    exceed = 0
    failures = 0
    for y_fit, y_out in _bootstrap_order_statistics(fam, fitted, n, seed, B, pos, cols):
        beta = plan.solve(y_fit)
        ok = beta[:, 1] > 0
        if not ok.all():
            y_out, beta = y_out[ok], beta[ok]
        stats = plan_out.w_statistics(y_out, beta, n)
        stats = stats[np.isfinite(stats)]
        failures += len(beta) - len(stats)
        exceed += int(np.count_nonzero(stats > observed))
    b_eff = B - failures
    if failures > max_failure_fraction * B or b_eff == 0:
        raise BootstrapDegenerate(
            f"{failures} of {B} bootstrap replicates failed to fit"
        )
    p = exceed / b_eff
    return GofResult(statistic=observed, kind="out-of-sample", p_value=p,
                     b_replicates=b_eff, failures=failures,
                     decision_at={a: p <= a for a in alphas},
                     warnings=tuple(dict.fromkeys(warns)))
