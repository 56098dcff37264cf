"""Goodness-of-fit validation built on the generalized quantile LS fit.

Two tests:

* In-sample: W = (n / sigma_hat^2) e' P e with e the quantile residuals
  at the estimation levels and P = S^-1 the precision; approximately
  chi-square with k - 2 degrees of freedom under the null.
* Out-of-sample: the same quadratic form evaluated on a separate set of
  levels (default 0.01, 0.03, ..., 0.99), calibrated by a parametric
  bootstrap because its null distribution is intractable for mismatched
  grids.  The statistic is pivotal under the null, so one bootstrap null
  drawn from the standard member serves any sample of the same size.  When
  the out-levels equal the estimation levels the statistic reduces to W.

Both tests refuse fits other than a joint gQLS fit with positive scale, and
raise ScaleOverflow when the observed statistic is not finite.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    WARN_TIED_QUANTILES,
    BootstrapDegenerate,
    DomainError,
    InsufficientDof,
    NonFiniteData,
    NonPositiveScale,
    ScaleOverflow,
)
from .estimators import FitPlan, QlsFit, _response, _scale_tags
from .families import Family, ParamMode, Params, check_seed
from .quantiles import (
    QuantileGrid,
    _ahead,
    _order_statistics,
    _positions,
    _tied,
    empirical_quantiles,
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


# validation levels are a grid like the estimation levels
OutGrid = QuantileGrid


_DEFAULT_OUT_GRID = QuantileGrid(0.01 + 0.02 * np.arange(50))


def default_out_grid() -> QuantileGrid:
    """Fifty levels 0.01 + 0.02 j, j = 0..49: one shared grid, so its plans
    are built once per process."""
    return _DEFAULT_OUT_GRID


def make_out_grid(levels=None) -> QuantileGrid:
    if levels is None:
        return default_out_grid()
    return QuantileGrid(levels)


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
    return float(_chi2_pvalues(dof + 2, np.float64(x)))


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


def w_out_statistic(data, fit: QlsFit, fam: Family, out_grid: QuantileGrid,
                    n: int | None = None) -> float:
    """Out-of-sample quadratic form at the validation levels."""
    _require_gqls(fit, "the out-of-sample statistic")
    data = np.asarray(data, dtype=float).ravel()
    n_obs = data.shape[0] if n is None else int(n)
    y_out = empirical_quantiles(data, out_grid).values
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    return _observed(plan_out, y_out, (fit.mu, fit.sigma), n_obs, "W_out")


def _row_statistics(plan: FitPlan, plan_out: FitPlan, y_fit: np.ndarray,
                    y_out: np.ndarray, n: int) -> np.ndarray:
    """The statistic of each row of a block of samples of size n: the gQLS
    fit of the row of ``y_fit`` on ``plan``, tested on the row of ``y_out``
    at ``plan_out``'s levels (W on the estimation levels, W_out on others).
    NaN where the fitted scale is not positive or the statistic not finite."""
    beta = plan.solve(y_fit)
    stats = plan_out.w_statistics(y_out, beta, n)
    stats[~((beta[:, 1] > 0) & np.isfinite(stats))] = np.nan
    return stats


def _chi2_pvalues(k: int, stats: np.ndarray) -> np.ndarray:
    """chi2_sf(W, k - 2) of each statistic W on k levels; all NaN if k < 3."""
    if k < 3:
        return np.full(stats.shape, np.nan)
    import scipy.special  # costly to import; the W_out bootstrap never needs it
    return scipy.special.gammaincc((k - 2) / 2.0, stats / 2.0)


def _exceedance(null: np.ndarray, stats):
    """The share of the sorted null strictly above each statistic (ties
    count as non-exceedances); NaN for a NaN statistic."""
    above = null.size - np.searchsorted(null, stats, side="right")
    return np.where(np.isnan(stats), np.nan, above / null.size)


# The last word of every bootstrap generator's key: [seed, _BOOTSTRAP_KEY]
# for a bootstrap_pvalue call, [*cell_seed, _BOOTSTRAP_KEY] for a wout cell.
# SeedSequence splits an integer key into 32-bit words and drops trailing
# zero words ([s], [s, 0] and s give one stream), so a small tag such as
# 2**32 + 1 ([s, 1, 1]) would replay run_timing's key [s, 1, 1, 0].  Both
# words of this one, as of simulate._STREAM_KEY, exceed any cell or timing
# index, so no replicate stream ([seed, _STREAM_KEY], [*cell_seed,
# _STREAM_KEY]) or run_timing key ([seed, i_family, i_size, repeat])
# reaches it.
_BOOTSTRAP_KEY = 0x9E3779B97F4A7C15


def _bootstrap_order_statistics(fam: Family, n: int, key: tuple, B: int,
                                pos: np.ndarray, cols: list[np.ndarray]):
    """Order statistics of B samples of size n from the standard member of
    ``fam``, a block of replicates at a time: per block, the values at the
    sorted 0-based positions ``pos`` of each column set in ``cols``
    (``quantiles._positions``).  Only these are drawn, from gamma spacings
    (Renyi 1953; David and Nagaraja, Order Statistics, 3rd ed., 2.5): the
    r-th of n sorted uniforms is G_r / G_(n+1), G a running sum of n + 1
    standard exponentials, so for ranks r_1 < ... < r_m the jumps of G are
    Gamma(r_i - r_(i-1)) draws plus the tail Gamma(n + 1 - r_m): m + 1 draws
    whatever n is, mapped by the nondecreasing quantile function.
    Replicates are rows, in order, of one generator ``default_rng([*key,
    _BOOTSTRAP_KEY])``, so a row does not depend on the block size and a
    run of B' < B replicates is the first B' rows of a run of B.  A block
    keeps about ten values per position and row live, within the budget of
    ``replicate_blocks``.

    The gamma draws run block after block on a helper thread, ahead of
    their running sums and quantile transform (``quantiles._ahead``); they
    are the only use of the generator, so the rows are those of one thread.
    The helper starts when this is called, so the caller can do other work
    before taking the first block, and is joined when the returned
    generator is run out or closed."""
    shapes = np.diff(np.concatenate(([0], pos + 1, [n + 1]))).astype(float)
    rng = np.random.default_rng([*key, _BOOTSTRAP_KEY])
    blocks = replicate_blocks(range(B), 10 * sum(c.size for c in cols))
    rows = _spacing_rows(fam, _ahead(rng.standard_gamma(shapes, size=(len(block), shapes.size))
                                     for block in blocks), cols)
    next(rows)  # starts the helper
    return rows


def _spacing_rows(fam: Family, draws, cols: list[np.ndarray]):
    """Enter ``draws`` (a ``quantiles._ahead`` of gamma spacing blocks),
    yield once, then yield each block's order statistics by column set."""
    with draws as spacings:
        yield
        for g in spacings:
            np.cumsum(g, axis=1, out=g)
            u = g[:, :-1]
            u /= g[:, -1:]
            x = fam._from_uniform(Params(), u)
            yield [x[:, c] for c in cols]


def _bootstrap_null(fam: Family, plan: FitPlan, plan_out: FitPlan, n: int, key: tuple,
                    B: int, pos: np.ndarray, cols: list[np.ndarray],
                    max_failure_fraction: float = 0.10) -> np.ndarray:
    """The sorted finite statistics of B standard-form replicates refitted on
    ``plan`` and tested on ``plan_out``.  The gQLS fit is location-scale
    equivariant and the statistic divides each residual by the fitted scale,
    so its null law does not depend on (mu, sigma)."""
    return _sorted_null(plan, plan_out, n, B,
                        _bootstrap_order_statistics(fam, n, key, B, pos, cols),
                        max_failure_fraction)


def _sorted_null(plan: FitPlan, plan_out: FitPlan, n: int, B: int, blocks,
                 max_failure_fraction: float) -> np.ndarray:
    """The sorted finite statistics (``_row_statistics``) of the B replicates
    in ``blocks`` (``_bootstrap_order_statistics``), which this closes
    whether it returns or raises.  Failed replicates are dropped; too many
    raise BootstrapDegenerate."""
    with contextlib.closing(blocks):
        stats = np.concatenate([_row_statistics(plan, plan_out, y_fit, y_out, n)
                                for y_fit, y_out in blocks])
    null = np.sort(stats[~np.isnan(stats)])
    failures = B - null.size
    if failures > max_failure_fraction * B or null.size == 0:
        raise BootstrapDegenerate(f"{failures} of {B} bootstrap replicates failed to fit")
    return null


def bootstrap_pvalue(data, fam: Family, grid: QuantileGrid,
                     out_grid: QuantileGrid | None = None, B: int = 1000,
                     seed: int = 0, alphas=DEFAULT_ALPHAS,
                     max_failure_fraction: float = 0.10) -> GofResult:
    """Parametric-bootstrap p-value for the out-of-sample statistic: the
    fraction of B replicate statistics strictly above the observed one
    (ties count as non-exceedances); reject when it is <= alpha.

    The statistic is pivotal under the null, so the replicates are drawn
    from the standard member of the family, not at the fitted parameters
    (``_bootstrap_null``).  They are rows of one stream keyed by seed: runs
    are reproducible, distinct seeds give distinct streams, and the first
    B' replicates of a run of B are those of a run of B'.  Replicates whose
    refit or statistic fails are dropped and counted; more than
    ``max_failure_fraction`` of B aborts.  B < 1 raises DomainError, a
    negative or non-integer seed InvalidSeed, and an observed statistic
    that is not finite ScaleOverflow.  The warnings hold, each once, the
    rank tags of both level sets at n, ``tied_quantiles`` when either reads
    one value at distinct ranks, and the tags of the fitted scale.
    """
    check_seed(seed)
    if B < 1:
        raise DomainError("need at least one bootstrap replicate")
    if out_grid is None:
        out_grid = default_out_grid()
    data = np.asarray(data, dtype=float).ravel()
    n = data.shape[0]

    plan = FitPlan.for_family(fam, grid, "gqls")
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    pos, cols, tags = _positions(n, grid, out_grid)
    # the first spacings are drawn while the data are sorted and tested
    blocks = _bootstrap_order_statistics(fam, n, (seed,), B, pos, cols)
    with contextlib.closing(blocks):
        values, first, last = _order_statistics(data, pos)
        if not (np.isfinite(first) and np.isfinite(last)):
            raise NonFiniteData("bootstrap data hold NaN or infinite values")
        warns = tags[0] + tags[1]
        if any(_tied(values[c], c) for c in cols):
            warns.append(WARN_TIED_QUANTILES)
        beta0 = plan.solve(values[None, cols[0]])
        if not beta0[0, 1] > 0:
            raise NonPositiveScale("gQLS fit on the data has non-positive scale")
        observed = _observed(plan_out, values[cols[1]], beta0, n, "W_out")
        warns += _scale_tags(float(beta0[0, 1]))
        null = _sorted_null(plan, plan_out, n, B, blocks, max_failure_fraction)
    p = float(_exceedance(null, observed))
    return GofResult(statistic=observed, kind="out-of-sample", p_value=p,
                     b_replicates=null.size, failures=B - null.size,
                     decision_at={a: p <= a for a in alphas},
                     warnings=tuple(dict.fromkeys(warns)))
