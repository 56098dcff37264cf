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

The bootstrap reads its order statistics from the spacing source
(``_spacing_source`` over ``_spacings``); its consumer ``_statistics``
refits and tests each row there and on a power cell's drawn source
(``simulate._drawn_source``).
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BootstrapDegenerate,
    DomainError,
    InsufficientDof,
    NonPositiveScale,
    QlsError,
    ScaleOverflow,
)
from .estimators import FitPlan, QlsFit, _response, _scale_tags
from .families import Family, ParamMode, Params, check_count, check_seed
from .quantiles import (
    QuantileGrid,
    _ahead,
    _positions,
    _read_sorted,
    empirical_quantiles,
    replicate_blocks,
)

__all__ = [
    "GofResult",
    "ResidualDiagnostics",
    "bootstrap_pvalue",
    "chi2_sf",
    "make_out_grid",
    "q_decomposition",
    "residual_analysis",
    "w_out_statistic",
    "w_test",
]

# a bootstrap whose failed replicates exceed this share of B is refused
_MAX_FAILURE_FRACTION = 0.10

_DEFAULT_OUT_GRID = QuantileGrid(0.01 + 0.02 * np.arange(50))


def make_out_grid(levels=None) -> QuantileGrid:
    """The default out-levels, fifty levels 0.01 + 0.02 j, j = 0..49 (one
    shared grid, so its plans are built once per process); a grid itself
    (its plans kept); or a new grid of levels."""
    if levels is None:
        return _DEFAULT_OUT_GRID
    return levels if isinstance(levels, QuantileGrid) else QuantileGrid(levels)


@dataclass(frozen=True)
class GofResult:
    """A test's statistic and p-value (a caller rejects at level alpha when
    ``p_value <= alpha``); ``warnings`` holds the tags of the data, the
    grids and the fit it was computed from."""

    statistic: float
    kind: str  # "in-sample" | "out-of-sample"
    p_value: float
    dof: int | None = None
    b_replicates: int | None = None
    failures: int = 0
    warnings: tuple[str, ...] = ()


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    if not x >= 0:  # NaN too
        raise ValueError(f"statistic must be nonnegative, got {x}")
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


def w_test(y, x, sigma_star_mat: np.ndarray, fit: QlsFit, n: int | None = None) -> GofResult:
    """In-sample test: W = (n/sigma_hat^2) e' S^-1 e, chi-square k-2 dof."""
    return plan_w_test(FitPlan.from_matrices("gqls", x, sigma_star_mat), y, fit, n)


def plan_w_test(plan: FitPlan, y, fit: QlsFit, n: int | None = None) -> GofResult:
    """``w_test`` on a gQLS plan of the estimation levels.  The result's
    warnings are the response's tags followed by the fit's, each once."""
    _require_gqls(fit, "the in-sample test")
    yv, n_obs, warns = _response(y, n)
    k = yv.shape[0]
    if k < 3:
        raise InsufficientDof("need k >= 3 levels for a k-2 dof statistic")
    stat = _observed(plan, yv, (fit.mu, fit.sigma), n_obs, "W")
    dof = k - 2
    return GofResult(statistic=stat, kind="in-sample", p_value=chi2_sf(stat, dof), dof=dof,
                     warnings=tuple(dict.fromkeys(warns + fit.warnings)))


def w_out_statistic(data, fit: QlsFit, fam: Family, out_grid: QuantileGrid,
                    n: int | None = None) -> float:
    """Out-of-sample quadratic form at the validation levels."""
    _require_gqls(fit, "the out-of-sample statistic")
    y_out = empirical_quantiles(data, out_grid)
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    return _observed(plan_out, y_out.values, (fit.mu, fit.sigma),
                     y_out.n if n is None else int(n), "W_out")


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


def _spacings(n: int, key: tuple, B: int, pos: np.ndarray, cols: list[np.ndarray]):
    """A ``quantiles._ahead`` context (entering starts a helper thread,
    leaving joins it) over the gamma spacings of B samples of size n at the
    sorted 0-based positions ``pos``, in blocks of replicates that keep ten
    values per column of ``cols`` and row live.  The r-th of n sorted
    uniforms is G_r / G_(n+1), G a running sum of n + 1 standard
    exponentials (Renyi 1953), so ranks r_1 < ... < r_m take the m + 1 draws
    Gamma(r_i - r_(i-1)) and Gamma(n + 1 - r_m), whatever n and the family.
    Replicates are rows, in order, of ``default_rng([*key, _BOOTSTRAP_KEY])``,
    whatever the block size: the first B' rows are a run of B'."""
    shapes = np.diff(np.concatenate(([0], pos + 1, [n + 1]))).astype(float)
    rng = np.random.default_rng([*key, _BOOTSTRAP_KEY])
    return _ahead(rng.standard_gamma(shapes, size=(len(block), shapes.size))
                  for block in replicate_blocks(range(B), 10 * sum(c.size for c in cols)))


def _spacing_source(spacings, consumers) -> None:
    """Each block of the entered ``spacings`` becomes sorted uniforms once,
    on the caller (the running sum over its last column); then per (fam,
    consume) of ``consumers``, ``consume(reps, y, finite)`` with y the
    standard member's order statistics (``_from_uniform`` writes into the
    uniforms only its idempotent clip, so each family maps the bits it
    would map alone) and every row finite.  Without a consumer no block is
    taken."""
    done = 0
    for g in spacings if consumers else ():
        np.cumsum(g, axis=1, out=g)
        u = g[:, :-1]
        u /= g[:, -1:]
        reps, done = range(done, done + len(g)), done + len(g)
        finite = np.ones(len(g), dtype=bool)
        for fam, consume in consumers:
            consume(reps, fam._from_uniform(Params(), u), finite)


def _statistics(plan: FitPlan, plan_out: FitPlan, cols: list[np.ndarray], n: int,
                out: np.ndarray):
    """A consumer of an order-statistic source that writes into ``out``, at
    its replicates, the ``_row_statistics`` of each finite row (fit at
    columns ``cols[0]``, tested at ``cols[-1]``); other rows keep theirs."""
    def consume(reps, y, finite):
        y = y[finite]
        out[reps.start:reps.stop][finite] = _row_statistics(plan, plan_out, y[:, cols[0]],
                                                            y[:, cols[-1]], n)
    return consume


def _nulls(tests, n: int, B: int, spacings, cols: list[np.ndarray]) -> list:
    """Per (fam, plan, plan_out) of ``tests``, the sorted finite
    ``_row_statistics`` (fit at ``cols[0]``, test at ``cols[1]``) of B
    standard-form replicates of ``fam`` from the entered ``spacings``
    (``_spacing_source``), or a BootstrapDegenerate, returned, if over
    ``_MAX_FAILURE_FRACTION`` of B failed."""
    stats = np.full((len(tests), B), np.nan)
    _spacing_source(spacings, [(fam, _statistics(plan, plan_out, cols, n, out))
                               for (fam, plan, plan_out), out in zip(tests, stats)])
    nulls = []
    for stat in stats:
        null = np.sort(stat[~np.isnan(stat)])
        failures = B - null.size
        nulls.append(BootstrapDegenerate(f"{failures} of {B} bootstrap replicates failed to fit")
                     if failures > _MAX_FAILURE_FRACTION * B or null.size == 0 else null)
    return nulls


def bootstrap_pvalue(data, fam: Family, grid: QuantileGrid,
                     out_grid: QuantileGrid | None = None, B: int = 1000,
                     seed: int = 0) -> GofResult:
    """Parametric-bootstrap p-value for the out-of-sample statistic: the
    fraction of B replicate statistics strictly above the observed one
    (ties count as non-exceedances); reject when it is <= alpha.

    The statistic is pivotal under the null, so the replicates are drawn
    from the standard member of the family, not at the fitted parameters
    (``_nulls``): the gQLS fit is location-scale equivariant and the
    statistic divides each residual by the fitted scale.  The replicates
    are rows of one stream keyed by seed (``_spacings``): runs are
    reproducible, distinct seeds give distinct streams, and the first B'
    replicates of a run of B are those of a run of B'.  Replicates whose
    refit or statistic fails are dropped and counted; more than 10% of B
    (``_MAX_FAILURE_FRACTION``) raises BootstrapDegenerate.  B other than an integer >= 1
    raises DomainError, a negative or non-integer seed InvalidSeed, and an
    observed statistic that is not finite ScaleOverflow.  The warnings
    hold, each once, the rank tags of both level sets at n,
    ``tied_quantiles`` when either reads one value at distinct ranks, and
    the tags of the fitted scale.
    """
    _, res = next(_gof(data, [fam], grid, "wout", out_grid, B, seed))
    if isinstance(res, QlsError):
        raise res
    return res


def _gof(data, fams, grid: QuantileGrid, test: str, out_levels=None, B: int = 1000,
         seed: int = 0):
    """Yield per family of ``fams`` its joint gQLS fit at ``grid`` (no
    covariance, so no sigma^2; None if its plan fails) and its ``plan_w_test``
    (test "w") or ``bootstrap_pvalue`` at ``make_out_grid(out_levels)``, or
    the QlsError it raised.  All come from one sort, made before the first
    is yielded, after the checks that concern every family; for "wout" every
    null comes from one draw of spacings, started before the sort."""
    check_seed(seed)
    B = check_count(B, "bootstrap replicate count")
    sets = (grid, make_out_grid(out_levels)) if test == "wout" else (grid,)
    data = np.asarray(data, dtype=float).reshape(-1)
    n = data.shape[0]
    pos, cols, tags = _positions(n, *sets)
    pairs, tests = [], []
    with (_spacings(n, (seed,), B, pos, cols) if test == "wout"
          else contextlib.nullcontext()) as spacings:
        values, tied = _read_sorted(data, pos, cols)
        y = values[cols[0]]
        for fam in fams:
            fit = None
            try:
                plan = FitPlan.for_family(fam, grid, "gqls")
                beta = plan.solve(y[None, :])
                fit = QlsFit(kind="gqls", params=Params(*map(float, beta[0])),
                             mode=ParamMode.LOCATION_SCALE,
                             warnings=(*tags[0], *tied[0], *_scale_tags(float(beta[0, 1]))))
                if test == "w":
                    pairs.append((fit, plan_w_test(plan, y, fit, n)))
                    continue
                plan_out = FitPlan.for_family(fam, sets[1], "gqls")
                _require_gqls(fit, "the out-of-sample test")
                pairs.append((fit, _observed(plan_out, values[cols[1]], beta, n, "W_out")))
                tests.append((fam, plan, plan_out))
            except QlsError as exc:
                pairs.append((fit, exc))
        nulls = iter(_nulls(tests, n, B, spacings, cols))
    for fit, res in pairs:
        if isinstance(res, float):  # an observed W_out and its family's null
            null = next(nulls)
            if isinstance(null, QlsError):
                res = null
            else:
                res = GofResult(statistic=res, kind="out-of-sample",
                                p_value=float(_exceedance(null, res)),
                                b_replicates=null.size, failures=B - null.size,
                                warnings=tuple(dict.fromkeys(
                                    [*tags[0], *tags[1], *tied[0], *tied[1], *fit.warnings])))
        yield fit, res
