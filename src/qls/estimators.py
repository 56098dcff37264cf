"""Ordinary and generalized quantile least squares fits, plus MLE baselines.

With Y the vector of sample quantiles, X = [1, Q0(p)] the standardized
design, S the standardized quantile covariance and P = S^-1 its precision,
the two regression estimators are

    oQLS:  beta = (X'X)^-1 X'Y
    gQLS:  beta = (X'PX)^-1 X'PY

with per-observation asymptotic covariances

    oQLS:  (sigma^2/n) (X'X)^-1 X' S X (X'X)^-1
    gQLS:  (sigma^2/n) (X'PX)^-1

where sigma^2 is plugged in as the squared scale estimate.  For a fixed
design and covariance each estimator is a fixed linear map beta = W Y.  A
FitPlan holds that map with the pieces it is built from.  A family plan of
either kind holds S only through the levels p, their k + 1 spacings
d_j = p_j - p_(j-1) (p_0 = 0, p_(k+1) = 1) and the densities f: the
precision of Ogawa (1951) is the second-difference form of a Brownian
bridge, z'Pz = sum_j Delta(z)_j^2 / d_j with Delta(z) = diff([0, f z, 0]),
so X'PX, X'P, the oQLS sandwich and e'Pe are O(k) sums over the spacings.
Only a plan for a caller-supplied S keeps and factorizes the matrix.  A
plan fits and tests a batch of quantile responses, one per row, in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    WARN_NON_POSITIVE_SCALE,
    WARN_SCALE_UNDERFLOW,
    DomainError,
    EmptySample,
    NoConvergence,
    NonFiniteData,
    NotPositiveDefinite,
    QlsError,
    RankDeficient,
    ScaleOverflow,
    Unavailable,
)
from .families import FAMILIES, Family, ParamMode, Params
from .linalg import SpdFactor, solve_spd, spd_factorize
from .quantiles import (
    QuantileGrid,
    QuantileResponse,
    empirical_quantiles,
    level_density,
    make_grid,
)

__all__ = [
    "QlsFit",
    "fit_oqls",
    "fit_gqls",
    "fit_mle",
    "fit_sample",
    "asymptotic_cov",
    "qls_weights",
    "DEFAULT_GRID",
]

# the grid of every numeric MLE's starting fit, shared so that its plans are
# built once per process
DEFAULT_GRID = make_grid(0.05, 0.95, 25)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal float64


@dataclass(frozen=True)
class QlsFit:
    """A fitted location-scale model.

    asy_cov is the full-sample covariance of the estimated parameters (the
    per-observation matrix already divided by n); it is None when the inputs
    required to evaluate it were not supplied.
    """

    kind: str  # "oqls" | "gqls" | "mle"
    params: Params
    mode: ParamMode
    asy_cov: np.ndarray | None = None
    grid: QuantileGrid | None = None
    response: QuantileResponse | None = field(default=None, repr=False)
    warnings: tuple[str, ...] = ()

    @property
    def mu(self) -> float:
        return self.params.mu

    @property
    def sigma(self) -> float:
        return self.params.sigma

    def stderr(self) -> np.ndarray | None:
        if self.asy_cov is None:
            return None
        return np.sqrt(np.diag(self.asy_cov))


def _response(y, n) -> tuple[np.ndarray, int, tuple[str, ...]]:
    """Quantile values, source sample size and warning tags of a response;
    NonFiniteData when bare values hold NaN or an infinity (a
    QuantileResponse refuses them when it is made)."""
    if isinstance(y, QuantileResponse):
        return np.asarray(y.values, dtype=float), y.n, tuple(y.warnings)
    if n is None:
        raise ValueError("n is required when the response is a bare array")
    yv = np.asarray(y, dtype=float).ravel()
    if not np.isfinite(yv).all():
        raise NonFiniteData("quantile response holds NaN or infinite values")
    return yv, int(n), ()


def _full_design(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(
            "fits take the full k x 2 design [1, Q0(p)]; the parameter mode "
            "selects the columns actually used"
        )
    return x


def _absorb_known(yv: np.ndarray, x: np.ndarray, mode: ParamMode,
                  known_mu: float, known_sigma: float) -> np.ndarray:
    """Responses actually regressed (one per row), after absorbing the known
    parameter."""
    if mode is ParamMode.LOCATION_SCALE:
        return yv
    if mode is ParamMode.LOCATION_ONLY:
        return yv - known_sigma * x[:, 1]
    return yv - known_mu


def _assemble_params(beta: np.ndarray, mode: ParamMode,
                     known_mu: float, known_sigma: float) -> tuple[Params, tuple[str, ...]]:
    theta = [known_mu, known_sigma]
    theta[mode.columns] = beta
    params = Params(mu=float(theta[0]), sigma=float(theta[1]))
    tags = _scale_tags(params.sigma)
    if mode is ParamMode.LOCATION_ONLY and tags == (WARN_NON_POSITIVE_SCALE,):
        tags = ()  # a supplied scale is not an estimate; only its underflow is tagged
    return params, tags


def _check_known(known_mu: float, known_sigma: float | None = None) -> None:
    """DomainError unless the supplied location and scale (if any) are finite."""
    if not (math.isfinite(known_mu) and (known_sigma is None or math.isfinite(known_sigma))):
        raise DomainError(f"known parameters must be finite, got {known_mu}, {known_sigma}")


def _known_scale(method: str, known_sigma: float | None) -> float | None:
    """The known scale a method fits with: none for the MLE, which takes
    none (DomainError if one is given), else known_sigma, 1 when unset."""
    if method == "mle":
        if known_sigma is not None:
            raise DomainError("the MLE takes no known scale; known_sigma applies to the "
                              "QLS methods only")
        return None
    return 1.0 if known_sigma is None else known_sigma


def _scale_tags(sigma: float) -> tuple[str, ...]:
    """The tags of an estimated scale: ``non_positive_scale`` unless it is
    positive, ``scale_underflow`` when its square falls below the normal
    floating-point range (the covariance then reads 0)."""
    if not sigma > 0:
        return (WARN_NON_POSITIVE_SCALE,)
    return (WARN_SCALE_UNDERFLOW,) if sigma * sigma < _TINY else ()


def _squared_scale(sigma: float) -> float:
    """sigma ** 2; ScaleOverflow when it exceeds the floating-point range."""
    try:
        return sigma ** 2
    except OverflowError:
        raise ScaleOverflow(
            f"squared scale estimate {sigma:.6g}^2 overflows; rescale the data") from None


def _solve(kind: str, xm: np.ndarray, gram: np.ndarray, spacing: tuple | None,
           sigma: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Weights and standardized covariance of the fit on the columns of xm;
    the oQLS sandwich W S W' takes S from the spacings, else sigma, else I.

    Raises RankDeficient when a Cholesky pivot of the Gram equilibrated by
    its diagonal, D^-1/2 gram D^-1/2 (unit diagonal), falls at or below
    k * m * eps, the rounding of its k-term sums over m columns, or when the
    Gram is not finite.  The test therefore does not depend on the scale of
    each column: the constant column and a quantile column of order 1e8 at
    extreme levels are judged alike.  A Gram of one or two columns (every
    family plan and mode) is tested and inverted in closed form
    (``_inverse_2x2``); only a wider caller design goes through LAPACK.
    """
    tol = xm.shape[1] * gram.shape[0] * _EPS
    ginv = _inverse_2x2(gram, tol) if gram.shape[0] <= 2 else _inverse_lapack(gram, tol)
    w = ginv @ xm
    if kind == "gqls" or (spacing is None and sigma is None):
        return w, ginv
    cov = _sandwich(spacing, w) if spacing is not None else w @ sigma @ w.T
    return w, 0.5 * (cov + cov.T)


def _inverse_2x2(gram: np.ndarray, tol: float) -> np.ndarray:
    """Inverse of a 1 x 1 or 2 x 2 Gram in Python floats, exactly symmetric.

    The equilibrated Gram [[1, c], [c, 1]], c = g01 / sqrt(g00 g11), has the
    pivots 1 and q = 1 - c^2 = 1 - (g01 / g00)(g01 / g11).  The inverse is
    the adjugate over the determinant g00 g11 q, each entry divided through:
    1 / (g00 q), 1 / (g11 q) and -(g01 / g00) / (g11 q), so that no product
    of the two diagonal entries is formed (it could overflow where the
    inverse does not)."""
    g = gram.tolist()
    g00 = g[0][0]
    if not 0.0 < g00 < math.inf:
        raise RankDeficient(f"design is rank deficient: diagonal {g00!r}")
    if len(g) == 1:
        return np.array([[1.0 / g00]])
    g01, g11 = g[0][1], g[1][1]
    if not 0.0 < g11 < math.inf:
        raise RankDeficient(f"design is rank deficient: diagonal {g11!r}")
    t = g01 / g00
    q = 1.0 - t * (g01 / g11)
    if not q > tol:  # also NaN, from a non-finite g01
        raise RankDeficient(f"design is rank deficient: pivot {q:.3e}")
    h = g11 * q
    off = -t / h
    return np.array([[1.0 / (g00 * q), off], [off, 1.0 / h]])


def _inverse_lapack(gram: np.ndarray, tol: float) -> np.ndarray:
    """``_inverse_2x2`` for a wider Gram: the rank test on the Cholesky
    pivots of the equilibrated Gram, then LAPACK's inverse, symmetrized."""
    diag = gram.diagonal()
    try:
        if not (diag > 0.0).all():
            raise np.linalg.LinAlgError("non-positive diagonal")
        d = 1.0 / np.sqrt(diag)
        pivots = np.linalg.cholesky(gram * d[:, None] * d[None, :]).diagonal() ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)
    if not float(pivots.min()) > tol:
        raise RankDeficient(f"design is rank deficient: pivot {pivots.min():.3e}")
    ginv = np.linalg.inv(gram)
    return 0.5 * (ginv + ginv.T)


def _level_diffs(f: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Delta(z) = diff([0, f z, 0]) of each row of z: the k + 1 jumps of f z
    (np.diff with prepend= and append= gives the same bits at several times
    the cost on these short rows)."""
    fz = np.zeros(z.shape[:-1] + (z.shape[-1] + 2,))
    np.multiply(z, f, out=fz[..., 1:-1])
    return fz[..., 1:] - fz[..., :-1]


def _sandwich(spacing, w: np.ndarray) -> np.ndarray:
    """W S W' = sum_j d_j u_j u_j' over the spacings (p, d, f).  S is
    D^-1 S0 D^-1, D = diag(f) and S0 the covariance of a Brownian bridge at
    p, so with v = W / f, u_j = R_j - c where R is the reverse cumulative
    sum of v (R_(k+1) = 0) and c = v p.  u_j is summed as
    sum_(i >= j) v_i (1 - p_i) - sum_(i < j) v_i p_i, the same number
    without R_j cancelling c where f is small.  Raises NotPositiveDefinite
    when the result is not finite."""
    p, d, f = spacing
    u = np.zeros((w.shape[0], d.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        v = w / f
        u[:, :-1] = np.cumsum((v * (1.0 - p))[:, ::-1], axis=1)[:, ::-1]
        u[:, 1:] -= np.cumsum(v * p, axis=1)
        cov = (u * d) @ u.T
    if not np.isfinite(cov).all():
        raise NotPositiveDefinite("quantile covariance of the levels is not finite")
    return cov


def _row_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sums of a * b over the last axis.  The products go into a fresh
    C-contiguous buffer, so numpy's pairwise sum runs along each row in an
    order fixed by the row length alone: a row's sums are the same bits
    alone and in any block, whatever the memory order of a and b."""
    return np.multiply(a, b, order="C").sum(axis=-1)


def _fitted(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X beta for each row of beta, one vector op per design column in
    column order: each entry sums its m products left to right, whatever
    the number of rows."""
    out = beta[:, :1] * x[:, 0]
    for j in range(1, x.shape[1]):
        out += beta[:, j:j + 1] * x[:, j]
    return out


@dataclass(frozen=True, eq=False)
class FitPlan:
    """One estimator kind on one k x m design and quantile covariance.

    xm is X'P (gQLS) or X' (oQLS) and gram = X'PX or X'X; ``solver`` gives
    each mode's weights W (beta = W Y) and the standardized covariance of
    beta.  A family plan of either kind holds S only as ``spacing`` =
    (p, d, f), the levels, their k + 1 spacings and the standard densities:
    gQLS sums X'PX and X'P over the spacings, the oQLS sandwich is a sum
    over them (``_sandwich``), and so is ``quad``.  A plan for a
    caller-supplied S holds the matrix as sigma and, for gQLS, its Cholesky
    factor.  A single-parameter mode uses its sub-block of the Gram.

    ``solve`` and ``w_statistics`` work on a batch of responses, one per
    row, and every other fit or statistic goes through them.  Each sum over
    the levels is numpy's pairwise sum along a row of a fresh C-contiguous
    buffer (``_row_sums``; the squared spacing terms in ``quad``), whose
    order depends on the row length alone, so a row's result is the same
    bits whichever batch it is in.

    A QuantileGrid keeps each family plan built on it, keyed by (family,
    kind), with every array read-only, so ``for_family`` builds it once per
    grid object and hands the same plan out afterwards.
    """

    kind: str
    x: np.ndarray
    xm: np.ndarray
    gram: np.ndarray
    spacing: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    factor: SpdFactor | None = None
    sigma: np.ndarray | None = None
    _solved: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def for_family(cls, fam: Family, grid, kind: str) -> FitPlan:
        """The plan the grid object keeps for (fam, kind), built on first use
        (``_family_plan``); a raw level array gets a new plan on every call."""
        store = getattr(grid, "_plans", None)
        if store is None:
            return cls._family_plan(fam, grid, kind)
        key = (fam, kind)
        plan = store.get(key)
        if plan is None:
            # threads racing on a fresh grid all get the plan stored first
            plan = store.setdefault(key, cls._family_plan(fam, grid, kind)._read_only())
        return plan

    @classmethod
    def _family_plan(cls, fam: Family, grid, kind: str) -> FitPlan:
        """Plan for a family on a grid from one evaluation of Q0 and f0:
        the design [1, Q0(p)] and the spacings (p, d, f), d = diff([0, p, 1]).
        gQLS takes X'PX = sum_j Delta(x_a)_j Delta(x_b)_j / d_j and X'P from
        the same Delta of the two design columns (``_level_diffs``).  Nothing
        k x k is built, factorized or inverted."""
        if kind not in ("oqls", "gqls"):
            raise ValueError(f"unknown estimator kind {kind!r}")
        p, q, f = level_density(fam, grid)
        x = np.column_stack([np.ones_like(q), q])
        spacing = (p, np.diff(np.concatenate(([0.0], p, [1.0]))), f)
        if kind == "oqls":
            return cls._build(kind, x, x.T, spacing=spacing)
        dx = _level_diffs(f, x.T)
        dx_d = dx / spacing[1]
        # x_a' P = f Delta'(Delta(x_a) / d), and (Delta' u)_i = u_i - u_(i+1)
        return cls._build(kind, x, (dx_d[:, :-1] - dx_d[:, 1:]) * f, gram=dx @ dx_d.T,
                          spacing=spacing)

    @classmethod
    def from_matrices(cls, kind: str, x, sigma_star_mat) -> FitPlan:
        """Plan for a caller-supplied design and quantile covariance; the one
        place where S is factorized (gQLS solves against it).  A design with
        a non-finite entry raises RankDeficient, an S with one
        NotPositiveDefinite."""
        x = np.asarray(x, dtype=float)
        s = None if sigma_star_mat is None else np.asarray(sigma_star_mat, dtype=float)
        if not np.isfinite(x).all():
            raise RankDeficient("design is rank deficient: it has non-finite entries")
        if s is not None and not np.isfinite(s).all():
            raise NotPositiveDefinite("quantile covariance has non-finite entries")
        if kind == "oqls":
            return cls._build(kind, x, x.T, sigma=s)
        if kind != "gqls":
            raise ValueError(f"unknown estimator kind {kind!r}")
        if s is None:
            raise ValueError("gqls requires the quantile covariance")
        factor = spd_factorize(s)
        return cls._build(kind, x, solve_spd(factor, x).T, factor=factor, sigma=s)

    @classmethod
    def _build(cls, kind, x, xm, gram=None, **mats) -> FitPlan:
        gram = xm @ x if gram is None else gram
        return cls(kind=kind, x=x, xm=xm, gram=0.5 * (gram + gram.T), **mats)

    def _read_only(self) -> FitPlan:
        """This plan, with every array it holds made read-only."""
        for a in (self.x, self.xm, self.gram, *(self.spacing or ())):
            a.setflags(write=False)
        return self

    def solver(self, mode: ParamMode = ParamMode.LOCATION_SCALE) -> tuple[np.ndarray, np.ndarray]:
        """(W, C) for a mode: beta = W Y over the estimated columns and C the
        standardized covariance of beta (sigma^2 and 1/n stripped; S = I for
        an oQLS plan without S), solved on the mode's first call and kept
        read-only: threads racing on a fresh plan all get the pair kept
        first.  RankDeficient if the mode's Gram is singular."""
        solved = self._solved.get(mode)
        if solved is None:
            cols = mode.columns
            solved = _solve(self.kind, self.xm[cols], self.gram[cols, cols], self.spacing,
                            self.sigma)
            for a in solved:
                a.setflags(write=False)
            solved = self._solved.setdefault(mode, solved)
        return solved

    def solve(self, y: np.ndarray, mode: ParamMode = ParamMode.LOCATION_SCALE, *,
              known_mu: float = 0.0, known_sigma: float = 1.0) -> np.ndarray:
        """beta for each row of y (rows x k quantile values): a rows x m
        array over the parameters the mode estimates, (mu, sigma) jointly."""
        w = self.solver(mode)[0]
        y = _absorb_known(y, self.x, mode, known_mu, known_sigma)
        return _row_sums(y[:, None, :], w)

    def fit(self, y, mode: ParamMode = ParamMode.LOCATION_SCALE, *, n: int | None = None,
            known_mu: float = 0.0, known_sigma: float = 1.0) -> QlsFit:
        """Fit a quantile response (a QuantileResponse, or bare values with n).
        Raises ScaleOverflow when the squared scale estimate in the
        covariance exceeds the floating-point range, and DomainError when
        known_mu or known_sigma is not finite."""
        _check_known(known_mu, known_sigma)
        yv, n_obs, warns = _response(y, n)
        beta = self.solve(yv[None, :], mode, known_mu=known_mu, known_sigma=known_sigma)[0]
        params, scale_warn = _assemble_params(beta, mode, known_mu, known_sigma)
        asy_cov = None
        # a fit has a covariance only when S is known
        if self.spacing is not None or self.sigma is not None:
            asy_cov = _squared_scale(params.sigma) / n_obs * self.solver(mode)[1]
        return QlsFit(kind=self.kind, params=params, mode=mode, asy_cov=asy_cov,
                      response=y if isinstance(y, QuantileResponse) else None,
                      warnings=warns + scale_warn)

    def quad(self, e: np.ndarray) -> np.ndarray:
        """The quadratic form e' P e of each row of e: for a family plan the
        sum sum_j Delta(e)_j^2 / d_j over the k + 1 spacings, squared and
        scaled in place in a fresh buffer, else the row sums of e * S^-1 e."""
        if self.spacing is not None:
            _, d, f = self.spacing
            de = _level_diffs(f, e)
            de *= de
            de *= 1.0 / d
            return de.sum(axis=1)
        return _row_sums(e, solve_spd(self.factor, e.T).T)

    def w_statistics(self, y: np.ndarray, beta: np.ndarray, n: int) -> np.ndarray:
        """n e' P e for each row, with e = (y - X beta) / sigma and
        sigma = beta[:, 1]: W on the estimation levels, W_out on validation
        levels.  No sigma^2 is formed, so the statistic of the data times 2^j
        is the same bits as that of the data; one past the floating-point
        range reads inf or NaN, without a warning, for the caller to refuse."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e = _fitted(beta, self.x)
            np.subtract(y, e, out=e)
            e /= beta[:, 1:2]
            return n * self.quad(e)

    def q_split(self, yv: np.ndarray, beta_hat: np.ndarray,
                beta_true: np.ndarray, n: int) -> tuple[float, float, float]:
        """Q at the true parameters, Q1 at the fitted ones, and the
        parameter-error part Q2 = (n/sigma^2) d' X'PX d with d = bhat - b."""
        s = beta_true[1]
        diff = (beta_hat - beta_true) / s
        q, q1 = n * self.quad((yv - _fitted(np.stack([beta_true, beta_hat]), self.x)) / s)
        return float(q), float(q1), n * float(diff @ self.gram @ diff)

    def projection_covs(self) -> tuple[np.ndarray, np.ndarray]:
        """Standardized residual and fitted covariances, S - H and H, with
        H = X (X'PX)^-1 X', for a plan that holds the dense S."""
        hat = self.x @ self.solver()[1] @ self.x.T
        return self.sigma - hat, hat


def asymptotic_cov(kind: str, x: np.ndarray, sigma_star_mat: np.ndarray | None,
                   sigma_hat: float, n: int) -> np.ndarray:
    """Asymptotic covariance of the fitted parameters, divided by n.

    x is the effective design (k x m).  For "oqls" the standardized quantile
    covariance is required; identity is assumed when it is None.
    """
    cov = FitPlan.from_matrices(kind, x, sigma_star_mat).solver()[1]
    return float(sigma_hat) ** 2 / n * cov


def fit_oqls(y, x, sigma_star_mat: np.ndarray | None = None, *,
             n: int | None = None, mode: ParamMode = ParamMode.LOCATION_SCALE,
             known_mu: float = 0.0, known_sigma: float = 1.0,
             plan: FitPlan | None = None) -> QlsFit:
    """Ordinary least squares on the quantile regression; x is the full
    k x 2 design.  The covariance is evaluated only when sigma_star_mat is
    given (it enters the sandwich).  A prebuilt oQLS plan, when given,
    stands in for x and sigma_star_mat."""
    if plan is None:
        plan = FitPlan.from_matrices("oqls", _full_design(x), sigma_star_mat)
    return plan.fit(y, mode, n=n, known_mu=known_mu, known_sigma=known_sigma)


def fit_gqls(y, x, sigma_star_mat: np.ndarray, *,
             n: int | None = None, mode: ParamMode = ParamMode.LOCATION_SCALE,
             known_mu: float = 0.0, known_sigma: float = 1.0,
             plan: FitPlan | None = None) -> QlsFit:
    """Generalized least squares weighted by the inverse of the standardized
    quantile covariance.  A prebuilt gQLS plan, when given, stands in for x
    and sigma_star_mat."""
    if plan is None:
        plan = FitPlan.from_matrices("gqls", _full_design(x), sigma_star_mat)
    return plan.fit(y, mode, n=n, known_mu=known_mu, known_sigma=known_sigma)


def qls_weights(kind: str, x: np.ndarray, sigma_star_mat: np.ndarray | None = None) -> np.ndarray:
    """The m x k weight matrix W with beta = W @ Y.

    oQLS: (X'X)^-1 X'; gQLS: (X'PX)^-1 X'P.
    """
    return FitPlan.from_matrices(kind, x, sigma_star_mat).solver()[0]


# ---------------------------------------------------------------------------
# maximum likelihood baselines
# ---------------------------------------------------------------------------

def _cauchy_kernel(z):
    """log f0(z) = -log(pi (1 + z^2)) and its first two derivatives in z,
    finite for every finite z: with r = hypot(1, z), c = 1/r and s = z/r,
    d1 = -2 s c, d2 = 2 (s^2 - c^2) c^2, and log(1 + z^2) = 2 log r from
    |z| = 1 on, where z^2 may overflow."""
    r = np.hypot(1.0, z)
    c = 1.0 / r
    s = z * c
    with np.errstate(over="ignore"):
        zz = z * z
    lf = -math.log(math.pi) - np.where(zz < 1.0, np.log1p(zz), 2.0 * np.log(r))
    return lf, -2.0 * s * c, 2.0 * (s * s - c * c) * c * c


def _logistic_kernel(z):
    """log f0(z) = -|z| - 2 log(1 + e^-|z|), d1 = -tanh(z/2) and
    d2 = -2 f0(z) = -2 e^-|z| / (1 + e^-|z|)^2."""
    e = np.exp(-np.abs(z))
    return -np.abs(z) - 2.0 * np.log1p(e), -np.tanh(0.5 * z), -2.0 * e / ((1.0 + e) * (1.0 + e))


def _gumbel_kernel(z):
    """log f0(z) = -z - e^-z, d1 = e^-z - 1 and d2 = -e^-z; below z = -709.78
    log f0 is below the floating-point range, and e^-z overflows to make it -inf."""
    with np.errstate(over="ignore"):
        e = np.exp(-z)
    return -z - e, e - 1.0, -e


_NUMERIC_MLE = {"cauchy": _cauchy_kernel, "logistic": _logistic_kernel, "gumbel": _gumbel_kernel}


def _loglik(kernel, t, x):
    """L(t) = n log b + sum_i log f0(b x_i - a) at t = (a, b), b > 0, with
    its gradient and Hessian in t; (-inf, None, None) where L is not finite."""
    a, b = t
    with np.errstate(over="ignore", invalid="ignore"):
        lf, d1, d2 = kernel(b * x - a)
        ll = x.size * math.log(b) + float(np.sum(lf))
        if not math.isfinite(ll):
            return -math.inf, None, None
        d2x = d2 * x
        s1, s1x, s2, s2x, s2xx = np.sum([d1, d1 * x, d2, d2x, d2x * x], axis=1).tolist()
    nb = x.size / b
    return ll, np.array([-s1, nb + s1x]), np.array([[s2, -s2x], [-s2x, s2xx - nb / b]])


def _newton_mle(kernel, theta0, x):
    """Maximize L(t) = n log b + sum_i log f0(b x_i - a) over t = (a, b) =
    (mu / sigma, 1 / sigma) from theta0 = (mu0, sigma0); returns (mu, sigma).
    For a log-concave f0, as the logistic and gumbel are, L is concave in t
    (Pratt 1981).

    Start: sigma0 is doubled, mu0 kept (t halved), while L is not finite or
    still rises.  Step: Newton's where the Hessian H is negative definite,
    else the gradient g divided by |diag H| (the cauchy is not log-concave),
    backtracked by Armijo with b kept positive.  A step whose predicted rise
    g'p (for a Newton step, the Newton decrement) is at most 1e-10 (n + |L|),
    where Armijo's 1e-4 of it is lost in the rounding of L, is taken in full,
    and the fit has converged when such a step moves each t_j by at most
    1e-9 (1 + |t_j|).  Raises NoConvergence when L is finite at no doubled
    scale, when the line search fails, and after 100 steps.
    """
    t = np.array([theta0[0], 1.0]) / theta0[1]
    cur = _loglik(kernel, t, x)
    while True:
        if t[1] * 0.5 == 0.0:
            raise NoConvergence("log-likelihood not finite at any scale")
        wider = _loglik(kernel, 0.5 * t, x)
        if cur[0] > -math.inf and not wider[0] > cur[0]:
            break
        t, cur = 0.5 * t, wider
    for it in range(1, 101):
        ll, g, h = cur
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if h[0, 0] < 0.0 and det > 0.0:
            p = np.array([h[0, 1] * g[1] - h[1, 1] * g[0],
                          h[1, 0] * g[0] - h[0, 0] * g[1]]) / det
        else:  # a nan or infinite step fails the line search below
            p = g / np.abs(np.diag(h))
        rise = float(g @ p)
        flat = rise <= 1e-10 * (x.size + abs(ll))
        lam = 1.0
        while t[1] + lam * p[1] <= 0.0:
            lam *= 0.5
        for _ in range(60):
            nxt = _loglik(kernel, t + lam * p, x)
            if nxt[0] >= ll + 1e-4 * lam * rise or (flat and nxt[0] > -math.inf):
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"line search failed at iteration {it}")
        t, cur = t + lam * p, nxt
        if flat and np.all(np.abs(lam * p) <= 1e-9 * (1.0 + np.abs(t))):
            return t[0] / t[1], 1.0 / t[1]
    raise NoConvergence("Newton did not converge in 100 iterations")


def _robust_init(fam: Family, data: np.ndarray) -> np.ndarray:
    q25, q50, q75 = np.quantile(data, [0.25, 0.5, 0.75])
    denom = float(fam.qf(0.75) - fam.qf(0.25))
    sigma0 = max((q75 - q25) / denom, 1e-12 * (1.0 + abs(q50)))
    mu0 = q50 - sigma0 * float(fam.qf(0.5))
    return np.array([mu0, sigma0])


def _mle_init(fam: Family, data: np.ndarray) -> np.ndarray:
    """The joint gQLS estimate on ``DEFAULT_GRID``, or on as many levels as
    there are data when n < k (no covariance, so a scale whose square
    overflows still starts here), else ``_robust_init``."""
    try:
        grid = DEFAULT_GRID
        if data.size < grid.k:
            grid = make_grid(grid.a, grid.b, max(2, data.size))
        init = FitPlan.for_family(fam, grid, "gqls").solve(
            empirical_quantiles(data, grid).values[None, :])[0]
        if init[1] > 0 and np.all(np.isfinite(init)):
            return init
    except QlsError:
        pass
    return _robust_init(fam, data)


# inverse standardized Fisher information of each joint MLE, inverted once
_INV_INFO = {name: np.linalg.inv(FAMILIES[name].fisher_info())
             for name in ("normal", "laplace", *_NUMERIC_MLE)}


def _unit_power(scale: float) -> float:
    """The power of two nearest ``scale`` > 0 on a log scale, at most 2^1023;
    scaling by it loses no bits."""
    frac, exp = math.frexp(scale)  # scale = frac 2^exp, 0.5 <= frac < 1
    return math.ldexp(1.0, min(exp if frac >= math.sqrt(0.5) else exp - 1, 1023))


def _numeric_mle(fam: Family, x: np.ndarray) -> np.ndarray:
    """``_newton_mle`` on x / s - m, with s the power of two nearest the
    starting scale (``_mle_init``) and m the starting location over s, so
    that its tolerances are relative to the data's scale and no term of
    b x - a cancels a large location: the fit of x 2^j is 2^j times the fit
    of x while no value leaves the normal range."""
    if x.min() == x.max():  # constant data: sigma = 0 (see _mle_rows), no search
        return np.array([x[0], 0.0])
    mu0, sigma0 = _mle_init(fam, x)
    if not sigma0 < math.inf:
        raise ScaleOverflow("the starting scale exceeds the floating-point range; "
                            "rescale the data")
    s = _unit_power(float(sigma0))
    m = mu0 / s
    mu, sigma = _newton_mle(_NUMERIC_MLE[fam.name], (0.0, sigma0 / s), x / s - m)
    return np.array([m + mu, sigma]) * s


def _mle_estimates(fam: Family, rows: np.ndarray, finite: np.ndarray,
                   errors: dict[int, QlsError], scale_only: bool,
                   known_mu: float) -> np.ndarray:
    """(mu, sigma) of each row by the family's MLE; records each failed
    row's error in ``errors``.  The closed forms run once on all rows, with
    the same sums per row as on one row; the numeric families are maximized
    row by row."""
    n = rows.shape[1]
    theta = np.empty((rows.shape[0], 2))
    # failed rows may overflow or divide by zero here; the caller sets them to NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if scale_only:
            shifted = rows - known_mu
            for i in np.flatnonzero(finite & np.any(shifted <= 0.0, axis=1)):
                errors[int(i)] = DomainError(
                    f"{fam.name}: all data must exceed the known location")
            theta[:, 0] = known_mu
            if fam.name == "exponential":
                theta[:, 1] = np.mean(shifted, axis=1)
            else:
                theta[:, 1] = n / np.sum(1.0 / shifted, axis=1)
        elif fam.name == "normal":
            theta[:, 0] = np.mean(rows, axis=1)
            # reuse the mean (np.std's mean= needs NumPy 2.0): the same sum
            # and division as np.std's own pass
            theta[:, 1] = np.std(rows, axis=1, mean=theta[:, :1])
        elif fam.name == "laplace":
            med = np.median(rows, axis=1)
            theta[:, 0] = med
            theta[:, 1] = np.mean(np.abs(rows - med[:, None]), axis=1)
        else:
            for i in np.flatnonzero(finite):
                try:
                    theta[i] = _numeric_mle(fam, rows[i])
                except QlsError as exc:
                    errors[int(i)] = exc
    return theta


def _mle_rows(fam: Family, rows: np.ndarray, mode: ParamMode = ParamMode.LOCATION_SCALE,
              known_mu: float = 0.0) -> tuple[np.ndarray, dict[int, QlsError]]:
    """Maximum likelihood (mu, sigma) of each row of a (rows, n) sample array
    (see ``fit_mle``; a scale-only fit reports known_mu as mu), and the error
    of each row whose fit failed, keyed by row.  A failed row reads NaN.

    A row fails with NonFiniteData when it holds NaN or an infinity, with
    ScaleOverflow when its estimates are not finite, and with the error of
    its own fit otherwise.  A scale estimate at or below n * eps * |mu|, or
    below the normal floating-point range, is checked on its row alone: a
    joint fit of constant data has sigma = 0 (which ``fit_mle`` tags
    ``non_positive_scale``), and a scale that underflowed is refitted on the
    row scaled by a power of two, which loses no bits.  Other rows keep the
    estimates of the plain formulas.  Raises for the whole batch when n < 2
    or the family has no MLE in this mode.
    """
    n = rows.shape[1]
    if n < 2:
        raise EmptySample("MLE needs at least two observations")
    scale_only = fam.name in ("exponential", "levy")
    if scale_only and mode is not ParamMode.SCALE_ONLY:
        raise Unavailable(
            f"{fam.name}: joint MLE is unavailable; use scale-only mode "
            "with the location supplied"
        )
    if not scale_only and mode is not ParamMode.LOCATION_SCALE:
        raise Unavailable(f"{fam.name}: MLE is implemented for the joint mode only")

    finite = np.isfinite(rows).all(axis=1)
    errors: dict[int, QlsError] = {
        int(i): NonFiniteData("sample holds NaN or infinite values")
        for i in np.flatnonzero(~finite)}
    theta = _mle_estimates(fam, rows, finite, errors, scale_only, known_mu)
    low = ~(theta[:, 1] > np.maximum(_TINY, n * _EPS * np.abs(theta[:, 0])))
    for i in np.flatnonzero(finite & low):
        if int(i) in errors:
            continue
        x = rows[i] - known_mu if scale_only else rows[i]
        if not scale_only and x.min() == x.max():
            # the likelihood of constant data grows without bound as sigma -> 0
            theta[i] = x[0], 0.0
        elif theta[i, 1] < _TINY:
            s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(x))))[1])
            t = _mle_estimates(fam, x[None, :] / s, finite[i:i + 1], {}, scale_only, 0.0)[0]
            theta[i] = (known_mu if scale_only else t[0] * s), t[1] * s
    for i in np.flatnonzero(~np.isfinite(theta).all(axis=1)):
        errors.setdefault(int(i), ScaleOverflow(
            "MLE estimates exceed the floating-point range; rescale the data"))
    theta[list(errors)] = np.nan
    return theta, errors


def fit_mle(fam: Family, data, mode: ParamMode = ParamMode.LOCATION_SCALE, *,
            known_mu: float = 0.0) -> QlsFit:
    """Maximum likelihood fit.

    Closed forms: normal (mean, population std), laplace (median, mean
    absolute deviation), exponential and levy in scale-only mode with the
    location supplied.  Cauchy, logistic, and gumbel are maximized
    numerically (Newton on the exact derivatives of the log-density),
    started at the gQLS fit on ``DEFAULT_GRID``.  The joint exponential/levy
    MLE is not defined here (the location parameter sits on the support
    boundary).
    Raises DomainError for a known_mu that is not finite, NonFiniteData when
    the data hold NaN or an infinity, and ScaleOverflow when the scale
    estimate or its square exceeds the floating-point range.
    A joint fit of constant data returns sigma = 0 tagged
    ``non_positive_scale``, and a positive scale whose square underflows is
    tagged ``scale_underflow``, as in a QLS fit.
    """
    x = np.asarray(data, dtype=float).ravel()
    _check_known(known_mu)
    theta, errors = _mle_rows(fam, x[None, :], mode, known_mu)
    if errors:
        raise errors[0]
    sigma = float(theta[0, 1])
    if mode is ParamMode.SCALE_ONLY:
        params = Params(mu=known_mu, sigma=sigma)
        cov = np.array([[_squared_scale(sigma) / (x.size * fam.fisher_info(mode)[0, 0])]])
    else:
        params = Params(mu=float(theta[0, 0]), sigma=sigma)
        cov = _squared_scale(sigma) / x.size * _INV_INFO[fam.name]
    return QlsFit(kind="mle", params=params, mode=mode, asy_cov=cov,
                  warnings=_scale_tags(sigma))


def fit_sample(data, fam: Family, grid: QuantileGrid, method: str = "gqls",
               mode: ParamMode = ParamMode.LOCATION_SCALE, *,
               known_mu: float = 0.0, known_sigma: float | None = None) -> QlsFit:
    """Fit raw data: extract quantiles, plan the method for the family on the
    grid, and fit.  known_mu serves every method's fixed-location mode;
    known_sigma serves the QLS methods' location-only mode (1 when unset),
    and ``method="mle"`` refuses one with DomainError, since ``fit_mle``
    takes no scale."""
    if method not in ("oqls", "gqls", "mle"):
        raise DomainError(f"unknown method {method!r}")
    known_sigma = _known_scale(method, known_sigma)
    if method == "mle":
        return fit_mle(fam, data, mode, known_mu=known_mu)
    y = empirical_quantiles(data, grid)
    plan = FitPlan.for_family(fam, grid, method)
    fit = (fit_gqls if method == "gqls" else fit_oqls)(
        y, plan.x, plan.sigma, mode=mode, known_mu=known_mu, known_sigma=known_sigma, plan=plan)
    return replace(fit, grid=grid)
