import math

import numpy as np
import pytest

from qls.efficiency import standardized_cov
from qls.errors import DomainError, ScaleOverflow
from qls.estimators import FitPlan, fit_sample
from qls.families import FAMILIES, ParamMode, Params, get_family
from qls.quantiles import _positions, empirical_quantiles, make_grid
from qls.robustness import (
    breakdown_point,
    if_estimator,
    if_quantile,
    influence_curve,
)

GRID = make_grid(0.05, 0.95, 25)


def test_breakdown_point_values():
    bp = breakdown_point(make_grid(0.05, 0.95, 25))
    assert (bp.lower, bp.upper, bp.value) == (0.05, pytest.approx(0.05), pytest.approx(0.05))
    bp = breakdown_point(make_grid(0.10, 0.75, 25))
    assert bp.lower == 0.10
    assert bp.upper == pytest.approx(0.25)
    assert bp.value == pytest.approx(0.10)
    assert breakdown_point(make_grid(0.02, 0.98, 25)).value == pytest.approx(0.02)


@pytest.mark.parametrize("kind", ["gqls", "oqls"])
def test_finite_sample_breakdown_follows_the_grid_positions(kind):
    # Donoho & Huber 1983: replacing the m largest (or smallest) of n values
    # by +1e300 (or -1e300) leaves the fit's bits alone while no replaced
    # value lies at a position the grid reads, and carries the scale away
    # once one does.  At n = 1000 the grid (0.05, 0.95, 25) reads positions
    # 49 to 949 (0-based): n a - 1 = 49 values may go at the bottom and
    # n (1 - b) = 50 at the top.
    fam, n = get_family("logistic"), 1000
    bp, pos = breakdown_point(GRID), _positions(n, GRID)[0]
    safe = {-1.0: int(pos[0]), 1.0: n - 1 - int(pos[-1])}
    assert (safe[-1.0], safe[1.0]) == (round(n * bp.lower) - 1, round(n * bp.upper)) == (49, 50)
    x = fam.sample(Params(0.3, 2.0), n, np.random.default_rng(5))
    order = np.argsort(x)
    clean = fit_sample(x, fam, GRID, kind)
    plan = FitPlan.for_family(fam, GRID, kind)

    def replaced(side, m):
        y = x.copy()
        y[order[n - m:] if side > 0 else order[:m]] = side * 1e300
        return y

    for side, last in safe.items():
        for m in range(last + 1):
            fit = fit_sample(replaced(side, m), fam, GRID, kind)
            assert fit.params == clean.params and fit.warnings == clean.warnings, (side, m)
            assert fit.asy_cov.tobytes() == clean.asy_cov.tobytes(), (side, m)
        y = replaced(side, last + 1)
        assert plan.solve(empirical_quantiles(y, GRID).values[None])[0, 1] > 1e200
        # the fit refuses a scale whose square overflows, as documented
        with pytest.raises(ScaleOverflow):
            fit_sample(y, fam, GRID, kind)


def test_if_quantile_normal_median():
    fam = get_family("normal")
    p = Params(0.0, 1.0)
    val = 0.5 * math.sqrt(2.0 * math.pi)
    assert if_quantile(10.0, 0.5, fam, p) == pytest.approx(val, abs=1e-7)
    assert if_quantile(-10.0, 0.5, fam, p) == pytest.approx(-val, abs=1e-7)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_if_quantile_jump_size(name):
    fam = get_family(name)
    params = Params(0.5, 2.0)
    lvl = 0.4
    q = float(fam.qf(lvl))
    jump_at = params.mu + params.sigma * q
    eps = 1e-9
    below = if_quantile(jump_at + eps, lvl, fam, params)
    at = if_quantile(jump_at, lvl, fam, params)  # indicator inclusive at the jump
    gap = below - at
    assert gap == pytest.approx(params.sigma / float(fam.pdf(q)), rel=1e-9)


def test_if_estimator_symmetry_for_gqls_normal():
    fam = get_family("normal")
    params = Params(0.0, 1.0)
    xs = np.linspace(0.1, 6.0, 40)
    pos_mu, _ = if_estimator(xs, "gqls", fam, params, GRID)
    neg_mu, _ = if_estimator(-xs, "gqls", fam, params, GRID)
    assert np.max(np.abs(pos_mu + neg_mu)) < 1e-10


def test_if_estimator_constant_beyond_extremes():
    fam = get_family("gumbel")
    params = Params(0.0, 1.0)
    top = params.mu + params.sigma * float(fam.qf(GRID.levels[-1]))
    lo = params.mu + params.sigma * float(fam.qf(GRID.levels[0]))
    far = np.array([top + 1.0, top + 50.0, top + 500.0])
    mu_vals, sig_vals = if_estimator(far, "oqls", fam, params, GRID)
    assert np.ptp(mu_vals) == 0.0
    assert np.ptp(sig_vals) == 0.0
    below = np.array([lo - 1.0, lo - 100.0])
    mu_b, sig_b = if_estimator(below, "gqls", fam, params, GRID)
    assert np.ptp(mu_b) == 0.0 and np.ptp(sig_b) == 0.0


@pytest.mark.parametrize("name", list(FAMILIES))
@pytest.mark.parametrize("kind", ["oqls", "gqls"])
def test_if_estimator_bounded(name, kind):
    fam = get_family(name)
    params = Params(0.0, 1.0)
    span = (float(fam.qf(0.001)), float(fam.qf(0.999)))
    xs = np.linspace(span[0] - 5.0, span[1] + 5.0, 500)
    mu_vals, sig_vals = if_estimator(xs, kind, fam, params, GRID)
    assert np.all(np.isfinite(mu_vals)) and np.all(np.isfinite(sig_vals))
    assert np.max(np.abs(mu_vals)) < 1e6 and np.max(np.abs(sig_vals)) < 1e6


def test_if_estimator_piecewise_constant_between_jumps():
    fam = get_family("logistic")
    params = Params(1.0, 0.5)
    q = np.asarray(fam.qf(GRID.levels))
    jumps = params.mu + params.sigma * q
    # probe strictly inside each inter-jump interval
    for lo, hi in zip(jumps[:-1], jumps[1:]):
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 5)
        mu_vals, sig_vals = if_estimator(xs, "gqls", fam, params, GRID)
        assert np.ptp(mu_vals) == 0.0
        assert np.ptp(sig_vals) == 0.0


def test_if_estimator_scale_equivariance():
    fam = get_family("laplace")
    base = Params(0.0, 1.0)
    scaled = Params(0.0, 3.0)
    xs = np.linspace(-4.0, 4.0, 81)
    mu1, sig1 = if_estimator(xs, "gqls", fam, base, GRID)
    mu3, sig3 = if_estimator(3.0 * xs, "gqls", fam, scaled, GRID)
    assert np.allclose(mu3, 3.0 * mu1, atol=1e-10)
    assert np.allclose(sig3, 3.0 * sig1, atol=1e-10)


def test_if_mu_mean_zero_under_model():
    fam = get_family("normal")
    params = Params(0.0, 1.0)
    draws = fam.sample(params, 100_000, np.random.default_rng(31))
    mu_vals, _ = if_estimator(draws, "gqls", fam, params, GRID)
    assert abs(np.mean(mu_vals)) < 0.02


@pytest.mark.parametrize("name", list(FAMILIES))
def test_if_mu_integrates_to_zero(name):
    # substitute x = Q0(u): the model-expectation of the influence becomes a
    # finite integral over u with breakpoints exactly at the grid levels
    from scipy import integrate

    fam = get_family(name)
    params = Params(0.0, 1.0)

    def integrand(u):
        mu_val, _ = if_estimator(float(fam.qf(u)), "gqls", fam, params, GRID)
        return mu_val

    total, _ = integrate.quad(integrand, 1e-12, 1.0 - 1e-12,
                              points=list(GRID.levels), limit=200)
    assert abs(total) < 1e-3


def test_influence_curve_structure():
    fam = get_family("normal")
    params = Params(0.0, 1.0)
    curve = influence_curve("oqls", fam, params, GRID, (-5.0, 5.0), points=101)
    assert curve.x.shape == curve.if_mu.shape == curve.if_sigma.shape
    assert np.all(np.diff(curve.x) > 0)
    # distinct values of a piecewise-constant curve: at most k+1 plateaus
    assert np.unique(np.round(curve.if_mu, 12)).size <= GRID.k + 1
    # oqls location influence is a nondecreasing step shape
    assert np.all(np.diff(curve.if_mu) >= -1e-12)


def test_influence_curve_cauchy_gqls_redescends():
    fam = get_family("cauchy")
    curve = influence_curve("gqls", fam, Params(0.0, 1.0), GRID, (-30.0, 30.0),
                            points=601)
    diffs = np.diff(curve.if_mu)
    assert np.any(diffs > 1e-12) and np.any(diffs < -1e-12)  # non-monotone
    # redescending: the far tails sit below the peak influence
    assert abs(curve.if_mu[-1]) < np.max(np.abs(curve.if_mu)) * 0.9


def test_influence_curve_straddles_jumps():
    fam = get_family("laplace")
    params = Params(0.0, 2.0)
    curve = influence_curve("gqls", fam, params, GRID, (-8.0, 8.0), points=50)
    eps = 1e-9 * params.sigma
    for j in curve.jumps:
        assert np.any(np.isclose(curve.x, j - eps, rtol=0, atol=1e-15))
        assert np.any(np.isclose(curve.x, j + eps, rtol=0, atol=1e-15))


def test_influence_is_nan_at_a_nan_point():
    # NaN compares false with every jump; it must not read as the influence
    # at +inf
    fam, params = get_family("logistic"), Params(0.5, 2.0)
    assert math.isnan(if_quantile(float("nan"), 0.3, fam, params))
    got = if_quantile(np.array([-1.0, np.nan, 4.0]), 0.3, fam, params)
    assert np.isnan(got[1])
    assert got[[0, 2]].tolist() == if_quantile(np.array([-1.0, 4.0]), 0.3, fam, params).tolist()
    for kind in ("gqls", "oqls"):
        assert all(math.isnan(v) for v in if_estimator(float("nan"), kind, fam, params, GRID))
        xs = np.array([-30.0, np.nan, 0.1, 30.0])
        want = if_estimator(xs[[0, 2, 3]], kind, fam, params, GRID)
        alone = [if_estimator(x, kind, fam, params, GRID) for x in xs[[0, 2, 3]]]
        for got, ref, single in zip(if_estimator(xs, kind, fam, params, GRID), want,
                                    zip(*alone)):
            assert np.isnan(got[1])
            # a point's influence is the same bits in any batch and alone
            assert got[[0, 2, 3]].tobytes() == ref.tobytes() == np.array(single).tobytes()


def test_influence_refuses_parameters_of_no_distribution():
    # the influence reads each point's interval between the jumps
    # mu + sigma Q0(p), which increase only for a finite mu and 0 < sigma < inf;
    # a single quantile's influence takes the same check
    fam = get_family("logistic")
    for params in (Params(0.0, 0.0), Params(0.0, -1.0), Params(0.0, math.inf),
                   Params(math.nan, 1.0), Params(-math.inf, 1.0), Params(0.0, math.nan)):
        with pytest.raises(DomainError):
            if_quantile(0.0, 0.3, fam, params)
        with pytest.raises(DomainError):
            if_quantile(np.array([-1.0, 1.0]), 0.3, fam, params)
        with pytest.raises(DomainError):
            if_estimator(0.5, "gqls", fam, params, GRID)
        with pytest.raises(DomainError):
            influence_curve("oqls", fam, params, GRID, (-1.0, 1.0))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("kind", ["gqls", "oqls"])
def test_influence_second_moment_equals_the_standardized_covariance(name, kind):
    # E[IF IF'] over the standard member, exactly: the influence is constant
    # on each of the k + 1 intervals between the level quantiles, so it is
    # the sum of (p_j - p_(j-1)) IF_j IF_j', IF_j taken at Q0 of the
    # interval's middle level; it equals the asymptotic covariance C
    fam = get_family(name)
    for grid in (GRID, make_grid(0.10, 0.90, 9), make_grid(0.02, 0.98, 40)):
        edges = np.concatenate(([0.0], grid.levels, [1.0]))
        mid = fam.qf((edges[:-1] + edges[1:]) / 2)
        ifs = np.stack(if_estimator(mid, kind, fam, Params(0.0, 1.0), grid))
        second = (ifs * np.diff(edges)) @ ifs.T
        cov = standardized_cov(kind, fam, grid, ParamMode.LOCATION_SCALE)
        assert np.max(np.abs(second - cov)) <= 1e-12 * np.max(np.abs(cov)), grid
