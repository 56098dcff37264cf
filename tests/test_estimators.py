import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qls
from qls import estimators, linalg, quantiles
from qls.efficiency import are
from qls.errors import (
    WARN_NON_POSITIVE_SCALE,
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
from qls.estimators import (
    FitPlan,
    asymptotic_cov,
    fit_gqls,
    fit_mle,
    fit_oqls,
    fit_sample,
    qls_weights,
)
from qls.families import FAMILIES, Family, ParamMode, Params, get_family
from qls.gof import bootstrap_pvalue
from qls.linalg import det
from qls.quantiles import (
    QuantileResponse,
    design_matrix,
    empirical_quantiles,
    make_grid,
    sigma_star,
)
from qls.simulate import ContaminationSpec, EstimatorSpec, McConfig, run_mc, run_power_study

NORMAL = get_family("normal")
GRID = make_grid(0.05, 0.95, 25)
X = design_matrix(NORMAL, GRID)
S = sigma_star(NORMAL, GRID)


def response_from(values, n=1000):
    return QuantileResponse(values=np.sort(np.asarray(values, float)), n=n)


def _max_rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_oqls_exact_fit_recovers_beta():
    beta = np.array([1.5, 2.0])
    y = QuantileResponse(values=X @ beta, n=500)
    fit = fit_oqls(y, X, S)
    assert fit.mu == pytest.approx(1.5, abs=1e-12)
    assert fit.sigma == pytest.approx(2.0, abs=1e-12)
    assert fit.warnings == ()


def test_oqls_two_point_line():
    g2 = make_grid(0.25, 0.75, 2)
    x2 = design_matrix(NORMAL, g2)
    q = x2[:, 1]
    y = QuantileResponse(values=np.array([-1.0, 3.0]), n=50)
    fit = fit_oqls(y, x2, sigma_star(NORMAL, g2))
    sigma = (3.0 - (-1.0)) / (q[1] - q[0])
    mu = -1.0 - sigma * q[0]
    assert fit.sigma == pytest.approx(sigma, rel=1e-12)
    assert fit.mu == pytest.approx(mu, rel=1e-12)


def test_oqls_matches_normal_equations_oracle():
    # independent oracle: explicit 2x2 normal equations via the adjugate
    rng = np.random.default_rng(7)
    y = np.sort(rng.standard_normal(25))
    a11 = float(X[:, 0] @ X[:, 0])
    a12 = float(X[:, 0] @ X[:, 1])
    a22 = float(X[:, 1] @ X[:, 1])
    b1 = float(X[:, 0] @ y)
    b2 = float(X[:, 1] @ y)
    d = a11 * a22 - a12 * a12
    oracle = np.array([(a22 * b1 - a12 * b2) / d, (a11 * b2 - a12 * b1) / d])
    fit = fit_oqls(QuantileResponse(values=y, n=25), X, S)
    assert np.allclose([fit.mu, fit.sigma], oracle, atol=1e-10)


def test_gqls_identity_matches_oqls():
    rng = np.random.default_rng(21)
    for _ in range(20):
        y = QuantileResponse(values=np.sort(rng.standard_normal(25)), n=100)
        eye = np.eye(25)
        a = fit_oqls(y, X, eye)
        b = fit_gqls(y, X, eye)
        assert abs(a.mu - b.mu) < 1e-10
        assert abs(a.sigma - b.sigma) < 1e-10
        assert np.max(np.abs(a.asy_cov - b.asy_cov)) < 1e-10


def test_gqls_exact_fit_recovers_beta():
    beta = np.array([-0.25, 0.5])
    y = QuantileResponse(values=X @ beta, n=300)
    fit = fit_gqls(y, X, S)
    assert fit.mu == pytest.approx(-0.25, abs=1e-10)
    assert fit.sigma == pytest.approx(0.5, abs=1e-10)


def test_gqls_location_within_asymptotic_band():
    rng = np.random.default_rng(99)
    data = NORMAL.sample(Params(0.0, 1.0), 100_000, rng)
    fit = fit_sample(data, NORMAL, GRID, "gqls")
    assert abs(fit.mu) < 3.0 * np.sqrt(fit.asy_cov[0, 0])


def test_rank_deficient_raises():
    x_bad = np.column_stack([np.ones(10), np.ones(10)])
    y = QuantileResponse(values=np.sort(np.random.default_rng(0).standard_normal(10)), n=10)
    with pytest.raises(RankDeficient):
        fit_oqls(y, x_bad, np.eye(10))


def test_rank_test_ignores_column_scale():
    # at levels 1e-9 .. 1 - 1e-9 the cauchy quantile column reaches 3e8, so
    # the oQLS Gram spans 17 orders of magnitude without being singular
    cell = are("oqls", get_family("cauchy"), make_grid(1e-9, 1 - 1e-9, 50))
    assert np.isfinite(cell.are) and 0.0 < cell.are < 1.0
    # proportional columns stay singular at any column scale
    for scale in (1.0, 1e8, 1e-8):
        x_bad = np.column_stack([np.ones(50), np.full(50, scale)])
        for kind in ("oqls", "gqls"):
            with pytest.raises(RankDeficient):
                qls_weights(kind, x_bad, np.eye(50))


def test_non_positive_scale_tagged_not_clamped():
    # a constant response has regression slope exactly 0, which is returned
    # as-is with the warning tag rather than being clamped
    fit = fit_oqls(QuantileResponse(values=np.zeros(25), n=25), X, S)
    assert fit.sigma == pytest.approx(0.0, abs=1e-12)
    assert WARN_NON_POSITIVE_SCALE in fit.warnings


def test_single_parameter_modes():
    beta = np.array([2.0, 3.0])
    y = QuantileResponse(values=X @ beta, n=400)
    loc = fit_gqls(y, X, S, mode=ParamMode.LOCATION_ONLY, known_sigma=3.0)
    assert loc.mu == pytest.approx(2.0, abs=1e-10)
    assert loc.sigma == 3.0
    assert loc.asy_cov.shape == (1, 1)
    sc = fit_gqls(y, X, S, mode=ParamMode.SCALE_ONLY, known_mu=2.0)
    assert sc.sigma == pytest.approx(3.0, abs=1e-10)
    assert sc.mu == 2.0


def test_single_parameter_fit_needs_only_its_column():
    # a constant quantile column makes the joint Gram singular, but each
    # single-parameter mode still has a nonsingular 1 x 1 block
    x_flat = np.column_stack([np.ones(25), np.full(25, 0.5)])
    y = QuantileResponse(values=2.0 + 3.0 * x_flat[:, 1], n=400)
    for fit_kind in (fit_oqls, fit_gqls):
        with pytest.raises(RankDeficient):
            fit_kind(y, x_flat, S)
        loc = fit_kind(y, x_flat, S, mode=ParamMode.LOCATION_ONLY, known_sigma=3.0)
        assert loc.mu == pytest.approx(2.0, abs=1e-10)
        sc = fit_kind(y, x_flat, S, mode=ParamMode.SCALE_ONLY, known_mu=2.0)
        assert sc.sigma == pytest.approx(3.0, abs=1e-10)


def test_weights_and_cov_take_wider_designs():
    # the (X, S) helpers accept any full-rank k x m design
    x3 = np.column_stack([X, X[:, 1] ** 2])
    p = np.linalg.inv(S)
    g_inv = np.linalg.inv(x3.T @ p @ x3)
    assert np.allclose(qls_weights("gqls", x3, S), g_inv @ x3.T @ p, rtol=1e-9, atol=1e-12)
    assert np.allclose(asymptotic_cov("gqls", x3, S, sigma_hat=2.0, n=50), 4.0 / 50 * g_inv,
                       rtol=1e-9, atol=1e-12)
    x_bad = np.column_stack([X, X[:, 1]])
    with pytest.raises(RankDeficient):
        qls_weights("oqls", x_bad)


def test_asymptotic_cov_formulas():
    # location-only scalar case: cov = sigma^2 * c / n for X = 1, S = [c]
    ones = np.ones((1, 1))
    cov = asymptotic_cov("gqls", ones, np.array([[4.0]]), sigma_hat=2.0, n=100)
    assert cov[0, 0] == pytest.approx(4.0 * 4.0 / 100.0)
    # oQLS with identity quantile covariance equals the OLS covariance
    cov_o = asymptotic_cov("oqls", X, np.eye(25), sigma_hat=1.0, n=50)
    cov_ols = asymptotic_cov("oqls", X, None, sigma_hat=1.0, n=50)
    assert np.allclose(cov_o, cov_ols, atol=1e-12)


def test_gqls_never_less_efficient_than_oqls():
    for name in ("normal", "cauchy", "laplace", "logistic", "gumbel"):
        fam = get_family(name)
        x = design_matrix(fam, GRID)
        s = sigma_star(fam, GRID)
        cov_o = asymptotic_cov("oqls", x, s, sigma_hat=1.0, n=1)
        cov_g = asymptotic_cov("gqls", x, s, sigma_hat=1.0, n=1)
        assert det(cov_g) <= det(cov_o) * (1 + 1e-10)
        diff = cov_o - cov_g
        assert np.all(np.linalg.eigvalsh(diff) > -1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=-50.0, max_value=50.0),
       st.integers(min_value=0, max_value=9999))
def test_affine_equivariance(c, d, seed):
    rng = np.random.default_rng(seed)
    data = NORMAL.sample(Params(0.0, 1.0), 400, rng)
    for method in ("oqls", "gqls"):
        base = fit_sample(data, NORMAL, GRID, method)
        moved = fit_sample(c * data + d, NORMAL, GRID, method)
        assert moved.mu == pytest.approx(c * base.mu + d, rel=1e-9, abs=1e-9)
        assert moved.sigma == pytest.approx(c * base.sigma, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)),
       st.sampled_from(["oqls", "gqls"]),
       st.sampled_from(list(ParamMode)),
       st.integers(min_value=3, max_value=60),
       st.integers(min_value=0, max_value=9999))
def test_family_plan_matches_matrix_path(name, kind, mode, k, seed):
    # the closed-form family plan against the plan factorizing sigma_star
    fam = get_family(name)
    grid = make_grid(0.05, 0.95, k)
    data = fam.sample(Params(0.4, 1.3), 500, np.random.default_rng(seed))
    y = empirical_quantiles(data, grid)
    known = dict(known_mu=0.4, known_sigma=1.3)
    plan_fit = fit_sample(data, fam, grid, kind, mode, **known)
    fit_xs = fit_gqls if kind == "gqls" else fit_oqls
    ref = fit_xs(y, design_matrix(fam, grid), sigma_star(fam, grid), mode=mode, **known)
    assert _max_rel([plan_fit.mu, plan_fit.sigma], [ref.mu, ref.sigma]) <= 1e-10
    assert _max_rel(plan_fit.asy_cov, ref.asy_cov) <= 1e-10


def test_family_paths_factorize_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family path built or factorized a k x k matrix")

    for module in (qls, quantiles, estimators, linalg):
        for name in ("spd_factorize", "sigma_star"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    qf_calls = []
    family_qf = Family.qf

    def counting_qf(self, u):
        qf_calls.append(self.name)
        return family_qf(self, u)

    monkeypatch.setattr(Family, "qf", counting_qf)
    fam = get_family("logistic")
    for kind in ("oqls", "gqls"):
        qf_calls.clear()
        FitPlan.for_family(fam, GRID, kind)
        assert qf_calls == ["logistic"]  # one evaluation of Q0 per plan
    data = fam.sample(Params(), 300, np.random.default_rng(3))
    for kind in ("oqls", "gqls"):
        for mode in ParamMode:
            fit_sample(data, fam, GRID, kind, mode)
            are(kind, fam, GRID, mode)
    bootstrap_pvalue(data, fam, GRID, B=5, seed=1)
    spec = ContaminationSpec(base_family=fam, base_params=Params())
    run_mc(McConfig(spec=spec, n=100, m=4, estimators=(
        EstimatorSpec("gqls", GRID), EstimatorSpec("oqls", GRID))))
    run_power_study([fam], [spec], [GRID], n=100, m=4, test="w")


@pytest.mark.parametrize("mode", list(ParamMode))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_oqls_band_sandwich_matches_dense(name, mode):
    # the family oQLS covariance W (P^-1 W') against W S W' on the same W
    fam = get_family(name)
    for bounds in ((0.05, 0.95), (1e-4, 1 - 1e-4), (1e-9, 1 - 1e-9)):
        for k in (2, 3, 25, 200, 500):
            grid = make_grid(*bounds, k)
            w, cov = FitPlan.for_family(fam, grid, "oqls").solver(mode)
            dense = w @ sigma_star(fam, grid) @ w.T
            assert _max_rel(cov, dense) <= 1e-11, (bounds, k)


def test_band_solve_failure_is_a_package_error():
    # an indefinite band: the banded Cholesky fails on the second pivot
    band = (np.array([1.0, -1.0]), np.array([0.5]))
    with pytest.raises(NotPositiveDefinite):
        estimators._band_solve(band, np.eye(2))
    # a shape mismatch is a caller's error, not a numeric failure
    with pytest.raises(ValueError) as info:
        estimators._band_solve((np.array([2.0, 2.0]), np.array([0.5])), np.eye(3))
    assert not isinstance(info.value, NotPositiveDefinite)
    # a band holding an infinity (family plans refuse the levels that would
    # give one: test_subnormal_level_gaps_are_an_invalid_grid)
    with pytest.raises(NotPositiveDefinite):
        estimators._band_solve((np.array([np.inf, 2.0]), np.array([0.5])), np.eye(2))


def test_mle_init_falls_back_only_on_package_errors(monkeypatch):
    cauchy = get_family("cauchy")
    data = cauchy.sample(Params(), 200, np.random.default_rng(5))

    def qls_failure(*args, **kwargs):
        raise RankDeficient("forced")

    monkeypatch.setattr(estimators, "empirical_quantiles", qls_failure)
    assert fit_mle(cauchy, data).sigma > 0  # robust starting point instead

    def bug(*args, **kwargs):
        raise KeyError("a programming error")

    monkeypatch.setattr(estimators, "empirical_quantiles", bug)
    with pytest.raises(KeyError):
        fit_mle(cauchy, data)


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------

def test_mle_normal_closed_form():
    fit = fit_mle(NORMAL, [-1.0, 1.0])
    assert fit.mu == 0.0
    assert fit.sigma == 1.0


def test_mle_laplace_closed_form():
    data = np.array([0.0, 1.0, 2.0, 10.0, -3.0])
    fit = fit_mle(get_family("laplace"), data)
    med = np.median(data)
    assert fit.mu == med
    assert fit.sigma == pytest.approx(np.mean(np.abs(data - med)))


def test_mle_exponential_and_levy_scale_only():
    expo = get_family("exponential")
    fit = fit_mle(expo, [2.0, 3.0, 4.0], ParamMode.SCALE_ONLY, known_mu=1.0)
    assert fit.sigma == pytest.approx(2.0)
    levy = get_family("levy")
    fit = fit_mle(levy, [1.0, 1.0], ParamMode.SCALE_ONLY, known_mu=0.0)
    assert fit.sigma == pytest.approx(1.0)
    with pytest.raises(Unavailable):
        fit_mle(expo, [1.0, 2.0])
    with pytest.raises(DomainError):
        fit_mle(levy, [0.5, 2.0], ParamMode.SCALE_ONLY, known_mu=1.0)
    with pytest.raises(EmptySample):
        fit_mle(NORMAL, [1.0])


def _loglik_grid_oracle(fam_ll, data, center, span, steps=41, refinements=4):
    mu0, s0 = center
    best = (mu0, s0)
    for _ in range(refinements):
        mus = np.linspace(best[0] - span[0], best[0] + span[0], steps)
        sigs = np.linspace(max(best[1] - span[1], 1e-3), best[1] + span[1], steps)
        vals = np.array([[fam_ll((m, s), data) for s in sigs] for m in mus])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = (mus[i], sigs[j])
        span = (span[0] * 4 / steps, span[1] * 4 / steps)
    return best


def test_mle_cauchy_matches_grid_oracle():
    from qls.estimators import _cauchy_ll

    cauchy = get_family("cauchy")
    data = cauchy.sample(Params(0.0, 1.0), 10_000, np.random.default_rng(17))
    fit = fit_mle(cauchy, data)
    oracle = _loglik_grid_oracle(_cauchy_ll, data, (fit.mu, fit.sigma), (0.05, 0.05))
    assert fit.mu == pytest.approx(oracle[0], abs=1e-4)
    assert fit.sigma == pytest.approx(oracle[1], abs=1e-4)


@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_mle_numeric_gradient_vanishes(name):
    from qls import estimators as est

    fam = get_family(name)
    data = fam.sample(Params(0.3, 1.7), 5_000, np.random.default_rng(4))
    fit = fit_mle(fam, data)
    ll, _ = est._NUMERIC_MLE[name]

    theta = np.array([fit.mu, fit.sigma])
    grad = np.empty(2)
    for j in range(2):
        h = 1e-6 * (1.0 + abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        # per-observation log-likelihood keeps the finite difference stable
        grad[j] = (ll(up, data) - ll(dn, data)) / (2 * h * data.size)
    assert np.linalg.norm(grad) <= 1e-6


def test_mle_recovers_truth_roughly():
    for name in ("cauchy", "logistic", "gumbel"):
        fam = get_family(name)
        data = fam.sample(Params(-1.0, 2.5), 20_000, np.random.default_rng(8))
        fit = fit_mle(fam, data)
        assert fit.mu == pytest.approx(-1.0, abs=0.15)
        assert fit.sigma == pytest.approx(2.5, abs=0.15)


# closed-form MLE families with the mode and known location they are fitted in
CLOSED_FORM_MLE = {
    "normal": (ParamMode.LOCATION_SCALE, 0.0),
    "laplace": (ParamMode.LOCATION_SCALE, 0.0),
    "exponential": (ParamMode.SCALE_ONLY, 0.4),
    "levy": (ParamMode.SCALE_ONLY, 0.4),
}


def _closed_form_reference(name, x, known_mu):
    """The closed forms on one 1-D sample, as written before the row batch."""
    if name == "normal":
        return float(np.mean(x)), float(np.std(x))
    if name == "laplace":
        med = float(np.median(x))
        return med, float(np.mean(np.abs(x - med)))
    shifted = x - known_mu
    if name == "exponential":
        return known_mu, float(np.mean(shifted))
    return known_mu, x.size / float(np.sum(1.0 / shifted))


def _mle_rows_and_single_fits(fam, rows, mode, known_mu):
    theta, errors = estimators._mle_rows(fam, rows, mode, known_mu)
    for i, row in enumerate(rows):
        try:
            fit = fit_mle(fam, row, mode, known_mu=known_mu)
        except QlsError as exc:
            assert type(exc) is type(errors[i]), i
            assert np.isnan(theta[i]).all(), i
            continue
        assert i not in errors
        yield i, theta[i], fit


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_MLE))
def test_mle_rows_match_single_fits_bit_for_bit(name):
    fam = get_family(name)
    mode, known_mu = CLOSED_FORM_MLE[name]
    rows = fam.sample(Params(0.4, 1.3), 7 * 301, np.random.default_rng(6)).reshape(7, 301)
    rows[2, 17] = -5.0  # below the known location: a DomainError row for exponential/levy
    rows[4, 3] = np.nan
    rows[5, 0] = -np.inf
    fitted = list(_mle_rows_and_single_fits(fam, rows, mode, known_mu))
    expected_failures = {2, 4, 5} if mode is ParamMode.SCALE_ONLY else {4, 5}
    assert {i for i, _, _ in fitted} == set(range(7)) - expected_failures
    for i, theta, fit in fitted:
        assert theta[0] == fit.mu and theta[1] == fit.sigma
        assert (fit.mu, fit.sigma) == _closed_form_reference(name, rows[i], known_mu)


@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_mle_rows_match_single_fits_numeric(name):
    fam = get_family(name)
    rows = fam.sample(Params(0.4, 1.3), 3 * 200, np.random.default_rng(6)).reshape(3, 200)
    rows[1, 9] = np.inf
    fitted = list(_mle_rows_and_single_fits(fam, rows, ParamMode.LOCATION_SCALE, 0.0))
    assert [i for i, _, _ in fitted] == [0, 2]
    for _, theta, fit in fitted:
        assert theta[0] == fit.mu and theta[1] == fit.sigma


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_mle_refuses_non_finite_data(name, bad):
    fam = get_family(name)
    mode, known_mu = CLOSED_FORM_MLE.get(name, (ParamMode.LOCATION_SCALE, 0.0))
    data = fam.sample(Params(0.4, 1.3), 200, np.random.default_rng(2))
    data[10] = bad
    with pytest.raises(NonFiniteData):
        fit_mle(fam, data, mode, known_mu=known_mu)


@pytest.mark.parametrize("scale", [1e300, 1e200])
def test_mle_scale_overflow(scale):
    # at 1e300 the std itself overflows; at 1e200 only its square does
    data = NORMAL.sample(Params(0.0, 1.0), 500, np.random.default_rng(5)) * scale
    with pytest.raises(ScaleOverflow, match="rescale the data"):
        fit_mle(NORMAL, data)
    expo = get_family("exponential")
    with pytest.raises(ScaleOverflow):
        fit_mle(expo, np.abs(data), ParamMode.SCALE_ONLY, known_mu=0.0)


@pytest.mark.parametrize("value", [1.0, 0.1, -3e-200])
@pytest.mark.parametrize("name", ["normal", "laplace", "cauchy", "logistic", "gumbel"])
def test_mle_of_constant_data_is_a_tagged_zero_scale(name, value):
    # np.std of 100 copies of 0.1 reads 2.8e-17 and the numeric families
    # stopped at sigma = 5e-324; the likelihood has no maximum, so sigma = 0
    fit = fit_mle(get_family(name), np.full(100, value))
    assert fit.mu == value and fit.sigma == 0.0
    assert WARN_NON_POSITIVE_SCALE in fit.warnings
    assert WARN_NON_POSITIVE_SCALE not in fit_mle(get_family(name), [value, 2.0]).warnings


@pytest.mark.parametrize("scale", [1e-300, 1e-310])
def test_mle_scale_does_not_underflow(scale):
    # squares of deviations near 1e-300 underflow: np.std read 0.0 there
    data = NORMAL.sample(Params(0.0, 1.0), 100, np.random.default_rng(7))
    for name, mode, x in (("normal", ParamMode.LOCATION_SCALE, data),
                          ("laplace", ParamMode.LOCATION_SCALE, data),
                          ("levy", ParamMode.SCALE_ONLY, np.abs(data) + 0.1)):
        ref = fit_mle(get_family(name), x, mode)
        fit = fit_mle(get_family(name), x * scale, mode)
        assert fit.sigma / scale == pytest.approx(ref.sigma, rel=1e-12), name
        assert not fit.warnings


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["cauchy", "logistic", "gumbel"]),
       st.integers(min_value=20, max_value=300),
       st.integers(min_value=0, max_value=9999),
       st.integers(min_value=-990, max_value=990),
       st.integers(min_value=-300, max_value=300))
def test_numeric_mle_is_scale_equivariant(name, n, seed, j, e):
    # Newton and the simplex run on the data divided by a power of two near
    # the starting scale, so their fixed steps and tolerances are relative
    fam = get_family(name)
    x = fam.sample(Params(0.3, 1.0), n, np.random.default_rng(seed))
    base = fit_mle(fam, x)
    c = math.ldexp(1.0, j)
    theta, errors = estimators._mle_rows(fam, (x * c)[None, :])
    assert not errors
    assert (theta[0, 0], theta[0, 1]) == (c * base.mu, c * base.sigma)
    try:
        scaled = fit_mle(fam, x * c)
    except ScaleOverflow:  # the covariance needs sigma^2
        assert c * base.sigma > 1e154
    else:
        assert (scaled.mu, scaled.sigma) == (c * base.mu, c * base.sigma)
    d = 10.0 ** e
    theta, errors = estimators._mle_rows(fam, (x * d)[None, :])
    assert not errors
    assert abs(theta[0, 0] / d - base.mu) <= 1e-8 * base.sigma
    assert abs(theta[0, 1] / d - base.sigma) <= 1e-8 * base.sigma


def test_mle_rows_degenerate_rows_leave_the_others_alone():
    rows = NORMAL.sample(Params(0.4, 1.3), 5 * 200, np.random.default_rng(9)).reshape(5, 200)
    rows[1] = 0.1
    rows[3] *= 1e-300
    theta, errors = estimators._mle_rows(NORMAL, rows)
    assert not errors
    for i in (0, 2, 4):
        assert tuple(theta[i]) == _closed_form_reference("normal", rows[i], 0.0)
    assert tuple(theta[1]) == (0.1, 0.0)
    assert theta[3, 1] == pytest.approx(1e-300 * np.std(rows[3] * 1e300), rel=1e-12)


def test_mle_asy_cov_uses_the_inverse_information():
    data = get_family("gumbel").sample(Params(0.4, 1.3), 400, np.random.default_rng(3))
    fit = fit_mle(get_family("gumbel"), data)
    info = get_family("gumbel").fisher_info()
    assert np.array_equal(fit.asy_cov, fit.sigma ** 2 / 400 * np.linalg.inv(info))


def test_mle_simplex_fallback_converges(monkeypatch):
    cauchy = get_family("cauchy")
    data = cauchy.sample(Params(0.3, 1.7), 2_000, np.random.default_rng(12))
    newton = fit_mle(cauchy, data)

    def no_newton(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(estimators, "_newton_mle", no_newton)
    simplex = fit_mle(cauchy, data)
    assert simplex.mu == pytest.approx(newton.mu, abs=1e-7)
    assert simplex.sigma == pytest.approx(newton.sigma, rel=1e-7)


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(estimators.__file__).resolve().parents[1])
    code = "import sys, qls; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "False"
