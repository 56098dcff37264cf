import copy
import math
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qls
from qls import estimators, linalg, quantiles, simulate
from qls.efficiency import are
from qls.errors import (
    WARN_NON_POSITIVE_SCALE,
    DomainError,
    EmptySample,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_quantile_response_is_refused(bad):
    # refused as a response and as bare values, at either end
    values = np.array([bad, -1.0, 0.0, 1.0, 2.0])
    grid = make_grid(0.1, 0.9, 5)
    x5, s5 = design_matrix(NORMAL, grid), sigma_star(NORMAL, grid)
    with pytest.raises(NonFiniteData):
        fit_gqls(QuantileResponse(values, 100), x5, s5)
    for fit in (fit_gqls, fit_oqls):
        with pytest.raises(NonFiniteData):
            fit(values, x5, s5, n=100)
    with pytest.raises(NonFiniteData):
        FitPlan.for_family(NORMAL, grid, "gqls").fit(values[::-1], n=100)
    with pytest.raises(NonFiniteData):
        QuantileResponse(values[1:].tolist() + [bad], 100)


@pytest.mark.parametrize("known", [{"known_mu": float("nan")}, {"known_mu": float("inf")},
                                   {"known_sigma": float("nan")},
                                   {"known_sigma": -float("inf")}])
def test_non_finite_known_parameters_are_refused(known):
    # in every mode, as a fit would otherwise return NaN or warn; the MLE
    # takes only known_mu.  A non-positive known scale stays the caller's
    y = empirical_quantiles(NORMAL.sample(Params(), 200, np.random.default_rng(4)), GRID)
    for mode in ParamMode:
        for kind in ("gqls", "oqls"):
            with pytest.raises(DomainError, match="must be finite"):
                FitPlan.for_family(NORMAL, GRID, kind).fit(y, mode, **known)
    if "known_mu" in known:
        data = get_family("exponential").sample(Params(), 50, np.random.default_rng(5))
        with pytest.raises(DomainError, match="must be finite"):
            fit_mle(get_family("exponential"), data, ParamMode.SCALE_ONLY, **known)
    fit = FitPlan.for_family(NORMAL, GRID, "gqls").fit(y, ParamMode.LOCATION_ONLY,
                                                       known_sigma=-1.0)
    assert fit.sigma == -1.0


@pytest.mark.parametrize("value", [1.0, 2.5, float("nan")])
def test_fit_sample_mle_refuses_a_known_sigma(value):
    # the MLE takes no known scale: one given is refused, where it was
    # silently ignored; the QLS methods still take it, and 1 when unset
    data = NORMAL.sample(Params(0.3, 2.0), 200, np.random.default_rng(2))
    for mode in (ParamMode.LOCATION_SCALE, ParamMode.SCALE_ONLY):
        with pytest.raises(DomainError, match="MLE takes no known scale"):
            fit_sample(data, NORMAL, GRID, "mle", mode, known_sigma=value)
    assert fit_sample(data, NORMAL, GRID, "mle").params == fit_mle(NORMAL, data).params
    loc = ParamMode.LOCATION_ONLY
    assert fit_sample(data, NORMAL, GRID, "gqls", loc, known_sigma=2.5).sigma == 2.5
    assert (fit_sample(data, NORMAL, GRID, "oqls", loc).params
            == fit_sample(data, NORMAL, GRID, "oqls", loc, known_sigma=1.0).params)


def test_fit_sample_checks_its_method_first(monkeypatch):
    # an unknown method is the error, whatever the data: before the data's
    # own checks and before any quantile is read
    sorts = []
    monkeypatch.setattr(estimators, "empirical_quantiles", lambda *a: sorts.append(a))
    for data in ([1.0, np.nan, 2.0], [], NORMAL.sample(Params(), 50, np.random.default_rng(1))):
        with pytest.raises(DomainError, match="unknown method 'bogus'"):
            fit_sample(data, NORMAL, GRID, "bogus")
    assert not sorts


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


def _exact_inverse(gram):
    """The inverse of a float Gram of one or two columns in exact rationals,
    and its 2-norm condition number lambda_max^2 / det."""
    g = [[Fraction(float(v)) for v in row] for row in gram]
    if len(g) == 1:
        return [[1 / g[0][0]]], 1.0
    det_g = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    tr = float(g[0][0] + g[1][1])
    lam = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * float(det_g), 0.0)))
    inv = [[g[1][1] / det_g, -g[0][1] / det_g], [-g[1][0] / det_g, g[0][0] / det_g]]
    return inv, lam * lam / float(det_g)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)), kind=st.sampled_from(["gqls", "oqls"]),
       mode=st.sampled_from(list(ParamMode)), a=st.floats(1e-4, 0.97),
       log_width=st.floats(-8.0, -0.5), k=st.integers(2, 80))
def test_closed_form_inverse_matches_an_exact_rational_inverse(name, kind, mode, a,
                                                               log_width, k):
    # narrow grids make the two design columns nearly proportional: the
    # error bound grows with the condition number, never past it
    grid = make_grid(a, min(a + 10.0 ** log_width, 0.99), k)
    plan = FitPlan.for_family(get_family(name), grid, kind)
    cols = mode.columns
    gram = plan.gram[cols, cols]
    try:
        ginv = estimators._solve("gqls", plan.xm[cols], gram, None, None)[1]
    except RankDeficient:
        return
    assert ginv.tobytes() == ginv.T.tobytes()
    exact, cond = _exact_inverse(gram)
    scale = max(abs(v) for row in exact for v in row)
    err = max(abs(Fraction(float(ginv[i, j])) - exact[i][j])
              for i in range(len(exact)) for j in range(len(exact)))
    assert float(err / scale) <= 8.0 * cond * estimators._EPS, (grid.levels, cond)


_COSINES = st.one_of(
    st.floats(-1.25, 1.25),
    st.builds(lambda sign, e: sign * (1.0 - 10.0 ** e), st.sampled_from([-1.0, 1.0]),
              st.floats(-17.0, -8.0)),
)


@settings(max_examples=400, deadline=None)
@given(e00=st.floats(-40.0, 40.0), e11=st.floats(-40.0, 40.0), c=_COSINES,
       k=st.integers(2, 500))
def test_rank_decision_matches_the_equilibrated_cholesky(e00, e11, c, k):
    # the closed-form pivot 1 - g01^2 / (g00 g11) against LAPACK's Cholesky
    # of the equilibrated Gram (the path a wider design still takes), both
    # at the tolerance k * m * eps, wherever the exact pivot is not within
    # rounding of it
    g00, g11 = 10.0 ** e00, 10.0 ** e11
    g01 = c * math.sqrt(g00) * math.sqrt(g11)
    gram = np.array([[g00, g01], [g01, g11]])
    tol = 2 * k * estimators._EPS
    pivot = 1 - Fraction(g01) ** 2 / (Fraction(g00) * Fraction(g11))
    if abs(pivot - Fraction(tol)) <= 16 * Fraction(estimators._EPS):
        return
    decisions = []
    for inverse in (estimators._inverse_2x2, estimators._inverse_lapack):
        try:
            inverse(gram, tol)
            decisions.append(False)
        except RankDeficient:
            decisions.append(True)
    assert decisions[0] == decisions[1] == (pivot <= tol), (gram, float(pivot))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
def test_non_finite_gram_raises_rank_deficient(where, bad):
    gram = np.array([[2.0, 0.5], [0.5, 3.0]])
    gram[where] = gram[where[::-1]] = bad
    with pytest.raises(RankDeficient):
        estimators._solve("gqls", np.ones((2, 5)), gram, None, None)
    x = X.copy()
    x[3, where[1]] = bad
    with pytest.raises(RankDeficient):  # X'X of a non-finite caller design
        qls_weights("oqls", x, S)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["oqls", "gqls"])
def test_non_finite_caller_design_raises_rank_deficient(kind, bad):
    x = X.copy()
    x[3, 1] = bad
    fit = fit_gqls if kind == "gqls" else fit_oqls
    for call in (lambda: qls_weights(kind, x, S), lambda: asymptotic_cov(kind, x, S, 1.0, 100),
                 lambda: fit(X[:, 1], x, S, n=100)):
        with pytest.raises(RankDeficient):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["oqls", "gqls"])
def test_non_finite_caller_covariance_raises_not_positive_definite(kind, bad):
    s = S.copy()
    s[0, 0] = bad
    fit = fit_gqls if kind == "gqls" else fit_oqls
    for call in (lambda: qls_weights(kind, X, s), lambda: asymptotic_cov(kind, X, s, 1.0, 100),
                 lambda: fit(X[:, 1], X, s, n=100)):
        with pytest.raises(NotPositiveDefinite):
            call()


@pytest.mark.parametrize("diag", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_positive_or_non_finite_diagonal_raises_rank_deficient(diag):
    for gram in ([[diag]], [[diag, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, diag]]):
        gram = np.array(gram)
        with pytest.raises(RankDeficient):
            estimators._solve("gqls", np.ones((gram.shape[0], 5)), gram, None, None)


def test_import_leaves_scipy_linalg_unloaded_until_a_dense_solve():
    # only a caller-supplied S is solved against with scipy.linalg; the
    # family paths and importing the package never load it
    src = str(Path(estimators.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np, qls\n"
        "from qls.quantiles import design_matrix, sigma_star, make_grid\n"
        "print('scipy.linalg' in sys.modules)\n"
        "fam, grid = qls.get_family('normal'), qls.make_grid(0.05, 0.95, 25)\n"
        "data = fam.sample(qls.Params(0.0, 1.0), 500, np.random.default_rng(5))\n"
        "qls.fit_sample(data, fam, grid); qls.are('oqls', fam, grid)\n"
        "qls.bootstrap_pvalue(data, fam, grid, B=5, seed=1)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "fit = qls.fit_gqls(qls.empirical_quantiles(data, grid), design_matrix(fam, grid),\n"
        "                   sigma_star(fam, grid))\n"
        "print('scipy.linalg' in sys.modules)\n"
        "print(np.array([fit.mu, fit.sigma, *fit.asy_cov.ravel()]).tobytes().hex())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    before, after_family, after_dense, fit_hex = out.stdout.split()
    assert (before, after_family, after_dense) == ("False", "False", "True")
    import scipy.linalg

    data = NORMAL.sample(Params(0.0, 1.0), 500, np.random.default_rng(5))
    fit = fit_gqls(empirical_quantiles(data, GRID), X, S)
    assert np.array([fit.mu, fit.sigma, *fit.asy_cov.ravel()]).tobytes().hex() == fit_hex
    # the solve against S is scipy's cho_solve on the Cholesky factor, as before
    plan = FitPlan.from_matrices("gqls", X, S)
    want = scipy.linalg.cho_solve((np.linalg.cholesky(S), True), X).T
    assert plan.xm.tobytes() == want.tobytes()


# fits, numeric MLEs, ARE cells and W_out bootstraps on the families whose
# kernels are numpy
_NUMPY_FAMILY_CALLS = (
    "def family_values(qls, np):\n"
    "    grid, out = qls.make_grid(0.05, 0.95, 25), []\n"
    "    for name in ('logistic', 'cauchy', 'laplace', 'gumbel'):\n"
    "        fam = qls.get_family(name)\n"
    "        data = fam.sample(qls.Params(0.0, 1.0), 500, np.random.default_rng(5))\n"
    "        for kind in ('gqls', 'oqls'):\n"
    "            fit = qls.fit_sample(data, fam, grid, kind)\n"
    "            out += [fit.mu, fit.sigma, *fit.asy_cov.ravel(), qls.are(kind, fam, grid).are]\n"
    "        if name != 'laplace':  # the numeric MLE\n"
    "            fit = qls.fit_mle(fam, data)\n"
    "            out += [fit.mu, fit.sigma, *fit.asy_cov.ravel()]\n"
    "        res =qls.bootstrap_pvalue(data, fam, grid, B=20, seed=1)\n"
    "        out += [res.statistic, res.p_value]\n"
    "    return np.array(out).tobytes().hex()\n"
)


def test_import_leaves_scipy_special_unloaded_until_a_path_needs_it():
    # the logistic, cauchy, laplace and gumbel paths are numpy only; the
    # normal kernels and the chi-square tail load scipy.special on first use
    src = str(Path(estimators.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, numpy as np, qls\n"
        "print('scipy.special' in sys.modules)\n"
        "import qls.cli\n"
        "print('scipy.special' in sys.modules)\n"
        + _NUMPY_FAMILY_CALLS +
        "values = family_values(qls, np)\n"
        "print('scipy.special' in sys.modules)\n"
        "fam = qls.get_family('normal')\n"
        "data = fam.sample(qls.Params(0.0, 1.0), 500, np.random.default_rng(5))\n"
        "qls.fit_sample(data, fam, qls.make_grid(0.05, 0.95, 25))\n"
        "print('scipy.special' in sys.modules)\n"
        "print(values)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    *loaded, values_hex = out.stdout.split()
    assert loaded == ["False", "False", "False", "True"]
    chi2 = subprocess.run(
        [sys.executable, "-c", "import sys, qls\n"
         "print('scipy.special' in sys.modules, qls.chi2_sf(30.0, 23).hex(),"
         " 'scipy.special' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert chi2.stdout.split() == ["False", qls.chi2_sf(30.0, 23).hex(), "True"]
    scope = {}
    exec(_NUMPY_FAMILY_CALLS, scope)
    assert scope["family_values"](qls, np) == values_hex


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
    # the family oQLS sandwich over the spacings against W S W' on the same W
    fam = get_family(name)
    for bounds in ((0.05, 0.95), (1e-4, 1 - 1e-4), (1e-9, 1 - 1e-9)):
        for k in (2, 3, 25, 200, 500):
            grid = make_grid(*bounds, k)
            w, cov = FitPlan.for_family(fam, grid, "oqls").solver(mode)
            dense = w @ sigma_star(fam, grid) @ w.T
            assert _max_rel(cov, dense) <= 1e-11, (bounds, k)


def test_sandwich_failure_is_a_package_error():
    # the oQLS sandwich refuses a non-finite result (family plans refuse the
    # levels and densities that would give one:
    # test_subnormal_level_gaps_are_an_invalid_grid)
    p = np.array([0.25, 0.75])
    d = np.diff(p, prepend=0.0, append=1.0)
    w = np.array([[0.5, 0.5], [-1.0, 1.0]])
    for spacing in ((p, d, np.array([1e-320, 1.0])),
                    (p, np.array([np.inf, 0.5, 0.25]), np.ones(2))):
        with pytest.raises(NotPositiveDefinite):
            estimators._sandwich(spacing, w)
    # finite spacings give the finite W S W'
    cov = estimators._sandwich((p, d, np.ones(2)), w)
    s = np.minimum.outer(p, p) * (1.0 - np.maximum.outer(p, p))
    assert _max_rel(cov, w @ s @ w.T) <= 1e-15


def _exact_spacing_sum(d, u, v):
    """sum_j d_j u_j v_j in exact rational arithmetic, rounded once."""
    return float(sum(Fraction(dj) * uj * vj for dj, uj, vj in zip(d, u, v)))


def _exact_delta(f, z):
    """diff([0, f z, 0]) of the floats f and z, exactly."""
    fz = [Fraction(a) * Fraction(b) for a, b in zip(f, z)]
    return [b - a for a, b in zip([Fraction(0)] + fz, fz + [Fraction(0)])]


@pytest.mark.parametrize("bounds", [(0.05, 0.95, 25), (1e-6, 1 - 1e-6, 200)])
@pytest.mark.parametrize("name", ["normal", "cauchy", "gumbel"])
def test_spacing_kernels_match_exact_sums(name, bounds):
    # e'Pe and the oQLS sandwich against exact rational sums of the same
    # floats (the plan's levels, spacings, densities and weights)
    fam = get_family(name)
    grid = make_grid(*bounds)
    gplan = FitPlan.for_family(fam, grid, "gqls")
    p, d, f = gplan.spacing
    assert np.array_equal(d, np.diff(np.concatenate(([0.0], p, [1.0]))))
    y = empirical_quantiles(fam.sample(Params(0.3, 2.0), 5000, np.random.default_rng(4)),
                            grid).values
    e = y - gplan.x @ gplan.solve(y[None])[0]
    inv_d = [1 / Fraction(dj) for dj in d]
    delta = _exact_delta(f, e)
    exact_quad = float(sum(a * a * b for a, b in zip(delta, inv_d)))
    assert abs(gplan.quad(e[None])[0] - exact_quad) <= 1e-13 * exact_quad

    w, cov = FitPlan.for_family(fam, grid, "oqls").solver()
    us = []
    for row in w:
        v = [Fraction(a) / Fraction(b) for a, b in zip(row, f)]
        c = sum(vi * Fraction(pi) for vi, pi in zip(v, p))
        tails = [sum(v[j:], Fraction(0)) for j in range(len(v))] + [Fraction(0)]
        us.append([r - c for r in tails])
    exact_cov = np.array([[_exact_spacing_sum(d, ua, ub) for ub in us] for ua in us])
    assert _max_rel(cov, exact_cov) <= 1e-13


def _left_to_right(beta, x):
    # each entry of X beta as a sum of Python floats over the columns, in order
    out = []
    for b in beta.tolist():
        row = []
        for xi in x.tolist():
            acc = b[0] * xi[0]
            for bj, xj in zip(b[1:], xi[1:]):
                acc += bj * xj
            row.append(acc)
        out.append(row)
    return np.array(out)


def test_fitted_values_are_the_bits_of_a_left_to_right_sum():
    rng = np.random.default_rng(8)
    for k, m in ((25, 2), (50, 2), (7, 1), (9, 3)):
        x = rng.standard_normal((k, m)) * 10.0 ** rng.integers(-8, 8, (1, m))
        beta = rng.standard_normal((174, m)) * 10.0 ** rng.integers(-5, 5, (174, 1))
        assert estimators._fitted(beta, x).tobytes() == _left_to_right(beta, x).tobytes()


@pytest.mark.parametrize("name", ["normal", "logistic", "cauchy"])
def test_plan_kernels_give_a_row_the_same_bytes_alone_and_in_a_block(name):
    fam = get_family(name)
    rng = np.random.default_rng(12)
    rows = np.sort(fam.sample(Params(0.1, 0.9), 174 * 400, rng).reshape(174, 400), axis=1)
    for grid in (GRID, make_grid(0.01, 0.99, 50)):
        plan = FitPlan.for_family(fam, grid, "gqls")
        idx = np.ceil(400 * grid.levels).astype(int) - 1
        y = rows[:, idx]
        beta = plan.solve(y)
        fitted = estimators._fitted(beta, plan.x)
        stats = plan.w_statistics(y, beta, 400)
        for i in (0, 57, 173):
            one = plan.solve(y[i:i + 1])
            assert one.tobytes() == beta[i:i + 1].tobytes()
            assert estimators._fitted(one, plan.x).tobytes() == fitted[i:i + 1].tobytes()
            assert plan.w_statistics(y[i:i + 1], one, 400).tobytes() == stats[i:i + 1].tobytes()


def _same_rows_alone_and_in_blocks(kernel, *args):
    # kernel(*args) on the whole block, on each of three rows alone and on a
    # block around each, from C- and F-ordered copies of the arguments
    rows = args[0].shape[0]
    whole = kernel(*args)
    for order in (np.ascontiguousarray, np.asfortranarray):
        ordered = [order(a) for a in args]
        assert kernel(*ordered).tobytes() == whole.tobytes()
        for i in (0, rows // 2, rows - 1):
            for lo, hi in ((i, i + 1), (max(i - 3, 0), i + 5)):
                part = kernel(*[a[lo:hi] for a in ordered])
                assert part.tobytes() == whole[lo:hi].tobytes()
    return whole


@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 25, 128, 129, 200])
@pytest.mark.parametrize("kind", ["oqls", "gqls"])
def test_row_sums_give_a_row_the_same_bytes_alone_and_in_a_block(kind, k):
    # FitPlan.solve on family and dense plans in every mode, W on both and the
    # dense quad: pairwise row sums of a fresh C-contiguous buffer, so no
    # row's bits depend on its block or on the memory order of the input
    rng = np.random.default_rng(k)
    fam, grid = get_family("logistic"), make_grid(0.05, 0.95, k)
    plans = [FitPlan.for_family(fam, grid, kind),
             FitPlan.from_matrices(kind, design_matrix(fam, grid), sigma_star(fam, grid))]
    x = plans[0].x
    scale = 10.0 ** rng.uniform(-3, 3, (131, 1))
    y = (0.3 + x[:, 1] + 0.2 * rng.standard_normal((131, k))) * scale
    for plan in plans:
        for mode in ParamMode:
            _same_rows_alone_and_in_blocks(
                lambda yy: plan.solve(yy, mode, known_mu=0.3, known_sigma=1.0), y)
    for plan in plans if kind == "gqls" else plans[:1]:
        beta = plan.solve(y)
        _same_rows_alone_and_in_blocks(lambda yy, bb: plan.w_statistics(yy, bb, 400), y, beta)
    if kind == "gqls":
        e = y - estimators._fitted(plans[1].solve(y), x)
        quad = _same_rows_alone_and_in_blocks(plans[1].quad, e)
        assert np.allclose(quad, np.einsum("ri,ij,rj->r", e, np.linalg.inv(plans[1].sigma), e),
                           rtol=1e-9)
    # the row sums themselves, over widely scaled products
    a = rng.standard_normal((131, k)) * 10.0 ** rng.uniform(-3, 3, (131, k))
    w = rng.standard_normal((2, k))
    out = _same_rows_alone_and_in_blocks(
        lambda aa: estimators._row_sums(aa[:, None, :], w), a)
    assert np.allclose(out, a @ w.T, rtol=1e-12, atol=1e-12 * np.abs(a).max())


def _plan_arrays(plan):
    weights, cov = plan.solver()
    return {"x": plan.x, "xm": plan.xm, "gram": plan.gram, "weights": weights,
            "cov": cov, **{f"spacing{i}": a for i, a in enumerate(plan.spacing)}}


def _plan_bytes(plan):
    return {name: a.tobytes() for name, a in _plan_arrays(plan).items()}


def test_a_grid_hands_out_one_plan_per_family_and_kind():
    grid, out_grid = make_grid(0.05, 0.95, 25), qls.make_out_grid()
    plans = {}
    for g in (grid, out_grid):
        for name in ("normal", "cauchy"):
            for kind in ("gqls", "oqls"):
                plan = FitPlan.for_family(get_family(name), g, kind)
                assert FitPlan.for_family(get_family(name), g, kind) is plan
                plans[id(g), name, kind] = plan
    assert len({id(p) for p in plans.values()}) == 8
    # a raw level array keeps no plans
    levels = np.array(grid.levels)
    assert FitPlan.for_family(NORMAL, levels, "gqls") is not FitPlan.for_family(
        NORMAL, levels, "gqls")
    assert levels.flags.writeable


@pytest.mark.parametrize("kind", ["gqls", "oqls"])
@pytest.mark.parametrize("name", ["normal", "cauchy", "gumbel"])
def test_a_stored_plan_has_the_bytes_of_a_fresh_build(name, kind):
    fam = get_family(name)
    grid = make_grid(0.02, 0.97, 31)
    stored = FitPlan.for_family(fam, grid, kind)
    for other in (make_grid(0.02, 0.97, 31), grid.levels.copy()):
        assert _plan_bytes(FitPlan.for_family(fam, other, kind)) == _plan_bytes(stored)
    assert _plan_bytes(FitPlan._family_plan(fam, grid, kind)) == _plan_bytes(stored)


@pytest.mark.parametrize("make", [lambda: make_grid(0.05, 0.95, 25), qls.make_out_grid])
def test_copies_of_a_grid_start_their_own_plan_store(make):
    grid = make()
    plan = FitPlan.for_family(NORMAL, grid, "gqls")
    for other in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid), copy.copy(grid)):
        assert other._plans == {} and other == grid
        again = FitPlan.for_family(NORMAL, other, "gqls")
        assert again is not plan and not again.solver()[0].flags.writeable
        assert _plan_bytes(again) == _plan_bytes(plan)
        assert (other.a, other.b, other.k, repr(other)) == (grid.a, grid.b, grid.k, repr(grid))
        assert not other.levels.flags.writeable
    assert len(pickle.dumps(grid)) == len(pickle.dumps(make()))


@pytest.mark.parametrize("kind", ["gqls", "oqls"])
def test_stored_plan_arrays_are_read_only(kind):
    grid = make_grid(0.05, 0.95, 12)
    plan = FitPlan.for_family(NORMAL, grid, kind)
    arrays = _plan_arrays(plan)
    assert len(arrays) == 8
    for name, a in arrays.items():
        with pytest.raises(ValueError):
            a[..., 0] = 1.0
        assert not a.flags.writeable, name


def test_plan_store_gives_threads_racing_on_a_fresh_grid_one_plan():
    # eight threads ask one fresh grid for the same two plans, and each plan
    # for its scale-only solve, at once, with the interpreter switching
    # threads as often as it can
    grid = make_grid(0.03, 0.97, 60)
    keys = [(get_family("cauchy"), "gqls"), (NORMAL, "oqls")]
    seen = [None] * 8
    solved = [None] * 8
    start = threading.Barrier(len(seen))

    def build(i):
        start.wait(timeout=30)
        seen[i] = [FitPlan.for_family(fam, grid, kind) for fam, kind in keys[::1 - 2 * (i % 2)]]
        solved[i] = [plan.solver(ParamMode.SCALE_ONLY) for plan in seen[i]]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(seen))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    for i, plans in enumerate(seen):
        for plan, pair, (fam, kind) in zip(plans, solved[i], keys[::1 - 2 * (i % 2)]):
            assert plan is FitPlan.for_family(fam, grid, kind)
            assert _plan_bytes(plan) == _plan_bytes(FitPlan._family_plan(fam, grid, kind))
            assert pair is plan.solver(ParamMode.SCALE_ONLY)


@pytest.mark.parametrize("kind", ["gqls", "oqls"])
def test_solver_solves_each_mode_once_and_hands_out_read_only_arrays(kind, monkeypatch):
    plans = [FitPlan.for_family(NORMAL, make_grid(0.05, 0.95, 12), kind),
             FitPlan.from_matrices(kind, X, S)]
    calls = []
    solve = estimators._solve
    monkeypatch.setattr(estimators, "_solve", lambda *args: calls.append(1) or solve(*args))
    for plan in plans:
        for mode in ParamMode:
            w, cov = plan.solver(mode)
            again = plan.solver(mode)
            assert again[0] is w and again[1] is cov
            assert not w.flags.writeable and not cov.flags.writeable
            with pytest.raises(ValueError):
                w[0, 0] = 1.0
    assert len(calls) == 2 * len(ParamMode)


def test_a_singular_joint_gram_leaves_the_single_modes_solvable():
    # two levels 1e-12 apart: the joint oQLS Gram X'X is singular, the
    # location column alone is not
    plan = FitPlan.for_family(NORMAL, make_grid(0.3, 0.3 + 1e-12, 2), "oqls")
    with pytest.raises(RankDeficient):
        plan.solver()
    w, cov = plan.solver(ParamMode.LOCATION_ONLY)
    assert w.shape == (1, 2) and np.isfinite(w).all() and cov[0, 0] > 0
    with pytest.raises(RankDeficient):  # a failed solve is not kept
        plan.solver()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["normal", "cauchy", "gumbel", "laplace"]),
       st.integers(3, 60), st.integers(0, 2 ** 32 - 1),
       st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
def test_w_statistics_are_never_negative(name, k, seed, mu, sigma):
    fam = get_family(name)
    plan = FitPlan.for_family(fam, make_grid(0.02, 0.98, k), "gqls")
    rng = np.random.default_rng(seed)
    y = np.sort(mu + sigma * rng.standard_normal((20, k)), axis=1)
    beta = np.column_stack([rng.normal(mu, sigma, 20), sigma * rng.uniform(0.01, 10.0, 20)])
    beta[:10] = plan.solve(y[:10])
    beta[:10, 1] = np.abs(beta[:10, 1]) + sigma * 1e-3
    stats = plan.w_statistics(y, beta, 100)
    assert np.all(stats >= 0.0)


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


@pytest.mark.parametrize("n", [2, 10, 24, 25, 1000])
@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_mle_init_matches_a_plan_built_for_its_row(name, n, monkeypatch):
    # the start is the gQLS solve on min(25, n) levels; from n = 25 on it
    # reads the shared DEFAULT_GRID, whose plan is built at most once
    fam = get_family(name)
    data = fam.sample(Params(0.4, 2.5), n, np.random.default_rng(n))
    grid = make_grid(0.05, 0.95, min(25, n))
    want = FitPlan._family_plan(fam, grid, "gqls").solve(
        empirical_quantiles(data, grid).values[None, :])[0]
    assert estimators._mle_init(fam, data).tobytes() == want.tobytes()
    builds = []
    build = FitPlan._family_plan
    monkeypatch.setattr(FitPlan, "_family_plan",
                        classmethod(lambda cls, *args: builds.append(args) or build(*args)))
    for _ in range(3):
        assert estimators._mle_init(fam, data).tobytes() == want.tobytes()
    assert len(builds) == (0 if n >= 25 else 3)


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


def _pdf_loglik(fam):
    """The log-likelihood of (mu, sigma) built from ``Family.pdf`` alone: it
    shares no code with the MLE's log-density kernels."""
    def ll(theta, data):
        mu, sigma = theta
        return float(np.sum(np.log(fam.pdf((data - mu) / sigma)))) - data.size * math.log(sigma)
    return ll


def test_mle_cauchy_matches_grid_oracle():
    cauchy = get_family("cauchy")
    data = cauchy.sample(Params(0.0, 1.0), 10_000, np.random.default_rng(17))
    fit = fit_mle(cauchy, data)
    oracle = _loglik_grid_oracle(_pdf_loglik(cauchy), data, (fit.mu, fit.sigma), (0.05, 0.05))
    assert fit.mu == pytest.approx(oracle[0], abs=1e-4)
    assert fit.sigma == pytest.approx(oracle[1], abs=1e-4)


@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_mle_numeric_gradient_vanishes(name):
    fam = get_family(name)
    data = fam.sample(Params(0.3, 1.7), 5_000, np.random.default_rng(4))
    fit = fit_mle(fam, data)
    ll = _pdf_loglik(fam)

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


@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_mle_kernel_matches_the_family_density(name):
    fam, kernel = get_family(name), estimators._NUMERIC_MLE[name]
    z = np.linspace(-30.0, 30.0, 6001)
    with np.errstate(divide="ignore"):
        z = z[np.log(fam.pdf(z)) > np.log(np.finfo(float).tiny)]  # no underflow
    lf, d1, d2 = kernel(z)
    log_pdf = np.log(fam.pdf(z))
    assert np.allclose(lf, log_pdf, rtol=1e-13, atol=0.0)
    h = 1e-3
    up, dn = np.log(fam.pdf(z + h)), np.log(fam.pdf(z - h))
    assert np.allclose(d1, (up - dn) / (2.0 * h), rtol=1e-5, atol=1e-5)
    assert np.allclose(d2, (up - 2.0 * log_pdf + dn) / (h * h), rtol=1e-5, atol=1e-5)
    # every value is finite wherever log f0 is; gumbel's log f0 = -z - e^-z
    # lies below the floating-point range from z = -709.78 down, and reads -inf
    far = np.array([-1e200, -1e3, 1e3, 1e200])
    lf, d1, d2 = kernel(far)
    below = far < 0 if name == "gumbel" else np.zeros(4, dtype=bool)
    assert np.all(lf[below] == -np.inf)
    assert np.isfinite(np.concatenate([lf, d1, d2])[np.tile(~below, 3)]).all()


@pytest.mark.parametrize("epsilon", [0.05, 0.3])
@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_numeric_mle_maximizes_contaminated_samples(name, epsilon):
    # a cauchy(1, 3) contaminant puts draws far below the location, where
    # the gumbel log-density exceeds the floating-point range at the start
    # and Family.pdf underflows at the fit (gumbel below z = -6.6, logistic
    # beyond |z| = 710); the reference log-density is scipy.stats', which
    # shares no code with the kernels
    import scipy.optimize
    import scipy.stats

    fam = get_family(name)
    spec = ContaminationSpec(fam, Params(0.0, 1.0), get_family("cauchy"), Params(1.0, 3.0),
                             epsilon)
    rng = np.random.default_rng(24)
    rows = np.array([simulate.sample_contaminated(spec, 301, rng) for _ in range(40)])
    theta, errors = estimators._mle_rows(fam, rows)
    assert not errors
    logpdf = {"cauchy": scipy.stats.cauchy, "logistic": scipy.stats.logistic,
              "gumbel": scipy.stats.gumbel_r}[name].logpdf
    for x, (mu, sigma) in zip(rows, theta):
        def mean_ll(t):
            return np.mean(logpdf((x - t[0]) / t[1])) - math.log(t[1]) if t[1] > 0 else -np.inf

        h = 1e-5 * sigma
        score = [(mean_ll((mu + h, sigma)) - mean_ll((mu - h, sigma))) / (2.0 * h),
                 (mean_ll((mu, sigma + h)) - mean_ll((mu, sigma - h))) / (2.0 * h)]
        assert np.abs(np.array(score) * sigma).max() <= 1e-8
        best = mean_ll((mu, sigma))
        polish = scipy.optimize.minimize(lambda t: -mean_ll(t), [mu, sigma],
                                         method="Nelder-Mead",
                                         options={"xatol": 1e-12, "fatol": 1e-15})
        assert -polish.fun - best <= 1e-9 * abs(best)


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
        # the scale is right, but its square (and so the covariance) underflows
        assert fit.warnings == ("scale_underflow",) and not fit.asy_cov.any()


@pytest.mark.parametrize("method", ["gqls", "oqls"])
def test_supplied_scale_that_underflows_is_tagged(method):
    # a location-only fit estimates no scale, but a supplied one whose square
    # underflows still zeroes the standard error; a non-positive one is not tagged
    data = np.random.default_rng(1).standard_normal(200) * 1e-310
    fit = fit_sample(data, NORMAL, GRID, method, ParamMode.LOCATION_ONLY, known_sigma=1e-170)
    assert fit.sigma == 1e-170 and fit.stderr().tolist() == [0.0]
    assert fit.warnings == ("scale_underflow",)
    for known_sigma in (1e-150, -1e-170, 0.0):
        fit = fit_sample(data, NORMAL, GRID, method, ParamMode.LOCATION_ONLY,
                         known_sigma=known_sigma)
        assert fit.warnings == ()


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


@pytest.mark.parametrize("name", ["cauchy", "logistic", "gumbel"])
def test_numeric_mle_at_the_top_of_the_range_is_a_scale_overflow(name):
    # a starting scale above 2^1023 made the power-of-two rescale itself
    # overflow (a bare OverflowError for gumbel); the scale, or its square,
    # now exceeds the range as a package error
    x = np.array([-1.7e308] * 4 + [1.7e308] * 4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ScaleOverflow):
        fit_mle(get_family(name), x)


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


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize("n", [2, 3, 1000])
def test_normal_mle_std_reuses_the_mean_bit_for_bit(n, scale):
    # the normal MLE passes its row means to np.std: the same bits as
    # np.std's own mean pass, for constant rows, extreme scales and rows whose
    # squares overflow (which then fail with ScaleOverflow)
    rows = NORMAL.sample(Params(0.4, 1.3), 4 * n, np.random.default_rng(n)).reshape(4, n)
    rows[1] = 0.1
    rows[2] = -7.0
    rows *= scale
    finite = np.ones(4, dtype=bool)
    theta = estimators._mle_estimates(NORMAL, rows, finite, {}, False, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert theta[:, 0].tobytes() == np.mean(rows, axis=1).tobytes()
        assert theta[:, 1].tobytes() == np.std(rows, axis=1).tobytes()
    fitted, errors = estimators._mle_rows(NORMAL, rows)
    if scale == 1e300:
        assert all(isinstance(errors.get(i), ScaleOverflow) for i in (0, 3))
        assert np.isnan(fitted[[0, 3]]).all()
    else:
        assert not errors and np.isfinite(fitted).all()


def test_mle_asy_cov_uses_the_inverse_information():
    data = get_family("gumbel").sample(Params(0.4, 1.3), 400, np.random.default_rng(3))
    fit = fit_mle(get_family("gumbel"), data)
    info = get_family("gumbel").fisher_info()
    assert np.array_equal(fit.asy_cov, fit.sigma ** 2 / 400 * np.linalg.inv(info))


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(estimators.__file__).resolve().parents[1])
    code = "import sys, qls; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "False"
