import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from qls import estimators, gof, quantiles, simulate
from qls.errors import (
    WARN_DEGENERATE_GRID,
    WARN_RANK_CLAMPED,
    WARN_SCALE_UNDERFLOW,
    WARN_TIED_QUANTILES,
    BootstrapDegenerate,
    DomainError,
    InsufficientDof,
    InvalidGrid,
    NonFiniteData,
    NonPositiveScale,
    ScaleOverflow,
)
from qls.estimators import FitPlan, QlsFit, fit_gqls, fit_mle, fit_sample
from qls.families import FAMILIES, ParamMode, Params, get_family
from qls.gof import (
    _BOOTSTRAP_KEY,
    _bootstrap_order_statistics,
    _chi2_pvalues,
    _row_statistics,
    bootstrap_pvalue,
    chi2_sf,
    default_out_grid,
    make_out_grid,
    q_decomposition,
    residual_analysis,
    w_out_statistic,
    w_test,
)
from qls.quantiles import (
    QuantileResponse,
    _positions,
    design_matrix,
    empirical_quantiles,
    make_grid,
    sigma_star,
)
from qls.simulate import _STREAM_KEY

NORMAL = get_family("normal")
GRID = make_grid(0.05, 0.95, 25)
X = design_matrix(NORMAL, GRID)
S = sigma_star(NORMAL, GRID)


def normal_fit(n=1000, seed=0, mu=0.0, sigma=1.0):
    data = NORMAL.sample(Params(mu, sigma), n, np.random.default_rng(seed))
    y = empirical_quantiles(data, GRID)
    return data, y, fit_gqls(y, X, S)


# ---------------------------------------------------------------------------
# chi-square survival function
# ---------------------------------------------------------------------------

def test_chi2_sf_basics():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(2.0 * math.log(20.0), 2) == pytest.approx(0.05, abs=1e-12)


def test_chi2_sf_matches_quadrature_oracle():
    dof = 23

    def density(t):
        return t ** (dof / 2 - 1) * math.exp(-t / 2) / (2 ** (dof / 2) * math.gamma(dof / 2))

    tail, _ = integrate.quad(density, 23.0, np.inf, limit=300)
    assert chi2_sf(23.0, dof) == pytest.approx(tail, abs=1e-8)


def test_chi2_sf_monotonicity():
    xs = np.linspace(0.1, 60.0, 40)
    vals = [chi2_sf(x, 10) for x in xs]
    assert np.all(np.diff(vals) < 0)
    for x in (12.0, 30.0):
        assert chi2_sf(x, 4) < chi2_sf(x, 8) < chi2_sf(x, 11)
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 3)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


# ---------------------------------------------------------------------------
# residual diagnostics and the quadratic-form identity
# ---------------------------------------------------------------------------

def test_residuals_zero_on_exact_fit():
    y = QuantileResponse(values=X @ np.array([0.3, 1.2]), n=500)
    fit = fit_gqls(y, X, S)
    diag = residual_analysis(y, X, fit, S)
    assert np.max(np.abs(diag.residuals)) < 1e-10
    assert np.allclose(diag.fitted, y.values)


def test_residual_covariances():
    _, y, fit = normal_fit(seed=3)
    diag = residual_analysis(y, X, fit, S)
    rc = diag.residual_cov
    assert np.allclose(rc, rc.T)
    assert np.min(np.linalg.eigvalsh(rc)) > -1e-10
    # the residual and fitted covariances tile the response covariance
    total = rc + diag.fitted_cov
    assert np.allclose(total, fit.sigma ** 2 / y.n * S, atol=1e-12)
    # asymptotic independence: H S (I - H)' vanishes for the gQLS projector
    sc = fit.sigma ** 2 / y.n
    hs = diag.fitted_cov / sc          # X (X'S^-1X)^-1 X'
    ls = np.linalg.inv(S)
    h = hs @ ls
    cross = sc * (hs - h @ hs)
    assert np.max(np.abs(cross)) < 1e-9


def test_residual_analysis_refuses_wrong_fits():
    data, y, fit = normal_fit(seed=4)
    ofit = fit_sample(data, NORMAL, GRID, "oqls")
    with pytest.raises(ValueError):
        residual_analysis(y, X, ofit, S)
    mfit = fit_mle(NORMAL, data)
    with pytest.raises(ValueError):
        residual_analysis(y, X, mfit, S)


def test_q_decomposition_identity_and_true_beta():
    truth = Params(0.5, 2.0)
    data = NORMAL.sample(truth, 2000, np.random.default_rng(12))
    y = empirical_quantiles(data, GRID)
    fit = fit_gqls(y, X, S)
    q, q1, q2 = q_decomposition(y, X, S, truth, fit)
    assert abs(q - q1 - q2) <= 1e-8 * max(q, 1.0)
    assert q1 >= 0 and q2 >= 0
    # evaluating at beta_true = beta_hat zeroes the parameter term
    q_, q1_, q2_ = q_decomposition(
        y, X, S, Params(fit.mu, fit.sigma), fit)
    assert q2_ == pytest.approx(0.0, abs=1e-10)
    assert q_ == pytest.approx(q1_, rel=1e-12)


def test_q1_mean_matches_dof():
    m = 400
    vals = []
    for r in range(m):
        data = NORMAL.sample(Params(0, 1), 1000, np.random.default_rng([77, r]))
        y = empirical_quantiles(data, GRID)
        fit = fit_gqls(y, X, S)
        _, q1, _ = q_decomposition(y, X, S, Params(0, 1), fit)
        vals.append(q1)
    assert 21.5 <= np.mean(vals) <= 24.5  # dof = k - 2 = 23


# ---------------------------------------------------------------------------
# in-sample test
# ---------------------------------------------------------------------------

def test_w_perfect_fit():
    y = QuantileResponse(values=X @ np.array([1.0, 2.0]), n=800)
    fit = fit_gqls(y, X, S)
    res = w_test(y, X, S, fit)
    assert res.statistic == pytest.approx(0.0, abs=1e-16)
    assert res.p_value == 1.0
    assert res.dof == 23


def test_w_dof2_reference_pvalue():
    g4 = make_grid(0.2, 0.8, 4)
    x4 = design_matrix(NORMAL, g4)
    s4 = sigma_star(NORMAL, g4)
    data, _, _ = normal_fit(seed=9)
    y4 = empirical_quantiles(data, g4)
    fit = fit_gqls(y4, x4, s4)
    res = w_test(y4, x4, s4, fit)
    assert res.dof == 2
    # dof-2 tail is exp(-W/2)
    assert res.p_value == pytest.approx(math.exp(-res.statistic / 2.0), rel=1e-12)


def test_w_requires_dof_and_gqls_and_scale():
    g2 = make_grid(0.25, 0.75, 2)
    x2 = design_matrix(NORMAL, g2)
    s2 = sigma_star(NORMAL, g2)
    data = NORMAL.sample(Params(0, 1), 100, np.random.default_rng(0))
    y2 = empirical_quantiles(data, g2)
    fit = fit_gqls(y2, x2, s2)
    with pytest.raises(InsufficientDof):
        w_test(y2, x2, s2, fit)
    y = empirical_quantiles(data, GRID)
    ofit = fit_sample(data, NORMAL, GRID, "oqls")
    with pytest.raises(ValueError):
        w_test(y, X, S, ofit)


def test_w_affine_invariance():
    data, y, fit = normal_fit(seed=21)
    base = w_test(y, X, S, fit).statistic
    moved_data = 3.5 * data - 7.0
    y2 = empirical_quantiles(moved_data, GRID)
    fit2 = fit_gqls(y2, X, S)
    moved = w_test(y2, X, S, fit2).statistic
    assert moved == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("j", [-600, -1, 1, 600])
def test_w_statistics_are_exactly_invariant_under_powers_of_two(j):
    # each residual is divided by its own scale before the quadratic form,
    # so no sigma^2 is formed: at 2^600 it would overflow, at 2^-600 underflow
    data, y, fit = normal_fit(n=400, seed=22)
    scaled = np.ldexp(data, j)
    y2 = empirical_quantiles(scaled, GRID)
    plan = FitPlan.for_family(NORMAL, GRID, "gqls")
    beta2 = plan.solve(y2.values[None])
    assert np.array_equal(beta2, np.ldexp(plan.solve(y.values[None]), j))
    # at 2^600 the covariance of a fit overflows (ScaleOverflow): fit without it
    fit2 = QlsFit(kind="gqls", params=Params(*beta2[0]), mode=ParamMode.LOCATION_SCALE)
    fit = QlsFit(kind="gqls", params=Params(*np.ldexp(beta2[0], -j)),
                 mode=ParamMode.LOCATION_SCALE)
    assert w_test(y2, X, S, fit2).statistic == w_test(y, X, S, fit).statistic
    assert np.array_equal(plan.w_statistics(y2.values[None], beta2, 400),
                          plan.w_statistics(y.values[None], np.ldexp(beta2, -j), 400))
    out = default_out_grid()
    assert (w_out_statistic(scaled, fit2, NORMAL, out)
            == w_out_statistic(data, fit, NORMAL, out))
    res, res2 = (bootstrap_pvalue(d, NORMAL, GRID, B=30, seed=4) for d in (data, scaled))
    assert (res2.statistic, res2.p_value, res2.failures) == (
        res.statistic, res.p_value, res.failures)


def test_non_finite_observed_statistics_raise(monkeypatch):
    data, y, fit = normal_fit(n=400, seed=23)
    # a positive scale too small for the residuals: e / sigma overflows
    tiny = QlsFit(kind="gqls", params=Params(fit.mu, 1e-300), mode=ParamMode.LOCATION_SCALE)
    with pytest.raises(ScaleOverflow):
        w_test(y, X, S, tiny)
    with pytest.raises(ScaleOverflow):
        w_out_statistic(data, tiny, NORMAL, default_out_grid())
    monkeypatch.setattr(FitPlan, "w_statistics",
                        lambda self, y, beta, n: np.full(len(y), np.nan))
    with pytest.raises(ScaleOverflow):
        bootstrap_pvalue(data, NORMAL, GRID, B=10, seed=0)


def test_non_finite_replicate_statistics_are_failures(monkeypatch):
    data, y, fit = normal_fit(n=400, seed=24)
    plan = FitPlan.for_family(NORMAL, GRID, "gqls")
    rows = np.stack([y.values] * 4)
    w_statistics = FitPlan.w_statistics
    spoiled = np.array([1.0, np.inf, np.nan, 1.0])

    def spoil(self, y, beta, n):
        stats = w_statistics(self, y, beta, n)
        return stats if len(stats) == 1 else stats * np.resize(spoiled, len(stats))

    monkeypatch.setattr(FitPlan, "w_statistics", spoil)
    p = _chi2_pvalues(25, _row_statistics(plan, plan, rows, rows, 400))
    assert np.isnan(p[1:3]).all()
    stat = w_statistics(plan, rows[:1], plan.solve(rows[:1]), 400)[0]
    assert p[0] == p[3] == chi2_sf(stat, 23)
    # the bootstrap drops such replicates, as it drops failed refits
    res = bootstrap_pvalue(data, NORMAL, GRID, B=20, seed=1, max_failure_fraction=0.5)
    assert res.failures == 10 and res.b_replicates == 10


def test_row_statistics_fail_only_the_rows_without_a_positive_scale():
    # a constant row fits sigma = 0 and a decreasing one sigma < 0: those two
    # read NaN, and each other row equals its statistic computed alone
    plan = FitPlan.for_family(NORMAL, GRID, "gqls")
    out = default_out_grid()
    plan_out = FitPlan.for_family(NORMAL, out, "gqls")
    samples = [NORMAL.sample(Params(), 400, np.random.default_rng(s)) for s in (31, 32)]
    y_fit = np.stack([empirical_quantiles(samples[0], GRID).values, np.ones(GRID.k),
                      empirical_quantiles(samples[1], GRID).values,
                      -empirical_quantiles(samples[0], GRID).values])
    y_out = np.stack([empirical_quantiles(samples[0], out).values, np.ones(out.k),
                      empirical_quantiles(samples[1], out).values,
                      -empirical_quantiles(samples[0], out).values])
    assert (plan.solve(y_fit)[:, 1] > 0).tolist() == [True, False, True, False]
    stats = _row_statistics(plan, plan_out, y_fit, y_out, 400)
    assert np.isnan(stats[[1, 3]]).all()
    for i in (0, 2):
        alone = _row_statistics(plan, plan_out, y_fit[i:i + 1], y_out[i:i + 1], 400)[0]
        assert np.isfinite(alone) and stats[i] == alone


def test_bootstrap_refuses_a_null_past_its_failure_fraction(monkeypatch):
    # a quarter of the 20 replicate statistics fail: past the default 10% the
    # null is refused, and at 25% the other 15 form it
    data, _, _ = normal_fit(n=400, seed=25)
    row_statistics = gof._row_statistics

    def spoil(plan, plan_out, y_fit, y_out, n):
        stats = row_statistics(plan, plan_out, y_fit, y_out, n)
        stats[::4] = np.nan
        return stats

    monkeypatch.setattr(gof, "_row_statistics", spoil)
    with pytest.raises(BootstrapDegenerate, match="5 of 20"):
        bootstrap_pvalue(data, NORMAL, GRID, B=20, seed=2)
    with pytest.raises(BootstrapDegenerate, match="5 of 20"):
        bootstrap_pvalue(data, NORMAL, GRID, B=20, seed=2, max_failure_fraction=0.2)
    res = bootstrap_pvalue(data, NORMAL, GRID, B=20, seed=2, max_failure_fraction=0.25)
    assert res.failures == 5 and res.b_replicates == 15


def test_w_level_mini_calibration():
    m, rej = 500, 0
    for r in range(m):
        data = NORMAL.sample(Params(0, 1), 1000, np.random.default_rng([5, r]))
        y = empirical_quantiles(data, GRID)
        fit = fit_gqls(y, X, S)
        rej += w_test(y, X, S, fit).p_value <= 0.05
    assert 0.02 <= rej / m <= 0.09


# ---------------------------------------------------------------------------
# out-of-sample test
# ---------------------------------------------------------------------------

def test_out_grids_are_quantile_grids():
    levels = [0.1, 0.25, 0.5, 0.9]
    grid = make_out_grid(levels)
    assert gof.OutGrid is quantiles.QuantileGrid and type(grid) is quantiles.QuantileGrid
    assert grid == quantiles.QuantileGrid(levels) and grid != make_out_grid(levels[:3])
    assert (grid.a, grid.b, grid.k) == (0.1, 0.9, 4)
    assert repr(grid) == "QuantileGrid(a=0.1, b=0.9, k=4)"
    # the grid keeps a read-only copy: the caller's array stays writable
    mine = np.array(levels)
    assert not make_out_grid(mine).levels.flags.writeable and mine.flags.writeable
    assert make_grid(0.1, 0.9, 5) == quantiles.QuantileGrid(np.linspace(0.1, 0.9, 5))


def test_matrix_tests_never_solve_for_the_weights(monkeypatch):
    # W on a caller's matrices is the fit's business: w_test and
    # q_decomposition read only the Gram and the quadratic form
    y = empirical_quantiles(NORMAL.sample(Params(1.0, 2.0), 400, np.random.default_rng(4)),
                            GRID)
    x, s = design_matrix(NORMAL, GRID), sigma_star(NORMAL, GRID)
    fit = fit_gqls(y, x, s)
    calls = []
    monkeypatch.setattr(estimators, "_solve", lambda *args: calls.append(args))
    result = w_test(y, x, s, fit)
    q, q1, q2 = q_decomposition(y, x, s, Params(1.0, 2.0), fit)
    assert calls == []
    assert result.dof == GRID.k - 2 and q == pytest.approx(q1 + q2, rel=1e-9)


def test_default_out_grid_levels():
    og = default_out_grid()
    assert og.k == 50
    assert og.levels[0] == pytest.approx(0.01)
    assert og.levels[1] == pytest.approx(0.03)
    assert og.levels[-1] == pytest.approx(0.99)
    with pytest.raises(InvalidGrid):
        make_out_grid([0.2, 0.2, 0.5])
    for levels in ([0.0, 0.5], [0.3, np.nan], [0.5, 0.2], []):
        with pytest.raises(InvalidGrid):
            make_out_grid(levels)


def test_w_out_equals_w_on_matching_grid():
    data, y, fit = normal_fit(seed=33)
    w = w_test(y, X, S, fit).statistic
    og = make_out_grid(GRID.levels)
    wout = w_out_statistic(data, fit, NORMAL, og)
    assert wout == pytest.approx(w, rel=1e-12)


def test_w_out_zero_on_exact_agreement():
    data, y, fit = normal_fit(seed=40)
    og = make_out_grid([0.2, 0.5, 0.8])
    x_out = design_matrix(NORMAL, og)
    # synthesize data whose out-quantiles sit exactly on the fitted line:
    # directly verify the quadratic form at the fitted quantiles is zero
    beta = np.array([fit.mu, fit.sigma])
    resid = x_out @ beta - x_out @ beta
    assert np.all(resid == 0.0)
    # and through the API: quantiles of the fitted line evaluated as data
    synth = fit.mu + fit.sigma * np.asarray(NORMAL.qf(np.linspace(0.001, 0.999, 4001)))
    fit_synth = fit_sample(synth, NORMAL, GRID, "gqls")
    wout = w_out_statistic(synth, fit_synth, NORMAL, og)
    assert wout < 1.0  # near-exact location-scale data gives a tiny statistic


def test_bootstrap_counting_rule():
    data, _, _ = normal_fit(n=400, seed=50)
    res = bootstrap_pvalue(data, NORMAL, GRID, B=1, seed=1)
    assert res.p_value in (0.0, 1.0)
    assert res.b_replicates == 1
    res = bootstrap_pvalue(data, NORMAL, GRID, B=60, seed=2)
    assert 0.0 <= res.p_value <= 1.0
    assert res.kind == "out-of-sample"
    assert res.decision_at[0.05] == (res.p_value <= 0.05)


def test_bootstrap_seed_reproducible():
    data, _, _ = normal_fit(n=400, seed=51)
    a = bootstrap_pvalue(data, NORMAL, GRID, B=40, seed=7)
    b = bootstrap_pvalue(data, NORMAL, GRID, B=40, seed=7)
    assert a.p_value == b.p_value and a.statistic == b.statistic


def test_bootstrap_seeds_give_disjoint_replicate_streams(monkeypatch):
    # one generator per call; seeds 6 and 7 give different streams, and
    # neither replays a short key such as [seed, 0] or [seed, 1, 1]
    data, _, _ = normal_fit(n=200, seed=52)
    keys = []
    real = np.random.default_rng

    def recording(seed=None):
        keys.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    states = {}
    for seed in (6, 7):
        keys.clear()
        bootstrap_pvalue(data, NORMAL, GRID, B=50, seed=seed)
        assert len(keys) == 1
        states[seed] = np.random.SeedSequence(keys[0]).generate_state(8)
        for other in (seed, [seed, 0], [seed, 1], [seed, 1, 1], [seed, 1, 1, 0, 0]):
            assert not np.array_equal(states[seed],
                                      np.random.SeedSequence(other).generate_state(8))
    assert not np.array_equal(states[6], states[7])
    pos_cols = _positions(200, GRID)[:2]
    draws = [next(_bootstrap_order_statistics(NORMAL, 200, (seed,), 50, *pos_cols))[0]
             for seed in (6, 7)]
    assert not np.any(draws[0] == draws[1])
    cell_draws = next(_bootstrap_order_statistics(NORMAL, 200, (6, 1, 0, 2), 50,
                                                  *pos_cols))[0]
    assert not np.any(cell_draws == draws[0])
    # every key the program builds from one seed gives its own stream:
    # run_mc's study stream [seed, _STREAM_KEY], each power cell's stream
    # [seed, i_h0, i_gen, i_grid, _STREAM_KEY] and wout null [..,
    # _BOOTSTRAP_KEY], bootstrap_pvalue's [seed, _BOOTSTRAP_KEY] and
    # run_timing's [seed, i_family, i_size, repeat].  Both 32-bit words of
    # each tag lie far above any cell or timing index, so no index spells one.
    assert _STREAM_KEY != _BOOTSTRAP_KEY
    for tag in (_STREAM_KEY, _BOOTSTRAP_KEY):
        assert min(tag & 0xFFFFFFFF, tag >> 32) >= 2 ** 30
    real_seq = np.random.SeedSequence

    def recording_seq(entropy=None, **kwargs):
        keys.append(entropy)
        return real_seq(entropy, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recording_seq)
    keys.clear()
    clean = simulate.ContaminationSpec(base_family=NORMAL)
    gens = [clean, simulate.ContaminationSpec(
        base_family=NORMAL, contaminant_family=NORMAL, contaminant_params=Params(1.0, 3.0),
        epsilon=0.05)]
    simulate.run_mc(simulate.McConfig(spec=clean, n=50, m=3, seed=6,
                                      estimators=(simulate.EstimatorSpec("gqls", GRID),)))
    simulate.run_power_study([NORMAL], gens, [GRID, make_grid(0.1, 0.9, 15)], n=50, m=3,
                             test="wout", B=20, seed=6)
    bootstrap_pvalue(data, NORMAL, GRID, B=50, seed=6)
    simulate.run_timing([NORMAL, get_family("cauchy")], ["gqls"], [100, 200], repeats=2,
                        seed=6)
    cells = [(0, i_gen, i_grid) for i_gen in range(2) for i_grid in range(2)]
    assert keys == ([[6, _STREAM_KEY]]
                    + [[6, *cell, tag] for cell in cells for tag in (_BOOTSTRAP_KEY, _STREAM_KEY)]
                    + [[6, _BOOTSTRAP_KEY]]
                    + [[6, i_f, i_n, r] for i_f in range(2) for i_n in range(2)
                       for r in range(2)])
    streams = {tuple(real_seq(key).generate_state(8)) for key in keys}
    assert len(streams) == len(keys) == 18


def test_bootstrap_rejects_wrong_model():
    # heavy-tailed data tested against a normal null: decisive rejection
    cauchy = get_family("cauchy")
    data = cauchy.sample(Params(0, 1), 1000, np.random.default_rng(8))
    res = bootstrap_pvalue(data, NORMAL, GRID, B=120, seed=3)
    assert res.p_value <= 0.05


def test_bootstrap_requires_positive_scale():
    with pytest.raises(NonPositiveScale):
        bootstrap_pvalue(np.zeros(100), NORMAL, GRID, B=10, seed=0)


def test_w_test_carries_the_response_and_fit_tags():
    _, y, fit = normal_fit()
    assert w_test(y, X, S, fit).warnings == ()
    y_few = empirical_quantiles([0.3, -1.2, 0.8, 2.1, -0.4], GRID)
    fit_few = fit_gqls(y_few, X, S)
    assert w_test(y_few, X, S, fit_few).warnings == (WARN_RANK_CLAMPED, WARN_DEGENERATE_GRID)
    assert w_test(y_few, X, S, fit).warnings == (WARN_RANK_CLAMPED, WARN_DEGENERATE_GRID)
    # bare values carry no tags of their own; the fit's still reach the result
    assert w_test(y_few.values, X, S, fit_few, n=5).warnings == fit_few.warnings
    tiny = NORMAL.sample(Params(), 200, np.random.default_rng(1)) * 1e-310
    y_tiny = empirical_quantiles(tiny, GRID)
    assert w_test(y_tiny, X, S, fit_gqls(y_tiny, X, S)).warnings == (WARN_SCALE_UNDERFLOW,)


def test_bootstrap_carries_the_tags_of_both_level_sets():
    data = NORMAL.sample(Params(), 1000, np.random.default_rng(4))
    assert bootstrap_pvalue(data, NORMAL, GRID, B=20, seed=1).warnings == ()
    # at n = 60 only the out-levels, from 0.01, clamp their first rank
    sixty = data[:60]
    assert empirical_quantiles(sixty, GRID).warnings == ()
    res = bootstrap_pvalue(sixty, NORMAL, GRID, B=20, seed=1)
    assert res.warnings == (WARN_RANK_CLAMPED,)
    # the lowest 30 values tied: out-levels 0.01 and 0.03 read one value,
    # the estimation levels (from 0.05, rank 50) see no tie
    tied = np.sort(data)
    tied[:30] = tied[0]
    assert empirical_quantiles(tied, GRID).warnings == ()
    assert bootstrap_pvalue(tied, NORMAL, GRID, B=20, seed=1).warnings == (WARN_TIED_QUANTILES,)
    tiny = data[:200] * 1e-310
    assert bootstrap_pvalue(tiny, NORMAL, GRID, B=20, seed=1).warnings == (
        WARN_SCALE_UNDERFLOW,)


_JOINT_FAMILIES = ("cauchy", "gumbel", "laplace", "logistic", "normal")
_SCALED_DATA = {name: get_family(name).sample(Params(0.3, 1.7), 300, np.random.default_rng(61))
                for name in _JOINT_FAMILIES}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_JOINT_FAMILIES), st.integers(-1000, 1000))
def test_bootstrap_and_w_statistics_are_exact_under_powers_of_two(name, j):
    # x 2^j scales every order statistic, fit and draw exactly, and the
    # statistic divides each residual by its own scale: W_out, the bootstrap
    # p-value and the batched W of the data and of the data times 2^j agree
    # to the byte (about 1e-301 to 1e301 here, inside the normal range)
    fam, data = get_family(name), _SCALED_DATA[name]
    scaled = np.ldexp(data, j)
    want = bootstrap_pvalue(data, fam, GRID, B=50, seed=8)
    got = bootstrap_pvalue(scaled, fam, GRID, B=50, seed=8)
    assert np.float64(got.statistic).tobytes() == np.float64(want.statistic).tobytes()
    assert (got.p_value, got.failures) == (want.p_value, want.failures)
    plan = FitPlan.for_family(fam, GRID, "gqls")
    y = np.stack([empirical_quantiles(d, GRID).values for d in (data, -data[::-1])])
    beta = plan.solve(y)
    assert np.array_equal(plan.solve(np.ldexp(y, j)), np.ldexp(beta, j))
    assert (plan.w_statistics(np.ldexp(y, j), np.ldexp(beta, j), 300).tobytes()
            == plan.w_statistics(y, beta, 300).tobytes())


_PIVOT_N, _PIVOT_B = 400, 40
_PIVOT_POS, _PIVOT_COLS, _ = _positions(_PIVOT_N, GRID, default_out_grid())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_JOINT_FAMILIES), st.floats(-1e3, 1e3), st.integers(-500, 500),
       st.integers(0, 2 ** 32))
def test_bootstrap_null_is_pivotal(name, t, j, seed):
    # W_out of a replicate drawn at (mu, sigma) = (t 2^j, 2^j) equals the
    # statistic the standard-form draw gives, within 1e-10 relative: the
    # test forms the (mu, sigma) draws from the same gamma spacings itself,
    # and refits and tests them on the plans directly
    fam = get_family(name)
    sigma = math.ldexp(1.0, j)
    params = Params(t * sigma, sigma)
    plan = FitPlan.for_family(fam, GRID, "gqls")
    plan_out = FitPlan.for_family(fam, default_out_grid(), "gqls")
    pos, cols = _PIVOT_POS, _PIVOT_COLS
    y_fit, y_out = next(_bootstrap_order_statistics(fam, _PIVOT_N, (seed,), _PIVOT_B, pos, cols))
    assert len(y_fit) == _PIVOT_B
    beta = plan.solve(y_fit)
    standard = plan_out.w_statistics(y_out, beta, _PIVOT_N)
    shapes = np.diff(np.concatenate(([0], pos + 1, [_PIVOT_N + 1]))).astype(float)
    rng = np.random.default_rng([seed, _BOOTSTRAP_KEY])
    g = np.cumsum(rng.standard_gamma(shapes, size=(_PIVOT_B, shapes.size)), axis=1)
    x = fam._from_uniform(params, g[:, :-1] / g[:, -1:])
    beta = plan.solve(x[:, cols[0]])
    assert np.all(beta[:, 1] > 0)
    scaled = plan_out.w_statistics(x[:, cols[1]], beta, _PIVOT_N)
    assert np.all(np.isfinite(standard)) and np.all(standard > 0)
    np.testing.assert_allclose(scaled, standard, rtol=1e-10, atol=0)


def test_bootstrap_refuses_fewer_than_one_replicate(monkeypatch):
    data, _, _ = normal_fit(n=200, seed=55)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before B was checked")

    monkeypatch.setattr("qls.gof._order_statistics", no_work)
    for B in (0, -5):
        with pytest.raises(DomainError, match="at least one"):
            bootstrap_pvalue(data, NORMAL, GRID, B=B, seed=1)


def _bootstrap_rows(fam, n, seed, B, *level_sets):
    """Every replicate's order statistics, one array per level set."""
    return [np.concatenate(c) for c in zip(*_bootstrap_order_statistics(
        fam, n, (seed,), B, *_positions(n, *level_sets)[:2]))]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_bootstrap_order_statistics_equal_sorted_samples(name):
    # the spacing draw has the law of a sorted sample: mapped back through
    # the cdf, the r-th of n order statistics is Beta(r, n + 1 - r).
    # Kolmogorov-Smirnov over 20 000 replicates at ranks 1, n/2 and n; the
    # extreme ranks stay finite
    fam = get_family(name)
    n = 1000
    pos = np.array([0, n // 2 - 1, n - 1])
    x = _bootstrap_rows(fam, n, 11, 20_000, (pos + 1) / n)[0]
    assert x.shape == (20_000, 3) and np.all(np.isfinite(x))
    u = np.asarray(fam.cdf(x))
    for col, r in enumerate(pos + 1):
        assert stats.kstest(u[:, col], stats.beta(r, n + 1 - r).cdf).pvalue > 0.01, r


def test_bootstrap_replicates_are_a_prefix_of_longer_runs():
    # B = 50 (one block) gives the first 50 rows of B = 1000 (several blocks)
    fam, n = get_family("logistic"), 10_000
    sets = (GRID, default_out_grid())
    short = _bootstrap_rows(fam, n, 3, 50, *sets)
    long = _bootstrap_rows(fam, n, 3, 1000, *sets)
    assert len(list(_bootstrap_order_statistics(fam, n, (3,), 1000,
                                                *_positions(n, *sets)[:2]))) > 1
    for s, l in zip(short, long):
        assert np.array_equal(s, l[:50])


def test_bootstrap_one_row_blocks_give_the_same_rows(monkeypatch):
    n = 2000
    sets = (GRID, default_out_grid())
    pos_cols = _positions(n, *sets)[:2]
    blocks = list(_bootstrap_order_statistics(NORMAL, n, (9,), 300, *pos_cols))
    assert len(blocks[0][0]) > 1
    want = _bootstrap_rows(NORMAL, n, 9, 300, *sets)
    monkeypatch.setattr(quantiles, "_BLOCK_VALUES", 1)
    assert all(len(blk[0]) == 1 for blk in
               _bootstrap_order_statistics(NORMAL, n, (9,), 300, *pos_cols))
    got = _bootstrap_rows(NORMAL, n, 9, 300, *sets)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _serial_null(fam, plan, plan_out, n, seed, B, pos, cols):
    """The null drawn block after block on the caller alone, the way the
    bootstrap drew it before its gamma spacings were drawn ahead."""
    shapes = np.diff(np.concatenate(([0], pos + 1, [n + 1]))).astype(float)
    rng = np.random.default_rng([seed, _BOOTSTRAP_KEY])
    stats = []
    for block in quantiles.replicate_blocks(range(B), 10 * sum(c.size for c in cols)):
        g = rng.standard_gamma(shapes, size=(len(block), shapes.size))
        np.cumsum(g, axis=1, out=g)
        u = g[:, :-1]
        u /= g[:, -1:]
        x = fam._from_uniform(Params(), u)
        stats.append(_row_statistics(plan, plan_out, x[:, cols[0]], x[:, cols[1]], n))
    stats = np.concatenate(stats)
    return np.sort(stats[~np.isnan(stats)])


@pytest.mark.parametrize("name, n", [("logistic", 10_000), ("normal", 1000)])
def test_drawn_ahead_null_equals_a_serial_reference(name, n):
    # B = 1, exactly one block, exactly two blocks, and a B that is not a
    # multiple of the block: the same bytes as one thread drawing each
    # block in turn, through the wout cell's _bootstrap_null and through
    # bootstrap_pvalue, whose draws start before the data are sorted
    fam, out_grid = get_family(name), default_out_grid()
    plan = FitPlan.for_family(fam, GRID, "gqls")
    plan_out = FitPlan.for_family(fam, out_grid, "gqls")
    pos, cols, _ = _positions(n, GRID, out_grid)
    rows = len(next(quantiles.replicate_blocks(range(10 ** 6), 10 * sum(c.size for c in cols))))
    data = fam.sample(Params(0.2, 1.5), n, np.random.default_rng(8))
    for B in (1, rows, 2 * rows, 1000):
        if B == 1000:
            assert B % rows
        want = _serial_null(fam, plan, plan_out, n, 21, B, pos, cols)
        got = gof._bootstrap_null(fam, plan, plan_out, n, (21,), B, pos, cols)
        assert got.tobytes() == want.tobytes(), B
        res = bootstrap_pvalue(data, fam, GRID, out_grid, B=B, seed=21)
        assert res.b_replicates == want.size
        assert res.p_value == np.count_nonzero(want > res.statistic) / want.size


def _helper_threads():
    return [t.name for t in quantiles.threading.enumerate() if t.name.startswith("qls-")]


class _FailingGenerator:
    """A generator whose second ``standard_gamma`` call raises."""

    def __init__(self, rng):
        self.rng, self.threads = rng, []

    def standard_gamma(self, *args, **kwargs):
        self.threads.append(quantiles.threading.current_thread().name)
        if len(self.threads) == 2:
            raise RuntimeError("second spacing block")
        return self.rng.standard_gamma(*args, **kwargs)


def test_an_error_in_the_spacing_draws_reaches_the_caller(monkeypatch):
    # whichever thread draws the second block, its error is raised by the
    # caller after the helper is joined, and no block past it is drawn
    fam, n = get_family("logistic"), 10_000
    data = fam.sample(Params(), n, np.random.default_rng(2))
    plan = FitPlan.for_family(fam, GRID, "gqls")
    plan_out = FitPlan.for_family(fam, default_out_grid(), "gqls")
    pos, cols, _ = _positions(n, GRID, default_out_grid())
    made = []
    default_rng = np.random.default_rng

    def failing_rng(key):
        made.append(_FailingGenerator(default_rng(key)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    with pytest.raises(RuntimeError, match="second spacing block") as first:
        bootstrap_pvalue(data, fam, GRID, B=1000, seed=4)
    with pytest.raises(RuntimeError, match="second spacing block") as second:
        gof._bootstrap_null(fam, plan, plan_out, n, (4,), 1000, pos, cols)
    assert not _helper_threads(), (first, second)  # joined while the errors live
    assert [len(gen.threads) for gen in made] == [2, 2]


def test_an_error_in_the_block_statistics_stops_the_draws(monkeypatch):
    # _row_statistics raising on the second block: the error reaches the
    # caller after the helper is stopped and joined
    fam, n = get_family("logistic"), 10_000
    data = fam.sample(Params(), n, np.random.default_rng(3))
    plan = FitPlan.for_family(fam, GRID, "gqls")
    plan_out = FitPlan.for_family(fam, default_out_grid(), "gqls")
    pos, cols, _ = _positions(n, GRID, default_out_grid())
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise ZeroDivisionError("second block")
        return _row_statistics(*args)

    monkeypatch.setattr(gof, "_row_statistics", failing)
    with pytest.raises(ZeroDivisionError, match="second block") as first:
        bootstrap_pvalue(data, fam, GRID, B=1000, seed=5)
    with pytest.raises(ZeroDivisionError, match="second block") as second:
        gof._bootstrap_null(fam, plan, plan_out, n, (5,), 1000, pos, cols)
    assert not _helper_threads(), (first, second)  # joined while the errors live
    assert len(calls) == 4


def test_bootstrap_matches_a_replicate_loop():
    # the batched bootstrap against a loop that draws each replicate's gamma
    # spacings in turn from the stream keyed [seed, 0x9E3779B97F4A7C15],
    # then gathers, refits and tests that replicate alone at the fitted
    # parameters: the pivotal null drawn in standard form reads the same
    # p-value
    n, B, seed = 500, 80, 12
    data, _, _ = normal_fit(n=n, seed=53)
    out_grid = default_out_grid()
    res = bootstrap_pvalue(data, NORMAL, GRID, out_grid, B=B, seed=seed)
    fit = fit_sample(data, NORMAL, GRID, "gqls")  # the bootstrap's fitted model, same bits
    observed = w_out_statistic(data, fit, NORMAL, out_grid)
    assert res.statistic == pytest.approx(observed, rel=1e-12)
    pos, cols, _ = _positions(n, GRID, out_grid)
    idx_fit, idx_out = pos[cols[0]], pos[cols[1]]
    batched = _bootstrap_rows(NORMAL, n, seed, B, GRID, out_grid)
    ranks = np.unique(np.concatenate([idx_fit, idx_out])) + 1
    shapes = np.diff(np.concatenate([[0], ranks, [n + 1]])).astype(float)
    x_out, s_out = design_matrix(NORMAL, out_grid), sigma_star(NORMAL, out_grid)
    rng = np.random.default_rng([seed, 0x9E3779B97F4A7C15])
    exceed = 0
    for b in range(B):
        g = np.cumsum(rng.standard_gamma(shapes))
        y0 = NORMAL._from_uniform(Params(), g[:-1] / g[-1])
        y = NORMAL._from_uniform(fit.params, g[:-1] / g[-1])
        y_fit = y[np.searchsorted(ranks, idx_fit + 1)]
        y_out = y[np.searchsorted(ranks, idx_out + 1)]
        assert np.array_equal(y0[np.searchsorted(ranks, idx_fit + 1)], batched[0][b])
        assert np.array_equal(y0[np.searchsorted(ranks, idx_out + 1)], batched[1][b])
        refit = fit_gqls(QuantileResponse(values=y_fit, n=n), X, S)
        e = y_out - x_out @ np.array([refit.mu, refit.sigma])
        exceed += n / refit.sigma ** 2 * (e @ np.linalg.solve(s_out, e)) > observed
    assert res.p_value == exceed / B and res.failures == 0


def test_bootstrap_rejects_non_finite_data():
    data, _, _ = normal_fit(n=300, seed=54)
    data[3] = np.inf
    with pytest.raises(NonFiniteData):
        bootstrap_pvalue(data, NORMAL, GRID, B=10, seed=0)
