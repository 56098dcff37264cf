import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qls import estimators, families, gof, quantiles, simulate
from qls.errors import (
    WARN_DEGENERATE_GRID,
    WARN_RANK_CLAMPED,
    BootstrapDegenerate,
    DomainError,
    InvalidSeed,
    NoConvergence,
    QlsError,
    RankDeficient,
)
from qls.estimators import FitPlan, fit_mle, fit_sample
from qls.families import FAMILIES, ParamMode, Params, get_family
from qls.gof import plan_w_test
from qls.quantiles import empirical_quantiles, make_grid
from qls.simulate import (
    ContaminationSpec,
    EstimatorSpec,
    McConfig,
    _cell_pvalues,
    _STREAM_KEY,
    _mc_estimates,
    _run_blocks,
    run_mc,
    run_power_study,
    run_timing,
    sample_contaminated,
)

NORMAL = get_family("normal")
CAUCHY = get_family("cauchy")
GRID = make_grid(0.05, 0.95, 25)


def clean(fam=NORMAL, mu=0.0, sigma=1.0):
    return ContaminationSpec(base_family=fam, base_params=Params(mu, sigma))


def contaminated(eps, fam=NORMAL):
    return ContaminationSpec(
        base_family=fam, base_params=Params(0.0, 1.0),
        contaminant_family=NORMAL, contaminant_params=Params(1.0, 3.0),
        epsilon=eps,
    )


def _one_draw_at_a_time(spec, n, rng):
    """Reference sampler: n base draws through the public ``Family.sample``,
    then (epsilon > 0) n mask uniforms; each one m below epsilon replaces its
    base draw by the contaminant's inversion of m / epsilon, mu + sigma *
    qf(m / epsilon)."""
    x = spec.base_family.sample(spec.base_params, n, rng)
    if spec.epsilon > 0.0:
        m = rng.random(n)
        mask = m < spec.epsilon
        u = np.clip(m[mask] / spec.epsilon, families._U_FLOOR, families._U_CEIL)
        c = spec.contaminant_params
        x[mask] = c.mu + c.sigma * spec.contaminant_family.qf(u)
    return x


class _Replay:
    """A stand-in generator whose ``random(size)`` serves the next values of
    a fixed array of uniforms, in the shape asked for."""

    def __init__(self, u):
        self.u, self.used = u, 0

    def random(self, size):
        k = int(np.prod(size))
        self.used += k
        return self.u[self.used - k:self.used].reshape(size).copy()


def _stream_rows(spec, n, prefix, m):
    """Reference for the first m replicates of a study or cell keyed
    ``prefix``: the first m w doubles of ``default_rng([*prefix,
    _STREAM_KEY])`` in one plain draw (no jump ahead), reshaped to (m, w),
    each row transformed on its own by the reference sampler."""
    w = 2 * n if spec.epsilon > 0.0 else n
    u = np.random.default_rng([*prefix, _STREAM_KEY]).random(m * w).reshape(m, w)
    rows = []
    for row in u:
        replay = _Replay(row)
        rows.append(_one_draw_at_a_time(spec, n, replay))
        assert replay.used == w
    return np.array(rows)


def test_spec_validation():
    with pytest.raises(ValueError):
        ContaminationSpec(base_family=NORMAL, epsilon=1.5)
    with pytest.raises(ValueError):
        ContaminationSpec(base_family=NORMAL, epsilon=0.1)  # no contaminant
    assert contaminated(0.05).label.startswith("0.95*normal")


def test_spec_requires_contaminant_parameters():
    # a contaminant family without parameters is refused when the spec is
    # built, not with an AttributeError when it is first sampled
    with pytest.raises(ValueError, match="parameters are required"):
        ContaminationSpec(base_family=NORMAL, contaminant_family=NORMAL, epsilon=0.1)
    # at epsilon = 0 the contaminant is never drawn, so none is needed
    spec = ContaminationSpec(base_family=NORMAL, contaminant_family=NORMAL)
    assert sample_contaminated(spec, 5, np.random.default_rng(1)).shape == (5,)


def test_epsilon_zero_matches_plain_sampling():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    a = sample_contaminated(clean(), 1000, rng1)
    b = NORMAL.sample(Params(0.0, 1.0), 1000, rng2)
    assert np.array_equal(a, b)


def test_epsilon_one_is_pure_contaminant():
    x = sample_contaminated(contaminated(1.0), 20_000, np.random.default_rng(3))
    assert abs(np.mean(x) - 1.0) < 0.1
    assert abs(np.std(x) - 3.0) < 0.1


def test_contaminant_fraction_binomial():
    spec = ContaminationSpec(
        base_family=NORMAL, base_params=Params(0.0, 1.0),
        contaminant_family=get_family("exponential"),
        contaminant_params=Params(100.0, 1.0), epsilon=0.05,
    )
    x = sample_contaminated(spec, 100_000, np.random.default_rng(11))
    frac = np.mean(x > 50.0)  # contaminant support starts at 100
    assert abs(frac - 0.05) < 0.005


# a contaminant of the layout tests, away from the base N(0.4, 1.3^2)
CONTAMINANT = (CAUCHY, Params(3.0, 0.5))


def _mixture(base, eps):
    fam, c = CONTAMINANT
    return ContaminationSpec(base_family=get_family(base), base_params=Params(0.4, 1.3),
                             contaminant_family=fam, contaminant_params=c, epsilon=eps)


@pytest.mark.parametrize("eps", [0.05, 0.5])
@pytest.mark.parametrize("base", ["normal", "logistic"])
def test_contaminated_draws_follow_the_mixture_cdf(base, eps):
    # a contaminated entry is the contaminant's draw from its mask uniform
    # m / eps, so the sample's law is (1 - eps) F0 + eps F1 (Box-Muller base
    # and inversion base alike)
    spec = _mixture(base, eps)
    x = sample_contaminated(spec, 40_000, np.random.default_rng(23))
    b, (fam, c) = spec.base_params, CONTAMINANT

    def cdf(t):
        return ((1 - eps) * spec.base_family.cdf((t - b.mu) / b.sigma)
                + eps * fam.cdf((t - c.mu) / c.sigma))

    assert stats.kstest(x, cdf).pvalue > 1e-3


@pytest.mark.parametrize("eps", [0.05, 0.5])
def test_contaminated_entries_are_contaminant_draws(eps):
    # the entries whose mask uniform lies below eps (found by replaying the
    # stream) against contaminant draws of an unrelated stream, and the
    # other entries against base draws
    n, spec = 40_000, _mixture("normal", eps)
    x = sample_contaminated(spec, n, np.random.default_rng(29))
    hit = np.random.default_rng(29).random(2 * n)[n:] < eps
    fam, c = CONTAMINANT
    other = np.random.default_rng(31)
    assert stats.ks_2samp(x[hit], fam.sample(c, 20_000, other)).pvalue > 1e-3
    assert stats.ks_2samp(x[~hit], NORMAL.sample(spec.base_params, 20_000, other)).pvalue > 1e-3


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_epsilon_one_draws_invert_the_mask_uniforms(name):
    # at eps = 1 every entry is contaminated and m / 1 = m: the draws are the
    # contaminant's inversion of the second n uniforms, bit for bit
    fam, c = get_family(name), Params(-0.7, 2.5)
    spec = ContaminationSpec(base_family=NORMAL, contaminant_family=fam,
                             contaminant_params=c, epsilon=1.0)
    for n in (1, 2, 301):
        u = np.random.default_rng(n).random(2 * n)[n:]
        want = c.mu + c.sigma * fam.qf(np.clip(u, families._U_FLOOR, families._U_CEIL))
        assert sample_contaminated(spec, n, np.random.default_rng(n)).tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [5e-324, 1 - 2 ** -53])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extreme_epsilons_give_finite_draws(name, eps):
    # mask uniforms at both ends of [0, eps): 0, whose ratio is clipped up to
    # the floor, and the largest double below eps, whose ratio lies within a
    # few ulps of 1 and is clipped down to the ceiling; then a real stream
    fam, n = get_family(name), 500
    spec = ContaminationSpec(base_family=NORMAL, contaminant_family=fam,
                             contaminant_params=Params(0.0, 1.0), epsilon=eps)
    u = np.random.default_rng(7).random(2 * n)
    u[n:n + 3] = 0.0, np.nextafter(eps, 0.0), eps
    with np.errstate(all="raise"):
        x = sample_contaminated(spec, n, _Replay(u))
        assert np.isfinite(x).all()
        assert np.isfinite(sample_contaminated(spec, 20_000, np.random.default_rng(8))).all()
    # the first two entries are contaminated and the third (m = eps) is not
    base = NORMAL.sample(Params(), n, np.random.default_rng(7))
    assert (x[:3] != base[:3]).tolist() == [True, True, False]


@pytest.mark.parametrize("eps", [0.0, 5e-324, 0.05, 1 - 2 ** -53, 1.0])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1001])
def test_block_draws_equal_single_rows(n, eps):
    # a (rows, w) block through _from_uniforms, as the engine draws it: its
    # uniforms are only read, and each row is the bytes of that row drawn
    # alone, by sample_contaminated and by the reference sampler; with hits
    # forced at a mask uniform of 0 and at the largest double below eps
    spec = ContaminationSpec(base_family=NORMAL, base_params=Params(1e5, 1e-3),
                             contaminant_family=CAUCHY, contaminant_params=Params(1.0, 3.0),
                             epsilon=eps)
    w = simulate._row_width(spec, n)
    u = np.random.default_rng(n).random((6, w))
    if eps > 0.0:
        u[1, -1], u[3, n] = 0.0, np.nextafter(eps, 0.0)
    kept = u.copy()
    x = simulate._from_uniforms(spec, n, u)
    assert u.tobytes() == kept.tobytes()
    for i, row in enumerate(kept):
        want = sample_contaminated(spec, n, _Replay(row)).tobytes()
        assert x[i].tobytes() == want == _one_draw_at_a_time(spec, n, _Replay(row)).tobytes()
    if eps > 0.0:  # the forced hits are the contaminant's, far from the base's 1e5
        assert abs(x[1, -1] - 1e5) > 1.0 and abs(x[3, 0] - 1e5) > 1.0


def test_sampling_checks_size_and_scales():
    with pytest.raises(DomainError):
        sample_contaminated(clean(), 0, np.random.default_rng(1))
    with pytest.raises(DomainError):
        sample_contaminated(clean(sigma=0.0), 10, np.random.default_rng(1))
    with pytest.raises(DomainError):
        ContaminationSpec(base_family=NORMAL, contaminant_family=NORMAL,
                          contaminant_params=Params(0.0, -1.0), epsilon=1.0)


@pytest.mark.parametrize("params", [Params(float("inf"), 1.0), Params(float("nan"), 1.0),
                                    Params(0.0, float("inf")), Params(1e300, float("nan"))])
def test_non_finite_parameters_are_refused_before_any_draw(params, monkeypatch):
    # no inf or NaN draw and no numpy RuntimeWarning: the sampler, a
    # contaminated sample, a study and a power table refuse the parameters
    # before the generator is touched
    class Untouched:
        def __getattr__(self, name):
            raise AssertionError(f"drew from the generator ({name})")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the parameters were checked")

    monkeypatch.setattr(gof, "_spacings", no_work)
    spec = clean(mu=params.mu, sigma=params.sigma)
    match = "mu and sigma finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            NORMAL.sample(params, 10, Untouched())
        with pytest.raises(DomainError, match=match):
            sample_contaminated(spec, 10, Untouched())
        with pytest.raises(DomainError, match=match):
            run_mc(McConfig(spec=spec, n=20, m=3, estimators=(EstimatorSpec("gqls", GRID),)))
        for test in ("w", "wout"):
            with pytest.raises(DomainError, match=match):
                run_power_study([NORMAL], [spec], [GRID], n=20, m=3, test=test, B=10)
        with pytest.raises(DomainError, match=match):
            ContaminationSpec(base_family=NORMAL, contaminant_family=NORMAL,
                              contaminant_params=params, epsilon=0.1)


@pytest.mark.parametrize("sigma", [-1.0, 0.0, float("nan")])
def test_a_contaminant_that_cannot_be_sampled_is_refused_up_front(sigma):
    # at epsilon = 0.01 a sample of 5 rarely draws a contaminated entry, so
    # the contaminant is refused when the spec is made, not when one is drawn
    with pytest.raises(DomainError, match="sigma must be positive"):
        ContaminationSpec(base_family=NORMAL, contaminant_family=NORMAL,
                          contaminant_params=Params(0.0, sigma), epsilon=0.01)
    unused = ContaminationSpec(base_family=NORMAL, contaminant_family=NORMAL,
                               contaminant_params=Params(0.0, sigma), epsilon=0.0)
    assert sample_contaminated(unused, 5, np.random.default_rng(0)).shape == (5,)


@pytest.mark.parametrize("known", [{"known_mu": float("nan")}, {"known_mu": float("inf")},
                                   {"known_sigma": float("nan")},
                                   {"known_sigma": -float("inf")}])
@pytest.mark.parametrize("method", ["gqls", "mle"])
def test_non_finite_known_parameters_are_refused_before_any_draw(known, method):
    with pytest.raises(DomainError, match="must be finite"):
        EstimatorSpec(method, None if method == "mle" else GRID, ParamMode.SCALE_ONLY,
                      **known)


def test_estimator_spec_mle_refuses_a_known_sigma():
    # the MLE takes no known scale: a spec that gives one is refused, and an
    # unset one stays unset; a QLS spec reads unset as 1
    for value in (1.0, 2.0):
        with pytest.raises(DomainError, match="MLE takes no known scale"):
            EstimatorSpec("mle", known_sigma=value)
    assert EstimatorSpec("mle", mode=ParamMode.SCALE_ONLY).known_sigma is None
    assert EstimatorSpec("gqls", GRID).known_sigma == 1.0
    assert EstimatorSpec("gqls", GRID) == EstimatorSpec("gqls", GRID, known_sigma=1.0)
    assert EstimatorSpec("oqls", GRID, known_sigma=2.5).known_sigma == 2.5


def test_run_mc_deterministic_and_clean():
    cfg = McConfig(
        spec=clean(), n=200, m=50,
        estimators=(
            EstimatorSpec("gqls", GRID),
            EstimatorSpec("oqls", GRID),
            EstimatorSpec("mle"),
        ),
        seed=99,
    )
    s1 = run_mc(cfg)
    s2 = run_mc(cfg)
    assert s1.as_rows() == s2.as_rows()
    for label, count in s1.failures.items():
        assert count == 0, label
    g = s1.stats["gqls(0.05,0.95,k=25)"]
    assert abs(g["mu"].bias) < 0.1
    assert g["mu"].q1 <= g["mu"].median <= g["mu"].q3
    assert g["sigma"].sqrt_mse >= abs(g["sigma"].bias)


def test_run_mc_workers_match_serial():
    cfg = McConfig(spec=clean(), n=150, m=40,
                   estimators=(EstimatorSpec("gqls", GRID),), seed=5)
    serial = run_mc(cfg).as_rows()
    parallel = run_mc(McConfig(spec=clean(), n=150, m=40,
                               estimators=(EstimatorSpec("gqls", GRID),),
                               seed=5, workers=4)).as_rows()
    assert serial == parallel


def test_run_mc_scale_only_families():
    expo = get_family("exponential")
    cfg = McConfig(
        spec=clean(expo), n=300, m=30,
        estimators=(
            EstimatorSpec("gqls", GRID),
            EstimatorSpec("mle", mode=ParamMode.SCALE_ONLY, known_mu=0.0),
        ),
        seed=17,
    )
    s = run_mc(cfg)
    assert "sigma" in s.stats["mle"]
    assert "mu" not in s.stats["mle"]
    assert abs(s.stats["mle"]["sigma"].bias) < 0.1


def test_root_mse_ratio_light():
    # light version of the calibration study: expect ~ sqrt(10)
    est = (EstimatorSpec("gqls", GRID),)
    a = run_mc(McConfig(spec=clean(), n=100, m=400, estimators=est, seed=1))
    b = run_mc(McConfig(spec=clean(), n=1000, m=400, estimators=est, seed=2))
    lab = "gqls(0.05,0.95,k=25)"
    ratio = a.stats[lab]["mu"].sqrt_mse / b.stats[lab]["mu"].sqrt_mse
    assert 2.4 <= ratio <= 4.0


def test_contamination_hurts_mle_not_gqls():
    est = (EstimatorSpec("mle"), EstimatorSpec("gqls", make_grid(0.10, 0.90, 25)))
    s = run_mc(McConfig(spec=contaminated(0.05), n=500, m=200,
                        estimators=est, seed=31))
    assert s.stats["mle"]["sigma"].median > 1.1
    assert 0.85 <= s.stats["gqls(0.1,0.9,k=25)"]["sigma"].median <= 1.15


def test_power_study_w_level_and_power():
    cells = run_power_study(
        h0_families=[NORMAL],
        generators=[clean(), clean(CAUCHY)],
        grids=[GRID], n=500, m=150, alpha=0.05, test="w", seed=7,
    )
    by_gen = {c.generator: c for c in cells}
    assert by_gen["normal"].rejection_rate < 0.12
    assert by_gen["cauchy"].rejection_rate > 0.95
    assert all(c.failures == 0 for c in cells)


def test_power_study_wout_smoke():
    cells = run_power_study(
        h0_families=[NORMAL], generators=[clean()], grids=[GRID],
        n=300, m=25, alpha=0.05, test="wout", B=60, seed=3,
    )
    assert len(cells) == 1
    assert 0.0 <= cells[0].rejection_rate <= 0.3


def test_power_study_deterministic():
    args = dict(h0_families=[NORMAL], generators=[clean()], grids=[GRID],
                n=200, m=30, alpha=0.05, test="w", seed=11)
    assert run_power_study(**args) == run_power_study(**args)


def test_run_timing_shape_and_separation():
    rows = run_timing([NORMAL, CAUCHY], ["oqls", "gqls"], [10_000, 20_000],
                      repeats=2, seed=1)
    assert len(rows) == 8
    for r in rows:
        assert r.fit_seconds >= 0.0 and r.sample_seconds >= 0.0
        assert not r.timed_out
    ns = [(r.family, r.method, r.n) for r in rows]
    assert ("normal", "oqls", 10_000) in ns


def test_run_timing_timeout_marker():
    rows = run_timing([NORMAL], ["gqls"], [50_000], repeats=3, timeout=0.0, seed=2)
    assert rows[0].timed_out
    assert rows[0].repeats == 1  # stopped after the first over-budget fit


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------

ENGINE_ESTIMATORS = (
    EstimatorSpec("gqls", GRID),
    EstimatorSpec("oqls", make_grid(0.10, 0.90, 25)),
    EstimatorSpec("gqls", make_grid(0.10, 0.90, 15), mode=ParamMode.LOCATION_ONLY),
    EstimatorSpec("oqls", GRID, mode=ParamMode.SCALE_ONLY),
    EstimatorSpec("mle"),
)


@pytest.mark.parametrize("n, one_row_blocks", [(1000, False), (1000, True), (40, True)])
def test_replicate_estimates_do_not_depend_on_the_study_size(n, one_row_blocks, monkeypatch):
    # a block holds at most 2^17 draws, 131 rows at n = 1000 (whatever the
    # 2000 uniforms a contaminated row is made of): m = 300 spans three blocks
    # and m = 10 one partial block; capping a block at n values gives one-row
    # blocks
    def study(m):
        return _mc_estimates(McConfig(spec=contaminated(0.05), n=n, m=m,
                                      estimators=ENGINE_ESTIMATORS, seed=21))[0]

    big = study(300)
    if one_row_blocks:
        monkeypatch.setattr(quantiles, "_BLOCK_VALUES", n)
    small = study(10)
    assert np.array_equal(big[:10], small, equal_nan=True)
    assert np.isfinite(big[:, :, 0]).all()
    assert np.isfinite(big[:, ENGINE_ESTIMATORS.index(EstimatorSpec("mle"))]).all()


def test_block_rows_stay_within_one_mebibyte():
    for n in (1, 7, 1000, 2 ** 17, 2 ** 17 + 1, 10 ** 6):
        blocks = list(quantiles.replicate_blocks(range(5, 2005), n))
        assert [r for b in blocks for r in b] == list(range(5, 2005))
        assert all(len(b) == 1 or len(b) * n * 8 <= 2 ** 20 for b in blocks)


def test_study_blocks_count_draws_and_bootstrap_blocks_keep_their_size():
    # a contaminated study at n = 1000 reads 2000 uniforms a row, but its
    # blocks are cut by their draws: 131 rows, as in a clean study
    n, m = 1000, 300
    for spec in (clean(), contaminated(0.05)):
        shapes = []  # the two workers may finish their blocks in either order
        _run_blocks(spec, n, range(m), (3,), lambda reps, block: shapes.append(
            (reps.start, len(reps), block.shape)))
        assert [rows for _, rows, _ in sorted(shapes)] == [131, 131, 38]
        assert all(shape == (rows, n) and rows * n <= quantiles._BLOCK_VALUES
                   for _, rows, shape in shapes)
    # the W_out bootstrap at the benchmark's layout (n = 10^4, the default
    # grid and out-levels: 71 positions, 75 read columns) keeps ten values
    # per read column and row: 174-row blocks of 72 spacings
    pos, cols, _ = quantiles._positions(10 ** 4, GRID, gof.make_out_grid())
    assert pos.size == 71 and sum(c.size for c in cols) == 75
    with gof._spacings(10 ** 4, (3,), 400, pos, cols) as blocks:
        assert [g.shape for g in blocks] == [(174, 72), (174, 72), (52, 72)]


@pytest.mark.parametrize("one_row_blocks", [False, True])
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_block_sampler_rows_equal_single_draws(name, epsilon, one_row_blocks, monkeypatch):
    # a block holds at most 2^17 draws, 436 rows at n = 300, whether a row is
    # made of 300 uniforms (epsilon = 0) or 600 (0.1): 500 replicates span
    # two blocks
    n, m, seed = 300, 500, 13
    spec = ContaminationSpec(
        base_family=get_family(name), base_params=Params(0.4, 1.3),
        contaminant_family=get_family("gumbel"), contaminant_params=Params(2.0, 3.0),
        epsilon=epsilon)
    if one_row_blocks:
        monkeypatch.setattr(quantiles, "_BLOCK_VALUES", n)
        m = 5
    blocks = []
    _run_blocks(spec, n, range(m), (seed,), lambda reps, block: blocks.append((reps, block)))
    assert len(blocks) == (m if one_row_blocks else -(-m // (2 ** 17 // n)))
    want = _stream_rows(spec, n, (seed,), m)
    for reps, block in blocks:
        for r, row in zip(reps, block):
            assert np.array_equal(row, want[r])
    # sample_contaminated on the study's own generator reads the same rows in turn
    stream = np.random.default_rng([seed, _STREAM_KEY])
    for r in range(m):
        assert np.array_equal(sample_contaminated(spec, n, stream), want[r])


def test_wout_cell_data_equal_single_draws(monkeypatch):
    # replicate r of a wout cell tests the sample made of the r-th run of w
    # doubles of default_rng([*cell_seed, _STREAM_KEY]), and its p-value is
    # the share of the cell's one null strictly above its statistic; the
    # reference statistic is the public one of a single fit, and the
    # reference count a plain comparison
    n, m, B, cell_seed = 300, 500, 50, (2 ** 33 + 5, 1, 0, 2)
    spec = contaminated(0.1)
    out_grid = gof.make_out_grid()
    sources, nulls = [], []
    spacings, make_nulls = gof._spacings, gof._nulls

    def record_source(*args):
        sources.append(args)
        return spacings(*args)

    def record(*args, **kwargs):
        nulls.append(make_nulls(*args, **kwargs))
        return nulls[-1]

    monkeypatch.setattr(gof, "_spacings", record_source)
    monkeypatch.setattr(gof, "_nulls", record)
    pvals = _cell_pvalues(NORMAL, spec, GRID, n, m, B, cell_seed, "wout")[0]
    assert len(sources) == len(nulls) == 1 and len(nulls[0]) == 1
    args, null = sources[0], nulls[0][0]
    assert args[1] == cell_seed and args[2] == B and len(null) == B
    for r, data in enumerate(_stream_rows(spec, n, cell_seed, m)):
        fit = fit_sample(data, NORMAL, GRID, "gqls")
        stat = gof.w_out_statistic(data, fit, NORMAL, out_grid)
        assert pvals[r] == np.count_nonzero(null > stat) / B, r


def test_wout_cell_is_deterministic_and_block_free(monkeypatch):
    args = (NORMAL, contaminated(0.1), GRID, 200, 60, 100, (5, 0, 1, 0), "wout")
    want = _cell_pvalues(*args)[0]
    assert np.all(np.isfinite(want))
    assert _cell_pvalues(*args)[0].tobytes() == want.tobytes()
    monkeypatch.setattr(quantiles, "_BLOCK_VALUES", 1)
    assert _cell_pvalues(*args)[0].tobytes() == want.tobytes()


def test_wout_cell_holds_its_level_under_h0():
    # one null of B replicates serves all m p-values, so the rate's Monte
    # Carlo spread is alpha (1 - alpha) (1/m + 1/B); data away from the
    # standard member exercise the pivot
    m, B, alpha = 2000, 1000, 0.05
    cells = run_power_study([NORMAL], [clean(mu=5.0, sigma=2.0)], [GRID], n=200, m=m,
                            alpha=alpha, test="wout", B=B, seed=12)
    assert cells[0].failures == 0
    half_width = 4 * np.sqrt(alpha * (1 - alpha) * (1 / m + 1 / B))
    assert abs(cells[0].rejection_rate - alpha) <= half_width


def test_wout_cell_with_a_failed_null_fails_every_replicate(monkeypatch):
    def degenerate(*args, **kwargs):
        return [BootstrapDegenerate("all failed")]

    monkeypatch.setattr(gof, "_nulls", degenerate)
    cells = run_power_study([NORMAL], [clean()], [GRID], n=100, m=9, test="wout", B=20,
                            seed=1)
    assert cells[0].failures == 9 and np.isnan(cells[0].rejection_rate)


@pytest.mark.parametrize("bad, match", [
    (dict(n=0), "sample size"), (dict(n=-3), "sample size"), (dict(m=0), "replicate count"),
    (dict(m=-1), "replicate count"), (dict(test="x"), "unknown test"),
    (dict(test="wout", B=0), "bootstrap"), (dict(test="wout", B=-2), "bootstrap"),
])
def test_power_study_refuses_bad_arguments_before_any_draw(bad, match, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(simulate, "_run_blocks", no_work)
    monkeypatch.setattr(gof, "_spacings", no_work)
    kwargs = {**dict(n=100, m=5, test="w", B=20, seed=1), **bad}
    with pytest.raises(DomainError, match=match):
        run_power_study([NORMAL], [clean()], [GRID], **kwargs)


def test_library_specs_refuse_bad_arguments_as_domain_errors(monkeypatch):
    monkeypatch.setattr(simulate, "_run_blocks", None)  # any draw would fail
    for n in (0, -1):
        with pytest.raises(DomainError, match="sample size"):
            McConfig(spec=clean(), n=n, m=3, estimators=(EstimatorSpec("mle"),))
    with pytest.raises(DomainError, match="replicate"):
        McConfig(spec=clean(), n=10, m=0, estimators=(EstimatorSpec("mle"),))
    for eps in (-0.1, 1.5, float("nan")):
        with pytest.raises(DomainError, match="epsilon"):
            ContaminationSpec(base_family=NORMAL, epsilon=eps)
    with pytest.raises(DomainError, match="unknown method"):
        EstimatorSpec("foo")
    for repeats in (0, -2):
        with pytest.raises(DomainError, match="at least one repeat"):
            run_timing([NORMAL], ["gqls"], [100], repeats=repeats)


@pytest.mark.parametrize("seed", [-1, -2 ** 40, 1.5, 2.0, "3", None])
def test_negative_and_non_integer_seeds_are_refused_up_front(seed, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(simulate, "_run_blocks", no_work)
    monkeypatch.setattr(gof, "_read_sorted", no_work)
    with pytest.raises(InvalidSeed):
        McConfig(spec=clean(), n=10, m=2, estimators=(EstimatorSpec("mle"),), seed=seed)
    for test in ("w", "wout"):
        with pytest.raises(InvalidSeed):
            run_power_study([NORMAL], [clean()], [GRID], n=50, m=2, test=test, seed=seed)
    with pytest.raises(InvalidSeed):
        gof.bootstrap_pvalue(np.arange(100.0), NORMAL, GRID, B=10, seed=seed)
    with pytest.raises(InvalidSeed):
        run_timing([NORMAL], ["gqls"], [100], seed=seed)
    assert issubclass(InvalidSeed, DomainError) and issubclass(InvalidSeed, ValueError)


def test_run_mc_keeps_the_grid_tags():
    # at n = 2 a 25-level grid clamps its first rank and repeats ranks
    ests = (EstimatorSpec("gqls", GRID), EstimatorSpec("oqls", make_grid(0.5, 0.9, 2)),
            EstimatorSpec("mle"))
    s = run_mc(McConfig(spec=clean(), n=2, m=5, estimators=ests, seed=3))
    data = _stream_rows(clean(), 2, (3,), 1)[0]
    assert s.warnings == {
        **{est.label: fit_sample(data, NORMAL, est.grid, est.method).warnings
           for est in ests[:2]},
        "mle": (),
    }
    assert s.warnings[ests[1].label] == ()
    assert s.warnings[ests[0].label] == ("rank_clamped_to_first_order_statistic",
                                         "degenerate_grid")
    assert list(s.as_rows()[0]) == ["estimator", "parameter", "mean", "bias", "sqrt_mse",
                                    "min", "q1", "median", "q3", "max", "n_used",
                                    "failures"]
    big = run_mc(McConfig(spec=clean(), n=200, m=2, estimators=ests, seed=3))
    assert all(tags == () for tags in big.warnings.values())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batched_estimates_match_single_fits(name):
    fam = get_family(name)
    specs = [ContaminationSpec(base_family=fam, base_params=Params(0.4, 1.3))]
    if name == "normal":
        specs.append(contaminated(0.1))
    grid = make_grid(0.05, 0.95, 20)
    known = dict(known_mu=0.4, known_sigma=1.3)
    ests = tuple(EstimatorSpec(kind, grid, mode=mode, **known)
                 for kind in ("gqls", "oqls") for mode in ParamMode)
    # the MLE where it exists (joint, or scale-only with the location known)
    mles = (EstimatorSpec("mle", mode=ParamMode.LOCATION_SCALE),
            EstimatorSpec("mle", mode=ParamMode.SCALE_ONLY, known_mu=0.4, label="mle-scale"))
    for spec in specs:
        cfg = McConfig(spec=spec, n=300, m=12, estimators=ests + mles, seed=8)
        batched = _mc_estimates(cfg)[0]
        for r, draws in enumerate(_stream_rows(spec, cfg.n, (cfg.seed,), cfg.m)):
            for j, est in enumerate(ests):
                fit = fit_sample(draws, fam, grid, est.method, est.mode, **known)
                want = [getattr(fit, p) for p in est.param_names]
                got = batched[r, j, :len(want)]
                assert np.all(np.abs(got - want) <= 1e-12 * spec.base_params.sigma), (r, est)
            for j, est in enumerate(mles, len(ests)):
                got = batched[r, j, :len(est.param_names)]
                try:
                    fit = fit_mle(fam, draws, est.mode, known_mu=est.known_mu)
                except QlsError:
                    assert np.isnan(got).all(), (r, est)
                    continue
                assert np.array_equal(got, [getattr(fit, p) for p in est.param_names]), (r, est)


def test_batched_failures_follow_the_single_fit_rules():
    # with the location known to lie far above the data, a scale-only fit on
    # upper levels (all Q0(p) > 0) gives sigma < 0: every replicate fails,
    # while a location-only fit never fails on its known scale
    upper = make_grid(0.5, 0.95, 10)
    ests = (EstimatorSpec("gqls", upper, mode=ParamMode.SCALE_ONLY, known_mu=100.0),
            EstimatorSpec("gqls", upper, mode=ParamMode.LOCATION_ONLY, known_sigma=-1.0,
                          label="loc"),
            EstimatorSpec("oqls", upper))
    cfg = McConfig(spec=clean(), n=200, m=5, estimators=ests, seed=1)
    s = run_mc(cfg)
    assert list(s.failures.values()) == [5, 0, 0]
    assert "sigma" not in s.stats[ests[0].label]
    draws = _stream_rows(clean(), 200, (1,), 1)[0]
    assert fit_sample(draws, NORMAL, upper, mode=ParamMode.SCALE_ONLY, known_mu=100.0).sigma < 0


def test_power_w_matches_single_tests():
    gen = contaminated(0.1)
    cells = run_power_study([NORMAL], [gen], [GRID], n=400, m=30, alpha=0.2, test="w", seed=4)
    plan = FitPlan.for_family(NORMAL, GRID, "gqls")
    rejections = 0
    for data in _stream_rows(gen, 400, (4, 0, 0, 0), 30):
        y = empirical_quantiles(data, GRID)
        rejections += plan_w_test(plan, y, plan.fit(y)).p_value <= 0.2
    assert cells[0].rejection_rate == rejections / 30
    assert cells[0].failures == 0


def test_power_w_counts_every_replicate_failed_below_three_levels():
    cells = run_power_study([NORMAL], [clean()], [make_grid(0.1, 0.9, 2)], n=100, m=7,
                            test="w", seed=2)
    assert cells[0].failures == 7 and np.isnan(cells[0].rejection_rate)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)),
       st.sampled_from(["oqls", "gqls"]),
       st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=0.01, max_value=100.0),
       st.integers(min_value=0, max_value=9999))
def test_fit_is_location_scale_equivariant(name, kind, a, b, seed):
    # fit(a + b x) = a + b fit(x), for single fits and for a batch of rows
    fam = get_family(name)
    grid = make_grid(0.05, 0.95, 25)
    data = fam.sample(Params(0.0, 1.0), 300, np.random.default_rng(seed))
    y = empirical_quantiles(data, grid).values
    tol = 1e-10 * (abs(a) + b * float(np.max(np.abs(y))))
    base = fit_sample(data, fam, grid, kind)
    moved = fit_sample(a + b * data, fam, grid, kind)
    assert abs(moved.mu - (a + b * base.mu)) <= tol
    assert abs(moved.sigma - b * base.sigma) <= tol
    plan = FitPlan.for_family(fam, grid, kind)
    rows = np.stack([y, y[::-1] * -1.0])
    beta = plan.solve(rows)
    beta_moved = plan.solve(a + b * rows)
    assert np.all(np.abs(beta_moved - (np.array([a, 0.0]) + b * beta)) <= tol)


# ---------------------------------------------------------------------------
# two-worker engine
# ---------------------------------------------------------------------------

def _serial_blocks(spec, n, replicates, seed_prefix, work):
    """One-thread reference for ``_run_blocks``: blocks of n-value rows in
    order, cut from the reference rows of the whole stream."""
    rows = _stream_rows(spec, n, seed_prefix, replicates.stop)
    for reps in quantiles.replicate_blocks(replicates, n):
        work(reps, rows[reps.start:reps.stop].copy())


def _engine_and_reference(cfg, monkeypatch):
    engine = _mc_estimates(cfg)[0]
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_run_blocks", _serial_blocks)
        reference = _mc_estimates(cfg)[0]
    return engine, reference


def _both_workers(work):
    """``work`` wrapped so that each worker's first block waits at a
    two-party barrier: both workers hold a block before either one runs
    ``work``, so each runs at least one block whichever raises first."""
    barrier = threading.Barrier(2, timeout=30)
    started = threading.local()

    def wrapped(reps, block):
        if not getattr(started, "value", False):
            started.value = True
            barrier.wait()
        work(reps, block)

    return wrapped


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_engine_equals_a_one_thread_reference(name, epsilon, monkeypatch):
    # 10-row blocks, so 55 replicates give six blocks for the two workers
    fam = get_family(name)
    spec = ContaminationSpec(base_family=fam, base_params=Params(0.4, 1.3),
                             contaminant_family=get_family("gumbel"),
                             contaminant_params=Params(2.0, 3.0), epsilon=epsilon)
    ests = (EstimatorSpec("mle"), EstimatorSpec("mle", mode=ParamMode.SCALE_ONLY, known_mu=-50.0),
            EstimatorSpec("gqls", GRID), EstimatorSpec("oqls", make_grid(0.10, 0.90, 15)))
    n = 120
    monkeypatch.setattr(quantiles, "_BLOCK_VALUES", 10 * n)
    cfg = McConfig(spec=spec, n=n, m=55, estimators=ests, seed=2 ** 40 + 3)
    engine, reference = _engine_and_reference(cfg, monkeypatch)
    assert engine.tobytes() == reference.tobytes()
    assert np.isfinite(engine[:, 2:]).all()


def test_engine_single_block_with_many_hits(monkeypatch):
    # one block of seven rows at epsilon = 0.3: about 120 contaminated
    # entries per row, every row's taken from the mask half of its own draw
    cfg = McConfig(spec=contaminated(0.3), n=400, m=7, seed=5,
                   estimators=(EstimatorSpec("mle"), EstimatorSpec("gqls", GRID)))
    assert len(list(quantiles.replicate_blocks(range(cfg.m), cfg.n))) == 1
    engine, reference = _engine_and_reference(cfg, monkeypatch)
    assert engine.tobytes() == reference.tobytes()


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
def test_sample_contaminated_does_not_overdraw(epsilon):
    # a caller's generator ends exactly w uniforms on (n at epsilon = 0, 2n
    # otherwise), where the reference sampler's separate draws leave it
    spec = ContaminationSpec(base_family=NORMAL, contaminant_family=CAUCHY,
                             contaminant_params=Params(0.0, 2.0), epsilon=epsilon)
    rng, ref, plain = (np.random.default_rng(17) for _ in range(3))
    for n in (1, 50, 999):
        assert sample_contaminated(spec, n, rng).tobytes() == _one_draw_at_a_time(
            spec, n, ref).tobytes()
        plain.random(2 * n if epsilon > 0.0 else n)
        assert rng.bit_generator.state == ref.bit_generator.state == plain.bit_generator.state


class _NoHelper:
    """A stand-in for the engine's helper thread that never runs, so the
    caller takes every block."""

    def __init__(self, target, args, name):
        pass

    def start(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("study", ["mc", "w", "wout"])
def test_study_bytes_do_not_depend_on_blocks_or_threads(study, monkeypatch):
    # replicate r is the transform of doubles [r w, (r + 1) w) of its key's
    # stream, whatever the blocks and whichever thread draws them: the same
    # bytes at the default blocks, on one-row blocks, on 7-row blocks on one
    # thread and on two, and from the jump-free reference
    n, m = 400, 90
    spec = contaminated(0.05)
    if study == "mc":
        cfg = McConfig(spec=spec, n=n, m=m, estimators=ENGINE_ESTIMATORS, seed=2 ** 40 + 9)

        def run():
            return _mc_estimates(cfg)[0]
    else:
        def run():
            return _cell_pvalues(NORMAL, spec, GRID, n, m, 50, (9, 1, 0, 2), study)[0]
    want = run()
    assert np.isfinite(want[..., 0]).all()
    with monkeypatch.context() as patch:
        patch.setattr(quantiles, "_BLOCK_VALUES", 1)
        assert run().tobytes() == want.tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(quantiles, "_BLOCK_VALUES", 7 * n)
        patch.setattr(quantiles, "threading",
                      types.SimpleNamespace(Lock=threading.Lock, Thread=_NoHelper))
        assert run().tobytes() == want.tobytes()
    workers = set()
    run_blocks = simulate._run_blocks

    def on_both_workers(spec, n, replicates, seed_prefix, work):
        def recorded(reps, block):
            workers.add(threading.current_thread().name)
            work(reps, block)
        run_blocks(spec, n, replicates, seed_prefix, _both_workers(recorded))

    with monkeypatch.context() as patch:
        patch.setattr(quantiles, "_BLOCK_VALUES", 7 * n)
        patch.setattr(simulate, "_run_blocks", on_both_workers)
        assert run().tobytes() == want.tobytes()
    assert len(workers) == 2
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_run_blocks", _serial_blocks)
        assert run().tobytes() == want.tobytes()


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_engine_error_reaches_the_caller_and_stops_both_workers(failing):
    threads_before = threading.active_count()
    taken = []

    def work(reps, block):
        taken.append(reps)
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper == (failing == "helper"):
            raise ZeroDivisionError(f"block {reps.start}")

    with pytest.raises(ZeroDivisionError, match="block"):
        _run_blocks(clean(), 1000, range(20 * 131), (1,), _both_workers(work))
    assert threading.active_count() == threads_before
    # the workers stop at the error instead of running out the 20 blocks
    assert 2 <= len(taken) < 10


def test_engine_stress_takes_every_block_once(monkeypatch):
    # three studies at once (six workers on fewer cores), one-row blocks and a
    # tiny switch interval: a lost update to a study's block queue would skip
    # or repeat a replicate, or hand it another study's draws or another
    # replicate's place in its stream
    n, m = 50, 300
    monkeypatch.setattr(quantiles, "_BLOCK_VALUES", n)
    taken = {seed: [] for seed in (3, 4, 5)}

    def study(seed):
        _run_blocks(clean(), n, range(m), (seed,),
                    lambda reps, block: taken[seed].append((reps.start, block[0, 0])))

    callers = [threading.Thread(target=study, args=(seed,)) for seed in taken]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed, rows in taken.items():
        assert sorted(r for r, _ in rows) == list(range(m))
        want = _stream_rows(clean(), n, (seed,), m)
        for r, first in rows:
            assert first == want[r, 0]


def test_engine_workers_share_the_callers_error_state():
    seen = []

    def work(reps, block):
        seen.append((threading.current_thread().name, np.geterr()))

    with np.errstate(divide="raise", over="ignore"):
        caller = np.geterr()
        _run_blocks(clean(), 1000, range(6 * 131), (2,), _both_workers(work))
    assert len(seen) == 6 and len({name for name, _ in seen}) == 2
    assert all(state == caller for _, state in seen)
    assert caller["divide"] == "raise" and np.geterr()["divide"] != "raise"


def test_split_sort_inside_a_study_worker(monkeypatch):
    # at n = 2^17 + 1 every block is one row, and each numeric MLE starts
    # from a gQLS fit whose quantiles take the split sort: a second helper
    # thread started from inside a worker.  The estimates are the one-thread
    # reference's, and no thread is left behind.
    n = quantiles._BLOCK_VALUES + 1
    sizes = []
    order_statistics = quantiles._order_statistics

    def recorded(data, positions):
        sizes.append(data.shape[0])
        return order_statistics(data, positions)

    monkeypatch.setattr(quantiles, "_order_statistics", recorded)
    cfg = McConfig(spec=clean(CAUCHY, 0.3, 2.0), n=n, m=4, seed=12,
                   estimators=(EstimatorSpec("mle"),))
    before = threading.active_count()
    engine, reference = _engine_and_reference(cfg, monkeypatch)
    assert threading.active_count() == before
    assert sizes.count(n) >= 8  # four rows, in the engine and in the reference
    assert np.isfinite(engine).all() and engine.tobytes() == reference.tobytes()


def test_a_failed_numeric_mle_row_fails_only_its_replicate(monkeypatch):
    # the cauchy MLE raises on replicate 5's data: that replicate of the mle
    # column reads NaN and is counted, and every other estimate keeps its bytes
    spec = clean(CAUCHY)
    cfg = McConfig(spec=spec, n=60, m=12, seed=4,
                   estimators=(EstimatorSpec("mle"), EstimatorSpec("gqls", GRID)))
    want = _mc_estimates(cfg)[0]
    bad = _stream_rows(spec, cfg.n, (cfg.seed,), cfg.m)[5]
    numeric_mle = estimators._numeric_mle

    def failing(fam, x):
        if np.array_equal(x, bad):
            raise NoConvergence("replicate 5")
        return numeric_mle(fam, x)

    monkeypatch.setattr(estimators, "_numeric_mle", failing)
    got = _mc_estimates(cfg)[0]
    assert np.isnan(got[5, 0]).all() and np.isfinite(want).all()
    got[5, 0] = want[5, 0]
    assert got.tobytes() == want.tobytes()
    summary = run_mc(cfg)
    assert summary.failures == {"mle": 1, cfg.estimators[1].label: 0}
    assert summary.stats["mle"]["mu"].n_used == cfg.m - 1


def test_a_qls_column_with_a_singular_gram_fails_every_replicate():
    # two levels 1e-12 apart give an oQLS design of rank one: the column's
    # solve raises RankDeficient, every replicate of it fails, and the other
    # columns keep the bytes of a study without it
    singular = EstimatorSpec("oqls", make_grid(0.3, 0.3 + 1e-12, 2))
    with pytest.raises(RankDeficient):
        FitPlan.for_family(NORMAL, singular.grid, "oqls").solver()
    others = (EstimatorSpec("mle"), EstimatorSpec("gqls", GRID))
    cfg = McConfig(spec=contaminated(0.05), n=200, m=40, seed=8,
                   estimators=(others[0], singular, others[1]))
    got = _mc_estimates(cfg)[0]
    want = _mc_estimates(McConfig(spec=cfg.spec, n=cfg.n, m=cfg.m, seed=cfg.seed,
                                  estimators=others))[0]
    assert np.isnan(got[:, 1]).all()
    assert got[:, [0, 2]].tobytes() == want.tobytes()
    assert run_mc(cfg).failures[singular.label] == cfg.m


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_from_uniform_bits_and_no_aliasing(name):
    fam = get_family(name)
    u = np.random.default_rng(6).random((4, 300))
    u[0, :3] = 0.0, 1.0, 5e-324
    params = Params(-2.5, 3.75)
    kept = u.copy()
    with np.errstate(all="raise"):  # the clip keeps every quantile finite
        out = fam._from_uniform(params, u)
        want = params.mu + params.sigma * fam._qf(np.clip(kept, families._U_FLOOR,
                                                          families._U_CEIL))
    assert out.tobytes() == want.tobytes()
    assert not np.shares_memory(out, u)


def test_power_cells_keep_the_grid_tags():
    # at n = 2 a 25-level grid clamps its first rank and repeats ranks: the
    # cell reports it, as a fit on the same two points would
    cells = run_power_study([NORMAL], [clean()], [GRID, make_grid(0.5, 0.9, 2)],
                            n=2, m=5, test="w", seed=1)
    data = _stream_rows(clean(), 2, (1, 0, 0, 0), 1)[0]
    assert cells[0].warnings == fit_sample(data, NORMAL, GRID).warnings == (
        "rank_clamped_to_first_order_statistic", "degenerate_grid")
    assert cells[1].warnings == ()
    assert cells[0].label == "normal/(0.05,0.95,k=25)"
    assert list(cells[0].as_row()) == ["h0_family", "generator", "a", "b", "k", "n", "m",
                                       "test", "alpha", "rejection_rate", "failures"]
    big = run_power_study([NORMAL], [clean()], [GRID], n=200, m=2, test="w", seed=1)
    assert big[0].warnings == ()


def test_wout_cell_reports_the_rank_tags_of_both_level_sets():
    # at n = 30 the grid (0.1, 0.9, 5) reads ranks 3, 9, ..., 27, but the
    # default out-levels 0.01 and 0.03 both read rank 1: a wout cell carries
    # the out-levels' tags as bootstrap_pvalue does, a w cell only its grid's
    grid, n = make_grid(0.1, 0.9, 5), 30
    data = NORMAL.sample(Params(), n, np.random.default_rng(3))
    boot = gof.bootstrap_pvalue(data, NORMAL, grid, B=20, seed=1)
    rank_tags = tuple(t for t in boot.warnings if t in (WARN_RANK_CLAMPED, WARN_DEGENERATE_GRID))
    assert rank_tags == (WARN_RANK_CLAMPED, WARN_DEGENERATE_GRID)
    wout, w = (run_power_study([NORMAL], [clean()], [grid], n=n, m=5, test=test, B=20,
                               seed=2)[0] for test in ("wout", "w"))
    assert wout.warnings == rank_tags
    assert w.warnings == ()
