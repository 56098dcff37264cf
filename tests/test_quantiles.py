import math
import multiprocessing
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qls.errors import (
    WARN_DEGENERATE_GRID,
    WARN_RANK_CLAMPED,
    WARN_TIED_QUANTILES,
    DegenerateDensity,
    EmptySample,
    InvalidGrid,
    NonFiniteData,
    QlsError,
)
from qls import quantiles
from qls.families import FAMILIES, ParamMode, Params, get_family
from qls.linalg import spd_factorize
from qls.efficiency import are
from qls.estimators import FitPlan, fit_sample
from qls.gof import bootstrap_pvalue
from qls.quantiles import (
    QuantileResponse,
    design_matrix,
    empirical_quantiles,
    level_density,
    make_grid,
    precision_band,
    sigma_star,
)


def _dense_precision(fam, grid):
    p, _, f = level_density(fam, grid)
    main, off = precision_band(p, f)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def test_make_grid_values():
    g = make_grid(0.1, 0.9, 5)
    assert np.allclose(g.levels, [0.1, 0.3, 0.5, 0.7, 0.9])
    g2 = make_grid(0.05, 0.95, 2)
    assert np.allclose(g2.levels, [0.05, 0.95])
    g3 = make_grid(0.05, 0.95, 25)
    assert g3.levels[1] == pytest.approx(0.0875)
    assert g3.levels[0] == 0.05 and g3.levels[-1] == 0.95


@pytest.mark.parametrize("a,b,k", [(0.0, 0.9, 5), (0.1, 1.0, 5), (0.5, 0.4, 5),
                                   (0.1, 0.9, 1), (0.1, 0.9, 0), (-0.1, 0.9, 3)])
def test_make_grid_rejects(a, b, k):
    with pytest.raises(InvalidGrid):
        make_grid(a, b, k)


def test_empirical_quantiles_rank_convention():
    data = np.arange(1.0, 11.0)  # order statistics are 1..10
    resp = empirical_quantiles(data, [0.25])
    assert resp.values[0] == 3.0  # ceil(2.5) = 3
    data100 = np.arange(1.0, 101.0)
    resp = empirical_quantiles(data100, [0.91])
    assert resp.values[0] == 91.0  # ceil(91) stays 91 despite float fuzz
    resp = empirical_quantiles(data100, [0.905])
    assert resp.values[0] == 91.0  # ceil(90.5) = 91


def test_empirical_quantiles_single_point_and_empty():
    resp = empirical_quantiles([5.0], make_grid(0.1, 0.9, 4))
    assert np.all(resp.values == 5.0)
    with pytest.raises(EmptySample):
        empirical_quantiles([], make_grid(0.1, 0.9, 4))
    with pytest.raises(EmptySample):  # an IndexError traceback before
        bootstrap_pvalue([], get_family("normal"), make_grid(0.1, 0.9, 4), B=10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_quantiles_reject_non_finite_samples(bad):
    data = get_family("normal").sample(Params(), 400, np.random.default_rng(4))
    data[::20] = bad  # 5% of the sample
    with pytest.raises(NonFiniteData, match="NaN or infinite"):
        empirical_quantiles(data, make_grid(0.05, 0.95, 25))
    for method in ("gqls", "oqls"):
        with pytest.raises(QlsError):
            fit_sample(data, get_family("normal"), make_grid(0.05, 0.95, 25), method)


def test_empirical_quantiles_warnings():
    # n*a < 1: clamped to the first order statistic, with a warning
    resp = empirical_quantiles(np.arange(5.0), [0.1, 0.5])
    assert WARN_RANK_CLAMPED in resp.warnings
    # duplicated ranks on a tiny sample
    resp = empirical_quantiles(np.arange(4.0), make_grid(0.4, 0.6, 5))
    assert WARN_DEGENERATE_GRID in resp.warnings
    # repeated ranks on distinct values are not ties
    assert WARN_TIED_QUANTILES not in resp.warnings


def test_tied_quantiles_tagged_on_discrete_data():
    grid = make_grid(0.05, 0.95, 25)
    data = get_family("normal").sample(Params(0.0, 1.0), 1000, np.random.default_rng(4))
    assert empirical_quantiles(data, grid).warnings == ()
    rounded = np.round(data)  # seven distinct values over 25 levels
    assert WARN_TIED_QUANTILES in empirical_quantiles(rounded, grid).warnings
    assert WARN_TIED_QUANTILES in fit_sample(rounded, get_family("normal"), grid).warnings


def test_empirical_quantiles_selection_path_matches_sort():
    rng = np.random.default_rng(0)
    data = rng.standard_normal(1_200_000)  # crosses the selection cutoff
    g = make_grid(0.05, 0.95, 7)
    fast = empirical_quantiles(data, g).values
    slow = np.sort(data)[np.ceil(data.size * g.levels).astype(int) - 1]
    assert np.array_equal(fast, slow)


def test_empirical_quantiles_converges_to_population():
    fam = get_family("logistic")
    g = make_grid(0.05, 0.95, 25)
    target = 1.0 + 2.0 * np.asarray(fam.qf(g.levels))

    def err(n):
        u = np.arange(1, n + 1) / (n + 1)
        data = 1.0 + 2.0 * np.asarray(fam.qf(u))
        return np.max(np.abs(empirical_quantiles(data, g).values - target))

    assert err(40_000) < err(10_000)
    assert err(40_000) < 1e-3


def test_sigma_star_single_level_values():
    s = sigma_star(get_family("normal"), [0.5])
    assert s[0, 0] == pytest.approx(math.pi / 2.0, abs=1e-7)
    s = sigma_star(get_family("cauchy"), [0.5])
    assert s[0, 0] == pytest.approx(math.pi ** 2 / 4.0, abs=1e-7)


def test_sigma_star_exact_symmetry():
    for name in FAMILIES:
        s = sigma_star(get_family(name), make_grid(0.05, 0.95, 12))
        assert np.array_equal(s, s.T)


@pytest.mark.parametrize("name", list(FAMILIES))
@pytest.mark.parametrize("bounds", [(0.02, 0.98), (0.05, 0.95), (0.10, 0.90)])
def test_sigma_star_is_spd(name, bounds):
    fam = get_family(name)
    for k in (2, 3, 10, 25, 60, 200):
        grid = make_grid(*bounds, k)
        s = sigma_star(fam, grid)
        spd_factorize(s)  # must not raise
        # the closed-form precision inverts S to rounding, scaled by cond(S)
        tol = 100.0 * np.finfo(float).eps * np.linalg.cond(s)
        assert np.max(np.abs(_dense_precision(fam, grid) @ s - np.eye(k))) <= tol


def test_precision_star_is_symmetric_tridiagonal():
    # the dense inverse of S is the tridiagonal matrix of the band
    fam = get_family("normal")
    grid = make_grid(0.05, 0.95, 12)
    inv = np.linalg.inv(sigma_star(fam, grid))
    assert np.max(np.abs(inv - _dense_precision(fam, grid))) <= 1e-12 * np.max(np.abs(inv))


@pytest.mark.parametrize("levels", [[0.5, 0.2, 0.8], [0.2, 0.5, 0.5, 0.8], [0.3, np.nan]])
def test_levels_must_increase_strictly(levels):
    fam = get_family("logistic")
    data = fam.sample(Params(), 200, np.random.default_rng(0))
    for call in (lambda: FitPlan.for_family(fam, levels, "gqls"),
                 lambda: FitPlan.for_family(fam, levels, "oqls"),
                 lambda: are("gqls", fam, levels),
                 lambda: sigma_star(fam, levels),
                 lambda: empirical_quantiles(data, levels)):
        with pytest.raises(InvalidGrid):
            call()


def test_sigma_star_rejects_boundary_levels():
    for levels in ([0.0, 0.5], [0.5, 1.0], [np.nan]):
        with pytest.raises(InvalidGrid):
            sigma_star(get_family("normal"), levels)
        with pytest.raises(InvalidGrid):
            FitPlan.for_family(get_family("normal"), levels, "oqls")


def test_subnormal_level_gaps_are_an_invalid_grid():
    # 1/gap overflows for a gap of [0, p, 1] below about 5.6e-309: the
    # precision band would hold infinities
    expo = get_family("exponential")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for levels in ([5e-324, 1e-323], [1e-320, 0.5]):
            with pytest.raises(InvalidGrid, match="no finite precision"):
                FitPlan.for_family(expo, levels, "oqls")
            with pytest.raises(InvalidGrid):
                are("gqls", expo, levels, ParamMode.SCALE_ONLY)
        # a gap whose reciprocal is finite stays a grid
        assert quantiles.levels_of([1e-300, 0.5], interior=True).tolist() == [1e-300, 0.5]
    # the interior rule alone judges the gaps: data levels are not refused
    assert empirical_quantiles([1.0, 2.0], [5e-324, 1e-323]).values.tolist() == [1.0, 1.0]


def test_design_matrix_shapes_and_values():
    fam = get_family("logistic")
    x = design_matrix(fam, make_grid(0.05, 0.95, 25))
    assert x.shape == (25, 2)
    assert np.all(x[:, 0] == 1.0)
    x3 = design_matrix(fam, [0.25, 0.5, 0.75])
    assert np.allclose(x3[:, 1], [-math.log(3.0), 0.0, math.log(3.0)], atol=1e-12)
    loc = design_matrix(fam, make_grid(0.05, 0.95, 10), ParamMode.LOCATION_ONLY)
    assert loc.shape == (10, 1) and np.all(loc == 1.0)
    sc = design_matrix(fam, make_grid(0.05, 0.95, 10), ParamMode.SCALE_ONLY)
    assert sc.shape == (10, 1)
    assert np.all(np.diff(sc[:, 0]) > 0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(FAMILIES)), st.integers(min_value=2, max_value=40))
def test_design_second_column_increasing(name, k):
    x = design_matrix(get_family(name), make_grid(0.05, 0.95, k))
    assert np.all(np.diff(x[:, 1]) > 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4000), st.integers(min_value=0, max_value=9999))
def test_quantiles_are_order_statistics(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n)
    g = make_grid(0.1, 0.9, 5)
    resp = empirical_quantiles(data, g)
    srt = np.sort(data)
    for p, v in zip(g.levels, resp.values):
        rank = max(int(math.ceil(n * p - 1e-9)), 1)
        assert v == srt[rank - 1]
    assert np.all(np.diff(resp.values) >= 0)


# ---------------------------------------------------------------------------
# order statistics of one large sample: two halves sorted on two threads
# ---------------------------------------------------------------------------

SPLIT_SIZES = [2 ** 17, 2 ** 17 + 1, 2 ** 17 + 2, 10 ** 6 + 3]


def _full_sort_quantiles(data, levels):
    """The response as read from one full sort of the sample (the reference)."""
    ranks, warns = quantiles._ranks(data.size, np.asarray(levels, dtype=float))
    values = np.sort(data)[ranks - 1]
    if np.any((np.diff(values) == 0.0) & (np.diff(ranks) != 0)):
        warns.append(WARN_TIED_QUANTILES)
    return values, tuple(warns)


@pytest.mark.parametrize("n", SPLIT_SIZES)
@pytest.mark.parametrize("shape", ["draws", "rounded", "sorted", "reversed", "halves_apart"])
def test_split_sort_reads_the_full_sort_order_statistics(n, shape):
    rng = np.random.default_rng(n)
    data = rng.standard_normal(n)
    if shape == "rounded":
        data = np.round(data)  # about nine distinct values: ties across the halves
    elif shape == "sorted":
        data.sort()
    elif shape == "reversed":
        data = -np.sort(data)
    elif shape == "halves_apart":
        data[: n // 2] += 100.0  # every value of the first half exceeds the second
    grids = [make_grid(0.05, 0.95, 25), make_grid(0.001, 0.999, 999),
             [0.1 / n, 0.5, 1.0 - 1e-12],  # rank clamped to 1, and rank n
             [0.4, 0.4 + 0.1 / n, 0.6]]  # two levels at one rank
    for grid in grids:
        resp = empirical_quantiles(data, grid)
        values, warns = _full_sort_quantiles(data, quantiles.levels_of(grid))
        assert np.array_equal(resp.values, values)
        assert resp.warnings == warns
    if shape == "rounded":
        assert WARN_TIED_QUANTILES in empirical_quantiles(data, grids[0]).warnings
    # every position, both ends included
    pos = np.unique(np.concatenate(([0, n // 2 - 1, n // 2, n - 1],
                                    rng.integers(0, n, 500))))
    got, first, last = quantiles._order_statistics(data, pos)
    srt = np.sort(data)
    assert np.array_equal(got, srt[pos])
    assert (first, last) == (srt[0], srt[-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("half", ["first", "second"])
def test_split_sort_refuses_non_finite_values_in_either_half(bad, half):
    n = 2 ** 17 + 1
    data = np.random.default_rng(3).standard_normal(n)
    data[5 if half == "first" else n - 5] = bad
    logistic = get_family("logistic")
    with pytest.raises(NonFiniteData, match="NaN or infinite"):
        empirical_quantiles(data, make_grid(0.05, 0.95, 25))
    with pytest.raises(NonFiniteData):
        fit_sample(data, logistic, make_grid(0.05, 0.95, 25))
    with pytest.raises(NonFiniteData):
        bootstrap_pvalue(data, logistic, make_grid(0.05, 0.95, 25), B=10)


def test_split_sort_leaves_no_thread_behind(monkeypatch):
    normal = get_family("normal")
    grid = make_grid(0.05, 0.95, 25)
    data = np.random.default_rng(1).standard_normal(2 ** 18)
    before = threading.active_count()
    fit_sample(data, normal, grid)
    assert threading.active_count() == before
    bad = data.copy()
    bad[7] = np.nan
    with pytest.raises(NonFiniteData):
        fit_sample(bad, normal, grid)
    assert threading.active_count() == before

    # an error in the helper thread reaches the caller, after the join
    plain_sort = np.sort

    def failing_sort(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("sorting the first half")
        return plain_sort(a, *args, **kwargs)

    monkeypatch.setattr(quantiles.np, "sort", failing_sort)
    with pytest.raises(MemoryError, match="first half"):
        fit_sample(data, normal, grid)
    assert threading.active_count() == before


def _fit_in_child(data, queue):
    queue.put(fit_sample(data, get_family("cauchy"), make_grid(0.05, 0.95, 25)).response.values)


def test_split_sort_works_in_a_fork_child():
    data = get_family("cauchy").sample(Params(0.3, 2.0), 2 ** 18, np.random.default_rng(2))
    parent = fit_sample(data, get_family("cauchy"), make_grid(0.05, 0.95, 25)).response.values
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_fit_in_child, args=(data, queue))
    child.start()
    try:
        values = queue.get(timeout=120)  # drained before the join
    finally:
        child.join(timeout=120)
    assert not child.is_alive() and child.exitcode == 0
    assert np.array_equal(values, parent)


@pytest.mark.parametrize("name", ["normal", "cauchy"])
@pytest.mark.parametrize("method", ["gqls", "oqls"])
def test_split_sort_fits_equal_full_sort_fits(name, method):
    fam = get_family(name)
    grid = make_grid(0.05, 0.95, 25)
    data = fam.sample(Params(0.3, 2.0), 10 ** 6, np.random.default_rng(11))
    fit = fit_sample(data, fam, grid, method)
    values, _ = _full_sort_quantiles(data, grid.levels)
    ref = FitPlan.for_family(fam, grid, method).fit(QuantileResponse(values, data.size))
    assert (fit.mu, fit.sigma) == (ref.mu, ref.sigma)
    assert np.array_equal(fit.asy_cov, ref.asy_cov)
