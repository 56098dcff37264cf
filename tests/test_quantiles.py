import math

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
from qls.families import FAMILIES, ParamMode, Params, get_family
from qls.linalg import spd_factorize
from qls.efficiency import are
from qls.estimators import FitPlan, fit_sample
from qls.quantiles import (
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
