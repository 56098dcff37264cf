import math
import multiprocessing
import threading
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from qls.gof import bootstrap_pvalue, make_out_grid
from qls.quantiles import (
    QuantileResponse,
    design_matrix,
    empirical_quantiles,
    level_density,
    make_grid,
    sigma_star,
)


def _dense_precision(fam, grid):
    # the closed-form precision of Ogawa (1951), D Delta' diag(1/d) Delta D
    # with D = diag(f), Delta the (k+1) x k difference operator and d the
    # spacings of [0, p, 1]: the form a family plan sums without building it
    p, _, f = level_density(fam, grid)
    k = p.shape[0]
    delta_f = (np.eye(k + 1, k) - np.eye(k + 1, k, -1)) * f
    return delta_f.T @ (delta_f / np.diff(p, prepend=0.0, append=1.0)[:, None])


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


def test_make_grid_refuses_levels_that_repeat():
    # b one ulp above a: the three linspace levels cannot all differ, which
    # make_grid reports at once, not at the grid's first use
    b = float(np.nextafter(0.5, 1.0))
    with pytest.raises(InvalidGrid, match="strictly increasing"):
        make_grid(0.5, b, 3)
    assert make_grid(0.5, b, 2).levels.tolist() == [0.5, b]


@pytest.mark.parametrize("bad", [2.0, 1.5, np.inf, -0.5])
def test_levels_outside_the_unit_interval_are_an_invalid_grid(bad):
    data = np.arange(100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidGrid, match=r"\[0, 1\]"):
            empirical_quantiles(data, sorted([0.5, bad]))
    # levels 0 and 1 read the smallest and the largest value
    assert empirical_quantiles(data[::-1], [0.0, 1.0]).values.tolist() == [0.0, 99.0]


def test_grids_and_responses_compare_by_value():
    # equal fields, arrays by value, give equal objects with equal hashes
    # (a zero of either sign included); the plan store takes no part
    grid = make_grid(0.05, 0.95, 25)
    FitPlan.for_family(get_family("normal"), grid, "gqls")
    twin = make_grid(0.05, 0.95, 25)
    assert grid == twin and not grid != twin and hash(grid) == hash(twin)
    assert grid._plans and not twin._plans
    assert {twin: "plan"}[grid] == "plan" and len({grid, twin}) == 1
    for other in (make_grid(0.05, 0.95, 24), make_grid(0.05, 0.9, 25), (0.05, 0.95, 25), None):
        assert grid != other and not grid == other
    out = make_out_grid([0.1, 0.5, 0.9])
    assert out == make_out_grid([0.1, 0.5, 0.9]) and hash(out) == hash(
        make_out_grid(np.array([0.1, 0.5, 0.9])))
    assert out != make_out_grid([0.1, 0.5, 0.8]) and out != make_out_grid([0.1, 0.5])
    resp = QuantileResponse(np.array([-0.0, 1.0, 2.0]), 10, ("tied_quantiles",))
    same = QuantileResponse([0.0, 1.0, 2.0], 10, ("tied_quantiles",))
    assert resp == same and hash(resp) == hash(same)
    for other in (QuantileResponse(resp.values, 11, resp.warnings),
                  QuantileResponse(resp.values, 10),
                  QuantileResponse([0.0, 1.0, 3.0], 10, resp.warnings)):
        assert resp != other


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
    # the dense inverse of S is the tridiagonal closed form
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
    # spacing sums of a plan would be infinite
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


def _reference_ranks(n, levels):
    """1-based ranks ceil(n p) and the rank tags by a scalar rule: n p within
    1e-9 (relative, at least absolute) of an integer is that integer; a rank
    below 1, or n p below 1, reads the first order statistic and is tagged
    clamped; two levels at one rank tag the set degenerate."""
    ranks, tags = [], []
    for p in levels:
        t = n * float(p)
        whole = round(t)
        ranks.append(whole if abs(t - whole) <= 1e-9 * max(1.0, abs(t)) else math.ceil(t))
    if ranks[0] < 1 or n * float(levels[0]) < 1.0 - 1e-12:
        tags.append(WARN_RANK_CLAMPED)
    ranks = [max(r, 1) for r in ranks]
    if len(set(ranks)) < len(ranks):
        tags.append(WARN_DEGENERATE_GRID)
    return np.array(ranks), tags


_LEVELS = st.lists(st.floats(1e-9, 1.0, exclude_max=True), min_size=1, max_size=40,
                   unique=True).map(sorted)


@st.composite
def _level_set(draw):
    """A grid, an OutGrid or a raw level array; tiny levels clamp, dense ones repeat."""
    kind = draw(st.sampled_from(["grid", "out", "raw"]))
    if kind == "grid":
        a = draw(st.floats(1e-4, 0.9))
        return make_grid(a, draw(st.floats(a + 1e-3, 0.999)), draw(st.integers(2, 60)))
    levels = draw(_LEVELS)
    return make_out_grid(levels) if kind == "out" else np.array(levels)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), sets=st.lists(_level_set(), min_size=1, max_size=3))
@example(n=5000, sets=[np.array([0.5 + 4e-13])])  # n p = 2500 + 2e-9: relative snap
def test_positions_match_a_scalar_ceil_rule(n, sets):
    pos, cols, tags = quantiles._positions(n, *sets)
    refs = [_reference_ranks(n, quantiles.levels_of(s)) for s in sets]
    assert pos.tolist() == sorted({r - 1 for ranks, _ in refs for r in ranks.tolist()})
    assert len(cols) == len(tags) == len(sets)
    for c, t, (ranks, want_tags) in zip(cols, tags, refs):
        assert np.array_equal(pos[c], ranks - 1)
        assert t == want_tags


def test_positions_tag_clamped_and_repeated_ranks():
    pos, cols, tags = quantiles._positions(30, make_grid(0.1, 0.9, 5),
                                           make_out_grid(None))
    assert pos[cols[0]].tolist() == [2, 8, 14, 20, 26]
    assert pos[cols[1]][:3].tolist() == [0, 0, 1]  # levels 0.01, 0.03, 0.05
    assert tags == [[], [WARN_RANK_CLAMPED, WARN_DEGENERATE_GRID]]
    assert np.array_equal(np.unique(pos), pos)


# ---------------------------------------------------------------------------
# order statistics of one large sample: two halves sorted on two threads
# ---------------------------------------------------------------------------

SPLIT_SIZES = [2 ** 17, 2 ** 17 + 1, 2 ** 17 + 2, 10 ** 6 + 3]


def _full_sort_quantiles(data, levels):
    """The response as read from one full sort of the sample (the reference)."""
    ranks, warns = _reference_ranks(data.size, levels)
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

    # an error in either thread reaches the caller, after the join: the
    # first half's sort fails, whichever thread takes it
    plain_sort = np.sort
    first_half = data[:data.size // 2]

    def failing_sort(a, *args, **kwargs):
        if np.shares_memory(a, first_half):
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


def _wait_for(done, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not done() and time.monotonic() < deadline:
        time.sleep(0.001)


def test_ahead_keeps_order_with_at_most_two_items_ready():
    advanced = []

    def items():
        for i in range(40):
            advanced.append(i)
            yield i

    with quantiles._ahead(items()) as it:
        assert next(it) == 0
        _wait_for(lambda: len(advanced) >= 3)
        time.sleep(0.02)
        assert len(advanced) == 3  # the item taken and two ready
        assert list(it) == list(range(1, 40))


def test_ahead_raises_the_helpers_error_in_the_caller():
    raised_on = []

    def items():
        yield 0
        raised_on.append(threading.current_thread().name)
        raise LookupError("the second item")

    with pytest.raises(LookupError, match="second item"):
        with quantiles._ahead(items()) as it:
            assert next(it) == 0
            _wait_for(lambda: raised_on)
            next(it)
    assert raised_on == ["qls-helper"]


def test_ahead_stops_its_helper_when_the_caller_leaves_early():
    # after an early exit or a raise in the caller the helper is joined (the
    # conftest guard), having advanced at most the item taken and two more
    advanced = []

    def items():
        while True:
            advanced.append(None)
            yield len(advanced)

    with quantiles._ahead(items()) as it:
        assert next(it) == 1
    stopped_at = len(advanced)
    with pytest.raises(KeyError, match="caller"):
        with quantiles._ahead(items()) as it:
            next(it)
            raise KeyError("caller")
    assert stopped_at <= 3 and len(advanced) <= stopped_at + 3


class _NoHelper:
    """A helper thread that never runs."""

    def __init__(self, target, args, name):
        pass

    def start(self):
        pass

    def join(self):
        pass


def test_ahead_runs_on_the_caller_when_the_helper_never_does(monkeypatch):
    monkeypatch.setattr(quantiles, "threading",
                        types.SimpleNamespace(Lock=threading.Lock, Thread=_NoHelper))
    threads = set()

    def items():
        for i in range(10):
            threads.add(threading.current_thread().name)
            yield i

    with quantiles._ahead(items()) as it:
        assert list(it) == list(range(10))
    assert threads == {threading.current_thread().name}


def test_ahead_helper_sees_the_callers_error_state():
    def items():
        while True:
            yield np.geterr()["divide"]

    with np.errstate(divide="raise"):
        with quantiles._ahead(items()) as it:
            assert [next(it) for _ in range(5)] == ["raise"] * 5


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
