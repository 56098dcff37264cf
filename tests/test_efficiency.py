import dataclasses
import pickle

import numpy as np
import pytest

from qls.efficiency import AreResult, are, are_curve, are_table, standardized_cov
from qls.errors import Unavailable
from qls.families import FAMILIES, ParamMode, get_family
from qls.quantiles import make_grid
from reference_tables import GQLS_ARE, OQLS_ARE_JOINT

MODES = {
    "location": ParamMode.LOCATION_ONLY,
    "scale": ParamMode.SCALE_ONLY,
    "loc-scale": ParamMode.LOCATION_SCALE,
}


def test_gqls_reference_cells_sample():
    # full sweep lives in the acceptance suite; spot-check one cell per block
    assert are("gqls", get_family("normal"), make_grid(0.05, 0.95, 25),
               ParamMode.LOCATION_SCALE).are == pytest.approx(0.911, abs=0.003)
    assert are("gqls", get_family("laplace"), make_grid(0.10, 0.90, 20),
               ParamMode.SCALE_ONLY).are == pytest.approx(0.798, abs=0.003)
    assert are("gqls", get_family("cauchy"), make_grid(0.02, 0.98, 15),
               ParamMode.LOCATION_ONLY).are == pytest.approx(0.986, abs=0.003)


def test_oqls_reference_cells_sample():
    assert are("oqls", get_family("cauchy"), make_grid(0.05, 0.95, 15),
               ParamMode.LOCATION_SCALE).are == pytest.approx(0.181, abs=0.003)
    assert are("oqls", get_family("normal"), make_grid(0.05, 0.95, 200),
               ParamMode.LOCATION_SCALE).are == pytest.approx(
                   OQLS_ARE_JOINT["normal"][200], abs=0.003)


def test_results_are_parameter_free_and_deterministic():
    grid = make_grid(0.05, 0.95, 25)
    v1 = are("gqls", get_family("gumbel"), grid, ParamMode.LOCATION_SCALE).are
    v2 = are("gqls", get_family("gumbel"), grid, ParamMode.LOCATION_SCALE).are
    assert v1 == v2  # bit-identical: no parameters enter the computation


def test_unavailable_cells_carried_in_table():
    fams = [get_family("normal"), get_family("levy")]
    rows = are_table("gqls", fams, [make_grid(0.05, 0.95, 15)],
                     [ParamMode.LOCATION_SCALE, ParamMode.SCALE_ONLY])
    by_key = {(r.family, r.mode): r for r in rows}
    assert by_key[("levy", ParamMode.LOCATION_SCALE)].are is None
    assert by_key[("levy", ParamMode.SCALE_ONLY)].are is not None
    assert by_key[("normal", ParamMode.LOCATION_SCALE)].are is not None
    with pytest.raises(Unavailable):
        are("gqls", get_family("exponential"), make_grid(0.05, 0.95, 15),
            ParamMode.LOCATION_SCALE)


def test_gqls_at_least_as_efficient_as_oqls():
    grid = make_grid(0.05, 0.95, 25)
    for name in ("cauchy", "laplace", "logistic", "normal", "gumbel"):
        fam = get_family(name)
        for mode in MODES.values():
            g = are("gqls", fam, grid, mode).are
            o = are("oqls", fam, grid, mode).are
            assert g >= o - 1e-12


def test_widening_bounds_helps_scale_mode():
    # holds for the lighter-tailed families; cauchy is excluded (its printed
    # reference values run the other way at k=15)
    for name in ("laplace", "logistic", "normal", "gumbel"):
        fam = get_family(name)
        for k in (15, 20, 25):
            narrow = are("gqls", fam, make_grid(0.10, 0.90, k), ParamMode.SCALE_ONLY).are
            mid = are("gqls", fam, make_grid(0.05, 0.95, k), ParamMode.SCALE_ONLY).are
            wide = are("gqls", fam, make_grid(0.02, 0.98, k), ParamMode.SCALE_ONLY).are
            assert narrow <= mid + 1e-12 <= wide + 2e-12


def test_curve_k2_supported_and_flat_tail():
    fam = get_family("normal")
    curve = dict(are_curve("gqls", fam, 0.05, 0.95, range(2, 17)))
    assert 2 in curve
    assert curve[16] - curve[10] < 0.02  # gains level off past k ~ 10


def test_curve_monotone_for_nonseesaw_families():
    ks = list(range(3, 30))
    for name in ("cauchy", "logistic", "normal", "gumbel"):
        vals = [v for _, v in are_curve("gqls", get_family(name), 0.05, 0.95, ks)]
        assert np.all(np.diff(vals) >= -1e-9)


def test_laplace_location_seesaw():
    vals = dict(are_curve("gqls", get_family("laplace"), 0.05, 0.95,
                          range(3, 26), mode=ParamMode.LOCATION_ONLY))
    for k in range(3, 26, 2):
        assert vals[k] == pytest.approx(1.0, abs=1e-9)
    for k in range(4, 26, 2):
        assert vals[k] < 1.0 - 1e-3
    # within each parity the curve is still nondecreasing
    odd = [vals[k] for k in range(3, 26, 2)]
    even = [vals[k] for k in range(4, 26, 2)]
    assert np.all(np.diff(odd) >= -1e-9)
    assert np.all(np.diff(even) >= -1e-9)


def test_oqls_joint_peaks_then_declines():
    # normal, logistic, gumbel peak at moderate k and then slowly decline
    for name in ("normal", "logistic", "gumbel"):
        vals = dict(are_curve("oqls", get_family(name), 0.05, 0.95,
                              [15, 20, 25, 50, 75, 100, 200]))
        assert max(vals.values()) > vals[200]
        assert vals[15] == pytest.approx(OQLS_ARE_JOINT[name][15], abs=0.003)


def test_oqls_cauchy_still_rising_at_200():
    vals = dict(are_curve("oqls", get_family("cauchy"), 0.05, 0.95, [100, 200]))
    assert vals[200] - vals[100] == pytest.approx(0.013, abs=0.004)


def test_curve_range_guard():
    with pytest.raises(ValueError):
        are_curve("gqls", get_family("normal"), 0.05, 0.95, [1])
    with pytest.raises(ValueError):
        are_curve("gqls", get_family("normal"), 0.05, 0.95, [501])


def test_reference_tables_have_expected_shape():
    assert len(GQLS_ARE) == 3
    for block in GQLS_ARE.values():
        assert len(block) == 5
        for fam_block in block.values():
            assert sorted(fam_block) == ["loc-scale", "location", "scale"]
    assert len(OQLS_ARE_JOINT) == 5


@pytest.mark.parametrize("kind", ["gqls", "oqls"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_closed_form_determinants_match_lapack(name, kind):
    # det(I0), det(C) and (I0^-1)_jj in closed form against numpy's LU
    # determinant and inverse of the same matrices
    fam = get_family(name)
    for bounds, k in (((0.05, 0.95), 2), ((0.05, 0.95), 25), ((1e-6, 1 - 1e-6), 200),
                      ((0.30, 0.30001), 40)):
        grid = make_grid(*bounds, k)
        for mode in ParamMode:
            try:
                got = are(kind, fam, grid, mode).are
            except Unavailable:
                continue
            if fam._info is None:  # scale-only in the one-parameter model
                want = 1.0 / float(fam.fisher_info(mode)[0, 0]) / float(
                    standardized_cov(kind, fam, grid, mode)[0, 0])
            elif mode is ParamMode.LOCATION_SCALE:
                cov = standardized_cov(kind, fam, grid, mode)
                want = (1.0 / (np.linalg.det(fam.fisher_info()) * np.linalg.det(cov))) ** 0.5
            else:
                j = 0 if mode is ParamMode.LOCATION_ONLY else 1
                cov = standardized_cov(kind, fam, grid, ParamMode.LOCATION_SCALE)
                want = np.linalg.inv(fam.fisher_info())[j, j] / cov[j, j]
            assert got == pytest.approx(want, rel=1e-9), (bounds, k, mode)


def test_are_result_is_a_frozen_slotted_value():
    cell = are("gqls", get_family("normal"), make_grid(0.05, 0.95, 25))
    missing = AreResult(family="levy", kind="oqls", mode=ParamMode.LOCATION_SCALE,
                        a=0.05, b=0.95, k=15, are=None, note="no joint information")
    assert not hasattr(cell, "__dict__")
    for result in (cell, missing):
        back = pickle.loads(pickle.dumps(result))
        assert back == result and back is not result and hash(back) == hash(result)
        assert type(back.mode) is ParamMode
    other = dataclasses.replace(cell, k=26)
    assert other != cell and other.k == 26 and other.are == cell.are
    assert dataclasses.replace(other, k=25) == cell
    with pytest.raises(dataclasses.FrozenInstanceError):
        cell.are = 1.0
    with pytest.raises((AttributeError, TypeError)):
        cell.extra = 1


def test_cells_share_the_bounds_they_were_given():
    # a table of many cells holds no float of its own for a or b: make_grid
    # keeps the caller's floats and each cell refers to them
    a, b = 0.05 + 1e-3, 0.95 - 1e-3
    grid = make_grid(a, b, 25)
    assert grid.a is a and grid.b is b
    assert grid.a == grid.levels[0] and grid.b == grid.levels[-1]
    for kind in ("gqls", "oqls"):
        cell = are(kind, get_family("logistic"), make_grid(a, b, 12))
        assert cell.a is a and cell.b is b and cell.k == 12
    # a raw level array reads its first and last level and its count
    cell = are("gqls", get_family("logistic"), [0.1, 0.4, 0.8])
    assert (cell.a, cell.b, cell.k) == (0.1, 0.8, 3)


@pytest.mark.parametrize("name", ["cauchy", "gumbel", "laplace", "logistic", "normal"])
@pytest.mark.parametrize("bounds", [(0.02, 0.98), (0.05, 0.95), (0.10, 0.90)])
def test_gqls_efficiency_never_falls_along_nested_grids(name, bounds):
    # k = 2^j + 1 equally spaced levels on fixed bounds: each grid holds the
    # levels of the one before, and the gQLS fit is the best linear fit of
    # its quantiles, so a level added can only keep or raise its efficiency
    # (up to rounding, 1e-12 relative)
    fam = get_family(name)
    for mode in MODES.values():
        ares = [are("gqls", fam, make_grid(*bounds, 2 ** j + 1), mode).are for j in range(1, 12)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(ares, ares[1:])), (mode, ares)
