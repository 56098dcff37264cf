"""Asymptotic relative efficiency of the quantile LS estimators versus MLE.

ARE = ( det[I0^-1] / det[C] )^(1/m), where I0 is the standardized Fisher
information of the estimated parameters, C the estimator's standardized
asymptotic covariance, and m the number of estimated parameters (the
exponent is 1 for single-parameter fits).  The scale parameter cancels, so
results depend only on the family, grid, estimator kind, and mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import Unavailable
from .families import Family, ParamMode
from .estimators import FitPlan
from .quantiles import QuantileGrid, make_grid

__all__ = ["AreResult", "are", "are_table", "are_curve", "standardized_cov"]


@dataclass(frozen=True, slots=True)
class AreResult:
    """One efficiency cell; ``are`` is None, with a note, where the cell has
    no Fisher information.  Slotted, so tables of many cells stay small."""

    family: str
    kind: str
    mode: ParamMode
    a: float
    b: float
    k: int
    are: float | None
    note: str = ""


def _det2(m: np.ndarray) -> float:
    """Determinant of a symmetric 2 x 2 matrix, in Python floats."""
    (m00, m01), (_, m11) = m.tolist()
    return m00 * m11 - m01 * m01


def standardized_cov(kind: str, fam: Family, grid, mode: ParamMode) -> np.ndarray:
    """Parameter-free asymptotic covariance (sigma^2 and 1/n stripped)."""
    return FitPlan.for_family(fam, grid, kind).solver(mode)[1]


def are(kind: str, fam: Family, grid, mode: ParamMode = ParamMode.LOCATION_SCALE) -> AreResult:
    """Efficiency of one estimator/family/grid/mode cell.

    Joint mode compares determinants with exponent 1/2.  The single-parameter
    modes report the marginal, per-parameter efficiency of the joint fit,
    (I0^-1)_jj / C_jj, against the joint MLE's marginal precision; for
    families whose joint information does not exist (exponential, levy)
    the scale-only cell falls back to the genuine one-parameter model with
    the location treated as known.  The two conventions agree whenever the
    information matrix is diagonal.  A raw level array is taken as a grid.
    """
    if not isinstance(grid, QuantileGrid):
        grid = QuantileGrid(grid)
    if mode is ParamMode.LOCATION_SCALE:
        info = fam.fisher_info(mode)  # raises Unavailable where undefined
        cov = standardized_cov(kind, fam, grid, mode)
        # in numpy floats a non-positive product gives inf or NaN, not an exception
        value = float((1.0 / np.float64(_det2(info) * _det2(cov))) ** 0.5)
    else:
        idx = mode.columns.start  # the estimated parameter's column of the joint fit
        try:
            info = fam.fisher_info(ParamMode.LOCATION_SCALE)
            # (I0^-1)_jj: the other diagonal entry of I0 over det(I0)
            mle_var = float(info[1 - idx, 1 - idx]) / _det2(info)
            cov_jj = float(standardized_cov(kind, fam, grid,
                                            ParamMode.LOCATION_SCALE)[idx, idx])
        except Unavailable:
            info = fam.fisher_info(mode)  # still Unavailable for location
            mle_var = 1.0 / float(info[0, 0])
            cov_jj = float(standardized_cov(kind, fam, grid, mode)[0, 0])
        value = mle_var / cov_jj
    return AreResult(family=fam.name, kind=kind, mode=mode, a=grid.a, b=grid.b, k=grid.k,
                     are=value)


def are_table(kind: str, families: Iterable[Family], grids: Iterable[QuantileGrid],
              modes: Iterable[ParamMode]) -> list[AreResult]:
    """Cross-product table; cells without Fisher information are carried as
    unavailable entries rather than failing the whole table."""
    rows: list[AreResult] = []
    for fam in families:
        for grid in grids:
            for mode in modes:
                try:
                    rows.append(are(kind, fam, grid, mode))
                except Unavailable as exc:
                    rows.append(AreResult(family=fam.name, kind=kind, mode=mode,
                                          a=grid.a, b=grid.b, k=grid.k,
                                          are=None, note=str(exc)))
    return rows


def are_curve(kind: str, fam: Family, a: float, b: float, ks: Sequence[int],
              mode: ParamMode = ParamMode.LOCATION_SCALE) -> list[tuple[int, float]]:
    """Pointwise ARE along a range of grid sizes at fixed bounds."""
    out = []
    for k in ks:
        if not (2 <= int(k) <= 500):
            raise ValueError(f"grid size {k} outside the supported range [2, 500]")
        out.append((int(k), are(kind, fam, make_grid(a, b, int(k)), mode).are))
    return out
