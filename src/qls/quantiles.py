"""Quantile grids, empirical quantiles, and the standardized regression pieces.

The grid places k levels equally spaced on [a, b]; any level array must
increase strictly.  The empirical quantile at level p is the ceil(n*p)-th
order statistic, read from one sort of the sample, or above 1 MiB from two
halves sorted on two threads.  From a family's standard forms we assemble the
standardized covariance of sample quantiles

    s_ij = p_i (1 - p_j) / (f0(Q0(p_i)) f0(Q0(p_j)))   for i <= j,

its closed-form tridiagonal inverse (the precision) as two bands, all that a
fit plan uses, and the design whose columns are 1 and Q0(p_i).  Replicate
studies take order statistics from row-sorted blocks of replicates, split by
``replicate_blocks`` so that each block stays within 1 MiB.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    WARN_DEGENERATE_GRID,
    WARN_RANK_CLAMPED,
    WARN_TIED_QUANTILES,
    DegenerateDensity,
    EmptySample,
    InvalidGrid,
    NonFiniteData,
)
from .families import Family, ParamMode

__all__ = [
    "QuantileGrid",
    "QuantileResponse",
    "make_grid",
    "empirical_quantiles",
    "sigma_star",
    "precision_band",
    "design_matrix",
]

# float64 values in one block of replicate rows: 1 MiB; a larger single
# sample is sorted as two halves on two threads (``_order_statistics``)
_BLOCK_VALUES = 2 ** 17


@dataclass(frozen=True)
class QuantileGrid:
    """k probability levels, equally spaced from a to b (inclusive)."""

    a: float
    b: float
    k: int
    levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.levels.setflags(write=False)


def make_grid(a: float, b: float, k: int) -> QuantileGrid:
    """Build the level grid p_i = a + (i-1)(b-a)/(k-1), i = 1..k."""
    if not (0.0 < a < b < 1.0):
        raise InvalidGrid(f"need 0 < a < b < 1, got a={a}, b={b}")
    if int(k) != k or k < 2:
        raise InvalidGrid(f"need integer k >= 2, got k={k}")
    return QuantileGrid(a=float(a), b=float(b), k=int(k), levels=np.linspace(a, b, int(k)))


def levels_of(grid, interior: bool = False) -> np.ndarray:
    """Levels of a QuantileGrid, an OutGrid-like object or a raw array;
    InvalidGrid unless they form a non-empty, strictly increasing 1-D array,
    all in (0, 1) and with a finite reciprocal of every gap of [0, p, 1]
    when ``interior``."""
    levels = np.asarray(getattr(grid, "levels", grid), dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise InvalidGrid("levels must be a non-empty 1-D array")
    steps = np.diff(levels)
    if not np.all(steps > 0.0):
        raise InvalidGrid("levels must be strictly increasing")
    if interior:
        if not np.all((levels > 0.0) & (levels < 1.0)):
            raise InvalidGrid("all levels must be interior to (0, 1)")
        # ``precision_band`` divides by each gap of [0, p, 1].  Doubles at or
        # above 2^-969 lie at least 2^-1021 apart and 1 - p_k >= 2^-53, so
        # only a level below 2^-969 can make a gap whose reciprocal is inf
        # (which a Python division returns without a warning).
        if levels[0] < 2.0 ** -969 and not math.isfinite(
                1.0 / float(min(levels[0], steps.min(initial=1.0)))):
            raise InvalidGrid(
                f"levels closer than {1.0 / np.finfo(float).max:.3g} to each other "
                "or to 0 have no finite precision")
    return levels


@dataclass(frozen=True)
class QuantileResponse:
    """Empirical quantiles at the grid levels (nondecreasing) plus source n."""

    values: np.ndarray
    n: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(np.diff(vals) < 0):
            raise ValueError("quantile response must be nondecreasing")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return self.values.shape[0]


def _ranks(n: int, levels: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """1-based order-statistic ranks ceil(n * p), robust to float fuzz."""
    t = n * levels
    nearest = np.rint(t)
    snap = np.abs(t - nearest) <= 1e-9 * np.maximum(1.0, np.abs(t))
    ranks = np.where(snap, nearest, np.ceil(t)).astype(np.int64)
    warns: list[str] = []
    if ranks[0] < 1:
        ranks = np.maximum(ranks, 1)
        warns.append(WARN_RANK_CLAMPED)
    elif n * levels[0] < 1.0 - 1e-12:
        warns.append(WARN_RANK_CLAMPED)
    if np.any(np.diff(ranks) == 0):
        warns.append(WARN_DEGENERATE_GRID)
    return ranks, warns


def finite_rows(srt: np.ndarray):
    """Whether each row of a row-sorted array is free of NaN and infinities.
    NaN sorts last and -inf first, so the two end values decide."""
    return np.isfinite(srt[..., 0]) & np.isfinite(srt[..., -1])


def replicate_blocks(replicates: range, n: int) -> Iterator[range]:
    """Split replicate numbers into consecutive runs whose (rows, n) float64
    block holds at most 1 MiB (one row when a single sample is larger)."""
    rows = max(1, _BLOCK_VALUES // n)
    return (replicates[i:i + rows] for i in range(0, len(replicates), rows))


def _sorted_halves(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of the sample, each sorted: the first on a helper
    thread while the caller sorts the second (``np.sort`` releases the GIL).
    The helper is joined before this returns or raises, and its exception,
    if any, is raised here."""
    h = data.shape[0] // 2
    out: dict = {}

    def sort_first():
        try:
            out["first"] = np.sort(data[:h])
        except BaseException as exc:  # handed to the caller below
            out["error"] = exc

    helper = threading.Thread(target=sort_first, name="qls-sort-half")
    helper.start()
    try:
        second = np.sort(data[h:])
    finally:
        helper.join()
    if "error" in out:
        raise out["error"]
    return out["first"], second


def _order_statistics(data: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Values at the 0-based sorted positions of a non-empty 1-D sample, and
    its first and last sorted values (NaN sorts last, so the two decide
    whether the sample is finite); EmptySample for an empty one.

    Up to ``_BLOCK_VALUES`` values this is one ``np.sort``.  A larger sample
    is sorted as two halves (``_sorted_halves``), and the value at position
    r is the r-th smallest of the two runs a and b: with i of the r + 1
    smallest taken from a and j = r + 1 - i from b, the right i is the
    least one with a[i] >= b[j - 1], found by a binary search vectorized
    over the positions, and the value is max(a[i - 1], b[j - 1]).  Either
    way the values are elements of the sample, the same as a full sort's
    (up to the sign of a zero where the sample holds both 0.0 and -0.0,
    which compare equal and which no sort keeps in order).
    """
    if data.shape[0] == 0:
        raise EmptySample("cannot take quantiles of an empty sample")
    if data.shape[0] <= _BLOCK_VALUES:
        srt = np.sort(data)
        return srt[positions], float(srt[0]), float(srt[-1])
    a, b = _sorted_halves(data)
    h, m = a.shape[0], b.shape[0]
    lo = np.maximum(positions + 1 - m, 0)
    hi = np.minimum(positions + 1, h)
    while np.any(active := lo < hi):
        mid = (lo + hi) // 2
        # a lane that has converged may point past an end: clip, then mask
        more = active & (a[np.minimum(mid, h - 1)] < b[np.clip(positions - mid, 0, m - 1)])
        lo = np.where(more, mid + 1, lo)
        hi = np.where(active & ~more, mid, hi)
    i, j = lo, positions + 1 - lo
    from_a = a[np.maximum(i - 1, 0)]
    from_b = b[np.maximum(j - 1, 0)]
    values = np.where(i == 0, from_b, np.where(j == 0, from_a, np.maximum(from_a, from_b)))
    return values, float(np.fmin(a[0], b[0])), float(np.maximum(a[-1], b[-1]))


def empirical_quantiles(sample, grid) -> QuantileResponse:
    """Extract the ceil(n*p)-th order statistics at each grid level, as a
    full sort would give them (``_order_statistics``).  Raises NonFiniteData
    when the sample holds NaN or an infinity; tags the response
    ``tied_quantiles`` when two levels at distinct ranks read equal values."""
    data = np.asarray(sample, dtype=float)
    if data.ndim != 1:
        data = data.ravel()
    n = data.shape[0]
    ranks, warns = _ranks(n, levels_of(grid))
    values, first, last = _order_statistics(data, ranks - 1)
    if not (np.isfinite(first) and np.isfinite(last)):
        raise NonFiniteData(
            f"sample holds NaN or infinite values (sorted from {first} to {last})")
    if np.any((np.diff(values) == 0.0) & (np.diff(ranks) != 0)):
        warns.append(WARN_TIED_QUANTILES)
    return QuantileResponse(values=values, n=n, warnings=tuple(warns))


def level_density(fam: Family, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels p, standard quantiles Q0(p) and standard densities f0(Q0(p)).

    Raises InvalidGrid unless every level is interior to (0, 1), and
    DegenerateDensity where the density is non-positive or non-finite.
    """
    p = levels_of(grid, interior=True)
    q = np.atleast_1d(np.asarray(fam.qf(p), dtype=float))
    f = np.atleast_1d(np.asarray(fam.pdf(q), dtype=float))
    if np.any(~np.isfinite(f)) or np.any(f <= 0.0):
        raise DegenerateDensity(
            f"{fam.name}: standard density non-positive at a grid quantile"
        )
    return p, q, f


def sigma_star(fam: Family, grid) -> np.ndarray:
    """Standardized covariance matrix of the sample quantiles at the grid.

    Symmetric and positive definite whenever the standard density is
    positive at each grid quantile.  No fit for a family builds it: plans
    use its inverse as ``precision_band``.
    """
    p, _, f = level_density(fam, grid)
    return np.minimum.outer(p, p) * (1.0 - np.maximum.outer(p, p)) / np.outer(f, f)


def precision_band(p: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form precision S^-1 at increasing levels p with standard
    densities f, as (main, off): its main and first off-diagonal.

    By the Markov structure of order statistics (Ogawa 1951; Lloyd 1952) the
    precision is D P0 D, D = diag(f), with P0 tridiagonal: diagonal
    1/d_i + 1/d_(i+1), off-diagonal -1/d_(i+1), d_i = p_i - p_(i-1),
    p_0 = 0, p_(k+1) = 1.
    """
    inv_d = 1.0 / np.diff(np.concatenate(([0.0], p, [1.0])))
    main = (inv_d[:-1] + inv_d[1:]) * f * f
    off = -inv_d[1:-1] * f[:-1] * f[1:]
    return main, off


def design_matrix(fam: Family, grid, mode: ParamMode = ParamMode.LOCATION_SCALE) -> np.ndarray:
    """Regression design: k x 2 [1, Q0(p)] jointly, or the single relevant
    column when one parameter is known."""
    p = levels_of(grid)
    q = np.atleast_1d(np.asarray(fam.qf(p), dtype=float))
    ones = np.ones_like(q)
    if mode is ParamMode.LOCATION_SCALE:
        return np.column_stack([ones, q])
    if mode is ParamMode.LOCATION_ONLY:
        return ones[:, None].copy()
    return q[:, None].copy()
