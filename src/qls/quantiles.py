"""Quantile grids, empirical quantiles, and the standardized regression pieces.

A grid holds strictly increasing levels in (0, 1), checked when it is made;
``make_grid`` spaces k of them equally on [a, b].  The empirical quantile at
level p is the ceil(n*p)-th order statistic, read from one sort of the
sample, or above 1 MiB from two halves sorted on two threads.  From a
family's standard forms we assemble the standardized covariance of sample
quantiles

    s_ij = p_i (1 - p_j) / (f0(Q0(p_i)) f0(Q0(p_j)))   for i <= j,

the levels and densities from which a fit plan sums its closed-form inverse
(``level_density``), and the design whose columns are 1 and Q0(p_i).  Replicate
studies take order statistics from row-sorted blocks of replicates, split by
``replicate_blocks`` so that each block holds at most 2^17 values (1 MiB).
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass, fields

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
    "design_matrix",
]

# float64 values in one block of replicate rows: 1 MiB; a larger single
# sample is sorted as two halves on two threads (``_order_statistics``)
_BLOCK_VALUES = 2 ** 17


class _Value:
    """Equality of two dataclass values of one type field by field, arrays
    by ``np.array_equal``, and a hash that agrees with it."""

    def _fields(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._fields(), other._fields()))

    def __hash__(self):
        return hash(tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                          for v in self._fields()))


@dataclass(frozen=True, eq=False)
class QuantileGrid(_Value):
    """Probability levels, checked once when the grid is made and read-only;
    a, b and k are the first level, the last and their count.  Each grid
    object keeps the family plans built on it (``FitPlan.for_family``), one
    per (family, kind), outside its fields, so a pickle or copy of the grid
    starts a store of its own."""

    levels: np.ndarray

    def __post_init__(self):
        levels = np.array(levels_of(self.levels, interior=True))  # a grid's levels, copied
        levels.setflags(write=False)
        self.__dict__.update(levels=levels, a=float(levels[0]), b=float(levels[-1]),
                             k=levels.shape[0], _plans={})

    def __repr__(self):
        return f"QuantileGrid(a={self.a!r}, b={self.b!r}, k={self.k!r})"

    def __getstate__(self):
        return {"levels": self.levels}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()


def make_grid(a: float, b: float, k: int) -> QuantileGrid:
    """Build the level grid p_i = a + (i-1)(b-a)/(k-1), i = 1..k."""
    if not (0.0 < a < b < 1.0):
        raise InvalidGrid(f"need 0 < a < b < 1, got a={a}, b={b}")
    if int(k) != k or k < 2:
        raise InvalidGrid(f"need integer k >= 2, got k={k}")
    grid = QuantileGrid(np.linspace(a, b, int(k)))
    # linspace ends at a and b exactly; results that report them share these floats
    grid.__dict__.update(a=float(a), b=float(b))
    return grid


def levels_of(grid, interior: bool = False) -> np.ndarray:
    """The levels of a QuantileGrid, as checked when it was made, or of a
    raw level array, checked here: InvalidGrid unless they form a non-empty,
    strictly increasing 1-D array of numbers, all in [0, 1], or in (0, 1) and
    with a finite reciprocal of every gap of [0, p, 1] when ``interior``."""
    if isinstance(grid, QuantileGrid):
        return grid.levels
    try:
        levels = np.asarray(grid, dtype=float)
    except (TypeError, ValueError):  # a string, a ragged list, a complex number, an object
        raise InvalidGrid(f"levels must be numbers, got {type(grid).__name__}") from None
    if levels.ndim != 1 or levels.size == 0:
        raise InvalidGrid("levels must be a non-empty 1-D array")
    steps = np.diff(levels)
    if not (steps > 0.0).all():
        raise InvalidGrid("levels must be strictly increasing")
    if not (levels[0] >= 0.0 and levels[-1] <= 1.0):  # they increase strictly
        raise InvalidGrid("all levels must lie in [0, 1]")
    if interior:
        if not (levels[0] > 0.0 and levels[-1] < 1.0):
            raise InvalidGrid("all levels must be interior to (0, 1)")
        # a family plan divides by each gap of [0, p, 1].  Doubles at or
        # above 2^-969 lie at least 2^-1021 apart and 1 - p_k >= 2^-53, so
        # only a level below 2^-969 can make a gap whose reciprocal is inf
        # (which a Python division returns without a warning).
        if levels[0] < 2.0 ** -969 and not math.isfinite(
                1.0 / float(min(levels[0], steps.min(initial=1.0)))):
            raise InvalidGrid(
                f"levels closer than {1.0 / np.finfo(float).max:.3g} to each other "
                "or to 0 have no finite precision")
    return levels


@dataclass(frozen=True, eq=False)
class QuantileResponse(_Value):
    """Empirical quantiles at the grid levels (nondecreasing) plus source n."""

    values: np.ndarray
    n: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.isfinite(vals).all():
            raise NonFiniteData("quantile response holds NaN or infinite values")
        if np.any(np.diff(vals) < 0):
            raise ValueError("quantile response must be nondecreasing")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return self.values.shape[0]


def _positions(n: int, *level_sets) -> tuple[np.ndarray, list[np.ndarray], list[list[str]]]:
    """The sorted union of the 0-based positions ceil(n * p) - 1 (robust to
    float fuzz) of each set of levels, the columns of each set in it (set s
    with its repeats is ``pos[cols[s]]``), and each set's rank tags: a rank
    clamped to 1 or n * p < 1, and one rank at two levels."""
    ranks: list[np.ndarray] = []
    tags: list[list[str]] = []
    for levels in map(levels_of, level_sets):
        t = n * levels
        nearest = np.rint(t)
        snap = np.abs(t - nearest) <= 1e-9 * np.maximum(1.0, np.abs(t))
        r = np.maximum(np.where(snap, nearest, np.ceil(t)).astype(np.int64) - 1, 0)
        warns = [WARN_RANK_CLAMPED] if t[0] < 1.0 - 1e-12 else []  # covers every rank below 1
        if np.any(np.diff(r) == 0):
            warns.append(WARN_DEGENERATE_GRID)
        ranks.append(r)
        tags.append(warns)
    pos = np.unique(np.concatenate(ranks))
    return pos, [np.searchsorted(pos, r) for r in ranks], tags


def finite_rows(srt: np.ndarray):
    """Whether each row of a row-sorted array is free of NaN and infinities.
    NaN sorts last and -inf first, so the two end values decide."""
    return np.isfinite(srt[..., 0]) & np.isfinite(srt[..., -1])


def replicate_blocks(replicates: range, n: int) -> Iterator[range]:
    """Split replicate numbers into consecutive runs whose (rows, n) float64
    block holds at most ``_BLOCK_VALUES`` values, 1 MiB (one row when a
    single sample is larger)."""
    rows = max(1, _BLOCK_VALUES // n)
    return (replicates[i:i + rows] for i in range(0, len(replicates), rows))


def _two_threads(tasks, run) -> None:
    """Call ``run(take)`` on the caller and on one helper thread; ``take()``
    hands out the next of ``tasks`` under one lock, and None once every task
    is taken or either thread has raised.  The helper runs in a copy of the
    caller's context (numpy's error state) and is joined before this returns
    or raises; the first error is raised here.  Each call starts a helper of
    its own rather than sharing a pool: a task may call this again (a study's
    numeric MLE reaches the split sort), which a bounded pool would deadlock."""
    tasks = iter(tasks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def take():
        with lock:
            return None if errors else next(tasks, None)

    def guarded():
        try:
            run(take)
        except BaseException as exc:  # stops both threads; raised by the caller
            with lock:
                errors.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(guarded,),
                              name="qls-helper")
    helper.start()
    guarded()
    helper.join()
    if errors:
        raise errors[0]


@contextlib.contextmanager
def _ahead(items):
    """Advance the iterator ``items`` ahead of the caller on one helper
    thread named ``qls-helper`` and yield an iterator over its items in
    order.  The helper keeps at most two items ready.  When none is ready
    and the helper is not advancing ``items``, the caller advances it
    itself, so a helper that starts late or never runs delays nothing.
    ``items`` is advanced under one lock, one item at a time and in order,
    and an error it raises is raised by the caller where its item would
    have come.  The helper runs in a copy of the caller's context and is
    stopped and joined when the block exits, also when the caller stops
    early or raises."""
    items = iter(items)
    lock = threading.Lock()  # held while items is advanced
    ready = queue.SimpleQueue()  # the helper's (more, item) entries, in order
    room = queue.SimpleQueue()  # one token per entry the helper may add
    room.put(None)
    room.put(None)
    stopped = False

    def step():
        try:
            return True, next(items)
        except StopIteration:
            return False, None
        except BaseException as exc:  # raised by the caller, in order
            return False, exc

    def produce():
        more = True
        while more:
            room.get()
            with lock:
                if stopped:
                    return
                more, _ = entry = step()
                ready.put(entry)

    def take():
        if ready.empty() and lock.acquire(blocking=False):
            try:  # the helper is not advancing items: if still behind, advance here
                if ready.empty():
                    return step()
            finally:
                lock.release()
        entry = ready.get()  # ready, or the helper holds the lock to add it
        room.put(None)
        return entry

    def consume():
        while True:
            more, item = take()
            if not more:
                if item is not None:
                    raise item
                return
            yield item

    helper = threading.Thread(target=contextvars.copy_context().run, args=(produce,),
                              name="qls-helper")
    helper.start()
    try:
        yield consume()
    finally:
        stopped = True
        room.put(None)  # a helper waiting for room wakes and sees the stop
        helper.join()


def _order_statistics(data: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Values at the 0-based sorted positions of a non-empty 1-D sample, and
    its first and last sorted values (NaN sorts last, so the two decide
    whether the sample is finite); EmptySample for an empty one.

    Up to ``_BLOCK_VALUES`` values this is one ``np.sort``.  A larger sample
    is sorted as two halves on two threads (``_two_threads``), and the value
    at position r is the r-th smallest of the two runs a and b: with i of the
    r + 1 smallest taken from a and j = r + 1 - i from b, the right i is the
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
    h = data.shape[0] // 2
    halves = [data[:h], data[h:]]

    def sort(take):  # np.sort releases the GIL
        while (i := take()) is not None:
            halves[i] = np.sort(halves[i])

    _two_threads(range(2), sort)
    a, b = halves
    m = b.shape[0]
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


def _read_sorted(data: np.ndarray, pos: np.ndarray,
                 cols: list[np.ndarray]) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The values of the 1-D ``data`` at the union positions ``pos`` of one
    sort (``_order_statistics``), and per level set, columns ``cols[s]`` of
    the union (``_positions``), its ``tied_quantiles`` tag if two of its
    levels at distinct ranks read one value.  NonFiniteData for NaN or inf."""
    values, first, last = _order_statistics(data, pos)
    if not (np.isfinite(first) and np.isfinite(last)):
        raise NonFiniteData(
            f"sample holds NaN or infinite values (sorted from {first} to {last})")
    tied = [((np.diff(values[c]) == 0.0) & (np.diff(c) != 0)).any() for c in cols]
    return values, [(WARN_TIED_QUANTILES,) if t else () for t in tied]


def empirical_quantiles(sample, grid) -> QuantileResponse:
    """Extract the ceil(n*p)-th order statistics at each grid level, as a
    full sort would give them (``_read_sorted``).  Raises NonFiniteData
    when the sample holds NaN or an infinity; tags the response
    ``tied_quantiles`` when two levels at distinct ranks read equal values."""
    data = np.asarray(sample, dtype=float).reshape(-1)  # a view of any 1-D array
    pos, (cols,), (warns,) = _positions(data.shape[0], grid)
    values, (tied,) = _read_sorted(data, pos, [cols])
    return QuantileResponse(values=values[cols], n=data.shape[0], warnings=(*warns, *tied))


def level_density(fam: Family, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels p, standard quantiles Q0(p) and standard densities f0(Q0(p)).

    Raises InvalidGrid unless every level is interior to (0, 1), and
    DegenerateDensity where the density is non-positive or non-finite.
    """
    p = levels_of(grid, interior=True)
    q = np.atleast_1d(np.asarray(fam.qf(p), dtype=float))
    f = np.atleast_1d(np.asarray(fam.pdf(q), dtype=float))
    if not (np.isfinite(f) & (f > 0.0)).all():
        raise DegenerateDensity(
            f"{fam.name}: standard density non-positive at a grid quantile"
        )
    return p, q, f


def sigma_star(fam: Family, grid) -> np.ndarray:
    """Standardized covariance matrix of the sample quantiles at the grid.

    Symmetric and positive definite whenever the standard density is
    positive at each grid quantile.  No fit for a family builds it: plans
    sum its inverse over the level spacings (``estimators.FitPlan``).
    """
    p, _, f = level_density(fam, grid)
    return np.minimum.outer(p, p) * (1.0 - np.maximum.outer(p, p)) / np.outer(f, f)


def design_matrix(fam: Family, grid, mode: ParamMode = ParamMode.LOCATION_SCALE) -> np.ndarray:
    """Regression design: the columns of [1, Q0(p)] the mode estimates
    (``ParamMode.columns``), k x 2 jointly."""
    q = np.atleast_1d(np.asarray(fam.qf(levels_of(grid)), dtype=float))
    return np.column_stack([np.ones_like(q), q])[:, mode.columns].copy()
