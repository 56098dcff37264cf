"""Dense kernels for the few places that hold a k x k matrix.

All matrices are plain row-major ``numpy.ndarray`` values.  No family path
builds anything k x k: family plans are sums over the level spacings, and
their 1 x 1 and 2 x 2 normal equations are tested and inverted in closed
form (``estimators._inverse_2x2``), as are the determinants of the
efficiency tables.  What is left here serves a quantile covariance S
supplied by the caller: Cholesky on the SPD path (which doubles as a
definiteness certificate) and the solve against it, whose ``scipy.linalg``
is imported on first use, plus a determinant of a general square matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "SpdFactor",
    "spd_factorize",
    "solve_spd",
    "det",
]

_EPS = float(np.finfo(float).eps)


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L with source = L @ L.T."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def spd_factorize(m) -> SpdFactor:
    """Cholesky-factor a symmetric positive definite matrix.

    Raises NotPositiveDefinite when a pivot falls at or below the
    dimension-scaled tolerance (the typical symptom of a degenerate grid
    or duplicated probability levels upstream).
    """
    a = _as_matrix(m)
    n, p = a.shape
    if n != p:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        raise NotPositiveDefinite("zero matrix is not positive definite")
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    tol = n * _EPS * scale  # dimension-scaled singularity guard
    pivots = lower.diagonal() ** 2
    if float(pivots.min()) <= tol:
        raise NotPositiveDefinite(
            f"pivot {pivots.min():.3e} at or below tolerance {tol:.3e}"
        )
    return SpdFactor(lower=lower)


def solve_spd(f: SpdFactor, b) -> np.ndarray:
    """Solve (L L') x = b for one or many right-hand sides."""
    import scipy.linalg  # only a caller-supplied S needs it, and it is costly to import

    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != f.dim:
        raise DimensionMismatch(
            f"rhs has {rhs.shape[0]} rows, factor dimension is {f.dim}"
        )
    return scipy.linalg.cho_solve((f.lower, True), rhs)


def det(m) -> float:
    """Determinant of a finite square matrix (0.0 for singular input)."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    return float(np.linalg.det(a))

