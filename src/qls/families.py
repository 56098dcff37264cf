"""Catalog of location-scale families.

Each family bundles the standard-form (mu=0, sigma=1) density, distribution
function, quantile function, support, and the standardized Fisher
information.  General-parameter versions follow from

    f(x) = f0((x - mu)/sigma)/sigma,   F(x) = F0((x - mu)/sigma),
    Finv(u) = mu + sigma * Q0(u),

so everything downstream works with the standard forms plus (mu, sigma).

Folded and log-location-scale variants are handled by transforming the data
first (e.g. fit log(x) for a log-location-scale model); they get no
dedicated types here.

The cauchy, laplace, exponential and gumbel kernels and the logistic density
and quantile function are numpy expressions.  Only the normal and levy
distribution and quantile functions and the logistic distribution function
call ``scipy.special``, which each imports on first use: the import costs
more than the rest of the package, and fits, efficiency cells and bootstraps
on the other families never need it.

Two transforms turn uniforms into draws.  ``Family._iid`` makes i.i.d.
samples (``Family.sample`` and the Monte Carlo base draws): inversion, except
that the normal pairs its uniforms by Box-Muller in numpy, which needs no
``scipy.special`` for an even sample size.  ``Family._from_uniform`` is the
monotone map mu + sigma * Q0(u), the only one that takes sorted uniforms to
order statistics.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidSeed, Unavailable

__all__ = [
    "EULER_GAMMA",
    "Family",
    "ParamMode",
    "Params",
    "FAMILIES",
    "family_names",
    "get_family",
]

EULER_GAMMA = float(np.euler_gamma)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_U_FLOOR = float(np.finfo(float).tiny)
# the clip's top must lie below 1, where every quantile function is infinite
# and a contaminant's recycled uniform m / epsilon can land.  Every quantile
# is finite up to 1 - 2^-53, the largest Generator.random double; the ceiling
# stays one step below it so that draws made of that double keep their bits.
_U_CEIL = 1.0 - 2.0 ** -52


class ParamMode(enum.Enum):
    """Which parameters are estimated; the other one is treated as known.
    ``columns`` slices the estimated ones out of (mu, sigma) and the design
    [1, Q0(p)] (every column jointly, so a wider caller design keeps all of
    its own), and ``names`` names them."""

    LOCATION_SCALE = "loc-scale"
    LOCATION_ONLY = "location"
    SCALE_ONLY = "scale"

    @property
    def columns(self) -> slice:
        if self is ParamMode.LOCATION_ONLY:
            return slice(0, 1)
        return slice(1, 2) if self is ParamMode.SCALE_ONLY else slice(None)

    @property
    def names(self) -> tuple[str, ...]:
        return ("mu", "sigma")[self.columns]


def parse_mode(text: str) -> ParamMode:
    key = text.strip().lower()
    for mode in ParamMode:
        if key == mode.value:
            return mode
    aliases = {"locscale": ParamMode.LOCATION_SCALE, "ls": ParamMode.LOCATION_SCALE,
               "loc": ParamMode.LOCATION_ONLY, "mu": ParamMode.LOCATION_ONLY,
               "sigma": ParamMode.SCALE_ONLY}
    if key in aliases:
        return aliases[key]
    raise DomainError(f"unknown parameter mode {text!r}")


@dataclass(frozen=True)
class Params:
    """Location-scale parameter pair; sigma must be positive for use as a
    distribution parameter (fits may carry a non-positive estimate, tagged
    with a warning, which downstream consumers refuse)."""

    mu: float = 0.0
    sigma: float = 1.0


def _vectorized(fn: Callable[[np.ndarray], np.ndarray]):
    """Run a piecewise kernel on atleast-1d input, unwrap scalar results."""

    @functools.wraps(fn)
    def wrapper(z):
        arr = np.asarray(z, dtype=float)
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    return wrapper


# ---------------------------------------------------------------------------
# standard-form kernels
# ---------------------------------------------------------------------------

def _cauchy_pdf(z):
    z = np.asarray(z, dtype=float)
    return 1.0 / (math.pi * (1.0 + z * z))


def _cauchy_cdf(z):
    z = np.asarray(z, dtype=float)
    return 0.5 + np.arctan(z) / math.pi


def _cauchy_qf(u):
    return np.tan(math.pi * (np.asarray(u, dtype=float) - 0.5))


@_vectorized
def _laplace_pdf(z):
    return 0.5 * np.exp(-np.abs(z))


@_vectorized
def _laplace_cdf(z):
    out = np.empty_like(z)
    neg = z <= 0
    out[neg] = 0.5 * np.exp(z[neg])
    out[~neg] = 1.0 - 0.5 * np.exp(-z[~neg])
    return out


@_vectorized
def _laplace_qf(u):
    # piecewise exactly; avoids cancellation near u = 0.5
    out = np.empty_like(u)
    lo = u <= 0.5
    out[lo] = np.log(2.0 * u[lo])
    out[~lo] = -np.log(2.0 * (1.0 - u[~lo]))
    return out


def _logistic_pdf(z):
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return 0.25 / np.cosh(0.5 * z) ** 2


def _logistic_cdf(z):
    import scipy.special
    return scipy.special.expit(np.asarray(z, dtype=float))


def _logistic_qf(u):
    # log(u / (1 - u)) in double: 1 - u is exact for u >= 1/2, and for tiny u
    # the ratio is u itself; within 2 ulp(1 + |q|) of the exact logit, 0 at 1/2
    u = np.asarray(u, dtype=float)
    return np.log(u / (1.0 - u))


def _normal_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _normal_cdf(z):
    import scipy.special
    return scipy.special.ndtr(np.asarray(z, dtype=float))


def _normal_qf(u):
    import scipy.special
    return scipy.special.ndtri(np.asarray(u, dtype=float))


def _normal_draws(params: Params, u: np.ndarray) -> np.ndarray:
    """Normal i.i.d. draws mu + sigma * z made of uniforms u in [0, 1) along
    the last axis (Box & Muller 1958).  Columns j and h + j, h = n // 2, pair
    up: r = sigma sqrt(-2 log(1 - u_j)) and t = tan(pi (u_(h+j) - 1/2)) give
    r cos(2 pi (u_(h+j) - 1/2)) and r sin(...) in the half-angle form, as
    q - r and q t with q = 2 r/(1 + t^2), since numpy's tan costs a third of
    its cos or sin.  An odd last column is the inversion draw.

    One sample (a 1-D u or one row) is contiguous: the passes run in u's two
    halves and the output, overwriting u, and only the output is allocated.
    The halves of the rows of a Monte Carlo block are strided views, on
    which numpy's passes cost about three times as much, so for more rows
    each half of u is read once into a fresh contiguous (3, rows, h)
    scratch, every pass runs there, u is left as it was and the last two
    passes write the output.  Both ways run the same operations on the same
    values, so they give the same bits."""
    n = u.shape[-1]
    h = n // 2
    out = np.empty(u.shape)
    if u.ndim == 1 or len(u) == 1:
        r, t, s = u[..., :h], u[..., h:2 * h], out[..., :h]
    else:
        r, t, s = np.empty((3, len(u), h))
    # 1 - u lies in (0, 1], so the log is finite
    np.subtract(1.0, u[..., :h], out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    r *= params.sigma
    np.subtract(u[..., h:2 * h], 0.5, out=t)
    t *= math.pi
    np.tan(t, out=t)  # |t| <= 1.7e16, so t^2 cannot overflow
    np.multiply(t, t, out=s)
    s += 1.0
    np.divide(r, s, out=s)
    s += s  # q
    np.multiply(s, t, out=t)
    np.add(t, params.mu, out=out[..., h:2 * h])
    np.subtract(s, r, out=s)
    np.add(s, params.mu, out=out[..., :h])
    if n % 2:
        q = _normal_qf(np.clip(u[..., -1], _U_FLOOR, _U_CEIL))
        out[..., -1] = params.mu + params.sigma * q
    return out


@_vectorized
def _exponential_pdf(z):
    out = np.zeros_like(z)
    pos = z > 0
    out[pos] = np.exp(-z[pos])
    return out


@_vectorized
def _exponential_cdf(z):
    out = np.zeros_like(z)
    pos = z > 0
    out[pos] = -np.expm1(-z[pos])
    return out


def _exponential_qf(u):
    return -np.log1p(-np.asarray(u, dtype=float))


def _gumbel_pdf(z):
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-z - np.exp(-z))


def _gumbel_cdf(z):
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-z))


def _gumbel_qf(u):
    return -np.log(-np.log(np.asarray(u, dtype=float)))


@_vectorized
def _levy_pdf(z):
    out = np.zeros_like(z)
    pos = z > 0
    zp = z[pos]
    out[pos] = np.exp(-0.5 / zp) / (_SQRT_2PI * zp ** 1.5)
    return out


@_vectorized
def _levy_cdf(z):
    out = np.zeros_like(z)
    pos = z > 0
    import scipy.special
    out[pos] = scipy.special.erfc(1.0 / np.sqrt(2.0 * z[pos]))
    return out


def _levy_qf(u):
    # F0(x) = 2 Phi(-1/sqrt(x)), so Q0(u) = Phi^-1(u / 2)^-2: u / 2 is exact
    # down to 2^-1022 and ndtri keeps its relative accuracy in the lower
    # tail, where the reflected 1 - u / 2 rounds to 1 below u ~ 1.1e-16.  A
    # subnormal u / 2 drops its last bit (and 2^-1074 / 2 is 0), so there
    # Phi^-1 is taken from log(u / 2) instead.
    import scipy.special
    u = np.asarray(u, dtype=float)
    z = scipy.special.ndtri(0.5 * u)
    sub = (u > 0.0) & (u < _U_FLOOR)
    if sub.any():
        log_half = np.log(np.where(sub, u, 1.0)) - math.log(2.0)
        z = np.where(sub, scipy.special.ndtri_exp(log_half), z)
    return z ** -2.0


# ---------------------------------------------------------------------------
# family descriptor
# ---------------------------------------------------------------------------

def check_sampling(params: Params, n: int) -> None:
    """Raise DomainError unless n >= 1 draws with finite mu and sigma > 0 are asked for."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    if not (0.0 < params.sigma < math.inf and math.isfinite(params.mu)):
        raise DomainError(f"sigma must be positive and mu and sigma finite to sample: {params}")


def check_seed(seed) -> int:
    """The seed as an int; raise InvalidSeed unless it is a non-negative
    integer (a float, even an integral one, is refused as numpy does)."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise InvalidSeed(f"seed must be a non-negative integer, got {seed!r}") from None
    if value < 0:
        raise InvalidSeed(f"seed must be a non-negative integer, got {value}")
    return value


@dataclass(frozen=True)
class Family:
    """Descriptor for one location-scale family in standard form."""

    name: str
    support: tuple[float, float]
    symmetric: bool
    _pdf: Callable = field(repr=False)
    _cdf: Callable = field(repr=False)
    _qf: Callable = field(repr=False)
    # standardized information: 2x2 for full location-scale families, or a
    # scale-only scalar when regularity fails for the joint model
    _info: tuple[tuple[float, float], tuple[float, float]] | None = field(repr=False, default=None)
    _scale_info: float = field(repr=False, default=float("nan"))
    # i.i.d. draws made of (params, uniforms along the last axis), where a
    # faster exact transform than inversion exists
    _draws: Callable | None = field(repr=False, default=None)

    def pdf(self, z):
        """Standard density; zero outside the support."""
        return self._pdf(z)

    def cdf(self, z):
        """Standard distribution function."""
        return self._cdf(z)

    def qf(self, u):
        """Standard quantile function on the open interval (0, 1)."""
        arr = np.asarray(u, dtype=float)
        if not ((arr > 0.0) & (arr < 1.0)).all():  # NaN too
            raise DomainError(f"{self.name}: quantile level must lie in (0, 1)")
        return self._qf(u)

    def fisher_info(self, mode: ParamMode = ParamMode.LOCATION_SCALE) -> np.ndarray:
        """Standardized Fisher information for the estimated parameters.

        Returns a 2x2 matrix in joint mode, else 1x1.  Raises Unavailable
        where the standard regularity conditions fail (exponential and
        levy involve the location parameter as a support boundary, so only
        their scale-only information exists).
        """
        if mode is ParamMode.SCALE_ONLY:
            return np.array([[self._scale_info]])
        if self._info is None:
            raise Unavailable(
                f"{self.name}: Fisher information is only available in "
                "scale-only mode (location is a support boundary)"
            )
        info = np.asarray(self._info, dtype=float)
        if mode is ParamMode.LOCATION_SCALE:
            return info
        return info[:1, :1]

    def sample(self, params: Params, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws made of n uniforms of rng (``_iid``): by inversion,
        mu + sigma * Q0(U), except for the normal, which uses Box-Muller."""
        check_sampling(params, n)
        return self._iid(params, rng.random(n))

    def _iid(self, params: Params, u: np.ndarray) -> np.ndarray:
        """i.i.d. draws made of uniforms u along the last axis, which may be
        overwritten: the family's own draw transform, else ``_from_uniform``.
        The draws are not monotone in u, so they are no order statistics; a
        row's draws depend on that row alone."""
        if self._draws is None:
            return self._from_uniform(params, u)
        return self._draws(params, u)

    def _from_uniform(self, params: Params, u: np.ndarray) -> np.ndarray:
        """mu + sigma * Q0(u), clipping u in place: the monotone transform.
        The map is nondecreasing, so applied to sorted uniforms it gives the
        order statistics of the sample those uniforms would draw."""
        # keep the quantile function finite at the edges
        np.clip(u, _U_FLOOR, _U_CEIL, out=u)
        # every _qf returns a fresh array: scale and shift it in place (the
        # same bits as mu + sigma * q, without two more temporaries)
        q = self._qf(u)
        q *= params.sigma
        q += params.mu
        return q


_INF = float("inf")

FAMILIES: dict[str, Family] = {
    "cauchy": Family(
        name="cauchy", support=(-_INF, _INF), symmetric=True,
        _pdf=_cauchy_pdf, _cdf=_cauchy_cdf, _qf=_cauchy_qf,
        _info=((0.5, 0.0), (0.0, 0.5)), _scale_info=0.5,
    ),
    "laplace": Family(
        name="laplace", support=(-_INF, _INF), symmetric=True,
        _pdf=_laplace_pdf, _cdf=_laplace_cdf, _qf=_laplace_qf,
        _info=((1.0, 0.0), (0.0, 1.0)), _scale_info=1.0,
    ),
    "logistic": Family(
        name="logistic", support=(-_INF, _INF), symmetric=True,
        _pdf=_logistic_pdf, _cdf=_logistic_cdf, _qf=_logistic_qf,
        _info=((1.0 / 3.0, 0.0), (0.0, (3.0 + math.pi ** 2) / 9.0)),
        _scale_info=(3.0 + math.pi ** 2) / 9.0,
    ),
    "normal": Family(
        name="normal", support=(-_INF, _INF), symmetric=True,
        _pdf=_normal_pdf, _cdf=_normal_cdf, _qf=_normal_qf,
        _info=((1.0, 0.0), (0.0, 2.0)), _scale_info=2.0, _draws=_normal_draws,
    ),
    "exponential": Family(
        name="exponential", support=(0.0, _INF), symmetric=False,
        _pdf=_exponential_pdf, _cdf=_exponential_cdf, _qf=_exponential_qf,
        _info=None, _scale_info=1.0,
    ),
    "gumbel": Family(
        name="gumbel", support=(-_INF, _INF), symmetric=False,
        _pdf=_gumbel_pdf, _cdf=_gumbel_cdf, _qf=_gumbel_qf,
        _info=(
            (1.0, EULER_GAMMA - 1.0),
            (EULER_GAMMA - 1.0, math.pi ** 2 / 6.0 + (EULER_GAMMA - 1.0) ** 2),
        ),
        _scale_info=math.pi ** 2 / 6.0 + (EULER_GAMMA - 1.0) ** 2,
    ),
    "levy": Family(
        name="levy", support=(0.0, _INF), symmetric=False,
        _pdf=_levy_pdf, _cdf=_levy_cdf, _qf=_levy_qf,
        _info=None, _scale_info=0.5,
    ),
}


def family_names() -> list[str]:
    return list(FAMILIES)


def get_family(name: str) -> Family:
    """Case-insensitive family lookup (accepts 'Lévy' for 'levy')."""
    key = name.strip().lower().replace("é", "e")
    try:
        return FAMILIES[key]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; choose from {'|'.join(FAMILIES)}"
        ) from None
