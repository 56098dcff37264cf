import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from qls.errors import DomainError, Unavailable
from qls.families import EULER_GAMMA, FAMILIES, ParamMode, Params, get_family

ALL = list(FAMILIES)
SYMMETRIC = ["cauchy", "laplace", "logistic", "normal"]
INVERTED = [name for name in ALL if name != "normal"]


def test_lookup_is_case_insensitive():
    assert get_family("Cauchy").name == "cauchy"
    assert get_family("LEVY").name == "levy"
    assert get_family("lévy").name == "levy"
    with pytest.raises(DomainError):
        get_family("weibull")


def test_pdf_point_values():
    assert get_family("laplace").pdf(0.0) == pytest.approx(0.5)
    assert get_family("cauchy").pdf(0.0) == pytest.approx(1.0 / math.pi)
    assert get_family("exponential").pdf(-1.0) == 0.0
    assert get_family("levy").pdf(-0.5) == 0.0


def test_qf_point_values():
    assert get_family("logistic").qf(0.5) == pytest.approx(0.0)
    assert get_family("cauchy").qf(0.75) == pytest.approx(1.0)
    assert get_family("gumbel").qf(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)
    assert get_family("normal").qf(0.975) == pytest.approx(1.959963985, abs=1e-8)


def test_qf_domain_error():
    for u in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(DomainError):
            get_family("normal").qf(u)


@pytest.mark.parametrize("name", ALL)
def test_qf_refuses_nan_levels(name):
    for u in (float("nan"), np.array([0.2, np.nan, 0.7]), np.array([[0.5], [np.nan]])):
        with pytest.raises(DomainError, match="must lie in"):
            get_family(name).qf(u)


def test_cdf_point_values():
    assert get_family("normal").cdf(0.0) == pytest.approx(0.5)
    assert get_family("exponential").cdf(math.log(2.0)) == pytest.approx(0.5)
    assert get_family("levy").cdf(1e12) == pytest.approx(1.0, abs=1e-5)
    assert get_family("levy").cdf(0.0) == 0.0


@pytest.mark.parametrize("name", ALL)
def test_pdf_integrates_to_one(name):
    fam = get_family(name)
    lo, hi = fam.support
    total, _ = integrate.quad(lambda z: float(fam.pdf(z)), lo, hi, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", ALL)
def test_qf_cdf_roundtrip(name):
    fam = get_family(name)
    u = np.arange(0.001, 1.0, 0.001)
    back = fam.cdf(fam.qf(u))
    assert np.max(np.abs(back - u)) < 1e-8


@pytest.mark.parametrize("name", ALL)
def test_cdf_qf_roundtrip_interior(name):
    fam = get_family(name)
    u = np.linspace(0.01, 0.99, 99)
    z = fam.qf(u)
    again = fam.qf(fam.cdf(z))
    assert np.max(np.abs(again - z) / (1.0 + np.abs(z))) < 1e-8


@pytest.mark.parametrize("name", ALL)
def test_density_matches_cdf_slope(name):
    # numeric derivative of the cdf at interior quantiles vs the density
    fam = get_family(name)
    u = np.linspace(0.05, 0.95, 19)
    z = fam.qf(u)
    h = 1e-6 * (1.0 + np.abs(z))
    slope = (fam.cdf(z + h) - fam.cdf(z - h)) / (2.0 * h)
    f = fam.pdf(z)
    assert np.max(np.abs(slope - f) / f) < 1e-5


@pytest.mark.parametrize("name", SYMMETRIC)
def test_symmetric_quantiles(name):
    fam = get_family(name)
    u = np.linspace(0.01, 0.49, 25)
    assert np.max(np.abs(fam.qf(u) + fam.qf(1.0 - u))) < 1e-9
    assert fam.symmetric


@pytest.mark.parametrize("name", ALL)
def test_qf_strictly_increasing(name):
    fam = get_family(name)
    u = np.linspace(0.001, 0.999, 500)
    assert np.all(np.diff(fam.qf(u)) > 0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs an extended long double")
def test_logistic_qf_is_accurate_monotone_and_exact_at_one_half():
    fam = get_family("logistic")
    # 1e5+ levels over [2^-1022, 1 - 2^-53]: uniform, dense at 1/2, both tails
    rng = np.random.default_rng(15)
    near_half = 0.5 + np.exp2(-rng.uniform(2.0, 60.0, 30000)) * rng.choice([-1.0, 1.0], 30000)
    u = np.sort(np.concatenate([
        rng.random(20000),
        near_half,
        np.nextafter(0.5, np.linspace(0.0, 1.0, 9)),
        np.exp2(-rng.uniform(1.0, 1022.0, 30000)),
        1.0 - np.exp2(-rng.uniform(1.0, 53.0, 30000)),
        [2.0 ** -1022, 1.0 - 2.0 ** -53],
    ]))
    assert u.size >= 100000 and u[0] == 2.0 ** -1022 and u[-1] == 1.0 - 2.0 ** -53
    q = fam.qf(u)
    # extended-precision logit: log1p((2u - 1) / (1 - u)) about 1/2, where
    # the ratio form loses digits, and log(u / (1 - u)) elsewhere
    ul = u.astype(np.longdouble)
    mid = (u > 0.3) & (u < 0.65)
    ref = np.log(ul / (1 - ul))
    ref[mid] = np.log1p((2 * ul[mid] - 1) / (1 - ul[mid]))
    err = np.abs(q.astype(np.longdouble) - ref)
    ulp = np.spacing(1.0 + np.abs(ref.astype(float)))
    assert np.all(err <= 2 * ulp), float(np.max(err / ulp))
    assert fam.qf(0.5) == 0.0
    assert np.all(np.diff(q) >= 0)
    for scalar in (0.25, np.float64(0.25), np.asarray(0.25)):
        out = fam.qf(scalar)
        assert np.ndim(out) == 0 and isinstance(out, np.float64)


def test_fisher_info_values():
    assert np.allclose(get_family("cauchy").fisher_info(), np.diag([0.5, 0.5]))
    assert np.allclose(get_family("laplace").fisher_info(), np.eye(2))
    assert np.allclose(get_family("normal").fisher_info(), np.diag([1.0, 2.0]))
    logi = get_family("logistic").fisher_info()
    assert logi[0, 0] == pytest.approx(1.0 / 3.0)
    assert logi[1, 1] == pytest.approx((3.0 + math.pi ** 2) / 9.0)
    g = get_family("gumbel").fisher_info()
    assert g[0, 0] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(EULER_GAMMA - 1.0)
    assert g[1, 1] == pytest.approx(math.pi ** 2 / 6.0 + (EULER_GAMMA - 1.0) ** 2)
    assert EULER_GAMMA == pytest.approx(0.5772, abs=5e-5)


def test_fisher_info_scale_only_and_unavailable():
    assert get_family("exponential").fisher_info(ParamMode.SCALE_ONLY)[0, 0] == 1.0
    assert get_family("levy").fisher_info(ParamMode.SCALE_ONLY)[0, 0] == 0.5
    for name in ("exponential", "levy"):
        for mode in (ParamMode.LOCATION_SCALE, ParamMode.LOCATION_ONLY):
            with pytest.raises(Unavailable):
                get_family(name).fisher_info(mode)


class FixedRng:
    """A stand-in generator whose ``random(n)`` serves the first n of u."""

    def __init__(self, u):
        self.u = np.asarray(u)

    def random(self, n):
        return self.u[:n].copy()


def test_sampling_is_inversion():
    # with the uniforms pinned, draws are exactly mu + sigma * qf(u) for the
    # six families without a draw transform of their own
    u = np.array([0.2, 0.5, 0.9])
    for name in INVERTED:
        fam = get_family(name)
        got = fam.sample(Params(2.0, 3.0), 3, FixedRng(u))
        assert got.tobytes() == (2.0 + 3.0 * fam.qf(u)).tobytes()


@pytest.mark.parametrize("name", ALL)
def test_sampling_is_finite_at_both_ends_of_the_generator_range(name):
    # Generator.random gives doubles in [0, 1 - 2^-53]; the clip keeps both
    # ends inside (0, 1), and no quantile divides by zero there
    u = np.array([0.0, 5e-324, 0.5, 1 - 2 ** -52, 1 - 2 ** -53])
    with np.errstate(all="raise"):
        assert np.isfinite(get_family(name).sample(Params(2.0, 3.0), 5, FixedRng(u))).all()


LEVY_LEVELS = [5e-324, 1e-320, 3e-310, 2.0 ** -1022 - 2.0 ** -1074,
               1e-300, 1e-16, 1e-15, 1e-8, 0.3, 0.9, 1 - 2 ** -52]


@pytest.mark.parametrize("u", LEVY_LEVELS)
def test_levy_qf_matches_a_high_precision_reference(u):
    # Q0(u) = 1 / (2 erfinv(1 - u)^2) at 400 digits; below u ~ 1.1e-16 the
    # reflected form ndtri(1 - u / 2) ** -2 read 1 - u / 2 as 1 and gave 0,
    # and at subnormal u the halved level u / 2 loses bits (0 at 5e-324)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        ref = 1 / (2 * mpmath.erfinv(1 - mpmath.mpf(u)) ** 2)
        assert abs(get_family("levy").qf(u) - ref) <= 1e-14 * ref


def test_levy_qf_of_an_array_is_its_scalar_values():
    levy = get_family("levy")
    q = levy.qf(np.array(LEVY_LEVELS))
    assert q.shape == (len(LEVY_LEVELS),)
    assert q.tolist() == [float(levy.qf(u)) for u in LEVY_LEVELS]


def _box_muller_reference(u):
    """Columns j and h + j of u, h = n // 2, as r cos(theta) and r sin(theta)
    with r = sqrt(-2 log(1 - u_j)) and theta = 2 pi (u_(h+j) - 1/2), in the
    trigonometric form; an odd last column is left out."""
    h = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[..., :h]))
    theta = 2.0 * math.pi * (u[..., h:2 * h] - 0.5)
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1001])
@pytest.mark.parametrize("params", [Params(), Params(-1.5, 2.5), Params(1e5, 1e-3)])
def test_normal_sampling_is_box_muller(n, params):
    # the normal's draws pair columns j and h + j (Box-Muller) and an odd
    # last column is the inversion draw
    fam = get_family("normal")
    u = np.random.default_rng(n).random((4, n))
    # both edges of [0, 1) in both columns of a pair, t = 0 and t = -1
    h = n // 2
    u[:2, [0, h]] = [[0.0, 0.0], [1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53]]
    u[2:, h] = 0.5, 0.25
    kept = u.copy()
    x = fam._iid(params, u)
    assert not np.shares_memory(x, u)
    z = _box_muller_reference(kept)
    err = np.abs(x[:, :2 * h] - (params.mu + params.sigma * z))
    assert np.all(err <= 1e-14 * (abs(params.mu) + params.sigma * (1.0 + np.abs(z))))
    if n % 2:
        last = fam._from_uniform(params, kept[:, -1:].copy())
        assert x[:, -1:].tobytes() == last.tobytes()
    # one row through the public sampler is that row of the block
    for i, row in enumerate(kept):
        assert fam.sample(params, n, FixedRng(row)).tobytes() == x[i].tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1001])
@pytest.mark.parametrize("params", [Params(-1.5, 2.5), Params(1e5, 1e-3)])
def test_normal_draws_of_a_strided_block_equal_single_rows(n, params):
    # the base half of a (rows, 2n) block, as the Monte Carlo engine hands it
    # over: the draws run in a contiguous scratch of their own, so u is only
    # read, and each row is the bytes of that row drawn alone, in place
    fam = get_family("normal")
    for seed in (n, n + 1):
        block = np.random.default_rng(seed).random((5, 2 * n))
        kept = block.copy()
        x = fam._iid(params, block[:, :n])
        assert block.tobytes() == kept.tobytes()
        for i, row in enumerate(kept):
            assert x[i].tobytes() == fam.sample(params, n, FixedRng(row[:n])).tobytes()


def test_normal_sample_allocates_only_its_draws_and_output():
    # Box-Muller runs in the sample's own uniforms and its output: the peak
    # is the two arrays, about twice the sample's bytes
    fam, rng = get_family("normal"), np.random.default_rng(3)
    tracemalloc.start()
    try:
        x = fam.sample(Params(), 10 ** 6, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.05 * x.nbytes, peak / x.nbytes


def test_normal_draws_are_standard_normal():
    # 1e6 draws: Kolmogorov-Smirnov against the normal distribution
    # function, the first two moments, and the pairs (z_j, z_(h+j)) that
    # share one draw of the transform uncorrelated, and so are their squares
    n = 1_000_000
    z = get_family("normal").sample(Params(), n, np.random.default_rng(20240817))
    assert stats.kstest(z, "norm").pvalue > 1e-3
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    h = n // 2
    for a, b in ((z[:h], z[h:]), (z[:h] ** 2, z[h:] ** 2)):
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(h)


def test_sampling_moments_and_support():
    fam = get_family("normal")
    x = fam.sample(Params(0.0, 1.0), 100_000, np.random.default_rng(123))
    assert abs(x.mean()) < 0.02
    e = get_family("exponential").sample(Params(1.0, 3.0), 100_000,
                                         np.random.default_rng(5))
    assert e.min() >= 1.0
    lv = get_family("levy").sample(Params(-2.0, 1.0), 10_000,
                                   np.random.default_rng(6))
    assert lv.min() >= -2.0


def test_sampling_deterministic_and_validated():
    fam = get_family("gumbel")
    a = fam.sample(Params(), 50, np.random.default_rng(9))
    b = fam.sample(Params(), 50, np.random.default_rng(9))
    assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        fam.sample(Params(0.0, 0.0), 10, np.random.default_rng(0))
    with pytest.raises(DomainError):
        fam.sample(Params(0.0, -1.0), 10, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL), st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_roundtrip_property(name, u):
    fam = get_family(name)
    assert fam.cdf(fam.qf(u)) == pytest.approx(u, abs=1e-8)
