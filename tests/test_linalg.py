import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qls.errors import DimensionMismatch, NotPositiveDefinite
from qls.linalg import det, solve_spd, spd_factorize


def random_spd(k, rng, jitter=0.5):
    a = rng.standard_normal((k, k))
    return a @ a.T + jitter * np.eye(k)


def test_factorize_identity():
    f = spd_factorize(np.eye(3))
    assert np.allclose(f.lower, np.eye(3))


def test_factorize_hand_cholesky():
    f = spd_factorize([[4.0, 2.0], [2.0, 3.0]])
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(f.lower, expected, atol=1e-14)


def test_factorize_indefinite_raises():
    with pytest.raises(NotPositiveDefinite):
        spd_factorize([[1.0, 2.0], [2.0, 1.0]])


def test_factorize_rejects_asymmetric():
    with pytest.raises(ValueError):
        spd_factorize([[1.0, 0.5], [0.2, 1.0]])


def test_factor_reconstructs_source():
    rng = np.random.default_rng(0)
    a = random_spd(12, rng)
    f = spd_factorize(a)
    err = np.linalg.norm(f.lower @ f.lower.T - a) / np.linalg.norm(a)
    assert err < 1e-10


def test_solve_identity_and_diagonal():
    f = spd_factorize(np.eye(4))
    b = np.arange(4.0)
    assert np.allclose(solve_spd(f, b), b)
    f2 = spd_factorize(np.diag([2.0, 2.0]))
    assert np.allclose(solve_spd(f2, np.array([4.0, 6.0])), [2.0, 3.0])


def test_solve_dimension_mismatch():
    f = spd_factorize(np.eye(3))
    with pytest.raises(DimensionMismatch):
        solve_spd(f, np.ones(4))


def test_solve_residual_random_10x10():
    rng = np.random.default_rng(1)
    a = random_spd(10, rng)
    b = rng.standard_normal(10)
    x = solve_spd(spd_factorize(a), b)
    assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_det_identity_and_diag():
    assert det(np.eye(7)) == pytest.approx(1.0)
    assert det(np.diag([2.0, 3.0])) == pytest.approx(6.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solve_then_multiply_roundtrip(seed):
    rng = np.random.default_rng(seed)
    a = random_spd(6, rng)
    b = rng.standard_normal((6, 2))
    x = solve_spd(spd_factorize(a), b)
    assert np.linalg.norm(a @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_det_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    lhs = det(a @ b)
    rhs = det(a) * det(b)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)
