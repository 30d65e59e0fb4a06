import numpy as np
import pytest

from envopt.duality import GridSpec
from envopt.errors import ValidationError
from envopt.operators import diff_matrix, moreau_envelope_numeric, soft_threshold


def test_first_difference_rows():
    D = diff_matrix(4, 0)
    assert D.rows == 3
    np.testing.assert_array_equal(D.apply(np.array([1.0, 1.0, 2.0, 2.0])),
                                  [0.0, -1.0, 0.0])


def test_second_difference_stencil():
    D = diff_matrix(3, 1)
    np.testing.assert_array_equal(D.stencil, [1.0, -2.0, 1.0])
    np.testing.assert_array_equal(D.apply(np.array([1.0, 2.0, 3.0])), [0.0])


def test_third_difference_annihilates_quadratics():
    D = diff_matrix(5, 2)
    cubic = np.array([1.0, 8.0, 27.0, 64.0, 125.0])
    quad = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    assert np.any(D.apply(cubic) != 0.0)
    np.testing.assert_array_equal(D.apply(quad), [0.0, 0.0])


@pytest.mark.parametrize("n,k", [(5, 0), (8, 1), (12, 2), (30, 3)])
def test_banded_matches_dense_exactly(n, k):
    rng = np.random.Generator(np.random.PCG64(n * 10 + k))
    D = diff_matrix(n, k)
    dense = D.dense()
    v = rng.integers(-50, 50, size=n).astype(float)
    np.testing.assert_array_equal(D.apply(v), dense @ v)
    u = rng.integers(-50, 50, size=D.rows).astype(float)
    np.testing.assert_array_equal(D.transpose_apply(u), dense.T @ u)
    np.testing.assert_allclose(
        _band_to_dense(D.gram_transpose_bands(), D.rows), dense @ dense.T,
        atol=0)


def _band_to_dense(ab, n):
    u = ab.shape[0] - 1
    out = np.zeros((n, n))
    for lag in range(u + 1):
        vals = ab[u - lag, lag:]
        out += np.diag(vals, k=lag)
        if lag:
            out += np.diag(vals, k=-lag)
    return out


def test_polynomial_annihilation_property():
    for k in (0, 1, 2, 3):
        n = 20
        D = diff_matrix(n, k)
        t = np.arange(n, dtype=float)
        for deg in range(k + 1):
            np.testing.assert_array_equal(D.apply(t**deg), np.zeros(D.rows))


def test_diff_matrix_rejects_short_signals():
    with pytest.raises(ValidationError):
        diff_matrix(3, 2)
    with pytest.raises(ValidationError):
        diff_matrix(5, -1)


def test_soft_threshold_values():
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(1.0, 2.0) == 0.0
    assert soft_threshold(-5.0, 2.0) == -3.0
    with pytest.raises(ValidationError):
        soft_threshold(1.0, -0.1)


def test_soft_threshold_is_prox_of_abs():
    rng = np.random.Generator(np.random.PCG64(11))
    grid = GridSpec(-20.0, 20.0, 2001, 3)
    for _ in range(20):
        y = float(rng.uniform(-8, 8))
        lam = float(rng.uniform(0, 4))
        s = soft_threshold(y, lam)
        obj = lambda x: 0.5 * (x - y) ** 2 + lam * np.abs(x)
        best = moreau_envelope_numeric(lambda x: lam * np.abs(x), 1.0, y, grid)
        assert obj(s) <= best + 1e-8


def test_moreau_envelope_values():
    grid = GridSpec(-10.0, 10.0, 401, 3)
    val = moreau_envelope_numeric(lambda z: np.abs(z), 1.0, 5.0, grid)
    assert val == pytest.approx(4.5, abs=1e-8)
    val = moreau_envelope_numeric(lambda z: 0.0 * z, 3.7, 1.3, grid)
    assert val == pytest.approx(0.0, abs=1e-12)
    # squared distance to [0, inf)
    ind = lambda z: np.where(np.asarray(z) >= 0, 0.0, np.inf)
    val = moreau_envelope_numeric(ind, 1.0, -2.0, grid)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_moreau_envelope_below_function():
    grid = GridSpec(-10.0, 10.0, 401, 3)
    fns = [lambda z: np.abs(z), lambda z: z**2, lambda z: np.abs(z) ** 1.5]
    for f in fns:
        for x in (-2.0, 0.3, 4.0):
            for gamma in (0.5, 2.0):
                assert moreau_envelope_numeric(f, gamma, x, grid) <= f(x) + 1e-12
