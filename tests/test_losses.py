import warnings

import numpy as np
import pytest
from scipy.special import expit

from envopt.duality import (
    GAUSSIAN_LOCATION,
    GAUSSIAN_SCALE,
    GridSpec,
    check_envelope_identity,
    variance_mean,
)
from envopt.errors import CapabilityError, ValidationError
from envopt.losses import (
    LossSpec,
    check_lambda_hat,
    check_value,
    check_variance_mean_dual,
    huber,
    huber_location_dual,
    lipschitz_bound,
    location_envelope_update,
    logcosh,
    logcosh_location_dual,
    logcosh_scale_dual,
    logit_scale_lambda,
    logit_scale_update,
    loss_grad,
    loss_value,
    variance_mean_update,
)


def test_spec_validation():
    with pytest.raises(ValidationError):
        LossSpec("binomial-logit", y=np.array([1.0, 2.0]))  # missing m
    with pytest.raises(ValidationError):
        LossSpec("binomial-logit", y=np.array([3.0]), m=np.array([2.0]))
    for m in (0.5, np.nan, np.inf):
        with pytest.raises(ValidationError, match="m must be positive counts"):
            LossSpec("binomial-logit", y=np.array([0.0]), m=np.array([m]))
    with pytest.raises(ValidationError):
        LossSpec("check", y=np.array([1.0]), q=1.5)
    with pytest.raises(ValidationError):
        LossSpec("gaussian", y=np.array([1.0, 2.0]),
                 design=np.ones((3, 2)))


def test_kappa_is_derived():
    l = LossSpec("check", y=np.zeros(3), q=0.9)
    assert l.kappa == pytest.approx(-0.8)
    lb = LossSpec("binomial-logit", y=np.array([0.0, 3.0]),
                  m=np.array([4.0, 4.0]))
    np.testing.assert_allclose(lb.kappa, [-2.0, 1.0])
    with pytest.raises(CapabilityError):
        LossSpec("gaussian", y=np.zeros(2)).kappa


def test_loss_values():
    g = LossSpec("gaussian", y=np.array([1.0, 2.0]))
    assert loss_value(g, np.array([1.0, 2.0])) == 0.0
    h = LossSpec("huber", y=np.array([3.0]))
    assert loss_value(h, np.array([0.0])) == pytest.approx(2.5)
    c = LossSpec("check", y=np.array([-1.0]), q=0.9)
    assert loss_value(c, np.array([0.0])) == pytest.approx(0.2)
    b = LossSpec("binomial-logit", y=np.array([0.0]), m=np.array([1.0]))
    assert loss_value(b, np.array([0.0])) == pytest.approx(np.log(2.0))


def test_gradients():
    g = LossSpec("gaussian", y=np.array([1.0, 2.0]))
    np.testing.assert_allclose(loss_grad(g, np.zeros(2)), [-1.0, -2.0])
    b = LossSpec("binomial-logit", y=np.array([0.0]), m=np.array([1.0]))
    np.testing.assert_allclose(loss_grad(b, np.zeros(1)), [0.5])
    h = LossSpec("huber", y=np.array([0.5, 3.0]))
    np.testing.assert_allclose(loss_grad(h, np.zeros(2)), [-0.5, -1.0])
    c = LossSpec("check", y=np.array([1.0]), q=0.5)
    with pytest.raises(CapabilityError):
        loss_grad(c, np.zeros(1))


def test_gradient_finite_differences():
    rng = np.random.Generator(np.random.PCG64(3))
    n, d = 12, 4
    A = rng.normal(size=(n, d))
    specs = [
        LossSpec("gaussian", y=rng.normal(size=n), design=A),
        LossSpec("huber", y=rng.normal(size=n), design=A),
        LossSpec("binomial-logit", y=rng.integers(0, 6, size=n).astype(float),
                 m=np.full(n, 5.0), design=A),
    ]
    h = 1e-6
    checked = 0
    for spec in specs:
        for _ in range(25):
            beta = rng.normal(size=d)
            if spec.kind == "huber":
                r = spec.y - A @ beta
                if np.any(np.abs(np.abs(r) - 1.0) < 1e-4):
                    continue
            g = loss_grad(spec, beta)
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (loss_value(spec, beta + e)
                         - loss_value(spec, beta - e)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)
            checked += 1
    assert checked >= 50


def test_lipschitz_bounds():
    g = LossSpec("gaussian", y=np.zeros(3))
    assert lipschitz_bound(g) == 1.0
    b = LossSpec("binomial-logit", y=np.zeros(3), m=np.ones(3))
    assert lipschitz_bound(b) == 0.25
    A = np.diag([3.0, 3.0])
    g2 = LossSpec("gaussian", y=np.zeros(2), design=A)
    assert lipschitz_bound(g2) == pytest.approx(9.0, rel=1e-8)
    # near-tied top singular values: a power iteration's Rayleigh quotient
    # stops below the top eigenvalue, so the step 1/L would be too long
    A = np.array([[1.0, 0.0], [0.0, 1.0 - 1e-5], [0.0, 0.0]])
    g3 = LossSpec("gaussian", y=np.zeros(3), design=A)
    assert lipschitz_bound(g3) == pytest.approx(1.0, rel=1e-14)


def test_logit_hessian_never_exceeds_bound():
    rng = np.random.Generator(np.random.PCG64(17))
    n, d = 30, 5
    A = rng.normal(size=(n, d))
    m = rng.integers(1, 8, size=n).astype(float)
    y = np.minimum(rng.integers(0, 8, size=n).astype(float), m)
    spec = LossSpec("binomial-logit", y=y, m=m, design=A)
    L = lipschitz_bound(spec)
    for _ in range(20):
        beta = rng.normal(size=d)
        w = expit(A @ beta)
        H = A.T @ (A * (m * w * (1 - w))[:, None])
        top = np.linalg.eigvalsh(H)[-1]
        assert top <= L + 1e-8


def test_location_envelope_update():
    l = LossSpec("huber", y=np.array([3.0, 0.5, -2.0]))
    np.testing.assert_allclose(location_envelope_update(l, np.zeros(3)),
                               [2.0, 0.0, -1.0])
    with pytest.raises(CapabilityError):
        location_envelope_update(LossSpec("gaussian", y=np.zeros(2)),
                                 np.zeros(2))


def test_variance_mean_update():
    l = LossSpec("check", y=np.array([2.0, -2.0, 1e-12]), q=0.9)
    omega, z = variance_mean_update(l, np.zeros(3))
    np.testing.assert_allclose(omega[:2], [0.5, 0.5])
    assert omega[2] == 1e6
    # z = y - (1 - 2q)/omega = y + 0.8/omega
    assert z[0] == pytest.approx(2.0 + 1.6)
    assert z[1] == pytest.approx(-2.0 + 1.6)
    assert check_lambda_hat(-4.0) == pytest.approx(0.25)


def test_logit_scale_lambda():
    assert logit_scale_lambda(0.0, 1.0) == pytest.approx(0.25)
    assert logit_scale_lambda(1e-9, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert logit_scale_lambda(2.0, 1.0) == pytest.approx(0.25 * np.tanh(1.0))
    assert logit_scale_lambda(2.0, 4.0) == pytest.approx(np.tanh(1.0))


def test_logit_scale_lambda_equals_scale_derivative():
    # the closed-form update is the derivative of theta(z) =
    # m log cosh(sqrt(2z)/2) at z = x^2/2
    h = 1e-6
    for m in (1.0, 4.0):
        for x in (0.5, 1.7, 3.3):
            z = 0.5 * x**2
            fd = (logcosh(np.sqrt(2 * (z + h)), m)
                  - logcosh(np.sqrt(2 * (z - h)), m)) / (2 * h)
            assert logit_scale_lambda(x, m) == pytest.approx(fd, rel=1e-5)


def test_polya_gamma_quadratic_majorizes_logit_on_grid():
    # the quadratic (omega/2)(e - z)^2 of the update at beta0, shifted to
    # meet the loss at beta0, lies above the logit loss on a grid and
    # touches it at beta0 (per coordinate, the loss being separable)
    grid = np.linspace(-40.0, 40.0, 16001)
    steps = np.array([-1e-3, -1e-4, 1e-4, 1e-3])
    for m, y in ((1.0, 0.0), (1.0, 1.0), (25.0, 3.0), (25.0, 12.5), (7.0, 7.0)):
        beta0 = np.array([-30.0, -5.0, -1e-7, 0.0, 1e-7, 0.8, 3.0, 30.0])
        n = beta0.size
        loss = LossSpec("binomial-logit", y=np.full(n, y), m=np.full(n, m))
        omega, z = logit_scale_update(loss, beta0)
        np.testing.assert_array_equal(omega, logit_scale_lambda(beta0, m))

        def logit(e):
            return m * np.logaddexp(0.0, e) - y * e

        for b0, w, zi in zip(beta0, omega, z):
            def quad(e):
                return logit(b0) + 0.5 * w * ((e - zi) ** 2 - (b0 - zi) ** 2)

            pts = np.concatenate([grid, b0 + steps])
            gap = quad(pts) - logit(pts)
            slack = 1e-12 * np.maximum(1.0, np.abs(logit(pts)))
            assert np.all(gap >= -slack), (m, y, b0)
            # it touches at b0 with the loss's slope: the gap grows like
            # (omega/2) step^2 at most
            assert np.all(gap[-4:] <= 0.5 * w * steps**2 + slack[-4:]), (m, y, b0)
            assert quad(b0) == logit(b0)
    with pytest.raises(CapabilityError):
        logit_scale_update(LossSpec("huber", y=np.zeros(2)), np.zeros(2))


def test_huber_location_envelope_numeric_dual():
    # psi recovered numerically from the sup definition, then the
    # envelope must reproduce the loss
    from envopt.duality import _zoom_min

    def psi_numeric(lam):
        lam = np.asarray(lam, dtype=float)
        flat = lam.ravel()

        def couple(rows, t, huber_t):
            return 0.5 * (t - flat[rows, None]) ** 2 - huber_t

        vals, _, _ = _zoom_min(huber, couple, flat - 8.0, flat + 8.0, 201, 3)
        return -vals.reshape(lam.shape)

    xg = np.linspace(-5.0, 5.0, 101)
    report = check_envelope_identity(GAUSSIAN_LOCATION, psi_numeric,
                                     lambda x: huber(x), xg)
    assert report.max_gap <= 1e-6


@pytest.mark.parametrize("m", [1.0, 4.0])
def test_logcosh_envelopes(m):
    xg = np.linspace(-6.0, 6.0, 121)
    xg = xg[xg != 0]
    scale = check_envelope_identity(
        GAUSSIAN_SCALE, logcosh_scale_dual(m), lambda x: logcosh(x, m), xg,
        grid=GridSpec(0.0, 10.0, 241, 3))
    assert scale.max_gap <= 1e-6
    loc = check_envelope_identity(
        GAUSSIAN_LOCATION, logcosh_location_dual(m), lambda x: logcosh(x, m),
        np.linspace(-6.0, 6.0, 121), grid=GridSpec(-16.0, 16.0, 241, 3))
    assert loc.max_gap <= 1e-6


@pytest.mark.parametrize("m", [1.0, 4.0])
def test_logcosh_duals_match_grid_conjugate(m):
    # second oracle: each dual recomputed from its definition by a zoomed
    # grid search over x, never through the stationarity conditions
    from envopt.duality import _zoom_min

    def grid_inf(coupling, lam, lo, hi):
        vals, _, _ = _zoom_min(lambda x: logcosh(x, m),
                               lambda rows, x, lc: coupling(x, lam[rows, None]) - lc,
                               lo, hi, 201, 8)
        return vals

    # r = 4 lam/m on both sides of 1/6, where the Pade start takes over,
    # and within 1e-9 of 1, where the root tends to 0
    r_edge = np.array([1.0 / 6.0 * (1.0 - 1e-9), 1.0 / 6.0, 1.0 / 6.0 * (1.0 + 1e-9),
                       1.0 / 6.0 - 1e-3, 1.0 / 6.0 + 1e-3, 1.0 - 1e-9, 1.0 - 3e-10])
    lam_s = np.concatenate([[1e-6], 0.25 * m * np.linspace(0.01, 1.0, 34), 0.25 * m * r_edge,
                            0.25 * m * np.array([1.0 + 1e-9, 1.5, 2.0, 10.0])])
    # |lam| near 0, where the root at m = 4 is triple at lam = 0
    tiny = np.array([1e-300, 1e-12, 1e-6])
    lam_l = np.concatenate([np.linspace(-50.0, 50.0, 401), tiny, -tiny])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale = logcosh_scale_dual(m)(lam_s)
        scale_at_zero = logcosh_scale_dual(m)(0.0)
        loc = logcosh_location_dual(m)(lam_l)
    # the scale minimizer lies below m/(2 lam), since tanh(u) < 1
    oracle_s = grid_inf(lambda x, lam: 0.5 * lam * x**2, lam_s,
                        np.zeros_like(lam_s), np.maximum(m / (2.0 * lam_s), 4.0))
    oracle_l = -grid_inf(lambda x, lam: 0.5 * (x - lam) ** 2,
                         lam_l, lam_l - 0.5 * m - 1.0, lam_l + 0.5 * m + 1.0)
    assert scale_at_zero == -np.inf
    assert np.all(scale[lam_s >= 0.25 * m] == 0.0)
    for new, oracle in ((scale, oracle_s), (loc, oracle_l)):
        assert np.all(np.abs(new - oracle) <= 1e-11 * np.maximum(1.0, np.abs(oracle)))


@pytest.mark.parametrize("lam", [1e-309, 1e-305])
def test_logcosh_scale_dual_tiny_lam_is_finite_limit(lam):
    # m/(4 lam) overflows at lam = 1e-309; the root is u = m/(4 lam) to
    # the last bit and the dual its limit -m^2/(8 lam) + m log 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = logcosh_scale_dual(1.0)(lam)
    assert np.isfinite(val)
    assert val == pytest.approx(-1.0 / (8.0 * lam) + np.log(2.0), rel=1e-12)


def _logcosh_location_psi(lam, m):
    """psi(lam) at 800 digits: the root of x - |lam| = (m/2) tanh(x/2) by
    mpmath's Newton from the root's leading term, then
    m log cosh(x/2) - (x - lam)^2/2."""
    import mpmath

    with mpmath.workdps(800):
        lam, half = mpmath.mpf(lam), mpmath.mpf(m) / 2
        al = abs(lam)
        start = mpmath.cbrt(12 * al) if m == 4 else al / (1 - half / 2)
        x = mpmath.findroot(lambda x: x - al - half * mpmath.tanh(x / 2), start)
        x = mpmath.sign(lam) * x
        return m * mpmath.log(mpmath.cosh(x / 2)) - (x - lam) ** 2 / 2


@pytest.mark.parametrize("m", [1.0, 4.0])
@pytest.mark.parametrize("lam", [1e-300, -1e-300, 1e-320, 1e-12, -1e-12])
def test_logcosh_location_dual_tiny_lam(lam, m):
    # psi >= logcosh(lam, m) >= 0, where the direct form loses psi to rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = logcosh_location_dual(m)(lam)
    assert psi >= 0.0
    # within 1e-15, and to six digits where psi does not underflow
    err = abs(psi - float(_logcosh_location_psi(lam, m)))
    assert err <= 1e-15 and err <= 1e-6 * psi + 1e-300


def test_duals_reject_nan_lam():
    duals = (logcosh_scale_dual(1.0), logcosh_location_dual(4.0), check_variance_mean_dual(0.3))
    for dual in duals:
        for lam in (np.nan, np.array([0.1, np.nan])):
            with pytest.raises(ValidationError, match="NaN"):
                dual(lam)


def test_duals_at_infinite_and_subnormal_lam():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1.0, 4.0):
            loc = logcosh_location_dual(m)
            assert loc(np.inf) == np.inf and loc(-np.inf) == np.inf
            np.testing.assert_array_equal(loc(np.array([-np.inf, 0.0, np.inf])),
                                          [np.inf, 0.0, np.inf])
            assert logcosh_scale_dual(m)(np.inf) == 0.0
            assert logcosh_scale_dual(m)(-np.inf) == -np.inf
            # -m^2/(8 lam) is below -1.8e308 at a subnormal lam
            assert logcosh_scale_dual(m)(1e-320) == -np.inf
        for q in (0.1, 0.5):
            assert check_variance_mean_dual(q)(1e-320) == -np.inf


def test_logcosh_duals_reject_bad_m():
    for m in (0.0, -1.0, np.nan):
        with pytest.raises(ValidationError):
            logcosh_scale_dual(m)
    # the location root is unique only for 0 < m <= 4
    for m in (0.0, -1.0, 4.5, np.nan):
        with pytest.raises(ValidationError):
            logcosh_location_dual(m)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_check_loss_envelope(q):
    xg = np.linspace(-6.0, 6.0, 121)
    xg = xg[xg != 0]
    report = check_envelope_identity(
        variance_mean(1.0 - 2.0 * q), check_variance_mean_dual(q),
        lambda x: check_value(x, q), xg, lambda_hat=check_lambda_hat)
    assert report.max_gap <= 1e-6
    assert report.lambda_agrees


def test_huber_dual_is_absolute_value():
    psi = huber_location_dual(1.0)
    lam = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(psi(lam), np.abs(lam))


def test_logcosh_matches_mpmath():
    # the form u + log1p(e^{-2u}) - log 2 alone lost every digit below
    # |x| ~ 1e-8, where it rounds to a multiple of an ulp of log 2
    mpmath = pytest.importorskip("mpmath")
    x = np.geomspace(1e-12, 1e5, 300)
    x = np.concatenate([x, [1.999999, 2.0, 2.000001], -x])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.log(mpmath.cosh(mpmath.mpf(v) / 2))) for v in x])
    for m in (1.0, 4.0):
        assert np.max(np.abs(logcosh(x, m) - m * ref) / (m * ref)) <= 1e-15


def test_logcosh_location_dual_is_quiet_at_the_end_of_the_float_range():
    # the m = 4 root bound overflowed, and warned, above |lam| ~ 6e307;
    # psi ~ m |lam| / 2 itself passes the float range above |lam| ~ 9e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logcosh_location_dual(4.0)(np.array([1e308, -1e308])).tolist() == [np.inf] * 2
        assert logcosh_location_dual(4.0)(-7e307) == pytest.approx(1.4e308, rel=1e-15)
        assert logcosh_location_dual(1.0)(1e308) == pytest.approx(5e307, rel=1e-15)
