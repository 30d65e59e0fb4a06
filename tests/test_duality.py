import numpy as np
import pytest

from envopt.duality import (
    EXPONENTIAL,
    GAUSSIAN_LOCATION,
    EnvelopeFamily,
    GridSpec,
    check_envelope_identity,
    conjugate_numeric,
    envelope_argmin_numeric,
    envelope_integrand,
    variance_mean,
)
from envopt.errors import ValidationError
from envopt.losses import (
    check_variance_mean_dual,
    huber,
    huber_location_dual,
    logcosh_scale_dual,
)
from envopt.penalties import PenaltySpec, location_dual, penalty_dual, penalty_value


def test_family_invariants():
    with pytest.raises(ValidationError):
        EnvelopeFamily("exponential", drift=1.0)
    with pytest.raises(ValidationError):
        EnvelopeFamily("variance-mean")  # drift required
    with pytest.raises(ValidationError):
        EnvelopeFamily("multivariate-location", step=-1.0)
    with pytest.raises(ValidationError):
        EnvelopeFamily("nonsense")


def test_gridspec_invariants():
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, count=2)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, refinement_rounds=-1)


def test_integrand_exponential_absolute_value():
    # phi = |.| has zero dual on its effective domain; at lam=1, x=2 the
    # joint term is lam*|x| = 2
    val = envelope_integrand(EXPONENTIAL, lambda lam: 0.0 * lam, 2.0, 1.0)
    assert val == 2.0


def test_integrand_location_zero_case():
    psi = huber_location_dual(1.0)
    assert envelope_integrand(GAUSSIAN_LOCATION, psi, 0.0, 0.0) == 0.0


def test_integrand_variance_mean_quantile():
    # q=0.9 so drift = -0.8; at x=1, lam=1 the coupling term is
    # 0.5*(1.8)^2 = 1.62 and psi(1) = (0.64-1)/2 = -0.18
    fam = variance_mean(-0.8)
    psi = check_variance_mean_dual(0.9)
    val = envelope_integrand(fam, psi, 1.0, 1.0)
    assert val == pytest.approx(1.80, abs=1e-12)
    # and the infimum over lam reproduces |x| + (2q-1)x
    lam_grid = np.linspace(1e-6, 50.0, 200001)
    integ = 0.5 * lam_grid * (1.0 - (-0.8) / lam_grid) ** 2 - psi(lam_grid)
    assert integ.min() == pytest.approx(1.80, abs=1e-9)


def test_integrand_rejects_negative_lambda():
    with pytest.raises(ValidationError):
        envelope_integrand(EXPONENTIAL, lambda lam: 0.0 * lam, 1.0, -0.5)


def test_conjugate_half_square_self_conjugate():
    grid = GridSpec(-10.0, 10.0, 401, 3)
    val = conjugate_numeric(lambda x: 0.5 * x**2, 1.0, grid, sense="convex")
    assert val == pytest.approx(0.5, abs=1e-9)


def test_conjugate_double_pareto_concave():
    # stationarity x = gamma/lam - a gives gamma*log(lam) - lam*a + C with
    # C = gamma - gamma*log(gamma) + gamma*log(a); frozen via the dense
    # brute-force oracle below
    xs = np.linspace(0.0, 60.0, 1_200_001)
    brute = float(np.min(0.5 * xs - np.log1p(xs)))
    expected = np.log(0.5) - 0.5 + 1.0
    assert brute == pytest.approx(expected, abs=1e-9)
    grid = GridSpec(0.0, 60.0, 801, 3)
    val = conjugate_numeric(lambda x: np.log1p(np.abs(x)), 0.5, grid,
                            sense="concave")
    assert val == pytest.approx(expected, abs=1e-9)


def test_conjugate_mcp_concave():
    p = PenaltySpec("mcp", gamma=1.0, a=3.0)
    grid = GridSpec(0.0, 40.0, 801, 3)
    val = conjugate_numeric(lambda x: penalty_value(p, x), 0.5, grid,
                            sense="concave")
    assert val == pytest.approx(-0.375, abs=1e-9)


def test_argmin_double_pareto_matches_derivative():
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    grid = GridSpec(0.0, 10.0, 401, 3)
    lam = envelope_argmin_numeric(EXPONENTIAL, lambda t: penalty_dual(dp, t),
                                  1.0, grid)
    assert lam == pytest.approx(0.5, abs=1e-6)


def test_argmin_huber_location():
    grid = GridSpec(-10.0, 10.0, 401, 3)
    lam = envelope_argmin_numeric(GAUSSIAN_LOCATION, huber_location_dual(1.0),
                                  3.0, grid)
    assert lam == pytest.approx(2.0, abs=1e-6)


def test_argmin_logcosh_scale():
    dual = logcosh_scale_dual(1.0)
    grid = GridSpec(0.0, 10.0, 401, 3)
    lam = envelope_argmin_numeric(EnvelopeFamily("gaussian-scale"), dual, 2.0,
                                  grid)
    assert lam == pytest.approx(0.25 * np.tanh(1.0), abs=1e-5)


def test_check_identity_limited_translation():
    lt = PenaltySpec("limited-translation")
    report = check_envelope_identity(
        GAUSSIAN_LOCATION, location_dual(lt),
        lambda x: penalty_value(lt, x), np.linspace(-3.0, 3.0, 121))
    assert report.max_gap <= 1e-6


def test_check_identity_l1_exact():
    l1 = PenaltySpec("l1", weight=1.0)
    x_grid = np.linspace(-4.0, 4.0, 81)
    x_grid = x_grid[x_grid != 0]
    report = check_envelope_identity(
        EXPONENTIAL, lambda lam: penalty_dual(l1, lam),
        lambda x: penalty_value(l1, x), x_grid,
        lambda_hat=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert report.max_gap <= 1e-12
    assert report.lambda_agrees


def test_check_identity_check_loss():
    q = 0.9
    fam = variance_mean(1.0 - 2.0 * q)
    x_grid = np.linspace(-3.0, 3.0, 61)
    x_grid = x_grid[x_grid != 0]
    from envopt.losses import check_lambda_hat, check_value
    report = check_envelope_identity(
        fam, check_variance_mean_dual(q), lambda x: check_value(x, q),
        x_grid, lambda_hat=check_lambda_hat)
    assert report.max_gap <= 1e-6
    assert report.lambda_agrees


def test_multivariate_location_integrand():
    # with f = 0.5||x||^2 (L = 1, c = 1) the dual is psi(lam) =
    # theta*(lam) - ||lam||^2/2 with theta = 0, i.e. the indicator of 0;
    # encode psi via its finite branch at lam fixed
    fam = EnvelopeFamily("multivariate-location", step=1.0)
    x = np.array([1.0, 2.0])
    lam = np.array([0.5, 0.5])
    val = envelope_integrand(fam, lambda v: 0.0, x, lam)
    assert val == pytest.approx(0.5 * ((0.5) ** 2 + (1.5) ** 2))


def test_oracle_determinism():
    grid = GridSpec(0.0, 20.0, 301, 3)
    lam = np.linspace(0.1, 3.0, 17)
    a = conjugate_numeric(lambda x: huber(x), lam, grid, sense="convex")
    b = conjugate_numeric(lambda x: huber(x), lam, grid, sense="convex")
    assert np.array_equal(a, b)
    lt = PenaltySpec("limited-translation")
    xg = np.linspace(-2.0, 2.0, 41)
    r1 = check_envelope_identity(GAUSSIAN_LOCATION, location_dual(lt),
                                 lambda x: penalty_value(lt, x), xg)
    r2 = check_envelope_identity(GAUSSIAN_LOCATION, location_dual(lt),
                                 lambda x: penalty_value(lt, x), xg)
    assert r1 == r2


def test_row_blocks_do_not_change_results(monkeypatch):
    """The grid oracles split their rows into blocks; one block of all rows
    must give the same bits."""
    from envopt import duality
    from envopt.checks import acceptance_x_grid, envelope_catalog

    lam = np.linspace(0.01, 2.0, 200)
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    x_grid = acceptance_x_grid()

    def run():
        conj = conjugate_numeric(lambda x: penalty_value(dp, x), lam,
                                 GridSpec(0.0, 250.0, 801, 3), sense="concave")
        reports = []
        for _, family, dual, target, lam_hat, count in envelope_catalog():
            grid = duality.default_lambda_grid(family, x_grid, lam_hat, count=count)
            reports.append(check_envelope_identity(family, dual, target, x_grid,
                                                   grid=grid, lambda_hat=lam_hat))
        return conj, reports

    conj, reports = run()
    assert 200 * 801 > duality._BLOCK_ELEMS and 240 * 241 > duality._BLOCK_ELEMS
    monkeypatch.setattr(duality, "_BLOCK_ELEMS", 10**9)
    conj_whole, reports_whole = run()
    assert np.array_equal(conj, conj_whole)
    assert reports == reports_whole
