"""Tests of the benchmark's own oracles.

Run from the root of a checkout:  python3 -m pytest perfbench/test_oracles.py -q
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from workloads import CERT_TOL, QRTF_GAP  # noqa: E402


def brute_force_quantile_poly(y, q, degree):
    """Best polynomial fit under the check loss, by enumeration.

    Some optimal quantile-regression fit interpolates ``degree + 1`` data
    points, so the minimum over all such interpolants is the optimum.
    """
    n = len(y)
    X = np.vander(np.arange(n, dtype=float), degree + 1)
    best = np.inf
    for rows in itertools.combinations(range(n), degree + 1):
        theta = np.linalg.solve(X[list(rows)], y[list(rows)])
        r = y - X @ theta
        best = min(best, float(np.sum(np.abs(r) + (2 * q - 1) * r)))
    return best


def test_lp_at_zero_penalty_interpolates():
    y = np.random.default_rng(0).normal(size=40)
    opt, beta = oracles.qrtf_lp(y, 0.9, 2, 0.0)
    assert abs(opt) <= 1e-9
    np.testing.assert_allclose(beta, y, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2])
def test_lp_at_large_penalty_is_polynomial_quantile_fit(k):
    rng = np.random.default_rng(k)
    y = np.sin(np.linspace(0.0, 3.0, 22)) + rng.standard_t(3, size=22)
    opt, beta = oracles.qrtf_lp(y, 0.75, k, 1e5)
    assert np.max(np.abs(oracles.diff_operator(22, k + 1) @ beta)) <= 1e-7
    assert abs(opt - brute_force_quantile_poly(y, 0.75, k)) <= 1e-6 * abs(opt)


def test_lp_optimum_is_the_objective_of_its_solution():
    y = np.random.default_rng(3).normal(size=60).cumsum()
    opt, beta = oracles.qrtf_lp(y, 0.3, 1, 2.0)
    assert oracles.objective_matches(oracles.qrtf_objective(y, beta, 0.3, 1, 2.0), opt,
                                     rtol=1e-8)


def test_two_point_fused_lasso_certificate():
    y = np.array([0.0, 1.0])
    for lam, beta in [(0.2, [0.2, 0.8]), (0.7, [0.5, 0.5])]:
        beta = np.asarray(beta)
        assert oracles.gaussian_fl_certificate(y, beta, lam) <= 1e-12
        assert oracles.gaussian_fl_certificate(y, beta + [0.05, 0.0], lam) > 1e-2


def test_weighted_mean_certifies_at_large_penalty():
    rng = np.random.default_rng(5)
    z, w = rng.normal(size=50), rng.uniform(0.2, 3.0, size=50)
    lam = 1e3
    mean = np.full(50, np.sum(w * z) / np.sum(w))
    assert oracles.fused_certificate(w * (z - mean), mean, lam) / lam <= 1e-12
    off = mean + 0.1
    assert oracles.fused_certificate(w * (z - off), off, lam) / lam > 1e-3


def test_objectives_follow_their_definitions():
    y = np.array([0.0, 3.0, 1.0])
    beta = np.array([0.5, 0.5, 1.0])
    assert oracles.rfl_objective(y, beta, 2.0) == pytest.approx(0.125 + 2.0 + 0.0 + 1.0)
    assert oracles.gaussian_fl_objective(y, beta, 2.0) == pytest.approx(0.125 + 3.125 + 1.0)
    m = np.array([4.0, 4.0, 4.0])
    nll = np.sum(m * np.log1p(np.exp(beta)) - y * beta)
    assert oracles.fdp_objective(y, m, beta, 2.0, 1.0) == pytest.approx(nll + 2.0 * np.log(1.5))
    r = y - beta
    check = np.sum(np.abs(r) + 0.8 * r)
    assert oracles.qrtf_objective(y, beta, 0.9, 0, 2.0) == pytest.approx(check + 1.0)


# -- fits made through envopt's public API -------------------------------------


def test_rfl_certificate_flags_a_loosened_fit():
    from envopt.applications import fit_rfl, simulate
    from envopt.solvers import SolverConfig
    y = simulate("rfl", 250, 1).y
    for lam in (1.0, 20.0):
        fit = fit_rfl(y, lam)
        assert oracles.rfl_certificate(y, fit.beta, lam) <= CERT_TOL
        assert oracles.objective_matches(fit.objective, oracles.rfl_objective(y, fit.beta, lam))
        loose = fit_rfl(y, lam, cfg=SolverConfig(max_iters=2))
        assert oracles.rfl_certificate(y, loose.beta, lam) > CERT_TOL


def test_fdp_certificate_flags_a_loosened_fit():
    from envopt.applications import fit_fdp, simulate
    from envopt.solvers import SolverConfig
    d = simulate("fdp", 500, 1, m=25)
    fit = fit_fdp(d.y, d.m, 12.0)
    assert oracles.fdp_certificate(d.y, d.m, fit.beta, 12.0, 1.0) <= CERT_TOL
    assert oracles.non_increasing(fit.trace)
    loose = fit_fdp(d.y, d.m, 12.0, cfg=SolverConfig(max_iters=2))
    assert oracles.fdp_certificate(d.y, d.m, loose.beta, 12.0, 1.0) > CERT_TOL


def test_lp_gap_flags_a_loosened_qrtf_fit():
    from envopt.applications import fit_qrtf, simulate
    from envopt.solvers import SolverConfig
    y = simulate("qrtf", 200, 7).y
    loose = fit_qrtf(y, 0.9, 2, 10.0, cfg=SolverConfig(max_iters=2, inner_max_iters=50))
    opt, _ = oracles.qrtf_lp(y, 0.9, 2, 10.0)
    assert oracles.objective_matches(loose.objective,
                                     oracles.qrtf_objective(y, loose.beta, 0.9, 2, 10.0),
                                     rtol=1e-9)
    assert oracles.relative_gap(loose.objective, opt) > QRTF_GAP
