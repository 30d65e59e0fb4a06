"""Validation suites: envelope identities, conjugates, prox, solvers.

Each suite compares closed-form catalog quantities against independent
grid/brute-force/long-run oracles and returns a list of result dicts
``{name, value, tol, passed, ...}``.  The ``check`` CLI command and the
acceptance tests both run these.
"""

from __future__ import annotations

import numpy as np

from . import duality
from .duality import (
    EXPONENTIAL,
    GAUSSIAN_LOCATION,
    GAUSSIAN_SCALE,
    GridSpec,
    check_envelope_identity,
    conjugate_numeric,
    variance_mean,
)
from .errors import ValidationError
from .losses import (
    LossSpec,
    check_lambda_hat,
    check_value,
    check_variance_mean_dual,
    huber,
    huber_location_dual,
    logcosh,
    logcosh_location_dual,
    logcosh_scale_dual,
    logit_scale_lambda,
    loss_grad,
)
from .penalties import PenaltySpec, lambda_hat, penalty_dual, penalty_value, prox, scale_dual
from .solvers import (
    SolverConfig,
    proximal_gradient,
    trend_filter_kkt_residual,
    weighted_fused_lasso,
    weighted_trend_filter,
)

__all__ = [
    "envelope_catalog",
    "acceptance_x_grid",
    "envelope_suite",
    "conjugate_suite",
    "prox_suite",
    "solver_suite",
    "fused_lasso_dp_check",
    "trend_filter_kkt_check",
    "proximal_gradient_checks",
    "run_suite",
    "SUITES",
]


def acceptance_x_grid(n: int = 241, span: float = 6.0) -> np.ndarray:
    """Symmetric x grid on [-span, span] with the singular origin removed."""
    g = np.linspace(-span, span, n)
    return g[g != 0.0]


def envelope_catalog():
    """(name, family, dual, target, lambda_hat, grid count) for every
    member whose envelope identity has an independent closed-form target.

    The logcosh members use 241 grid points instead of 401: their duals
    are root solves, and at 401 points the float noise of the grid
    argmin (about 7e-8 at the m=4 location member) comes near the final
    spacing that the update-rule agreement is checked against.
    """
    entries = []

    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    entries.append((
        "double-pareto(g=1,a=1)/exponential", EXPONENTIAL,
        lambda lam: penalty_dual(dp, lam),
        lambda x: penalty_value(dp, x),
        lambda x: lambda_hat(dp, np.abs(x), EXPONENTIAL),
        401,
    ))

    mcp = PenaltySpec("mcp", gamma=1.0, a=3.0)
    entries.append((
        "mcp(g=1,a=3)/exponential", EXPONENTIAL,
        lambda lam: penalty_dual(mcp, lam),
        lambda x: penalty_value(mcp, x),
        lambda x: lambda_hat(mcp, np.abs(x), EXPONENTIAL),
        401,
    ))

    l1 = PenaltySpec("l1", weight=1.0)
    entries.append((
        "l1(w=1)/exponential", EXPONENTIAL,
        lambda lam: penalty_dual(l1, lam),
        lambda x: penalty_value(l1, x),
        lambda x: lambda_hat(l1, np.abs(x), EXPONENTIAL),
        401,
    ))

    ridge = PenaltySpec("ridge", weight=1.0)
    entries.append((
        "ridge(w=1)/gaussian-scale", GAUSSIAN_SCALE,
        scale_dual(ridge),
        lambda x: penalty_value(ridge, x),
        lambda x: lambda_hat(ridge, x, GAUSSIAN_SCALE),
        401,
    ))

    entries.append((
        "huber(delta=1)/gaussian-location", GAUSSIAN_LOCATION,
        huber_location_dual(1.0),
        lambda x: huber(x, 1.0),
        lambda x: np.asarray(x) - np.clip(np.asarray(x), -1.0, 1.0),
        401,
    ))

    lt = PenaltySpec("limited-translation")
    from .penalties import location_dual
    entries.append((
        "limited-translation/gaussian-location", GAUSSIAN_LOCATION,
        location_dual(lt),
        lambda x: penalty_value(lt, x),
        lambda x: np.where(np.abs(np.asarray(x, dtype=float)) < np.sqrt(2.0),
                           0.0, np.asarray(x, dtype=float)),
        401,
    ))

    for m in (1, 4):
        entries.append((
            f"logcosh(m={m})/gaussian-scale", GAUSSIAN_SCALE,
            logcosh_scale_dual(m),
            lambda x, m=m: logcosh(x, m),
            lambda x, m=m: logit_scale_lambda(x, m),
            241,
        ))
        entries.append((
            f"logcosh(m={m})/gaussian-location", GAUSSIAN_LOCATION,
            logcosh_location_dual(m),
            lambda x, m=m: logcosh(x, m),
            lambda x, m=m: np.asarray(x, dtype=float)
            - 0.5 * m * np.tanh(0.5 * np.asarray(x, dtype=float)),
            241,
        ))

    for q in (0.1, 0.5, 0.9):
        entries.append((
            f"check(q={q})/variance-mean", variance_mean(1.0 - 2.0 * q),
            check_variance_mean_dual(q),
            lambda x, q=q: check_value(x, q),
            check_lambda_hat,
            401,
        ))
    return entries


def envelope_suite(tol: float = 1e-6):
    results = []
    x_grid = acceptance_x_grid()
    for name, family, dual, target, lam_hat, count in envelope_catalog():
        grid = duality.default_lambda_grid(family, x_grid, lam_hat, count=count)
        report = check_envelope_identity(family, dual, target, x_grid,
                                         grid=grid, lambda_hat=lam_hat)
        results.append({
            "name": name,
            "max_gap": report.max_gap,
            "worst_x": report.worst_x,
            "lambda_agrees": report.lambda_agrees,
            "max_lambda_dev": report.max_lambda_dev,
            "final_spacing": report.final_spacing,
            "tol": tol,
            "passed": report.max_gap <= tol and bool(report.lambda_agrees),
        })
    return results


def conjugate_suite(tol: float = 1e-6):
    """Closed-form duals vs the grid conjugate; double conjugation."""
    results = []

    # double-Pareto: gamma*log(lam) - lam*a + C on (0, gamma/a], 0 beyond.
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    lams = np.linspace(0.01, 2.0 * dp.gamma, 200)
    closed = penalty_dual(dp, lams)
    numeric = conjugate_numeric(lambda x: penalty_value(dp, x), lams,
                                GridSpec(0.0, 250.0, 801, 3), sense="concave")
    err = float(np.max(np.abs(closed - numeric)))
    results.append({"name": "double-pareto dual vs grid (lam in [0.01, 2g])",
                    "max_gap": err, "tol": tol, "passed": err <= tol})

    # MCP: -(a/2)(lam-gamma)^2 on [0, gamma], 0 beyond.
    mcp = PenaltySpec("mcp", gamma=1.0, a=3.0)
    lams = np.linspace(0.0, 2.0 * mcp.gamma, 201)
    closed = penalty_dual(mcp, lams)
    numeric = conjugate_numeric(lambda x: penalty_value(mcp, x), lams,
                                GridSpec(0.0, 40.0, 801, 3), sense="concave")
    err = float(np.max(np.abs(closed - numeric)))
    results.append({"name": "mcp corrected dual vs grid (lam in [0, 2g])",
                    "max_gap": err, "tol": tol, "passed": err <= tol})

    # Fenchel double conjugation for the location-family catalog:
    # theta(x) = x^2/2 - phi(x) is closed convex; theta** == theta.
    def theta_huber(x):
        return 0.5 * np.asarray(x, dtype=float) ** 2 - huber(x, 1.0)

    lt = PenaltySpec("limited-translation")

    def theta_lt(x):
        return 0.5 * np.asarray(x, dtype=float) ** 2 - penalty_value(lt, x)

    members = [("huber", theta_huber), ("limited-translation", theta_lt)]
    for m in (1, 4):
        members.append((f"logcosh(m={m})",
                        lambda x, m=m: 0.5 * np.asarray(x, dtype=float) ** 2
                        - logcosh(x, m)))
    x_test = np.linspace(-3.0, 3.0, 25)
    for name, theta in members:
        # smooth interior extrema: modest grids already give second-order
        # accuracy far below the 1e-5 tolerance
        inner = GridSpec(-14.0, 14.0, 201, 3)
        outer = GridSpec(-8.0, 8.0, 201, 3)

        def theta_star(lam, theta=theta, inner=inner):
            lam = np.asarray(lam, dtype=float)
            if lam.ndim == 2 and lam.shape[0] > 1 and (lam == lam[0]).all():
                row = conjugate_numeric(theta, lam[0], inner, sense="convex")
                return np.broadcast_to(row, lam.shape)
            return conjugate_numeric(theta, lam, inner, sense="convex")

        twice = conjugate_numeric(theta_star, x_test, outer, sense="convex")
        err = float(np.max(np.abs(twice - theta(x_test))))
        results.append({"name": f"double conjugation: {name}",
                        "max_gap": err, "tol": 1e-5, "passed": err <= 1e-5})
    return results


def _prox_oracle(p: PenaltySpec, u: float, s: float):
    """Brute-force grid argmin of (s/2)(x-u)^2 + phi(x)."""
    lo = np.array([-abs(u) - 5.0])
    hi = np.array([abs(u) + 5.0])

    def values_at(x):
        return 0.5 * s * (x - u) ** 2 + penalty_value(p, x)

    vals, args, _ = duality._refined_min(values_at, lo, hi, 5000, 3)
    return float(args[0]), float(vals[0])


def prox_suite(n_draws: int = 200, seed: int = 20240613):
    """Randomized prox evaluations vs the brute-force oracle.

    A draw passes when the argument agrees within 1e-4 or the objective
    within 1e-8 (covers nonconvex ties).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    kinds = ("l1", "ridge", "double-pareto", "mcp", "limited-translation")
    worst_arg = 0.0
    worst_obj = 0.0
    failures = 0
    for i in range(n_draws):
        kind = kinds[int(rng.integers(len(kinds)))]
        u = float(rng.uniform(-8.0, 8.0))
        s = float(rng.uniform(0.1, 5.0))
        p = PenaltySpec(kind, gamma=float(rng.uniform(0.2, 3.0)),
                        a=float(rng.uniform(0.3, 4.0)),
                        weight=float(rng.uniform(0.2, 3.0)))
        x_hat = prox(p, u, s)
        x_star, f_star = _prox_oracle(p, u, s)
        f_hat = 0.5 * s * (x_hat - u) ** 2 + penalty_value(p, x_hat)
        arg_err = abs(x_hat - x_star)
        obj_err = abs(f_hat - f_star)
        ok = arg_err <= 1e-4 or obj_err <= 1e-8
        # the oracle objective may exceed the closed form's (grid slack),
        # but must never beat it beyond tolerance
        if f_hat > f_star + 1e-8:
            ok = False
        if not ok:
            failures += 1
        worst_arg = max(worst_arg, min(arg_err, 1e9))
        worst_obj = max(worst_obj, obj_err if arg_err > 1e-4 else 0.0)
    return [{"name": f"prox vs grid oracle ({n_draws} draws)",
             "failures": failures, "max_gap": worst_obj, "tol": 1e-8,
             "passed": failures == 0}]


def fused_lasso_dp_check(rng, n_instances: int) -> dict:
    """Fused-lasso DP vs a long-run ADMM reference (the k = 0 trend filter)."""
    worst = 0.0
    ref_cfg = SolverConfig(inner_max_iters=100_000, inner_tol=1e-13)
    for _ in range(n_instances):
        n = int(rng.integers(2, 51))
        z = rng.normal(0.0, 2.0, size=n)
        omega = rng.uniform(0.2, 3.0, size=n)
        u = rng.uniform(0.0, 2.0, size=n - 1)
        beta_dp = weighted_fused_lasso(z, omega, u)
        beta_admm = weighted_trend_filter(z, omega, 0, u, cfg=ref_cfg)
        worst = max(worst, float(np.max(np.abs(beta_dp - beta_admm))))
    return {"name": f"fused-lasso DP vs long-run ADMM ({n_instances})",
            "max_gap": worst, "tol": 1e-6, "passed": worst <= 1e-6}


def trend_filter_kkt_check(rng) -> dict:
    """Trend-filter KKT residuals, five random instances each of k = 1, 2."""
    worst_kkt = 0.0
    kkt_cfg = SolverConfig(inner_max_iters=50_000, inner_tol=1e-11)
    for k in (1, 2):
        for _ in range(5):
            n = int(rng.integers(k + 5, 60))
            z = rng.normal(0.0, 1.0, size=n)
            lam = float(rng.uniform(0.2, 3.0))
            beta = weighted_trend_filter(z, np.ones(n), k, lam, cfg=kkt_cfg)
            worst_kkt = max(worst_kkt,
                            trend_filter_kkt_residual(beta, z, np.ones(n), k, lam))
    return {"name": "trend-filter KKT residual (k in {1,2})",
            "max_gap": worst_kkt, "tol": 1e-6, "passed": worst_kkt <= 1e-6}


def proximal_gradient_checks(rng, n_instances: int) -> list:
    """Proximal-gradient lasso fits vs a long-run oracle, and their fixed points."""
    worst_obj = 0.0
    worst_fix = 0.0
    tight = SolverConfig(max_iters=20_000, tol=1e-16)
    oracle_cfg = SolverConfig(max_iters=100_000, tol=1e-16)
    for _ in range(n_instances):
        A = rng.normal(size=(20, 10))
        yv = rng.normal(size=20)
        loss = LossSpec("gaussian", y=yv, design=A)
        pen = PenaltySpec("l1", weight=float(rng.uniform(0.5, 3.0)))
        fit = proximal_gradient(loss, pen, np.zeros(10), tight)
        ref = proximal_gradient(loss, pen, np.zeros(10), oracle_cfg)
        worst_obj = max(worst_obj, abs(fit.objective - ref.objective))
        a = fit.aux["step"]
        fp = prox(pen, fit.beta - a * loss_grad(loss, fit.beta), 1.0 / a)
        worst_fix = max(worst_fix, float(np.max(np.abs(fp - fit.beta))))
    return [{"name": f"proximal gradient vs long-run oracle ({n_instances})",
             "max_gap": worst_obj, "tol": 1e-6, "passed": worst_obj <= 1e-6},
            {"name": "proximal gradient fixed-point residual",
             "max_gap": worst_fix, "tol": 1e-8, "passed": worst_fix <= 1e-8}]


def solver_suite(n_instances: int = 50, seed: int = 77):
    """Structured-solver cross checks: the three checks above on one generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [fused_lasso_dp_check(rng, n_instances), trend_filter_kkt_check(rng),
            *proximal_gradient_checks(rng, 5)]


SUITES = {
    "envelope": envelope_suite,
    "conjugate": conjugate_suite,
    "prox": prox_suite,
    "solver": solver_suite,
}


def run_suite(name: str, tol: float | None = None):
    """Run one suite (or 'all'); returns the flat result list."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, tol))
        return out
    if name not in SUITES:
        raise ValidationError(f"unknown check suite {name!r}")
    fn = SUITES[name]
    if name in ("envelope", "conjugate") and tol is not None:
        return fn(tol=tol)
    return fn()
