"""Validation suites: envelope identities, conjugates, prox, solvers.

Each suite compares closed-form catalog quantities against independent
grid, brute-force and exact oracles and returns a list of result dicts
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


def envelope_suite():
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
            "tol": 1e-6,
            "passed": report.max_gap <= 1e-6 and bool(report.lambda_agrees),
        })
    return results


def _discrete_conjugate(x, y):
    """The discrete Legendre transform of the samples ``(x_i, y_i)``, ``x``
    increasing: ``s -> max_i (s*x_i - y_i)``, the conjugate of the
    samples' lower convex hull (Lucet 1997, Numer. Algorithms 16).  Hull
    vertex k attains the max for the slopes ``s`` between the slopes of
    its two edges, so ``np.searchsorted`` on the edge slopes finds it."""
    hx, hy = [], []
    for xi, yi in zip(x.tolist(), y.tolist()):
        # drop the last vertex while it lies on or above the chord to (xi, yi)
        while len(hx) > 1 and ((hy[-1] - hy[-2]) * (xi - hx[-2])
                               >= (yi - hy[-2]) * (hx[-1] - hx[-2])):
            hx.pop()
            hy.pop()
        hx.append(xi)
        hy.append(yi)
    hx, hy = np.array(hx), np.array(hy)
    slopes = np.diff(hy) / np.diff(hx)

    def conjugate(s):
        k = np.searchsorted(slopes, s)
        return s * hx[k] - hy[k]

    return conjugate


# theta = x^2/2 - phi is sampled with step 0.01, so the 25 test points
# are among the samples
_THETA_SAMPLES = np.linspace(-14.0, 14.0, 2801)
_DOUBLE_CONJUGATION_POINTS = np.linspace(-3.0, 3.0, 25)


def _double_conjugation_gap(phi):
    """The largest ``|theta**(x) - theta(x)|`` over the test points, for
    ``theta(x) = x^2/2 - phi(x)``: ``theta*`` is the discrete Legendre
    transform of theta's samples, and ``theta**`` its grid conjugate over
    ``[-8, 8]``.  ``theta**`` is the samples' convex hull, so the gap is
    rounding when theta is convex (Fenchel-Moreau), and the hull's depth
    below theta where it is not."""
    samples = _THETA_SAMPLES
    theta_star = _discrete_conjugate(samples, 0.5 * samples**2 - phi(samples))
    x = _DOUBLE_CONJUGATION_POINTS
    twice = conjugate_numeric(theta_star, x, GridSpec(-8.0, 8.0, 201, 3), sense="convex")
    return float(np.max(np.abs(twice - (0.5 * x**2 - phi(x)))))


def conjugate_suite():
    """Closed-form duals vs the grid conjugate; double conjugation.

    The double-conjugation rows test Fenchel-Moreau on the location
    catalog: ``theta(x) = x^2/2 - phi(x)`` is closed convex, so
    ``theta** == theta`` (:func:`_double_conjugation_gap`).
    """
    results = []
    # double-Pareto: gamma*log(lam) - lam*a + C on (0, gamma/a], 0 beyond;
    # MCP: -(a/2)(lam-gamma)^2 on [0, gamma], 0 beyond (gamma = 1 both)
    for name, p, lams, hi in [
            ("double-pareto dual vs grid (lam in [0.01, 2g])",
             PenaltySpec("double-pareto", gamma=1.0, a=1.0), np.linspace(0.01, 2.0, 200), 250.0),
            ("mcp corrected dual vs grid (lam in [0, 2g])",
             PenaltySpec("mcp", gamma=1.0, a=3.0), np.linspace(0.0, 2.0, 201), 40.0)]:
        numeric = conjugate_numeric(lambda x: penalty_value(p, x), lams,
                                    GridSpec(0.0, hi, 801, 3), sense="concave")
        err = float(np.max(np.abs(penalty_dual(p, lams) - numeric)))
        results.append({"name": name, "max_gap": err, "tol": 1e-6, "passed": err <= 1e-6})

    lt = PenaltySpec("limited-translation")
    phis = [("huber", lambda x: huber(x, 1.0)),
            ("limited-translation", lambda x: penalty_value(lt, x)),
            *[(f"logcosh(m={m})", lambda x, m=m: logcosh(x, m)) for m in (1, 4)]]
    for name, phi in phis:
        err = _double_conjugation_gap(phi)
        results.append({"name": f"double conjugation: {name}",
                        "max_gap": err, "tol": 1e-5, "passed": err <= 1e-5})
    return results


def _prox_draws():
    """The prox suite's 200 random ``(penalty, u, s)`` draws."""
    rng = np.random.Generator(np.random.PCG64(20240613))
    kinds = ("l1", "ridge", "double-pareto", "mcp", "limited-translation")
    draws = []
    for _ in range(200):
        kind = kinds[int(rng.integers(len(kinds)))]
        u = float(rng.uniform(-8.0, 8.0))
        s = float(rng.uniform(0.1, 5.0))
        p = PenaltySpec(kind, gamma=float(rng.uniform(0.2, 3.0)),
                        a=float(rng.uniform(0.3, 4.0)),
                        weight=float(rng.uniform(0.2, 3.0)))
        draws.append((p, u, s))
    return draws


def _prox_oracle(draws):
    """Brute-force grid argmins and minima of (s/2)(x-u)^2 + phi(x), one
    row per draw ``(p, u, s)`` over ``[-|u| - 5, |u| + 5]``, in one
    search whose term holds each row's own penalty."""
    pens = [p for p, _, _ in draws]
    u = np.array([u for _, u, _ in draws])
    half_s = 0.5 * np.array([s for _, _, s in draws])

    def term(rows, x, _):
        out = half_s[rows, None] * (u[rows, None] - x) ** 2
        for at, row in enumerate(rows):
            out[at] += penalty_value(pens[row], x[at % x.shape[0]])  # x may be one shared row
        return out

    vals, args, _ = duality._zoom_min(np.zeros_like, term, -np.abs(u) - 5.0, np.abs(u) + 5.0,
                                      5000, 3)
    return args, vals


def prox_suite():
    """Randomized prox evaluations vs the brute-force oracle.

    A draw passes when the argument agrees within 1e-4 or the objective
    within 1e-8 (covers nonconvex ties).
    """
    draws = _prox_draws()
    x_star, f_star = _prox_oracle(draws)
    worst_arg = 0.0
    worst_obj = 0.0
    failures = 0
    for (p, u, s), xs, fs in zip(draws, x_star.tolist(), f_star.tolist()):
        x_hat = prox(p, u, s)
        f_hat = 0.5 * s * (x_hat - u) ** 2 + penalty_value(p, x_hat)
        arg_err = abs(x_hat - xs)
        obj_err = abs(f_hat - fs)
        ok = arg_err <= 1e-4 or obj_err <= 1e-8
        # the oracle objective may exceed the closed form's (grid slack),
        # but must never beat it beyond tolerance
        if f_hat > fs + 1e-8:
            ok = False
        if not ok:
            failures += 1
        worst_arg = max(worst_arg, min(arg_err, 1e9))
        worst_obj = max(worst_obj, obj_err if arg_err > 1e-4 else 0.0)
    return [{"name": f"prox vs grid oracle ({len(draws)} draws)",
             "failures": failures, "max_gap": worst_obj, "max_arg_gap": worst_arg,
             "tol": 1e-8, "passed": failures == 0}]


def fused_lasso_dp_check(rng, n_instances: int) -> dict:
    """Fused-lasso DP vs the exact trend filter at k = 0 (the dual
    active-set solve of the same problem)."""
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 51))
        z = rng.normal(0.0, 2.0, size=n)
        omega = rng.uniform(0.2, 3.0, size=n)
        u = rng.uniform(0.0, 2.0, size=n - 1)
        beta_dp = weighted_fused_lasso(z, omega, u)
        beta_tf = weighted_trend_filter(z, omega, 0, u)
        worst = max(worst, float(np.max(np.abs(beta_dp - beta_tf))))
    return {"name": f"fused-lasso DP vs exact trend filter at k=0 ({n_instances})",
            "max_gap": worst, "tol": 1e-6, "passed": worst <= 1e-6}


def trend_filter_kkt_check(rng) -> dict:
    """Trend-filter KKT residuals, five random instances each of k = 1, 2."""
    worst_kkt = 0.0
    for k in (1, 2):
        for _ in range(5):
            n = int(rng.integers(k + 5, 60))
            z = rng.normal(0.0, 1.0, size=n)
            lam = float(rng.uniform(0.2, 3.0))
            beta = weighted_trend_filter(z, np.ones(n), k, lam)
            worst_kkt = max(worst_kkt,
                            trend_filter_kkt_residual(beta, z, np.ones(n), k, lam))
    return {"name": "trend-filter KKT residual (k in {1,2})",
            "max_gap": worst_kkt, "tol": 1e-6, "passed": worst_kkt <= 1e-6}


def _lasso_on_support(A, y, weight, beta):
    """The exact lasso solution on the support S and signs s of ``beta``:
    ``b_S = (A_S'A_S)^{-1}(A_S'y - weight s)``, 0 off S, and whether it
    meets the lasso's KKT conditions (its signs are s on S, and
    ``|A'(y - A b)| <= weight`` off S).  With ``A`` of full column rank
    such a ``b`` is the unique minimizer of
    ``|y - A b|^2 / 2 + weight |b|_1``, so a fit with the wrong support
    fails the conditions."""
    on = beta != 0.0
    signs = np.sign(beta[on])
    cols = A[:, on]
    b = np.zeros_like(beta)
    b[on] = np.linalg.solve(cols.T @ cols, cols.T @ y - weight * signs)
    corr = A.T @ (y - A @ b)
    kkt = bool(np.all(np.sign(b[on]) == signs) and np.all(np.abs(corr[~on]) <= weight))
    return b, kkt


def proximal_gradient_checks(rng, n_instances: int) -> list:
    """Proximal-gradient lasso fits vs the exact solution on their
    support (:func:`_lasso_on_support`), and their fixed points."""
    worst_obj = 0.0
    worst_fix = 0.0
    failures = 0
    tight = SolverConfig(max_iters=20_000, tol=1e-16)
    for _ in range(n_instances):
        A = rng.normal(size=(20, 10))
        yv = rng.normal(size=20)
        loss = LossSpec("gaussian", y=yv, design=A)
        weight = float(rng.uniform(0.5, 3.0))
        pen = PenaltySpec("l1", weight=weight)
        fit = proximal_gradient(loss, pen, np.zeros(10), tight)
        exact, kkt = _lasso_on_support(A, yv, weight, fit.beta)
        resid = yv - A @ exact
        optimum = 0.5 * float(resid @ resid) + weight * float(np.sum(np.abs(exact)))
        failures += not kkt
        worst_obj = max(worst_obj, abs(fit.objective - optimum))
        a = fit.aux["step"]
        fp = prox(pen, fit.beta - a * loss_grad(loss, fit.beta), 1.0 / a)
        worst_fix = max(worst_fix, float(np.max(np.abs(fp - fit.beta))))
    return [{"name": f"proximal gradient vs exact lasso on its support ({n_instances})",
             "failures": failures, "max_gap": worst_obj, "tol": 1e-6,
             "passed": failures == 0 and worst_obj <= 1e-6},
            {"name": "proximal gradient fixed-point residual",
             "max_gap": worst_fix, "tol": 1e-8, "passed": worst_fix <= 1e-8}]


def solver_suite():
    """Structured-solver cross checks: the three checks above on one generator."""
    rng = np.random.Generator(np.random.PCG64(77))
    return [fused_lasso_dp_check(rng, 50), trend_filter_kkt_check(rng),
            *proximal_gradient_checks(rng, 5)]


SUITES = {
    "envelope": envelope_suite,
    "conjugate": conjugate_suite,
    "prox": prox_suite,
    "solver": solver_suite,
}


def run_suite(name: str):
    """Run one suite (or 'all'); returns the flat result list."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key))
        return out
    if name not in SUITES:
        raise ValidationError(f"unknown check suite {name!r}")
    return SUITES[name]()
