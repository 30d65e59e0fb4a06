"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all
even on success).  Budgets and tolerances are pinned here, not deferred.
"""

import time

import numpy as np
from scipy.special import expit

from envopt.applications import (
    AppSpec,
    aic,
    app_loss,
    binomial_fused_lasso,
    fit_fdp,
    fit_qrtf,
    fit_rfl,
    fused_lasso_gaussian,
    kfold_cv,
    simulate,
    solution_path,
)
from envopt.checks import (
    conjugate_suite,
    envelope_suite,
    fused_lasso_dp_check,
    proximal_gradient_checks,
    prox_suite,
    trend_filter_kkt_check,
)
from envopt.losses import LossSpec, lipschitz_bound
from envopt.penalties import PenaltySpec, prox
from envopt.solvers import SolverConfig


def _report(num, passed, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {num}: {detail}"


def _monotone(trace, slack=1e-10):
    trace = np.asarray(trace)
    if trace.size < 2:
        return True
    return bool(np.all(np.diff(trace) <= slack * np.maximum(1.0, np.abs(trace[:-1]))))


def test_criterion_1_envelope_identities():
    t0 = time.perf_counter()
    results = envelope_suite()
    elapsed = time.perf_counter() - t0
    worst = max(r["max_gap"] for r in results)
    agree = all(r["lambda_agrees"] for r in results)
    ok = all(r["passed"] for r in results) and elapsed < 10.0
    _report(1, ok,
            f"envelope suite: {len(results)} members, max_gap={worst:.2e} "
            f"(tol 1e-6), lambda-hat agreement={agree}, "
            f"runtime={elapsed:.1f}s (< 10s)")


def test_criterion_2_conjugates():
    results = conjugate_suite()
    worst = max(r["max_gap"] for r in results)
    ok = all(r["passed"] for r in results)
    _report(2, ok,
            f"conjugate checks: duals within 1e-6, double conjugation "
            f"within 1e-5 (worst gap {worst:.2e})")


def test_criterion_3_prox_oracle():
    (res,) = prox_suite()
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    closed = prox(dp, 3.0, 1.0)
    exact = abs(closed - (1.0 + np.sqrt(3.0))) <= 1e-10
    ok = res["passed"] and exact
    _report(3, ok,
            f"prox oracle: {200 - res['failures']}/200 draws within "
            f"tolerance; closed form at (u=3,s=1) = {closed!r} "
            f"(|err| <= 1e-10: {exact})")


def test_criterion_4_mm_monotonicity():
    traces = []
    ds = simulate("rfl", 250, seed=1)
    for lam in (1.0, 5.0, 20.0):
        traces.append(fit_rfl(ds.y, lam).trace)
    dq = simulate("qrtf", 1000, seed=7)
    cfg = SolverConfig(max_iters=40, tol=1e-7, inner_max_iters=400,
                       inner_tol=1e-8)
    for lam in (10.0, 100.0):
        traces.append(fit_qrtf(dq.y, 0.9, 2, lam, cfg=cfg).trace)
    df = simulate("fdp", 500, seed=3, m=25)
    for lam in (20.0, 60.0):
        traces.append(fit_fdp(df.y, df.m, lam).trace)
    bad = [i for i, t in enumerate(traces) if not _monotone(t)]
    _report(4, not bad,
            f"MM monotonicity: {len(traces)} traces across rfl/qrtf/fdp, "
            f"all non-increasing with slack 1e-10 (violations: {bad})")


def test_criterion_5_robust_fused_lasso_replication():
    lams = np.geomspace(300.0, 1.0, 100)
    app = AppSpec("rfl", 1.0)
    wins = 0
    worst_time = 0.0
    for seed in range(1, 21):
        ds = simulate("rfl", 250, seed=seed)
        truth = ds.truth["truth"]
        t0 = time.perf_counter()
        path = solution_path(app, ds.y, lams, criterion="aic")
        t_robust = time.perf_counter() - t0
        mse_r = float(np.mean((path.best_fit.beta - truth) ** 2))
        t0 = time.perf_counter()
        best = None
        for lam in lams:
            f = fused_lasso_gaussian(ds.y, lam)
            val = 2.0 * (0.5 * np.sum((ds.y - f.beta) ** 2)) + 2.0 * f.df
            if best is None or val < best[0]:
                best = (val, f)
        t_ord = time.perf_counter() - t0
        mse_o = float(np.mean((best[1].beta - truth) ** 2))
        wins += mse_r < mse_o
        worst_time = max(worst_time, t_robust, t_ord)
    ok = wins >= 18 and worst_time <= 5.0
    _report(5, ok,
            f"robust fused lasso: wins {wins}/20 seeds (need >= 18); "
            f"slowest 100-point path {worst_time:.2f}s (<= 5s)")


def test_criterion_6_quantile_trend_filter_replication():
    ds = simulate("qrtf", 1000, seed=7)
    lams = 10.0 ** np.arange(5.0, -1.01, -0.5)
    app = AppSpec("qrtf", 1.0, q=0.9, k=2)
    cv_cfg = SolverConfig(max_iters=40, tol=1e-5, inner_max_iters=300,
                          inner_tol=1e-7)
    best, table = kfold_cv(app, ds.y, lams, 5, cfg=cv_cfg)
    interior = lams[-1] < best < lams[0]
    fit_cfg = SolverConfig(max_iters=100, tol=1e-8, inner_max_iters=1500,
                           inner_tol=1e-9)
    fit = fit_qrtf(ds.y, 0.9, 2, best, cfg=fit_cfg)
    coverage = float(np.mean(ds.y < fit.beta))
    t0 = time.perf_counter()
    restart = fit_qrtf(ds.y, 0.9, 2, best,
                       cfg=SolverConfig(max_iters=30, tol=1e-6,
                                        inner_max_iters=1500,
                                        inner_tol=1e-9),
                       init=fit.beta)
    t_restart = time.perf_counter() - t0
    ok = (0.86 <= coverage <= 0.94 and interior and restart.converged
          and restart.iters <= 30 and t_restart <= 5.0)
    _report(6, ok,
            f"quantile trend filter: CV-selected log10(lam)="
            f"{np.log10(best):.1f} (interior={interior}), coverage="
            f"{coverage:.3f} in [0.86, 0.94], warm restart "
            f"{restart.iters} iters (<= 30, converged={restart.converged}) "
            f"in {t_restart:.2f}s (<= 5s)")


def test_criterion_7_fused_double_pareto_replication():
    lams = np.geomspace(300.0, 12.0, 25)
    ratios = []
    for seed in range(1, 11):
        ds = simulate("fdp", 500, seed=seed, m=25)
        truth = ds.truth["truth_logodds"]
        fl_prev = None
        best_fl = None
        best_fdp = None
        for lam in lams:
            fl = binomial_fused_lasso(ds.y, ds.m, lam, init=fl_prev)
            fl_prev = fl.beta
            nll = app_loss(AppSpec("fdp", lam), ds.y, fl.beta, m=ds.m)
            v = aic(fl, nll)
            if best_fl is None or v < best_fl[0]:
                best_fl = (v, float(np.mean((fl.beta - truth) ** 2)))
            fp = fit_fdp(ds.y, ds.m, lam, a=1.0, init=fl.beta)
            nll = app_loss(AppSpec("fdp", lam), ds.y, fp.beta, m=ds.m)
            v = aic(fp, nll)
            if best_fdp is None or v < best_fdp[0]:
                best_fdp = (v, float(np.mean((fp.beta - truth) ** 2)))
        ratios.append(best_fl[1] / best_fdp[1])
    med = float(np.median(ratios))
    ok = med >= 5.0
    _report(7, ok,
            f"fused double-Pareto: median MSE ratio over 10 seeds = "
            f"{med:.2f} (need >= 5); ratios="
            f"{np.array2string(np.asarray(ratios), precision=2)}")


def test_criterion_8_proximal_gradient_correctness():
    rng = np.random.Generator(np.random.PCG64(101))
    obj_row, fix_row = proximal_gradient_checks(rng, 20)
    worst_obj, worst_fix = obj_row["max_gap"], fix_row["max_gap"]
    worst_eig = -np.inf
    for _ in range(20):
        n, d = 30, 5
        A = rng.normal(size=(n, d))
        m = rng.integers(1, 9, size=n).astype(float)
        y = np.minimum(rng.integers(0, 9, size=n).astype(float), m)
        spec = LossSpec("binomial-logit", y=y, m=m, design=A)
        L = lipschitz_bound(spec)
        beta = rng.normal(size=d)
        w = expit(A @ beta)
        H = A.T @ (A * (m * w * (1 - w))[:, None])
        worst_eig = max(worst_eig, float(np.linalg.eigvalsh(H)[-1]) - L)
    ok = obj_row["passed"] and fix_row["passed"] and worst_eig <= 1e-8
    _report(8, ok,
            f"proximal gradient: oracle objective gap {worst_obj:.2e} "
            f"(<= 1e-6), fixed-point residual {worst_fix:.2e} (<= 1e-8), "
            f"Hessian excess over Lipschitz bound {worst_eig:.2e} (<= 1e-8)")


def test_criterion_9_structured_solver_cross_validation():
    rng = np.random.Generator(np.random.PCG64(77))
    dp_row = fused_lasso_dp_check(rng, 50)
    kkt_row = trend_filter_kkt_check(rng)
    ok = dp_row["passed"] and kkt_row["passed"]
    _report(9, ok,
            f"structured solvers: DP vs exact trend filter at k=0 max gap "
            f"{dp_row['max_gap']:.2e} on 50 instances (<= 1e-6); trend-filter "
            f"KKT residual {kkt_row['max_gap']:.2e} (<= 1e-6)")
