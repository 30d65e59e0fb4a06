"""Nonparametric quantile regression by trend filtering.

Simulates data whose mean and spread both vary over the unit interval,
then estimates the conditional 0.9-quantile curve as a piecewise
quadratic: check loss at q = 0.9, l1 penalty on third differences.  The
solver alternates closed-form variance-mean weight updates with an
exact weighted trend filter (an active-set method on its dual, one banded
Cholesky per step), extrapolated by SQUAREM.  The penalty level comes
from interleaved 5-fold cross validation.
"""

import time

import numpy as np

from envopt.applications import AppSpec, fit_qrtf, kfold_cv, simulate
from envopt.solvers import SolverConfig

ds = simulate("qrtf", 1000, seed=7)
true_q90 = ds.truth["truth_mean"] + 1.2815515655446004 * ds.truth["truth_sigma"]

lams = 10.0 ** np.arange(5.0, -1.01, -0.5)
cv_cfg = SolverConfig(max_iters=40, tol=1e-5, inner_max_iters=300,
                      inner_tol=1e-7)
t0 = time.perf_counter()
best, table = kfold_cv(AppSpec("qrtf", q=0.9, k=2), ds.y, lams, 5, cfg=cv_cfg)
print(f"5-fold CV over log10(lam) in [-1, 5] took "
      f"{time.perf_counter() - t0:.1f}s")
for lam, loss in zip(lams, table):
    marker = "  <-- selected" if lam == best else ""
    print(f"  log10(lam)={np.log10(lam):+4.1f}   held-out check loss "
          f"{loss:9.1f}{marker}")

fit = fit_qrtf(ds.y, 0.9, 2, best,
               cfg=SolverConfig(max_iters=100, tol=1e-8,
                                inner_max_iters=1500, inner_tol=1e-9))
coverage = np.mean(ds.y < fit.beta)
rmse = np.sqrt(np.mean((fit.beta - true_q90) ** 2))
print()
print(f"selected lam = {best:g}: {fit.df - 3} knots, "
      f"{100 * coverage:.1f}% of observations below the curve "
      f"(target 90%), RMSE to the true quantile curve {rmse:.3f}")

t0 = time.perf_counter()
restart = fit_qrtf(ds.y, 0.9, 2, best, init=fit,
                   cfg=SolverConfig(max_iters=30, tol=1e-6,
                                    inner_max_iters=1500, inner_tol=1e-9))
print(f"warm restart at lam* reconverges in {restart.iters} step(s), "
      f"{time.perf_counter() - t0:.2f}s")
