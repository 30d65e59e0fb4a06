"""Reference computations made apart from envopt.

Nothing here imports envopt: the objectives, the stationarity
certificates and the quantile trend-filter optimum are recomputed from
their definitions with numpy and scipy alone, so a fault in the package
cannot hide in its own checker.

* Objectives of the four problems the workloads solve (Huber and
  squared-loss fused lasso, fused double-Pareto logit, quantile trend
  filtering with the package's check-loss scaling ``|r| + (2q-1) r``).
* The cumulative-sum stationarity certificate of a 1-d fused problem.
  With score ``psi_i`` (minus the loss gradient) and edge penalty
  derivative ``w_j`` on ``d_j = beta_{j+1} - beta_j``, a stationary point
  has ``c = cumsum(psi)`` with ``c_n = 0``, ``|c_j| <= w_j`` on fused
  edges and ``c_j = -w_j sgn(d_j)`` on jumps.
* The quantile trend-filter optimum as a linear program solved by HiGHS.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import expit


# ---------------------------------------------------------------------------
# Objectives


def huber_rho(r):
    """Huber loss with threshold 1: r^2/2 inside, |r| - 1/2 outside."""
    ar = np.abs(r)
    return np.where(ar <= 1.0, 0.5 * r * r, ar - 0.5)


def rfl_objective(y, beta, lam):
    return float(np.sum(huber_rho(y - beta)) + lam * np.sum(np.abs(np.diff(beta))))


def gaussian_fl_objective(y, beta, lam):
    r = y - beta
    return float(0.5 * np.sum(r * r) + lam * np.sum(np.abs(np.diff(beta))))


def fdp_objective(y, m, beta, lam, a):
    nll = np.sum(m * np.logaddexp(0.0, beta) - y * beta)
    return float(nll + lam * np.sum(np.log1p(np.abs(np.diff(beta)) / a)))


def diff_operator(n, order):
    """Sparse matrix of ``order``-th differences, shape (n - order, n)."""
    D = sparse.eye(n, format="csr")
    for _ in range(order):
        D = D[1:] - D[:-1]
    return D


def qrtf_objective(y, beta, q, k, lam):
    r = y - beta
    pen = np.abs(diff_operator(len(y), k + 1) @ beta)
    return float(np.sum(np.abs(r) + (2.0 * q - 1.0) * r) + lam * np.sum(pen))


def objective_matches(value, reference, rtol=1e-10):
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# Stationarity certificates


def fused_certificate(psi, beta, w, jump_tol=None):
    """Worst violation of the cumulative-sum certificate (absolute units).

    ``w`` holds the penalty derivative magnitude on each edge, taken at
    the fitted difference (the subgradient bound on fused edges).
    """
    beta = np.asarray(beta, dtype=float)
    d = np.diff(beta)
    if jump_tol is None:
        jump_tol = 1e-9 * max(1.0, float(np.max(np.abs(beta))))
    c = np.cumsum(psi)
    jump = np.abs(d) > jump_tol
    worst = abs(float(c[-1]))
    cj, wj = c[:-1], np.broadcast_to(w, d.shape)
    if np.any(jump):
        worst = max(worst, float(np.max(np.abs(cj[jump] + wj[jump] * np.sign(d[jump])))))
    if np.any(~jump):
        worst = max(worst, float(np.max(np.abs(cj[~jump]) - wj[~jump])))
    return worst


def rfl_certificate(y, beta, lam):
    """Certificate of the Huber fused lasso, as a multiple of lam."""
    return fused_certificate(np.clip(y - beta, -1.0, 1.0), beta, lam) / lam


def gaussian_fl_certificate(y, beta, lam):
    """Certificate of the squared-loss fused lasso, as a multiple of lam."""
    return fused_certificate(y - beta, beta, lam) / lam


def fdp_certificate(y, m, beta, lam, a):
    """Certificate of the log-penalty binomial fit, as a multiple of lam.

    Score ``y - m expit(beta)``; edge bound ``lam / (a + |d_j|)``, which
    is ``lam / a`` on fused edges.
    """
    w = lam / (a + np.abs(np.diff(beta)))
    return fused_certificate(y - m * expit(beta), beta, w) / lam


def non_increasing(trace, rtol=1e-10):
    t = np.asarray(trace, dtype=float)
    slack = rtol * np.maximum(1.0, np.abs(t[:-1]))
    return bool(np.all(t[1:] <= t[:-1] + slack))


# ---------------------------------------------------------------------------
# Quantile trend filtering as a linear program


def qrtf_lp(y, q, k, lam):
    """Optimum of ``sum |r| + (2q-1) r + lam ||D^{(k+1)} beta||_1``.

    Variables ``beta`` (free), ``r+ , r- >= 0`` with ``y - beta = r+ - r-``
    and ``t+, t- >= 0`` with ``D beta = t+ - t-``; the check loss is
    ``2q r+ + 2(1-q) r-``.  Returns ``(optimum, beta)``.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    D = diff_operator(n, k + 1)
    m = D.shape[0]
    cost = np.concatenate([np.zeros(n), np.full(n, 2.0 * q),
                           np.full(n, 2.0 * (1.0 - q)), np.full(2 * m, float(lam))])
    eye_n, eye_m = sparse.eye(n), sparse.eye(m)
    fit_rows = sparse.hstack([eye_n, eye_n, -eye_n, sparse.csr_matrix((n, 2 * m))])
    pen_rows = sparse.hstack([D, sparse.csr_matrix((m, 2 * n)), -eye_m, eye_m])
    A = sparse.vstack([fit_rows, pen_rows]).tocsc()
    b = np.concatenate([y, np.zeros(m)])
    bounds = [(None, None)] * n + [(0.0, None)] * (2 * n + 2 * m)
    res = linprog(cost, A_eq=A, b_eq=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the qrtf LP: {res.message}")
    return float(res.fun), res.x[:n]


def relative_gap(value, optimum):
    return (value - optimum) / max(1.0, abs(optimum))
