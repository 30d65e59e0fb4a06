"""Iterative drivers and structured subproblem solvers.

Contents:

* :func:`weighted_fused_lasso` -- exact dynamic program for
  ``sum_i (w_i/2)(z_i - b_i)^2 + sum_i u_i |b_{i+1} - b_i|`` via
  forward-backward message passing over piecewise-linear derivatives
  (clipping at +-u_i per edge).
* :func:`weighted_trend_filter` -- ADMM with a banded Cholesky beta-step
  for ``sum_i (w_i/2)(z_i - b_i)^2 + sum_j lam_j |(D b)_j|`` where D is
  the difference operator of order k+1.
* :func:`proximal_gradient` -- fixed-step forward-backward iteration for
  separable penalized likelihoods: the gradient step is the location
  envelope's update and the penalty's prox its solve, run by
  :func:`mm_driver`.
* :func:`mm_driver` -- the majorize/minimize loop of every envelope fit:
  each cycle is a closed-form envelope update ``update(beta) -> aux``
  followed by the subproblem solve ``solve(aux, beta) -> beta``, with one
  objective evaluation and a monotonicity check per cycle.
* :func:`envelope_fused_lasso_mm` -- one MM loop for the fused-lasso
  envelope fits (Huber shift, Polya-Gamma weights, squared loss) that
  returns the whole run record, df and final shift included.
* :func:`logistic_fused_lasso` -- the logit's Gaussian scale-mixture
  envelope (Polya-Gamma weights) reducing each step to a weighted fused
  lasso.

Three loops are compiled: ``_fldp.c`` holds the DP and
:func:`envelope_fused_lasso_mm`, the whole MM loop of the three envelope
fits whose subproblem is the fused lasso (the Huber location shift of
``applications.fit_rfl``, the Polya-Gamma weights of
:func:`logistic_fused_lasso` and of ``applications.fit_fdp``'s
beta-steps, and the squared loss of ``applications.fused_lasso_gaussian``,
exact in one cycle), which also returns the fit's ``df`` and the final
Huber shift; ``_tfadmm.c`` holds the whole ADMM iteration.  They are
built together into one library on first use with the
system C compiler, cached per user and called through ctypes.  When no
compiler or cache is available, or the build or load fails, all three run
in pure Python (:func:`_fused_lasso_dp`, :func:`mm_driver` with the same
update and solve, and :func:`_trend_filter_admm`), which stay as the test
oracles.  :data:`FUSED_LASSO_KERNEL` (``"c"`` or ``"python"``) says which
implementation of all three loops runs.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cholesky_banded, cho_solve_banded

from .errors import MonotonicityError, ValidationError
from .losses import (LossSpec, location_envelope_update, logit_scale_update, loss_grad,
                     loss_value, lipschitz_bound)
from .operators import diff_matrix, soft_threshold
from .penalties import PenaltySpec, penalty_value, prox

__all__ = [
    "SolverConfig",
    "FitResult",
    "FUSED_LASSO_KERNEL",
    "weighted_fused_lasso",
    "weighted_trend_filter",
    "proximal_gradient",
    "mm_driver",
    "logistic_fused_lasso",
    "trend_filter_kkt_residual",
    "distinct_levels",
    "count_knots",
]


@dataclass
class SolverConfig:
    """Iteration budgets and tolerances shared by the drivers.

    ``tol`` is relative objective change |f_t - f_{t+1}| / max(1, |f_t|).
    """

    max_iters: int = 500
    tol: float = 1e-8
    inner_max_iters: int = 2000
    inner_tol: float = 1e-10
    record_trace: bool = True

    def __post_init__(self):
        if not self.tol > 0 or not self.inner_tol > 0:
            raise ValidationError("tolerances must be positive")
        if self.max_iters < 1 or self.inner_max_iters < 1:
            raise ValidationError("iteration budgets must be positive")


@dataclass
class FitResult:
    """Fitted vector plus the run record.

    ``df`` counts distinct fitted levels (or knots + k + 1 for trend
    filtering); ``aux`` holds the final envelope variables of the run
    (auxiliary lambda/u/omega vectors, solver diagnostics).
    """

    beta: np.ndarray
    objective: float
    trace: np.ndarray
    iters: int
    converged: bool
    df: int = 1
    aux: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exact weighted fused lasso (message-passing dynamic program)


def _fused_lasso_dp(z, w, u):
    """Pure-Python DP: the fallback of the C kernel and its test oracle."""
    n = z.shape[0]
    beta = np.empty(n)
    if n == 1:
        beta[0] = z[0]
        return beta
    size = 2 * n
    x = np.zeros(size)
    a = np.zeros(size)
    b = np.zeros(size)
    tm = np.zeros(n - 1)
    tp = np.zeros(n - 1)

    l = n - 1
    r = n
    tm[0] = z[0] - u[0] / w[0]
    tp[0] = z[0] + u[0] / w[0]
    x[l] = tm[0]
    x[r] = tp[0]
    a[l] = w[0]
    b[l] = -w[0] * z[0] + u[0]
    a[r] = -w[0]
    b[r] = w[0] * z[0] + u[0]
    afirst = w[1]
    bfirst = -w[1] * z[1] - u[0]
    alast = -w[1]
    blast = w[1] * z[1] - u[0]

    for k in range(1, n - 1):
        # leftward knot: derivative crosses -u[k]
        alo = afirst
        blo = bfirst
        lo = l
        while lo <= r and alo * x[lo] + blo <= -u[k]:
            alo += a[lo]
            blo += b[lo]
            lo += 1
        tm[k] = (-u[k] - blo) / alo
        # rightward knot: derivative crosses +u[k] (coefficients negated)
        ahi = alast
        bhi = blast
        hi = r
        while hi >= lo and -(ahi * x[hi] + bhi) >= u[k]:
            ahi += a[hi]
            bhi += b[hi]
            hi -= 1
        tp[k] = (u[k] + bhi) / (-ahi)
        l = lo - 1
        r = hi + 1
        x[l] = tm[k]
        x[r] = tp[k]
        a[l] = alo
        b[l] = blo + u[k]
        a[r] = ahi
        b[r] = bhi + u[k]
        afirst = w[k + 1]
        bfirst = -w[k + 1] * z[k + 1] - u[k]
        alast = -w[k + 1]
        blast = w[k + 1] * z[k + 1] - u[k]

    # last coefficient: derivative of the full message crosses zero
    alo = afirst
    blo = bfirst
    lo = l
    while lo <= r and alo * x[lo] + blo <= 0.0:
        alo += a[lo]
        blo += b[lo]
        lo += 1
    beta[n - 1] = -blo / alo
    for k in range(n - 2, -1, -1):
        nxt = beta[k + 1]
        if nxt > tp[k]:
            beta[k] = tp[k]
        elif nxt < tm[k]:
            beta[k] = tm[k]
        else:
            beta[k] = nxt
    return beta


_KERNEL_SOURCES = tuple(Path(__file__).with_name(name)
                        for name in ("_fldp.c", "_tfadmm.c"))
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")  # no contraction: same bits


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    if not root or not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "envopt"


def _build_kernel(cc: str, lib: Path):
    """Compile to a temp file beside ``lib``, then rename it into place."""
    fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-o", tmp, *map(str, _KERNEL_SOURCES), "-lm"],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _kernel():
    """The compiled kernel library (ctypes), or None for the Python loops.

    One library holds the three compiled loops, the fused-lasso DP, the
    envelope MM around it and the trend-filter ADMM, so either all run in
    C or all in Python.  It is cached per user under
    ``$XDG_CACHE_HOME/envopt`` (or ``~/.cache/envopt``), named by a hash
    of the sources, the flags and the compiler, so each machine compiles
    each version once; a file lock
    lets exactly one of several concurrent processes build it.  It is
    loaded only from a directory that no other user can write to.
    """
    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    if cc is None:
        return None
    try:
        import fcntl  # POSIX; the flags below build a POSIX shared library
        cc_stat = os.stat(cc)
        key = hashlib.sha256(repr((
            [src.read_bytes() for src in _KERNEL_SOURCES], _CFLAGS,
            os.path.realpath(cc), cc_stat.st_size,
            cc_stat.st_mtime_ns)).encode()).hexdigest()[:16]
        cache = _cache_dir()
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = os.stat(cache)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None
        lib = cache / f"fldp-{key}.so"
        if not lib.exists():
            with open(cache / "build.lock", "a") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                if not lib.exists():
                    _build_kernel(cc, lib)
        lib = ctypes.CDLL(str(lib))
    except (ImportError, OSError, subprocess.SubprocessError):
        return None
    ptr, c_long, c_double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.fused_lasso_dp.argtypes = [ptr] * 3 + [c_long, ptr]
    lib.fused_lasso_dp.restype = ctypes.c_int
    lib.trend_filter_admm.argtypes = ([ptr] * 5 + [c_long, c_long, c_double, c_long]
                                      + [ptr] * 4)
    lib.trend_filter_admm.restype = ctypes.c_int
    lib.envelope_fused_lasso_mm.argtypes = ([ctypes.c_int] + [ptr] * 3
                                            + [c_long, c_double, c_long, ctypes.c_int]
                                            + [ptr] * 4)
    lib.envelope_fused_lasso_mm.restype = ctypes.c_int
    return lib


def __getattr__(name):
    # FUSED_LASSO_KERNEL is resolved on first use, so importing the
    # module never starts the compiler.  It names the implementation of
    # the three compiled loops: the fused-lasso DP, the envelope MM around
    # it and the trend-filter ADMM.
    if name == "FUSED_LASSO_KERNEL":
        return "python" if _kernel() is None else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _float_vector(x, n: int, name: str) -> np.ndarray:
    """``x`` broadcast to a contiguous float vector of length ``n``,
    rejected unless it is a scalar or already has that length."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        if x.size != 1:
            raise ValidationError(
                f"{name} must be a scalar or a vector of length {n}, got shape {x.shape}")
        x = np.broadcast_to(x.reshape(()), (n,))
    return np.ascontiguousarray(x)


def _edge_weights(u_edges, n: int) -> np.ndarray:
    """``u_edges`` as a contiguous float vector of ``n - 1`` edge weights,
    rejected unless nonnegative and finite."""
    if isinstance(u_edges, (int, float)):  # a scalar lam, np.float64 included
        # a NaN fails both comparisons
        if u_edges < 0:
            raise ValidationError("edge weights must be nonnegative")
        if not u_edges < np.inf:
            raise ValidationError("inputs must be finite")
        return np.full(n - 1, float(u_edges))
    u = _float_vector(u_edges, n - 1, "edge weights")
    if n > 1:
        # min and max propagate NaN, and a NaN fails both comparisons
        if u.min() < 0:
            raise ValidationError("edge weights must be nonnegative")
        if not u.max() < np.inf:
            raise ValidationError("inputs must be finite")
    return u


def weighted_fused_lasso(z, omega, u_edges):
    """Exact global minimizer of the weighted 1-d fused lasso.

    Minimizes ``sum_i (omega_i/2)(z_i - beta_i)^2 +
    sum_i u_i |beta_{i+1} - beta_i|``.  The problem is strictly convex,
    so the dynamic program returns the unique solution.  The C kernel
    and the Python DP return the same bits.
    """
    z = np.ascontiguousarray(z, dtype=float)
    n = z.shape[0]
    if n == 0:
        raise ValidationError("z must be nonempty")
    if z.ndim != 1:
        raise ValidationError("z must be one-dimensional")
    omega = _float_vector(omega, n, "omega")
    # min and max propagate NaN, and a NaN fails every comparison below
    if not omega.min() > 0:
        raise ValidationError("omega must be strictly positive")
    u = _edge_weights(u_edges, n)
    if not (-np.inf < z.min() and z.max() < np.inf and omega.max() < np.inf):
        raise ValidationError("inputs must be finite")
    if n == 1 or u.max() == 0:
        return z.copy()  # decoupled: exact without the dp arithmetic
    lib = _kernel()
    if lib is None:
        return _fused_lasso_dp(z, omega, u)
    beta = np.empty(n)
    if lib.fused_lasso_dp(z.ctypes.data, omega.ctypes.data, u.ctypes.data, n,
                          beta.ctypes.data):
        raise MemoryError("fused-lasso DP could not allocate its work arrays")
    return beta


# ---------------------------------------------------------------------------
# Weighted trend filtering via ADMM with banded factorizations


def _factor(omega, gram_ab, rho):
    ab = rho * gram_ab
    ab[-1, :] += omega
    return cholesky_banded(ab, lower=False)


def weighted_trend_filter(z, omega, k: int, lam, cfg: Optional[SolverConfig] = None,
                          state: Optional[dict] = None):
    """Weighted trend filtering: ADMM on the split ``alpha = D beta``.

    The beta-step solves the banded SPD system
    ``(diag(omega) + rho D.T D) beta = omega*z + rho D.T (alpha - w)``;
    the alpha-step is soft thresholding at ``lam/rho``; dual ascent on w.
    rho starts at the penalty level and is rebalanced by factors of 2
    when the primal/dual residual ratio exceeds 10.  The loop runs in the
    C kernel ``_tfadmm.c`` when the compiled library loads, and as
    :func:`_trend_filter_admm` in Python otherwise.

    ``lam`` may be a scalar or a per-row vector.  ``state``, if given, is
    read for warm-start values (alpha, w, rho) and updated in place with
    those plus iters/converged/residuals.
    """
    cfg = cfg or SolverConfig()
    z = np.ascontiguousarray(z, dtype=float)
    if z.ndim != 1:
        raise ValidationError("z must be one-dimensional")
    n = z.shape[0]
    if k < 0:
        raise ValidationError("order k must be >= 0")
    if n < k + 2:
        raise ValidationError(f"need len(z) >= k + 2, got {n}")
    omega = _float_vector(omega, n, "omega")
    m = n - k - 1
    lam_v = _float_vector(lam, m, "lam")
    # min and max propagate NaN, and a NaN fails every comparison below
    if not omega.min() > 0:
        raise ValidationError("omega must be strictly positive")
    lam_min, lam_max = lam_v.min(), lam_v.max()
    if lam_min < 0:
        raise ValidationError("lam must be nonnegative")
    if not (-np.inf < z.min() and z.max() < np.inf and omega.max() < np.inf
            and lam_min >= 0 and lam_max < np.inf):
        raise ValidationError("inputs must be finite")
    if state is None:
        state = {}
    if lam_max == 0.0:
        state.update(iters=0, converged=True, primal_res=0.0, dual_res=0.0)
        return z.copy()

    D = diff_matrix(n, k)
    rho = float(state.get("rho") or max(float(np.mean(lam_v)), 1e-8))
    # copies of the warm start: the C loop overwrites alpha and w in place
    alpha, w = state.get("alpha"), state.get("w")
    if alpha is None or alpha.shape != (m,):
        alpha = D.apply(z)
    else:
        alpha = np.array(alpha, dtype=float)
    w = np.zeros(m) if w is None or w.shape != (m,) else np.array(w, dtype=float)
    lib = _kernel()
    if lib is None:
        beta, run = _trend_filter_admm(z, omega, lam_v, D, rho, alpha, w,
                                       cfg.inner_tol, cfg.inner_max_iters)
        state.update(run)
        return beta
    beta = np.empty(n)
    info = np.array([rho, 0.0, 0.0, 0.0, 0.0, 0.0])
    gram_ab = np.ascontiguousarray(D.gram_bands())
    stencil = np.ascontiguousarray(D.stencil)
    status = lib.trend_filter_admm(
        z.ctypes.data, omega.ctypes.data, lam_v.ctypes.data, stencil.ctypes.data,
        gram_ab.ctypes.data, n, k, cfg.inner_tol, cfg.inner_max_iters,
        beta.ctypes.data, alpha.ctypes.data, w.ctypes.data, info.ctypes.data)
    if status == 1:
        raise MemoryError("trend-filter ADMM could not allocate its work arrays")
    if status == 2:
        raise np.linalg.LinAlgError("trend-filter system is not positive definite")
    state.update(alpha=alpha, w=w, rho=float(info[0]), iters=int(info[1]),
                 converged=bool(info[2]), primal_res=float(info[3]),
                 dual_res=float(info[4]), primal_res_inf=float(info[5]))
    return beta


def _trend_filter_admm(z, omega, lam_v, D, rho, alpha, w, tol, max_iters):
    """Python ADMM loop: the fallback of the C kernel and its test oracle.

    Returns beta and the run record that :func:`weighted_trend_filter`
    writes into ``state``.
    """
    n, m = D.n, D.rows
    gram_ab = D.gram_bands()
    chol = _factor(omega, gram_ab, rho)
    wz = omega * z
    converged = False
    last_balance = 0
    for it in range(1, max_iters + 1):
        beta = cho_solve_banded((chol, False), wz + rho * D.transpose_apply(alpha - w))
        Db = D.apply(beta)
        alpha_old = alpha
        alpha = soft_threshold(Db + w, lam_v / rho)
        w = w + Db - alpha
        r_pri = Db - alpha
        s_dual = rho * D.transpose_apply(alpha - alpha_old)
        r_norm = np.linalg.norm(r_pri)
        s_norm = np.linalg.norm(s_dual)
        eps_pri = np.sqrt(m) * tol + tol * max(np.linalg.norm(Db), np.linalg.norm(alpha))
        eps_dual = np.sqrt(n) * tol + tol * np.linalg.norm(rho * D.transpose_apply(w))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break
        # residual balancing with a dwell period so rho cannot flap
        if it - last_balance >= 20:
            if r_norm > 10.0 * s_norm and rho < 1e12:
                rho *= 2.0
                w = w / 2.0
                chol = _factor(omega, gram_ab, rho)
                last_balance = it
            elif s_norm > 10.0 * r_norm and rho > 1e-10:
                rho /= 2.0
                w = w * 2.0
                chol = _factor(omega, gram_ab, rho)
                last_balance = it
    return beta, dict(alpha=alpha, w=w, rho=rho, iters=it, converged=converged,
                      primal_res=float(r_norm), dual_res=float(s_norm),
                      primal_res_inf=float(np.max(np.abs(r_pri))))


def trend_filter_kkt_residual(beta, z, omega, k: int, lam) -> float:
    """Stationarity violation of a candidate trend-filter solution.

    Solves the banded least-squares system for the dual vector v with
    ``D.T v = -omega*(beta - z)`` and reports the worst violation among
    the equality residual, the box |v| <= lam, and the active-edge sign
    condition v = lam * sgn(D beta).
    """
    z = np.asarray(z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = z.shape[0]
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (n,))
    D = diff_matrix(n, k)
    m = D.rows
    lam_v = np.broadcast_to(np.asarray(lam, dtype=float), (m,))
    g = omega * (beta - z)
    chol = cholesky_banded(D.gram_transpose_bands(), lower=False)
    v = cho_solve_banded((chol, False), -D.apply(g))
    eq = float(np.max(np.abs(D.transpose_apply(v) + g)))
    box = float(np.max(np.maximum(np.abs(v) - lam_v, 0.0)))
    Db = D.apply(beta)
    active = np.abs(Db) > 1e-8 * max(1.0, float(np.max(np.abs(beta))))
    sign = 0.0
    if np.any(active):
        sign = float(np.max(np.abs(v[active] - lam_v[active] * np.sign(Db[active]))))
    return max(eq, box, sign)


# ---------------------------------------------------------------------------
# Proximal gradient


def proximal_gradient(loss: LossSpec, penalty: PenaltySpec, init,
                      cfg: Optional[SolverConfig] = None) -> FitResult:
    """Fixed-step forward-backward iteration for ``loss + sum_j phi(b_j)``
    (ISTA), run by :func:`mm_driver` as an envelope MM.

    The step is ``a = 1/L`` with L the loss's gradient Lipschitz bound.
    The multivariate Gaussian location envelope of the loss at ``beta``
    has the update ``a*lambda = beta - a*grad l(beta)``, the gradient
    step, and leaves the separable problem that the penalty's prox at
    step ``a`` solves exactly: the objective trace is non-increasing.
    ``aux['lambda']`` records the location-envelope vector
    ``a^{-1} x - grad l(x)`` at exit.
    """
    cfg = cfg or SolverConfig()
    beta = _mm_start(init, None, loss.dim)
    L = lipschitz_bound(loss)
    if L <= 0:
        raise ValidationError("loss curvature bound must be positive")
    a = 1.0 / L

    def objective(b):
        return loss_value(loss, b) + float(np.sum(penalty_value(penalty, b)))

    def gradient_step(b):
        return b - a * loss_grad(loss, b)

    def penalty_prox(z, b):
        return prox(penalty, z, 1.0 / a)

    fit = mm_driver(objective, gradient_step, penalty_prox, beta, cfg)
    fit.aux = {"lambda": fit.beta / a - loss_grad(loss, fit.beta), "step": a}
    return fit


# ---------------------------------------------------------------------------
# Generic MM driver


def _finite(value) -> float:
    value = float(value)
    if not abs(value) < np.inf:
        raise ValidationError(f"an MM cycle met a value that is not finite ({value!r})")
    return value


def mm_driver(objective: Callable, update: Callable, solve: Callable, beta,
              cfg: Optional[SolverConfig] = None) -> FitResult:
    """Majorize/minimize loop: each cycle is ``solve(update(beta), beta)``.

    ``update(beta)`` is the envelope update: it returns only the
    auxiliary variables, so it cannot move ``beta`` or the objective.
    ``solve(aux, beta)`` returns the next ``beta`` from the subproblem
    those variables leave, and must not increase ``objective``.  The
    objective is evaluated once per cycle and recorded in the trace; a
    solve that increases it beyond a 1e-10 relative slack aborts with
    :class:`MonotonicityError` naming the solve, and a value that is not
    finite with :class:`ValidationError`.  The loop stops when the
    relative change falls to ``cfg.tol``.
    """
    cfg = cfg or SolverConfig()
    obj = _finite(objective(beta))
    trace = [obj]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        beta = solve(update(beta), beta)
        new = _finite(objective(beta))
        if new > obj + 1e-10 * max(1.0, abs(obj)):
            raise MonotonicityError(getattr(solve, "__name__", repr(solve)), obj, new)
        if cfg.record_trace:
            trace.append(new)
        done = abs(obj - new) <= cfg.tol * max(1.0, abs(obj))
        obj = new
        if done:
            converged = True
            break
    beta = np.asarray(beta, dtype=float)
    return FitResult(beta=beta, objective=obj, trace=np.asarray(trace),
                     iters=it, converged=converged,
                     df=distinct_levels(beta))


def _mm_start(init, default, n: int) -> np.ndarray:
    """A fresh float copy of the MM start ``init`` (``default`` when None),
    rejected unless it is a finite vector of length ``n``."""
    beta = np.array(default if init is None else init, dtype=float)
    if beta.shape != (n,) or not np.all(np.isfinite(beta)):
        raise ValidationError(f"init must be a finite vector of length {n}")
    return beta


# The envelopes of envelope_fused_lasso_mm, by loss kind: the code of each
# in _fldp.c and the name of its solve, which a MonotonicityError reports.
_ENVELOPES = {"huber": (0, "fused_lasso"),
              "binomial-logit": (1, "polya_gamma_fused_lasso"),
              "gaussian": (2, "fused_lasso")}

# The run of an envelope that is exact in one cycle: one solve, whose
# objective is the whole trace.
_ONE_SOLVE = SolverConfig(max_iters=1, record_trace=False)


def envelope_fused_lasso_mm(kind: str, y, m, u, beta, cfg: SolverConfig) -> FitResult:
    """The MM loop of a fused-lasso envelope fit, and its whole run record.

    Each cycle is the closed-form envelope update of the loss ``kind`` at
    ``beta`` and then an exact weighted fused lasso with edge weights
    ``u``, as :func:`mm_driver` runs it:

    * ``"huber"``: the Huber location shift (threshold 1), a fused lasso
      on ``y - soft(y - beta, 1)`` with unit weights; ``aux["u"]`` is the
      shift at the last iterate.
    * ``"binomial-logit"``: the logit's Polya-Gamma weights
      (:func:`~envopt.losses.logit_scale_update`) with trial counts ``m``.
    * ``"gaussian"``: the squared loss, exact in one solve on ``y``; the
      record is ``iters=1``, ``converged=True`` and ``trace=[objective]``
      (run it with ``_ONE_SOLVE``; ``beta`` is not read).

    The loop, the objective and ``df`` (:func:`distinct_levels`) run in
    one call of the compiled kernel (``_fldp.c``).  When the kernel did
    not load, :func:`mm_driver` runs the same cycles in Python, with
    :func:`weighted_fused_lasso` as the solve.  The caller validates the
    inputs: ``y`` (and ``m``) contiguous, finite and, for the logit,
    ``0 <= y <= m`` with ``m >= 1``; ``u`` from :func:`_edge_weights`; a
    start ``beta`` from :func:`_mm_start`, which the loop overwrites.  A
    rise of the objective raises :class:`MonotonicityError` naming the
    solve, and a value that is not finite :class:`ValidationError`.
    """
    lib = _kernel()
    if lib is None:
        return _envelope_mm_python(kind, y, m, u, beta, cfg)
    code, solve_name = _ENVELOPES[kind]
    n = y.shape[0]
    trace = np.empty(cfg.max_iters + 1 if cfg.record_trace else 1)
    shift = np.empty(n) if kind == "huber" else None
    info = np.empty(5)
    status = lib.envelope_fused_lasso_mm(
        code, y.ctypes.data, None if m is None else m.ctypes.data, u.ctypes.data,
        n, cfg.tol, cfg.max_iters, cfg.record_trace, beta.ctypes.data,
        trace.ctypes.data, None if shift is None else shift.ctypes.data,
        info.ctypes.data)
    if status == 1:
        raise MemoryError("envelope MM could not allocate its work arrays")
    if status == 2:
        raise ValidationError("an MM cycle met a value that is not finite")
    if status == 3:
        raise MonotonicityError(solve_name, float(info[2]), float(info[3]))
    iters = int(info[0])
    if cfg.record_trace:
        trace = trace[:iters + 1].copy()  # a view would pin the whole buffer
    return FitResult(beta=beta, objective=float(info[2]), trace=trace,
                     iters=iters, converged=bool(info[1]), df=int(info[4]),
                     aux={} if shift is None else {"u": shift})


def _envelope_mm_python(kind, y, m, u, beta, cfg) -> FitResult:
    """:func:`envelope_fused_lasso_mm` in Python: the fallback of the
    compiled loop and its test oracle."""
    loss = LossSpec(kind, y=y, m=m)
    n = y.shape[0]
    ones = np.ones(n)

    def objective(beta):
        return loss_value(loss, beta) + float(np.sum(u * np.abs(np.diff(beta))))

    if kind == "gaussian":
        beta = weighted_fused_lasso(y, ones, u)
        obj = _finite(objective(beta))
        return FitResult(beta=beta, objective=obj, trace=np.asarray([obj]), iters=1,
                         converged=True, df=distinct_levels(beta))

    if kind == "huber":
        def huber_shift(beta):
            return location_envelope_update(loss, beta)

        def fused_lasso(shift, beta):
            return weighted_fused_lasso(y - shift, ones, u)

        fit = mm_driver(objective, huber_shift, fused_lasso, beta, cfg)
        fit.aux["u"] = location_envelope_update(loss, fit.beta)
        return fit

    def polya_gamma_weights(beta):
        return logit_scale_update(loss, beta)

    def polya_gamma_fused_lasso(weights, beta):
        omega, z = weights
        return weighted_fused_lasso(z, omega, u)

    return mm_driver(objective, polya_gamma_weights, polya_gamma_fused_lasso, beta, cfg)


# ---------------------------------------------------------------------------
# Logistic fused lasso by the Polya-Gamma envelope


def _logit_loss(y, m) -> LossSpec:
    """The validated binomial-logit loss of counts ``y`` out of ``m``
    (a scalar or one count per entry), with contiguous ``y`` and ``m``."""
    y = np.ascontiguousarray(y, dtype=float)
    m_arr = np.broadcast_to(np.asarray(m, dtype=float), y.shape).copy()
    if np.any(y < 0) or np.any(y > m_arr):
        raise ValidationError("need 0 <= y <= m")
    loss = LossSpec("binomial-logit", y=y, m=m_arr)
    if loss.n == 0:
        raise ValidationError("y must be nonempty")
    return loss


def logistic_fused_lasso(y, m, u_edges, init=None,
                         cfg: Optional[SolverConfig] = None) -> FitResult:
    """Stationary point of ``sum_i [m_i log(1+e^{b_i}) - y_i b_i] +
    sum_i u_i |b_{i+1} - b_i|``.

    Each cycle majorizes the logit terms by the paper's Gaussian
    scale-mixture envelope at the current iterate: the quadratic
    ``(omega_i/2)(b_i - z_i)^2`` with the Polya-Gamma weights
    ``omega_i = (m_i/2b_i) tanh(b_i/2)`` (the mean of the mixing variable;
    Polson, Scott & Windle 2013) and working responses
    ``z_i = (y_i - m_i/2)/omega_i``, which touches the loss there.  The
    resulting weighted fused lasso is solved exactly, so the objective is
    monotone.  The inputs are validated here, and the loop runs as
    :func:`envelope_fused_lasso_mm`.  Returns the MM run record: ``iters``
    cycles, their ``trace`` and whether the loop met ``cfg.tol`` within
    ``cfg.max_iters``.
    """
    cfg = cfg or SolverConfig()
    loss = _logit_loss(y, m)
    n = loss.n
    u = _edge_weights(u_edges, n)
    beta = _mm_start(init, np.zeros(n), n)
    return envelope_fused_lasso_mm("binomial-logit", loss.y, loss.m, u, beta, cfg)


# ---------------------------------------------------------------------------
# Level / knot counting


def distinct_levels(beta) -> int:
    """Number of distinct fitted levels, with adjacent values fused when
    they differ by <= 1e-6 * max(1, ||beta||_inf), as in ``_fldp.c``."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.size == 0:
        return 0
    tol = 1e-6 * max(1.0, float(np.max(np.abs(beta))))
    return int(1 + np.sum(np.abs(np.diff(beta)) > tol))


def count_knots(beta, k: int, rtol: float = 1e-6) -> int:
    """Nonzero entries of the order-(k+1) differences of beta."""
    beta = np.asarray(beta, dtype=float)
    D = diff_matrix(beta.shape[0], k)
    tol = rtol * max(1.0, float(np.max(np.abs(beta))))
    return int(np.sum(np.abs(D.apply(beta)) > tol))
