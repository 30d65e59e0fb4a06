"""Iterative drivers and structured subproblem solvers.

Contents:

* :func:`weighted_fused_lasso` -- exact dynamic program for
  ``sum_i (w_i/2)(z_i - b_i)^2 + sum_i u_i |b_{i+1} - b_i|`` via
  forward-backward message passing over piecewise-linear derivatives
  (clipping at +-u_i per edge).
* :func:`weighted_trend_filter` -- the exact minimizer of
  ``sum_i (w_i/2)(z_i - b_i)^2 + sum_j lam_j |(D b)_j|``, D the
  difference operator of order k+1, by a feasible active-set method on
  its dual box QP, one banded Cholesky per iteration.
* :func:`proximal_gradient` -- fixed-step forward-backward iteration for
  separable penalized likelihoods: the gradient step is the location
  envelope's update and the penalty's prox its solve, run by
  :func:`mm_driver`.
* :func:`mm_driver` -- the plain majorize/minimize loop of
  :func:`proximal_gradient`: each cycle is a closed-form envelope update
  ``update(beta) -> aux`` followed by the subproblem solve
  ``solve(aux, beta) -> beta``, with one objective evaluation and a
  monotonicity check per cycle.
* :func:`envelope_fused_lasso_path` -- one MM loop for the envelope fits
  whose subproblem is an exact fused lasso (Huber shift, Polya-Gamma
  weights, Polya-Gamma weights with the log penalty's edge weights,
  squared loss) or an exact trend filter (the check loss's variance-mean
  weights), extrapolated by safeguarded SQUAREM, run over a warm-started
  grid of penalty scales, that returns each fit's whole run record, df
  and final envelope variables included; :func:`envelope_fused_lasso_mm`
  is its one-fit case.
* :func:`logistic_fused_lasso` -- the logit's Gaussian scale-mixture
  envelope (Polya-Gamma weights) reducing each step to a weighted fused
  lasso.

The loops are compiled from one source, ``_fldp.c``: the DP, the trend
filter's dual active-set solve and :func:`envelope_fused_lasso_path`,
the whole MM loop of the five envelope fits for a whole warm-started
path in one call (the Huber location shift of the rfl path, the
Polya-Gamma weights of :func:`logistic_fused_lasso` and of the fdp
path's fused-lasso starts, the Polya-Gamma and log-penalty weights of
the fdp path, the squared loss of ``applications.fused_lasso_gaussian``,
exact in one map, and the variance-mean weights of the qrtf path; the
fits ``applications.fit_rfl``, ``fit_qrtf`` and ``fit_fdp`` are their
app's path on one lam), which also returns each fit's ``df`` and its
final envelope variables.  The library
is built on first use with the system C compiler, cached per user and
called through ctypes.  When no compiler or cache is available, or the
build or load fails (which warns), the same loops run in pure Python
(:func:`_fused_lasso_dp`, :func:`_tf_solve` and
:func:`_envelope_mm_python`, which repeat the C arithmetic and return
the same bits), which stay as the test oracles.
:data:`FUSED_LASSO_KERNEL` (``"c"`` or ``"python"``) says which
implementation of the loops runs.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cholesky_banded, cho_solve_banded

from .errors import MonotonicityError, ValidationError
from .losses import (_WEIGHT_CLAMP, LossSpec, lipschitz_bound, location_envelope_update,
                     loss_grad, loss_value)
from .operators import diff_matrix
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

    ``tol`` is relative objective change |f_t - f_{t+1}| / max(1, |f_t|)
    of an MM cycle (of a whole SQUAREM step in the envelope loops, where
    ``max_iters`` counts maps).  ``inner_max_iters`` and ``inner_tol``
    bound the dual active-set solve of :func:`weighted_trend_filter`, the
    only inner solver: the cap on its iterations (one banded Cholesky
    each) and the relative slack of its stop test on the signs of the
    bound multipliers; of the estimators, only qrtf's (its path and
    ``fit_qrtf``) read them.
    """

    max_iters: int = 500
    tol: float = 1e-8
    inner_max_iters: int = 2000
    inner_tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0 or not self.inner_tol > 0:
            raise ValidationError("tolerances must be positive")
        if self.max_iters < 1 or self.inner_max_iters < 1:
            raise ValidationError("iteration budgets must be positive")


@dataclass
class FitResult:
    """Fitted vector plus the run record.

    ``df`` counts distinct fitted levels (for trend filtering, k + 1 plus
    the knots: the dual rows at a bound); ``aux`` holds the final envelope
    variables of the run (auxiliary lambda/u/omega vectors, solver
    diagnostics).
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


_KERNEL_SOURCES = (Path(__file__).with_name("_fldp.c"),)
# -O3 for speed.  With no contraction (fma) and no fast-math it may not
# change an IEEE result, so the loops keep the bits they have at -O2.  No
# -march: the cache is keyed per user and compiler, not per CPU.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


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

    One library holds the compiled loops, the fused-lasso DP, the
    trend filter's dual solve and the envelope MM around them, so either
    all run in C or all in Python.  It also holds ``grid_scan``, the
    coupled-objective scan of the grid oracles' zoom search
    (``duality._zoom_min``), whose fallback is the numpy expression of
    ``duality.Coupling``; both give the same bits.  It is cached per
    user under ``$XDG_CACHE_HOME/envopt`` (or ``~/.cache/envopt``),
    named by a hash of the sources, the flags and the compiler, so each
    machine compiles each version once (the first use spends about 3 s
    compiling); a file lock lets exactly one of several concurrent
    processes build it.  It is loaded only from a directory that no
    other user can write to.  When a compiler exists but the build or
    load fails, one RuntimeWarning names the compiler and the end of its
    error output.
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
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        detail = "\n".join(stderr.strip().splitlines()[-5:]) or str(exc)
        warnings.warn(f"envopt: building or loading the C kernels with {cc} failed; "
                      f"using the Python loops, about 10x slower:\n{detail}",
                      RuntimeWarning, stacklevel=2)
        return None
    ptr, c_long, c_double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.fused_lasso_dp.argtypes = [ptr] * 3 + [c_long, ptr]
    lib.fused_lasso_dp.restype = ctypes.c_int
    lib.trend_filter_dual.argtypes = ([ptr] * 3 + [c_long, c_long, c_double, c_long]
                                      + [ptr] * 3)
    lib.trend_filter_dual.restype = ctypes.c_int
    lib.envelope_fused_lasso_path.argtypes = ([ctypes.c_int] + [ptr] * 4
                                              + [c_long, c_double, c_long, c_double,
                                                 c_long] + [ptr] * 5)
    lib.envelope_fused_lasso_path.restype = ctypes.c_int
    lib.grid_scan.argtypes = [ctypes.c_int] + [ptr] * 2 + [c_long] * 2 + [ptr] * 2 + [c_long] + [ptr] * 4
    lib.grid_scan.restype = None
    return lib


def __getattr__(name):
    # FUSED_LASSO_KERNEL is resolved on first use, so importing the
    # module never starts the compiler.  It names the implementation of
    # the compiled loops: the fused-lasso DP, the trend filter's dual
    # solve and the envelope MM around them, and the grid oracles'
    # coupled-objective scan ("python": its numpy expression).
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


def _edge_weights(u_edges, n: int):
    """``u_edges`` as ``n - 1`` edge weights, rejected unless nonnegative
    and finite: a scalar as a float (every edge weight equal), anything
    else as a contiguous float vector."""
    if isinstance(u_edges, (int, float)):  # a scalar lam, np.float64 included
        # a NaN fails both comparisons
        if u_edges < 0:
            raise ValidationError("edge weights must be nonnegative")
        if not u_edges < np.inf:
            raise ValidationError("inputs must be finite")
        return float(u_edges)
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
    if isinstance(u, float):
        u = np.full(n - 1, u)
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
# Weighted trend filtering by a dual active-set method


def weighted_trend_filter(z, omega, k: int, lam, cfg: Optional[SolverConfig] = None,
                          state: Optional[dict] = None):
    """Exact weighted trend filter of order ``k``.

    Minimizes ``sum_i (omega_i/2)(z_i - b_i)^2 + sum_j lam_j |(D b)_j|``,
    D the difference operator of order k+1, through its dual box QP
    ``min v'Av/2 - b'v`` subject to ``|v_j| <= lam_j``, with
    ``A = D diag(1/omega) D'`` (bandwidth k+1) and ``b = D z``; the primal is
    ``beta = z - D'v / omega``.  The dual is solved by a feasible
    active-set method (:func:`_tf_solve`): each iteration is one banded
    Cholesky of A on the free rows, and the solve ends after a step to the
    face minimum that leaves no bound with a wrong-signed multiplier
    beyond ``cfg.inner_tol`` relative.  ``cfg.inner_max_iters`` caps the
    iterations.  The solve runs in the C kernel (``_fldp.c``) when the
    compiled library loads and as its Python mirror otherwise, with the
    same bits.

    ``lam`` may be a scalar or a per-row vector; a row with ``lam_j = 0``
    is left free in the primal (its dual stays 0).  ``state``, if given,
    is read for the warm-start dual ``v`` and updated in place with the
    last dual ``v``, the ``iters`` run and whether the solve ``converged``
    (met its stop test within the cap).
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
    # a copy of the warm start: the solve overwrites it
    v = state.get("v")
    v = np.zeros(m) if v is None or v.shape != (m,) else np.array(v, dtype=float)
    lib = _kernel()
    if lib is None:
        winv, ab, b = _tf_bands(z, omega, k)
        iters, done, _ = _tf_solve(ab, b, lam_v, cfg.inner_tol, cfg.inner_max_iters, v)
        beta = _tf_primal(z, winv, v, k)
    else:
        beta, info = np.empty(n), np.empty(3)
        if lib.trend_filter_dual(z.ctypes.data, omega.ctypes.data, lam_v.ctypes.data, n, k,
                                 cfg.inner_tol, cfg.inner_max_iters, v.ctypes.data,
                                 beta.ctypes.data, info.ctypes.data):
            raise MemoryError("trend filter could not allocate its work arrays")
        iters, done = info[0], info[1]
    state.update(v=v, iters=int(iters), converged=bool(done))
    return beta


# The Python mirror of the dual solve in _fldp.c: tf_bands, tf_solve and
# tf_primal operation for operation.  Elementwise numpy arithmetic rounds
# as C does, and every sum runs in the C loop's order.


def _stencil(k: int) -> np.ndarray:
    """The order-(k+1) difference stencil, as ``_fldp.c`` builds it."""
    return diff_matrix(k + 2, k).stencil


def _tf_bands(z, omega, k):
    """``(1/omega, bands, D z)`` of the dual problem: ``bands[e, i]`` is
    ``A[i, i + e]`` of ``A = D diag(1/omega) D'`` (0 past the last row)."""
    s = _stencil(k)
    n, p = z.shape[0], k + 2
    m = n - p + 1
    winv = 1.0 / omega
    b = np.zeros(m)
    for j in range(p):
        b += s[j] * z[j:j + m]
    ab = np.zeros((p, m))
    for e in range(min(p, m)):
        for j in range(e, p):
            ab[e, :m - e] += (s[j] * s[j - e]) * winv[j:j + m - e]
    return winv, ab, b


def _band_matvec(c, y):
    """``C y`` for the symmetric banded ``C`` (``c[e, a] = C[a, a + e]``),
    each entry summed as ``band_matvec`` in ``_fldp.c`` sums it."""
    nr = y.shape[0]
    out = c[0, :nr] * y
    for e in range(1, min(c.shape[0], nr)):
        out[:nr - e] += c[e, :nr - e] * y[e:]
    for e in range(1, min(c.shape[0], nr)):
        out[e:] += c[e, :nr - e] * y[:nr - e]
    return out


# A pivot of the banded Cholesky at or below this fraction of its row's
# diagonal marks the row as numerically dependent on the rows before it
# (PIVOT_FLOOR in _fldp.c): a long run of free dual rows makes A
# numerically singular, and rounding leaves such pivots near or below 0.
_PIVOT_FLOOR = 1e-12


def _band_cholesky_solve(c, x):
    """``C^{-1} x`` by the banded Cholesky ``C = U'U`` of ``_fldp.c``
    (``band_cholesky`` then ``band_solve``), with every dependent row
    (see ``_PIVOT_FLOOR``) dropped from ``C`` and set to 0 in the
    result."""
    w = c.shape[0] - 1
    nr = x.shape[0]
    cols = c.T.tolist()
    u = [[0.0] * (w + 1) for _ in range(nr)]
    for a in range(nr):
        row = u[a]
        for e in range(min(w, nr - 1 - a) + 1):
            val = cols[a][e]
            for l in range(1, min(w - e, a) + 1):
                val -= u[a - l][l] * u[a - l][l + e]
            if e == 0:
                row[0] = math.sqrt(val) if val > _PIVOT_FLOOR * cols[a][0] else 0.0
            else:
                row[e] = val / row[0] if row[0] > 0.0 else 0.0
    x = x.tolist()
    for a in range(nr):
        val = x[a]
        for l in range(1, min(w, a) + 1):
            val -= u[a - l][l] * x[a - l]
        x[a] = val / u[a][0] if u[a][0] > 0.0 else 0.0
    for a in range(nr - 1, -1, -1):
        val = x[a]
        for l in range(1, min(w, nr - 1 - a) + 1):
            val -= u[a][l] * x[a + l]
        x[a] = val / u[a][0] if u[a][0] > 0.0 else 0.0
    return np.array(x)


def _tf_solve(ab, b, lam, tol, max_iters, v):
    """The feasible active-set method on the dual ``min v'Av/2 - b'v``,
    ``|v| <= lam``, of ``tf_solve`` in ``_fldp.c``, step for step.

    Rows with ``lam_j = 0`` are fixed at 0 and rows where ``v`` is at (or
    beyond) a bound on entry start at that bound.  Each iteration solves
    for the step ``d`` to the minimum ``x = v + d`` over the free rows,
    the bound rows (and any free row the factorization finds dependent)
    held.  When ``x`` lies in the box, ``v`` moves there and every bound
    whose multiplier ``(Av - b)_j`` has the wrong sign beyond
    ``tol * max(|b|_inf, |Av|_inf)`` is freed; the solve ends when none
    is.  Otherwise ``v`` takes whichever of two feasible steps lowers the
    dual more, each change ``t g'd + t^2 d'Ad / 2`` computed exactly (``g``
    the gradient on the free rows): the step ``t d`` cut at the first
    blocking bound, after which that bound is held; or the projected full
    step ``e = P(x) - v``, after which every row it clips is held.

    ``v`` is updated in place.  Returns ``(iters, converged, active)``:
    the iterations run, whether the solve ended on its test (not on
    ``max_iters`` or a face minimum that is not finite) and the rows held
    at a bound or fixed.
    """
    m = b.shape[0]
    top = float(np.max(np.abs(b)))
    st = np.zeros(m, dtype=np.int8)  # 1 or -1 at that bound, 0 free, 2 fixed
    fixed = lam == 0.0
    upper = ~fixed & (v >= lam)
    lower = ~fixed & ~upper & (v <= -lam)
    st[fixed], st[upper], st[lower] = 2, 1, -1
    v[fixed], v[upper], v[lower] = 0.0, lam[upper], -lam[lower]
    it, done = 0, False
    while not done and it < max_iters:
        it += 1
        idx = np.flatnonzero(st == 0)
        nf = idx.size
        held = st != 0
        r = b.copy()
        for l in range(1, min(ab.shape[0], m)):
            r[:m - l] -= np.where(held[l:], ab[l, :m - l] * v[l:], 0.0)
        for l in range(1, min(ab.shape[0], m)):
            r[l:] -= np.where(held[:m - l], ab[l, :m - l] * v[:m - l], 0.0)
        c = np.zeros((ab.shape[0], nf))
        c[0] = ab[0, idx]
        for l in range(1, min(ab.shape[0], nf)):
            gap = idx[l:] - idx[:-l]
            near = gap < ab.shape[0]
            c[l, :nf - l][near] = ab[gap[near], idx[:-l][near]]
        lam_f, v_f = lam[idx], v[idx]
        g = _band_matvec(c, v_f) - r[idx]
        d = _band_cholesky_solve(c, -g)
        x = v_f + d
        if not np.all(np.abs(x) < np.inf):
            break
        if np.all(np.abs(x) <= lam_f):
            v[idx] = x
            g = _band_matvec(ab, v)
            thr = max(top, float(np.max(np.abs(g)))) * tol
            grad = g - b
            wrong = ((st == 1) & (grad > thr)) | ((st == -1) & (grad < -thr))
            st[wrong] = 0
            done = not wrong.any()
            continue
        e = np.clip(x, -lam_f, lam_f) - v_f
        above, below = x > lam_f, x < -lam_f
        out = np.flatnonzero(above | below)
        ratio = (np.where(above[out], lam_f[out], -lam_f[out]) - v_f[out]) / d[out]
        blk = out[np.argmin(ratio)]
        t = min(max(float(np.min(ratio)), 0.0), 1.0)
        dcut = t * _in_order_sum(g * d) + 0.5 * t * t * _in_order_sum(d * _band_matvec(c, d))
        dproj = _in_order_sum(g * e) + 0.5 * _in_order_sum(e * _band_matvec(c, e))
        if dproj < dcut:
            v[idx] = np.where(above, lam_f, np.where(below, -lam_f, x))
            st[idx[above]], st[idx[below]] = 1, -1
        else:
            v[idx] = np.minimum(np.maximum(v_f + t * d, -lam_f), lam_f)
            i = idx[blk]
            st[i] = 1 if d[blk] > 0.0 else -1
            v[i] = st[i] * lam[i]
    return it, done, int(np.count_nonzero(st))


def _tf_primal(z, winv, v, k):
    """The primal ``z - D'v / omega`` of a dual ``v``, as ``tf_primal``."""
    s = _stencil(k)
    m = v.shape[0]
    dtv = np.zeros(z.shape[0])
    for j in range(k + 2):
        dtv[j:j + m] += s[j] * v
    return z - winv * dtv


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
    """Plain majorize/minimize loop: each cycle is ``solve(update(beta), beta)``.

    It runs :func:`proximal_gradient`; the envelope fits of the three
    estimators run :func:`envelope_fused_lasso_path`.

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


# The envelopes of envelope_fused_lasso_path, by fit kind: the code of each
# in _fldp.c, the name of its map's solve, which a MonotonicityError
# reports, and the final envelope variables its fits return in aux, each
# with n values (True) or one per row of D (False): the Huber shift or the
# log penalty's edge weights ("u"), or the check loss's variance-mean
# weights and working responses ("omega", "z") with the dual of the last
# trend filter ("v").
_ENVELOPES = {"huber": (0, "fused_lasso", (("u", True),)),
              "binomial-logit": (1, "polya_gamma_fused_lasso", ()),
              "gaussian": (2, "fused_lasso", ()),
              "fdp": (3, "log_penalty_fused_lasso", (("u", False),)),
              "check": (4, "trend_filter", (("omega", True), ("z", True), ("v", False)))}

# The values of a fit's info row in _fldp.c.
_INFO = 10

# The run of an envelope that is exact in one map: one solve, whose
# objective is the whole trace.
_ONE_SOLVE = SolverConfig(max_iters=1)

# The penalty scales of a single fit: a path of one fit at scale 1, which
# leaves every edge weight exactly as given.
_UNIT_SCALE = np.ones(1)
_UNIT_SCALE.setflags(write=False)


def envelope_fused_lasso_mm(kind: str, y, m, u, beta, cfg: SolverConfig,
                            a: float = 1.0, q: float = 0.5, k: int = 0,
                            v=None) -> FitResult:
    """One envelope fit with row penalties ``u``: the path of
    :func:`envelope_fused_lasso_path` with the single penalty scale 1."""
    return envelope_fused_lasso_path(kind, y, m, u, _UNIT_SCALE, beta, cfg, a, q, k, v)[0]


def _run_record(maps, steps, rejected, inner_iters=0, capped=0, rises=0) -> dict:
    """``aux["run"]`` of an envelope fit: its maps, SQUAREM steps, rejected
    extrapolations, inner trend-filter iterations, inner solves that hit
    their cap (0 and 0 for the fused-lasso envelopes, whose DP is exact)
    and rising maps that ended it (check loss only)."""
    return {"maps": maps, "steps": steps, "rejected": rejected,
            "inner_iters": inner_iters, "capped": capped, "rises": rises}


def envelope_fused_lasso_path(kind: str, y, m, u, lams, beta, cfg: SolverConfig,
                              a: float = 1.0, q: float = 0.5, k: int = 0,
                              v=None) -> list:
    """The MM loops of a warm-started path of envelope fits, and the whole
    run record of each fit.

    Fit ``l`` has the row penalties ``lams[l] * u``.  Fit 0 starts at
    ``beta`` and each later fit at the previous fit's last iterate.  Each
    fit's map ``F(beta)`` is the closed-form envelope update of the fit
    ``kind`` at ``beta`` and then an exact weighted fused lasso (the
    penalties are on the ``n - 1`` edges) or, for ``"check"``, an exact
    weighted trend filter of order ``k`` (on the ``n - k - 1`` rows of
    its difference operator):

    * ``"huber"``: the Huber location shift (threshold 1), a fused lasso
      on ``y - soft(y - beta, 1)`` with unit weights; ``aux["u"]`` is the
      shift at the last iterate.
    * ``"binomial-logit"``: the logit's Polya-Gamma weights
      (:func:`~envopt.losses.logit_scale_update`) with trial counts ``m``.
    * ``"fdp"``: the Polya-Gamma weights together with the log penalty
      ``sum_i u_i log(1 + |beta_{i+1} - beta_i| / a)`` linearized at
      ``beta``, whose edge weights are ``u_i / (a + |beta_{i+1} -
      beta_i|)``.  Each bound touches its own term at ``beta``, so their
      sum majorizes the objective; ``aux["u"]`` is the edge weights at the
      last iterate.
    * ``"gaussian"``: the squared loss, exact in one solve on ``y``; the
      record is ``iters=1``, ``converged=True`` and ``trace=[objective]``
      (run it with ``_ONE_SOLVE``; ``beta`` is not read and may be None).
    * ``"check"``: the check loss at quantile ``q``, majorized by its
      variance-mean quadratic with weights ``min(1/|y - beta|, 1e6)``
      (:func:`~envopt.losses.variance_mean_update`); ``aux["omega"]`` and
      ``aux["z"]`` are the weights and working responses at the last
      iterate, and ``aux["v"]`` the dual of the fit's last trend filter.
      With ``beta`` None, fit 0 starts at the trend filter of ``y`` with
      unit weights.  The trend filters are solved by the dual active-set
      method of :func:`weighted_trend_filter`, to ``cfg.inner_tol`` within
      ``cfg.inner_max_iters`` iterations, each warm-started at the dual of
      the solve before it.  That dual is carried from fit to fit, and the
      dual ``v`` (0 when None) into fit 0; at the start of each fit it is
      scaled into the fit's box (:func:`_scale_dual`), which along a
      decreasing grid is the scaling by ``lam_new / lam_old``.  The clamped weights do not
      majorize the loss where a residual is below 1e-6, so a plain map
      may rise: that ends the fit at its last accepted iterate, converged
      only when the rise is within ``cfg.tol`` relative, and the path goes
      on.  A fit also reports ``converged=False`` when any of its trend
      filters did not meet its stop test.
      ``df`` is the count of dual rows at a bound plus ``k + 1``.

    The iterative envelopes are extrapolated by safeguarded SQUAREM
    (Varadhan & Roland 2008, *Scand. J. Statist.* 35:335-353).  A step
    takes the plain maps ``b1 = F(b0)`` and ``b2 = F(b1)``, the steplength
    ``alpha = min(-|r|/|v|, -1)`` with ``r = b1 - b0`` and
    ``v = b2 - 2 b1 + b0`` (-1 when ``v = 0``), and one map at
    ``b0 - 2 alpha r + alpha^2 v``, kept only when its objective is at
    most ``f(b2)``; otherwise the step ends at ``b2``.  With fewer than
    three maps left in ``cfg.max_iters`` the loop takes plain maps.
    ``iters`` counts maps, and the trace holds ``iters + 1``
    non-increasing values, a rejected extrapolation repeating its step's
    plain value.  A fit converges when the relative objective change over
    a whole step (or plain map) falls to ``cfg.tol``.  ``aux["run"]`` is
    the record of :func:`_run_record`.  ``df`` is
    :func:`distinct_levels` for the fused-lasso envelopes.

    The whole path, the objectives and ``df`` included, runs in one call
    of the compiled kernel (``_fldp.c``).  When the kernel did not load,
    :func:`_envelope_mm_python` runs the same fits and maps in Python.
    The caller validates the inputs: ``y`` (and ``m``) contiguous, finite
    and, for the logit, ``0 <= y <= m`` with ``m >= 1``; ``u`` a scalar or
    one nonnegative finite penalty per row; ``lams`` a float vector of
    nonnegative finite scales; ``a`` positive and finite for ``"fdp"``;
    ``0 < q < 1``, ``k >= 0`` and ``n >= k + 2`` for ``"check"``; a start
    ``beta`` from :func:`_mm_start`, which is not changed.  Outside the
    check loss, a plain map that raises the objective raises
    :class:`MonotonicityError` naming the solve; a value that is not
    finite raises :class:`ValidationError`; each with the values of the
    fit where it happened, and no later fit runs.  Returns the fits in the
    order of ``lams``; the iterates and final envelope variables of a path
    are views of one block.
    """
    lib = _kernel()
    if lib is None:
        return _envelope_mm_python(kind, y, m, u, lams, beta, cfg, a, q, k, v)
    code, solve_name, envvars = _ENVELOPES[kind]
    n, fits = y.shape[0], lams.shape[0]
    rows, check = n - k - 1, kind == "check"
    slots, width = [], 0  # (name, first, end) of each envelope variable in a fit's row
    for name, full in envvars:
        slots.append((name, width, width + (n if full else rows)))
        width = slots[-1][2]
    record = kind != "gaussian"  # as _fldp.c decides: the squared loss's trace is one value
    # One block holds the inputs, the iterates, the envelope variables, the
    # info rows and, unrecorded, the one-value traces, so one address serves
    # every pointer.  Recorded traces are written one after another into
    # their own buffer, which the fits copy from, so they do not keep it
    # alive and the pages past the written part are never touched.
    o_m = n
    o_u = o_m + (0 if m is None else n)
    o_lam = o_u + rows
    o_check = o_lam + fits
    o_beta = o_check + (5 + rows if check else 0)
    o_env = o_beta + fits * n
    o_info = o_env + fits * width
    o_trace = o_info + _INFO * fits + 1
    block = np.empty(o_trace + (0 if record else fits))
    block[:o_m] = y
    if m is not None:
        block[o_m:o_u] = m
    block[o_u:o_lam] = u
    block[o_lam:o_check] = lams
    if check:  # the check envelope's parameters, then the dual of its first solve
        block[o_check:o_check + 5] = (q, k, cfg.inner_tol, cfg.inner_max_iters, beta is None)
        block[o_check + 5:o_beta] = 0.0 if v is None else v
    if beta is not None:
        block[o_beta:o_beta + n] = beta
    at = ctypes.addressof(ctypes.c_char.from_buffer(block))  # cheaper than .ctypes.data
    if record:
        traces = np.empty(fits * (cfg.max_iters + 1))
        trace_at = ctypes.addressof(ctypes.c_char.from_buffer(traces))
    else:
        traces, trace_at = block[o_trace:], at + 8 * o_trace
    status = lib.envelope_fused_lasso_path(
        code, at, None if m is None else at + 8 * o_m, at + 8 * o_u,
        at + 8 * o_lam, fits, a, n, cfg.tol, cfg.max_iters, at + 8 * o_beta,
        trace_at, at + 8 * o_env if envvars else None, at + 8 * o_info,
        at + 8 * o_check if check else None)
    info = block[o_info:o_trace].tolist()
    if status == 1:
        raise MemoryError("envelope MM could not allocate its work arrays")
    if status == 2:
        raise ValidationError("an MM cycle met a value that is not finite")
    if status == 3:
        failed = _INFO * int(info[-1])
        raise MonotonicityError(solve_name, info[failed + 2], info[failed + 3])
    out, t = [], 0
    for l in range(fits):
        maps, converged, obj, _, df, steps, rejected, inner, capped, rises = \
            info[_INFO * l:_INFO * (l + 1)]
        iters = int(maps)
        if record:  # a copy: a view would pin the whole buffer
            trace = traces[t:t + iters + 1].copy()
            t += iters + 1
        else:
            trace = traces[l:l + 1]
        # the record of _run_record, written out: a call costs about 0.5 us
        aux = {"run": {"maps": iters, "steps": int(steps), "rejected": int(rejected),
                       "inner_iters": int(inner), "capped": int(capped), "rises": int(rises)}}
        base = o_env + l * width
        for name, first, end in slots:
            aux[name] = block[base + first:base + end]
        # beta, objective, trace, iters, converged, df, aux: passed by
        # position, which costs about 1 us less per fit than by keyword
        out.append(FitResult(block[o_beta + l * n:o_beta + (l + 1) * n], obj, trace, iters,
                             bool(converged), int(df), aux))
    return out


def _in_order_sum(x) -> float:
    """``x[0] + x[1] + ...`` left to right, as the C loops sum."""
    return float(np.add.accumulate(x)[-1]) if x.size else 0.0


def _softplus(b):
    """``log(1 + e^b)`` per entry, as ``_fldp.c`` evaluates it with the C
    library's ``exp`` and ``log1p``."""
    return np.array([math.log(2.0) if x == 0.0 else math.log1p(math.exp(x)) if x < 0.0
                     else x + math.log1p(math.exp(-x)) for x in b.tolist()])


def _envelope_mm_python(kind, y, m, u, lams, beta, cfg, a=1.0, q=0.5, k=0,
                        v=None) -> list:
    """:func:`envelope_fused_lasso_path` in Python, fit for fit: the
    fallback of the compiled path and its test oracle."""
    u = np.broadcast_to(u, (y.shape[0] - k - 1,))
    v = np.zeros(u.shape) if v is None else v
    fits = []
    for lam in lams:
        fits.append(_envelope_fit_python(kind, y, m, lam * u, beta, cfg, a, q, k, v))
        beta = fits[-1].beta
        v = fits[-1].aux.get("v")
    return fits


def _scale_dual(v, pen):
    """``v`` scaled into the box ``|v_j| <= pen_j`` by the largest
    ``t <= 1`` that fits it there, as ``scale_dual`` in ``_fldp.c``: over
    the rows with ``pen_j > 0`` (the rest go to 0), ``t`` is the least
    ``pen_j / |v_j|``, and a row that attains it lands on its bound."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((pen > 0.0) & (v != 0.0), pen / np.abs(v), np.inf)
    t = min(1.0, float(np.min(ratio, initial=np.inf)))
    return np.where(pen > 0.0, np.where(ratio <= t, np.copysign(pen, v), v * t), 0.0)


class _Rise(Exception):
    """A plain map of the check-loss envelope raised the objective."""


def _envelope_fit_python(kind, y, m, u, beta, cfg, a, q=0.5, k=0, v=None) -> FitResult:
    """One fit of :func:`_envelope_mm_python`, map for map.

    It repeats the arithmetic of ``_fldp.c`` operation for operation: the
    transcendental functions come from the C library (:mod:`math`), sums
    run left to right, the DP is :func:`_fused_lasso_dp` and the trend
    filter :func:`_tf_solve`.  It returns the compiled loop's bits
    wherever the two share a C library."""
    solve_name = _ENVELOPES[kind][1]
    n = y.shape[0]
    ones = np.ones(n)
    huber = LossSpec("huber", y=y) if kind == "huber" else None
    stencil = _stencil(k)
    dual = {"v": _scale_dual(v, u) if kind == "check" else None,
            "iters": 0, "capped": 0, "act": 0}

    def edge_weights(b):
        return u / (a + np.abs(np.diff(b))) if kind == "fdp" else u

    def objective(b):
        if kind == "huber":
            r = np.abs(y - b)
            loss = np.where(r < 1.0, 0.5 * r * r, r - 0.5)
        elif kind == "gaussian":
            r = y - b
            loss = 0.5 * r * r
        elif kind == "check":
            r = y - b
            loss = np.abs(r) + (2.0 * q - 1.0) * r
        else:
            loss = m * _softplus(b) - y * b
        if kind == "check":
            d = np.zeros(n - k - 1)
            for j in range(k + 2):
                d += stencil[j] * b[j:j + n - k - 1]
            d = np.abs(d)
        else:
            d = np.abs(np.diff(b))
        if kind == "fdp":
            d = np.array([math.log1p(x) for x in (d / a).tolist()])
        return _in_order_sum(loss) + _in_order_sum(u * d)

    def update(b):
        """The weights and working responses at ``b``, or None when one is
        not finite."""
        if kind == "huber":
            return ones, y - location_envelope_update(huber, b)
        if kind == "gaussian":
            return ones, y
        with np.errstate(all="ignore"):
            if kind == "check":
                w = 1.0 / np.abs(y - b)
                w = np.where(w < _WEIGHT_CLAMP, w, _WEIGHT_CLAMP)
                z = y - (1.0 - 2.0 * q) / w
            else:
                h = 0.5 * b
                ratio = np.array([1.0 - x * x / 3.0 if abs(x) < 1e-6 else math.tanh(x) / x
                                  for x in h.tolist()])
                w = 0.25 * m * ratio
                z = (y - m / 2.0) / w
        if not (np.all(w > 0.0) and np.all(np.abs(w) < np.inf)
                and np.all(np.abs(z) < np.inf)):
            return None
        return w, z

    def trend_filter(z, w):
        winv, ab, bz = _tf_bands(z, w, k)
        iters, done, dual["act"] = _tf_solve(ab, bz, u, cfg.inner_tol, cfg.inner_max_iters,
                                             dual["v"])
        dual["iters"] += iters
        dual["capped"] += not done
        return _tf_primal(z, winv, dual["v"], k)

    def envelope_map(b):
        """``F(b)`` and its objective, or None when a value is not finite."""
        weights = update(b)
        if weights is None:
            return None
        w, z = weights
        if kind == "check":
            new = trend_filter(z, w)
        else:
            ue = edge_weights(b)
            new = _fused_lasso_dp(z, w, ue) if n > 1 and ue.max() > 0 else z.copy()
        value = objective(new)
        return (new, value) if abs(value) < np.inf else None

    def plain_map(b, obj):
        out = envelope_map(b)
        if out is None:
            raise ValidationError("an MM cycle met a value that is not finite")
        if out[1] > obj + 1e-10 * max(1.0, abs(obj)):
            if kind == "check":
                raise _Rise(obj, out[1])
            raise MonotonicityError(solve_name, obj, out[1])
        trace.append(out[1])
        return out

    def extrapolated_map(b0, b1, b2):
        """The step's third map, or None when it is not finite."""
        with np.errstate(all="ignore"):
            r = b1 - b0
            v = b2 - 2.0 * b1 + b0
            rr, vv = _in_order_sum(r * r), _in_order_sum(v * v)
            bx = b2  # alpha = -1
            if vv > 0.0 and rr > vv:
                alpha = -math.sqrt(rr / vv)
                bx = b0 - 2.0 * alpha * r + alpha * alpha * v
            if not np.all(np.abs(bx) < np.inf):
                return None
            return envelope_map(bx)

    steps = rejected = rises = 0
    # until a solve gives beta, df counts the bounds of the start dual
    act = int(np.count_nonzero(~(np.abs(dual["v"]) < u))) if kind == "check" else 0
    trace = []
    if kind == "check" and beta is None:
        beta = trend_filter(y, ones)
        act = dual["act"]
    if kind == "gaussian":
        beta, obj = plain_map(beta, np.inf)
        converged = True
    else:
        obj = _finite(objective(beta))
        trace.append(obj)
        converged = False
    try:
        while not converged and len(trace) - 1 < cfg.max_iters:
            start = obj
            if cfg.max_iters - (len(trace) - 1) >= 3:
                steps += 1
                b1, f1 = plain_map(beta, obj)
                act1 = dual["act"]
                try:
                    b2, f2 = plain_map(b1, f1)
                except _Rise:
                    beta, obj, act = b1, f1, act1
                    raise
                act = dual["act"]
                third = extrapolated_map(beta, b1, b2)
                if third is not None and third[1] <= f2:
                    beta, obj = third
                    act = dual["act"]
                else:
                    rejected += 1
                    beta, obj = b2, f2
                trace.append(obj)
            else:
                beta, obj = plain_map(beta, obj)
                act = dual["act"]
            converged = abs(start - obj) <= cfg.tol * max(1.0, abs(start))
    except _Rise as rise:
        before, after = rise.args
        rises = 1
        converged = after - before <= cfg.tol * max(1.0, abs(before))
    iters = 1 if kind == "gaussian" else len(trace) - 1
    aux = {"run": _run_record(iters, steps, rejected, dual["iters"], dual["capped"], rises)}
    if kind == "huber":
        aux["u"] = location_envelope_update(huber, beta)
    elif kind == "fdp":
        aux["u"] = edge_weights(beta)
    elif kind == "check":
        aux["omega"], aux["z"] = update(beta)
        aux["v"] = dual["v"]
        converged = converged and not dual["capped"]
    df = act + k + 1 if kind == "check" else distinct_levels(beta)
    return FitResult(beta=beta, objective=obj,
                     trace=np.asarray(trace),
                     iters=iters, converged=converged, df=df, aux=aux)


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


def _check_finite_minimizer(loss: LossSpec, u) -> None:
    """Reject counts whose logit fit has no finite minimizer.

    The coefficients joined by positive edge weights ``u`` form runs.  When
    every count of a run is 0 (or every count is m), moving the run's
    common log odds toward -inf (or +inf) lowers the loss and leaves the
    penalty unchanged, so no finite point attains the infimum.  Any other
    run pays either loss or penalty to leave every bounded set."""
    y, m = loss.y, loss.m
    starts = np.flatnonzero(np.concatenate(([True], np.broadcast_to(u, (loss.n - 1,)) == 0)))
    for ok, bound in ((np.logical_or.reduceat(y > 0, starts), "0"),
                      (np.logical_or.reduceat(y < m, starts), "m")):
        if not ok.all():
            first = int(np.argmin(ok))
            last = (starts[first + 1] if first + 1 < starts.size else loss.n) - 1
            raise ValidationError(
                f"no finite minimizer: the counts {starts[first]}..{last}, a run of "
                f"coefficients joined by positive edge weights, are all {bound}")


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
    monotone.  The inputs are validated here, counts with no finite
    minimizer included (:func:`_check_finite_minimizer`), and the loop runs
    as :func:`envelope_fused_lasso_mm`, extrapolated by SQUAREM.  Returns
    the MM run record: ``iters`` maps, their ``trace``, whether the loop
    met ``cfg.tol`` within ``cfg.max_iters`` and ``aux["run"]``.
    """
    cfg = cfg or SolverConfig()
    loss = _logit_loss(y, m)
    n = loss.n
    u = _edge_weights(u_edges, n)
    _check_finite_minimizer(loss, u)
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
