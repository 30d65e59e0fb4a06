"""Iterative drivers and structured subproblem solvers.

Contents:

* :func:`weighted_fused_lasso` -- exact dynamic program for
  ``sum_i (w_i/2)(z_i - b_i)^2 + sum_i u_i |b_{i+1} - b_i|`` via
  forward-backward message passing over piecewise-linear derivatives
  (clipping at +-u_i per edge).
* :func:`weighted_trend_filter` -- the exact minimizer of
  ``sum_i (w_i/2)(z_i - b_i)^2 + sum_j lam_j |(D b)_j|``, D the
  difference operator of order k+1, by a feasible active-set method on
  its dual box QP, one banded Cholesky face solve per iteration.
* :func:`proximal_gradient` -- fixed-step forward-backward iteration for
  separable penalized likelihoods: the gradient step is the location
  envelope's update and the penalty's prox its solve, run by
  :func:`mm_driver`.
* :func:`mm_driver` -- the plain majorize/minimize loop of
  :func:`proximal_gradient`: each cycle is a closed-form envelope update
  ``update(beta) -> aux`` followed by the subproblem solve
  ``solve(aux, beta) -> beta``, with one objective evaluation and a
  monotonicity check per cycle.
* :func:`envelope_fused_lasso_path` -- one MM loop for the envelope fits,
  whose subproblem is an exact fused lasso (certified in closed form on
  the runs of the map's input, or else the DP) or, given an order ``k``,
  an exact trend filter (the Huber shift, Polya-Gamma weights, Polya-Gamma
  weights with the log penalty's edge weights, the weighted squared loss
  and the check loss's variance-mean weights), extrapolated by
  safeguarded SQUAREM, run over a warm-started grid of penalty scales,
  that returns each fit's whole run record, df and final envelope
  variables included; :func:`envelope_fused_lasso_mm` is its one-fit
  case.
* :func:`logistic_fused_lasso` -- the logit's Gaussian scale-mixture
  envelope (Polya-Gamma weights) reducing each step to a weighted fused
  lasso.

The loops are compiled from one source, ``_fldp.c``, whose one entry is
:func:`envelope_fused_lasso_path`: the whole MM loop of the five
envelope fits for a whole warm-started path in one call (the Huber
location shift of the rfl path, the Polya-Gamma weights of
:func:`logistic_fused_lasso` and of the fdp path's fused-lasso starts,
the Polya-Gamma and log-penalty weights of the fdp path, the squared loss
of ``applications.fused_lasso_gaussian``, exact in one map, and the
variance-mean weights of the qrtf path; the fits ``applications.fit_rfl``,
``fit_qrtf`` and ``fit_fdp`` are their app's path on one lam), which also
returns each fit's ``df`` and its final envelope variables.  Its two
subproblems, the DP and the trend filter's dual solve, have no entry of
their own: :func:`weighted_fused_lasso` and :func:`weighted_trend_filter`
validate their inputs and run the weighted squared loss as a one-solve
fit of that loop.  The library is built on first use with the system C
compiler, cached per user and called through ctypes.  When no compiler or
cache is available, or the build or load fails (which warns), the same
loops run in pure Python (:func:`_envelope_mm_python`, with the certified
solve :func:`_certified_solve`, the DP :func:`_fused_lasso_dp` and the
dual solve :func:`_tf_solve`, which repeat
the C arithmetic and return the same bits), which stay as the test
oracles.  The choice is made once, in :func:`envelope_fused_lasso_path`.
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

from .errors import (MonotonicityError, ValidationError, _count, _float_vector, _penalties,
                     _response, _weights)
from .losses import (_WEIGHT_CLAMP, LossSpec, _loss_grad_at, _loss_value_at, lipschitz_bound,
                     location_envelope_update)
from .operators import diff_matrix
from .penalties import PenaltySpec, _prox_flat, _prox_step, penalty_value

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
    only inner solver: the cap on its iterations (one face solve each: the
    banded Cholesky of the free rows and its two substitutions, of which
    the compiled solve redoes only the rows after those it keeps, see
    :func:`_tf_solve`) and the relative slack of its stop test on the
    signs of the bound multipliers; of the estimators, only qrtf's (its
    path and ``fit_qrtf``) read them.  The budgets must be integers >= 1
    and the tolerances positive and finite.
    """

    max_iters: int = 500
    tol: float = 1e-8
    inner_max_iters: int = 2000
    inner_tol: float = 1e-10

    def __post_init__(self):
        # a NaN fails every comparison
        if not (0 < self.tol < np.inf and 0 < self.inner_tol < np.inf):
            raise ValidationError("tolerances must be positive and finite")
        _count(self.max_iters, "max_iters", 1)
        _count(self.inner_max_iters, "inner_max_iters", 1)


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
    """Pure-Python DP: the map's solve in :func:`_envelope_fit_python`,
    the fallback of the compiled DP and its test oracle."""
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


def _certified_solve(z, w, u, hint):
    """``certified`` in ``_fldp.c``: the weighted fused lasso of
    :func:`_fused_lasso_dp` on the fused groups of ``hint``, or None when
    the KKT test fails.

    The groups are the runs of ``hint`` (maximal stretches of bit-equal
    values), and each jump between runs keeps its sign ``sig``.  Each run
    ``s..e`` takes the level ``(sum w z - u_{s-1} sig_{s-1} + u_e sig_e) /
    sum w``, each sum in order.  The levels pass when every jump keeps its
    sign strictly and the running sum ``g_j = sum_{i <= j} w_i (z_i -
    b_i)`` has ``|g_j| <= u_j`` on every fused edge: those are the KKT
    conditions (Hoefling 2010, *JCGS* 19:984-1006), and ``w > 0`` makes
    the minimizer unique.  The levels are summed in a loop over floats,
    whose arithmetic is C's; ``g`` is one ``np.add.accumulate``."""
    n = z.shape[0]
    d = np.diff(hint)
    sig = np.where(d > 0.0, 1.0, np.where(d < 0.0, -1.0, 0.0))
    zl, wl, ul, sl = z.tolist(), w.tolist(), u.tolist(), sig.tolist()
    levels = []
    s = 0
    while s < n:
        swz, sw = wl[s] * zl[s], wl[s]
        e = s
        while e < n - 1 and sl[e] == 0.0:
            e += 1
            swz += wl[e] * zl[e]
            sw += wl[e]
        if s > 0:
            swz -= ul[s - 1] * sl[s - 1]
        if e < n - 1:
            swz += ul[e] * sl[e]
        levels += [swz / sw] * (e + 1 - s)
        s = e + 1
    beta = np.array(levels)
    jump = sig != 0.0
    if not np.all(sig[jump] * np.diff(beta)[jump] > 0.0):
        return None
    g = np.add.accumulate(w * (z - beta))
    if not np.all(np.abs(g[:-1][~jump]) <= u[~jump]):
        return None
    return beta


def _solve_penalties(z, w, pen, umax):
    """``solve_penalties`` in ``_fldp.c``: the edge penalties ``pen`` of a
    fused-lasso solve on ``(z, w)``, clamped at ``G = 2 n max|z| max w``
    when ``umax`` (a bound on the fit's penalties) exceeds ``G``.  The
    solution lies in ``[min z, max z]``, so no ``|g_j|`` of
    :func:`_certified_solve` exceeds ``max|z| sum w <= G / 2``: the clamp
    leaves the minimizer and its fused edges as they are, and keeps the
    DP's messages at the scale of the data."""
    cap = 2.0 * z.shape[0] * float(np.max(np.abs(z))) * float(np.max(w))
    return np.where(pen > cap, cap, pen) if umax > cap else pen


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

    It declares one entry, ``envelope_fused_lasso_path``: the envelope
    MM with its two subproblems, the fused-lasso DP and the trend
    filter's dual solve, and the only way into them
    (:func:`weighted_fused_lasso` and :func:`weighted_trend_filter` are
    its one-solve fits), so either all run in C or all in Python.
    The library is cached per
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
    lib.envelope_fused_lasso_path.argtypes = ([ctypes.c_int] + [ptr] * 4
                                              + [c_long, c_double, c_long, c_double,
                                                 c_long] + [ptr] * 5)
    lib.envelope_fused_lasso_path.restype = ctypes.c_int
    return lib


def __getattr__(name):
    # FUSED_LASSO_KERNEL is resolved on first use, so importing the
    # module never starts the compiler.  It names the implementation of
    # the compiled loops: the envelope MM with its two subproblems, the
    # fused-lasso DP and the trend filter's dual solve.
    if name == "FUSED_LASSO_KERNEL":
        return "python" if _kernel() is None else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def weighted_fused_lasso(z, omega, u_edges):
    """Exact global minimizer of the weighted 1-d fused lasso.

    Minimizes ``sum_i (omega_i/2)(z_i - beta_i)^2 +
    sum_i u_i |beta_{i+1} - beta_i|``.  The problem is strictly convex,
    so the dynamic program returns the unique solution.  The inputs follow
    the package's input rules (README, "Input rules"), and the solve is
    the one-solve squared-loss fit of :func:`envelope_fused_lasso_mm` with
    weights ``omega``, whose map is the DP (the compiled loop, or
    :func:`_fused_lasso_dp` in its Python mirror, with the same bits).
    """
    z = _response(z, 1, "z")
    n = z.shape[0]
    omega = _weights(omega, n)
    u = _penalties(u_edges, n - 1)
    fit = envelope_fused_lasso_path("gaussian", z, omega, u, _UNIT_SCALE, None, _ONE_SOLVE)[0]
    return fit.beta


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
    active-set method (:func:`_tf_solve`): each iteration solves for the
    minimum over the free rows by the banded Cholesky of A there, and the
    solve ends after a step to the face minimum that leaves no bound with
    a wrong-signed multiplier beyond ``cfg.inner_tol`` relative.
    ``cfg.inner_max_iters`` caps the iterations.  The inputs follow the
    package's input rules (README, "Input rules"), and the solve is the
    one-solve squared-loss fit of :func:`envelope_fused_lasso_mm` with
    weights ``omega`` and order ``k`` (the compiled loop, or its Python
    mirror, with the same bits).

    ``lam`` may be a scalar or a per-row vector; a row with ``lam_j = 0``
    is left free in the primal (its dual stays 0).  ``state``, if given,
    is read for the warm-start dual ``v`` and updated in place with the
    last dual ``v``, the ``iters`` run and whether the solve ``converged``
    (met its stop test within the cap).  The warm start is scaled into the
    box ``|v_j| <= lam_j`` by the largest factor ``t <= 1`` that fits it
    there (:func:`_scale_dual`), which leaves a start inside the box as it
    is; a start outside the box is scaled as a whole, not clipped row by
    row.
    """
    cfg = cfg or SolverConfig()
    k = _count(k, "order k", 0)
    z = _response(z, k + 2, "z")
    n = z.shape[0]
    omega = _weights(omega, n)
    m = n - k - 1
    lam = _penalties(lam, m, "lam")
    if state is None:
        state = {}
    v = state.get("v")  # a warm start of another length is ignored
    fit = envelope_fused_lasso_mm("gaussian", z, omega, lam, None, cfg, k=k,
                                  v=None if np.shape(v) != (m,) else v)
    state.update(v=fit.aux["v"], iters=fit.aux["run"]["inner_iters"],
                 converged=fit.converged)
    return fit.beta


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


def _face_solve(c, r, v_f):
    """The face minimum ``C^{-1} r`` of ``tf_solve`` in ``_fldp.c``: the
    banded Cholesky ``C = U'U`` row by row, each row forward-substituted
    as it is factored (``tf_factor``), then the back substitution.  A
    dependent row (see ``_PIVOT_FLOOR``) is dropped from ``C`` and held at
    its value in ``v_f``: its column times that value moves into the
    right-hand sides of the ``w`` rows before it and the ``w`` after it,
    and the rows before it take new forward values.  Returns the face
    minimum, the right-hand side after those moves and the dependent
    rows."""
    w = c.shape[0] - 1
    nf = r.shape[0]
    cols = c.T.tolist()
    r = r.tolist()
    u = [[0.0] * (w + 1) for _ in range(nf)]
    y = [0.0] * nf

    def forward(a):
        val = r[a]
        for l in range(1, min(w, a) + 1):
            val -= u[a - l][l] * y[a - l]
        return val / u[a][0] if u[a][0] > 0.0 else 0.0

    for a in range(nf):
        row = u[a]
        for e in range(min(w, nf - 1 - a) + 1):
            val = cols[a][e]
            for l in range(1, min(w - e, a) + 1):
                val -= u[a - l][l] * u[a - l][l + e]
            if e == 0:
                row[0] = math.sqrt(val) if val > _PIVOT_FLOOR * cols[a][0] else 0.0
            else:
                row[e] = val / row[0] if row[0] > 0.0 else 0.0
        if row[0] > 0.0:
            y[a] = forward(a)
            continue
        va = float(v_f[a])
        for l in range(1, min(w, a) + 1):
            r[a - l] -= cols[a - l][l] * va
        for l in range(1, min(w, nf - 1 - a) + 1):
            r[a + l] -= cols[a][l] * va
        for l in range(min(w, a), 0, -1):
            y[a - l] = forward(a - l)
    x = y
    for a in range(nf - 1, -1, -1):
        val = x[a]
        for l in range(1, min(w, nf - 1 - a) + 1):
            val -= u[a][l] * x[a + l]
        x[a] = val / u[a][0] if u[a][0] > 0.0 else 0.0
    dependent = np.array([not row[0] > 0.0 for row in u], dtype=bool)
    x = np.array(x)
    x[dependent] = v_f[dependent]
    return x, np.array(r), dependent


def _tf_solve(ab, b, lam, tol, max_iters, v):
    """The feasible active-set method on the dual ``min v'Av/2 - b'v``,
    ``|v| <= lam``, of ``tf_solve`` in ``_fldp.c``, step for step.

    Rows with ``lam_j = 0`` are fixed at 0 and rows where ``v`` is at (or
    beyond) a bound on entry start at that bound.  Each iteration solves
    for the minimum ``x`` over the free rows, the bound rows (and any free
    row the factorization finds dependent) held, directly from the face's
    right-hand side (:func:`_face_solve`), and steps by ``d = x - v``.
    When ``x`` lies in the box, ``v`` moves there and every bound whose
    multiplier ``(Av - b)_j`` has the wrong sign beyond
    ``tol * max(|b|_inf, |Av|_inf)`` is freed; the solve ends when none
    is.  Otherwise ``v`` takes a projected search along ``P(v + t d)``
    (:func:`_projected_search`; Moré & Toraldo 1991, *SIAM J. Optim.*
    1:93-113): it holds the row of the first breakpoint, as the cut at
    the first blocking bound would, then each row it passes while the
    dual's slope along the arc, from the gradient at ``v`` computed
    directly, stays negative, and stops at the slope's root, at most at
    ``P(x)``.  It lowers the dual at least as much as the cut.
    The compiled solve keeps the face rows before the rows whose status
    changed from one iteration to the next; this mirror refactors every
    row, and the two agree bit for bit.

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
        x, r_f, dependent = _face_solve(c, r[idx], v_f)
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
        # the gradient at v from r_f, which carries the dependent rows' terms
        g = _band_matvec(c, np.where(dependent, 0.0, v_f)) - r_f
        _projected_search(c, g, x, v, st, idx, lam)
    return it, done, int(np.count_nonzero(st))


def _projected_search(c, g, x, v, st, idx, lam):
    """The step of :func:`_tf_solve` when the face minimum ``x`` leaves
    the box, as ``tf_solve`` in ``_fldp.c`` takes it: a projected search
    along ``P(v + t d)``, ``d = x - v`` on the free rows ``idx`` (face
    bands ``c``, gradient ``g`` at ``v``).  It holds the row of the first
    breakpoint (breakpoints in the order ``(t, position)``) and then every
    row it passes while the slope of the dual stays negative, and stops at
    the slope's root (at most ``t = 1``).  With the rows held so far the
    arc is ``t D + H`` (``D`` is ``d`` with those rows zeroed, ``H`` holds
    ``t_b d_b`` in each held row ``b``), whose slope is
    ``g'D + t D'CD + D'CH``; holding a row updates the three scalars and
    the vectors ``CD`` and ``CH`` in its band only.  ``v`` and the
    statuses ``st`` are updated in place."""
    nf = idx.size
    lam_f, v_f = lam[idx], v[idx]
    d = x - v_f
    # the breakpoints in the order (t, position)
    above = x > lam_f
    out = np.flatnonzero(above | (x < -lam_f))
    ratio = (np.where(above[out], lam_f[out], -lam_f[out]) - v_f[out]) / d[out]
    breaks = sorted(zip(ratio.tolist(), out.tolist()))
    # C D, with D = d and H = 0 before any row is held
    cd = _band_matvec(c, d)
    gd, dcd, dch = _in_order_sum(g * d), _in_order_sum(d * cd), 0.0
    g, dl, cd, ch, cols = g.tolist(), d.tolist(), cd.tolist(), [0.0] * nf, c.T.tolist()
    w = c.shape[0] - 1
    held = 0
    while True:
        # hold row a at its breakpoint: D_a becomes 0 and H_a t_a d_a
        ta, a = breaks[held]
        held += 1
        da = dl[a]
        ha = ta * da
        caa = cols[a][0]
        gd -= g[a] * da
        dch = dch + ha * cd[a] - da * ch[a] - ha * da * caa
        dcd = dcd - 2.0 * da * cd[a] + da * da * caa
        cd[a] -= da * caa
        ch[a] += ha * caa
        for l in range(1, w + 1):
            if a + l < nf:
                cd[a + l] -= da * cols[a][l]
                ch[a + l] += ha * cols[a][l]
            if a - l >= 0:
                cd[a - l] -= da * cols[a - l][l]
                ch[a - l] += ha * cols[a - l][l]
        # q'(t) = g'D + t D'CD + D'CH up to the next breakpoint (or
        # t = 1, P(x)): stop where it is not negative or at its root
        step = ta
        nxt = breaks[held][0] if held < len(breaks) else 1.0
        slope = gd + step * dcd + dch
        if not slope < 0.0:
            break
        if dcd > 0.0:
            root = -(gd + dch) / dcd
            if root < nxt:
                if root > step:
                    step = root
                break
        if held == len(breaks):
            step = 1.0
            break
    v[idx] = np.minimum(np.maximum(v_f + step * d, -lam_f), lam_f)
    passed = np.array([a for _, a in breaks[:held]])
    sign = np.where(d[passed] > 0.0, 1, -1)
    st[idx[passed]] = sign
    v[idx[passed]] = sign * lam_f[passed]


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
    k = _count(k, "order k", 0)
    z = _response(z, k + 2, "z")
    n = z.shape[0]
    beta = _float_vector(beta, n, "beta")
    omega = _weights(omega, n)
    D = diff_matrix(n, k)
    m = D.rows
    lam_v = np.broadcast_to(_penalties(lam, m, "lam"), (m,))
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
    ``a^{-1} x - grad l(x)`` at exit.  Each iterate's ``A beta`` serves
    both its objective and the gradient step from it, and the prox's
    step and kind are checked once per fit; an iterate that is not
    finite makes the objective non-finite, which :func:`mm_driver`
    rejects.
    """
    cfg = cfg or SolverConfig()
    beta = _mm_start(init, None, loss.dim)
    L = lipschitz_bound(loss)
    if L <= 0:
        raise ValidationError("loss curvature bound must be positive")
    a = 1.0 / L
    s = float(_prox_step(penalty, 1.0 / a))
    # the last iterate and its linear predictor A beta: mm_driver
    # evaluates the objective at each iterate and then steps from it
    last = [None, None]

    def predict(b):
        if b is not last[0]:
            last[:] = b, loss.predict(b)
        return last[1]

    def objective(b):
        return _loss_value_at(loss, predict(b)) + float(np.sum(penalty_value(penalty, b)))

    def gradient_step(b):
        return b - a * _loss_grad_at(loss, predict(b))

    def penalty_prox(z, b):
        return _prox_flat(penalty, z, s)

    fit = mm_driver(objective, gradient_step, penalty_prox, beta, cfg)
    fit.aux = {"lambda": fit.beta / a - _loss_grad_at(loss, predict(fit.beta)), "step": a}
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
# reports, and the final envelope variables its fused-lasso fits return in
# aux, each with n values (True) or one per row of D (False): the Huber
# shift or the log penalty's edge weights ("u").
_ENVELOPES = {"huber": (0, "fused_lasso", (("u", True),)),
              "binomial-logit": (1, "polya_gamma_fused_lasso", ()),
              "gaussian": (2, "fused_lasso", ()),
              "fdp": (3, "log_penalty_fused_lasso", (("u", False),)),
              "check": (4, "trend_filter", ())}

# The final envelope variables of a fit whose subproblem is the trend
# filter: the weights and working responses at the last iterate ("omega",
# "z") and the dual of the last trend filter ("v").
_TF_VARS = (("omega", True), ("z", True), ("v", False))

# The values of a fit's info row in _fldp.c.
_INFO = 11

# The run of an envelope that is exact in one map: one solve, whose
# objective is the whole trace.
_ONE_SOLVE = SolverConfig(max_iters=1)

# The penalty scales of a single fit: a path of one fit at scale 1, which
# leaves every edge weight exactly as given.
_UNIT_SCALE = np.ones(1)
_UNIT_SCALE.setflags(write=False)


def envelope_fused_lasso_mm(kind: str, y, m, u, beta, cfg: SolverConfig,
                            a: float = 1.0, q: float = 0.5, k: Optional[int] = None,
                            v=None) -> FitResult:
    """One envelope fit with row penalties ``u``: the path of
    :func:`envelope_fused_lasso_path` with the single penalty scale 1."""
    return envelope_fused_lasso_path(kind, y, m, u, _UNIT_SCALE, beta, cfg, a, q, k, v)[0]


def _run_record(maps, steps, rejected, inner_iters=0, capped=0, rises=0,
                dp_calls=0) -> dict:
    """``aux["run"]`` of an envelope fit: its maps, SQUAREM steps, rejected
    extrapolations, inner trend-filter iterations, inner solves that hit
    their cap (0 and 0 for the fused-lasso envelopes, whose solves are
    exact), rising maps that ended it (check loss only) and the maps whose
    fused lasso ran the DP, the rest having been certified on the runs of
    their input (:func:`_certified_solve`)."""
    return {"maps": maps, "steps": steps, "rejected": rejected, "inner_iters": inner_iters,
            "capped": capped, "rises": rises, "dp_calls": dp_calls}


def envelope_fused_lasso_path(kind: str, y, m, u, lams, beta, cfg: SolverConfig,
                              a: float = 1.0, q: float = 0.5, k: Optional[int] = None,
                              v=None) -> list:
    """The MM loops of a warm-started path of envelope fits, and the whole
    run record of each fit.

    Fit ``l`` has the row penalties ``lams[l] * u``.  Fit 0 starts at
    ``beta`` and each later fit at the previous fit's last iterate.  Each
    fit's map ``F(beta)`` is the closed-form envelope update of the fit
    ``kind`` at ``beta`` and then the subproblem that ``k`` picks: with
    ``k`` None an exact weighted fused lasso (the penalties are on the
    ``n - 1`` edges), and with an order ``k`` an exact weighted
    trend filter of that order (on the ``n - k - 1`` rows of its
    difference operator), solved by the dual active-set method to
    ``cfg.inner_tol`` within ``cfg.inner_max_iters`` iterations, each
    solve warm-started at the dual of the solve before it (after a
    rejected SQUAREM extrapolation, at the dual of the step's second plain
    map, which gave the iterate the loop kept).  That dual is
    carried from fit to fit, and the dual ``v`` (0 when None) into fit 0;
    at the start of each fit it is scaled into the fit's box
    (:func:`_scale_dual`), which along a decreasing grid is the scaling by
    ``lam_new / lam_old``.  A trend-filter fit also reports
    ``converged=False`` when any of its solves did not meet its stop test;
    its ``aux["omega"]`` and ``aux["z"]`` are the weights and working
    responses at the last iterate, ``aux["v"]`` the dual of its last solve
    (of the step's second plain map when the last extrapolation was
    rejected), and ``df`` is the count of dual rows at a bound plus ``k + 1``.  The
    envelopes:

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
    * ``"gaussian"``: the squared loss ``sum_i (m_i/2)(y_i - beta_i)^2``
      with per-point weights ``m`` (1 when None), exact in one solve on
      ``y``; the record is ``iters=1``, ``converged=True`` and
      ``trace=[objective]`` (run it with ``_ONE_SOLVE``; ``beta`` is not
      read and may be None).  :func:`weighted_fused_lasso` and
      :func:`weighted_trend_filter` are this fit.
    * ``"check"``: the check loss at quantile ``q``, majorized by its
      variance-mean quadratic with weights ``min(1/|y - beta|, 1e6)``
      (:func:`~envopt.losses.variance_mean_update`), with the trend filter
      of order ``k``.  With ``beta`` None, fit 0 starts at the trend filter
      of ``y`` with unit weights.  The clamped weights do not majorize the
      loss where a residual is below 1e-6, so a plain map may rise: that
      ends the fit at its last accepted iterate, converged only when the
      rise is within ``cfg.tol`` relative, and the path goes on.

    The fused lasso of each map of an iterative envelope is first solved
    in closed form on the runs of that map's input (:func:`_certified_solve`),
    and by the DP only when those levels fail the KKT test; the squared
    loss's one solve is the DP.  The runs come from the map's input alone,
    never from an earlier map or fit, so a path is still the chain of its
    fits, bit for bit; a SQUAREM extrapolation keeps the runs that its
    three iterates share.  Both solves take the edge penalties clamped at
    a bound that cannot bind (:func:`_solve_penalties`), which keeps the
    DP exact at huge penalties.  A certified map's objective is summed as
    its levels are written, with the unclamped penalties.  The Polya-Gamma
    ratio ``tanh(h)/h`` and the softplus are evaluated once per run of
    equal values and the log penalty once per jump, which gives each entry
    the bits of its own evaluation: the values of a run compare equal,
    and +0 and -0 give the same ratio and softplus.

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
    and, for the logit, ``0 <= y <= m`` with ``m >= 1``, for
    ``"gaussian"`` ``m`` None or positive; ``u`` a scalar or one
    nonnegative finite penalty per row; ``lams`` a float vector of
    nonnegative finite scales; ``a`` positive and finite for ``"fdp"``;
    ``0 < q < 1`` and an order ``k`` for ``"check"``; ``k >= 0`` and
    ``n >= k + 2`` when ``k`` is given; a start
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
    check = k is not None  # the trend filter's parameters go to _fldp.c
    if check:
        envvars, rows = _TF_VARS, n - k - 1
    else:
        rows = n - 1
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
    if check:  # the trend filter's parameters, then the dual of its first solve
        block[o_check:o_check + 5] = (q, k, cfg.inner_tol, cfg.inner_max_iters,
                                      kind == "check" and beta is None)
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
        maps, converged, obj, _, df, steps, rejected, inner, capped, rises, dp_calls = \
            info[_INFO * l:_INFO * (l + 1)]
        iters = int(maps)
        if record:  # a copy: a view would pin the whole buffer
            trace = traces[t:t + iters + 1].copy()
            t += iters + 1
        else:
            trace = traces[l:l + 1]
        # the record of _run_record, written out: a call costs about 0.5 us
        aux = {"run": {"maps": iters, "steps": int(steps), "rejected": int(rejected),
                       "inner_iters": int(inner), "capped": int(capped), "rises": int(rises),
                       "dp_calls": int(dp_calls)}}
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


def _softplus(x: float) -> float:
    """``log(1 + e^x)``, as ``_fldp.c`` evaluates it with the C library's
    ``exp`` and ``log1p``."""
    return (math.log(2.0) if x == 0.0 else math.log1p(math.exp(x)) if x < 0.0
            else x + math.log1p(math.exp(-x)))


def _pg_ratio(h: float) -> float:
    """``tanh(h)/h``, 1 at ``h = 0``, as ``_fldp.c`` evaluates it."""
    return 1.0 - h * h / 3.0 if abs(h) < 1e-6 else math.tanh(h) / h


def _per_run(f, x):
    """``f`` of each entry of ``x``, called once per run of ``x`` (maximal
    stretches of entries that compare equal) and spread over it by
    ``np.repeat``, as ``_fldp.c`` evaluates its transcendentals.  Each
    ``f`` here gives +0 and -0 the same value."""
    edge = np.empty(x.size + 1, dtype=bool)  # where each run starts, then the end
    edge[0] = edge[-1] = True
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    at = np.flatnonzero(edge)
    return np.repeat([f(v) for v in x[at[:-1]].tolist()], at[1:] - at[:-1])


def _envelope_mm_python(kind, y, m, u, lams, beta, cfg, a=1.0, q=0.5, k=None,
                        v=None) -> list:
    """:func:`envelope_fused_lasso_path` in Python, fit for fit: the
    fallback of the compiled path and its test oracle."""
    u = np.broadcast_to(u, (y.shape[0] - (0 if k is None else k) - 1,))
    if k is not None and v is None:
        v = np.zeros(u.shape)
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


def _envelope_fit_python(kind, y, m, u, beta, cfg, a, q=0.5, k=None, v=None) -> FitResult:
    """One fit of :func:`_envelope_mm_python`, map for map.

    It repeats the arithmetic of ``_fldp.c`` operation for operation: the
    transcendental functions come from the C library (:mod:`math`), once
    per run (:func:`_per_run`) or jump, sums run left to right, the DP is
    :func:`_fused_lasso_dp` and the trend filter :func:`_tf_solve`.  It
    takes every objective from its own ``objective``, whose sums have the
    bits of those that the compiled certified solve adds up.  It returns
    the compiled loop's bits wherever the two share a C library."""
    solve_name = _ENVELOPES[kind][1]
    n = y.shape[0]
    ones = np.ones(n)
    weights = m if kind == "gaussian" and m is not None else ones  # of the squared loss
    huber = LossSpec("huber", y=y) if kind == "huber" else None
    tf = k is not None  # the subproblem: the trend filter, or else the DP
    stencil = _stencil(k) if tf else None
    dual = {"v": _scale_dual(v, u) if tf else None, "iters": 0, "capped": 0, "act": 0}
    dp_calls = 0
    # a bound on every edge penalty of the fit (solve_penalties in _fldp.c):
    # the log penalty's edge weights u_i / (a + |d_i|) are at most u_i / a
    umax = float(u.max()) if u.size else 0.0
    if kind == "fdp":
        umax /= a

    def edge_weights(b):
        return u / (a + np.abs(np.diff(b))) if kind == "fdp" else u

    def objective(b):
        if kind == "huber":
            r = np.abs(y - b)
            loss = np.where(r < 1.0, 0.5 * r * r, r - 0.5)
        elif kind == "gaussian":
            r = y - b
            loss = 0.5 * weights * r * r
        elif kind == "check":
            r = y - b
            loss = np.abs(r) + (2.0 * q - 1.0) * r
        else:
            loss = m * _per_run(_softplus, b) - y * b
        if tf:
            d = np.zeros(n - k - 1)
            for j in range(k + 2):
                d += stencil[j] * b[j:j + n - k - 1]
            d = np.abs(d)
        else:
            d = np.abs(np.diff(b))
        if kind == "fdp":  # log1p on the jumps alone: a fused edge's term is +0
            t, d = d / a, np.zeros(d.shape)
            jumps = np.flatnonzero(t)
            d[jumps] = [math.log1p(x) for x in t[jumps].tolist()]
        return _in_order_sum(loss) + _in_order_sum(u * d)

    def update(b):
        """The weights and working responses at ``b``, or None when one is
        not finite."""
        if kind == "huber":
            return ones, y - location_envelope_update(huber, b)
        if kind == "gaussian":
            return weights, y
        with np.errstate(all="ignore"):
            if kind == "check":
                w = 1.0 / np.abs(y - b)
                w = np.where(w < _WEIGHT_CLAMP, w, _WEIGHT_CLAMP)
                z = y - (1.0 - 2.0 * q) / w
            else:
                w = 0.25 * m * _per_run(_pg_ratio, 0.5 * b)
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

    def fused_lasso(z, w, ue, hint):
        """The certified solve on the runs of ``hint`` (None for the squared
        loss's one solve), and the DP when it fails."""
        nonlocal dp_calls
        ue = _solve_penalties(z, w, ue, umax)
        new = None if hint is None else _certified_solve(z, w, ue, hint)
        if new is None:
            dp_calls += 1
            new = _fused_lasso_dp(z, w, ue)
        return new

    def envelope_map(b):
        """``F(b)`` and its objective, or None when a value is not finite."""
        wz = update(b)
        if wz is None:
            return None
        w, z = wz
        if tf:
            new = trend_filter(z, w)
        else:
            ue = edge_weights(b)
            new = (fused_lasso(z, w, ue, None if kind == "gaussian" else b)
                   if n > 1 and ue.max() > 0 else z.copy())
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
            alpha = -math.sqrt(rr / vv) if vv > 0.0 and rr > vv else -1.0
            # at alpha = -1 (a root that rounds to 1 included) the point is b2
            bx = b2 if alpha == -1.0 else b0 - 2.0 * alpha * r + alpha * alpha * v
            if not np.all(np.abs(bx) < np.inf):
                return None
            return envelope_map(bx)

    steps = rejected = rises = 0
    # until a solve gives beta, df counts the bounds of the start dual
    act = int(np.count_nonzero(~(np.abs(dual["v"]) < u))) if tf else 0
    trace = []
    if kind == "check" and beta is None:
        beta = trend_filter(y, ones)
        act = dual["act"]
    if kind == "gaussian":
        beta, obj = plain_map(beta, np.inf)
        act = dual["act"]
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
                v2 = dual["v"].copy() if tf else None  # the dual that gave b2
                third = extrapolated_map(beta, b1, b2)
                if third is not None and third[1] <= f2:
                    beta, obj = third
                    act = dual["act"]
                else:
                    rejected += 1
                    beta, obj = b2, f2
                    dual["v"] = v2
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
    aux = {"run": _run_record(iters, steps, rejected, dual["iters"], dual["capped"], rises,
                              dp_calls)}
    if kind == "huber":
        aux["u"] = location_envelope_update(huber, beta)
    elif kind == "fdp":
        aux["u"] = edge_weights(beta)
    if tf:
        # copies: the squared loss's weights and responses are the inputs
        aux["omega"], aux["z"] = map(np.array, update(beta))
        aux["v"] = dual["v"]
        converged = converged and not dual["capped"]
    df = act + k + 1 if tf else distinct_levels(beta)
    return FitResult(beta=beta, objective=obj,
                     trace=np.asarray(trace),
                     iters=iters, converged=converged, df=df, aux=aux)


# ---------------------------------------------------------------------------
# Logistic fused lasso by the Polya-Gamma envelope


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
    loss = LossSpec("binomial-logit", y=y, m=m)
    n = loss.n
    u = _penalties(u_edges, n - 1)
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
