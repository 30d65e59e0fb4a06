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
* :func:`envelope_fused_lasso_path` -- one MM loop for the five envelope
  fits (below), whose subproblem is an exact fused lasso (certified in
  closed form on the runs of the map's input, or else the DP) or, given
  an order ``k``, an exact trend filter, extrapolated by safeguarded
  SQUAREM, run over a warm-started grid of penalty scales, that returns
  each fit's whole run record, df and final envelope variables included;
  what each fit kind reads is its row of one table, ``_KINDS``.
* :func:`logistic_fused_lasso` -- the logit's Gaussian scale-mixture
  envelope (Polya-Gamma weights) reducing each step to a weighted fused
  lasso.

The loops are compiled from one source, ``_fldp.c``, whose entry
:func:`envelope_fused_lasso_path` runs the whole MM loop of the five
envelope fits for a whole warm-started path in one call (the Huber
location shift of the rfl path, the Polya-Gamma weights of
:func:`logistic_fused_lasso` and of the fdp path's fused-lasso starts,
the Polya-Gamma and log-penalty weights of the fdp path, the squared loss,
exact in one map, and the variance-mean weights of the qrtf path; the
fits ``applications.fit_rfl``, ``fit_qrtf`` and ``fit_fdp`` are their
app's path on one lam), which also returns each fit's ``df`` and its
final envelope variables.  Its two subproblems, the DP and the trend
filter's dual solve, have no entry of their own.
:func:`weighted_trend_filter` runs the weighted squared loss as a
one-solve fit of that loop.  The squared loss's one-solve fused lasso,
of :func:`weighted_fused_lasso` and ``applications.fused_lasso_gaussian``,
goes through the library's other entry, ``fused_lasso_solve``: a front of
a few lines that calls the loop with its results in one buffer, so that
the call costs little more than its DP (:func:`_squared_fused_lasso`).
The library is built on first use with the system C
compiler, cached per user and called through ctypes, and it is the only
implementation of the loops: with no compiler, a cache directory that
others can write to, or a build or load that fails, a fit raises
:class:`~envopt.errors.EnvoptError` with the cause, and the compiler runs
at most once per process (:func:`_kernel`).
"""

from __future__ import annotations

import ctypes
import functools
from collections import namedtuple
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

from .errors import (EnvoptError, MonotonicityError, ValidationError, _count, _float_vector,
                     _penalties, _response, _weights)
from .losses import LossSpec, _loss_grad_at, _loss_value_at, lipschitz_bound
from .operators import diff_matrix
from .penalties import PenaltySpec, _prox_flat, _prox_step, penalty_value

__all__ = [
    "SolverConfig",
    "FitResult",
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
    the solve redoes only the rows after those it keeps, see ``tf_solve``
    in ``_fldp.c``) and the relative slack of its stop test on the signs
    of the bound multipliers; of the estimators, only qrtf's (its
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

    ``df`` counts distinct fitted levels; for trend filtering it is k + 1
    plus the dual rows at a bound of the last solve, which can exceed the
    knots that :func:`count_knots` finds in ``beta``.  ``aux`` holds the
    final envelope variables of the run (auxiliary lambda/u/omega vectors,
    solver diagnostics).
    """

    beta: np.ndarray
    objective: float
    trace: np.ndarray
    iters: int
    converged: bool
    df: int = 1
    aux: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The compiled loops, and the exact weighted fused lasso


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
def _load_kernel():
    """The compiled kernel library (ctypes), or the message that says why
    it cannot be used.  The library is cached per user under
    ``$XDG_CACHE_HOME/envopt`` (or ``~/.cache/envopt``), named by a hash of
    the sources, the flags and the compiler, so each machine compiles each
    version once (the first use spends about 3 s compiling); a file lock
    lets exactly one of several concurrent processes build it.  It is
    built and loaded only in a directory that this user owns and no other
    user can write to.
    """
    cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    if cc is None:
        return ("envopt compiles its loops on first use and needs a C compiler for it, "
                "but found no cc, gcc or clang on PATH")
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
            return (f"envopt will not build or load its compiled loops in {cache}: "
                    "that directory is not owned by this user or other users can write to it")
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
        return f"envopt: building or loading its compiled loops with {cc} failed:\n{detail}"
    ptr, c_long, c_double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.envelope_fused_lasso_path.argtypes = ([ctypes.c_int] + [ptr] * 4
                                              + [c_long, c_double, c_long, c_double,
                                                 c_long] + [ptr] * 5)
    lib.envelope_fused_lasso_path.restype = ctypes.c_int
    lib.fused_lasso_solve.argtypes = [ptr] * 3 + [c_double, c_long, ptr]
    lib.fused_lasso_solve.restype = ctypes.c_int
    return lib


def _kernel():
    """The compiled kernel library (:func:`_load_kernel`), whose entry
    ``envelope_fused_lasso_path`` is the envelope MM with its two
    subproblems, the fused-lasso DP and the trend filter's dual solve, and
    whose other entry ``fused_lasso_solve`` is a thin front of it: the
    squared loss's one-solve fused lasso (:func:`_squared_fused_lasso`).
    When it cannot be used (no compiler on ``PATH``, a cache directory
    that others can write to, or a build or load that failed), this raises
    :class:`EnvoptError` with the cause; the build is attempted once per
    process, and every later call raises the same error.
    """
    lib = _load_kernel()
    if isinstance(lib, str):
        raise EnvoptError(lib)
    return lib


def weighted_fused_lasso(z, omega, u_edges):
    """Exact global minimizer of the weighted 1-d fused lasso.

    Minimizes ``sum_i (omega_i/2)(z_i - beta_i)^2 +
    sum_i u_i |beta_{i+1} - beta_i|``.  The problem is strictly convex,
    so the dynamic program returns the unique solution.  The inputs follow
    the package's input rules (README, "Input rules"), and the solve is
    :func:`_squared_fused_lasso`, the one-solve squared-loss fit of
    :func:`envelope_fused_lasso_path` with weights ``omega``, whose map is
    the compiled DP.
    """
    z = _response(z, 1, "z")
    n = z.shape[0]
    return _squared_fused_lasso(z, _weights(omega, n), _penalties(u_edges, n - 1)).beta


def _squared_fused_lasso(y, w, u) -> FitResult:
    """The exact minimizer of ``sum_i (w_i/2)(y_i - b_i)^2 + sum_i u_i
    |b_{i+1} - b_i|`` with its run record: the one-solve ``"gaussian"`` fit
    of :func:`envelope_fused_lasso_path` (``w`` as its ``m``, ``u`` on the
    one scale 1, ``_ONE_SOLVE``), bit for bit, run by the kernel's front
    ``fused_lasso_solve``, which calls that loop with one buffer for its
    results.  ``w`` None is unit weights, and a float ``u`` puts that
    penalty on every edge.  The callers validate ``y``, ``w`` and ``u`` by
    :func:`_response`, :func:`_weights` and :func:`_penalties`;
    :func:`weighted_fused_lasso` and ``applications.fused_lasso_gaussian``
    are this fit.
    """
    n = y.shape[0]
    vector = not isinstance(u, float)
    o_u = n if w is None else 2 * n
    o_beta = o_u + (n - 1 if vector else 0)
    o_info = o_beta + n
    # One block holds the inputs, copied (c_char.from_buffer takes no
    # read-only array), then beta, the info row, the index of the last fit
    # run and the one-value trace, so one address serves every pointer.
    block = np.empty(o_info + _INFO + 2)
    block[:n] = y
    if w is not None:
        block[n:o_u] = w
    if vector:
        block[o_u:o_beta] = u
    at = ctypes.addressof(ctypes.c_char.from_buffer(block))
    status = _kernel().fused_lasso_solve(at, None if w is None else at + 8 * n,
                                         at + 8 * o_u if vector else None,
                                         1.0 if vector else u, n, at + 8 * o_beta)
    if status:
        _raise_status(status)
    return _fit_result(block[o_info:o_info + _INFO].tolist(), block[o_beta:o_info],
                       block[o_info + _INFO + 1:])


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
    active-set method (``tf_solve`` in ``_fldp.c``): each iteration solves
    for the minimum over the free rows by the banded Cholesky of A there,
    and the solve ends after a step to the face minimum that leaves no
    bound with a wrong-signed multiplier beyond ``cfg.inner_tol`` relative.
    ``cfg.inner_max_iters`` caps the iterations.  The inputs follow the
    package's input rules (README, "Input rules"), and the solve is the
    one-solve squared-loss fit of :func:`envelope_fused_lasso_path` with
    weights ``omega`` and order ``k`` on the one scale 1.

    ``lam`` may be a scalar or a per-row vector; a row with ``lam_j = 0``
    is left free in the primal (its dual stays 0).  ``state``, if given,
    is read for the warm-start dual ``v`` and updated in place with the
    last dual ``v``, the ``iters`` run and whether the solve ``converged``
    (met its stop test within the cap).  The warm start is scaled into the
    box ``|v_j| <= lam_j`` by the largest factor ``t <= 1`` that fits it
    there (``scale_dual`` in ``_fldp.c``), which leaves a start inside the
    box as it is; a start outside the box is scaled as a whole, not clipped
    row by row.
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
    fit = envelope_fused_lasso_path("gaussian", z, omega, lam, _UNIT_SCALE, None, cfg, k=k,
                                    v=None if np.shape(v) != (m,) else v)[0]
    state.update(v=fit.aux["v"], iters=fit.aux["run"]["inner_iters"],
                 converged=fit.converged)
    return fit.beta


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


# The fit kinds of envelope_fused_lasso_path: the envelope's code in
# _fldp.c; the name of its map's solve, which a MonotonicityError reports;
# the values of ``m is not None`` and of ``k is not None`` that a call may
# have; and the final envelope variables in aux, without k and with it,
# each with n values (True) or one per row of D (False).
_Kind = namedtuple("_Kind", "code solve m k envvars")
_REQUIRED, _OPTIONAL, _NONE = (True,), (False, True), (False,)
_RULES = {_REQUIRED: "requires", _OPTIONAL: "may take", _NONE: "takes no"}
_KINDS = {
    "huber": _Kind(0, "fused_lasso", _NONE, _NONE, ((("u", True),), None)),
    "binomial-logit": _Kind(1, "polya_gamma_fused_lasso", _REQUIRED, _NONE, ((), None)),
    "gaussian": _Kind(2, "fused_lasso", _OPTIONAL, _OPTIONAL,
                      ((), (("omega", True), ("z", True), ("v", False)))),
    "fdp": _Kind(3, "log_penalty_fused_lasso", _REQUIRED, _NONE, ((("u", False),), None)),
    "check": _Kind(4, "trend_filter", _NONE, _REQUIRED,
                   (None, (("omega", True), ("z", True), ("v", False)))),
}

# The values of a fit's info row in _fldp.c.
_INFO = 11

# The run of an envelope that is exact in one map: one solve, whose
# objective is the whole trace.
_ONE_SOLVE = SolverConfig(max_iters=1)

# The penalty scales of a single fit: a path of one fit at scale 1, which
# leaves every edge weight exactly as given.
_UNIT_SCALE = np.ones(1)
_UNIT_SCALE.setflags(write=False)


def _run_record(maps, steps, rejected, inner_iters=0, capped=0, rises=0,
                dp_calls=0) -> dict:
    """``aux["run"]`` of an envelope fit: its maps, SQUAREM steps, rejected
    extrapolations, inner trend-filter iterations, inner solves that hit
    their cap (0 and 0 for the fused-lasso envelopes, whose solves are
    exact), rising maps that ended it (check loss only) and the maps whose
    fused lasso ran the DP, the rest having been certified on the runs of
    their input (see :func:`envelope_fused_lasso_path`)."""
    return {"maps": maps, "steps": steps, "rejected": rejected, "inner_iters": inner_iters,
            "capped": capped, "rises": rises, "dp_calls": dp_calls}


def _raise_status(status: int) -> None:
    """The error of a kernel call that returned ``status`` 1 or 2."""
    if status == 1:
        raise MemoryError("envelope MM could not allocate its work arrays")
    if status == 2:
        raise ValidationError("an MM cycle met a value that is not finite")


def _fit_result(info: list, beta, trace) -> FitResult:
    """The fit of one info row of ``_fldp.c`` (a list; see ``fit()``
    there), with its last iterate and trace; ``aux`` holds the run record
    of :func:`_run_record`, the envelope variables being the caller's."""
    maps, converged, obj, _, df, steps, rejected, inner, capped, rises, dp_calls = info
    iters = int(maps)
    # the record of _run_record, written out: a call costs about 0.5 us
    aux = {"run": {"maps": iters, "steps": int(steps), "rejected": int(rejected),
                   "inner_iters": int(inner), "capped": int(capped), "rises": int(rises),
                   "dp_calls": int(dp_calls)}}
    # beta, objective, trace, iters, converged, df, aux: passed by position,
    # which costs about 1 us less per fit than by keyword
    return FitResult(beta, obj, trace, iters, bool(converged), int(df), aux)


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
    at the start of each fit it is scaled into the fit's box by the
    largest ``t <= 1`` that fits it there (``scale_dual`` in ``_fldp.c``;
    a row that attains ``t`` lands on its bound, and a row with penalty 0
    goes to 0), which along a decreasing grid is the scaling by
    ``lam_new / lam_old``.  A trend-filter fit also reports
    ``converged=False`` when any of its solves did not meet its stop test;
    its ``aux["omega"]`` and ``aux["z"]`` are the weights and working
    responses at the last iterate, ``aux["v"]`` the dual of its last solve
    (of the step's second plain map when the last extrapolation was
    rejected), and ``df`` is the count of dual rows at a bound plus ``k + 1``.

    What each kind reads is its row of ``_KINDS``, as said below; a dual
    ``v`` comes only with ``k``.  A call that breaks its kind's row raises
    :class:`~envopt.errors.ValidationError` before the kernel runs.  The
    envelopes:

    * ``"huber"``: the Huber location shift (threshold 1), a fused lasso
      on ``y - soft(y - beta, 1)`` with unit weights; ``aux["u"]`` is the
      shift at the last iterate.  It takes neither ``m`` nor ``k``.
    * ``"binomial-logit"``: the logit's Polya-Gamma weights
      (:func:`~envopt.losses.logit_scale_update`) with trial counts ``m``;
      no ``k``.
    * ``"fdp"``: the Polya-Gamma weights together with the log penalty
      ``sum_i u_i log(1 + |beta_{i+1} - beta_i| / a)`` linearized at
      ``beta``, whose edge weights are ``u_i / (a + |beta_{i+1} -
      beta_i|)``.  Each bound touches its own term at ``beta``, so their
      sum majorizes the objective; ``aux["u"]`` is the edge weights at the
      last iterate.  It needs trial counts ``m`` and takes no ``k``.
    * ``"gaussian"``: the squared loss ``sum_i (m_i/2)(y_i - beta_i)^2``
      with per-point weights ``m`` (1 when None; ``k`` too is optional),
      exact in one solve on ``y``; the record is ``iters=1``,
      ``converged=True`` and ``trace=[objective]`` (run it with
      ``_ONE_SOLVE``; ``beta`` is not read and may be None).
      :func:`weighted_trend_filter` is this fit, and without ``k`` so is
      :func:`_squared_fused_lasso`, through the compiled front.
    * ``"check"``: the check loss at quantile ``q``, majorized by its
      variance-mean quadratic with weights ``min(1/|y - beta|, 1e6)``
      (:func:`~envopt.losses.variance_mean_update`), with the trend filter
      of order ``k``, required (no ``m``).  With ``beta`` None, fit 0
      starts at the trend filter of ``y`` with unit weights.  The clamped
      weights do not majorize the loss where a residual is below 1e-6, so
      a plain map may rise: that ends the fit at its last accepted
      iterate, converged only when the rise is within ``cfg.tol``
      relative, and the path goes on.

    The fused lasso of each map of an iterative envelope is first solved
    in closed form on the runs (maximal stretches of bit-equal values) of
    that map's input (``certified`` in ``_fldp.c``): with ``sig`` the signs
    of the jumps between runs, run ``s..e`` takes the level ``(sum w z -
    u_{s-1} sig_{s-1} + u_e sig_e) / sum w``, each sum in order.  The
    levels pass when every jump keeps its sign strictly and the running
    sum ``g_j = sum_{i <= j} w_i (z_i - b_i)`` has ``|g_j| <= u_j`` on
    every fused edge, the KKT conditions (Hoefling 2010, *JCGS*
    19:984-1006) of the unique minimizer; otherwise the DP runs, as it
    does for the squared loss's one solve.  The runs come from the map's
    input alone, never from an earlier map or fit, so a path is still the
    chain of its fits, bit for bit; a SQUAREM extrapolation keeps the runs
    that its three iterates share.  Both solves take the edge penalties
    clamped at ``G = 2 n max|z| max w`` when a bound on the fit's
    penalties exceeds ``G`` (``solve_penalties``).  No ``|g_j|`` exceeds
    ``max|z| sum w <= G / 2``, since the solution lies in ``[min z, max
    z]``, so the clamp leaves the minimizer as it is and keeps the DP
    exact at huge penalties.  A certified map's objective is summed as its
    levels are written, with the unclamped penalties.  The Polya-Gamma
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
    of the compiled kernel (``_fldp.c``); when the kernel cannot be used,
    :func:`_kernel` raises :class:`~envopt.errors.EnvoptError`.  The
    callers validate the values by the input rules of ``errors``, the
    start ``beta`` by :func:`_mm_start`, as the comment of the C entry
    lists them; ``beta`` is not changed.  Outside the check loss, a plain
    map that raises the objective raises :class:`MonotonicityError` naming
    the solve; a value that is not finite raises :class:`ValidationError`;
    each with the values of the fit where it happened, and no later fit
    runs.  Returns the fits in the order of ``lams``; the iterates and
    final envelope variables of a path are views of one block.
    """
    row = _KINDS.get(kind)
    if row is None:
        raise ValidationError(f"unknown envelope kind {kind!r}; the kinds are {', '.join(_KINDS)}")
    if (m is not None) not in row.m or (k is not None) not in row.k or (v is not None and k is None):
        raise ValidationError(f"envelope kind {kind!r} {_RULES[row.m]} m and {_RULES[row.k]} "
                              "order k (a dual v comes only with k)")
    lib = _kernel()
    check = k is not None  # the trend filter's parameters go to _fldp.c
    envvars = row.envvars[check]
    n, fits = y.shape[0], lams.shape[0]
    rows = n - k - 1 if check else n - 1
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
        row.code, at, None if m is None else at + 8 * o_m, at + 8 * o_u,
        at + 8 * o_lam, fits, a, n, cfg.tol, cfg.max_iters, at + 8 * o_beta,
        trace_at, at + 8 * o_env if envvars else None, at + 8 * o_info,
        at + 8 * o_check if check else None)
    info = block[o_info:o_trace].tolist()
    if status == 3:
        failed = _INFO * int(info[-1])
        raise MonotonicityError(row.solve, info[failed + 2], info[failed + 3])
    if status:
        _raise_status(status)
    out, t = [], 0
    for l in range(fits):
        row_info = info[_INFO * l:_INFO * (l + 1)]
        if record:  # a copy: a view would pin the whole buffer
            stop = t + int(row_info[0]) + 1
            trace, t = traces[t:stop].copy(), stop
        else:
            trace = traces[l:l + 1]
        fit = _fit_result(row_info, block[o_beta + l * n:o_beta + (l + 1) * n], trace)
        base = o_env + l * width
        for name, first, end in slots:
            fit.aux[name] = block[base + first:base + end]
        out.append(fit)
    return out


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
    as :func:`envelope_fused_lasso_path` on the one scale 1, extrapolated
    by SQUAREM.  Returns the MM run record: ``iters`` maps, their
    ``trace``, whether the loop met ``cfg.tol`` within ``cfg.max_iters``
    and ``aux["run"]``.
    """
    cfg = cfg or SolverConfig()
    loss = LossSpec("binomial-logit", y=y, m=m)
    n = loss.n
    u = _penalties(u_edges, n - 1)
    _check_finite_minimizer(loss, u)
    beta = _mm_start(init, np.zeros(n), n)
    return envelope_fused_lasso_path("binomial-logit", loss.y, loss.m, u, _UNIT_SCALE, beta,
                                     cfg)[0]


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
