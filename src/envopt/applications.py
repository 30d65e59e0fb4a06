"""End-to-end estimators, model selection, paths, and data simulators.

Three estimators, all run as alternating envelope updates:

* robust fused lasso (``rfl``): Huber data fit + first-difference l1
  penalty; the location shift ``u`` turns each step into an ordinary
  fused lasso on ``y - u``.
* quantile trend filtering (``qrtf``): check loss at quantile ``q`` +
  l1 on order-(k+1) differences; the variance-mean weights
  ``(omega, z)`` turn each step into weighted trend filtering.
* fused double-Pareto logit (``fdp``): binomial logit likelihood + a
  log penalty on first differences; the Polya-Gamma weights and the
  concave penalty's per-edge weights, updated together, turn each step
  into a weighted fused lasso.

Each app has one path function, which validates its inputs once and
returns the warm-started fits along a penalty grid; a single fit is its
app's path on the one-lam grid ``[lam]``.

Model selection is by the operational AIC (2*loss + 2*df with df the
count of distinct fitted levels, or for trend filtering k + 1 plus the
knots, the dual rows at a bound)
or by K-fold cross validation with interleaved folds and interpolated
held-out predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit, ndtri

from .errors import ValidationError
from .losses import (
    LossSpec,
    check_value,
    huber,
    loss_value,
)
from .solvers import (
    FitResult,
    SolverConfig,
    _ONE_SOLVE,
    _check_finite_minimizer,
    _edge_weights,
    _logit_loss,
    _mm_start,
    _run_record,
    distinct_levels,
    envelope_fused_lasso_mm,
    envelope_fused_lasso_path,
    logistic_fused_lasso,
    # no estimator here runs it, but perfbench/tracing.py times the outer MM
    # loop through this binding (applications.mm_driver), so it stays
    mm_driver,
)

__all__ = [
    "AppSpec",
    "SolutionPath",
    "Dataset",
    "fit_rfl",
    "fit_qrtf",
    "fit_fdp",
    "fused_lasso_gaussian",
    "binomial_fused_lasso",
    "AppEntry",
    "APP_TABLE",
    "APPS",
    "aic",
    "app_loss",
    "solution_path",
    "kfold_cv",
    "simulate",
    "RFL_TRUE_LEVELS",
    "FDP_TRUE_LEVELS",
    "LOGIT_CAP",
]

# Canonical piecewise-constant truths for the simulators (levels on equal
# fifths of the unit interval); fixed so scores are reproducible.  The
# binomial truth uses widely separated log-odds levels: the comparison it
# anchors (l1 fusion vs the log penalty) turns on the non-diminishing
# shrinkage bias at large jumps.
RFL_TRUE_LEVELS = (0.0, 4.0, 1.0, -3.0, 0.0)
FDP_TRUE_LEVELS = (-4.0, 3.0, -3.0, 4.0, 0.0)

# |log odds| cap applied where the pointwise logit MLE diverges.
LOGIT_CAP = 36.0


@dataclass(frozen=True)
class AppSpec:
    """Which estimator to run and with what hyperparameters.

    The hyperparameters' rules live here alone, and ``fit_qrtf``,
    ``fit_fdp`` and the CLI build an AppSpec to check theirs: ``0 < q <
    1`` and an integer order ``k >= 0`` for qrtf, ``0 < a < inf`` for
    fdp.  ``lam`` is the penalty of a single fit; a path reads its grid
    instead.
    """

    app: str
    lam: float = 1.0
    q: float = 0.9
    k: int = 2
    a: float = 1.0

    def __post_init__(self):
        if self.app not in APPS:
            raise ValidationError(f"unknown application {self.app!r}")
        if self.lam < 0:
            raise ValidationError("lam must be nonnegative")
        if self.app == "qrtf":
            if not 0.0 < self.q < 1.0:
                raise ValidationError("q must lie in (0, 1)")
            if not (isinstance(self.k, (int, np.integer)) and self.k >= 0):
                raise ValidationError("qrtf order k must be a nonnegative integer")
        # a NaN fails every comparison
        if self.app == "fdp" and not 0.0 < self.a < np.inf:
            raise ValidationError("fdp scale a must be positive and finite")

    def with_lam(self, lam: float) -> "AppSpec":
        return AppSpec(self.app, float(lam), self.q, self.k, self.a)


@dataclass
class SolutionPath:
    """Warm-started fits over a decreasing penalty grid."""

    lambdas: np.ndarray
    fits: list
    criterion_values: np.ndarray
    selected: int

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or len(self.fits) != lam.shape[0]:
            raise ValidationError("lambdas and fits must align")
        if lam.shape[0] > 1 and not np.all(np.diff(lam) < 0):
            raise ValidationError("lambdas must be strictly decreasing")

    @property
    def best_lambda(self) -> float:
        return float(self.lambdas[self.selected])

    @property
    def best_fit(self) -> FitResult:
        return self.fits[self.selected]


@dataclass(frozen=True)
class Dataset:
    """Simulated data with the generating truth attached."""

    app: str
    x: np.ndarray
    y: np.ndarray
    m: Optional[np.ndarray] = None
    truth: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Robust fused lasso


def _response(y, min_len: int) -> np.ndarray:
    """``y`` as a contiguous float vector, rejected unless it has at least
    ``min_len`` entries, all finite."""
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < min_len:
        raise ValidationError(f"y must be a vector of length >= {min_len}")
    # y.y is finite only when every entry is, and costs one BLAS call; it
    # overflows from |y_i| ~ 1e154, where min and max decide (they
    # propagate NaN, and a NaN fails both comparisons)
    if not (math.isfinite(y.dot(y)) or (-np.inf < y.min() and y.max() < np.inf)):
        raise ValidationError("y must be finite")
    return y


def _check_lams(lams) -> None:
    """Reject a penalty grid unless every lam is nonnegative and finite."""
    # a NaN fails every comparison
    if not ((lams >= 0) & (lams < np.inf)).all():
        raise ValidationError("lam must be nonnegative and finite")


def _rfl_path(spec, y, m, lams, cfg, init=None):
    """The rfl fits along ``lams``, fit 0 started at ``init`` (``y`` when
    None) and each later fit at the previous fit's iterate: ``y``, the
    grid and ``init`` are validated once, and the whole path runs as one
    ``solvers.envelope_fused_lasso_path`` call with base edge weights 1.
    ``spec`` and ``m`` are not read."""
    y = _response(y, 2)
    _check_lams(lams)
    start = y if init is None else _mm_start(init, None, y.shape[0])
    return envelope_fused_lasso_path("huber", y, None, 1.0, lams, start, cfg or SolverConfig())


def fit_rfl(y, lam: float, cfg: Optional[SolverConfig] = None,
            init=None) -> FitResult:
    """Huber-loss fused lasso on an identity design.

    Alternates the location shift u = soft-threshold(y - beta, 1) with an
    ordinary fused lasso on the working response y - u; each step is an
    exact minimization, so the objective trace is monotone.  The fit is
    the rfl path (:func:`_rfl_path`) on the one-lam grid ``[lam]``, started
    at ``init`` (``y`` when None); ``aux["u"]`` is the final shift.
    """
    return _rfl_path(None, y, None, np.array([lam], dtype=float), cfg, init)[0]


def fused_lasso_gaussian(y, lam: float) -> FitResult:
    """Ordinary (squared-error) fused lasso; exact in one DP call, run as
    the one-cycle squared-loss envelope of
    ``solvers.envelope_fused_lasso_mm``."""
    y = _response(y, 1)
    return envelope_fused_lasso_mm("gaussian", y, None, _edge_weights(lam, y.shape[0]),
                                   None, _ONE_SOLVE)


# ---------------------------------------------------------------------------
# Quantile trend filtering


def _qrtf_path(spec, y, m, lams, cfg, init=None):
    """The qrtf fits along ``lams`` at quantile ``spec.q`` and order
    ``spec.k``, each later fit started at the previous fit: its iterate and
    its final dual, scaled into the new box.  Fit 0 starts as ``init``
    says (see :func:`fit_qrtf`).  ``y``, the grid and ``init`` are
    validated once, and the whole path runs as one
    ``solvers.envelope_fused_lasso_path`` call with base row penalties 1.
    ``m`` is not read."""
    k = int(spec.k)
    y = _response(y, k + 2)
    _check_lams(lams)
    n, dual = y.shape[0], None
    if isinstance(init, FitResult):
        dual = init.aux.get("v")
        if dual is None or np.shape(dual) != (n - k - 1,):
            raise ValidationError(f"init must be a qrtf fit of length {n} and order {k}")
        init = init.beta
    start = None if init is None else _mm_start(init, None, n)
    return envelope_fused_lasso_path("check", y, None, 1.0, lams, start, cfg or SolverConfig(),
                                     q=float(spec.q), k=k, v=dual)


def fit_qrtf(y, q: float, k: int, lam: float,
             cfg: Optional[SolverConfig] = None, init=None) -> FitResult:
    """Check-loss trend filtering at quantile ``q``, order ``k >= 0``.

    Each map forms the variance-mean weights ``omega = min(1/|y - beta|,
    1e6)`` and working responses ``z = y - (1 - 2q)/omega``, whose
    quadratic majorizes the check loss, and solves the weighted trend
    filter on them exactly, by the dual active-set method of
    ``solvers.weighted_trend_filter`` warm-started at the previous map's
    dual.  The loop is extrapolated by safeguarded SQUAREM, as the
    fused-lasso envelope fits are.  When ``init`` is None the fit starts
    at the trend filter of ``y`` with unit weights.  ``init`` may be a
    start vector, whose first trend filter starts at the dual 0, or a
    qrtf fit of the same ``y`` length and order to continue from: its
    ``beta``, and its final dual ``aux["v"]`` scaled into the new box, as
    a solution path carries it from one lam to the next.  The fit is the
    qrtf path (:func:`_qrtf_path`) on the one-lam grid ``[lam]``, so ``q``
    and ``k`` follow :class:`AppSpec`'s rules and the rest is validated
    once, by the path.

    ``converged`` holds only when the loop met ``cfg.tol`` within
    ``cfg.max_iters`` maps and every trend filter met ``cfg.inner_tol``
    within ``cfg.inner_max_iters`` iterations.  The weight clamp keeps the
    quadratic from majorizing ``|r|`` where ``|r| < 1e-6``, so a map may
    raise the objective: the fit then ends at its last accepted iterate,
    converged only when the rise is within ``cfg.tol`` relative, and
    ``aux["run"]["rises"]`` is 1.  ``df`` is the count of dual rows at a
    bound (the knots of an exact solve) plus ``k + 1``; ``aux["omega"]``
    and ``aux["z"]`` hold the weights and working responses at the fit,
    ``aux["v"]`` the dual of its last trend filter and ``aux["run"]`` the
    run record of ``solvers._run_record``.
    """
    return _qrtf_path(AppSpec("qrtf", q=q, k=k), y, None, np.array([lam], dtype=float),
                      cfg, init)[0]


# ---------------------------------------------------------------------------
# Fused double-Pareto binomial smoothing


def binomial_fused_lasso(y, m, lam: float, init=None,
                         cfg: Optional[SolverConfig] = None) -> FitResult:
    """Binomial logit fit with a constant l1 penalty on first differences:
    :func:`logistic_fused_lasso` with every edge weight ``lam``."""
    return logistic_fused_lasso(y, m, lam, init=init, cfg=cfg)


def _logit_mle(loss: LossSpec) -> FitResult:
    """The fdp fit at lam = 0: the decoupled pointwise logit MLE, capped
    where y/m hits {0, 1}; no map runs."""
    y, m = loss.y, loss.m
    with np.errstate(divide="ignore"):
        beta = np.log(y) - np.log(m - y)
    beta = np.clip(beta, -LOGIT_CAP, LOGIT_CAP)
    obj = loss_value(loss, beta)
    return FitResult(beta=beta, objective=obj, trace=np.asarray([obj]),
                     iters=1, converged=True, df=distinct_levels(beta),
                     aux={"u": np.zeros(loss.n - 1), "run": _run_record(0, 0, 0)})


def _fdp_path(spec, y, m, lams, cfg, init=None):
    """The fdp fits along ``lams`` with the log-penalty scale ``spec.a``.

    Each fit at ``lam > 0`` is one ``"fdp"`` envelope loop started at the
    binomial fused-lasso fit at its lam, a start that guards the nonconvex
    path against propagating poor local optima.  Those starts are one
    ``solvers.envelope_fused_lasso_path("binomial-logit", ...)`` call over
    the positive lams, fit 0 from zeros and each later one from the
    previous; ``init``, when given, replaces fit 0's start, and the chain
    then begins at fit 1.  A fit at ``lam = 0`` (the last of a decreasing
    grid) is the pointwise MLE (:func:`_logit_mle`) and needs no start.
    ``y``, ``m``, the grid and ``init`` are validated once, and counts with
    no finite minimizer are rejected before any map when some lam is
    positive.
    """
    cfg = cfg or SolverConfig()
    loss = _logit_loss(y, m)
    y, m, n = loss.y, loss.m, loss.n
    _check_lams(lams)
    starts = [] if init is None else [_mm_start(init, None, n)]
    positive = lams[lams > 0.0]
    fits = []
    if positive.size:
        _check_finite_minimizer(loss, 1.0)
        chain = positive[len(starts):]
        if chain.size:
            starts += [fit.beta for fit in envelope_fused_lasso_path(
                "binomial-logit", y, m, 1.0, chain, np.zeros(n), cfg)]
        for l, start in enumerate(starts):
            fits += envelope_fused_lasso_path("fdp", y, m, 1.0, positive[l:l + 1], start, cfg,
                                              a=float(spec.a))
    if positive.size < lams.size:
        fits.append(_logit_mle(loss))
    return fits


def fit_fdp(y, m, lam: float, a: float = 1.0, init=None,
            cfg: Optional[SolverConfig] = None) -> FitResult:
    """Binomial smoothing with a log penalty on first differences.

    Objective: logit negative log likelihood +
    ``lam * sum_i log(1 + |beta_{i+1} - beta_i| / a)``.  Each map of one
    envelope loop majorizes both terms at the current iterate: the logit
    by its Polya-Gamma quadratic and the concave penalty by its
    linearization, the edge weights ``u_i = lam / (a + |diff_i|)``.  Their
    sum majorizes the objective, so one exact weighted fused lasso per map
    keeps the trace monotone.  The fit is the fdp path (:func:`_fdp_path`)
    on the one-lam grid ``[lam]``: when ``init`` is None it starts at the
    binomial fused-lasso solution at the same lam, and otherwise at
    ``init``.  At ``lam > 0`` every edge weight is positive, so counts that
    are all 0 (or all m) have no finite minimizer and raise
    ``ValidationError`` before any map.  The loop is SQUAREM-extrapolated,
    to ``cfg.tol`` within ``cfg.max_iters`` maps.  ``aux["u"]`` holds the
    edge weights at the fit and ``aux["run"]`` the loop's ``maps``,
    SQUAREM ``steps`` and ``rejected`` extrapolations.  At ``lam = 0`` the
    fit is the closed-form pointwise MLE, and no map runs.
    """
    return _fdp_path(AppSpec("fdp", a=a), y, m, np.array([lam], dtype=float), cfg, init)[0]


# ---------------------------------------------------------------------------
# The application table


@dataclass(frozen=True)
class AppEntry:
    """What paths, CV and the CLI need to know about one app.

    ``path(spec, y, m, lams, cfg)`` validates its inputs once and returns
    the warm-started fits along the float vector ``lams``
    (:func:`_rfl_path`, :func:`_qrtf_path`, :func:`_fdp_path`); a single
    fit, the CLI's ``fit`` included, is the path on a one-lam grid.
    ``loss(spec, y, betas, m)`` is the app's data loss at each row of the
    stacked fits ``betas`` (AIC, held-out CV loss).  ``columns`` are the
    CLI input columns, ``truth(spec, data)`` the truth column of its
    selected fit (or None) and ``params`` the AppSpec fields written in
    its fit records.
    """

    loss: Callable
    path: Callable
    columns: tuple
    truth: Callable
    params: tuple = ()

    @property
    def needs_m(self) -> bool:
        return "m" in self.columns


def _logit_losses(spec, y, betas, m):
    loss = LossSpec("binomial-logit", y=y,
                    m=np.broadcast_to(np.asarray(m, dtype=float), y.shape))
    return np.array([loss_value(loss, beta) for beta in betas])


def _qrtf_truth(spec, data):
    if "truth_mean" in data and "truth_sigma" in data:
        return data["truth_mean"] + ndtri(spec.q) * data["truth_sigma"]
    return None


APP_TABLE = {
    "rfl": AppEntry(
        loss=lambda spec, y, betas, m: np.sum(huber(y - betas), axis=-1),
        path=_rfl_path, columns=("x", "y"),
        truth=lambda spec, data: data.get("truth")),
    "qrtf": AppEntry(
        loss=lambda spec, y, betas, m: np.sum(check_value(y - betas, spec.q), axis=-1),
        path=_qrtf_path, columns=("x", "y"), truth=_qrtf_truth,
        params=("q", "k")),
    "fdp": AppEntry(
        loss=_logit_losses, path=_fdp_path, columns=("x", "y", "m"),
        truth=lambda spec, data: data.get("truth_logodds"), params=("a",)),
}
APPS = tuple(APP_TABLE)


# ---------------------------------------------------------------------------
# Model selection


def aic(fit: FitResult, loss_value_at_fit: float) -> float:
    """Operational AIC: twice the loss at the optimum plus twice the
    number of distinct fitted levels (df)."""
    return 2.0 * float(loss_value_at_fit) + 2.0 * fit.df


def app_loss(app: AppSpec, y, beta, m=None) -> float:
    """The data-fit part of an application objective at a fitted vector."""
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return float(APP_TABLE[app.app].loss(app, y, beta[np.newaxis], m)[0])


def _path_fits(app: AppSpec, y, m, lam_arr, cfg):
    """The fits along ``lam_arr``, by the app's warm-started path."""
    entry = APP_TABLE[app.app]
    if m is None and entry.needs_m:
        raise ValidationError(f"{app.app} requires trial counts m")
    return entry.path(app, y, m, lam_arr, cfg)


def solution_path(app: AppSpec, y, lambdas, m=None, criterion: str = "aic",
                  folds: int = 5, cfg: Optional[SolverConfig] = None) -> SolutionPath:
    """Warm-started fits along a strictly decreasing penalty grid.

    rfl and qrtf fits start at the previous solution; each fdp fit at
    ``lam > 0`` instead starts at the binomial fused-lasso solution for the
    same lam, itself warm-started from the previous lam's, and an fdp fit
    at ``lam = 0`` is the pointwise MLE.  The fits come from the app's
    ``AppEntry.path``, which validates the inputs once: one kernel call
    for the whole rfl or qrtf path; for fdp, one for all the fused-lasso
    starts and then one log-penalty loop per positive lam.  ``criterion``
    is "aic" or "cv"; the AIC losses come from one pass of the app's loss
    over the stacked fits.  Ties select the larger lam.
    """
    lam_arr = np.asarray(lambdas, dtype=float)
    if lam_arr.ndim != 1 or lam_arr.size == 0:
        raise ValidationError("lambdas must be a nonempty vector")
    if lam_arr.shape[0] > 1 and not np.all(np.diff(lam_arr) < 0):
        raise ValidationError("lambdas must be strictly decreasing")
    if criterion not in ("aic", "cv"):
        raise ValidationError(f"unknown criterion {criterion!r}")

    y = np.asarray(y, dtype=float)
    fits = _path_fits(app, y, m, lam_arr, cfg)
    if criterion == "aic":
        losses = APP_TABLE[app.app].loss(app, y, np.stack([f.beta for f in fits]), m)
        crit = np.asarray([aic(f, loss) for f, loss in zip(fits, losses)])
    else:
        _, crit = kfold_cv(app, y, lam_arr, folds, cfg=cfg, m=m)
    selected = int(np.argmin(crit))  # first minimum = largest lam on ties
    return SolutionPath(lambdas=lam_arr, fits=fits,
                        criterion_values=np.asarray(crit, dtype=float),
                        selected=selected)


def kfold_cv(app: AppSpec, y, lambdas, K: int,
             cfg: Optional[SolverConfig] = None, m=None):
    """Interleaved K-fold cross validation over a penalty grid.

    Fold r holds out indices with ``i mod K == r`` (preserving grid
    coverage); fits run on the retained subsequence, warm-started as on
    a solution path, and held-out points are predicted by linear
    interpolation of the fitted vector between the nearest retained
    indices (constant beyond the ends).  The CV loss is the
    application's data loss summed over held-out points.  Returns
    ``(best_lambda, cv_table)`` with ties going to the larger lam.
    """
    if K < 2:
        raise ValidationError("K must be >= 2")
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if K > n:
        raise ValidationError("K cannot exceed the number of observations")
    lam_arr = np.asarray(lambdas, dtype=float)
    if lam_arr.ndim != 1 or lam_arr.size == 0:
        raise ValidationError("lambdas must be a nonempty vector")
    m_arr = None if m is None else np.broadcast_to(np.asarray(m, dtype=float), y.shape)
    idx = np.arange(n)
    table = np.zeros(lam_arr.shape[0])
    for r in range(K):
        held = idx[idx % K == r]
        kept = idx[idx % K != r]
        m_kept, m_held = (None, None) if m_arr is None else (m_arr[kept], m_arr[held])
        fits = _path_fits(app, y[kept], m_kept, lam_arr, cfg)
        preds = np.stack([np.interp(held.astype(float), kept.astype(float), fit.beta)
                          for fit in fits])
        table += APP_TABLE[app.app].loss(app, y[held], preds, m_held)
    best = float(lam_arr[int(np.argmin(table))])
    return best, table


# ---------------------------------------------------------------------------
# Simulators


def _piecewise_levels(x, levels):
    cell = np.minimum((x * len(levels)).astype(int), len(levels) - 1)
    return np.asarray(levels, dtype=float)[cell]


def simulate(app: str, n: int, seed: int, m: Optional[int] = None) -> Dataset:
    """Seeded dataset for one of the three applications.

    rfl: piecewise-constant truth (levels on equal fifths) plus t_3
    noise.  qrtf: mean ``5 sin(2 pi x)`` with noise scale
    ``0.5 + exp(1.5 sin(4 pi x))``.  fdp: binomial counts with a
    piecewise-constant log-odds truth.  The generator is PCG64 with the
    given 64-bit seed, recorded in the metadata; the same seed
    reproduces the dataset bit for bit.
    """
    if app not in APPS:
        raise ValidationError(f"unknown application {app!r}")
    if n < 5:
        raise ValidationError("n must be at least 5")
    rng = np.random.Generator(np.random.PCG64(seed))
    meta = {"generator": "pcg64", "seed": int(seed), "n": int(n)}
    if app == "rfl":
        x = (np.arange(n) + 0.5) / n
        truth = _piecewise_levels(x, RFL_TRUE_LEVELS)
        y = truth + rng.standard_t(3, size=n)
        return Dataset(app, x, y, truth={"truth": truth}, meta=meta)
    if app == "qrtf":
        x = (np.arange(n) + 1.0) / n
        mean = 5.0 * np.sin(2.0 * np.pi * x)
        sigma = 0.5 + np.exp(1.5 * np.sin(4.0 * np.pi * x))
        y = mean + sigma * rng.standard_normal(n)
        return Dataset(app, x, y,
                       truth={"truth_mean": mean, "truth_sigma": sigma},
                       meta=meta)
    m_val = 25 if m is None else int(m)
    if m_val < 1:
        raise ValidationError("m must be a positive trial count")
    x = (np.arange(n) + 0.5) / n
    logodds = _piecewise_levels(x, FDP_TRUE_LEVELS)
    y = rng.binomial(m_val, expit(logodds), size=n).astype(float)
    meta["m"] = m_val
    return Dataset(app, x, y, m=np.full(n, float(m_val)),
                   truth={"truth_logodds": logodds}, meta=meta)
