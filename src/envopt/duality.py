"""Envelope families, numeric conjugates, and identity-check oracles.

Five joint-objective families are supported.  Each one writes a target
function as the infimum over an auxiliary variable ``lam`` of a coupling
term minus/plus a family-specific dual function:

====================== ============================================== =========
family                 integrand                                      domain
====================== ============================================== =========
exponential            ``lam*|x| - dual(lam)``                        lam >= 0
gaussian-scale         ``(lam/2)*x**2 - dual(lam)``                   lam >= 0
gaussian-location      ``0.5*(x - lam)**2 + dual(lam)``               lam in R
variance-mean          ``(lam/2)*(x - drift/lam)**2 - dual(lam)``     lam >= 0
multivariate-location  ``||x - step*lam||^2/(2*step) + dual(lam)``    lam in R^d
====================== ============================================== =========

``dual`` is the conjugate-side function of the family (a concave
conjugate for the first, second and fourth rows, the half-quadratic dual
for the location rows).  The grid search implemented here is the
independent oracle used to validate every closed-form dual and
``lambda_hat`` rule in the catalog modules: it never consults the closed
forms it is checking.

All functions are pure; results are deterministic for a fixed
:class:`GridSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "EnvelopeFamily",
    "GridSpec",
    "EXPONENTIAL",
    "GAUSSIAN_SCALE",
    "GAUSSIAN_LOCATION",
    "variance_mean",
    "multivariate_location",
    "envelope_integrand",
    "conjugate_numeric",
    "envelope_argmin_numeric",
    "check_envelope_identity",
    "default_lambda_grid",
    "EnvelopeReport",
]

_TAGS = (
    "exponential",
    "gaussian-scale",
    "gaussian-location",
    "variance-mean",
    "multivariate-location",
)
_NONNEG_TAGS = ("exponential", "gaussian-scale", "variance-mean")


@dataclass(frozen=True)
class EnvelopeFamily:
    """Tag plus the family-specific constants.

    ``drift`` is the asymmetry constant of the variance-mean family and
    must be present exactly for that tag; ``step`` is the quadratic
    coupling width ``c = 1/L`` of the multivariate location family.
    """

    tag: str
    drift: Optional[float] = None
    step: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValidationError(f"unknown envelope family tag {self.tag!r}")
        if (self.tag == "variance-mean") != (self.drift is not None):
            raise ValidationError("drift is required iff tag == 'variance-mean'")
        if (self.tag == "multivariate-location") != (self.step is not None):
            raise ValidationError("step is required iff tag == 'multivariate-location'")
        if self.step is not None and not self.step > 0:
            raise ValidationError("step must be positive")


EXPONENTIAL = EnvelopeFamily("exponential")
GAUSSIAN_SCALE = EnvelopeFamily("gaussian-scale")
GAUSSIAN_LOCATION = EnvelopeFamily("gaussian-location")


def variance_mean(drift: float) -> EnvelopeFamily:
    return EnvelopeFamily("variance-mean", drift=float(drift))


def multivariate_location(step: float) -> EnvelopeFamily:
    return EnvelopeFamily("multivariate-location", step=float(step))


@dataclass(frozen=True)
class GridSpec:
    """Bracketed grid search with local zoom refinement.

    Each refinement round shrinks the bracket to the 4 grid cells around
    the incumbent and re-grids, giving roughly ``count**rounds`` effective
    resolution at ``(rounds+1) * count`` evaluations.
    """

    lo: float
    hi: float
    count: int = 401
    refinement_rounds: int = 3

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError("GridSpec requires lo < hi")
        if self.count < 3:
            raise ValidationError("GridSpec requires count >= 3")
        if self.refinement_rounds < 0:
            raise ValidationError("GridSpec requires refinement_rounds >= 0")


def _float_if_scalar(out):
    """``out`` as a Python float when it is 0-d, else unchanged: the
    package's functions of one scalar return a float."""
    return float(out) if out.ndim == 0 else out


def _refined_min(values_at, lo, hi, count, rounds):
    """Row-wise grid minimization with zoom refinement.

    ``values_at`` maps a (B, count) grid matrix to same-shape values;
    non-finite entries are skipped.  Returns (min values, argmin
    locations, final grid spacing), each of shape (B,).
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    t = np.linspace(0.0, 1.0, count)
    rows = np.arange(lo.shape[0])
    for r in range(rounds + 1):
        grid = lo[:, None] + (hi - lo)[:, None] * t[None, :]
        vals = np.asarray(values_at(grid), dtype=float)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        idx = np.argmin(vals, axis=1)
        if r == rounds:
            break
        h = (hi - lo) / (count - 1)
        center = grid[rows, idx]
        lo = np.maximum(lo, center - 2.0 * h)
        hi = np.minimum(hi, center + 2.0 * h)
    return vals[rows, idx], grid[rows, idx], (hi - lo) / (count - 1)


# Rows per block keep each grid temporary at 8192 floats (64 KiB), under the
# 128 KiB from which glibc's malloc maps every array afresh: one (5025, 201)
# grid spent a quarter of the conjugate suite in page faults.
_BLOCK_ELEMS = 8192


def _blocked_min(values_at, lo, hi, count, rounds):
    """:func:`_refined_min` over blocks of rows, which are independent, so
    no result changes; ``values_at(rows, grid)`` gets the block's slice."""
    out = np.empty((3, lo.shape[0]))
    step = max(1, _BLOCK_ELEMS // count)
    for start in range(0, lo.shape[0], step):
        rows = slice(start, start + step)
        out[:, rows] = _refined_min(lambda g: values_at(rows, g), lo[rows], hi[rows],
                                    count, rounds)
    return out


def conjugate_numeric(f, lam, grid: GridSpec, sense: str = "convex"):
    """Grid-refined Fenchel conjugate of a scalar function.

    For ``sense='convex'`` returns ``sup_x {lam*x - f(x)}``; for
    ``sense='concave'`` returns ``inf_x {lam*x - f(x)}``, both restricted
    to ``x in [grid.lo, grid.hi]``.  ``f`` must accept ndarray input.
    ``lam`` may be a scalar or an array (evaluated row-wise).
    """
    if sense not in ("convex", "concave"):
        raise ValidationError(f"unknown conjugate sense {sense!r}")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    out = _conjugate_rows(f, lam_arr.ravel(), grid.lo, grid.hi, grid.count,
                          grid.refinement_rounds, sense).reshape(lam_arr.shape)
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return float(out[0])
    return out


def conjugate_numeric_rowwise(f, lam, lo, hi, count=101, rounds=3, sense="concave"):
    """Like :func:`conjugate_numeric` but with per-``lam`` search brackets.

    Used for duals whose conjugate argmin location varies strongly with
    ``lam`` (the bracket must cover it for the result to be exact).
    """
    lam_arr = np.asarray(lam, dtype=float)
    return _conjugate_rows(f, lam_arr.ravel(), lo, hi, count, rounds,
                           sense).reshape(lam_arr.shape)


def _conjugate_rows(f, lam_flat, lo, hi, count, rounds, sense):
    """Row-wise grid conjugate of ``f`` at each entry of ``lam_flat`` over
    ``[lo, hi]`` (scalars or one bracket per entry)."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float).ravel(), lam_flat.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float).ravel(), lam_flat.shape)
    if sense == "convex":
        def values_at(rows, g):
            return np.asarray(f(g), dtype=float) - lam_flat[rows, None] * g
    else:
        def values_at(rows, g):
            return lam_flat[rows, None] * g - np.asarray(f(g), dtype=float)
    vals, _, _ = _blocked_min(values_at, lo, hi, count, rounds)
    return -vals if sense == "convex" else vals


def envelope_integrand(family: EnvelopeFamily, dual, x, lam):
    """Value of the joint term whose infimum over ``lam`` is the target.

    ``dual`` is the family's conjugate-side function evaluated at ``lam``
    (phi* for the exponential family, theta* for the scale family, psi
    for the location families).  ``x`` and ``lam`` broadcast; for the
    multivariate family both are vectors and a scalar is returned.
    """
    tag = family.tag
    if tag == "multivariate-location":
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        c = family.step
        d = x - c * lam
        return float(np.dot(d, d) / (2.0 * c) + dual(lam))
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if tag in _NONNEG_TAGS and np.any(lam < 0):
        raise ValidationError(f"family {tag!r} requires lam >= 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if tag == "exponential":
            out = lam * np.abs(x) - dual(lam)
        elif tag == "gaussian-scale":
            out = 0.5 * lam * x**2 - dual(lam)
        elif tag == "gaussian-location":
            out = 0.5 * (x - lam) ** 2 + dual(lam)
        else:  # variance-mean
            kappa = family.drift
            out = 0.5 * lam * (x - kappa / lam) ** 2 - dual(lam)
    return _float_if_scalar(out)


def default_lambda_grid(family: EnvelopeFamily, x_grid, lambda_hat=None,
                        count: int = 401) -> GridSpec:
    """Default search bracket for the auxiliary variable.

    Nonnegative families search ``[0, lam_max]`` with ``lam_max``
    covering ten times the closed-form update at the smallest \\|x\\|
    tested (the update can blow up near 0); duals that are -inf at 0
    make the integrand +inf there, which the search skips.  Location
    families use a symmetric bracket wide enough for ``x - phi'(x)``.
    Both zoom in three refinement rounds.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if family.tag in _NONNEG_TAGS:
        hi = 10.0
        if lambda_hat is not None:
            xmin = float(np.min(np.abs(x_grid[x_grid != 0])))
            hi = max(10.0, 10.0 * abs(float(lambda_hat(xmin))))
        return GridSpec(0.0, hi, count, 3)
    span = max(1.0, float(np.max(np.abs(x_grid))))
    return GridSpec(-(span + 10.0), span + 10.0, count, 3)


def envelope_argmin_numeric(family: EnvelopeFamily, dual, x, grid: GridSpec):
    """Grid-refined argmin over ``lam`` of the envelope integrand.

    Independent of any closed-form update rule; used to validate them.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    lo = np.full(x_arr.shape, float(grid.lo))
    hi = np.full(x_arr.shape, float(grid.hi))

    def values_at(rows, g):
        return _integrand_matrix(family, dual, x_arr[rows], g)

    _, arg, _ = _blocked_min(values_at, lo, hi, grid.count, grid.refinement_rounds)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(arg[0])
    return arg


def _integrand_matrix(family, dual, x_col, lam_grid):
    """Integrand over a (B, count) lam grid for the column of x values."""
    if family.tag == "multivariate-location":
        raise ValidationError("grid checks support scalar families only")
    return envelope_integrand(family, dual, x_col[:, None], lam_grid)


@dataclass(frozen=True)
class EnvelopeReport:
    """Result of an envelope tightness/argmin check over an x grid."""

    max_gap: float
    worst_x: float
    lambda_agrees: Optional[bool]
    max_lambda_dev: Optional[float]
    final_spacing: float


def check_envelope_identity(family: EnvelopeFamily, dual, target, x_grid,
                            grid: Optional[GridSpec] = None,
                            lambda_hat: Optional[Callable] = None) -> EnvelopeReport:
    """Compare ``target(x)`` with the grid-refined envelope infimum.

    ``max_gap`` is the largest absolute difference over ``x_grid``
    between the target and ``min_lam integrand``.  When ``lambda_hat``
    is supplied, the report also says whether the closed-form update
    matches the numeric argmin within the final grid spacing at every x.
    Failures are reported, never raised: the caller judges the gap.
    """
    x_arr = np.asarray(x_grid, dtype=float)
    if grid is None:
        grid = default_lambda_grid(family, x_arr, lambda_hat)
    lo = np.full(x_arr.shape, float(grid.lo))
    hi = np.full(x_arr.shape, float(grid.hi))

    def values_at(rows, g):
        return _integrand_matrix(family, dual, x_arr[rows], g)

    vals, args, spacing = _blocked_min(values_at, lo, hi, grid.count,
                                       grid.refinement_rounds)
    gaps = np.abs(np.asarray(target(x_arr), dtype=float) - vals)
    worst = int(np.argmax(gaps))
    agrees = None
    max_dev = None
    if lambda_hat is not None:
        lam_closed = np.asarray(lambda_hat(x_arr), dtype=float)
        dev = np.abs(lam_closed - args)
        max_dev = float(np.max(dev))
        # 1 ulp headroom: the argmin lands on grid points, the closed form
        # does not.
        agrees = bool(np.all(dev <= spacing * (1.0 + 1e-9) + 1e-15))
    return EnvelopeReport(
        max_gap=float(gaps[worst]),
        worst_x=float(x_arr[worst]),
        lambda_agrees=agrees,
        max_lambda_dev=max_dev,
        final_spacing=float(np.max(spacing)),
    )
