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

from .errors import ValidationError, _count

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
        if self.drift is not None and not np.isfinite(self.drift):
            raise ValidationError("drift must be finite")
        if self.step is not None and not 0 < self.step < np.inf:
            raise ValidationError("step must be positive and finite")


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
    resolution in ``rounds + 1`` grids of ``count`` points per point
    searched.  The part of the objective that depends on the grid point
    alone is evaluated once per distinct grid row of the whole search:
    points that share a bracket share the first grid, and those whose
    incumbents fall in the same cell share the next.  Grids and values are
    formed in blocks of at most 8192 floats (64 KiB), so memory does not
    grow with the number of points.  Each point's own term (its ``x`` or
    ``lam``) is added by a plain function of the caller, in the caller's
    arithmetic.  ``lo`` and ``hi`` must be finite, ``count`` an integer of
    at least 3 and ``refinement_rounds`` a nonnegative integer.
    """

    lo: float
    hi: float
    count: int = 401
    refinement_rounds: int = 3

    def __post_init__(self):
        _check_brackets(self.lo, self.hi, self.count, self.refinement_rounds, "GridSpec")


def _check_brackets(lo, hi, count, rounds, what):
    """ValidationError unless every bracket ``[lo, hi]`` is finite with
    ``lo < hi``, ``count`` is an integer of at least 3 and ``rounds`` a
    nonnegative integer (:func:`errors._count`)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValidationError(f"{what} requires finite lo and hi")
    if not (lo < hi).all():
        raise ValidationError(f"{what} requires lo < hi")
    _count(count, f"{what} count", 3)
    _count(rounds, f"{what} refinement rounds", 0)


def _float_if_scalar(out):
    """``out`` as a Python float when it is 0-d, else unchanged: the
    package's functions of one scalar return a float."""
    return float(out) if out.ndim == 0 else out


def _reject_nan(lam):
    """``lam`` as a float array, or ValidationError if an entry is NaN."""
    lam = np.asarray(lam, dtype=float)
    if np.isnan(lam).any():
        raise ValidationError("lam must not be NaN")
    return lam


def _x_grid(x_grid):
    """``x_grid`` flattened to a float vector, or ValidationError unless it
    is nonempty and every x is finite."""
    x = _reject_nonfinite(np.asarray(x_grid, dtype=float).ravel(), "x")
    if x.size == 0:
        raise ValidationError("x_grid must not be empty")
    return x


def _reject_nonfinite(points, what):
    """``points`` unchanged, or ValidationError if one is NaN or infinite:
    its grid values would be non-finite, which the search skips, and it
    would report an infinite minimum (or a NaN gap, or a bracket end)."""
    if not np.isfinite(points).all():
        raise ValidationError(f"{what} must not be NaN or infinite")
    return points


# Each grid, f-value or term temporary holds at most 8192 floats (64 KiB),
# under the 128 KiB from which glibc's malloc maps every array afresh, so
# that the search does not page-fault on each new temporary.
_BLOCK_ELEMS = 8192


def _zoom_min(f, term, lo, hi, count, rounds):
    """Row-wise grid minimization of ``term(rows, grid, f(grid))`` with
    zoom refinement over the brackets ``[lo, hi]`` (one per row).

    ``f`` maps a (groups, count) grid matrix to same-shape values and
    must act elementwise: it is the part of the objective that depends
    on the grid point alone.  ``term(rows, grid, fvals)`` adds the own
    term of the rows ``rows`` (an index array) and returns
    ``(len(rows), count)`` values; it gets the grid and ``f``'s values
    either gathered to one row per row or, when the rows share one grid,
    as a single broadcasting row.  A term that depends on the row in more
    than a cheap expression (each row's own penalty, say) evaluates all
    of it from ``rows``, and ``f`` returns zeros.

    Rows whose brackets are equal bit for bit search the same grid, so
    ``f`` is evaluated once per distinct grid row of the whole call: rows
    start in one group when all share ``(lo, hi)``, else one group per
    row, and after each round a row's group is (its old group, its
    argmin index), which fixes its next bracket.  Rows are kept in group
    order; each round evaluates ``f`` on blocks of groups of at most
    ``_BLOCK_ELEMS`` floats (one group when ``count`` is larger), whose
    grid rows are ``lo + (hi - lo) * t`` of their groups, and scans
    those groups' rows by :func:`_scan`.  The argmin locations returned,
    ``lo + (hi - lo) * t[cell]``, have the bits of their grid points.
    Non-finite values are skipped, and ``term`` runs with numpy's
    division, invalid and overflow warnings off.  The caller validates
    the brackets (finite, ``lo < hi``), ``count`` (an integer of at
    least 3) and ``rounds`` (a nonnegative integer).  Returns a (3, B)
    array: min values, argmin locations and final grid spacing.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nrows = lo.shape[0]
    if nrows == 0:
        return np.empty((3, 0))
    t = np.linspace(0.0, 1.0, count)
    step = max(1, _BLOCK_ELEMS // count)
    if (lo == lo[0]).all() and (hi == hi[0]).all():
        lo, hi = lo[:1], hi[:1]
        group = np.zeros(nrows, dtype=np.intp)
    else:
        group = np.arange(nrows, dtype=np.intp)
    order = np.arange(nrows, dtype=np.intp)  # rows in group order; group[i] is order[i]'s
    idx = np.empty(nrows, dtype=np.intp)
    vals = np.empty(nrows)
    for r in range(rounds + 1):
        width = hi - lo
        ngroups = lo.shape[0]
        edges = np.searchsorted(group, np.arange(0, ngroups + step, step)).tolist()
        for g0, start, stop in zip(range(0, ngroups, step), edges[:-1], edges[1:]):
            grid = lo[g0:g0 + step, None] + width[g0:g0 + step, None] * t
            fvals = np.asarray(f(grid), dtype=float)
            at = slice(start, stop)
            _scan(term, order[at], group[at] - g0, grid, fvals, vals[at], idx[at])
        if r == rounds:
            break
        if ngroups == nrows:  # one row per group: groups never merge
            parent, cell = group, idx
        else:
            key = group * count + idx
            perm = np.argsort(key, kind="stable")
            key, order = key[perm], order[perm]
            first = np.empty(nrows, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            group = np.cumsum(first, dtype=np.intp) - 1
            parent, cell = np.divmod(key[first], count)
        h = width[parent] / (count - 1)
        center = lo[parent] + width[parent] * t[cell]
        lo = np.maximum(lo[parent], center - 2.0 * h)
        hi = np.minimum(hi[parent], center + 2.0 * h)
    out = np.empty((3, nrows))
    out[0, order] = vals
    out[1, order] = lo[group] + width[group] * t[idx]
    out[2, order] = (width / (count - 1))[group]
    return out


def _scan(term, rows, grp, grid, fvals, vals, idx):
    """Numpy scan of one block: writes to ``vals[i]`` and ``idx[i]`` the
    first minimum over the finite values of ``term(rows[i], grid[grp[i]],
    fvals[grp[i]])`` and its index, or +inf and 0 when none is finite.

    ``grp`` is non-decreasing and names every grid row.  The term's
    values are formed for at most ``_BLOCK_ELEMS`` floats of rows at a
    time (one row when ``count`` is larger).
    """
    nrows, count = rows.shape[0], grid.shape[1]
    step = max(1, _BLOCK_ELEMS // count)
    singles = nrows == grid.shape[0]  # one row per grid row: no gather
    at_row = np.arange(min(step, nrows))
    for a in range(0, nrows, step):
        b = min(a + step, nrows)
        if singles:
            at = slice(a, b)
        elif grp[a] == grp[b - 1]:
            at = slice(grp[a], grp[a] + 1)
        else:
            at = grp[a:b]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = term(rows[a:b], grid[at], fvals[at])
        j = np.argmin(v, axis=1)
        best = v[at_row[:b - a], j]
        # a row holding NaN or -inf selects one, so masking can only
        # move the argmin of a row whose selected minimum is non-finite
        if not np.isfinite(best).all():
            v = np.where(np.isfinite(v), v, np.inf)
            j = np.argmin(v, axis=1)
            best = v[at_row[:b - a], j]
        idx[a:b] = j
        vals[a:b] = best


def conjugate_numeric(f, lam, grid: GridSpec, sense: str = "convex"):
    """Grid-refined Fenchel conjugate of a scalar function.

    For ``sense='convex'`` returns ``sup_x {lam*x - f(x)}``; for
    ``sense='concave'`` returns ``inf_x {lam*x - f(x)}``, both restricted
    to ``x in [grid.lo, grid.hi]``.  ``f`` must accept ndarray input.
    ``lam`` may be a scalar or an array (evaluated row-wise).
    """
    if sense not in ("convex", "concave"):
        raise ValidationError(f"unknown conjugate sense {sense!r}")
    out = _conjugate_rows(f, np.asarray(lam, dtype=float).ravel(), grid.lo, grid.hi,
                          grid.count, grid.refinement_rounds, sense)
    return _float_if_scalar(out.reshape(np.shape(lam)))


def conjugate_numeric_rowwise(f, lam, lo, hi, count=101, rounds=3, sense="concave"):
    """Like :func:`conjugate_numeric` but with per-``lam`` search brackets.

    Used for duals whose conjugate argmin location varies strongly with
    ``lam`` (the bracket must cover it for the result to be exact).
    ``lo`` and ``hi`` are scalars or hold one entry per ``lam``.  Every
    bracket must be finite with ``lo < hi``, as in a :class:`GridSpec`,
    ``count`` an integer of at least 3 and ``rounds`` a nonnegative
    integer.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if {np.size(lo), np.size(hi)} - {1, lam_arr.size}:
        raise ValidationError("conjugate_numeric_rowwise needs one bracket or one per lam")
    _check_brackets(lo, hi, count, rounds, "conjugate_numeric_rowwise")
    return _conjugate_rows(f, lam_arr.ravel(), lo, hi, count, rounds,
                           sense).reshape(lam_arr.shape)


def _conjugate_rows(f, lam_flat, lo, hi, count, rounds, sense):
    """Row-wise grid conjugate of ``f`` at each entry of ``lam_flat`` over
    ``[lo, hi]`` (scalars or one bracket per entry)."""
    _reject_nonfinite(lam_flat, "lam")
    lo = np.broadcast_to(np.asarray(lo, dtype=float).ravel(), lam_flat.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float).ravel(), lam_flat.shape)
    if sense == "convex":
        def term(rows, x, fx):
            return fx - lam_flat[rows, None] * x
    else:
        def term(rows, x, fx):
            return lam_flat[rows, None] * x - fx
    vals, _, _ = _zoom_min(f, term, lo, hi, count, rounds)
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
        return _float_if_scalar(_integrand(family, x, lam, dual(lam)))


def _dual_values(dual, lam):
    """``dual(lam)`` without warnings where it is infinite or undefined:
    the integrand is then non-finite, which the grid search skips."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return dual(lam)


def _integrand(family, x, lam, d):
    """The integrand of a scalar ``family`` at ``x`` and ``lam`` (they
    broadcast), where the dual's values are ``d``: the table of the
    module docstring."""
    tag = family.tag
    if tag == "exponential":
        return np.abs(x) * lam - d
    if tag == "gaussian-scale":
        return 0.5 * x**2 * lam - d
    if tag == "gaussian-location":
        return 0.5 * (x - lam) ** 2 + d
    return 0.5 * lam * (x - family.drift / lam) ** 2 - d  # variance-mean


def default_lambda_grid(family: EnvelopeFamily, x_grid, lambda_hat=None,
                        count: int = 401) -> GridSpec:
    """Default search bracket for the auxiliary variable.

    Nonnegative families search ``[0, lam_max]`` with ``lam_max``
    covering ten times the closed-form update at the smallest \\|x\\|
    tested (the update can blow up near 0), or ``[0, 10]`` when no x is
    nonzero; duals that are -inf at 0 make the integrand +inf there,
    which the search skips.  Location
    families use a symmetric bracket wide enough for ``x - phi'(x)``.
    Both zoom in three refinement rounds.  An empty ``x_grid``, or one
    holding NaN or an infinity, raises ValidationError.
    """
    x_grid = _x_grid(x_grid)
    if family.tag in _NONNEG_TAGS:
        hi = 10.0
        nonzero = np.abs(x_grid[x_grid != 0])
        if lambda_hat is not None and nonzero.size:
            hi = max(10.0, 10.0 * abs(float(lambda_hat(float(np.min(nonzero))))))
        return GridSpec(0.0, hi, count, 3)
    span = max(1.0, float(np.max(np.abs(x_grid))))
    return GridSpec(-(span + 10.0), span + 10.0, count, 3)


def envelope_argmin_numeric(family: EnvelopeFamily, dual, x, grid: GridSpec):
    """Grid-refined argmin over ``lam`` of the envelope integrand.

    Independent of any closed-form update rule; used to validate them.
    """
    x_flat = _reject_nonfinite(np.asarray(x, dtype=float).ravel(), "x")
    _, arg, _ = _envelope_min(family, dual, x_flat, grid)
    return _float_if_scalar(arg.reshape(np.shape(x)))


def _envelope_min(family, dual, x_flat, grid):
    """:func:`_zoom_min` of the integrand over ``grid`` for each entry of
    the vector ``x_flat``: the dual is the part that depends on lam
    alone."""
    if family.tag == "multivariate-location":
        raise ValidationError("grid checks support scalar families only")
    if family.tag in _NONNEG_TAGS and grid.lo < 0:
        raise ValidationError(f"family {family.tag!r} requires lam >= 0")
    lo = np.full(x_flat.shape, float(grid.lo))
    hi = np.full(x_flat.shape, float(grid.hi))
    return _zoom_min(lambda lam: _dual_values(dual, lam),
                     lambda rows, lam, d: _integrand(family, x_flat[rows, None], lam, d),
                     lo, hi, grid.count, grid.refinement_rounds)


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
    Failures are reported, never raised: the caller judges the gap.  An
    empty ``x_grid``, or one holding NaN or an infinity, raises
    ValidationError.
    """
    x_arr = _x_grid(x_grid)
    if grid is None:
        grid = default_lambda_grid(family, x_arr, lambda_hat)
    vals, args, spacing = _envelope_min(family, dual, x_arr, grid)
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
