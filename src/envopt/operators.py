"""Discrete difference operators and scalar thresholding/envelope utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import Coupling, GridSpec, _float_if_scalar, _reject_nonfinite, _zoom_min
from .errors import ValidationError, _count

__all__ = [
    "DifferenceOperator",
    "diff_matrix",
    "soft_threshold",
    "moreau_envelope_numeric",
]


@dataclass(frozen=True, eq=False)
class DifferenceOperator:
    """Banded discrete difference matrix of order ``order + 1``.

    Row ``i`` holds the alternating-binomial ``stencil`` starting at
    column ``i``: the first-difference matrix has rows ``(+1, -1)``, and
    higher orders follow the recursion ``D_next = D_first @ D``.  Applying the
    operator to samples of a polynomial of degree <= ``order`` gives zero.
    """

    order: int            # k; the operator forms (k+1)-th differences
    n: int                # signal length
    stencil: np.ndarray   # (k + 2,); every row, shifted to start at its index

    @property
    def rows(self) -> int:
        return self.n - self.order - 1

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValidationError(f"expected vector of length {self.n}, got {v.shape}")
        return np.correlate(v, self.stencil, mode="valid")

    def transpose_apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.rows,):
            raise ValidationError(f"expected vector of length {self.rows}, got {u.shape}")
        return np.convolve(u, self.stencil, mode="full")

    def dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.n))
        width = self.order + 2
        for i in range(self.rows):
            out[i, i:i + width] = self.stencil
        return out

    def gram_transpose_bands(self) -> np.ndarray:
        """Upper banded form of ``D @ D.T`` (m x m, full autocorrelation)."""
        s = self.stencil
        p = s.shape[0]
        m = self.rows
        ab = np.zeros((p, m))
        for lag in range(p):
            ab[p - 1 - lag, lag:] = np.dot(s[: p - lag], s[lag:])
        return ab


def diff_matrix(n: int, k: int) -> DifferenceOperator:
    """Difference operator of order ``k + 1`` on a length-``n`` signal.

    ``k = 0`` gives the first-difference matrix (fused lasso), ``k = 1``
    second differences, and so on.  Requires ``n >= k + 2``.
    """
    k = _count(k, "order k", 0)
    if n < k + 2:
        raise ValidationError(f"need n >= k + 2, got n={n}, k={k}")
    stencil = np.array([1.0])
    for _ in range(k + 1):
        stencil = np.convolve(stencil, np.array([1.0, -1.0]))
    return DifferenceOperator(order=k, n=n, stencil=stencil)


def soft_threshold(y, lam):
    """Shrink toward zero: ``sgn(y) * max(|y| - lam, 0)``.

    The proximal operator of ``lam * |.|``; ``lam`` must be >= 0 and may
    be an array broadcasting against ``y``.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0):
        raise ValidationError("soft_threshold requires lam >= 0")
    y_arr = np.asarray(y, dtype=float)
    out = np.sign(y_arr) * np.maximum(np.abs(y_arr) - lam_arr, 0.0)
    return _float_if_scalar(out)


def moreau_envelope_numeric(f, gamma: float, x, grid: GridSpec):
    """Grid-refined Moreau envelope ``inf_z {f(z) + (z - x)^2 / (2*gamma)}``.

    Always <= f(x); f may return +inf to encode constraints.
    """
    if not gamma > 0:
        raise ValidationError("gamma must be positive")
    x_arr = _reject_nonfinite(np.atleast_1d(np.asarray(x, dtype=float)), "x")
    lo = np.full(x_arr.shape, float(grid.lo))
    hi = np.full(x_arr.shape, float(grid.hi))
    couple = Coupling("b*(a-g)^2+f", x_arr, 1.0 / (2.0 * gamma))  # (z - x)^2/(2 gamma) + f(z)
    vals, _, _ = _zoom_min(f, couple, lo, hi, grid.count, grid.refinement_rounds)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(vals[0])
    return vals
