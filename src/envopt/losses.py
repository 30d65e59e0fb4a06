"""Loss catalog: values, gradients, curvature bounds, envelope updates.

Kinds (``r = y - A @ beta``; identity design when ``A`` is absent):

  gaussian        0.5 * sum(r^2)
  huber           sum(H(r)),  H quadratic inside |r| < 1, linear outside
  check           sum(|r| + (2q-1) r)       (quantile loss, nondifferentiable)
  binomial-logit  sum(m*log(1+exp(eta)) - y*eta),  eta = A @ beta

The envelope-update helpers implement the closed-form auxiliary-variable
rules each solver needs: the Huber location shift, the quantile
weight/working-response pair, and the logit's Polya-Gamma
weight/working-response pair built on the scale update
``(m/2x) * tanh(x/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .duality import _float_if_scalar, _reject_nan
from .errors import CapabilityError, ValidationError, _float_vector, _response
from .operators import soft_threshold

__all__ = [
    "LossSpec",
    "LOSS_KINDS",
    "loss_value",
    "loss_grad",
    "lipschitz_bound",
    "location_envelope_update",
    "variance_mean_update",
    "logit_scale_update",
    "logit_scale_lambda",
    "check_lambda_hat",
    "huber",
    "huber_deriv",
    "check_value",
    "logcosh",
    "huber_location_dual",
    "logcosh_scale_dual",
    "logcosh_location_dual",
    "check_variance_mean_dual",
]

LOSS_KINDS = ("gaussian", "huber", "check", "binomial-logit")

# Cap on the variance-mean weights 1/|r|, reached at (near-)exact fits.
_WEIGHT_CLAMP = 1e6


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Loss tag, responses, and optional design matrix.

    ``y`` is a nonempty finite vector.  ``m`` (trial counts, a scalar or
    one per entry, all at least 1 and finite, with ``0 <= y <= m``) is
    required for binomial-logit, ``q`` for the check loss.  The
    variance-mean drift is derived, never set: it is ``1 - 2q`` for the
    check loss and ``y - m/2`` per observation for the logit.  The Huber
    threshold is 1, as in the compiled fused-lasso loop.
    """

    kind: str
    y: np.ndarray
    m: Optional[np.ndarray] = None
    q: Optional[float] = None
    design: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        y = _response(self.y, 1)
        object.__setattr__(self, "y", y)
        if self.kind == "binomial-logit":
            if self.m is None:
                raise ValidationError("binomial-logit requires trial counts m")
            m = _float_vector(self.m, y.shape[0], "m")
            # a NaN m passes this test and fails the next
            if np.any(y < 0) or np.any(y > m):
                raise ValidationError("need 0 <= y <= m")
            if not np.all((m >= 1) & (m < np.inf)):
                raise ValidationError("m must be positive counts")
            object.__setattr__(self, "m", m)
        if self.kind == "check":
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValidationError("check loss requires q in (0, 1)")
        if self.design is not None:
            A = np.asarray(self.design, dtype=float)
            if A.ndim != 2 or A.shape[0] != y.shape[0] or not np.all(np.isfinite(A)):
                raise ValidationError("design must be a finite n x d matrix")
            object.__setattr__(self, "design", A)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.n if self.design is None else self.design.shape[1]

    @property
    def kappa(self):
        """Variance-mean drift: 1 - 2q (check) or y - m/2 (logit)."""
        if self.kind == "check":
            return 1.0 - 2.0 * self.q
        if self.kind == "binomial-logit":
            return self.y - self.m / 2.0
        raise CapabilityError(f"kind {self.kind!r} has no drift parameter")

    def predict(self, beta: np.ndarray) -> np.ndarray:
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.dim,):
            raise ValidationError(
                f"beta must have length {self.dim}, got {beta.shape}")
        if self.design is None:
            return beta
        return self.design @ beta


def huber(x, delta: float = 1.0):
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.where(ax < delta, 0.5 * x**2, delta * ax - 0.5 * delta**2)
    return _float_if_scalar(out)


def huber_deriv(x, delta: float = 1.0):
    return np.clip(np.asarray(x, dtype=float), -delta, delta)


def check_value(x, q: float):
    x = np.asarray(x, dtype=float)
    out = np.abs(x) + (2.0 * q - 1.0) * x
    return _float_if_scalar(out)


def logcosh(x, m: float = 1.0):
    """m * log cosh(u), u = |x|/2: for u < 1 as ``log1p(2 sinh(u/2)^2)``,
    which keeps its digits at small u, and beyond as ``u + log1p(e^{-2u})
    - log 2``, which does not overflow."""
    au = np.abs(0.5 * np.asarray(x, dtype=float))
    out = np.empty(au.shape)
    small = au < 1.0
    u = au[small]
    out[small] = np.log1p(2.0 * np.sinh(0.5 * u) ** 2)
    u = au[~small]
    out[~small] = u + np.log1p(np.exp(-2.0 * u)) - np.log(2.0)
    return _float_if_scalar(m * out)


def loss_value(l: LossSpec, beta) -> float:
    return _loss_value_at(l, l.predict(beta))


def _loss_value_at(l: LossSpec, eta) -> float:
    """:func:`loss_value` at the linear predictor ``eta = A beta``."""
    if l.kind == "gaussian":
        r = l.y - eta
        return float(0.5 * np.dot(r, r))
    if l.kind == "huber":
        return float(np.sum(huber(l.y - eta)))
    if l.kind == "check":
        return float(np.sum(check_value(l.y - eta, l.q)))
    # binomial-logit
    return float(np.sum(l.m * np.logaddexp(0.0, eta) - l.y * eta))


def loss_grad(l: LossSpec, beta) -> np.ndarray:
    """Exact gradient ``A.T r(beta)``; the check loss has none."""
    if l.kind == "check":
        raise CapabilityError("check loss is nondifferentiable; no gradient")
    return _loss_grad_at(l, l.predict(beta))


def _loss_grad_at(l: LossSpec, eta) -> np.ndarray:
    """:func:`loss_grad` at the linear predictor ``eta = A beta``."""
    if l.kind == "gaussian":
        r = eta - l.y
    elif l.kind == "huber":
        r = -huber_deriv(l.y - eta)
    else:  # binomial-logit
        r = l.m * expit(eta) - l.y
    if l.design is None:
        return r
    return l.design.T @ r


def lipschitz_bound(l: LossSpec) -> float:
    """Gradient Lipschitz constant: l_d for gaussian/huber (with threshold
    <= 1 curvature), (max m) * l_d / 4 for the logit; l_d is the top
    eigenvalue of A.T A, the squared spectral norm of A, computed exactly
    by the SVD (1 for the identity design)."""
    if l.kind == "check":
        raise CapabilityError("check loss has no Lipschitz gradient")
    ld = 1.0 if l.design is None else float(np.linalg.norm(l.design, 2)) ** 2
    if l.kind == "binomial-logit":
        return float(np.max(l.m)) * ld / 4.0
    return ld


def location_envelope_update(l: LossSpec, beta) -> np.ndarray:
    """Huber location shift: u_i = 0 inside the threshold 1, r - sgn(r)
    outside, at r = y - beta (identity design only)."""
    if l.kind != "huber":
        raise CapabilityError("location envelope update is a huber rule")
    if l.design is not None:
        raise CapabilityError("location envelope update needs identity design")
    r = l.y - np.asarray(beta, dtype=float)
    return soft_threshold(r, 1.0)


def variance_mean_update(l: LossSpec, beta):
    """Quantile weights and working responses.

    omega_i = min(1/|r_i|, 1e6) and z_i = y_i - (1-2q)/omega_i; the
    clamp absorbs exact fits without moving fixed points materially.
    """
    if l.kind != "check":
        raise CapabilityError("variance-mean update is a check-loss rule")
    r = l.y - l.predict(beta)
    with np.errstate(divide="ignore"):
        omega = np.minimum(1.0 / np.abs(r), _WEIGHT_CLAMP)
    omega = np.where(np.isnan(omega), _WEIGHT_CLAMP, omega)
    z = l.y - (1.0 - 2.0 * l.q) / omega
    return omega, z


def logit_scale_update(l: LossSpec, beta):
    """Polya-Gamma weights and working responses of the binomial logit.

    omega_i = (m_i/2 eta_i) tanh(eta_i/2) (:func:`logit_scale_lambda`, the
    mean of the Polya-Gamma mixing variable at eta = A beta) and
    z_i = (y_i - m_i/2)/omega_i: the quadratic ``(omega/2)(e - z)^2`` in
    the linear predictor e majorizes the logit loss up to a constant and
    touches it at eta (the paper's Gaussian scale-mixture envelope).
    """
    if l.kind != "binomial-logit":
        raise CapabilityError("logit scale update is a binomial-logit rule")
    omega = logit_scale_lambda(l.predict(beta), l.m)
    return omega, l.kappa / omega


def check_lambda_hat(x):
    """Scalar variance-mean update for the check loss: sgn(x)/x = 1/|x|."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = 1.0 / np.abs(x)
    return _float_if_scalar(out)


def logit_scale_lambda(x, m=1.0):
    """(m/2x) * tanh(x/2) with its analytic limit m/4 at x = 0."""
    x = np.asarray(x, dtype=float)
    u = 0.5 * x
    small = np.abs(u) < 1e-6
    safe = np.where(small, 1.0, u)
    ratio = np.where(small, 1.0 - u**2 / 3.0, np.tanh(safe) / safe)
    out = 0.25 * np.asarray(m, dtype=float) * ratio
    return _float_if_scalar(out)


# ---------------------------------------------------------------------------
# Envelope duals for the loss catalog


def huber_location_dual(delta: float = 1.0):
    """psi(lam) = delta * |lam|: the Huber loss is the Moreau envelope of
    this dual in the location family."""

    def dual(lam):
        lam = np.asarray(lam, dtype=float)
        out = delta * np.abs(lam)
        return _float_if_scalar(out)

    return dual


def _newton_from_above(x, newton):
    """Iterates ``x <- newton(x)`` from ``x``, elementwise on the whole
    array, where ``x`` is an upper bound of the root of a function that
    is convex above its root and increases through it, and ``newton``
    is its Newton step.  From above the root each iterate falls to it
    monotonically, so an element stops at the first step that does not
    lower it (a NaN step included), and every element after 100 steps.
    """
    live = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            new = newton(x)
            live &= new < x
            if not live.any():
                break
            x = np.where(live, new, x)
    return x


def _scale_root(r):
    """The root ``u > 0`` of ``r u = tanh(u)`` for each ``0 < r < 1``.

    Newton starts at an upper bound of the root: ``1/r``, since
    ``tanh(u) < 1``, and for ``r > 1/6`` also ``sqrt(15(1-r)/(6r-1))``,
    which follows from the Pade bound
    ``tanh(u) <= (u + u^3/15)/(1 + 2u^2/5)`` on ``u >= 0``.
    ``r u - tanh(u)`` is convex on ``u >= 0`` and vanishes at 0 and at
    the root (:func:`_newton_from_above`).  Each step takes tanh and
    sech^2 from one ``expm1(-2u)``.
    """
    with np.errstate(divide="ignore"):
        pade = np.sqrt(15.0 * (1.0 - r) / np.maximum(6.0 * r - 1.0, 0.0))

    def newton(u):
        em = np.expm1(-2.0 * u)  # e - 1 for e = exp(-2u)
        den = 2.0 + em  # 1 + e
        return u - (r * u + em / den) / (r - 4.0 * (1.0 + em) / (den * den))

    return _newton_from_above(np.minimum(1.0 / r, pade), newton)


def logcosh_scale_dual(m: float = 1.0):
    """Concave dual of theta(z) = m log cosh(sqrt(2z)/2):
    ``lam x^2/2 - logcosh(x, m)`` at the stationary point, where
    ``u = x/2`` solves ``tanh(u)/u = 4 lam/m`` (:func:`_scale_root`);
    0 for lam >= m/4 and -inf for lam <= 0.  A NaN lam raises
    ValidationError."""
    if not m > 0:
        raise ValidationError("logcosh scale dual requires m > 0")

    def dual(lam):
        lam = _reject_nan(lam)
        out = np.where(lam > 0, 0.0, -np.inf)
        r = 4.0 * lam / m
        # x = 2/r overflows near r = 1e-308; below r = 1e-300, tanh(1/r)
        # is 1 in floating point, so the root is u = 1/r and the value
        # its limit -m^2/(8 lam) + m log 2 (-inf below lam = m^2/1.4e309)
        far = (lam > 0) & (r < 1e-300)
        with np.errstate(over="ignore"):
            out[far] = -(0.125 * m * m) / lam[far] + m * np.log(2.0)
        inner = (r >= 1e-300) & (lam < 0.25 * m)
        x = 2.0 * _scale_root(r[inner])
        out[inner] = 0.5 * lam[inner] * x * x - logcosh(x, m)
        return _float_if_scalar(out)

    return dual


def logcosh_location_dual(m: float = 1.0):
    """Half-quadratic dual psi(lam) = sup_x {-(x-lam)^2/2 + logcosh(x, m)},
    evaluated at the root of ``x - lam = (m/2) tanh(x/2)``.  That root
    lies in ``[lam - m/2, lam + m/2]`` and is unique only for
    ``0 < m <= 4``, the range where the envelope is tight.  psi is +inf
    at lam = +-inf, and a NaN lam raises ValidationError."""
    if not 0 < m <= 4:
        raise ValidationError("logcosh location dual requires 0 < m <= 4")
    half = 0.5 * m

    def dual(lam):
        lam = _reject_nan(lam)
        out = np.full(lam.shape, np.inf)
        fin = np.isfinite(lam)
        lam_f = lam[fin]
        # the root has the sign of lam and is odd in it, so Newton solves
        # x - |lam| - (m/2) tanh(x/2) = 0 for x = |root|, from an upper
        # bound: that function is convex for x > 0.  With v = x/2,
        # tanh(v) < 1 gives |x| <= |lam| + m/2 and tanh(v) <= v gives
        # |x| <= |lam|/(1 - m/4); at m = 4 the root at lam = 0 is triple,
        # and v - tanh(v) >= v^3/6 for v <= 1.58, >= v/2.4 beyond, give
        # |x| <= 2 max(cbrt(3|lam|), 1.2|lam|) instead
        al = np.abs(lam_f)
        # near the end of the float range the bound overflows to inf, and
        # al + half below is the start
        with np.errstate(over="ignore"):
            if m < 4:
                bound = al / (1.0 - 0.25 * m)
            else:
                bound = 2.0 * np.maximum(np.cbrt(3.0 * al), 1.2 * al)

        def newton(x):  # on |x|, with tanh(x/2) and sech(x/2)^2 from one expm1(-x)
            em = np.expm1(-x)
            den = 2.0 + em
            return x - (x - al + half * em / den) / (1.0 - 2.0 * half * (1.0 + em) / (den * den))

        x = _newton_from_above(np.minimum(al + half, bound), newton)
        # below x = 1e-3 rounding swamps psi, O(x^2) (O(x^4) at m = 4), in
        # the difference below: there psi is the series of m log cosh(x/2)
        # - (m^2/8) tanh(x/2)^2, its value at the root, and the m = 4 root
        # is that of the root function's series x^3/12 - |lam|
        if m == 4:
            tiny = al < 1e-9 / 12.0
            x[tiny] = np.cbrt(12.0 * al[tiny])
        x = np.copysign(x, lam_f)
        with np.errstate(over="ignore"):  # psi ~ m |lam| / 2 is inf past the float range
            psi = logcosh(x, m) - 0.5 * (x - lam_f) ** 2
        small = np.abs(x) < 1e-3
        x2 = x[small] ** 2
        psi[small] = x2 * (m * (4.0 - m) / 32.0 + m * (m - 1.0) / 192.0 * x2)
        out[fin] = psi
        return _float_if_scalar(out)

    return dual


def check_variance_mean_dual(q: float):
    """psi(lam) = kappa^2/(2 lam) - 1/(2 lam) with kappa = 1 - 2q.

    The second term is the concave dual of theta(z) = sqrt(2z); the grid
    oracle confirms this form makes the check-loss envelope tight.  A NaN
    lam raises ValidationError.
    """
    kappa = 1.0 - 2.0 * q

    def dual(lam):
        lam = _reject_nan(lam)
        # -inf also where (kappa^2 - 1)/(2 lam) passes -1.8e308 (subnormal lam)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(lam > 0, (kappa**2 - 1.0) / (2.0 * lam), -np.inf)
        return _float_if_scalar(out)

    return dual
