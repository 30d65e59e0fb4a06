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

from .duality import _float_if_scalar
from .errors import CapabilityError, ValidationError
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

# Seed for the power-iteration start vector; fixed so bounds are
# deterministic for fixed inputs.
_POWER_SEED = 0x5EED

# Cap on the variance-mean weights 1/|r|, reached at (near-)exact fits.
_WEIGHT_CLAMP = 1e6


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Loss tag, responses, and optional design matrix.

    ``m`` (trial counts) is required for binomial-logit, ``q`` for the
    check loss.  The variance-mean drift is derived, never set: it is
    ``1 - 2q`` for the check loss and ``y - m/2`` per observation for the
    logit.  The Huber threshold is 1, as in the compiled fused-lasso loop.
    """

    kind: str
    y: np.ndarray
    m: Optional[np.ndarray] = None
    q: Optional[float] = None
    design: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or not np.all(np.isfinite(y)):
            raise ValidationError("y must be a finite 1-d vector")
        object.__setattr__(self, "y", y)
        if self.kind == "binomial-logit":
            if self.m is None:
                raise ValidationError("binomial-logit requires trial counts m")
            m = np.asarray(self.m, dtype=float)
            if m.shape != y.shape or not np.all((m >= 1) & (m < np.inf)):
                raise ValidationError("m must be positive counts matching y")
            if np.any(y < 0) or np.any(y > m):
                raise ValidationError("binomial-logit requires 0 <= y <= m")
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
    """m * log cosh(x/2), computed stably for large |x|."""
    x = np.asarray(x, dtype=float)
    au = np.abs(0.5 * x)
    out = m * (au + np.log1p(np.exp(-2.0 * au)) - np.log(2.0))
    return _float_if_scalar(out)


def loss_value(l: LossSpec, beta) -> float:
    eta = l.predict(beta)
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
    eta = l.predict(beta)
    if l.kind == "gaussian":
        r = eta - l.y
    elif l.kind == "huber":
        r = -huber_deriv(l.y - eta)
    else:  # binomial-logit
        r = l.m * expit(eta) - l.y
    if l.design is None:
        return r
    return l.design.T @ r


def _top_eig_gram(A: np.ndarray, tol: float = 1e-12, max_iters: int = 100_000) -> float:
    """Largest eigenvalue of A.T A by power iteration (fixed seed start)."""
    d = A.shape[1]
    rng = np.random.Generator(np.random.PCG64(_POWER_SEED))
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    eig = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new = float(v @ w)
        v = w / nw
        if abs(new - eig) <= tol * max(1.0, abs(new)):
            eig = new
            break
        eig = new
    return eig


def lipschitz_bound(l: LossSpec) -> float:
    """Gradient Lipschitz constant: l_d for gaussian/huber (with threshold
    <= 1 curvature), (max m) * l_d / 4 for the logit; l_d is the top
    eigenvalue of A.T A (1 for the identity design)."""
    if l.kind == "check":
        raise CapabilityError("check loss has no Lipschitz gradient")
    ld = 1.0 if l.design is None else _top_eig_gram(l.design)
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


def _sech2(u):
    """sech(u)^2 as 4e/(1+e)^2 with e = exp(-2|u|), so large |u| cannot
    overflow."""
    e = np.exp(-2.0 * np.abs(u))
    return 4.0 * e / (1.0 + e) ** 2


def _bracketed_newton(g, dg, x, lo, hi, c):
    """Elementwise root in ``[lo, hi]`` of ``g(x, c)``, which increases
    through its root, by Newton steps from ``x`` (arrays of one shape).

    Each step narrows an element's bracket by the sign of ``g``; a step
    that leaves the bracket becomes a bisection.  An element stops when
    its iterate stops moving, and every element after 100 steps.
    """
    shape = np.shape(x)
    x, lo, hi, c = (np.array(np.broadcast_to(v, shape), dtype=float).ravel()
                    for v in (x, lo, hi, c))
    act = np.arange(x.size)
    for _ in range(100):
        if act.size == 0:
            break
        xa, ca = x[act], c[act]
        gx = g(xa, ca)
        la = np.where(gx <= 0.0, xa, lo[act])
        ha = np.where(gx >= 0.0, xa, hi[act])
        lo[act], hi[act] = la, ha
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xa - gx / dg(xa, ca)
        new = np.where((la <= step) & (step <= ha), step, 0.5 * (la + ha))
        x[act] = new
        # a step back onto an end of the bracket returns to a point
        # already tried: the iterate has stopped moving (or cycles in
        # the last bits)
        act = act[(la < new) & (new < ha)]
    return x.reshape(shape)


def logcosh_scale_dual(m: float = 1.0):
    """Concave dual of theta(z) = m log cosh(sqrt(2z)/2):
    ``lam x^2/2 - logcosh(x, m)`` at the stationary point, where
    ``u = x/2`` solves ``tanh(u)/u = 4 lam/m``; 0 for lam >= m/4 and
    -inf for lam <= 0."""
    if not m > 0:
        raise ValidationError("logcosh scale dual requires m > 0")

    def dual(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.where(lam > 0, 0.0, -np.inf)
        r = 4.0 * lam / m
        # x = 2/r overflows near r = 1e-308; below r = 1e-300, tanh(1/r)
        # is 1 in floating point, so the root is u = 1/r and the value
        # its limit -m^2/(8 lam) + m log 2
        far = (lam > 0) & (r < 1e-300)
        out[far] = -(0.125 * m * m) / lam[far] + m * np.log(2.0)
        inner = (r >= 1e-300) & (lam < 0.25 * m)
        lam_in, r = lam[inner], r[inner]
        # r u - tanh(u) is convex on u >= 0 and vanishes at 0 and at the
        # root, so Newton from u = 1/r (tanh < 1) falls to the root
        # monotonically
        u = _bracketed_newton(lambda u, r: r * u - np.tanh(u),
                              lambda u, r: r - _sech2(u), 1.0 / r, 0.0, 1.0 / r, r)
        x = 2.0 * u
        out[inner] = 0.5 * lam_in * x * x - logcosh(x, m)
        return _float_if_scalar(out)

    return dual


def logcosh_location_dual(m: float = 1.0):
    """Half-quadratic dual psi(lam) = sup_x {-(x-lam)^2/2 + logcosh(x, m)},
    evaluated at the root of ``x - lam = (m/2) tanh(x/2)``.  That root
    lies in ``[lam - m/2, lam + m/2]`` and is unique only for
    ``0 < m <= 4``, the range where the envelope is tight."""
    if not 0 < m <= 4:
        raise ValidationError("logcosh location dual requires 0 < m <= 4")
    half = 0.5 * m

    def dual(lam):
        lam = np.asarray(lam, dtype=float)
        # the root has the sign of lam, and x - lam - (m/2) tanh(x/2) is
        # convex for x > 0 and concave for x < 0, so Newton from the
        # bracket end on that side approaches the root monotonically
        x = _bracketed_newton(lambda x, lam: x - lam - half * np.tanh(0.5 * x),
                              lambda x, lam: 1.0 - 0.5 * half * _sech2(0.5 * x),
                              lam + half * np.sign(lam), lam - half, lam + half, lam)
        out = logcosh(x, m) - 0.5 * (x - lam) ** 2
        return _float_if_scalar(out)

    return dual


def check_variance_mean_dual(q: float):
    """psi(lam) = kappa^2/(2 lam) - 1/(2 lam) with kappa = 1 - 2q.

    The second term is the concave dual of theta(z) = sqrt(2z); the grid
    oracle confirms this form makes the check-loss envelope tight.
    """
    kappa = 1.0 - 2.0 * q

    def dual(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(lam > 0, (kappa**2 - 1.0) / (2.0 * lam), -np.inf)
        return _float_if_scalar(out)

    return dual
