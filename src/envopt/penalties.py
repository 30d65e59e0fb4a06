"""Penalty catalog: values, derivative selections, duals, updates, prox.

Supported kinds and their scalar values (``w`` is the composite-objective
multiplier ``weight``, default 1):

  l1                    w * |x|
  ridge                 (w/2) * x^2
  double-pareto         w * gamma * log(1 + |x|/a)
  mcp                   w * [gamma*|x| - x^2/(2a)  if |x| < a*gamma,
                             a*gamma^2/2           otherwise]
  limited-translation   w * min(1, x^2/2)
  psi-specified         inf_{lam>=0} { (x-lam)^2/2 + lam/(2*(1+lam)) }
                        (defined only through its location envelope;
                        value-only, no derivative/dual/prox)

Every function is vectorized over ``x``/``u`` and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import duality
from .duality import _float_if_scalar
from .errors import CapabilityError, ValidationError

__all__ = [
    "PenaltySpec",
    "PENALTY_KINDS",
    "penalty_value",
    "penalty_deriv",
    "penalty_dual",
    "lambda_hat",
    "prox",
    "scale_dual",
    "location_dual",
    "psi_specified_dual",
]

PENALTY_KINDS = (
    "l1",
    "ridge",
    "double-pareto",
    "mcp",
    "limited-translation",
    "psi-specified",
)

# Cap for the scale-family update at x = 0 when the analytic limit diverges.
LAMBDA_CAP = 1e8


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family tag with hyperparameters.

    ``gamma`` and ``a`` parameterize the concave kinds (double-pareto,
    mcp); ``weight`` is the multiplier applied in composite objectives
    and is the sole strength parameter of l1/ridge.
    """

    kind: str
    gamma: float = 1.0
    a: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValidationError(f"unknown penalty kind {self.kind!r}")
        if not all(abs(v) < np.inf for v in (self.gamma, self.a, self.weight)):
            raise ValidationError("penalty parameters must be finite")
        if self.kind in ("double-pareto", "mcp"):
            # gamma == 0 is allowed as the degenerate no-penalty case.
            if self.gamma < 0 or not self.a > 0:
                raise ValidationError(f"{self.kind} requires gamma >= 0 and a > 0")
        if self.weight < 0:
            raise ValidationError("weight must be nonnegative")


def _strength(p: PenaltySpec) -> float:
    """Effective concave strength w*gamma for double-pareto/mcp."""
    return p.weight * p.gamma


def penalty_value(p: PenaltySpec, x):
    """phi(|x|); for psi-specified, the grid-refined envelope infimum."""
    x_arr = np.abs(np.asarray(x, dtype=float))
    if p.kind == "l1":
        out = p.weight * x_arr
    elif p.kind == "ridge":
        out = 0.5 * p.weight * x_arr**2
    elif p.kind == "double-pareto":
        out = _strength(p) * np.log1p(x_arr / p.a)
    elif p.kind == "mcp":
        g, a = p.gamma, p.a
        out = p.weight * np.where(
            x_arr < a * g, g * x_arr - x_arr**2 / (2.0 * a), 0.5 * a * g**2
        )
    elif p.kind == "limited-translation":
        out = p.weight * np.minimum(1.0, 0.5 * x_arr**2)
    else:  # psi-specified
        x_signed = duality._reject_nonfinite(np.asarray(x, dtype=float), "x")
        hi = max(4.0, float(np.max(x_arr, initial=0.0)) + 4.0)
        flat = np.atleast_1d(x_signed).ravel()
        lo_b = np.zeros(flat.shape)
        hi_b = np.full(flat.shape, hi)
        vals, _, _ = duality._zoom_min(
            psi_specified_dual, lambda rows, lam, psi: 0.5 * (flat[rows, None] - lam) ** 2 + psi,
            lo_b, hi_b, 401, 3)
        out = vals.reshape(np.asarray(x_signed).shape)
    if np.ndim(out) == 0:
        return float(out)
    return out


def penalty_deriv(p: PenaltySpec, x):
    """A superdifferential selection of d/dx phi(|x|).

    At x = 0 this is the right derivative at 0+ (the selection that keeps
    the majorizer tightest at the origin and the update finite).
    """
    if p.kind == "psi-specified":
        raise CapabilityError("psi-specified penalty has no derivative selection")
    x_arr = np.asarray(x, dtype=float)
    ax = np.abs(x_arr)
    # sign selection: sgn(x) with the 0+ branch at the origin
    sgn = np.where(x_arr < 0, -1.0, 1.0)
    if p.kind == "l1":
        out = p.weight * sgn
    elif p.kind == "ridge":
        out = p.weight * x_arr
    elif p.kind == "double-pareto":
        out = sgn * _strength(p) / (p.a + ax)
    elif p.kind == "mcp":
        out = sgn * p.weight * np.maximum(p.gamma - ax / p.a, 0.0)
    else:  # limited-translation
        out = p.weight * np.where(ax < np.sqrt(2.0), x_arr, 0.0)
    return _float_if_scalar(out)


def penalty_dual(p: PenaltySpec, lam):
    """Concave dual ``phi*(lam) = inf_{x>=0} {lam*x - phi(x)}``.

    Closed forms for l1, double-pareto and mcp, the kinds with an
    exponential envelope; the others raise :class:`CapabilityError`, as
    :func:`lambda_hat` does (the dual of ridge is -inf everywhere).  The
    dual is -inf for lam < 0 (rejected here as a domain error) and, for
    l1, on ``[0, weight)`` -- the envelope infimum is attained at the
    effective-domain edge lam = weight.
    """
    if "exponential" not in _FAMILY_COMPAT.get(p.kind, ()):
        raise CapabilityError(f"kind {p.kind!r} has no exponential dual")
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr < 0):
        raise ValidationError("penalty dual domain is lam >= 0")
    if p.kind == "l1":
        out = np.where(lam_arr >= p.weight, 0.0, -np.inf)
    elif p.kind == "double-pareto":
        G = _strength(p)
        if G == 0.0:
            out = np.zeros_like(lam_arr)
        else:
            edge = G / p.a
            with np.errstate(divide="ignore"):
                body = G * np.log(lam_arr) - lam_arr * p.a + (
                    G - G * np.log(G) + G * np.log(p.a)
                )
            out = np.where(lam_arr >= edge, 0.0, body)
    else:  # mcp
        ge = _strength(p)            # effective gamma
        ae = p.a / p.weight if p.weight > 0 else p.a
        if ge == 0.0:
            out = np.zeros_like(lam_arr)
        else:
            out = np.where(lam_arr <= ge, -0.5 * ae * (lam_arr - ge) ** 2, 0.0)
    return _float_if_scalar(out)


_FAMILY_COMPAT = {
    # families under which each kind's envelope representation is valid
    "l1": ("exponential", "gaussian-scale"),
    "ridge": ("gaussian-scale", "gaussian-location"),
    "double-pareto": ("exponential", "gaussian-scale"),
    "mcp": ("exponential", "gaussian-scale"),
    "limited-translation": ("gaussian-scale", "gaussian-location"),
}


def lambda_hat(p: PenaltySpec, x, family) -> float:
    """Envelope-optimal auxiliary value for a compatible family.

    exponential: phi'(|x|); gaussian-scale: phi'(x)/x with its limit at 0
    (capped when the limit diverges); gaussian-location: x - phi'(x).
    """
    tag = family.tag if hasattr(family, "tag") else str(family)
    if p.kind == "psi-specified" or tag not in _FAMILY_COMPAT.get(p.kind, ()):
        raise CapabilityError(f"kind {p.kind!r} has no {tag!r} envelope")
    if tag == "gaussian-location" and p.kind == "ridge" and p.weight > 1:
        raise CapabilityError("ridge location envelope needs weight <= 1")
    x_arr = np.asarray(x, dtype=float)
    if tag == "exponential":
        out = np.abs(penalty_deriv(p, np.abs(x_arr)))
    elif tag == "gaussian-scale":
        ax = np.abs(x_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(penalty_deriv(p, ax)) / ax
        if p.kind == "ridge":
            limit = p.weight
        elif p.kind == "limited-translation":
            limit = p.weight
        else:  # l1, double-pareto, mcp diverge at 0
            limit = LAMBDA_CAP
        out = np.minimum(np.where(ax == 0, limit, ratio), LAMBDA_CAP)
    else:  # gaussian-location
        out = x_arr - penalty_deriv(p, x_arr)
    return _float_if_scalar(out)


def _pick_candidates(cands, objs):
    """Smallest objective wins; near-ties go to the larger magnitude."""
    objs = np.where(np.isfinite(objs), objs, np.inf)
    best = np.min(objs, axis=0)
    tie = objs <= best + 1e-12 * np.maximum(1.0, np.abs(best))
    mag = np.where(tie, np.abs(cands), -np.inf)
    idx = np.argmax(mag, axis=0)
    return np.take_along_axis(cands, idx[None, :], axis=0)[0]


def prox(p: PenaltySpec, u, s):
    """Global minimizer of ``(s/2)(x - u)^2 + phi(x)``.

    Exact closed forms throughout; for the nonconvex kinds the minimizer
    is selected among the stationary points and 0 by objective value
    (larger magnitude on ties, which keeps the concave kinds nearly
    unbiased at the threshold).  A NaN or infinite ``u`` or ``s``, or an
    ``s <= 0``, raises ValidationError.
    """
    u_arr = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if not np.isfinite(u_arr).all():
        raise ValidationError("prox requires a finite u")
    if not ((s > 0.0) & (s < np.inf)).all():
        raise ValidationError("prox requires a finite s > 0")
    if p.kind == "psi-specified":
        raise CapabilityError("psi-specified penalty has no prox")
    if s.ndim:  # a step per element
        u_arr, s = np.broadcast_arrays(u_arr, s)
        s = s.ravel()
    else:
        s = float(s)
    scalar = u_arr.ndim == 0
    u_flat = np.atleast_1d(u_arr).ravel()
    au = np.abs(u_flat)
    sgn = np.sign(u_flat)

    if p.kind == "l1":
        out = sgn * np.maximum(au - p.weight / s, 0.0)
    elif p.kind == "ridge":
        out = s * u_flat / (s + p.weight)
    elif p.kind == "double-pareto":
        G = _strength(p)
        if G == 0.0:
            out = u_flat.copy()
        else:
            disc = (au + p.a) ** 2 - 4.0 * G / s
            root = 0.5 * ((au - p.a) + np.sqrt(np.maximum(disc, 0.0)))
            root = np.where((disc >= 0.0) & (root > 0.0), root, 0.0)
            cands = np.vstack([np.zeros_like(au), root])
            objs = 0.5 * s * (cands - au) ** 2 + G * np.log1p(cands / p.a)
            out = sgn * _pick_candidates(cands, objs)
    elif p.kind == "mcp":
        ge = _strength(p)
        if ge == 0.0:
            out = u_flat.copy()
        else:
            ae = p.a / p.weight
            knee = ae * ge
            denom = s - 1.0 / ae
            with np.errstate(divide="ignore", invalid="ignore"):
                inner = (s * au - ge) / denom
            inner = np.where(np.isfinite(inner), inner, 0.0)
            inner = np.clip(inner, 0.0, knee)
            outer = np.where(au >= knee, au, knee)
            cands = np.vstack([np.zeros_like(au), inner,
                               np.full_like(au, knee), outer])
            pv = np.where(cands < knee, ge * cands - cands**2 / (2.0 * ae),
                          0.5 * ae * ge**2)
            objs = 0.5 * s * (cands - au) ** 2 + pv
            out = sgn * _pick_candidates(cands, objs)
    else:  # limited-translation
        w = p.weight
        r2 = np.sqrt(2.0)
        inner = np.clip(s * au / (s + w), 0.0, r2)
        outer = np.maximum(au, r2)
        cands = np.vstack([inner, np.full_like(au, r2), outer])
        objs = 0.5 * s * (cands - au) ** 2 + w * np.minimum(1.0, 0.5 * cands**2)
        out = sgn * _pick_candidates(cands, objs)

    if scalar:
        return float(out[0])
    return out.reshape(u_arr.shape)


def scale_dual(p: PenaltySpec):
    """Concave dual ``inf_z {lam z - theta(z)}`` of theta(z) = phi(sqrt(2z))
    for the scale envelope, in closed form.  With G = weight*gamma,
    double-Pareto's is ``lam s^2/2 - G log1p(s/a)`` at the root s of
    ``lam s (a + s) = G`` (-inf for lam <= 0 and where G/lam overflows),
    MCP's ``-ae G^2 / (2 (1 + ae lam))`` with ``ae = a/weight`` (-inf for
    lam < 0); both are 0 on lam >= 0 when G = 0."""
    if p.kind == "psi-specified":
        raise CapabilityError("psi-specified penalty has no scale dual")
    if p.kind == "ridge":
        w = p.weight

        def dual(lam):
            lam = np.asarray(lam, dtype=float)
            return np.where(lam >= w, 0.0, -np.inf)
        return dual
    if p.kind == "l1":
        w = p.weight

        def dual(lam):
            lam = np.asarray(lam, dtype=float)
            with np.errstate(divide="ignore"):
                return np.where(lam > 0, -w**2 / (2.0 * lam), -np.inf)
        return dual
    if p.kind == "limited-translation":
        w = p.weight

        def dual(lam):
            lam = np.asarray(lam, dtype=float)
            return np.minimum(0.0, lam - w)
        return dual

    g = _strength(p)
    if g == 0.0:  # no penalty: theta = 0
        def dual(lam):
            return np.where(np.asarray(lam, dtype=float) >= 0, 0.0, -np.inf)
        return dual
    if p.kind == "mcp":
        ae = p.a / p.weight

        def dual(lam):
            lam = np.asarray(lam, dtype=float)
            return np.where(lam >= 0, -ae * g * g / (2.0 * (1.0 + ae * np.maximum(lam, 0.0))),
                            -np.inf)
        return dual

    def dual(lam):  # double-pareto
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = g / lam
            q = p.a + np.sqrt(p.a * p.a + 4.0 * r)
            s = 2.0 * r / q  # the root, without cancellation; lam s = 2G/q
            out = g * (s / q - np.log1p(s / p.a))
        return np.where((lam > 0) & np.isfinite(out), out, -np.inf)

    return dual


def location_dual(p: PenaltySpec):
    """Half-quadratic dual psi(lam) = sup_x {-(x-lam)^2/2 + phi(x)}, in
    closed form; for limited translation a NaN lam raises ValidationError."""
    if p.kind == "ridge":
        if not p.weight < 1:
            raise CapabilityError("ridge location dual needs weight < 1")
        w = p.weight

        def dual(lam):
            lam = np.asarray(lam, dtype=float)
            return 0.5 * (w / (1.0 - w)) * lam**2
        return dual
    if p.kind == "psi-specified":
        return psi_specified_dual
    if p.kind == "limited-translation":
        w = p.weight
        root2 = np.sqrt(2.0)

        def dual(lam):
            # With a = |lam|: on |x| <= sqrt(2), where phi = w x^2/2, the sup
            # is at x = lam/(1-w) when w < 1 and a < sqrt(2)(1-w), and else
            # at the kink x = sqrt(2) sgn(lam); beyond, phi = w and the sup
            # is at x = lam once a > sqrt(2).  Each branch reads a only
            # where it holds (min(a, sqrt 2)), so lam = +-inf gives w.
            lam = duality._reject_nan(lam)
            al = np.abs(lam)
            a = np.minimum(al, root2)
            out = np.where(al <= root2, (w - 1.0) + (root2 * a - 0.5 * a**2), w)
            if w < 1.0:
                out = np.where(al < root2 * (1.0 - w), 0.5 * (w / (1.0 - w)) * a**2, out)
            return out
        return dual
    raise CapabilityError(f"kind {p.kind!r} has no location envelope")


def psi_specified_dual(lam):
    """The directly specified dual lam/(2*(1+lam)) on lam >= 0, +inf below."""
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = lam / (2.0 * (1.0 + lam))
    out = np.where(lam >= 0, val, np.inf)
    return _float_if_scalar(out)
