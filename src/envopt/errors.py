"""Exception types shared across the package, and the input rules that
raise :class:`ValidationError`."""

import math

import numpy as np


class EnvoptError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EnvoptError, ValueError):
    """Rejected input: domain violations, malformed data, shape mismatches."""


class CapabilityError(EnvoptError, TypeError):
    """Requested operation is not defined for this kind/family combination."""


class MonotonicityError(EnvoptError, RuntimeError):
    """An update step increased the objective it was contracted to decrease."""

    def __init__(self, step: str, before: float, after: float):
        self.step = step
        self.before = before
        self.after = after
        super().__init__(
            f"step {step!r} increased the objective from {before!r} to {after!r}"
        )


class ConvergenceError(EnvoptError, RuntimeError):
    """A fit failed to converge and strict mode was requested."""


# ---------------------------------------------------------------------------
# The input rules.  Each is written once, here, and every public entry that
# takes such an input calls it (README, "Input rules"), so one rule raises
# one message wherever it is broken.


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; bool is an int
    subclass, but True is no count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _count(x, name: str, low: int) -> int:
    """``x`` as a Python int, rejected unless it is an integer (not a
    bool) of at least ``low``: an order (``low`` 0), an iteration budget,
    a fold count, a sample size, a seed or a trial count."""
    if not (_is_integer(x) and x >= low):
        what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer of at least {low}")
        raise ValidationError(f"{name} must be {what}")
    return int(x)


def _response(y, min_len: int, name: str = "y") -> np.ndarray:
    """``y`` as a contiguous float vector, rejected unless it has at least
    ``min_len`` entries, all finite."""
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < min_len:
        raise ValidationError(f"{name} must be a vector of length >= {min_len}")
    # y.y is finite only when every entry is, and costs one BLAS call; it
    # overflows from |y_i| ~ 1e154, where min and max decide (they
    # propagate NaN, and a NaN fails both comparisons).  np.vdot, unlike
    # dot, does not read the floating-point flags, so that overflow warns
    # of nothing; it costs about 0.2 us more than dot, np.errstate about 1 us
    if not (math.isfinite(np.vdot(y, y)) or (-np.inf < y.min() and y.max() < np.inf)):
        raise ValidationError(f"{name} must be finite")
    return y


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


def _weights(omega, n: int, name: str = "omega") -> np.ndarray:
    """``omega`` as ``n`` weights (:func:`_float_vector`), rejected unless
    every weight is positive and finite; ``n >= 1``."""
    omega = _float_vector(omega, n, name)
    # min and max propagate NaN, and a NaN fails both comparisons
    if not (omega.min() > 0 and omega.max() < np.inf):
        raise ValidationError(f"{name} must be strictly positive and finite")
    return omega


def _penalties(u, rows: int, name: str = "edge weights"):
    """``u`` as the penalties of ``rows`` rows, rejected unless each is
    nonnegative and finite: a scalar as a float (every row's penalty
    equal), anything else as ``rows`` values (:func:`_float_vector`)."""
    if isinstance(u, (int, float)):  # a scalar lam, np.float64 included
        # a NaN fails both comparisons
        if 0 <= u < np.inf:
            return float(u)
    else:
        u = _float_vector(u, rows, name)
        # min and max propagate NaN, and a NaN fails both comparisons
        if rows == 0 or (u.min() >= 0 and u.max() < np.inf):
            return u
    raise ValidationError(f"{name} must be nonnegative and finite")


def _lambda_grid(lambdas) -> np.ndarray:
    """``lambdas`` as a float vector, rejected unless it is nonempty, every
    lam is nonnegative and finite (tested first) and the grid strictly
    decreases: the grid of a solution path, of cross validation and of
    ``envopt path``."""
    lam_arr = np.asarray(lambdas, dtype=float)
    if lam_arr.ndim != 1 or lam_arr.size == 0:
        raise ValidationError("lambdas must be a nonempty vector")
    lam_arr = _penalties(lam_arr, lam_arr.shape[0], "lam")
    if not np.all(np.diff(lam_arr) < 0):
        raise ValidationError("lambdas must be strictly decreasing")
    return lam_arr
