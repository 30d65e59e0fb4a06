"""The Python reference of the envelope loops of ``_fldp.c``, operation for
operation: the same summation order and the C library's ``tanh``, ``exp``
and ``log1p`` through :mod:`math`, so it returns the compiled loop's bits.
The tests compare the two bit for bit, which catches changes to the C
arithmetic that no oracle sees, and watch its pieces to count what one
compiled call does.  :func:`envelope_fused_lasso_path` has the signature
of ``envopt.solvers.envelope_fused_lasso_path`` and
:func:`squared_fused_lasso` that of ``envopt.solvers._squared_fused_lasso``,
the wrapper of the compiled front ``fused_lasso_solve``; :func:`use` puts
each in its function's place.
"""

import math

import numpy as np

from envopt import applications, solvers
from envopt.errors import MonotonicityError, ValidationError
from envopt.losses import _WEIGHT_CLAMP, LossSpec, location_envelope_update
from envopt.operators import diff_matrix
from envopt.solvers import _KINDS, FitResult, _finite, _run_record, distinct_levels


def use(mp):
    """Run every envelope fit of the package by these loops for as long as
    the ``pytest.MonkeyPatch`` ``mp`` holds its changes: the paths and the
    squared loss's one-solve fused lasso, which the package runs through
    the compiled front."""
    for module in (solvers, applications):
        mp.setattr(module, "envelope_fused_lasso_path", envelope_fused_lasso_path)
        mp.setattr(module, "_squared_fused_lasso", squared_fused_lasso)


def squared_fused_lasso(y, w, u):
    """``envopt.solvers._squared_fused_lasso``, whose compiled front runs
    the loop's one-solve ``"gaussian"`` fit: that fit here, on the one
    scale 1."""
    return envelope_fused_lasso_path("gaussian", y, w, u, solvers._UNIT_SCALE, None,
                                     solvers._ONE_SOLVE)[0]


def fused_lasso_dp(z, w, u):
    """``dp`` in ``_fldp.c``: the exact weighted fused lasso by
    forward-backward message passing over piecewise-linear derivatives,
    the map's solve in :func:`envelope_fit` when the certified solve
    fails."""
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


def certified_solve(z, w, u, hint):
    """``certified`` in ``_fldp.c``: the weighted fused lasso of
    :func:`fused_lasso_dp` on the runs of ``hint``, or None when those
    levels fail the KKT test (``envopt.solvers.envelope_fused_lasso_path``
    states both).  The levels are summed in a loop over floats, whose
    arithmetic is C's; ``g`` is one ``np.add.accumulate``."""
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


def solve_penalties(z, w, pen, umax):
    """``solve_penalties`` in ``_fldp.c``: the edge penalties ``pen`` of a
    fused-lasso solve on ``(z, w)``, clamped at ``G = 2 n max|z| max w``
    when ``umax`` (a bound on the fit's penalties) exceeds ``G``, a clamp
    that cannot bind (``envopt.solvers.envelope_fused_lasso_path``)."""
    cap = 2.0 * z.shape[0] * float(np.max(np.abs(z))) * float(np.max(w))
    return np.where(pen > cap, cap, pen) if umax > cap else pen


# The trend filter's dual solve: tf_bands, tf_solve and tf_primal of
# _fldp.c.  Elementwise numpy arithmetic rounds as C does, and every sum
# runs in the C loop's order.


def _stencil(k: int) -> np.ndarray:
    """The order-(k+1) difference stencil, as ``_fldp.c`` builds it."""
    return diff_matrix(k + 2, k).stencil


def tf_bands(z, omega, k):
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


def face_solve(c, r, v_f):
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


def tf_solve(ab, b, lam, tol, max_iters, v):
    """The feasible active-set method on the dual ``min v'Av/2 - b'v``,
    ``|v| <= lam``, of ``tf_solve`` in ``_fldp.c``, step for step.

    Rows with ``lam_j = 0`` are fixed at 0 and rows where ``v`` is at (or
    beyond) a bound on entry start at that bound.  Each iteration solves
    for the minimum ``x`` over the free rows, the bound rows (and any free
    row the factorization finds dependent) held, directly from the face's
    right-hand side (:func:`face_solve`), and steps by ``d = x - v``.
    When ``x`` lies in the box, ``v`` moves there and every bound whose
    multiplier ``(Av - b)_j`` has the wrong sign beyond
    ``tol * max(|b|_inf, |Av|_inf)`` is freed; the solve ends when none
    is.  Otherwise ``v`` takes a projected search along ``P(v + t d)``
    (:func:`projected_search`; Moré & Toraldo 1991, *SIAM J. Optim.*
    1:93-113): it holds the row of the first breakpoint, as the cut at
    the first blocking bound would, then each row it passes while the
    dual's slope along the arc, from the gradient at ``v`` computed
    directly, stays negative, and stops at the slope's root, at most at
    ``P(x)``.  It lowers the dual at least as much as the cut.
    The compiled solve keeps the face rows before the rows whose status
    changed from one iteration to the next; this reference refactors every
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
        x, r_f, dependent = face_solve(c, r[idx], v_f)
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
        projected_search(c, g, x, v, st, idx, lam)
    return it, done, int(np.count_nonzero(st))


def projected_search(c, g, x, v, st, idx, lam):
    """The step of :func:`tf_solve` when the face minimum ``x`` leaves
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


def tf_primal(z, winv, v, k):
    """The primal ``z - D'v / omega`` of a dual ``v``, as ``tf_primal``."""
    s = _stencil(k)
    m = v.shape[0]
    dtv = np.zeros(z.shape[0])
    for j in range(k + 2):
        dtv[j:j + m] += s[j] * v
    return z - winv * dtv


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


def envelope_fused_lasso_path(kind, y, m, u, lams, beta, cfg, a=1.0, q=0.5, k=None,
                        v=None) -> list:
    """``envopt.solvers.envelope_fused_lasso_path`` in Python, fit for
    fit: the same arguments, the same fits."""
    u = np.broadcast_to(u, (y.shape[0] - (0 if k is None else k) - 1,))
    if k is not None and v is None:
        v = np.zeros(u.shape)
    fits = []
    for lam in lams:
        fits.append(envelope_fit(kind, y, m, lam * u, beta, cfg, a, q, k, v))
        beta = fits[-1].beta
        v = fits[-1].aux.get("v")
    return fits


def scale_dual(v, pen):
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


def envelope_fit(kind, y, m, u, beta, cfg, a, q=0.5, k=None, v=None) -> FitResult:
    """One fit of :func:`envelope_fused_lasso_path`, map for map.

    It repeats the arithmetic of ``_fldp.c`` operation for operation: the
    transcendental functions come from the C library (:mod:`math`), once
    per run (:func:`_per_run`) or jump, sums run left to right, the DP is
    :func:`fused_lasso_dp` and the trend filter :func:`tf_solve`.  It
    takes every objective from its own ``objective``, whose sums have the
    bits of those that the compiled certified solve adds up.  It returns
    the compiled loop's bits wherever the two share a C library."""
    solve_name = _KINDS[kind].solve
    n = y.shape[0]
    ones = np.ones(n)
    weights = m if kind == "gaussian" and m is not None else ones  # of the squared loss
    huber = LossSpec("huber", y=y) if kind == "huber" else None
    tf = k is not None  # the subproblem: the trend filter, or else the DP
    stencil = _stencil(k) if tf else None
    dual = {"v": scale_dual(v, u) if tf else None, "iters": 0, "capped": 0, "act": 0}
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
        winv, ab, bz = tf_bands(z, w, k)
        iters, done, dual["act"] = tf_solve(ab, bz, u, cfg.inner_tol, cfg.inner_max_iters,
                                             dual["v"])
        dual["iters"] += iters
        dual["capped"] += not done
        return tf_primal(z, winv, dual["v"], k)

    def fused_lasso(z, w, ue, hint):
        """The certified solve on the runs of ``hint`` (None for the squared
        loss's one solve), and the DP when it fails."""
        nonlocal dp_calls
        ue = solve_penalties(z, w, ue, umax)
        new = None if hint is None else certified_solve(z, w, ue, hint)
        if new is None:
            dp_calls += 1
            new = fused_lasso_dp(z, w, ue)
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
