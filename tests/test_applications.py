import dataclasses
import warnings

import numpy as np
import pytest

from envopt import applications, solvers
from envopt.applications import (
    AppSpec,
    FDP_TRUE_LEVELS,
    aic,
    binomial_fused_lasso,
    fit_fdp,
    fit_qrtf,
    fit_rfl,
    fused_lasso_gaussian,
    kfold_cv,
    simulate,
    solution_path,
)
from envopt.errors import ValidationError
from envopt.losses import LossSpec, huber, location_envelope_update, loss_value
from envopt.operators import diff_matrix
from envopt.solvers import (FitResult, SolverConfig, envelope_fused_lasso_path, mm_driver,
                            weighted_fused_lasso)


def _trace_monotone(fit):
    d = np.diff(fit.trace)
    return np.all(d <= 1e-10 * np.maximum(1.0, np.abs(fit.trace[:-1])))


# ---------------------------------------------------------------------------
# robust fused lasso


def test_rfl_zero_penalty_interpolates():
    rng = np.random.Generator(np.random.PCG64(1))
    y = rng.normal(size=20)
    fit = fit_rfl(y, 0.0)
    np.testing.assert_array_equal(fit.beta, y)
    assert fit.converged


def test_rfl_constant_signal():
    y = np.full(10, 2.5)
    for lam in (0.0, 1.0, 50.0):
        fit = fit_rfl(y, lam)
        np.testing.assert_allclose(fit.beta, y, atol=1e-12)
        assert fit.df == 1


def test_rfl_suppresses_spike_vs_ordinary():
    y = np.zeros(15)
    y[7] = 10.0
    lam = 1.5
    robust = fit_rfl(y, lam)
    ordinary = fused_lasso_gaussian(y, lam)
    assert abs(robust.beta[7]) < abs(ordinary.beta[7])
    assert _trace_monotone(robust)


def _subgradient_oracle(y, lam, iters=60_000):
    """Long-run subgradient descent on the robust fused lasso objective."""
    D = diff_matrix(y.shape[0], 0)
    beta = y.copy()
    best = np.inf
    best_beta = beta.copy()
    for t in range(1, iters + 1):
        r = y - beta
        g = -np.clip(r, -1.0, 1.0) + lam * D.transpose_apply(np.sign(D.apply(beta)))
        beta = beta - 0.5 / np.sqrt(t) * g
        obj = float(np.sum(huber(y - beta)) + lam * np.sum(np.abs(np.diff(beta))))
        if obj < best:
            best = obj
            best_beta = beta.copy()
    return best_beta, best


def test_rfl_matches_subgradient_oracle():
    rng = np.random.Generator(np.random.PCG64(15))
    y = rng.standard_t(3, size=20) + np.repeat([0.0, 3.0], 10)
    lam = 1.2
    fit = fit_rfl(y, lam, cfg=SolverConfig(tol=1e-14, max_iters=2000))
    _, best = _subgradient_oracle(y, lam)
    assert fit.objective <= best + 1e-5


# ---------------------------------------------------------------------------
# quantile trend filtering


def test_qrtf_zero_penalty_interpolates():
    rng = np.random.Generator(np.random.PCG64(2))
    y = np.sort(rng.normal(size=12))  # distinct
    fit = fit_qrtf(y, 0.5, 2, 0.0)
    np.testing.assert_allclose(fit.beta, y, atol=1e-12)


def test_qrtf_large_penalty_is_median_polynomial():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 60
    x = np.arange(n, dtype=float)
    y = 1.0 + 0.2 * x - 0.004 * x**2 + rng.standard_t(3, size=n)
    cfg = SolverConfig(max_iters=200, tol=1e-10, inner_max_iters=20_000,
                       inner_tol=1e-10)
    fit = fit_qrtf(y, 0.5, 2, 1e7, cfg=cfg)
    D = diff_matrix(n, 2)
    assert np.max(np.abs(D.apply(fit.beta))) <= 1e-5
    signs = np.sign(y - fit.beta)
    assert abs(np.sum(signs[signs != 0])) <= 3  # balanced residual signs
    assert _trace_monotone(fit)


def test_qrtf_self_consistency_at_fixed_point():
    from envopt.losses import LossSpec, variance_mean_update
    from envopt.solvers import weighted_trend_filter

    rng = np.random.Generator(np.random.PCG64(4))
    n = 50
    y = np.sin(np.linspace(0, 3, n)) + rng.normal(scale=0.3, size=n)
    lam = 2.0
    cfg = SolverConfig(max_iters=500, tol=1e-13, inner_max_iters=30_000,
                       inner_tol=1e-12)
    fit = fit_qrtf(y, 0.9, 2, lam, cfg=cfg)
    loss = LossSpec("check", y=y, q=0.9)
    omega, z = variance_mean_update(loss, fit.beta)
    refit = weighted_trend_filter(z, omega, 2, lam, cfg)
    assert np.max(np.abs(refit - fit.beta)) <= 1e-5


@pytest.mark.parametrize("warm", [False, True])
def test_qrtf_run_record_counts_every_inner_solve(monkeypatch, warm):
    """``aux["run"]`` sums the iterations and capped solves of every trend
    filter of the fit, the cold start's included; the Python loop, whose
    solves can be watched, returns the compiled loop's record."""
    y = simulate("qrtf", 150, seed=5).y
    # a budget some inner solves hit and others do not
    cfg = SolverConfig(max_iters=20, tol=1e-6, inner_max_iters=40, inner_tol=1e-6)
    init = fit_qrtf(y, 0.9, 2, 2.0, cfg=cfg) if warm else None
    fit = fit_qrtf(y, 0.9, 2, 2.0, cfg=cfg, init=init)
    solve = solvers._tf_solve
    runs = []

    def counting(*args):
        runs.append(solve(*args))
        return runs[-1]

    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    monkeypatch.setattr(solvers, "_tf_solve", counting)
    py = fit_qrtf(y, 0.9, 2, 2.0, cfg=cfg, init=init)
    run = fit.aux["run"]
    assert run == py.aux["run"]
    # a solve per map, per map that rose and for the cold start
    assert len(runs) == run["maps"] + run["rises"] + (not warm)
    assert run["inner_iters"] == sum(it for it, _, _ in runs)
    assert run["capped"] == sum(not done for _, done, _ in runs)
    assert 0 < run["capped"] < len(runs) and not fit.converged
    # df counts the dual rows at a bound of the solve that gave beta
    assert fit.df == py.df and fit.df - 3 in {active for _, _, active in runs}


@pytest.mark.parametrize("lam", [2.0, 1e4])
def test_qrtf_evaluates_objective_once_per_cycle(lam):
    """The loop evaluates the objective once per map, into the trace, and
    reports the last accepted value, which is the objective of beta."""
    y = simulate("qrtf", 150, seed=5).y
    cfg = SolverConfig(max_iters=20, tol=1e-6, inner_max_iters=600, inner_tol=1e-6)
    fit = fit_qrtf(y, 0.9, 2, lam, cfg=cfg)
    assert fit.iters > 1 and fit.trace.shape == (fit.iters + 1,)
    assert fit.objective == fit.trace[-1]
    penalty = lam * float(np.sum(np.abs(diff_matrix(150, 2).apply(fit.beta))))
    ref = loss_value(LossSpec("check", y=y, q=0.9), fit.beta) + penalty
    assert abs(fit.objective - ref) <= 1e-12 * ref


def _qrtf_lp_optimum(y, q, k, lam):
    """The HiGHS optimum of ``sum_i check_q(y_i - b_i) + lam |D b|_1`` as
    a linear program in ``b`` (free), ``r+, r- >= 0`` with
    ``y - b = r+ - r-`` and ``t+, t- >= 0`` with ``D b = t+ - t-``."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = y.shape[0]
    D = sparse.csr_matrix(diff_matrix(n, k).dense())
    m = D.shape[0]
    cost = np.concatenate([np.zeros(n), np.full(n, 2.0 * q), np.full(n, 2.0 * (1.0 - q)),
                           np.full(2 * m, lam)])
    eye_n, eye_m = sparse.eye(n), sparse.eye(m)
    rows = sparse.vstack([sparse.hstack([eye_n, eye_n, -eye_n, sparse.csr_matrix((n, 2 * m))]),
                          sparse.hstack([D, sparse.csr_matrix((m, 2 * n)), -eye_m, eye_m])])
    res = linprog(cost, A_eq=rows.tocsc(), b_eq=np.concatenate([y, np.zeros(m)]),
                  bounds=[(None, None)] * n + [(0.0, None)] * (2 * n + 2 * m), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("q", [0.5, 0.9])
def test_qrtf_reaches_the_lp_optimum(k, q):
    y = simulate("qrtf", 60, seed=1).y
    lams = np.array([30.0, 3.0, 0.3])
    path = solution_path(AppSpec("qrtf", q=q, k=k), y, lams)
    for lam, warm in zip(lams, path.fits):
        optimum = _qrtf_lp_optimum(y, q, k, lam)
        for fit in (fit_qrtf(y, q, k, lam), warm):
            assert fit.converged, (lam, fit.aux["run"])
            assert (fit.objective - optimum) / max(1.0, abs(optimum)) <= 1e-4, lam


def test_qrtf_capped_inner_solves_are_not_converged():
    y = simulate("qrtf", 60, seed=1).y
    fit = fit_qrtf(y, 0.9, 2, 3.0, cfg=SolverConfig(inner_max_iters=1))
    assert not fit.converged and fit.aux["run"]["capped"] > 0


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_qrtf_rising_map_ends_the_fit(monkeypatch, python):
    """Where the clamped weights do not majorize the loss, a map may rise:
    the fit ends at the last iterate it accepted, its trace stays
    non-increasing, and it converges only when the rise is within tol."""
    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    y = simulate("qrtf", 60, seed=1).y
    fit = fit_qrtf(y, 0.9, 2, 3.0, cfg=SolverConfig(tol=1e-8))
    assert fit.aux["run"]["rises"] == 1 and fit.iters < 500
    assert _trace_monotone(fit) and fit.objective == fit.trace[-1]
    assert fit.converged  # it rose by less than 1e-8 relative
    strict = fit_qrtf(y, 0.9, 2, 3.0, cfg=SolverConfig(tol=1e-12))
    assert strict.aux["run"]["rises"] == 1 and not strict.converged
    assert _trace_monotone(strict)


def test_qrtf_init_fit_carries_its_dual(monkeypatch):
    """A fit given as ``init`` passes its iterate and its final dual, which
    the first trend filter starts from scaled into the new box: by
    lam_new / lam_old, its rows at a bound landing on the new bound."""
    y = simulate("qrtf", 60, seed=1).y
    first = fit_qrtf(y, 0.9, 2, 30.0)
    v = first.aux["v"]
    assert v.shape == (57,) and np.max(np.abs(v)) == 30.0
    starts = []
    solve = solvers._tf_solve

    def recorded(ab, b, lam, tol, max_iters, dual):
        starts.append(dual.copy())
        return solve(ab, b, lam, tol, max_iters, dual)

    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    monkeypatch.setattr(solvers, "_tf_solve", recorded)
    chained = fit_qrtf(y, 0.9, 2, 3.0, init=first)
    bound = np.abs(v) == 30.0
    assert np.array_equal(starts[0][bound], np.sign(v[bound]) * 3.0)
    np.testing.assert_allclose(starts[0], v * 0.1, rtol=1e-15, atol=0.0)
    assert chained.converged and np.array_equal(chained.beta, chained.beta)
    starts.clear()
    fit_qrtf(y, 0.9, 2, 3.0, init=first.beta)
    assert not starts[0].any()  # a start vector alone: the dual starts at 0
    with pytest.raises(ValidationError, match="init must be a qrtf fit of length 60"):
        fit_qrtf(y, 0.9, 1, 3.0, init=first)
    with pytest.raises(ValidationError, match="init must be a qrtf fit"):
        fit_qrtf(y, 0.9, 2, 3.0, init=fit_rfl(y, 1.0))


# ---------------------------------------------------------------------------
# fused double-Pareto


def test_fdp_zero_penalty_pointwise_mle():
    y = np.array([0.0, 5.0, 12.0, 25.0, 20.0])
    m = np.full(5, 25.0)
    fit = fit_fdp(y, m, 0.0)
    interior = (y > 0) & (y < m)
    expected = np.log(y[interior] / (m[interior] - y[interior]))
    np.testing.assert_allclose(fit.beta[interior], expected, atol=1e-6)
    assert np.all(np.abs(fit.beta[~interior]) == 36.0)


def test_fdp_u_update_rule():
    ds = simulate("fdp", 60, seed=5, m=25)
    lam = 2.0
    fit = fit_fdp(ds.y, ds.m, lam, a=1.0)
    u = fit.aux["u"]
    np.testing.assert_allclose(u, lam / (1.0 + np.abs(np.diff(fit.beta))))
    # the printed-rule example: |diff| = 1, lam = 2, a = 1 gives u = 1
    assert lam / (1.0 + 1.0) == 1.0
    assert _trace_monotone(fit)


def test_fdp_monotone_and_local_minimizer():
    ds = simulate("fdp", 80, seed=6, m=25)
    fl = binomial_fused_lasso(ds.y, ds.m, 10.0)
    fit = fit_fdp(ds.y, ds.m, 10.0, init=fl.beta)
    assert _trace_monotone(fit)
    assert fit.objective <= fl.objective + 1e-9  # same objective family at u


def test_rfl_extrapolated_fits_no_worse_than_plain_loop():
    # criterion-5 paths: each SQUAREM fit against the plain MM loop (one
    # Huber shift and one DP per cycle) from the same warm start
    lams = np.geomspace(300.0, 1.0, 100)
    worst = -np.inf
    for seed in (1, 2, 3, 4):
        y = simulate("rfl", 250, seed=seed).y
        loss, ones, init = LossSpec("huber", y=y), np.ones(250), None
        for lam in lams:
            fit = fit_rfl(y, lam, init=init)
            u = np.full(249, lam)
            plain = mm_driver(
                lambda b: loss_value(loss, b) + lam * float(np.sum(np.abs(np.diff(b)))),
                lambda b: location_envelope_update(loss, b),
                lambda shift, b: weighted_fused_lasso(y - shift, ones, u),
                y.copy() if init is None else init.copy(), SolverConfig())
            worst = max(worst, (fit.objective - plain.objective)
                        / max(1.0, abs(plain.objective)))
            init = fit.beta
    assert worst <= 1e-12


def test_fdp_fits_near_tight_tolerance_fits():
    # criterion-7 workload: each default fit against a tol-1e-13 run from
    # the same binomial fused-lasso start
    tight = SolverConfig(max_iters=100_000, tol=1e-13)
    worst = -np.inf
    for seed in range(1, 11):
        ds = simulate("fdp", 500, seed=seed, m=25)
        start = None
        for lam in np.geomspace(300.0, 12.0, 25):
            start = binomial_fused_lasso(ds.y, ds.m, lam, init=start).beta
            fit = fit_fdp(ds.y, ds.m, lam, init=start)
            ref = fit_fdp(ds.y, ds.m, lam, init=start, cfg=tight)
            assert ref.converged
            worst = max(worst, (fit.objective - ref.objective) / max(1.0, abs(ref.objective)))
    assert worst <= 2e-9


def test_binomial_fused_lasso_reports_inner_convergence():
    ds = simulate("fdp", 30, seed=10)
    fl = binomial_fused_lasso(ds.y, ds.m, 5.0, cfg=SolverConfig(max_iters=3))
    assert fl.iters == 3 and not fl.converged
    assert fl.trace.shape == (4,)
    done = binomial_fused_lasso(ds.y, ds.m, 5.0)
    assert done.converged and done.iters > 3
    assert done.objective == done.trace[-1]


def test_fdp_is_one_envelope_loop(monkeypatch):
    ds = simulate("fdp", 30, seed=10)
    start = binomial_fused_lasso(ds.y, ds.m, 5.0).beta
    capped = fit_fdp(ds.y, ds.m, 5.0, init=start, cfg=SolverConfig(max_iters=4))
    assert (capped.iters, capped.converged) == (4, False)
    assert capped.aux["run"]["maps"] == 4 and capped.aux["run"]["steps"] == 1
    # one validated call of the envelope loop, whose maps are its DP calls
    loops, dp_calls = [], []
    dp = solvers._fused_lasso_dp

    def recorded(*args, **kwargs):
        loops.append(args[0])
        return envelope_fused_lasso_path(*args, **kwargs)

    monkeypatch.setattr(applications, "envelope_fused_lasso_path", recorded)
    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    monkeypatch.setattr(solvers, "_fused_lasso_dp", lambda *a: dp_calls.append(1) or dp(*a))
    fit = fit_fdp(ds.y, ds.m, 5.0, init=start)
    assert loops == ["fdp"] and fit.converged
    assert fit.iters == len(dp_calls) == fit.aux["run"]["maps"]
    assert fit.aux.keys() == {"u", "run"}
    assert fit.aux["run"].keys() == {"maps", "steps", "rejected", "inner_iters", "capped",
                                     "rises"}
    assert fit.aux["run"]["inner_iters"] == fit.aux["run"]["capped"] == 0


def test_fdp_path_at_zero_penalty_is_the_mle(monkeypatch):
    # counts at 0 or m have no finite minimizer once an edge weight joins
    # them, but at lam = 0 none does: the path's lam = 0 fit is fit_fdp's
    # pointwise MLE, and needs no binomial fused-lasso start
    ds = simulate("fdp", 60, 1, m=25)
    assert np.any(ds.y == 0) or np.any(ds.y == ds.m)
    mle = fit_fdp(ds.y, ds.m, 0.0)
    path = solution_path(AppSpec("fdp"), ds.y, [30.0, 3.0, 0.0], m=ds.m)
    _assert_same_fit_record(path.fits[-1], mle, "path")
    loops = []

    def recorded(*args, **kwargs):
        loops.append(args[0])
        return envelope_fused_lasso_path(*args, **kwargs)

    monkeypatch.setattr(applications, "envelope_fused_lasso_path", recorded)
    only = solution_path(AppSpec("fdp"), ds.y, [0.0], m=ds.m)
    assert loops == []
    _assert_same_fit_record(only.fits[0], mle, "grid [0]")
    # one call for the fused-lasso starts, then one log-penalty loop per lam > 0
    solution_path(AppSpec("fdp"), ds.y, [30.0, 3.0, 0.0], m=ds.m)
    assert loops == ["binomial-logit", "fdp", "fdp"]


@pytest.mark.parametrize("kwargs, msg", [
    ({"a": 0.0}, "a must be positive"),
    ({"a": -1.0}, "a must be positive"),
    ({"a": np.inf}, "a must be positive and finite"),
    ({"a": np.nan}, "a must be positive"),
    ({"lam": np.nan}, "lam must be nonnegative and finite"),
    ({"lam": np.inf}, "lam must be nonnegative and finite"),
    ({"lam": -1.0}, "lam must be nonnegative"),
])
def test_fdp_rejects_bad_scale_and_penalty_before_any_work(monkeypatch, kwargs, msg):
    ds = simulate("fdp", 20, seed=3)
    args = {"lam": 2.0, **kwargs}
    calls = []
    for loop in ("mm_driver", "envelope_fused_lasso_path", "binomial_fused_lasso"):
        monkeypatch.setattr(applications, loop, lambda *a, **k: calls.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=msg):
            fit_fdp(ds.y, ds.m, **args)
        with pytest.raises(ValidationError, match=msg):
            fit_fdp(ds.y, ds.m, init=np.zeros(20), **args)
    assert calls == []


# ---------------------------------------------------------------------------
# model selection


def test_aic_values():
    f = FitResult(beta=np.zeros(2), objective=0.0, trace=np.zeros(1), iters=1,
                  converged=True, df=3)
    assert aic(f, 10.0) == 26.0
    f.df = 1
    assert aic(f, 0.0) == 2.0
    f5 = FitResult(beta=np.zeros(2), objective=0.0, trace=np.zeros(1),
                   iters=1, converged=True, df=5)
    assert aic(f, 7.0) < aic(f5, 7.0)


def test_solution_path_single_lambda():
    ds = simulate("rfl", 30, seed=7)
    path = solution_path(AppSpec("rfl"), ds.y, np.array([2.0]))
    assert len(path.fits) == 1
    assert path.selected == 0


def test_solution_path_requires_decreasing():
    ds = simulate("rfl", 30, seed=7)
    with pytest.raises(ValidationError):
        solution_path(AppSpec("rfl"), ds.y, np.array([1.0, 2.0]))


def test_solution_path_rfl_beats_endpoints():
    ds = simulate("rfl", 250, seed=11)
    truth = ds.truth["truth"]
    lams = np.geomspace(300.0, 1.0, 100)
    path = solution_path(AppSpec("rfl"), ds.y, lams, criterion="aic")
    sel_mse = np.mean((path.best_fit.beta - truth) ** 2)
    # endpoints: interpolation at lam -> 0, a constant at lam -> inf
    mse_zero = np.mean((ds.y - truth) ** 2)
    cgrid = np.linspace(ds.y.min(), ds.y.max(), 4001)
    hub = np.array([np.sum(huber(ds.y - c)) for c in cgrid])
    c_star = cgrid[np.argmin(hub)]
    mse_const = np.mean((c_star - truth) ** 2)
    assert sel_mse < mse_zero
    assert sel_mse < mse_const


def test_fdp_path_bit_exact_reproducible():
    ds = simulate("fdp", 60, seed=9, m=25)
    lams = np.geomspace(40.0, 5.0, 4)
    p1 = solution_path(AppSpec("fdp"), ds.y, lams, m=ds.m)
    p2 = solution_path(AppSpec("fdp"), ds.y, lams, m=ds.m)
    for f1, f2 in zip(p1.fits, p2.fits):
        assert f1.beta.tobytes() == f2.beta.tobytes()
    assert p1.selected == p2.selected


def _policy_fits(app, y, m, lams, cfg):
    """The documented warm starts, by direct estimator calls: each rfl fit
    starts at the previous fit's iterate, each qrtf fit at the previous fit
    (its iterate and its dual), each fdp fit at the binomial fused-lasso
    fit at its lam, itself started at the previous one."""
    fits, start = [], None
    for lam in lams:
        prev = fits[-1].beta if fits else None
        if app == "rfl":
            fits.append(fit_rfl(y, lam, cfg=cfg, init=prev))
        elif app == "qrtf":  # the previous fit: its iterate and its dual
            fits.append(fit_qrtf(y, 0.9, 2, lam, cfg=cfg, init=fits[-1] if fits else None))
        else:
            start = binomial_fused_lasso(y, m, lam, init=start, cfg=cfg).beta
            fits.append(fit_fdp(y, m, lam, a=1.0, init=start, cfg=cfg))
    return fits


def _assert_same_fits(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.beta.tobytes() == e.beta.tobytes()
        assert g.objective == e.objective
        assert g.trace.tobytes() == e.trace.tobytes()


@pytest.mark.parametrize("app", ["rfl", "qrtf", "fdp"])
def test_warm_start_policy_bitwise(monkeypatch, app):
    ds = simulate(app, 30, seed=11)
    lams = np.geomspace(20.0, 0.5, 4)
    cfg = SolverConfig(max_iters=30, tol=1e-6, inner_max_iters=300, inner_tol=1e-7)
    path = solution_path(AppSpec(app), ds.y, lams, m=ds.m, cfg=cfg)
    _assert_same_fits(path.fits, _policy_fits(app, ds.y, ds.m, lams, cfg))

    # the fits of the first CV fold (held out: i mod 3 == 0), as the app's
    # path returns them
    entry = applications.APP_TABLE[app]
    fold_fits = []

    def recorded(*args):
        fits = entry.path(*args)
        fold_fits.extend(fits)
        return fits

    monkeypatch.setitem(applications.APP_TABLE, app, dataclasses.replace(entry, path=recorded))
    kfold_cv(AppSpec(app), ds.y, lams, K=3, cfg=cfg, m=ds.m)
    assert len(fold_fits) == 3 * len(lams)
    kept = np.arange(30) % 3 != 0
    m_kept = None if ds.m is None else ds.m[kept]
    _assert_same_fits(fold_fits[:len(lams)],
                      _policy_fits(app, ds.y[kept], m_kept, lams, cfg))


def _assert_same_fit_record(got, expected, where):
    """Every field of two fits, aux included, to the bit."""
    assert got.beta.tobytes() == expected.beta.tobytes(), where
    assert got.trace.tobytes() == expected.trace.tobytes(), where
    assert (got.objective, got.iters, got.converged, got.df) == (
        expected.objective, expected.iters, expected.converged, expected.df), where
    assert got.aux.keys() == expected.aux.keys() == {"u", "run"}, where
    assert got.aux["u"].tobytes() == expected.aux["u"].tobytes(), where
    assert got.aux["run"] == expected.aux["run"], where


def _rfl_chain(y, lams):
    """The rfl fits along ``lams`` as separate fit_rfl calls, each started at
    the previous fit."""
    fits = []
    for lam in lams:
        fits.append(fit_rfl(y, lam, init=fits[-1].beta if fits else None))
    return fits


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_rfl_path_is_the_chain_of_fits(monkeypatch, python):
    # criterion-5 data: the one-call path against fit_rfl started at the
    # previous fit, and its AIC values against per-fit losses
    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    y = simulate("rfl", 250, seed=1).y
    lams = np.geomspace(300.0, 1.0, 100)
    app = AppSpec("rfl")
    path = solution_path(app, y, lams, criterion="aic")
    chain = _rfl_chain(y, lams)
    for lam, got, expected in zip(lams, path.fits, chain):
        _assert_same_fit_record(got, expected, lam)
    crit = np.array([aic(f, float(np.sum(huber(y - f.beta)))) for f in chain])
    assert path.criterion_values.tobytes() == crit.tobytes()
    assert path.selected == int(np.argmin(crit))


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_rfl_cv_is_the_chain_of_fits(monkeypatch, python):
    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    y = simulate("rfl", 250, seed=2).y
    lams = np.geomspace(300.0, 1.0, 100)
    if python:
        lams = lams[::10]  # the Python DP is slow: every tenth lam
    K = 5
    idx = np.arange(y.size)
    table = np.zeros(lams.size)
    chains = []
    for r in range(K):
        held, kept = idx[idx % K == r], idx[idx % K != r]
        chains.append(_rfl_chain(y[kept], lams))
        for j, fit in enumerate(chains[-1]):
            pred = np.interp(held.astype(float), kept.astype(float), fit.beta)
            table[j] += float(np.sum(huber(y[held] - pred)))
    entry, fold_paths = applications.APP_TABLE["rfl"], []
    monkeypatch.setitem(applications.APP_TABLE, "rfl", dataclasses.replace(
        entry, path=lambda *args: fold_paths.append(entry.path(*args)) or fold_paths[-1]))
    best, cv = kfold_cv(AppSpec("rfl"), y, lams, K)
    assert cv.tobytes() == table.tobytes() and best == lams[np.argmin(table)]
    for r, (fits, chain) in enumerate(zip(fold_paths, chains, strict=True)):
        for got, expected in zip(fits, chain, strict=True):
            _assert_same_fit_record(got, expected, r)
    monkeypatch.setitem(applications.APP_TABLE, "rfl", entry)
    path = solution_path(AppSpec("rfl"), y, lams, criterion="cv", folds=K)
    assert path.criterion_values.tobytes() == table.tobytes()
    assert path.selected == int(np.argmin(table))
    for got, expected in zip(path.fits, _rfl_chain(y, lams)):
        _assert_same_fit_record(got, expected, got.objective)


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_rfl_path_stops_at_the_failing_fit(monkeypatch, python):
    # the objective at the second scale overflows: the path raises the
    # error that fit_rfl raises at that lam, and no later fit runs
    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    y = np.array([0.0, 4.0, 0.0, 4.0])
    lams = np.array([1.0, 1e308, 1.0])
    first = fit_rfl(y, 1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError, match="not finite") as path_err:
            solvers.envelope_fused_lasso_path("huber", y, None, 1.0, lams, y, SolverConfig())
        with pytest.raises(ValidationError) as chain_err:
            fit_rfl(y, 1e308, init=first.beta)
    assert str(path_err.value) == str(chain_err.value)
    # the one-fit path is the single fit
    single = solvers.envelope_fused_lasso_path("huber", y, None, 1.0, lams[:1], y,
                                               SolverConfig())
    _assert_same_fit_record(single[0], first, "single")
    # the squared loss records its one map's objective alone, at any budget
    for cfg in (SolverConfig(), solvers._ONE_SOLVE):
        gauss = solvers.envelope_fused_lasso_mm("gaussian", y, None, 1.0, None, cfg)
        assert gauss.trace.tolist() == [gauss.objective] and gauss.iters == 1


def test_rfl_path_rejects_bad_input_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(applications, "envelope_fused_lasso_path",
                        lambda *args: calls.append(args))
    y = simulate("rfl", 20, seed=3).y
    for lams, msg in (([3.0, 1.0, -1.0], "lam must be nonnegative"),
                      ([np.inf, 1.0], "finite"), ([3.0, np.nan], "finite")):
        with pytest.raises(ValidationError, match=msg):
            applications._rfl_path(AppSpec("rfl"), y, None, np.array(lams), None)
        with pytest.raises(ValidationError, match=msg):
            kfold_cv(AppSpec("rfl"), y, np.array(lams), K=2)
    for bad in (np.r_[y[:5], np.nan], y[:1]):
        with pytest.raises(ValidationError, match="y must be"):
            solution_path(AppSpec("rfl"), bad, np.array([2.0, 1.0]))
    assert calls == []


def test_kfold_leave_one_out_mechanics():
    ds = simulate("rfl", 6, seed=13)
    lams = np.array([3.0, 1.0, 0.3])
    best, table = kfold_cv(AppSpec("rfl"), ds.y, lams, K=6)
    assert table.shape == (3,)
    assert best in lams


def test_kfold_constant_signal_tie_breaks_large():
    y = np.full(20, 1.5)
    lams = np.array([5.0, 2.0, 0.5])
    best, table = kfold_cv(AppSpec("rfl"), y, lams, K=5)
    assert np.allclose(table, table[0])
    assert best == 5.0


def test_kfold_validation():
    ds = simulate("rfl", 10, seed=1)
    with pytest.raises(ValidationError):
        kfold_cv(AppSpec("rfl"), ds.y, np.array([1.0]), K=1)
    with pytest.raises(ValidationError):
        kfold_cv(AppSpec("fdp"), ds.y, np.array([1.0]), K=2)  # missing m
    for lams in ([], [[2.0, 1.0]]):
        with pytest.raises(ValidationError, match="nonempty vector"):
            kfold_cv(AppSpec("rfl"), ds.y, lams, K=2)


# ---------------------------------------------------------------------------
# simulators


def test_simulate_qrtf_truth_formulas():
    ds = simulate("qrtf", 1000, seed=3)
    i = np.argmin(np.abs(ds.x - 0.25))
    assert ds.x[i] == 0.25
    assert ds.truth["truth_mean"][i] == pytest.approx(5.0)
    assert ds.truth["truth_sigma"][i] == pytest.approx(1.5)
    # true 0.9-quantile curve: mean + z_{0.9} * sigma
    from scipy.stats import norm
    q90 = ds.truth["truth_mean"] + norm.ppf(0.9) * ds.truth["truth_sigma"]
    assert q90[i] == pytest.approx(5.0 + 1.2815515655446004 * 1.5)


def test_simulate_fdp_support():
    ds = simulate("fdp", 500, seed=3, m=25)
    assert np.all(ds.y >= 0) and np.all(ds.y <= 25)
    assert set(np.unique(ds.truth["truth_logodds"])) <= set(FDP_TRUE_LEVELS)


def test_simulate_rfl_truth_levels():
    ds = simulate("rfl", 250, seed=1)
    assert sorted(set(ds.truth["truth"])) == sorted({0.0, 4.0, 1.0, -3.0})


def test_simulate_deterministic():
    a = simulate("qrtf", 200, seed=42)
    b = simulate("qrtf", 200, seed=42)
    assert a.y.tobytes() == b.y.tobytes()
    assert a.x.tobytes() == b.x.tobytes()
    c = simulate("qrtf", 200, seed=43)
    assert a.y.tobytes() != c.y.tobytes()
    assert a.meta["generator"] == "pcg64"
    assert a.meta["seed"] == 42
