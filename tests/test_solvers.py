import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import envopt
from envopt import solvers
from envopt.errors import CapabilityError, MonotonicityError, ValidationError
from envopt.losses import LossSpec, loss_grad
from envopt.operators import soft_threshold
from envopt.penalties import PenaltySpec, prox
from envopt.solvers import (
    SolverConfig,
    count_knots,
    distinct_levels,
    logistic_fused_lasso,
    mm_driver,
    proximal_gradient,
    trend_filter_kkt_residual,
    weighted_fused_lasso,
    weighted_trend_filter,
)


# ---------------------------------------------------------------------------
# weighted fused lasso


def _fl_objective(beta, z, omega, u):
    return (0.5 * np.sum(omega * (z - beta) ** 2)
            + np.sum(u * np.abs(np.diff(beta))))


def test_fused_lasso_decoupled():
    z = np.array([1.0, -2.0, 0.5])
    out = weighted_fused_lasso(z, np.ones(3), np.zeros(2))
    np.testing.assert_array_equal(out, z)


def test_fused_lasso_two_point_brute_force():
    z = np.array([0.0, 2.0])
    out = weighted_fused_lasso(z, np.ones(2), np.array([1.0]))
    # independent oracle: dense 2-d grid with local refinement
    grid = np.linspace(-1.0, 3.0, 801)
    B1, B2 = np.meshgrid(grid, grid, indexing="ij")
    obj = 0.5 * B1**2 + 0.5 * (2.0 - B2) ** 2 + np.abs(B2 - B1)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    np.testing.assert_allclose(out, [grid[i], grid[j]], atol=1e-2)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_fused_lasso_full_fusion():
    rng = np.random.Generator(np.random.PCG64(2))
    z = rng.normal(size=12)
    omega = rng.uniform(0.5, 2.0, size=12)
    big = np.full(11, np.sum(omega) * (z.max() - z.min()) + 1.0)
    out = weighted_fused_lasso(z, omega, big)
    mean = np.sum(omega * z) / np.sum(omega)
    np.testing.assert_allclose(out, np.full(12, mean), atol=1e-10)


def test_fused_lasso_random_vs_brute_force_objective():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(30):
        n = int(rng.integers(1, 9))
        z = rng.normal(size=n)
        omega = rng.uniform(0.3, 3.0, size=n)
        u = rng.uniform(0.0, 1.5, size=max(n - 1, 0))
        beta = weighted_fused_lasso(z, omega, u)
        base = _fl_objective(beta, z, omega, u)
        # perturbations cannot improve on the exact solution
        for _ in range(40):
            trial = beta + rng.normal(scale=0.05, size=n)
            assert _fl_objective(trial, z, omega, u) >= base - 1e-12


def test_fused_lasso_validation():
    with pytest.raises(ValidationError):
        weighted_fused_lasso([1.0, 2.0], [1.0, -1.0], [0.5])
    with pytest.raises(ValidationError):
        weighted_fused_lasso([1.0, 2.0], [1.0, 1.0], [-0.5])
    with pytest.raises(ValidationError):
        weighted_fused_lasso([1.0, np.inf], [1.0, 1.0], [0.5])


def test_fused_lasso_matches_exact_trend_filter():
    # the trend filter of order k = 0 is the fused lasso; both are exact
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(10):
        n = int(rng.integers(2, 40))
        z = rng.normal(0, 2, size=n)
        omega = rng.uniform(0.2, 3.0, size=n)
        u = rng.uniform(0.0, 2.0, size=n - 1)
        a = weighted_fused_lasso(z, omega, u)
        state = {}
        b = weighted_trend_filter(z, omega, 0, u, state=state)
        assert state["converged"]
        np.testing.assert_allclose(a, b, atol=1e-9)


def _dp_instances(rng, count):
    """Random DP inputs: n in 1..300, unit or non-uniform weights, edge
    penalties over four decades with some zero edges, z over six."""
    for i in range(count):
        n = int(rng.integers(1, 301))
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        omega = np.ones(n) if i % 2 else rng.uniform(0.05, 20.0, size=n)
        u = rng.uniform(0.0, 1.0, size=n - 1) * 10.0 ** rng.uniform(-2, 2)
        u[rng.random(n - 1) < rng.uniform(0.0, 0.5)] = 0.0
        yield z, omega, u
    n = 50  # fully fused: every edge far above the data's spread
    yield rng.normal(size=n), rng.uniform(0.5, 2.0, size=n), np.full(n - 1, 1e6)


def test_fused_lasso_equals_python_dp_exactly():
    rng = np.random.Generator(np.random.PCG64(2013))
    for z, omega, u in _dp_instances(rng, 1000):
        out = weighted_fused_lasso(z, omega, u)
        ref = solvers._fused_lasso_dp(z, omega, u) if u.any() else z
        assert np.array_equal(out, ref), (z.size, solvers.FUSED_LASSO_KERNEL)
    assert np.ptp(out) == 0.0  # the last instance fuses to one level


def test_fused_lasso_forced_python_fallback(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(77))
    cases = list(_dp_instances(rng, 40))
    expected = [weighted_fused_lasso(*c) for c in cases]
    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    assert solvers.FUSED_LASSO_KERNEL == "python"
    for c, e in zip(cases, expected):
        assert np.array_equal(weighted_fused_lasso(*c), e)
    bad = [
        (([], [], []), "nonempty"),
        ((np.ones((3, 2)), 1.0, 1.0), "one-dimensional"),
        (([1.0, 2.0], [1.0, -1.0], [0.5]), "omega must be strictly positive"),
        (([1.0, 2.0], [1.0, np.nan], [0.5]), "omega must be strictly positive"),
        (([1.0, 2.0], [1.0, 1.0], [-0.5]), "edge weights must be nonnegative"),
        (([1.0, np.inf], [1.0, 1.0], [0.5]), "inputs must be finite"),
        (([1.0, 2.0], [1.0, np.inf], [0.5]), "inputs must be finite"),
        (([1.0, 2.0], [1.0, 1.0], [np.nan]), "inputs must be finite"),
        ((np.ones(4), [1.0, 2.0], 1.0), "omega must be a scalar or a vector of length 4"),
        ((np.ones(4), 1.0, np.ones(4)), "edge weights must be a scalar or a vector of length 3"),
    ]
    for args, msg in bad:
        with pytest.raises(ValidationError, match=msg):
            weighted_fused_lasso(*args)


def _kernel_probe(env, n_procs):
    """Start ``n_procs`` fresh interpreters at once; each loads the kernel
    and prints FUSED_LASSO_KERNEL."""
    code = "from envopt import solvers; print(solvers.FUSED_LASSO_KERNEL)"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE) for _ in range(n_procs)]
    return [p.communicate(timeout=300)[0].strip() for p in procs]


def _probe_env(tmp_path, path):
    src = str(Path(envopt.__file__).resolve().parent.parent)
    return dict(os.environ, PATH=path, XDG_CACHE_HOME=str(tmp_path / "cache"),
                PYTHONPATH=src)


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
def test_fused_lasso_kernel_compiled_once_then_cached(tmp_path):
    real_cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "cc.log"
    wrapper = bin_dir / "cc"  # logs each compiler run with its arguments
    wrapper.write_text(f'#!/bin/sh\necho run "$@" >> "{log}"\nexec "{real_cc}" "$@"\n')
    wrapper.chmod(0o755)
    env = _probe_env(tmp_path, f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    # cold cache, three processes at once: exactly one compiles
    assert _kernel_probe(env, 3) == ["c"] * 3
    runs = log.read_text().splitlines()
    assert len(runs) == 1
    args = runs[0].split()[1:]
    # no contraction and no fast-math, so -O3 keeps the bits of -O2; no
    # -march, since the cache is not keyed per CPU
    assert {"-O3", "-ffp-contract=off"} <= set(args)
    assert not {"-ffast-math", "-Ofast", "-fassociative-math",
                "-funsafe-math-optimizations", "-march=native"} & set(args)
    # a later process reuses the cached library
    assert _kernel_probe(env, 1) == ["c"]
    assert log.read_text().splitlines() == runs
    libs = list((tmp_path / "cache" / "envopt").glob("fldp-*.so"))
    assert len(libs) == 1


def test_failed_kernel_build_warns_and_falls_back(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "cc"  # a compiler that always fails
    wrapper.write_text('#!/bin/sh\necho "fatal error: no can do" >&2\nexit 1\n')
    wrapper.chmod(0o755)
    env = _probe_env(tmp_path, f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    code = ("from envopt import solvers; "
            "print(solvers.FUSED_LASSO_KERNEL, solvers.FUSED_LASSO_KERNEL)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.stdout.split() == ["python", "python"]
    assert proc.stderr.count("RuntimeWarning") == 1
    assert str(wrapper) in proc.stderr
    assert "fatal error: no can do" in proc.stderr
    assert list((tmp_path / "cache" / "envopt").glob("*.so")) == []


def test_fused_lasso_kernel_falls_back_to_python(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _kernel_probe(_probe_env(tmp_path, str(empty)), 1) == ["python"]
    assert not (tmp_path / "cache").exists()
    # a cache directory that other users can write to is never used
    shared = tmp_path / "cache" / "envopt"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    env = _probe_env(tmp_path, os.environ.get("PATH", ""))
    assert _kernel_probe(env, 1) == ["python"]
    assert list(shared.iterdir()) == []


# ---------------------------------------------------------------------------
# weighted trend filtering


def test_trend_filter_zero_penalty():
    z = np.arange(6.0)
    out = weighted_trend_filter(z, np.ones(6), 1, 0.0)
    np.testing.assert_array_equal(out, z)


def _weighted_polyfit(x, z, omega, deg):
    V = np.vander(x, deg + 1, increasing=True)
    W = np.sqrt(omega)
    coef, *_ = np.linalg.lstsq(V * W[:, None], z * W, rcond=None)
    return V @ coef


@pytest.mark.parametrize("k", [1, 2])
def test_trend_filter_large_penalty_is_polynomial_fit(k):
    rng = np.random.Generator(np.random.PCG64(31 + k))
    n = 40
    x = np.arange(n, dtype=float)
    z = 0.3 * x - 0.01 * x**2 + rng.normal(size=n)
    omega = rng.uniform(0.5, 2.0, size=n)
    cfg = SolverConfig(inner_max_iters=60_000, inner_tol=1e-12)
    beta = weighted_trend_filter(z, omega, k, 1e7, cfg)
    ref = _weighted_polyfit(x, z, omega, k)
    np.testing.assert_allclose(beta, ref, atol=2e-4)


def test_trend_filter_kkt_residual_small():
    rng = np.random.Generator(np.random.PCG64(8))
    cfg = SolverConfig(inner_max_iters=50_000, inner_tol=1e-11)
    for k in (1, 2):
        for _ in range(4):
            n = int(rng.integers(k + 5, 50))
            z = rng.normal(size=n)
            lam = float(rng.uniform(0.3, 3.0))
            beta = weighted_trend_filter(z, np.ones(n), k, lam, cfg)
            assert trend_filter_kkt_residual(beta, z, np.ones(n), k, lam) <= 1e-6


def test_trend_filter_per_row_lambda():
    z = np.array([0.0, 2.0, 0.0, 2.0])
    cfg = SolverConfig(inner_max_iters=50_000, inner_tol=1e-12)
    lamv = np.array([0.0, 5.0, 0.0])
    beta = weighted_trend_filter(z, np.ones(4), 0, lamv, cfg)
    ref = weighted_fused_lasso(z, np.ones(4), lamv)
    np.testing.assert_allclose(beta, ref, atol=1e-8)


# a tolerance at which a multiplier of the wrong sign by rounding alone is
# freed, so that some solves run to the cap
_TF_BUDGET = SolverConfig(inner_max_iters=150, inner_tol=1e-30)


def _tf_instances(rng, count):
    """Random trend-filter inputs: k in {0, 1, 2}, n from k+2 to 300,
    omega over six decades with some rows at fit_qrtf's 1e6 clamp, scalar
    or per-row lam (some rows 0), and every other one a warm state whose
    dual comes from an earlier run on nearby data."""
    for i in range(count):
        k = i % 3
        n = int(rng.integers(k + 2, 301))
        z = np.cumsum(rng.normal(size=n)) * 10.0 ** rng.uniform(-2, 2)
        omega = 10.0 ** rng.uniform(-3, 3, size=n)
        omega[rng.random(n) < 0.1] = 1e6
        lam = 10.0 ** rng.uniform(-2, 2)
        if i % 4 >= 2:
            lam = lam * rng.uniform(0.0, 1.0, size=n - k - 1)
            lam[rng.random(n - k - 1) < 0.2] = 0.0
        state = None
        if i % 2:
            state = {}
            weighted_trend_filter(z + rng.normal(scale=0.1, size=n), omega, k,
                                  lam, _TF_BUDGET, state)
        yield z, omega, k, lam, state


def _tf_run(args, python, cfg=_TF_BUDGET):
    z, omega, k, lam, state = args
    state = None if state is None else dict(state)  # each run reads a copy
    out = {} if state is None else state
    with pytest.MonkeyPatch.context() as mp:
        if python:
            mp.setattr(solvers, "_kernel", lambda: None)
        beta = weighted_trend_filter(z, omega, k, lam, cfg, out)
    return beta, out


def _assert_same_solve(got, expected, where):
    (beta_c, c), (beta_py, py) = got, expected
    assert np.array_equal(beta_c, beta_py), where
    assert np.array_equal(c["v"], py["v"]), where
    assert (c["iters"], c["converged"]) == (py["iters"], py["converged"]), where


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
def test_trend_filter_c_loop_matches_python_loop():
    rng = np.random.Generator(np.random.PCG64(1406))
    capped = converged = 0
    for args in _tf_instances(rng, 30):
        c = _tf_run(args, python=False, cfg=SolverConfig())
        where = (args[0].size, args[2], args[4] is not None)
        _assert_same_solve(c, _tf_run(args, python=True, cfg=SolverConfig()), where)
        converged += c[1]["converged"]
        c = _tf_run(args, python=False)
        _assert_same_solve(c, _tf_run(args, python=True), where)
        capped += not c[1]["converged"]
    # the default tolerance ends every solve; the budget caps some
    assert converged == 30 and capped >= 3


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
@pytest.mark.parametrize("cap, tol", [(1, 1e-30), (19, 1e-30), (20, 1e-30), (21, 1e-30),
                                      (5000, 1e-4)])
def test_trend_filter_c_loop_record_matches_python_loop(cap, tol):
    """The record matches the Python loop's after one iteration, after a
    few, and at convergence, where every solve meets its stop test."""
    cfg = SolverConfig(inner_max_iters=cap, inner_tol=tol)
    rng = np.random.Generator(np.random.PCG64(1406))
    for args in _tf_instances(rng, 24):
        c = _tf_run(args, python=False, cfg=cfg)
        where = (args[0].size, args[2], args[4] is not None)
        _assert_same_solve(c, _tf_run(args, python=True, cfg=cfg), where)
        assert c[1]["iters"] <= cap
        assert c[1]["converged"] or (cap < 5000 and c[1]["iters"] == cap), where


@pytest.mark.parametrize("k", [0, 1, 2])
def test_trend_filter_cold_start_far_from_solution(k):
    """A dual start at the wrong bound on every row ends within the
    default cap and meets the KKT bound."""
    rng = np.random.Generator(np.random.PCG64(70 + k))
    n = 200
    z = np.cumsum(rng.normal(size=n))
    omega = 10.0 ** rng.uniform(-1, 1, size=n)
    lam = 2.0
    exact = {}
    weighted_trend_filter(z, omega, k, lam, state=exact)
    state = {"v": -lam * np.sign(exact["v"] + 0.5 * lam)}
    beta = weighted_trend_filter(z, omega, k, lam, state=state)
    assert state["converged"] and state["iters"] < SolverConfig().inner_max_iters
    assert state["iters"] > exact["iters"] // 2
    assert trend_filter_kkt_residual(beta, z, omega, k, lam) <= 1e-6


_TF_BAD = [
    ((np.ones((3, 2)), 1.0, 0, 1.0), "one-dimensional"),
    ((np.ones(4), 1.0, -1, 1.0), "order k must be >= 0"),
    ((np.ones(3), 1.0, 2, 1.0), "need len"),
    ((np.ones(4), [1.0, -1.0, 1.0, 1.0], 1, 1.0), "omega must be strictly positive"),
    ((np.ones(4), [1.0, np.nan, 1.0, 1.0], 1, 1.0), "omega must be strictly positive"),
    ((np.ones(4), [1.0, np.inf, 1.0, 1.0], 1, 1.0), "inputs must be finite"),
    ((np.ones(4), 1.0, 1, [1.0, -1.0]), "lam must be nonnegative"),
    ((np.ones(4), 1.0, 1, [1.0, np.nan]), "inputs must be finite"),
    ((np.ones(4), 1.0, 1, np.inf), "inputs must be finite"),
    ((np.ones(4), [1.0, 2.0], 1, 1.0), "omega must be a scalar or a vector of length 4"),
    ((np.ones(5), 1.0, 1, [1.0, 2.0]), "lam must be a scalar or a vector of length 3"),
    (([1.0, np.nan, 1.0, 1.0], 1.0, 1, 1.0), "inputs must be finite"),
    (([1.0, np.nan, 1.0, 1.0], 1.0, 1, 0.0), "inputs must be finite"),
    (([1.0, np.inf, 1.0, 1.0], 1.0, 1, 1.0), "inputs must be finite"),
    (([1.0, -np.inf, 1.0, 1.0], 1.0, 1, 1.0), "inputs must be finite"),
]


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_trend_filter_rejects_bad_input_before_any_work(monkeypatch, python):
    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    for (z, omega, k, lam), msg in _TF_BAD:
        state = {}
        with pytest.raises(ValidationError, match=msg):
            weighted_trend_filter(z, omega, k, lam, state=state)
        assert state == {}


def test_trend_filter_forced_python_fallback(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(2016))
    cases = list(_tf_instances(rng, 12))
    expected = [_tf_run(c, python=False) for c in cases]
    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    assert solvers.FUSED_LASSO_KERNEL == "python"
    for c, solve in zip(cases, expected):
        _assert_same_solve(_tf_run(c, python=False), solve, c[0].size)  # the loader is patched away
    for (z, omega, k, lam), msg in _TF_BAD:
        with pytest.raises(ValidationError, match=msg):
            weighted_trend_filter(z, omega, k, lam)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_compiled_sources_are_package_data():
    # without its source, an installed package silently runs the Python loops
    import tomllib

    root = Path(__file__).resolve().parent.parent
    config = tomllib.loads((root / "pyproject.toml").read_text())
    shipped = set(config["tool"]["setuptools"]["package-data"]["envopt"])
    compiled = {src.name for src in solvers._KERNEL_SOURCES}
    assert compiled == {src.name for src in (root / "src" / "envopt").glob("*.c")}
    assert compiled <= shipped


# ---------------------------------------------------------------------------
# proximal gradient


def test_proximal_gradient_first_step_is_soft_threshold():
    y = np.array([3.0, -0.5, 1.5])
    loss = LossSpec("gaussian", y=y)
    pen = PenaltySpec("l1", weight=1.0)
    fit = proximal_gradient(loss, pen, np.zeros(3),
                            SolverConfig(max_iters=1, tol=1e-30))
    np.testing.assert_allclose(fit.beta, soft_threshold(y, 1.0))


def test_proximal_gradient_matches_long_run_oracle():
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(3):
        A = rng.normal(size=(20, 10))
        y = rng.normal(size=20)
        loss = LossSpec("gaussian", y=y, design=A)
        pen = PenaltySpec("l1", weight=1.5)
        fit = proximal_gradient(loss, pen, np.zeros(10),
                                SolverConfig(max_iters=20_000, tol=1e-16))
        ref = proximal_gradient(loss, pen, np.zeros(10),
                                SolverConfig(max_iters=100_000, tol=1e-16))
        assert fit.objective == pytest.approx(ref.objective, abs=1e-6)
        a = fit.aux["step"]
        fp = prox(pen, fit.beta - a * loss_grad(loss, fit.beta), 1.0 / a)
        assert np.max(np.abs(fp - fit.beta)) <= 1e-8


def test_proximal_gradient_trace_monotone():
    rng = np.random.Generator(np.random.PCG64(14))
    A = rng.normal(size=(15, 6))
    y = rng.normal(size=15)
    loss = LossSpec("gaussian", y=y, design=A)
    pen = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    fit = proximal_gradient(loss, pen, np.zeros(6), SolverConfig())
    diffs = np.diff(fit.trace)
    assert np.all(diffs <= 1e-10 * np.maximum(1.0, np.abs(fit.trace[:-1])))


def test_proximal_gradient_degenerate_logit_flagged():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    loss = LossSpec("binomial-logit", y=y, m=np.ones(4))
    pen = PenaltySpec("double-pareto", gamma=0.0, a=1.0)
    fit = proximal_gradient(loss, pen, np.zeros(4),
                            SolverConfig(max_iters=300, tol=1e-16))
    assert not fit.converged
    np.testing.assert_allclose(expit(fit.beta), y, atol=1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_proximal_gradient_rejects_non_finite_start(monkeypatch, bad):
    def no_iteration(*args):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(solvers, "loss_grad", no_iteration)
    loss = LossSpec("gaussian", y=[1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="finite vector of length 3"):
        proximal_gradient(loss, PenaltySpec("l1"), [bad, 0.0, 0.0])
    with pytest.raises(ValidationError, match="finite vector of length 3"):
        proximal_gradient(loss, PenaltySpec("l1"), np.zeros(2))


def test_proximal_gradient_requires_capabilities():
    loss = LossSpec("check", y=np.zeros(3), q=0.5)
    with pytest.raises(CapabilityError):
        proximal_gradient(loss, PenaltySpec("l1"), np.zeros(3))
    g = LossSpec("gaussian", y=np.zeros(3))
    with pytest.raises(CapabilityError):
        proximal_gradient(g, PenaltySpec("psi-specified"), np.zeros(3))


# ---------------------------------------------------------------------------
# mm driver


def test_mm_driver_exact_minimizer_one_cycle():
    y = np.array([4.0, -1.0])

    def objective(beta):
        return float(np.sum((beta - y) ** 2))

    fit = mm_driver(objective, lambda beta: None, lambda aux, beta: y.copy(),
                    np.zeros(2), SolverConfig())
    assert fit.converged
    assert fit.iters <= 2
    np.testing.assert_array_equal(fit.beta, y)


def test_mm_driver_scalar_log_penalty_fixed_point():
    # alternating concave-penalty reweighting and soft-thresholding on
    # 0.5*(3 - x)^2 + log(1 + |x|) reaches x = 1 + sqrt(3)
    y = 3.0

    def objective(beta):
        x = beta[0]
        return 0.5 * (y - x) ** 2 + np.log1p(abs(x))

    def lam_update(beta):
        return 1.0 / (1.0 + abs(beta[0]))

    def x_solve(lam, beta):
        return np.array([soft_threshold(y, lam)])

    fit = mm_driver(objective, lam_update, x_solve, np.array([0.0]),
                    SolverConfig(max_iters=200, tol=1e-14))
    assert fit.beta[0] == pytest.approx(1.0 + np.sqrt(3.0), abs=1e-6)
    diffs = np.diff(fit.trace)
    assert np.all(diffs <= 1e-10 * np.maximum(1.0, np.abs(fit.trace[:-1])))


def test_mm_driver_flat_objective_converges():
    fit = mm_driver(lambda beta: 1.0, lambda beta: None, lambda aux, beta: beta,
                    np.zeros(2), SolverConfig())
    assert fit.converged
    assert np.all(fit.trace == 1.0)


def test_mm_driver_raises_on_increase():
    def bad_step(aux, beta):
        return beta + 1.0

    with pytest.raises(MonotonicityError) as err:
        mm_driver(lambda beta: float(beta[0] ** 2), lambda beta: None, bad_step,
                  np.array([0.0]), SolverConfig())
    assert "bad_step" in str(err.value)


def test_mm_driver_rejects_non_finite_objective():
    # a NaN or infinite value would stop the loop as "converged" or never
    for start, step in (([np.inf], lambda aux, beta: beta),
                        ([1.0], lambda aux, beta: beta * np.nan)):
        with pytest.raises(ValidationError, match="not finite"):
            mm_driver(lambda beta: float(beta[0] ** 2), lambda beta: None, step,
                      np.array(start), SolverConfig())


def test_mm_driver_evaluates_objective_once_per_cycle():
    calls = []

    def objective(beta):
        calls.append(beta[0])
        return 0.5 * (beta[0] - 1.0) ** 2

    def half_step(step, beta):
        return beta + step * (1.0 - beta)

    fit = mm_driver(objective, lambda beta: 0.5, half_step, np.array([0.0]),
                    SolverConfig(max_iters=50, tol=1e-6))
    assert fit.iters > 1
    assert len(calls) == fit.iters + 1


# ---------------------------------------------------------------------------
# logistic fused lasso


def test_logistic_fused_lasso_balanced_zero():
    y = np.full(6, 2.0)
    m = np.full(6, 4.0)
    beta = logistic_fused_lasso(y, m, np.zeros(5),
                                cfg=SolverConfig(tol=1e-12)).beta
    np.testing.assert_allclose(beta, np.zeros(6), atol=1e-8)


def test_logistic_fused_lasso_pooled_limit():
    rng = np.random.Generator(np.random.PCG64(6))
    m = np.full(8, 10.0)
    y = rng.integers(2, 9, size=8).astype(float)
    beta = logistic_fused_lasso(y, m, np.full(7, 1e6),
                                cfg=SolverConfig(max_iters=4000, tol=1e-14)).beta
    pooled = np.log(np.sum(y) / (np.sum(m) - np.sum(y)))
    np.testing.assert_allclose(beta, np.full(8, pooled), atol=1e-6)


def test_logistic_fused_lasso_two_point_grid_oracle():
    y = np.array([3.0, 7.0])
    m = np.array([10.0, 10.0])
    u = np.array([0.5])
    beta = logistic_fused_lasso(y, m, u, cfg=SolverConfig(max_iters=5000,
                                                          tol=1e-14)).beta
    grid = np.linspace(-3.0, 3.0, 1201)
    B1, B2 = np.meshgrid(grid, grid, indexing="ij")
    obj = (m[0] * np.logaddexp(0, B1) - y[0] * B1
           + m[1] * np.logaddexp(0, B2) - y[1] * B2
           + u[0] * np.abs(B2 - B1))
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    np.testing.assert_allclose(beta, [grid[i], grid[j]], atol=6e-3)


def test_counts_with_no_finite_minimizer_are_rejected_before_any_map(monkeypatch):
    from envopt import applications
    from envopt.applications import binomial_fused_lasso, fit_fdp

    calls = []
    for module in (solvers, applications):
        for loop in ("envelope_fused_lasso_mm", "envelope_fused_lasso_path"):
            monkeypatch.setattr(module, loop, lambda *args, **kw: calls.append(args))
    cases = [
        (logistic_fused_lasso, ([0, 0, 3], [5, 5, 5], [0, 1]), {}),  # {0} all 0
        (logistic_fused_lasso, ([5, 5, 3], 5, [1, 0]), {}),  # {0, 1} all m
        (logistic_fused_lasso, ([1, 4, 0], 4, 0.0), {}),  # every coefficient alone
        (binomial_fused_lasso, ([0] * 6, 5, 1.0), {}),
        (fit_fdp, ([0] * 6, 5, 1.0), {}),
        (fit_fdp, ([5] * 6, 5, 1.0), {"init": np.zeros(6)}),
    ]
    for fit, args, kwargs in cases:
        with pytest.raises(ValidationError, match="no finite minimizer"):
            fit(*args, **kwargs)
    assert calls == []
    monkeypatch.undo()
    # joined to a positive count by positive edge weights, zero counts
    # have a finite fit: the stationary point of the 3-point problem
    fit = logistic_fused_lasso([0, 0, 3], [5, 5, 5], [1, 1],
                               cfg=SolverConfig(max_iters=5000, tol=1e-14))
    assert fit.converged and np.all(np.abs(fit.beta) < 5.0)
    # stationarity: beta_0 = beta_1 < beta_2, so the block {0, 1} and the
    # last coefficient each meet the +-1 of the edge between them, and the
    # edge inside the block takes the subgradient grad_0 in [-1, 1]
    grad = 5.0 * expit(fit.beta) - np.array([0.0, 0.0, 3.0])
    assert fit.beta[0] == fit.beta[1] < fit.beta[2]
    np.testing.assert_allclose([grad[0] + grad[1], grad[2]], [1.0, -1.0], atol=1e-8)
    assert abs(grad[0]) <= 1.0
    assert binomial_fused_lasso([0, 0, 1, 0, 0, 0], 5, 1.0).converged


def _has_finite_minimizer(y, m, u):
    """Whether every run of coefficients joined by positive edge weights
    ``u`` (a scalar or a vector) has a count above 0 and a count below m."""
    u = np.broadcast_to(u, (y.size - 1,))
    start = 0
    for i in range(y.size):
        if i == y.size - 1 or u[i] == 0:
            run = slice(start, i + 1)
            if not (any(y[run] > 0) and any(y[run] < m[run])):
                return False
            start = i + 1
    return True


def _logit_fit(y, m, u, cfg, init=None):
    """``logistic_fused_lasso``; for counts with no finite minimizer, which
    it rejects, the same envelope loop run without that check."""
    if _has_finite_minimizer(y, m, u):
        return logistic_fused_lasso(y, m, u, init=init, cfg=cfg)
    with pytest.raises(ValidationError, match="no finite minimizer"):
        logistic_fused_lasso(y, m, u, init=init, cfg=cfg)
    start = np.zeros(y.size) if init is None else np.array(init, dtype=float)
    return solvers.envelope_fused_lasso_mm("binomial-logit", y, m, u, start, cfg)


def _fdp_fit(y, m, lam, cfg, a=1.0, init=None):
    """``fit_fdp``; for counts with no finite minimizer, which it rejects at
    lam > 0, the same envelope loops run without that check."""
    from envopt.applications import fit_fdp

    if lam == 0 or _has_finite_minimizer(y, m, lam):
        return fit_fdp(y, m, lam, a=a, init=init, cfg=cfg)
    with pytest.raises(ValidationError, match="no finite minimizer"):
        fit_fdp(y, m, lam, a=a, init=init, cfg=cfg)
    start = _logit_fit(y, m, lam, cfg).beta if init is None else np.array(init, dtype=float)
    return solvers.envelope_fused_lasso_mm("fdp", y, m, lam, start, cfg, a=a)


def _envelope_instances(rng, count):
    """Random rfl (Huber shift), binomial (Polya-Gamma) and fdp (Polya-Gamma
    weights with the log penalty's edge weights) MM problems as ``(fit,
    args, kwargs)``, cold and warm, converging and capped.  Some counts
    have no finite minimizer; their loops run past the fits' check."""
    from envopt.applications import fit_rfl

    for i in range(count):
        kind = i % 3
        n = int(rng.integers(2 if kind == 0 else 1, 80))
        cfg = SolverConfig(max_iters=int(rng.choice([3, 40, 2000])),
                           tol=float(rng.choice([1e-6, 1e-8, 1e-11])))
        if kind == 0:
            levels = rng.normal(scale=3.0, size=4)[rng.integers(0, 4, size=n)]
            y = levels + rng.standard_t(3, size=n)
            lam = 0.0 if i % 5 == 0 else float(10.0 ** rng.uniform(-2, 2))
            init = None if i % 4 == 0 else y + rng.normal(size=n)
            yield fit_rfl, (y, lam), dict(cfg=cfg, init=init)
            continue
        m = rng.integers(1, 30, size=n).astype(float)
        y = rng.binomial(m.astype(int), rng.uniform(0.05, 0.95)).astype(float)
        init = None if i % 4 == 1 else rng.normal(scale=2.0, size=n)
        if kind == 1:
            u = rng.uniform(0.0, 1.0, size=n - 1) * 10.0 ** rng.uniform(-2, 2)
            u[rng.random(n - 1) < 0.2] = 0.0
            if i % 9 == 1:
                u[:] = 0.0
            yield _logit_fit, (y, m, u), dict(cfg=cfg, init=init)
        else:
            lam = float(10.0 ** rng.uniform(-1, 2))
            a = float(rng.choice([0.5, 1.0, 3.0]))
            yield _fdp_fit, (y, m, lam), dict(a=a, cfg=cfg, init=init)


def _non_increasing(trace):
    d = np.diff(trace)
    return bool(np.all(d <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))))


def _assert_run_record(fit, cfg):
    """The documented record of an iterative envelope run: ``iters`` maps,
    SQUAREM steps of three maps while three remain in ``max_iters`` and
    then plain maps, a trace of ``iters + 1`` non-increasing values in
    which each rejected step repeats its plain value, and ``converged``
    exactly when the relative change of the last step fell to ``tol``."""
    run = fit.aux["run"]
    steps, t = run["steps"], fit.trace
    assert run["maps"] == fit.iters <= cfg.max_iters
    assert steps == min(fit.iters, cfg.max_iters - cfg.max_iters % 3) // 3
    assert 0 <= run["rejected"] <= steps
    assert t.shape == (fit.iters + 1,) and fit.objective == t[-1]
    assert _non_increasing(t)
    assert sum(t[3 * k] == t[3 * k - 1] for k in range(1, steps + 1)) >= run["rejected"]
    ends = [*range(0, 3 * steps + 1, 3), *range(3 * steps + 1, fit.iters + 1)]
    stops = [abs(t[i] - t[j]) <= cfg.tol * max(1.0, abs(t[i])) for i, j in zip(ends, ends[1:])]
    assert not any(stops[:-1]) and stops[-1] == fit.converged
    assert fit.converged or fit.iters == cfg.max_iters


def _c_and_python(monkeypatch, fit, args, kwargs):
    """One fit by the compiled loop and by its Python mirror."""
    c = fit(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_kernel", lambda: None)
        return c, fit(*args, **kwargs)


def _assert_same_fit(c, py, where):
    """The two loops return the same bits: iterate, trace, record, df and
    final envelope variables."""
    assert c.beta.tobytes() == py.beta.tobytes(), where
    assert c.trace.tobytes() == py.trace.tobytes(), where
    assert (c.objective, c.iters, c.converged, c.df) == (py.objective, py.iters,
                                                         py.converged, py.df), where
    assert c.aux.keys() == py.aux.keys() and c.aux["run"] == py.aux["run"], where
    for name in ("u", "omega", "z", "v"):  # equal up to the sign of a zero
        if name in c.aux:
            assert np.array_equal(c.aux[name], py.aux[name]), where


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
def test_qrtf_c_path_matches_python_path(monkeypatch):
    """The check-loss envelope path, its cold start, dual carried from fit
    to fit, capped inner solves and maps that rise included, returns the
    same bits from the C loop and from its Python mirror."""
    from envopt.applications import simulate

    rng = np.random.Generator(np.random.PCG64(1601))
    cases = []
    for i in range(12):
        k = i % 3
        y = simulate("qrtf", int(rng.integers(k + 8, 90)), seed=i).y
        lams = np.sort(10.0 ** rng.uniform(-1, 3, size=3))[::-1]
        if i % 4 == 3:
            lams[-1] = 0.0
        cfg = SolverConfig(max_iters=(2, 7, 40)[i % 3], tol=1e-9,
                           inner_max_iters=(5, 2000)[i % 2], inner_tol=1e-9)
        cases.append((y, lams, cfg, float(rng.uniform(0.1, 0.9)), k))
    # plain maps only, the second of which rises
    cases.append((simulate("qrtf", 200, seed=7).y, np.array([10.0]),
                  SolverConfig(max_iters=2, inner_max_iters=50), 0.9, 2))
    c_paths = [solvers.envelope_fused_lasso_path("check", y, None, 1.0, lams, None, cfg,
                                                 q=q, k=k)
               for y, lams, cfg, q, k in cases]
    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    records = []
    for (y, lams, cfg, q, k), c_path in zip(cases, c_paths):
        py_path = solvers.envelope_fused_lasso_path("check", y, None, 1.0, lams, None, cfg,
                                                    q=q, k=k)
        for c, py in zip(c_path, py_path):
            _assert_same_fit(c, py, (y.size, k, cfg.max_iters, c.iters))
            records.append(c.aux["run"])
    assert sum(r["capped"] > 0 for r in records) >= 5
    assert sum(r["rises"] > 0 for r in records) >= 3


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
def test_envelope_mm_c_loop_matches_mm_driver(monkeypatch):
    # the Python mirror repeats the C loop's arithmetic map for map, so
    # whole runs agree to the bit, SQUAREM's steplength and accept test
    # included
    rng = np.random.Generator(np.random.PCG64(1205))
    cases = list(_envelope_instances(rng, 120))
    c_fits = []
    for fit, args, kwargs in cases:
        c, py = _c_and_python(monkeypatch, fit, args, kwargs)
        where = (fit.__name__, args[0].size, kwargs["init"] is None, c.iters, py.iters)
        _assert_same_fit(c, py, where)
        _assert_run_record(c, kwargs["cfg"])
        c_fits.append(c)
    assert {c.iters for c in c_fits} >= {3, 40}  # capped runs of both budgets
    assert sum(c.converged for c in c_fits) >= 60
    assert sum(c.aux["run"]["rejected"] > 0 for c in c_fits) >= 10


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_envelope_mm_rejects_extrapolation_that_rises(monkeypatch, python):
    from envopt.applications import fit_rfl, simulate

    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    y = simulate("rfl", 30, seed=5).y
    cfg = SolverConfig()
    fit = fit_rfl(y, 5.0, cfg=cfg)
    # extrapolated maps that would raise the objective are dropped, and
    # their steps end at the plain value
    assert fit.aux["run"]["rejected"] > 0
    assert _non_increasing(fit.trace)
    _assert_run_record(fit, cfg)


def test_envelope_mm_trace_owns_its_memory():
    y = np.array([2.0, 5.0, 1.0, 4.0])
    cfg = SolverConfig(max_iters=1000)
    fit = logistic_fused_lasso(y, 6.0, 0.5, cfg=cfg)
    assert fit.trace.base is None and fit.trace.shape == (fit.iters + 1,)


def _rfl(y, u, init=None):
    from envopt.applications import fit_rfl
    return fit_rfl(y, u, init=init)


_ENVELOPE_BAD = [
    (logistic_fused_lasso, ([1.0, np.nan], 3.0, 1.0), {}, "finite"),
    (logistic_fused_lasso, ([1.0, 4.0], 3.0, 1.0), {}, "need 0 <= y <= m"),
    (logistic_fused_lasso, ([-1.0, 2.0], 3.0, 1.0), {}, "need 0 <= y <= m"),
    (logistic_fused_lasso, ([0.0, 0.0], 0.0, 1.0), {}, "m must be positive"),
    (logistic_fused_lasso, ([0.0, 0.0], -2.0, 1.0), {}, "need 0 <= y <= m"),
    (logistic_fused_lasso, ([0.0, 0.0], [1.0, np.nan], 1.0), {}, "m must be positive"),
    (logistic_fused_lasso, ([1.0, 2.0], 3.0, -1.0), {}, "nonnegative"),
    (logistic_fused_lasso, ([1.0, 2.0], 3.0, np.nan), {}, "finite"),
    (logistic_fused_lasso, ([1.0, 2.0], 3.0, np.inf), {}, "finite"),
    (logistic_fused_lasso, (np.ones(4), 2.0, [1.0, 2.0]), {}, "vector of length 3"),
    (logistic_fused_lasso, ([1.0, 2.0], 3.0, 1.0), {"init": [0.0]}, "length 2"),
    (logistic_fused_lasso, ([1.0, 2.0], 3.0, 1.0), {"init": [0.0, np.nan]}, "finite"),
    (_rfl, ([1.0, np.nan, 2.0], 1.0), {}, "finite"),
    (_rfl, ([1.0, 2.0, 2.0], -1.0), {}, "lam must be nonnegative"),
    (_rfl, ([1.0, 2.0, 2.0], np.nan), {}, "finite"),
    (_rfl, ([1.0, 2.0, 2.0], np.inf), {}, "finite"),
    (_rfl, ([1.0, 2.0, 2.0], 1.0), {"init": [0.0, 0.0]}, "length 3"),
    (_rfl, ([1.0, 2.0, 2.0], 1.0), {"init": [0.0, np.inf, 0.0]}, "finite"),
]


@pytest.mark.parametrize("python", [False, True], ids=["default", "python"])
def test_envelope_mm_rejects_bad_input_before_any_work(monkeypatch, python):
    from envopt import applications

    if python:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (solvers, applications):
            for loop in ("mm_driver", "envelope_fused_lasso_mm", "envelope_fused_lasso_path"):
                mp.setattr(module, loop, lambda *args: calls.append(args))
        for fit, args, kwargs, msg in _ENVELOPE_BAD:
            with pytest.raises(ValidationError, match=msg):
                fit(*args, **kwargs)
    assert calls == []
    # starts so far out that the objective overflows are caught in the loop
    with np.errstate(all="ignore"):
        with pytest.raises(ValidationError, match="not finite"):
            _rfl(np.array([1e308, 0.0, 0.0]), 1.0, init=np.array([-1e308, 0.0, 0.0]))
        with pytest.raises(ValidationError, match="not finite"):
            logistic_fused_lasso([3.0, 5.0], 10.0, 1.0, init=[1e308, 0.0])


class _FakeKernel:
    """Stands in for the compiled library, with the signature of
    ``envelope_fused_lasso_path``.  Fit l with first edge weight
    ``w = lams[l] * u[0]`` at least 1 returns its start after no map; the
    first fit with ``w < 1`` stops the path with ``status`` and the
    objectives ``w -> 2 w`` in its info row."""

    def __init__(self, status):
        self.status = status

    def envelope_fused_lasso_path(self, envelope, y, m, u, lams, fits, a, n, tol,
                                  max_iters, beta, trace, envvar, info, check):
        import ctypes

        def doubles(address, count):
            return (ctypes.c_double * count).from_address(address)

        width = solvers._INFO
        rows, out = doubles(beta, fits * n), doubles(info, width * fits + 1)
        for l in range(fits):
            w = doubles(lams, fits)[l] * doubles(u, 1)[0]
            rows[l * n:(l + 1) * n] = rows[:n]
            doubles(trace, fits)[l] = 0.0  # the fits before l ran no map
            out[width * fits] = l
            row = [1.0, 0.0, w, 2.0 * w] if w < 1.0 else [0.0, 1.0, 0.0, 0.0]
            out[width * l:width * (l + 1)] = row + [1.0] + [0.0] * (width - 5)
            if w < 1.0:
                return self.status
        return 0


def test_envelope_mm_kernel_status_is_raised(monkeypatch):
    from envopt.applications import (AppSpec, fit_fdp, fit_rfl, fused_lasso_gaussian,
                                     kfold_cv, solution_path)

    y = np.array([1.0, 3.0, 2.0])
    for status, error in ((1, MemoryError), (2, ValidationError), (3, MonotonicityError)):
        monkeypatch.setattr(solvers, "_kernel", lambda: _FakeKernel(status))
        with pytest.raises(error) as logit_err:
            logistic_fused_lasso(y, 4.0, 0.5)
        with pytest.raises(error) as rfl_err:
            _rfl(y, 0.5)
        with pytest.raises(error) as fdp_err:
            fit_fdp(y, 4.0, 0.5, init=np.zeros(3))
        if status < 3:  # the one-solve squared loss has no rise to report
            with pytest.raises(error):
                fused_lasso_gaussian(y, 0.5)
        # a path stops at its first failing fit (lam = 0.5) with the error
        # that the chain of single fits raises at that lam
        y6, lams = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 0.0]), np.array([4.0, 2.0, 0.5, 0.25])
        with pytest.raises(error) as path_err:
            solution_path(AppSpec("rfl"), y6, lams)
        with pytest.raises(error) as cv_err:
            kfold_cv(AppSpec("rfl"), y6, lams, K=2)
        with pytest.raises(error) as chain_err:
            init = None
            for lam in lams:
                init = fit_rfl(y6, lam, init=init).beta
        for err in (path_err, cv_err):
            assert str(err.value) == str(chain_err.value)
    # named as the Python mirror names the solve of the same loop
    assert (logit_err.value.step, rfl_err.value.step, fdp_err.value.step) == (
        "polya_gamma_fused_lasso", "fused_lasso", "log_penalty_fused_lasso")
    assert (logit_err.value.before, logit_err.value.after) == (0.5, 1.0)
    assert (path_err.value.before, path_err.value.after) == (0.5, 1.0)


def _envelope_edge_instances(rng, count):
    """Inputs of the four fused-lasso envelope fits, as ``(y, lam, counts,
    m)``: n = 2 in a quarter of them, ties in half, lam = 0 or a penalty
    far above the data's spread (a flat fit) in two fifths."""
    for i in range(count):
        n = 2 if i % 4 == 0 else int(rng.integers(3, 60))
        y = rng.normal(scale=3.0, size=n)
        if i % 2:
            y = np.round(y)  # ties
        lam = (0.0, 1e6)[i % 5] if i % 5 < 2 else float(10.0 ** rng.uniform(-2, 2))
        m = rng.integers(1, 30, size=n).astype(float)
        counts = rng.binomial(m.astype(int), rng.uniform(0.05, 0.95)).astype(float)
        yield y, lam, counts, m


def _four_fits(y, lam, counts, m):
    from envopt.applications import fit_rfl, fused_lasso_gaussian

    cfg = SolverConfig(max_iters=2000)
    return (fit_rfl(y, lam, cfg=cfg), fused_lasso_gaussian(y, lam),
            _logit_fit(counts, m, lam, cfg), _fdp_fit(counts, m, lam, cfg))


def test_envelope_fits_return_df_and_final_shift():
    from envopt.losses import location_envelope_update

    rng = np.random.Generator(np.random.PCG64(909))
    flat = 0
    cfg = SolverConfig(max_iters=2000)
    for y, lam, counts, m in _envelope_edge_instances(rng, 150):
        n = y.size
        rfl, gauss, logit, fdp = _four_fits(y, lam, counts, m)
        for fit in (rfl, gauss, logit, fdp):
            assert fit.df == distinct_levels(fit.beta), (n, lam)
        for fit in (rfl, logit, fdp) if lam > 0 else (rfl, logit):
            _assert_run_record(fit, cfg)
        # equal up to the sign of a zero shift
        assert np.array_equal(rfl.aux["u"],
                              location_envelope_update(LossSpec("huber", y=y), rfl.beta))
        assert np.array_equal(fdp.aux["u"], lam / (1.0 + np.abs(np.diff(fdp.beta))))
        assert np.array_equal(gauss.beta,
                              weighted_fused_lasso(y, np.ones(n), np.full(n - 1, lam)))
        ref = 0.5 * np.sum((y - gauss.beta) ** 2) + lam * np.sum(np.abs(np.diff(gauss.beta)))
        assert abs(gauss.objective - ref) <= 1e-13 * abs(ref), (n, lam)
        assert (gauss.iters, gauss.converged) == (1, True)
        assert gauss.trace.tolist() == [gauss.objective]
        flat += n > 2 and rfl.df == gauss.df == logit.df == fdp.df == 1
    assert flat >= 10


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
def test_envelope_fits_same_record_without_kernel(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(910))
    cases = list(_envelope_edge_instances(rng, 60))
    c_fits = [_four_fits(*case) for case in cases]
    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    for case, fits in zip(cases, c_fits):
        for c, py in zip(fits, _four_fits(*case)):
            _assert_same_fit(c, py, (case[0].size, case[1], c.iters))


def test_level_and_knot_counting():
    assert distinct_levels(np.array([1.0, 1.0, 2.0, 2.0, 2.0])) == 2
    assert distinct_levels(np.array([5.0])) == 1
    assert count_knots(np.array([0.0, 0.0, 1.0, 2.0, 3.0]), 1) == 1


_CC = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)


@pytest.mark.skipif(_CC is None, reason="no C compiler here")
def test_kernel_source_compiles_without_warnings(tmp_path):
    src = Path(solvers.__file__).with_name("_fldp.c")
    proc = subprocess.run([_CC, "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror", "-c",
                           str(src), "-o", str(tmp_path / "fldp.o")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
