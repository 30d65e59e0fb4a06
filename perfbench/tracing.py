"""Per-layer tracing from outside the program.

The tracer replaces a public function of a layer with a timing wrapper
at every place that binds it: each ``envopt`` module attribute, and each
module-level dict value (``checks.SUITES``), that holds the function.
It keeps call counts, busy seconds and layer-specific counts in memory,
records a span (name, start, end, parent) for the coarse layers, and
restores every binding on exit.  Nothing inside ``envopt`` changes.

Two bindings of ``mm_driver`` are told apart on purpose:
``envopt.applications.mm_driver`` is the outer MM loop of the three
estimators and ``envopt.solvers.mm_driver`` is the inner binomial MM of
``logistic_fused_lasso``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

ESTIMATORS = ("fit_rfl", "fused_lasso_gaussian", "fit_fdp",
              "binomial_fused_lasso", "fit_qrtf")
SUITES = ("envelope", "conjugate", "prox", "solver")
# Units of the per-layer metrics that are times, scaled to reference seconds.
TIME_UNITS = ("s", "ms", "us", "ns")

# (metric prefix, defining module, attribute, binding site or None for
# every binding, record a span)
LAYERS = [
    ("solvers.weighted_fused_lasso", "envopt.solvers", "weighted_fused_lasso", None, False),
    ("solvers.cho_solve_banded", "envopt.solvers", "cho_solve_banded", None, False),
    ("solvers.cholesky_banded", "envopt.solvers", "cholesky_banded", None, False),
    ("solvers.weighted_trend_filter", "envopt.solvers", "weighted_trend_filter", None, True),
    ("solvers.logistic_fused_lasso", "envopt.solvers", "logistic_fused_lasso", None, True),
    ("solvers.mm_driver", "envopt.solvers", "mm_driver", "envopt.solvers", False),
    ("applications.mm_driver", "envopt.solvers", "mm_driver", "envopt.applications", True),
    ("losses.location_envelope_update", "envopt.losses", "location_envelope_update", None, False),
    ("losses.variance_mean_update", "envopt.losses", "variance_mean_update", None, False),
    ("losses.loss_value", "envopt.losses", "loss_value", None, False),
    ("operators.diff_matrix", "envopt.operators", "diff_matrix", None, False),
    *[(f"applications.{f}", "envopt.applications", f, None, True) for f in ESTIMATORS],
    ("applications.solution_path", "envopt.applications", "solution_path", None, True),
    ("applications.kfold_cv", "envopt.applications", "kfold_cv", None, True),
    ("cli.main", "envopt.cli", "main", None, True),
    ("checks.run_suite", "envopt.checks", "run_suite", None, True),
    *[(f"checks.{s}_suite", "envopt.checks", f"{s}_suite", None, True) for s in SUITES],
    ("duality.check_envelope_identity", "envopt.duality", "check_envelope_identity", None, False),
    ("duality.conjugate_numeric", "envopt.duality", "conjugate_numeric", None, False),
    ("duality.conjugate_numeric_rowwise", "envopt.duality", "conjugate_numeric_rowwise", None, False),
    ("penalties.prox", "envopt.penalties", "prox", None, False),
]

# Per-round counts; each must repeat exactly from round to round.
COUNT_KEYS = [f"{name}.calls" for name, *_ in LAYERS] + [
    "solvers.weighted_fused_lasso.elems",
    "solvers.weighted_trend_filter.admm_iters",
    "solvers.weighted_trend_filter.converged",
    "solvers.mm_driver.cycles",
    "applications.mm_driver.cycles",
    "applications.unconverged",
    "applications.kfold_cv.fits",
]


def _bindings(attr, fn, site):
    """Every (namespace dict, key) in envopt that holds ``fn``."""
    if site is not None:
        return [(vars(sys.modules[site]), attr)]
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "envopt" and not name.startswith("envopt."):
            continue
        ns = vars(mod)
        for key, value in list(ns.items()):
            if value is fn:
                found.append((ns, key))
            elif isinstance(value, dict) and not key.startswith("__"):
                found.extend((value, k) for k, v in value.items() if v is fn)
    return found


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.counts``/``t.secs``."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.secs = defaultdict(float)
        self.fit_ms = []
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        # import every traced module first, so that no binding is missed
        for _, module_name, *_ in LAYERS:
            importlib.import_module(module_name)
        for name, module_name, attr, site, span in LAYERS:
            fn = vars(sys.modules[site or module_name])[attr]
            wrapped = self._wrap(name, fn, span)
            for ns, key in _bindings(attr, fn, site):
                self._restore.append((ns, key, ns[key]))
                ns[key] = wrapped
        return self

    def __exit__(self, *exc):
        for ns, key, original in reversed(self._restore):
            ns[key] = original
        self._restore.clear()
        return False

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, name, fn, span):
        short = name.split(".", 1)[1]
        is_fit = name.startswith("applications.") and short in ESTIMATORS
        is_tf = name == "solvers.weighted_trend_filter"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if is_tf:
                # A fresh dict is what the solver makes itself when given
                # none; passing one lets the tracer read iters/converged.
                if len(args) > 5:
                    if args[5] is None:
                        args = (*args[:5], {}, *args[6:])
                    state = args[5]
                else:
                    state = kwargs.get("state")
                    if state is None:
                        state = kwargs["state"] = {}
            outer = tracer._depth[name] == 0
            outer_fit = is_fit and tracer._depth["fit"] == 0
            tracer._depth[name] += 1
            tracer._depth["fit"] += is_fit
            parent = tracer._stack[-1] if tracer._stack else -1
            if span:
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append([name, 0.0, 0.0, parent])
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._depth[name] -= 1
                tracer._depth["fit"] -= is_fit
                if span:
                    rec = tracer.spans[tracer._stack.pop()]
                    rec[1], rec[2] = t0, t1
            tracer.counts[f"{name}.calls"] += 1
            if outer:
                tracer.secs[name] += t1 - t0
            tracer._after(name, short, args, out, state, is_fit, outer_fit, t1 - t0)
            return out

        return wrapper

    def _after(self, name, short, args, out, state, is_fit, outer_fit, dt):
        c = self.counts
        if name == "solvers.weighted_fused_lasso":
            c[f"{name}.elems"] += int(np.shape(args[0])[0])
        elif state is not None:
            c[f"{name}.admm_iters"] += int(state.get("iters", 0))
            c[f"{name}.converged"] += bool(state.get("converged"))
        elif short == "mm_driver":
            c[f"{name}.cycles"] += int(out.iters)
        elif is_fit:
            c["applications.unconverged"] += not out.converged
            if outer_fit:
                self.fit_ms.append(1e3 * dt)
                c["applications.kfold_cv.fits"] += self._depth["applications.kfold_cv"] > 0

    # -- reporting --------------------------------------------------------

    def snapshot(self):
        return {k: self.counts[k] for k in COUNT_KEYS}

    def self_seconds(self, name):
        """Span time of ``name`` minus the time its child spans cover."""
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return sum(t1 - t0 - child[i] for i, (n, t0, t1, _) in enumerate(self.spans)
                   if n == name)


def wrapper_cost(repeats=20000):
    """Seconds one traced call adds, measured on a no-op function."""
    def noop(x):
        return x

    tracer = Tracer()
    wrapped = tracer._wrap("bench.noop", noop, False)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(repeats):
            noop(i)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(repeats):
            wrapped(i)
        best = min(best, (time.perf_counter() - t0 - bare) / repeats)
    return max(best, 0.0)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, rounds, wall_s, scale, gap_max, artifact_bytes):
    """Per-layer metrics for one traced run, counts and seconds per round.

    ``wall_s`` are the traced wall times of the run's units, and ``scale``
    the run's ratio of reference to wall seconds, by which every per-layer
    time is scaled.  A layer that did not run reads 0, as do ratios over
    it and a percentile without enough fits.
    """
    c = {k: v / rounds for k, v in tracer.counts.items()}
    s = {k: v / rounds for k, v in tracer.secs.items()}
    out = {}

    def put(name, value, unit):
        if unit in TIME_UNITS:
            value *= scale
        out[name] = {"value": float(value), "unit": unit}

    def calls_s(name):
        put(f"{name}.calls", c.get(f"{name}.calls", 0), "count")
        put(f"{name}.s", s.get(name, 0.0), "s")

    dp = "solvers.weighted_fused_lasso"
    calls_s(dp)
    put(f"{dp}.elems", c.get(f"{dp}.elems", 0), "count")
    put(f"{dp}.ns_per_elem", _ratio(s.get(dp, 0.0), c.get(f"{dp}.elems", 0), 1e9), "ns")
    calls_s("solvers.cho_solve_banded")
    put("solvers.cholesky_banded.calls", c.get("solvers.cholesky_banded.calls", 0), "count")
    tf = "solvers.weighted_trend_filter"
    calls_s(tf)
    iters = c.get(f"{tf}.admm_iters", 0)
    calls = c.get(f"{tf}.calls", 0)
    put(f"{tf}.admm_iters", iters, "count")
    put(f"{tf}.capped", calls - c.get(f"{tf}.converged", 0), "count")
    put(f"{tf}.converged_ratio", _ratio(c.get(f"{tf}.converged", 0), calls), "ratio")
    put(f"{tf}.us_per_iter", _ratio(s.get(tf, 0.0), iters, 1e6), "us")
    calls_s("solvers.logistic_fused_lasso")
    put("solvers.logistic_fused_lasso.mm_cycles", c.get("solvers.mm_driver.cycles", 0), "count")
    calls_s("applications.mm_driver")
    put("applications.mm_driver.cycles", c.get("applications.mm_driver.cycles", 0), "count")
    for name in ("losses.location_envelope_update", "losses.variance_mean_update",
                 "losses.loss_value", "operators.diff_matrix"):
        calls_s(name)
    for f in ESTIMATORS:
        calls_s(f"applications.{f}")
    fits = np.asarray(tracer.fit_ms)
    put("applications.fit_ms_p50", np.median(fits) if fits.size else 0.0, "ms")
    # a 99th percentile with fewer than ten fits beyond it is no tail
    put("applications.fit_ms_p99", np.percentile(fits, 99) if fits.size >= 1000 else 0.0, "ms")
    put("applications.unconverged", c.get("applications.unconverged", 0), "count")
    put("applications.fit_qrtf.gap_max", gap_max, "ratio")
    put("applications.solution_path.s", s.get("applications.solution_path", 0.0), "s")
    put("applications.kfold_cv.s", s.get("applications.kfold_cv", 0.0), "s")
    put("applications.kfold_cv.fits", c.get("applications.kfold_cv.fits", 0), "count")
    put("cli.main.s", s.get("cli.main", 0.0), "s")
    put("cli.self_s", tracer.self_seconds("cli.main") / rounds, "s")
    put("cli.artifact_bytes", artifact_bytes / rounds, "bytes")
    for suite in SUITES:
        put(f"checks.{suite}_suite.s", s.get(f"checks.{suite}_suite", 0.0), "s")
    for name in ("duality.check_envelope_identity", "duality.conjugate_numeric",
                 "duality.conjugate_numeric_rowwise", "penalties.prox"):
        calls_s(name)
    wrapped_calls = sum(v for k, v in c.items() if k.endswith(".calls"))
    put("trace.overhead_pct",
        _ratio(wrapped_calls * wrapper_cost(), sum(wall_s) / rounds, 100.0), "%")
    put("trace.host_scale", scale, "ratio")
    return out
