"""The workloads: inputs, one timed unit, and the output checks.

Four parts (rfl, fdp, qrtf CV through the CLI, the check suites) are
paired into the two workloads a run can name, ``fused-paths`` and
``cli``.  Each part makes a fixed panel of inputs when it is constructed
and times one unit per panel entry per round.  The panel does not depend on the run
seed, because the cost of a unit depends strongly on its data (an rfl
path takes 1.2 s on one dataset and 2.0 s on another); the seed only
rotates the order in which the panel is timed.  Every call into envopt
goes through a module attribute at call time, so the tracer's wrappers
see it.

``keep(out)`` turns a unit's return value into what ``inspect`` reads,
outside the timed region.  ``inspect(out)`` runs after the timed loop on
one unit's output and returns ``(ops, problems)``: one record
``(label, value, tol, ok)`` per op, where an op fails when its output
misses the independent oracle, and a list of problems (a wrong reported
objective, a broken selection rule, a non-monotone trace), any of which
makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

import numpy as np

import oracles

# Certificate residual allowed to a fit, as a multiple of lam.  The MM
# fits stop on a relative objective change of 1e-8; their residuals
# reach 2.1e-3 (rfl) and 1.3e-3 (fdp), while two MM cycles leave 0.39
# or more (rfl) and 0.013 or more (fdp).
CERT_TOL = 1e-2
# The squared-loss comparator is one exact DP call.
EXACT_TOL = 1e-8
# Relative excess over the HiGHS optimum allowed to a qrtf path fit.
QRTF_GAP = 1e-4
COVERAGE_TOL = 0.05


def _rotate(panel, seed):
    k = seed % len(panel)
    return panel[k:] + panel[:k]


def _quiet(fn, *args):
    """Call ``fn`` with the CLI's progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    """Defaults shared by the workloads."""

    gap_max = 0.0  # largest relative LP gap of an inspected qrtf fit

    def keep(self, out):
        return out

    def artifact_bytes(self, kept):
        return 0

    def check(self, kept):
        """``(ops, failed, problems)`` of one unit's output."""
        ops, problems = self.inspect(kept)
        return len(ops), sum(not ok for *_, ok in ops), problems


# A manifest's run timings change width from run to run, and its command
# (the script's path) from checkout to checkout.
_VOLATILE = ((re.compile(rb'"timings": \{[^}]*\}'), b'"timings": {}'),
             (re.compile(rb'"command": "[^"]*"'), b'"command": ""'))


class CliWorkload(Workload):
    """A unit is one ``envopt.cli.main`` call; ``keep`` returns
    ``(exit code, {path: bytes})`` for the files it wrote."""

    def artifact_bytes(self, kept):
        """Bytes written, counting each manifest's timings and command as empty."""
        total = 0
        for data in kept[1].values():
            for pattern, empty in _VOLATILE:
                data = pattern.sub(empty, data)
            total += len(data)
        return total


def _op(label, value, tol):
    return label, float(value), tol, bool(value <= tol)


class RflPath(Workload):
    """Criterion 5 traffic: an AIC path of the Huber fused lasso plus the
    squared-loss comparator over the same 100-point grid (n = 250)."""

    n = 250
    panel_seeds = (1, 2, 3, 4)
    lambdas = np.geomspace(300.0, 1.0, 100)

    def __init__(self, seed, workdir):
        from envopt import applications
        self.app = applications
        self.panel = _rotate(
            [applications.simulate("rfl", self.n, s).y for s in self.panel_seeds], seed)

    def units(self):
        return [lambda y=y: self.unit(y) for y in self.panel]

    def unit(self, y):
        app = self.app
        path = app.solution_path(app.AppSpec("rfl"), y, self.lambdas, criterion="aic")
        comparator = [app.fused_lasso_gaussian(y, lam) for lam in self.lambdas]
        return y, path, comparator

    def inspect(self, out):
        y, path, comparator = out
        ops, problems = [], []
        if path.selected != int(np.argmin(path.criterion_values)):
            problems.append("rfl: selected index is not the first AIC minimum")
        for lam, fit, comp in zip(self.lambdas, path.fits, comparator):
            ops.append(_op(f"rfl lam={lam:.6g} certificate/lam",
                           oracles.rfl_certificate(y, fit.beta, lam), CERT_TOL))
            ops.append(_op(f"fused lasso lam={lam:.6g} certificate/lam",
                           oracles.gaussian_fl_certificate(y, comp.beta, lam), EXACT_TOL))
            if not oracles.objective_matches(fit.objective,
                                             oracles.rfl_objective(y, fit.beta, lam)):
                problems.append(f"rfl: objective at lam={lam:.6g} does not match beta")
            if not oracles.objective_matches(
                    comp.objective, oracles.gaussian_fl_objective(y, comp.beta, lam)):
                problems.append(f"fused lasso: objective at lam={lam:.6g} does not match beta")
        return ops, problems


class FdpPath(Workload):
    """Criterion 7 traffic, on a shorter grid: an AIC path of the fused
    double-Pareto logit with fused-lasso initialisation (n = 500, m = 25,
    a = 1, five lam from 300 down to 12)."""

    n = 500
    m = 25
    a = 1.0
    panel_seeds = (1, 2)
    lambdas = np.geomspace(300.0, 12.0, 5)

    def __init__(self, seed, workdir):
        from envopt import applications
        self.app = applications
        data = [applications.simulate("fdp", self.n, s, m=self.m) for s in self.panel_seeds]
        self.panel = _rotate([(d.y, d.m) for d in data], seed)

    def units(self):
        return [lambda d=d: self.unit(*d) for d in self.panel]

    def unit(self, y, m):
        app = self.app
        path = app.solution_path(app.AppSpec("fdp", a=self.a), y, self.lambdas, m=m,
                                 criterion="aic")
        return y, m, path

    def inspect(self, out):
        y, m, path = out
        ops, problems = [], []
        if path.selected != int(np.argmin(path.criterion_values)):
            problems.append("fdp: selected index is not the first AIC minimum")
        for lam, fit in zip(self.lambdas, path.fits):
            ops.append(_op(f"fdp lam={lam:.6g} certificate/lam",
                           oracles.fdp_certificate(y, m, fit.beta, lam, self.a), CERT_TOL))
            if not oracles.objective_matches(
                    fit.objective, oracles.fdp_objective(y, m, fit.beta, lam, self.a)):
                problems.append(f"fdp: objective at lam={lam:.6g} does not match beta")
            if not oracles.non_increasing(fit.trace):
                problems.append(f"fdp: trace increases at lam={lam:.6g}")
        return ops, problems


class QrtfCv(CliWorkload):
    """``envopt path --app qrtf --criterion cv`` in-process on a CSV written
    by ``envopt simulate`` (n = 300, seed 7, q = 0.9, k = 2), with the
    solver flags of criterion 6 and four lam from 1e5 down to 1e-1."""

    n = 300
    data_seed = 7
    q = 0.9
    k = 2
    grid = "logspace:-1:5:4"
    flags = ["--max-iters", "40", "--tol", "1e-5",
             "--inner-max-iters", "300", "--inner-tol", "1e-7"]

    def __init__(self, seed, workdir):
        from envopt import cli
        self.cli = cli
        self.csv = os.path.join(workdir, "qrtf.csv")
        self.out = os.path.join(workdir, "path.json")
        rc = _quiet(cli.main, ["simulate", "--app", "qrtf", "--n", str(self.n),
                               "--seed", str(self.data_seed), "--out", self.csv])
        if rc != 0:
            raise RuntimeError(f"envopt simulate exited {rc}")
        self.y = np.loadtxt(self.csv, delimiter=",", skiprows=1, usecols=1)
        self._lp = {}

    def units(self):
        return [self.unit]

    def unit(self):
        return _quiet(self.cli.main, [
            "path", "--app", "qrtf", "--data", self.csv, "--lambdas", self.grid,
            "--criterion", "cv", "--folds", "5", "--q", str(self.q), "--k", str(self.k),
            *self.flags, "--out", self.out])

    def keep(self, rc):
        stem = os.path.splitext(self.out)[0]
        paths = [self.out, stem + "_selected.csv", stem + "_selected.csv.manifest.json"]
        return rc, {p: Path(p).read_bytes() for p in paths if os.path.exists(p)}

    def lp_optimum(self, lam):
        if lam not in self._lp:
            self._lp[lam] = oracles.qrtf_lp(self.y, self.q, self.k, lam)[0]
        return self._lp[lam]

    def inspect(self, out):
        rc, files = out
        if rc != 0 or self.out not in files:
            return [("envopt path exit code", rc, 0, False)], [f"qrtf: envopt path exited {rc}"]
        art = json.loads(files[self.out])
        y = self.y
        ops, problems = [], []
        lams = np.asarray(art["lambdas"])
        sel = art["selected"]
        if sel != int(np.argmin(art["criterion_values"])):
            problems.append("qrtf: selected index is not the first CV minimum")
        if not 0 < sel < len(lams) - 1:
            problems.append(f"qrtf: selected lam {lams[sel]:.6g} is not interior")
        for rec in art["fits"]:
            lam, beta = rec["lambda"], np.asarray(rec["beta"])
            obj = oracles.qrtf_objective(y, beta, self.q, self.k, lam)
            if not oracles.objective_matches(rec["objective"], obj, rtol=1e-9):
                problems.append(f"qrtf: objective at lam={lam:.6g} does not match beta")
            gap = oracles.relative_gap(rec["objective"], self.lp_optimum(lam))
            self.gap_max = max(self.gap_max, gap)
            ops.append(_op(f"qrtf lam={lam:.6g} gap to LP optimum", gap, QRTF_GAP))
        coverage = float(np.mean(y < np.asarray(art["fits"][sel]["beta"])))
        if abs(coverage - self.q) > COVERAGE_TOL:
            problems.append(f"qrtf: coverage {coverage:.3f} is not near q={self.q}")
        return ops, problems


class CheckSuites(CliWorkload):
    """``envopt check --suite all`` in-process; one op is one report row."""

    rows = 24

    def __init__(self, seed, workdir):
        from envopt import cli
        self.cli = cli
        self.out = os.path.join(workdir, "report.json")

    def units(self):
        return [self.unit]

    def unit(self):
        return _quiet(self.cli.main, ["check", "--suite", "all", "--out", self.out])

    def keep(self, rc):
        return rc, ({self.out: Path(self.out).read_bytes()} if os.path.exists(self.out) else {})

    def inspect(self, out):
        rc, files = out
        problems = [] if rc == 0 else [f"check: envopt check exited {rc}"]
        if self.out not in files:
            return [("report", 1, 0, False)] * self.rows, problems + ["check: no report"]
        rows = json.loads(files[self.out])["results"]
        if len(rows) != self.rows:
            problems.append(f"check: {len(rows)} rows, expected {self.rows}")
        ops = []
        for row in rows:
            ok = (row["max_gap"] <= row["tol"] and row.get("lambda_agrees", True)
                  and row.get("failures", 0) == 0)
            ops.append((row["name"], float(row["max_gap"]), row["tol"], ok))
            if ok != row["passed"]:
                problems.append(f"check: row {row['name']!r} reports "
                                f"passed={row['passed']}, recomputed {ok}")
        return ops, problems


class Combined(Workload):
    """One round runs a round of each part in turn; each kept output is
    tagged with its part, which checks it."""

    parts = ()

    def __init__(self, seed, workdir):
        self.members = [part(seed, workdir) for part in self.parts]

    def units(self):
        return [lambda m=m, u=u: (m, u()) for m in self.members for u in m.units()]

    def unit_parts(self):
        """The part of each unit, in the order of ``units()``."""
        return [type(m).__name__ for m in self.members for _ in m.units()]

    def keep(self, out):
        member, raw = out
        return member, member.keep(raw)

    def inspect(self, kept):
        member, out = kept
        return member.inspect(out)

    def artifact_bytes(self, kept):
        member, out = kept
        return member.artifact_bytes(out)

    @property
    def gap_max(self):
        return max(m.gap_max for m in self.members)


class FusedPaths(Combined):
    """The DP-bound estimators: a round of the rfl part then one of the fdp part."""

    name = "fused-paths"
    parts = (RflPath, FdpPath)


class CliPaths(Combined):
    """The CLI: a round of the qrtf part then one of the check part."""

    name = "cli"
    parts = (QrtfCv, CheckSuites)


WORKLOADS = {w.name: w for w in (FusedPaths, CliPaths)}
