"""Command-line front end: simulate, fit, path, and check.

CSV schemas (exact headers) come from ``envopt.applications``:

  simulate       -> the ``Dataset`` columns in order: x, y, m (fdp), truths.
  fit/path input -> ``APP_TABLE[app].columns``, which must be numeric,
                    plus any other distinct columns (such as the
                    simulator truth): numeric ones are carried along,
                    the rest (ids, labels) are skipped.
  path selected  -> x,y,fitted and, when ``APP_TABLE[app].truth`` finds
                    it in the input, truth.

Numbers are written with 17 significant digits so values round-trip
bit-exactly.  Fit and path artifacts are JSON (they carry variable-length
traces); every output embeds or sits next to a run manifest.  Exit codes:
0 success, 2 validation failure, 3 I/O failure, 4 convergence failure
under --strict.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, solvers
from .applications import (
    APP_TABLE,
    APPS,
    AppSpec,
    aic,
    app_loss,
    simulate,
    solution_path,
)
from .checks import run_suite
from .errors import ConvergenceError, EnvoptError, ValidationError, _lambda_grid
from .solvers import SolverConfig

__all__ = ["main", "RunManifest"]


@dataclass
class RunManifest:
    """Provenance block attached to every output file.

    ``to_dict`` also records which implementation of the compiled loops
    (the fused-lasso DP, the trend filter and the envelope loop around
    them) ran, ``"c"`` or ``"python"``, so a fallback to the Python loops
    shows in every artifact.
    """

    command: str
    seed: int | None = None
    config: dict = field(default_factory=dict)
    version: str = __version__
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "version": self.version,
            "timings": self.timings,
            "fused_lasso_kernel": solvers.FUSED_LASSO_KERNEL,
        }


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(path: str, header, columns):
    rows = zip(*columns)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=1) + "\n")


def _read_csv(path: str, required):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        rows = list(reader)
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ValidationError(f"{path}: repeated columns {repeated}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ValidationError(f"{path}: missing columns {missing}")
    data = {}
    for j, name in enumerate(header):
        try:
            data[name] = np.array([float(r[j]) for r in rows])
        except (ValueError, IndexError) as e:
            # extra columns that are not numeric (ids, labels) are skipped
            if name in required:
                raise ValidationError(f"{path}: column {name!r} is not numeric: {e}")
    for name in required:
        if not np.all(np.isfinite(data[name])):
            raise ValidationError(f"{path}: non-finite values in column {name!r}")
    return data


def _parse_lambda_grid(spec: str) -> np.ndarray:
    """`logspace:<lo>:<hi>:<count>` (log10 endpoints) or a comma list,
    under the grid rule of ``errors._lambda_grid``."""
    if spec.startswith("logspace:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValidationError(f"bad grid spec {spec!r}")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ValidationError(f"bad grid spec {spec!r}")
        if count < 1 or not lo < hi:
            raise ValidationError(f"bad grid spec {spec!r}")
        vals = np.logspace(hi, lo, count)  # decreasing
    else:
        try:
            vals = np.array([float(t) for t in spec.split(",") if t.strip() != ""])
        except ValueError:
            raise ValidationError(f"bad lambda list {spec!r}")
    return _lambda_grid(vals)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iters=args.max_iters,
        tol=args.tol,
        inner_max_iters=args.inner_max_iters,
        inner_tol=args.inner_tol,
    )


def _fit_record(app: AppSpec, data, fit, manifest: RunManifest | None) -> dict:
    loss = app_loss(app, data["y"], fit.beta, m=data.get("m"))
    rec = {
        "app": app.app,
        "lambda": app.lam,
        "beta": [float(b) for b in fit.beta],
        "objective": fit.objective,
        "trace": [float(t) for t in fit.trace],
        "iters": fit.iters,
        "converged": fit.converged,
        "df": fit.df,
        "aic": aic(fit, loss),
    }
    if manifest is not None:
        rec["manifest"] = manifest.to_dict()
    rec.update({p: getattr(app, p) for p in APP_TABLE[app.app].params})
    return rec


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    ds = simulate(args.app, args.n, args.seed, m=args.m)
    manifest = RunManifest(
        command=" ".join(sys.argv), seed=args.seed,
        config={"app": args.app, "n": args.n, "m": args.m})
    cols = {"x": ds.x, "y": ds.y}
    if ds.m is not None:
        cols["m"] = ds.m
    cols.update(ds.truth)
    manifest.timings["simulate"] = time.perf_counter() - t0
    _write_csv(args.out, list(cols), list(cols.values()))
    _write_json(args.out + ".manifest.json", manifest.to_dict())
    print(f"wrote {args.out} ({args.n} rows)")
    return 0


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    data = _read_csv(args.data, APP_TABLE[args.app].columns)
    app = AppSpec(args.app, lam=args.lam, q=args.q, k=args.k, a=args.a)
    cfg = _solver_config(args)
    fit = APP_TABLE[app.app].path(app, data["y"], data.get("m"), np.array([app.lam]), cfg)[0]
    manifest = RunManifest(command=" ".join(sys.argv),
                           config={"lam": args.lam, "q": args.q, "k": args.k,
                                   "a": args.a, "tol": cfg.tol,
                                   "max_iters": cfg.max_iters})
    manifest.timings["fit"] = time.perf_counter() - t0
    _write_json(args.out, _fit_record(app, data, fit, manifest))
    print(f"wrote {args.out} (objective {fit.objective:.6g}, df {fit.df}, "
          f"{'converged' if fit.converged else 'NOT converged'})")
    if args.strict and not fit.converged:
        raise ConvergenceError(f"fit did not converge in {fit.iters} iterations")
    return 0


def cmd_path(args) -> int:
    t0 = time.perf_counter()
    data = _read_csv(args.data, APP_TABLE[args.app].columns)
    lambdas = _parse_lambda_grid(args.lambdas)
    app = AppSpec(args.app, lam=float(lambdas[0]), q=args.q, k=args.k, a=args.a)
    cfg = _solver_config(args)
    path = solution_path(app, data["y"], lambdas, m=data.get("m"),
                         criterion=args.criterion, folds=args.folds, cfg=cfg)
    manifest = RunManifest(command=" ".join(sys.argv),
                           config={"lambdas": args.lambdas,
                                   "criterion": args.criterion,
                                   "folds": args.folds})
    manifest.timings["path"] = time.perf_counter() - t0
    records = [_fit_record(app.with_lam(float(lam)), data, fit, None)
               for lam, fit in zip(path.lambdas, path.fits)]
    out = {
        "app": app.app,
        "lambdas": [float(v) for v in path.lambdas],
        "criterion": args.criterion,
        "criterion_values": [float(v) for v in path.criterion_values],
        "selected": path.selected,
        "selected_lambda": path.best_lambda,
        "fits": records,
        "manifest": manifest.to_dict(),
    }
    _write_json(args.out, out)
    sel = path.best_fit
    fit_csv = os.path.splitext(args.out)[0] + "_selected.csv"
    header = ["x", "y", "fitted"]
    cols = [data["x"], data["y"], sel.beta]
    truth = APP_TABLE[app.app].truth(app, data)
    if truth is not None:
        header.append("truth")
        cols.append(truth)
    _write_csv(fit_csv, header, cols)
    _write_json(fit_csv + ".manifest.json", manifest.to_dict())
    print(f"wrote {args.out} and {fit_csv} "
          f"(selected lambda {path.best_lambda:.6g}, index {path.selected})")
    if args.strict and not all(f.converged for f in path.fits):
        raise ConvergenceError("some path fits did not converge")
    return 0


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    results = run_suite(args.suite)
    all_pass = all(r["passed"] for r in results)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        gap = r.get("max_gap")
        extra = f" max_gap={gap:.3e}" if gap is not None else ""
        print(f"[{status}] {r['name']}{extra} (tol {r.get('tol')})")
    manifest = RunManifest(command=" ".join(sys.argv),
                           config={"suite": args.suite})
    manifest.timings["check"] = time.perf_counter() - t0
    if args.out:
        _write_json(args.out, {"suite": args.suite, "results": results,
                               "pass": all_pass,
                               "manifest": manifest.to_dict()})
    print(f"{'all checks passed' if all_pass else 'CHECK FAILURES'} "
          f"in {manifest.timings['check']:.1f}s")
    return 0 if all_pass else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="envopt",
        description="Envelope-representation toolkit: simulate, fit, "
                    "select, and validate.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    defaults = SolverConfig()  # the solver flags default to its fields

    def add_common_fit_args(sp):
        sp.add_argument("--q", type=float, default=0.9,
                        help="target quantile (qrtf)")
        sp.add_argument("--k", type=int, default=2, help="trend order (qrtf)")
        sp.add_argument("--a", type=float, default=1.0,
                        help="log-penalty scale (fdp)")
        sp.add_argument("--tol", type=float, default=defaults.tol)
        sp.add_argument("--max-iters", type=int, default=defaults.max_iters)
        sp.add_argument("--inner-tol", type=float, default=defaults.inner_tol,
                        help="relative slack of the stop test of the inner "
                             "trend-filter solves (qrtf)")
        sp.add_argument("--inner-max-iters", type=int,
                        default=defaults.inner_max_iters,
                        help="iteration cap of the inner trend-filter solves, one "
                             "banded factorization each (qrtf)")
        sp.add_argument("--strict", action="store_true",
                        help="exit 4 when a fit fails to converge")

    sp = sub.add_parser("simulate", help="write a seeded dataset CSV")
    sp.add_argument("--app", required=True, choices=APPS)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--m", type=int, default=None,
                    help="binomial trial count (fdp; default 25)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("fit", help="fit one model, write a JSON artifact")
    sp.add_argument("--app", required=True, choices=APPS)
    sp.add_argument("--data", required=True)
    sp.add_argument("--lam", type=float, required=True)
    sp.add_argument("--out", required=True)
    add_common_fit_args(sp)
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("path", help="warm-started fits over a lambda grid")
    sp.add_argument("--app", required=True, choices=APPS)
    sp.add_argument("--data", required=True)
    sp.add_argument("--lambdas", required=True,
                    help="logspace:<lo>:<hi>:<count> (log10) or a "
                         "decreasing comma list")
    sp.add_argument("--criterion", choices=("aic", "cv"), default="aic")
    sp.add_argument("--folds", type=int, default=5)
    sp.add_argument("--out", required=True)
    add_common_fit_args(sp)
    sp.set_defaults(fn=cmd_path)

    sp = sub.add_parser("check", help="run the validation suites")
    sp.add_argument("--suite", default="all",
                    choices=("envelope", "prox", "conjugate", "solver", "all"))
    sp.add_argument("--out", default=None, help="optional JSON report path")
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except EnvoptError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
