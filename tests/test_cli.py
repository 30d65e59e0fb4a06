import json
import os

import numpy as np

from envopt.cli import _solver_config, build_parser, main
from envopt.solvers import SolverConfig


def run(args):
    return main([str(a) for a in args])


def test_simulate_schema_rfl(tmp_path):
    out = tmp_path / "rfl.csv"
    assert run(["simulate", "--app", "rfl", "--n", 60, "--seed", 1,
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,truth"
    assert len(lines) == 61
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert all(np.isfinite(vals))
    assert os.path.exists(str(out) + ".manifest.json")


def test_simulate_schema_qrtf_and_fdp(tmp_path):
    q = tmp_path / "q.csv"
    assert run(["simulate", "--app", "qrtf", "--n", 50, "--seed", 7,
                "--out", q]) == 0
    assert q.read_text().splitlines()[0] == "x,y,truth_mean,truth_sigma"
    f = tmp_path / "f.csv"
    assert run(["simulate", "--app", "fdp", "--n", 40, "--m", 25,
                "--seed", 3, "--out", f]) == 0
    assert f.read_text().splitlines()[0] == "x,y,m,truth_logodds"


def test_fit_round_trip_bit_exact(tmp_path):
    data = tmp_path / "d.csv"
    run(["simulate", "--app", "rfl", "--n", 80, "--seed", 2, "--out", data])
    out1 = tmp_path / "f1.json"
    out2 = tmp_path / "f2.json"
    assert run(["fit", "--app", "rfl", "--data", data, "--lam", 2.0,
                "--out", out1]) == 0
    assert run(["fit", "--app", "rfl", "--data", data, "--lam", 2.0,
                "--out", out2]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["beta"] == d2["beta"]
    assert d1["objective"] == d2["objective"]
    assert d1["manifest"]["version"]


def test_fit_rfl_zero_lambda_echoes_y(tmp_path):
    data = tmp_path / "d.csv"
    run(["simulate", "--app", "rfl", "--n", 40, "--seed", 4, "--out", data])
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "rfl", "--data", data, "--lam", 0.0,
                "--out", out]) == 0
    d = json.loads(out.read_text())
    y = [float(r.split(",")[1]) for r in
         data.read_text().strip().splitlines()[1:]]
    assert d["beta"] == y


def test_fit_qrtf_df_consistency(tmp_path):
    data = tmp_path / "q.csv"
    run(["simulate", "--app", "qrtf", "--n", 60, "--seed", 5, "--out", data])
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "qrtf", "--data", data, "--lam", 50.0,
                "--q", 0.9, "--k", 2, "--out", out, "--max-iters", 40,
                "--tol", 1e-7, "--inner-max-iters", 8000,
                "--inner-tol", 1e-10]) == 0
    d = json.loads(out.read_text())
    beta = np.array(d["beta"])
    # recompute knots from beta: a tight inner solve resolves the third
    # differences crisply, so the count is stable across the tolerance band
    from envopt.operators import diff_matrix
    D = diff_matrix(len(beta), 2)
    grad3 = np.abs(D.apply(beta))
    scale = max(1.0, float(np.max(np.abs(beta))))
    counts = {int(np.sum(grad3 > t * scale)) for t in (1e-6, 1e-5, 1e-4)}
    assert d["df"] - 3 in counts
    assert d["q"] == 0.9 and d["k"] == 2


def test_fit_qrtf_order_zero_matches_the_estimator(tmp_path):
    # one rule for the qrtf order, k >= 0: the CLI fits k = 0 as fit_qrtf does
    from envopt.applications import fit_qrtf, simulate

    data = tmp_path / "q.csv"
    run(["simulate", "--app", "qrtf", "--n", 40, "--seed", 3, "--out", data])
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "qrtf", "--data", data, "--lam", 2.0,
                "--q", 0.5, "--k", 0, "--out", out]) == 0
    d = json.loads(out.read_text())
    fit = fit_qrtf(simulate("qrtf", 40, 3).y, 0.5, 0, 2.0)
    assert d["k"] == 0 and d["beta"] == fit.beta.tolist()
    assert (d["objective"], d["iters"], d["df"]) == (fit.objective, fit.iters, fit.df)
    assert run(["fit", "--app", "qrtf", "--data", data, "--lam", 2.0,
                "--k", -1, "--out", out]) == 2


def test_fit_fdp_trace_monotone(tmp_path):
    data = tmp_path / "f.csv"
    run(["simulate", "--app", "fdp", "--n", 50, "--m", 25, "--seed", 6,
         "--out", data])
    out = tmp_path / "fit.json"
    assert run(["fit", "--app", "fdp", "--data", data, "--lam", 5.0,
                "--out", out]) == 0
    d = json.loads(out.read_text())
    tr = np.array(d["trace"])
    assert np.all(np.diff(tr) <= 1e-10 * np.maximum(1.0, np.abs(tr[:-1])))


def test_path_logspace_cv(tmp_path):
    data = tmp_path / "q.csv"
    run(["simulate", "--app", "qrtf", "--n", 40, "--seed", 7, "--out", data])
    out = tmp_path / "p.json"
    assert run(["path", "--app", "qrtf", "--data", data,
                "--lambdas", "logspace:-1:5:13", "--criterion", "cv",
                "--folds", 5, "--out", out, "--tol", 1e-4,
                "--max-iters", 25, "--inner-max-iters", 150,
                "--inner-tol", 1e-6]) == 0
    d = json.loads(out.read_text())
    assert len(d["lambdas"]) == 13
    assert len(d["criterion_values"]) == 13
    assert d["lambdas"][0] > d["lambdas"][-1]
    sel_csv = tmp_path / "p_selected.csv"
    header = sel_csv.read_text().splitlines()[0]
    assert header.startswith("x,y,fitted")


def test_path_aic_selected_index_recorded(tmp_path):
    data = tmp_path / "r.csv"
    run(["simulate", "--app", "rfl", "--n", 100, "--seed", 8, "--out", data])
    out = tmp_path / "p.json"
    assert run(["path", "--app", "rfl", "--data", data,
                "--lambdas", "logspace:0:2:20", "--criterion", "aic",
                "--out", out]) == 0
    d = json.loads(out.read_text())
    assert 0 <= d["selected"] < 20
    assert d["selected_lambda"] == d["lambdas"][d["selected"]]
    vals = d["criterion_values"]
    assert d["selected"] == int(np.argmin(vals))


def test_path_comma_list_order_enforced(tmp_path):
    data = tmp_path / "r.csv"
    run(["simulate", "--app", "rfl", "--n", 30, "--seed", 9, "--out", data])
    out = tmp_path / "p.json"
    assert run(["path", "--app", "rfl", "--data", data, "--lambdas",
                "0.5,0.1", "--out", out]) == 0
    assert run(["path", "--app", "rfl", "--data", data, "--lambdas",
                "0.1,0.5", "--out", out]) == 2


def test_missing_column_is_validation_failure(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n0.1,1.0\n0.2,2.0\n")
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "fdp", "--data", data, "--lam", 1.0,
                "--out", out]) == 2


def test_nonfinite_input_is_validation_failure(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n0.1,nan\n0.2,2.0\n")
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "rfl", "--data", data, "--lam", 1.0,
                "--out", out]) == 2


def test_missing_file_is_io_failure(tmp_path):
    assert run(["fit", "--app", "rfl", "--data", tmp_path / "nope.csv",
                "--lam", 1.0, "--out", tmp_path / "f.json"]) == 3


def test_strict_convergence_failure(tmp_path):
    data = tmp_path / "f.csv"
    run(["simulate", "--app", "fdp", "--n", 30, "--m", 25, "--seed", 10,
         "--out", data])
    out = tmp_path / "fit.json"
    code = run(["fit", "--app", "fdp", "--data", data, "--lam", 5.0,
                "--out", out, "--max-iters", 1, "--strict"])
    assert code in (0, 4)  # 4 unless it converged in one cycle
    relaxed = run(["fit", "--app", "fdp", "--data", data, "--lam", 5.0,
                   "--out", out, "--max-iters", 1])
    assert relaxed == 0


def test_strict_fdp_fit_fails_when_max_iters_caps(tmp_path):
    data = tmp_path / "f.csv"
    run(["simulate", "--app", "fdp", "--n", 30, "--m", 25, "--seed", 10,
         "--out", data])
    out = tmp_path / "fit.json"
    assert run(["fit", "--app", "fdp", "--data", data, "--lam", 5.0,
                "--out", out, "--max-iters", 4, "--strict"]) == 4
    assert json.loads(out.read_text())["converged"] is False


def test_repeated_column_is_validation_failure(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("x,y,y\n0.1,1.0,5.0\n0.2,2.0,6.0\n0.3,3.0,7.0\n")
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "rfl", "--data", data, "--lam", 1.0,
                "--out", out]) == 2
    assert "repeated columns ['y']" in capsys.readouterr().err
    assert not out.exists()


def test_path_fdp_cv(tmp_path):
    data = tmp_path / "f.csv"
    run(["simulate", "--app", "fdp", "--n", 40, "--m", 25, "--seed", 3,
         "--out", data])
    out = tmp_path / "p.json"
    assert run(["path", "--app", "fdp", "--data", data, "--lambdas",
                "20,5,1", "--criterion", "cv", "--folds", 3, "--a", 2.0,
                "--out", out]) == 0
    d = json.loads(out.read_text())
    assert d["criterion"] == "cv" and len(d["criterion_values"]) == 3
    assert d["selected"] == int(np.argmin(d["criterion_values"]))
    assert [rec["a"] for rec in d["fits"]] == [2.0, 2.0, 2.0]
    assert all("manifest" not in rec for rec in d["fits"])
    assert d["manifest"]["config"]["criterion"] == "cv"
    lines = (tmp_path / "p_selected.csv").read_text().splitlines()
    assert lines[0] == "x,y,fitted,truth"
    assert len(lines) == 41
    truth = [float(r.split(",")[3]) for r in lines[1:]]
    sim = [float(r.split(",")[3]) for r in data.read_text().splitlines()[1:]]
    assert truth == sim  # the simulator's truth_logodds column


def test_check_prox_suite_cli(capsys):
    assert run(["check", "--suite", "prox"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_non_numeric_extra_column_is_skipped(tmp_path):
    data = tmp_path / "labelled.csv"
    data.write_text("x,y,label\n0.1,1.0,a\n0.2,2.0,b\n0.3,3.0,c\n")
    out = tmp_path / "f.json"
    assert run(["fit", "--app", "rfl", "--data", data, "--lam", 1.0,
                "--out", out]) == 0
    assert len(json.loads(out.read_text())["beta"]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,label\n0.1,1.0,a\n0.2,two,b\n0.3,3.0,c\n")
    assert run(["fit", "--app", "rfl", "--data", bad, "--lam", 1.0,
                "--out", tmp_path / "g.json"]) == 2


CHECK_ROWS = [
    *[f"{m}/exponential" for m in ("double-pareto(g=1,a=1)", "mcp(g=1,a=3)",
                                   "l1(w=1)")],
    "ridge(w=1)/gaussian-scale",
    "huber(delta=1)/gaussian-location",
    "limited-translation/gaussian-location",
    "logcosh(m=1)/gaussian-scale",
    "logcosh(m=1)/gaussian-location",
    "logcosh(m=4)/gaussian-scale",
    "logcosh(m=4)/gaussian-location",
    *[f"check(q={q})/variance-mean" for q in (0.1, 0.5, 0.9)],
    "double-pareto dual vs grid (lam in [0.01, 2g])",
    "mcp corrected dual vs grid (lam in [0, 2g])",
    *[f"double conjugation: {m}" for m in ("huber", "limited-translation",
                                           "logcosh(m=1)", "logcosh(m=4)")],
    "prox vs grid oracle (200 draws)",
    "fused-lasso DP vs exact trend filter at k=0 (50)",
    "trend-filter KKT residual (k in {1,2})",
    "proximal gradient vs long-run oracle (5)",
    "proximal gradient fixed-point residual",
]


def test_check_all_suites_cli(tmp_path):
    out = tmp_path / "report.json"
    assert run(["check", "--suite", "all", "--out", out]) == 0
    report = json.loads(out.read_text())
    assert [r["name"] for r in report["results"]] == CHECK_ROWS
    assert all(r["passed"] for r in report["results"]) and report["pass"]


def test_solver_flags_default_to_solver_config():
    for cmd in (["fit", "--app", "fdp", "--data", "d.csv", "--lam", "1",
                 "--out", "f.json"],
                ["path", "--app", "qrtf", "--data", "d.csv", "--lambdas", "1",
                 "--out", "p.json"]):
        assert _solver_config(build_parser().parse_args(cmd)) == SolverConfig()
