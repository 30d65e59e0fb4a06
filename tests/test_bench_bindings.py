"""The names the bench tracer wraps must stay bound in envopt.

``perfbench/tracing.py`` times each layer by replacing a function at the
place that binds it, so deleting or renaming one of those names breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("envopt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    layers = _tracing().LAYERS
    missing = []
    for name, module, attr, site, _ in layers:
        fn = vars(importlib.import_module(site or module)).get(attr)
        if not callable(fn):
            missing.append((name, site or module, attr))
    assert missing == []
    # among them, names that the package calls rarely or not at all, which
    # a cleanup could otherwise drop
    traced = {(site or module, attr) for _, module, attr, site, _ in layers}
    assert {("envopt.applications", "mm_driver"), ("envopt.applications", "fit_fdp"),
            ("envopt.applications", "binomial_fused_lasso"),
            ("envopt.solvers", "cho_solve_banded"),
            ("envopt.duality", "conjugate_numeric_rowwise")} <= traced
