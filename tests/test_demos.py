"""Smoke tests of the demos: each runs as a script and exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import envopt

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_proximal_gradient_logit_demo_runs():
    # the demo drives solvers.proximal_gradient with a log penalty's prox
    # on a logit design; it prints the fit and its fixed-point residual
    src = str(Path(envopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(DEMOS / "proximal_gradient_logit.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "converged=True" in proc.stdout
    assert "support recovered" in proc.stdout
