#!/usr/bin/env python3
"""Recompute the oracle reference of every op of one round of a workload.

Usage, from the root of a checkout:

    python3 perfbench/references.py --workload cli

It builds the workload's inputs as a benchmark run does, runs one round
without timing it, and prints for each op the oracle's value against its
tolerance: the stationarity certificate residual over lam (rfl and fdp
fits), the relative gap to the HiGHS LP optimum (qrtf fits) or a report
row's max_gap (check suites).  Then the worst value per kind of
fit, the failed count and any problem that would make a run incorrect.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from run import ROOT, WORKLOADS, setup


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    args = p.parse_args(argv)
    workdir = ROOT / ".perfbench" / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = setup(args.workload, 1, workdir)
        kept = [wl.keep(unit()) for unit in wl.units()]
        worst, failed, problems = {}, 0, []
        for out in kept:
            ops, why = wl.inspect(out)
            problems.extend(why)
            for label, value, tol, ok in ops:
                print(f"{'ok  ' if ok else 'FAIL'} {label:48s} {value:12.4e}  tol {tol:g}")
                if " lam=" in label:
                    kind = label.split(" lam=")[0]
                    worst[kind] = max(worst.get(kind, value), value)
                failed += not ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for kind, value in worst.items():
        print(f"worst {kind}: {value:.4e}")
    print(f"failed ops: {failed}")
    for why in problems:
        print(f"problem: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
