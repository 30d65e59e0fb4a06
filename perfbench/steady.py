#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, side by side.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py``
ten times per set, two sets one after the other (seeds 1-10, then
11-20), each run lasting the file's ``run_seconds``.  It prints for each
end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median) of each set against the
metric's bound, then the shift of the second set's median against the
first.  It marks a spread above a third of its bound, a spread above the
bound, a median that worsens by more than the bound, and a failed-op
share that differs between runs; all but the first make the result NOT
steady.  The last line is all of it as JSON, with every run's value.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    steady = True
    for wl in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(SETS):
            runs = [run_once(wl, s * RUNS + i + 1, bench["run_seconds"]) for i in range(RUNS)]
            if not all(r["correct"] for r in runs):
                steady = False
                print(f"{wl}: set {s + 1} has an incorrect run")
            sets.append(runs)
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        print(f"{wl}: failed share per set {[sorted(x) for x in shares]}")
        if len(set().union(*shares)) != 1:
            steady = False
            print(f"{wl}: MARK failed share differs between runs")
        report[wl] = {"failed_share": [sorted(x) for x in shares], "metrics": {}}
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            stats = [summarize(v) for v in values]
            report[wl]["metrics"][name] = [dict(st, values=v) for st, v in zip(stats, values)]
            for i, st in enumerate(stats):
                mark = ""
                if st["spread"] > bound:
                    mark = "  MARK spread > bound"
                    steady = False
                elif st["spread"] > bound / 3:
                    mark = "  MARK spread > bound/3"
                print(f"  {name:12s} set {i + 1}: median {st['median']:.6g} {m['unit']} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.4f} "
                      f"(bound {bound}){mark}")
            shift = stats[1]["median"] / stats[0]["median"] - 1.0
            worse = shift if lower else -shift
            mark = "  MARK worse than bound" if worse > bound else ""
            steady &= not mark
            print(f"  {name:12s} set 2 vs 1: median shift {shift:+.4f}{mark}")
    print("steady" if steady else "NOT steady")
    print(json.dumps(report))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
