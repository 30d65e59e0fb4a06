#!/usr/bin/env python3
"""envopt benchmark: one workload per run, closed loop, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fused-paths --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run measures set-up by starting a fresh interpreter that imports
envopt from ``src/`` and builds the workload's inputs, ``SETUP_REPEATS``
times (half before the timed loop, half after its checks), and reports
the median time to the first timed unit.  It builds the inputs itself
and times whole rounds of units until ``--seconds`` have passed, reading
its peak RSS when the first round ends.  After the loop it checks every
output against ``oracles.py``.  Every time it reports is in reference
seconds (``hostspeed.py``), scaled by the host's speed measured just
before and just after it; the wall-clock figures go to stderr.  It prints
one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with
``--trace 1``; a traced run also writes its spans (name, start, end,
parent index) and per-round counts to
``.perfbench/trace-<workload>-seed<seed>.json``.  ``--workload all`` runs
both workloads one after another and prints a table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import Calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fused-paths", "cli")
SETUP_REPEATS = 8
CHILD_TIMEOUT_S = 170
# One BLAS/OpenMP thread, and envopt's own fold/suite parallelism off.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HIERDUALS_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up, print 'ready' and exit (set-up timing)")
    return p.parse_args(argv)


def setup(workload, seed, workdir):
    """Import envopt from this checkout and build the workload's inputs."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import envopt
    if Path(envopt.__file__).resolve().parent != SRC / "envopt":
        raise RuntimeError(f"envopt was imported from {envopt.__file__}, not {SRC}")
    from workloads import WORKLOADS as classes
    return classes[workload](seed, str(workdir))


def probe_setup(args):
    """Seconds from starting a fresh interpreter to its first timed unit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return elapsed


def unit_p50(unit_s, parts):
    """Geometric mean over the workload's parts of each part's median unit
    time; ``parts`` names the part of each unit of a round."""
    by_part = {}
    for t, part in zip(unit_s, itertools.cycle(parts)):
        by_part.setdefault(part, []).append(t)
    return statistics.geometric_mean([statistics.median(v) for v in by_part.values()])


def measure(wl, args, clock):
    """Whole rounds of the workload's units until ``args.seconds`` pass."""
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    units, parts = wl.units(), wl.unit_parts()
    unit_s, wall_s, kept, round_counts = [], [], [], []
    with tracer or nullcontext():
        start = time.perf_counter()
        while not round_counts or time.perf_counter() - start < args.seconds:
            before = tracer.snapshot() if tracer else {}
            for unit in units:
                out, wall, scale = clock.time(unit)
                wall_s.append(wall)
                unit_s.append(wall * scale)
                kept.append(wl.keep(out))
            after = tracer.snapshot() if tracer else {}
            round_counts.append({k: after[k] - before[k] for k in after})
            if len(round_counts) == 1:
                # Later rounds repeat the same work; only the outputs kept
                # for checking grow, and with them the count of rounds.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    problems = []
    for out in kept:
        ops, bad, why = wl.check(out)
        attempted += ops
        failed += bad
        problems.extend(why)
    if any(c != round_counts[0] for c in round_counts):
        problems.append("per-layer counts differ between rounds of identical work")

    if tracer:
        from tracing import layer_metrics
        metrics = layer_metrics(tracer, len(round_counts), wall_s, sum(unit_s) / sum(wall_s),
                                wl.gap_max, sum(wl.artifact_bytes(k) for k in kept))
        metrics["trace.unit_s_p50"] = {"value": unit_p50(unit_s, parts), "unit": "s"}
        spans = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": len(round_counts),
            "counts_per_round": round_counts[0], "spans": tracer.spans}))
    else:
        metrics = {
            "unit_s_p50": {"value": unit_p50(unit_s, parts), "unit": "s"},
            "ops_per_s": {"value": attempted / sum(unit_s), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"wall clock: unit_s_p50 {unit_p50(wall_s, parts):.4f} s, "
              f"ops_per_s {attempted / sum(wall_s):.4f} 1/s", file=sys.stderr)
    for p in dict.fromkeys(problems):
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process; a table, then all results as JSON."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + 10)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "envopt" / "__init__.py").is_file():
        print(f"error: no envopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        # Half the set-up probes run before the timed loop and half after
        # its checks, so that they sample the host over the whole run.
        clock = Calibrated()
        probes = [] if args.trace else [clock.time(lambda: probe_setup(args))
                                        for _ in range(SETUP_REPEATS // 2)]
        result = measure(setup(args.workload, args.seed, workdir), args, clock)
        if not args.trace:
            probes += [clock.time(lambda: probe_setup(args))
                       for _ in range(SETUP_REPEATS - len(probes))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(t * scale for t, _, scale in probes), "unit": "s"}
        print(f"wall clock: setup_s {statistics.median(t for t, _, _ in probes):.4f} s; "
              f"host speed {clock.speed():.4f} of the reference", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
