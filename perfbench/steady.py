#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and prints the spread.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

A set runs every workload of BENCHMARK.json once per seed 1..runs, each
run for the run_seconds of BENCHMARK.json; the sets run one after the
other, as two regression gates on one commit would.
For every end-to-end metric of every set it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the bound from BENCHMARK.json. The spread is
"tight" below a third of the bound, "ok" within the bound, and "WIDE"
beyond it; the spread of setup_s is printed but not judged. For every set
after the first it prints how much each median moved against the first
set's, in the metric's worse direction, and fails when that exceeds the
bound. Every run of a workload must attempt the same number of ops with
the same failed share, and each seed's exact work counters must repeat in
every set (with one set, seed 1 is rerun once instead).

Exits 1 when a spread is WIDE, a median moved by more than its bound, a
run was incorrect, or a count did not repeat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed,
                                                         proc.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    seconds = spec["run_seconds"]

    # results[set][workload] = list of (work line, result line), by seed.
    results = []
    for k in range(args.sets):
        results.append({})
        for workload in workloads:
            results[k][workload] = []
            for seed in seeds:
                work, res = run_once(workload, seed, seconds)
                results[k][workload].append((work, res))
                print("set %d %s seed %d: %s" % (
                    k + 1, workload, seed,
                    " ".join("%s=%.5g" % (m["name"],
                                          res["metrics"][m["name"]]["value"])
                             for m in metrics)),
                      file=sys.stderr, flush=True)

    all_ok = True
    for workload in workloads:
        runs = [r for k in range(args.sets) for r in results[k][workload]]
        attempted = sorted({res["attempted"] for _, res in runs})
        shares = sorted({(res["failed"], res["attempted"]) for _, res in runs})
        correct = all(res["correct"] for _, res in runs)
        if args.sets > 1:
            repeat = all(results[k][workload][i][0] ==
                         results[0][workload][i][0]
                         for k in range(1, args.sets) for i in range(args.runs))
            which = "every seed, across %d sets" % args.sets
        else:
            repeat = run_once(workload, 1, seconds)[0] == runs[0][0]
            which = "seed 1, rerun once"
        all_ok = all_ok and correct and repeat and len(attempted) == 1 \
            and len(shares) == 1
        print("== %s: %d sets of %d runs, attempted %s, failed/attempted %s, "
              "all correct: %s" % (workload, args.sets, args.runs, attempted,
                                   shares, "yes" if correct else "NO"))
        print("   work counters repeat exactly (%s): %s" %
              (which, "yes" if repeat else "NO"))
        print("   %-3s %-14s %12s %12s %12s %8s %6s %-6s %8s" %
              ("set", "metric", "median", "q1", "q3", "spread", "bound",
               "", "moved"))
        first = {}
        for k in range(args.sets):
            for m in metrics:
                name, bound = m["name"], m["bound"]
                vals = [res["metrics"][name]["value"]
                        for _, res in results[k][workload]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                verdict = ""
                if name != "setup_s":
                    verdict = ("tight" if spread < bound / 3 else
                               "ok" if spread <= bound else "WIDE")
                    all_ok = all_ok and verdict != "WIDE"
                moved = ""
                if k == 0:
                    first[name] = med
                else:
                    # Share by which the median got worse (negative: better).
                    worse = (med - first[name]) / first[name]
                    if m["better"] == "higher":
                        worse = -worse
                    moved = "%+.4f%s" % (worse, " FAR" if worse > bound else "")
                    all_ok = all_ok and worse <= bound
                print("   %-3d %-14s %12.5g %12.5g %12.5g %8.4f %6s %-6s %8s" %
                      (k + 1, name, med, q1, q3, spread, bound, verdict,
                       moved))
    print("verdict: %s" % ("pass" if all_ok else "FAIL"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
