#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

Run from the root of a checkout (the benchmark builds on first use):

    python3 e2ebench/steady.py --workload pagerank-fleet --runs 10
    python3 e2ebench/steady.py --workload sgemm-summit --runs 3 --trace 1

Set A runs seeds SEED..SEED+RUNS-1 and set B the next RUNS seeds; the
runs alternate A, B, A, B, ... so slow phases of a shared host land on
both sets. For every metric the tool prints each set's median and
quartiles (Python's statistics.quantiles, n=4), the quartile spread as a
share of the median, and whether the sets agree within BENCHMARK.json's
bounds:

  spread  (Q3 - Q1) / median of a set must stay within the bound
          (setup_s excepted); the benchmark aims for a third of it;
  drift   B's median may be worse than A's by at most the bound.

--log FILE appends every run's result line to FILE as JSON lines. With
--trace 1 every run uses the same seed, and the tool reports
whether each count repeats exactly. It also prints each set's failed
operations against attempted. The exit code is 0 only when every check
holds.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed", type=int, default=1, help="first seed of set A")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--log", help="append each run's result here as JSON lines")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 (quartiles need two values)")

    with open(args.bench) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        sys.exit("unknown workload %s, try one of %s"
                 % (args.workload, ", ".join(names)))
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for name, offset in (("A", 0), ("B", args.runs)):
            seed = args.seed if args.trace else args.seed + offset + i
            result = run_once(bench["command"], args.workload, seed,
                              bench["run_seconds"], args.trace)
            sets[name].append(result)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": args.workload,
                                        "set": name, "seed": seed,
                                        "trace": args.trace,
                                        "result": result}) + "\n")
            print("run %s%-2d seed %-4d correct=%s attempted=%d failed=%d"
                  % (name, i, seed, result["correct"], result["attempted"],
                     result["failed"]), flush=True)

    ok = True
    for name, results in sets.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct
        print("set %s: %d of %d operations failed, all correct: %s"
              % (name, failed, attempted, correct))
    share = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
             for n, rs in sets.items()}
    if share["A"] != share["B"]:
        ok = False
        print("failed-operation shares differ: %r" % share)

    print()
    if args.trace:
        print("%-28s %-6s %s" % ("metric", "unit", "A median / repeats exactly"))
    else:
        print("%-16s %-4s %6s %-33s %-33s %6s %s"
              % ("metric", "unit", "bound", "A q1 / median / q3 (spread)",
                 "B q1 / median / q3 (spread)", "drift", "verdict"))
    for m in metrics:
        a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
        b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
        if args.trace:
            if m["unit"] in ("count", "bytes", "%") and "overhead" not in m["name"]:
                same = len(set(a + b)) == 1
                ok &= same
                print("%-28s %-6s %.6g %s" % (m["name"], m["unit"],
                                              statistics.median(a),
                                              "yes" if same else "NO"))
            else:
                print("%-28s %-6s %.6g" % (m["name"], m["unit"],
                                           statistics.median(a)))
            continue
        cells, verdicts = [], []
        for values in (a, b):
            q1, med, q3 = summary(values)
            spread = (q3 - q1) / med
            cells.append("%.4g / %.4g / %.4g (%.3f)" % (q1, med, q3, spread))
            if m["name"] != "setup_s" and spread > m["bound"]:
                verdicts.append("spread>bound")
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                verdicts.append("spread>bound/3")
        med_a, med_b = summary(a)[1], summary(b)[1]
        worse = (med_b - med_a) / med_a
        if m["better"] == "higher":
            worse = -worse
        if worse > m["bound"]:
            verdicts.append("drift>bound")
        ok &= not any(v.endswith(">bound") for v in verdicts)
        print("%-16s %-4s %6.3f %-33s %-33s %+6.3f %s"
              % (m["name"], m["unit"], m["bound"], cells[0], cells[1], worse,
                 ", ".join(verdicts) or "ok"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
