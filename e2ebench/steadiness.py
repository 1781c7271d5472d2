#!/usr/bin/env python3
"""Checks that the end-to-end benchmark repeats: two sets of runs, same build.

Run from the root of a checkout:

    python3 e2ebench/steadiness.py --runs 10 [--workloads oltp,lsm_cold]

Each set runs every workload --runs times, each run with another seed. For
every end-to-end metric of BENCHMARK.json it prints the two medians, the
first and third quartiles of each set, the spread (Q3 - Q1) / median and
the metric's bound. A metric is flagged when a spread exceeds its bound, or when the second median is worse than the first by
more than the bound. The share of failed operations must be the same in
both sets. Raw results go to .bench_build/steadiness.json.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    seconds = bench["run_seconds"]

    raw = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                runs.append(run_once(w, seed, seconds))
                print("%s set %d seed %d done" % (w, s + 1, seed), file=sys.stderr)
            sets.append(runs)
        raw[w] = sets
        print("== %s (%d runs per set)" % (w, args.runs))
        print("%-14s %12s %12s %12s %7s | %12s %12s %12s %7s | %6s  %s" %
              ("metric", "median1", "q1", "q3", "spread", "median2", "q1", "q3",
               "spread", "bound", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row, verdicts, medians = [], [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                row += [q2, q1, q3, spread]
                medians.append(q2)
                if spread > bound:
                    verdicts.append("spread>bound")
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                verdicts.append("median moved %.1f%%" % (100 * worse))
            ok = ok and not verdicts
            print("%-14s %12.5g %12.5g %12.5g %7.4f | %12.5g %12.5g %12.5g %7.4f | %6.3f  %s" %
                  tuple([name] + row + [bound, ", ".join(verdicts) or "ok"]))
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append((failed, attempted))
            ok = ok and all(r["correct"] for r in runs)
        same = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
        ok = ok and same
        print("failed/attempted: set1 %d/%d, set2 %d/%d (%s); correct in every run: %s" %
              (shares[0] + shares[1] + ("same share" if same else "DIFFERENT share",
                                        all(r["correct"] for s in sets for r in s))))

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
