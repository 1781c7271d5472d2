#!/usr/bin/env python3
"""Builds the end-to-end benchmark (Release) and runs one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
databases to a per-process directory next to it that is removed afterwards,
and the full report (machine profile, per-class tails, spans of a traced run)
to .bench_build/reports/. The last line of standard output is the result
object printed by the benchmark binary; build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["oltp", "analytic", "lsm_cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    run_dir = os.path.join(out_root, "e2e-run-%d" % os.getpid())
    report_dir = os.path.join(out_root, "reports")
    os.makedirs(report_dir, exist_ok=True)
    report = os.path.join(report_dir, "%s-seed%d-trace%s.json" %
                          (args.workload, args.seed, args.trace))
    cmd = [os.path.join(build_dir, "aidb_e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--dir", run_dir, "--report", report]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
