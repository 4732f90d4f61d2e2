#!/usr/bin/env python3
"""lsim's end-to-end benchmark: build, run one workload, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload warm_rpc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steadiness 10 [--workloads a,b] [--seconds S]
    python3 perfbench/run.py --selftest

A run builds perfbench/ (and the lsim sources it compiles) into the
build directory — $CARGO_TARGET_DIR when set, else .bench_build — runs
the lsim_perfbench program in a scratch directory under it, and prints
its metric lines followed, as the last stdout line, by one
JSON object with the keys correct, attempted, failed and metrics.
Its stderr passes through; its "warn:" lines are counted into
log.warnings, and any warning marks the run incorrect.

--steadiness N runs each workload of BENCHMARK.json (or --workloads)
N times with seeds 1..N, prints each
end-to-end metric's median, quartiles and spread against its bound in
BENCHMARK.json, then repeats the first seed to check that the digest of
the delivered bytes repeats exactly. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["warm_rpc", "warm_grid", "cold_sim", "cold_auto"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure once, then build incrementally; exit 1 on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return out / "lsim_perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, human lines, digest)."""
    out = build_dir()
    workdir = out / ("run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload,
                                                    RUN_TIMEOUT_S))
        sys.exit(1)
    finally:
        # Delete and flush now, so this run's files cost the next
        # run's measurement nothing.
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: %s printed no result line" % workload)
        sys.exit(1)
    warnings = sum(1 for line in proc.stderr.splitlines()
                   if line.startswith("warn:"))
    human = lines[:-1] + ["log.warnings %d" % warnings]
    if trace:
        result["metrics"]["log.warnings"] = {"value": warnings,
                                             "unit": "count"}
    if warnings:
        result["correct"] = False
    digest = next((m.group(1) for m in
                   (re.match(r"digest \S+ seed=\d+: (\S+)", line)
                    for line in lines) if m), None)
    return result, human, digest


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a metric's values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(binary, runs, workloads, seconds):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = seconds or config["run_seconds"]
    workloads = (workloads.split(",") if workloads else
                 [w["name"] for w in config["workloads"]])
    worst = 0.0
    ok = True
    over = []
    for workload in workloads:
        values = {}
        digests = {}
        for seed in range(1, runs + 1):
            result, _, digest = run_once(binary, workload, seed, seconds,
                                         False)
            digests[seed] = digest
            ok &= bool(result["correct"]) and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        _, _, again = run_once(binary, workload, 1, seconds, False)
        repeat = "repeats" if again == digests[1] else "CHANGED"
        ok &= again == digests[1]
        print("%s (%d runs, %g s each): digest of seed 1 %s"
              % (workload, runs, seconds, repeat))
        print("  %-18s %12s %12s %12s %8s %7s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound",
            "spread/bound"))
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name, float("nan"))
            frac = sp / bound if bound else float("inf")
            worst = max(worst, frac)
            if frac > 1.0:
                over.append("%s/%s" % (workload, name))
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %7.3f %.3f"
                  % (name, med, q1, q3, sp, bound, frac))
    ok &= not over
    print("worst spread/bound: %.3f; %s%s"
          % (worst, "steady" if ok else "NOT steady",
             "; over bound: " + ", ".join(over) if over else ""))
    return 0 if ok else 1


def selftest(binary):
    proc = subprocess.run([str(binary), "--selftest"], text=True,
                          capture_output=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    checks = [
        (spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])[0] == 5.5,
         "median of 1..10"),
        (abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])[3] - 5.5 / 5.5)
         < 1e-12, "quartile spread of 1..10"),
        (spread([2.0] * 10)[3] == 0.0, "constant values do not spread"),
    ]
    failed = [what for good, what in checks if not good]
    for what in failed:
        print("selftest FAILED: " + what)
    print("run.py selftest: %d of %d checks passed"
          % (len(checks) - len(failed), len(checks)))
    return 0 if proc.returncode == 0 and not failed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--workloads",
                        help="comma list (default: BENCHMARK.json's)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.steadiness:
        return steadiness(binary, args.steadiness, args.workloads,
                          args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    result, human, _ = run_once(binary, args.workload, args.seed,
                                args.seconds or 15, bool(args.trace))
    for line in human:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
