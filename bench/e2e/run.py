#!/usr/bin/env python3
"""End-to-end benchmark runner: builds bench_e2e from the checkout and
speaks the BENCHMARK.json interface.

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints the binary's metric lines, then one JSON object as
      the last line: {"correct", "attempted", "failed", "metrics"} with
      every end_to_end metric (--trace 0) or every per_layer metric
      (--trace 1) of BENCHMARK.json. A per-layer metric the workload does
      not exercise reads 0. --trace-out FILE also dumps the spans.

  python3 bench/e2e/run.py --repeats N [--workload W ...] [--seconds S]
                           [--trace 0|1] [--first-seed K] [--save FILE]
      N runs per workload with seeds K..K+N-1; prints each metric's
      median, q1, q3, min, max, n and spread ((q3 - q1) / median).

  python3 bench/e2e/run.py --compare BASE.json NEW.json
      One row per (end-to-end metric, workload) of two --save files:
      base and new medians, change, bound, and a verdict.

  python3 bench/e2e/run.py --smoke
      Every workload at toy size, untraced and traced; fails if a run is
      incorrect or a BENCHMARK.json metric is never printed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures the repository root with bench/e2e attached (once per
    build directory; later builds re-run CMake themselves when a build
    file changes) and builds bench_e2e; returns the binary path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", build_dir,
                     "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "attach.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("bench_e2e: build failed")
    return os.path.join(build_dir, "bench_e2e")


def run_binary(binary, args, echo):
    """Runs bench_e2e; returns (summary dict, exit code). With `echo` the
    metric lines are passed through to stdout."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("bench_e2e: %s timed out after %d s" % (" ".join(args), RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("bench_e2e: no summary line (exit code %d)" % proc.returncode)
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1]), proc.returncode


def result_line(spec, summary, code, trace):
    """The benchmark's result object: every end_to_end metric (untraced)
    or every per_layer metric (traced), in BENCHMARK.json order."""
    measured = summary["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                sys.exit("bench_e2e: end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # layer not exercised here
        if got["unit"] != m["unit"]:
            sys.exit("bench_e2e: %s measured in %s, BENCHMARK.json says %s"
                     % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(summary["correct"]) and code == 0,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


def binary_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def repeats(args, spec):
    binary = build()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    saved = {"trace": args.trace, "seconds": args.seconds, "runs": {}}
    for workload in workloads:
        values = {name: [] for name in names}
        for i in range(args.repeats):
            seed = args.first_seed + i
            start = time.time()
            summary, code = run_binary(binary, binary_args(workload, seed, args.seconds,
                                                           args.trace), echo=False)
            result = result_line(spec, summary, code, args.trace)
            log("%s seed %d: correct=%s %.1f s" % (workload, seed, result["correct"],
                                                   time.time() - start))
            if not result["correct"]:
                sys.exit("bench_e2e: %s seed %d is incorrect" % (workload, seed))
            for name in names:
                values[name].append(result["metrics"][name]["value"])
        saved["runs"][workload] = values
        print("%-15s %-32s %14s %14s %14s %14s %14s %3s %8s" % (
            "workload", "metric", "median", "q1", "q3", "min", "max", "n", "spread"))
        for name in names:
            v = values[name]
            q1, q3 = quartiles(v)
            print("%-15s %-32s %14.6g %14.6g %14.6g %14.6g %14.6g %3d %7.2f%%" % (
                workload, name, statistics.median(v), q1, q3, min(v), max(v), len(v),
                100 * spread(v)))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


def compare(base_path, new_path, spec):
    """Verdicts per (end-to-end metric, workload), following the rule
    that a spread wider than the bound leaves a change unresolved unless
    every new run beats every base run."""
    with open(base_path) as f:
        base = json.load(f)["runs"]
    with open(new_path) as f:
        new = json.load(f)["runs"]
    worse_any = False
    print("%-15s %-14s %14s %14s %9s %7s  %s" % (
        "workload", "metric", "base median", "new median", "change", "bound", "verdict"))
    for m in spec["end_to_end"]:
        lower = m["better"] == "lower"
        for workload in sorted(set(base) & set(new)):
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm
            worse_by = change if lower else -change
            all_better = max(n) < min(b) if lower else min(n) > max(b)
            if all_better:
                verdict = "better"
            elif max(spread(b), spread(n)) > m["bound"]:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            elif -worse_by > spread(b):
                verdict = "better"
            else:
                verdict = "same"
            worse_any |= verdict == "worse"
            print("%-15s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%  %s" % (
                workload, m["name"], bm, nm, 100 * change, 100 * m["bound"], verdict))
    return 1 if worse_any else 0


def smoke(spec):
    binary = build()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    printed = set()
    ok = True
    start = time.time()
    for w in spec["workloads"]:
        for trace in (False, True):
            summary, code = run_binary(
                binary, ["--workload", w["name"], "--smoke"] + (["--trace", "1"] if trace else []),
                echo=False)
            measured = set(summary["metrics"])
            printed |= measured
            expected = layers if trace else e2e
            if not summary["correct"] or code != 0:
                log("smoke: %s trace=%d is incorrect" % (w["name"], trace))
                ok = False
            if not trace and not e2e <= measured:
                log("smoke: %s lacks %s" % (w["name"], sorted(e2e - measured)))
                ok = False
            if not measured <= expected:
                log("smoke: %s prints metrics BENCHMARK.json does not name: %s"
                    % (w["name"], sorted(measured - expected)))
                ok = False
    never = layers - printed
    if never:
        log("smoke: per-layer metrics no workload prints: %s" % sorted(never))
        ok = False
    log("smoke: %s in %.1f s" % ("ok" if ok else "FAILED", time.time() - start))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.smoke:
        return smoke(spec)
    if args.repeats:
        repeats(args, spec)
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("one --workload is required")
    binary = build()
    extra = ["--trace-out", os.path.abspath(args.trace_out)] if args.trace_out else []
    summary, code = run_binary(
        binary, binary_args(args.workload[0], args.seed, args.seconds, args.trace) + extra,
        echo=True)
    result = result_line(spec, summary, code, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
