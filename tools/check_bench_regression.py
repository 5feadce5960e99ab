#!/usr/bin/env python3
"""Compare a google-benchmark JSON result against a committed baseline.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_foo.json \
      --current out.json [--threshold 0.30] [--key cpu_time]

A benchmark regresses when its time exceeds baseline * (1 + threshold).
Benchmarks present in only one file are reported but never fatal (new
benchmarks land before their baseline is refreshed).  Absolute times move
with the host, so the guard also checks a host-invariant ratio: every
"<prefix>_plan" benchmark must stay faster than its "<prefix>_tree_walk"
sibling by at least --min-speedup (default 3.0 for timing benchmarks,
disabled when no sibling pair exists).

With --reports DIR and --trajectory FILE the guard additionally checks the
per-case PerfReport GFLOPS (written by the bench binaries under
$SWBENCH_REPORT_DIR) against the latest trajectory entry: simulated GFLOPS
come from the timing model, not the wall clock, so they are host-invariant
and guarded with the tight --gflops-threshold (default 2%% drop).  Cases
without a trajectory entry are reported but never fatal.

Exit code 0 = clean, 1 = regression, 2 = bad invocation/input.
"""

import argparse
import json
import os
import sys


def load_benchmarks(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read benchmark JSON '{path}': {err}",
              file=sys.stderr)
        sys.exit(2)
    benchmarks = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        benchmarks[bench["name"]] = bench
    if not benchmarks:
        print(f"error: no benchmarks found in '{path}'", file=sys.stderr)
        sys.exit(2)
    return benchmarks


def sibling_pairs(benchmarks):
    """(prefix, plan_name, tree_name) for every *_plan / *_tree_walk pair."""
    pairs = []
    for name in benchmarks:
        if name.endswith("_plan"):
            prefix = name[: -len("_plan")]
            tree = prefix + "_tree_walk"
            if tree in benchmarks:
                pairs.append((prefix, name, tree))
    return pairs


def check_report_gflops(reports_dir, trajectory_path, threshold, failures):
    """Guard per-case PerfReport GFLOPS against the latest trajectory entry."""
    try:
        with open(trajectory_path, "r", encoding="utf-8") as fh:
            trajectory = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read trajectory '{trajectory_path}': {err}",
              file=sys.stderr)
        sys.exit(2)
    entries = trajectory.get("entries", [])
    if not entries:
        print("note: trajectory has no entries yet; report GFLOPS "
              "unguarded this run")
        return
    baseline_cases = entries[-1].get("cases", {})

    if not os.path.isdir(reports_dir):
        print(f"error: --reports '{reports_dir}' is not a directory",
              file=sys.stderr)
        sys.exit(2)
    seen = 0
    for name in sorted(os.listdir(reports_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(reports_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read report '{path}': {err}",
                  file=sys.stderr)
            sys.exit(2)
        case = name[: -len(".json")]
        gflops = report.get("roofline", {}).get("achieved_gflops")
        if gflops is None:
            failures.append(f"report '{path}' has no "
                            f"roofline.achieved_gflops")
            continue
        seen += 1
        base = baseline_cases.get(case, {}).get("gflops")
        if not base:
            print(f"     note  {case}: no trajectory baseline (new case)")
            continue
        floor = base * (1.0 - threshold)
        status = "ok" if gflops >= floor else "REGRESSED"
        print(f"{status:>9}  {case}: {gflops:.2f} GFLOPS vs trajectory "
              f"{base:.2f} ({gflops / base:.3f}x)")
        if gflops < floor:
            failures.append(
                f"'{case}' report GFLOPS regressed: {gflops:.2f} < "
                f"{floor:.2f} (trajectory {base:.2f}, threshold "
                f"{threshold:.0%})")
    if seen == 0:
        failures.append(f"no *.json reports found in '{reports_dir}'")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional slowdown vs baseline")
    parser.add_argument("--key", default="cpu_time",
                        help="which time field to compare")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required plan-vs-tree-walk ratio for "
                             "'timing' benchmark pairs")
    parser.add_argument("--reports",
                        help="directory of per-case PerfReport JSONs to "
                             "guard against the trajectory")
    parser.add_argument("--trajectory",
                        default="bench/baselines/BENCH_trajectory.json",
                        help="trajectory file whose latest entry is the "
                             "report-GFLOPS baseline")
    parser.add_argument("--gflops-threshold", type=float, default=0.02,
                        help="allowed fractional report-GFLOPS drop vs "
                             "the trajectory (simulated, host-invariant)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    failures = []
    for name, bench in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            print(f"note: '{name}' has no baseline entry (new benchmark)")
            continue
        if base.get("time_unit") != bench.get("time_unit"):
            failures.append(f"'{name}': time_unit changed "
                            f"({base.get('time_unit')} -> "
                            f"{bench.get('time_unit')})")
            continue
        base_t = float(base[args.key])
        cur_t = float(bench[args.key])
        limit = base_t * (1.0 + args.threshold)
        ratio = cur_t / base_t if base_t > 0 else float("inf")
        status = "ok" if cur_t <= limit else "REGRESSED"
        print(f"{status:>9}  {name}: {cur_t:.1f} vs baseline {base_t:.1f} "
              f"{bench.get('time_unit')} ({ratio:.2f}x)")
        if cur_t > limit:
            failures.append(
                f"'{name}' regressed: {cur_t:.1f} > {limit:.1f} "
                f"{bench.get('time_unit')} "
                f"(baseline {base_t:.1f}, threshold {args.threshold:.0%})")
    for name in sorted(set(baseline) - set(current)):
        print(f"note: baseline benchmark '{name}' missing from current run")

    for prefix, plan_name, tree_name in sibling_pairs(current):
        plan_t = float(current[plan_name][args.key])
        tree_t = float(current[tree_name][args.key])
        if plan_t <= 0:
            continue
        speedup = tree_t / plan_t
        # Only the pure-interpreter (timing) pair carries the hard floor;
        # functional runs are dominated by micro-kernel math and mesh
        # set-up, which both engines share, so their ratio is
        # informational.
        if "timing" not in prefix:
            print(f"     info  {prefix}: plan speedup {speedup:.2f}x")
            continue
        required = args.min_speedup
        status = "ok" if speedup >= required else "REGRESSED"
        print(f"{status:>9}  {prefix}: plan speedup {speedup:.2f}x "
              f"(required >= {required:.2f}x)")
        if speedup < required:
            failures.append(
                f"'{prefix}': plan is only {speedup:.2f}x faster than the "
                f"tree-walk (required {required:.2f}x)")

    if args.reports:
        print()
        check_report_gflops(args.reports, args.trajectory,
                            args.gflops_threshold, failures)

    if failures:
        print("\nbenchmark regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
