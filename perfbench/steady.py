#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload several times, each with another seed, and prints per
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the interquartile range as a share of the median, next to the bound
BENCHMARK.json fixes. A metric whose spread exceeds a third of its bound
is flagged, setup_s included.

With `--sets 2` it repeats the whole set with new seeds, walking the
workloads in the opposite order, so a slow drift of the host does not
favour one workload; each metric's median must then move from the first
set to the second by no more than its bound. Run from the repository
root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads serve --seconds 10

`--bin` runs a prebuilt binary instead of the BENCHMARK.json command.
Exits 1 when any metric is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1]), wall


def run_set(cmd, workloads, runs, seed_base, seconds):
    """Per workload: the result lines of `runs` runs and their wall times."""
    out = {}
    for w in workloads:
        results, walls = [], []
        for i in range(runs):
            res, wall = run_once(cmd, w, seed_base + i, seconds)
            results.append(res)
            walls.append(wall)
        out[w] = (results, walls)
    return out


def report_set(bench, label, sets):
    """Prints one set's spreads; returns {workload: {metric: median}} and
    whether every spread is within a third of its bound."""
    steady = True
    medians = {}
    for w, (results, walls) in sets.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"== {label} {w}: {len(results)} runs, {failed}/{attempted} failed, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        steady &= failed == 0
        medians[w] = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= m["bound"] / 3
            steady &= ok
            medians[w][m["name"]] = med
            print(f"  {m['name']:<20} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}  bound {m['bound']:.0%}  {'ok' if ok else 'UNSTEADY'}")
    return medians, steady


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--bin", default="")
    ap.add_argument("--config", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.config) as f:
        bench = json.load(f)
    cmd = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    first, steady = report_set(
        bench, "set 1",
        run_set(cmd, workloads, args.runs, args.seed_base, seconds))
    if args.sets == 2:
        second_runs = run_set(cmd, workloads[::-1], args.runs,
                              args.seed_base + args.runs, seconds)
        second, ok = report_set(
            bench, "set 2", {w: second_runs[w] for w in workloads})
        steady &= ok
        print("== set 1 -> set 2 median change")
        for w in workloads:
            for m in bench["end_to_end"]:
                a, b = first[w][m["name"]], second[w][m["name"]]
                change = (b - a) / a if a else float("inf")
                ok = abs(change) <= m["bound"]
                steady &= ok
                print(f"  {w:<10} {m['name']:<20} {a:<12.6g} -> {b:<12.6g} "
                      f"{change:+7.2%}  bound {m['bound']:.0%}  {'ok' if ok else 'DRIFT'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
