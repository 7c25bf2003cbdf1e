#!/usr/bin/env bash
# Alternating A/B pairs of the repo benchmark: a base revision against the
# working tree.
#
#   scripts/perf_pairs.sh <rev> <workload>[,<workload>...] <pairs> [seconds]
#
# Builds perfbench at <rev> (a `git archive` export in a temp directory,
# so nothing is added to the repository's worktree list) and at the
# working tree, then, for each listed workload in turn (e.g.
# `pack,cold-read,serve`), runs <pairs> pairs of `--workload <workload>`
# for [seconds] each (default: BENCHMARK.json's run_seconds) and prints
# that workload's table as soon as its pairs are done. Pair i runs both
# sides on seed i; the side that runs first alternates from pair to pair,
# so a slow drift of the host favours neither. Prints, per end-to-end
# metric, each side's median and quartiles and how many pairs the change
# won (strictly better in the metric's BENCHMARK.json direction), plus
# each side's failed/attempted ops. Nothing under perfbench/ is modified;
# the temp directory is removed at exit (TMPDIR picks where it goes).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <rev> <workload>[,<workload>...] <pairs> [seconds]" >&2
    exit 2
fi
rev=$1 workloads=$2 pairs=$3
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "unknown revision: $rev" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$rev" | tar -x -C "$work/base"

echo "building perfbench at $rev and at the working tree" >&2
cargo build --release --quiet --manifest-path "$work/base/perfbench/Cargo.toml" \
    --target-dir "$work/target"
change_target=${CARGO_TARGET_DIR:-perfbench/target}
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --target-dir "$change_target"
base_bin=$work/target/release/perfbench
change_bin=$(cd "$change_target" && pwd)/release/perfbench

run() { # side bin dir seed
    (cd "$3" && "$2" --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0) |
        tail -n 1 >>"$work/$workload.$1.jsonl"
}
report() {
    python3 - "$work/$workload.base.jsonl" "$work/$workload.change.jsonl" "$rev" "$workload" <<'EOF'
import json
import statistics
import sys

base_path, change_path, rev, workload = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
base = [json.loads(line) for line in open(base_path)]
change = [json.loads(line) for line in open(change_path)]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


print(f"{workload}: {len(base)} pairs, base {rev} vs working tree")
for side, runs in (("base", base), ("change", change)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"  {side:<6} failed {failed}/{attempted}")
print(f"  {'metric':<18} {'base q1/median/q3':>38}   {'change q1/median/q3':>38}   wins")
for m in bench["end_to_end"]:
    name = m["name"]
    a = [r["metrics"][name]["value"] for r in base]
    b = [r["metrics"][name]["value"] for r in change]
    lower = m["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    fa = "/".join(f"{v:.4g}" for v in quartiles(a))
    fb = "/".join(f"{v:.4g}" for v in quartiles(b))
    print(f"  {name:<18} {fa:>38}   {fb:>38}   {wins}/{len(a)}")
EOF
}

IFS=, read -ra workload_list <<<"$workloads"
for workload in "${workload_list[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$base_bin" "$work/base" "$i"
            run change "$change_bin" . "$i"
        else
            run change "$change_bin" . "$i"
            run base "$base_bin" "$work/base" "$i"
        fi
        echo "$workload: pair $i/$pairs done" >&2
    done
    report
done
