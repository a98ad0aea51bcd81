#!/usr/bin/env bash
# Parent-vs-change A/B of one workload's end-to-end metrics, the way a
# host-clock claim is judged: alternating pairs of the two built binaries.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [seed=1]
#
# Builds <parent-rev> (exported with `git archive` into a temporary
# directory) and the working tree, each with `--manifest-path
# bench/Cargo.toml`, and copies each binary right after its build. Then runs
# <pairs> pairs at `--seed <seed> --seconds 5 --trace 0`, alternating which
# side runs first. For every end-to-end metric of BENCHMARK.json it prints
# both sides' median [q1, q3], the pairs the change won (ties count for
# neither) and a verdict:
#
#   gain        the change won >= 9/10 of the pairs and the medians differ by
#               more than the parent's quartile distance
#   within      the change's median is no worse than the parent's by more
#               than the metric's bound
#   WORSE       it is worse by more than the bound
#   unresolved  a side's quartile distance exceeds the bound (as a share of
#               its median) and the change does not beat the parent on every
#               run
#   same        every run of both sides read the same value
#
# then every pair's two values, and each side's failed/attempted operations.
# Ten pairs take 4–5 minutes on the 2-core reference box, plus two builds.
set -euo pipefail
usage="usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [seed=1]"
parent="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seed="${4:-1}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# Build <tree>'s benchmark and copy the binary this build wrote to <dest>
# (the target directory depends on the working directory: see SKILL.md).
build() {
    (cd "$1" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path bench/Cargo.toml)
    cp "$1/bench/target/release/sphinx-bench" "$2"
}
mkdir "$work/tree"
git -C "$repo" archive "$parent" | tar -x -C "$work/tree"
build "$work/tree" "$work/parent"
build "$repo" "$work/change"

run() {
    (cd "$work" && "./$1" --workload "$workload" --seed "$seed" --seconds 5 --trace 0 |
        tail -n 1) >> "$work/$1.jsonl"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run parent; run change; else run change; run parent; fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$repo/BENCHMARK.json" "$work" "$parent" "$workload" "$seed" <<'PY'
import json
import statistics
import sys

bench_json, work, parent, workload, seed = sys.argv[1:6]
with open(bench_json) as f:
    metrics = json.load(f)["end_to_end"]
sides = {}
for side in ("parent", "change"):
    with open(f"{work}/{side}.jsonl") as f:
        sides[side] = [json.loads(line) for line in f]

print(f"{workload} seed {seed}: {len(sides['parent'])} pairs, parent {parent} vs working tree")
for m in metrics:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(b, a) for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
    worse_by = (pm - cm) / pm if higher else (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm) if pm and cm else 0.0
    if len(set(p) | set(c)) == 1:
        verdict = "same"
    elif wins * 10 >= 9 * len(p) and abs(cm - pm) > p3 - p1 and worse_by < 0:
        verdict = "gain"
    elif spread > bound and not all(better(b, a) for a in p for b in c):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "WORSE"
    else:
        verdict = "within"
    print(
        f"  {name:<16} parent {pm:>14.4f} [{p1:.4f}, {p3:.4f}]"
        f"  change {cm:>14.4f} [{c1:.4f}, {c3:.4f}]"
        f"  {0.0 - worse_by * 100:+6.1f}% better  wins {wins}/{len(p)}  {verdict}"
    )
    if verdict != "same":
        print("    pairs (parent/change): " + " ".join(f"{a:.6g}/{b:.6g}" for a, b in zip(p, c)))
for side, runs in sides.items():
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"  failed {side}: {failed} of {attempted} ({'correct' if correct else 'INCORRECT'})")
PY
