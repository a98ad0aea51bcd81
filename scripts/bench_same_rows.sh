#!/usr/bin/env bash
# Exact-match gate over BENCH_history.jsonl: do two recorded revisions agree,
# digit for digit, on every virtual-time and count row?
#
#   scripts/bench_same_rows.sh <revA> <revB>
#
# Compared: every row of every (workload, seed, trace) line both revisions
# recorded, plus `correct` / `attempted` / `failed` — vt_*, mn_bytes_per_key,
# dm-sim.*_per_op, core.rts.*, core.cp.*, node-engine.pipe_*, *_per_kop,
# race-hash.*, sfc.* ratios and counts, reclaim.*, core.rows_per_scan,
# core.verify_problems, baselines.* — all exact per (workload, seed, seconds).
# Listed, not compared: what the box decides (host clocks, set-up time,
# allocations, resident set, tracing overhead). Prints one
# `workload seed trace metric A B` line per differing row and exits 1 if
# there is any; exits 2 when a revision has no lines or the two share none.
set -euo pipefail
rev_a="${1:?usage: scripts/bench_same_rows.sh <revA> <revB>}"
rev_b="${2:?usage: scripts/bench_same_rows.sh <revA> <revB>}"
history="$(cd "$(dirname "$0")/.." && pwd)/BENCH_history.jsonl"

python3 - "$history" "$rev_a" "$rev_b" <<'PY'
import json
import sys

history, rev_a, rev_b = sys.argv[1:4]


def box_decides(name):
    return (
        "host" in name
        or name == "setup_s"
        or name.startswith("bench.")
        or name == "obs.trace_overhead_frac"
    )


lines = {rev_a: {}, rev_b: {}}
with open(history) as f:
    for raw in f:
        rec = json.loads(raw)
        if rec.get("rev") in lines:
            key = (rec["workload"], rec["seed"], rec["trace"], rec["seconds"])
            lines[rec["rev"]][key] = rec["result"]  # a re-recording wins

shared = sorted(set(lines[rev_a]) & set(lines[rev_b]))
if not shared:
    print(f"no (workload, seed, trace) line recorded for both {rev_a} and {rev_b}", file=sys.stderr)
    sys.exit(2)

differing, listed = 0, set()
for key in shared:
    a, b = lines[rev_a][key], lines[rev_b][key]
    rows = [(k, a.get(k), b.get(k)) for k in ("correct", "attempted", "failed")]
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        if box_decides(name):
            listed.add(name)
            continue
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        rows.append((name, va, vb))
    for name, va, vb in rows:
        if va != vb:
            differing += 1
            print(key[0], f"seed={key[1]}", f"trace={key[2]}", name, va, vb)

print(
    f"{len(shared)} lines compared, {differing} differing rows; "
    f"not compared: {', '.join(sorted(listed))}",
    file=sys.stderr,
)
sys.exit(1 if differing else 0)
PY
