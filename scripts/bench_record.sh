#!/usr/bin/env bash
# Appends one commit's benchmark results to BENCH_history.jsonl: one line per
# (workload, seed in {1, 7}, trace in {0, 1}), each the CLI's result line
# verbatim under the revision label.
#
#   scripts/bench_record.sh <label> [<checkout>]
#
# <label> names the revision (a git short sha, or a label for a tree that is
# not committed yet). <checkout> is the tree whose bench/ is built and run
# (default: this one), so a parent commit cloned elsewhere can be recorded
# into this repository's history file. Uses only existing `sphinx-bench`
# flags and takes ~15 minutes on the 2-core reference box.
set -euo pipefail
label="${1:?usage: scripts/bench_record.sh <label> [<checkout>]}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
checkout="$(cd "${2:-$repo}" && pwd)"
history="$repo/BENCH_history.jsonl"
seconds=5

if [ ! -s "$history" ]; then
    echo '{"note": "one line per (rev, workload, seed, trace); \"result\" is the last stdout line of `sphinx-bench --workload W --seed S --seconds 5 --trace T`, verbatim. Virtual-time rows (vt_*, mn_bytes_per_key) and count rows (dm-sim.*_per_op, core.rts.*, race-hash.*, sfc.* ratios, reclaim.*, bench.allocs_per_op, ...) are exact per (workload, seed, seconds) and comparable digit for digit between revs; host rows (host_ns_per_op, setup_s, *.host_ns, bench.host_*, peak_rss) are whatever the box gave on that run."}' > "$history"
fi

cd "$checkout"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
for workload in ycsb_c_pipe ycsb_a_nicbound write_mix_email ycsb_e_scan hot_update_sched; do
    for seed in 1 7; do
        for trace in 0 1; do
            result="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
                --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
            printf '{"rev": "%s", "workload": "%s", "seed": %d, "seconds": %d, "trace": %d, "result": %s}\n' \
                "$label" "$workload" "$seed" "$seconds" "$trace" "$result" >> "$history"
            echo "recorded $label $workload seed $seed trace $trace" >&2
        done
    done
done
