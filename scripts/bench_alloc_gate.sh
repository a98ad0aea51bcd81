#!/usr/bin/env bash
# Host-cost gate a shared box can run: `bench.allocs_per_op` is exact per
# (workload, seed, seconds), where its clocks are not. Runs each workload at
# `--seed 1 --seconds 1 --trace 1` and fails when a row exceeds its ceiling
# (docs/TESTING.md lists the measured values beside them).
#
#   scripts/bench_alloc_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
failed=0
while read -r workload ceiling; do
    allocs="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1 |
        python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"]["bench.allocs_per_op"]["value"])')"
    if python3 -c "import sys; sys.exit(0 if $allocs <= $ceiling else 1)"; then
        echo "ok   $workload bench.allocs_per_op $allocs <= $ceiling"
    else
        echo "FAIL $workload bench.allocs_per_op $allocs > $ceiling"
        failed=1
    fi
done <<'CEILINGS'
ycsb_c_pipe 14
ycsb_a_nicbound 20
write_mix_email 24
ycsb_e_scan 140
hot_update_sched 23
CEILINGS
exit "$failed"
