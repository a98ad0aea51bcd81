#!/usr/bin/env bash
# Build the benchmark and run all five workloads, untraced then traced, each
# in its own process. Extra arguments go to `sphinx-bench all`
# (--seed N, --seconds S). Writes only under bench/out/ (and the cargo
# target directory).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
target_dir="${CARGO_TARGET_DIR:-../target}"
exec "$target_dir/release/sphinx-bench" all "$@"
