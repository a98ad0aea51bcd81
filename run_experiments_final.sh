#!/bin/bash
# Final recorded experiment suite (EXPERIMENTS.md source data).
set -x
cd "$(dirname "$0")"
mkdir -p results/logs
K=200000
./target/release/fig6 --keys $K                                  2>&1 | tee results/logs/fig6.log
./target/release/sfc_stats --keys $K --ops 50000                 2>&1 | tee results/logs/sfc_stats.log
./target/release/whatif_cxl --keys $K --ops 1500 --workers 24    2>&1 | tee results/logs/whatif_cxl.log
./target/release/fig4 --keys $K --ops 1500 --workers 96          2>&1 | tee results/logs/fig4.log
./target/release/fig5 --keys $K --total-ops 36000                2>&1 | tee results/logs/fig5.log
./target/release/btree_compare --keys 60000 --ops 600 --workers 24 2>&1 | tee results/logs/btree_compare.log
echo FINAL-SUITE-DONE
