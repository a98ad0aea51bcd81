#!/bin/bash
# Final recorded experiment suite (EXPERIMENTS.md source data).
set -x
cd "$(dirname "$0")"
mkdir -p results/logs
K=200000
FIGS=./target/release/figs
$FIGS fig6 --keys $K                                     2>&1 | tee results/logs/fig6.log
$FIGS sfc-stats --keys $K --ops 50000                    2>&1 | tee results/logs/sfc_stats.log
$FIGS whatif-cxl --keys $K --ops 1500 --workers 24       2>&1 | tee results/logs/whatif_cxl.log
$FIGS fig4 --keys $K --ops 1500 --workers 96             2>&1 | tee results/logs/fig4.log
$FIGS fig5 --keys $K --total-ops 36000                   2>&1 | tee results/logs/fig5.log
$FIGS btree-compare --keys 60000 --ops 600 --workers 24  2>&1 | tee results/logs/btree_compare.log
echo FINAL-SUITE-DONE
