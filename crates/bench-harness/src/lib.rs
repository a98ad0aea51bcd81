//! # bench-harness — regenerates every figure and table of the paper
//!
//! The harness drives the four evaluated systems — **Sphinx**, **SMART**
//! (20 MB cache), **SMART+C** (200 MB cache) and **ART** — through the
//! YCSB workloads of §V on the `dm-sim` substrate, and reports
//! virtual-time throughput and latency plus network-cost counters.
//!
//! Binaries:
//!
//! | binary | what it runs |
//! |---|---|
//! | `figs <figure>...` | the figures ([`figs`]): `fig4` (Fig. 4, YCSB A–E + LOAD × {u64, email} × 4 systems), `fig4-pipeline` (YCSB-C at depths 1 and 8, every system), `fig5` (Fig. 5, YCSB-A worker ladder), `fig6` (Fig. 6 + §V-D, MN memory), `fig6-reclaim` (memory under churn ± reclamation), `ablation` (INHT-only vs INHT+SFC vs ART), `btree-compare` (the B+-tree on u64 keys), `whatif-cxl` (CXL-class costs), `sfc-stats` (§III-B filter statistics), or `all` |
//! | `smoke [contract...]` | the CI smoke contracts ([`smoke`]): `telemetry`, `pipeline`, `trace`, `metrics`, `sfc` |
//! | `lincheck_explorer` | seed × fault-matrix linearizability sweeps ([`lincheck_driver`]) |
//!
//! Each figure takes `--keys N` and whichever of `--ops`, `--workers`,
//! `--total-ops`, `--dataset`, `--rounds` it scales by; defaults are
//! laptop-sized (see EXPERIMENTS.md for the recorded runs). Every command
//! parses its flags strictly ([`report::Args`]): a typo exits 2.

#![forbid(unsafe_code)]

pub mod figs;
pub mod gate;
pub mod lincheck_driver;
pub mod report;
pub mod runner;
pub mod smoke;
pub mod systems;

pub use lincheck_driver::{
    apply_op, apply_op_pipelined, failure_report, run_scheduled, run_scheduled_on,
    shrink_failing_trace, ExploreConfig, RunOutput, ScheduleMode, TornLeafHook,
};
pub use runner::{load_phase, run_phase, RunConfig, RunResult};
pub use systems::{System, SystemHandle, WorkerClient};
