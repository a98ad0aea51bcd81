//! # bench-harness — regenerates every figure and table of the paper
//!
//! The harness drives the four evaluated systems — **Sphinx**, **SMART**
//! (20 MB cache), **SMART+C** (200 MB cache) and **ART** — through the
//! YCSB workloads of §V on the `dm-sim` substrate, and reports
//! virtual-time throughput and latency plus network-cost counters.
//!
//! Binaries:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4` | Fig. 4 — YCSB throughput, 6 workloads × {u64, email} × 4 systems |
//! | `fig5` | Fig. 5 — throughput–latency scalability curve, YCSB-A |
//! | `fig6` | Fig. 6 + §V-D — MN-side memory usage across datasets |
//! | `sfc_stats` | §III-B — filter false-positive and retry rates |
//! | `ablation` | design ablation: INHT-only vs INHT+SFC round trips/bytes |
//!
//! Every binary accepts `--keys N` and `--ops N` to scale the experiment;
//! defaults are laptop-sized (see EXPERIMENTS.md for the recorded runs).

#![forbid(unsafe_code)]

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
