//! # obs — phase-attributed telemetry for the Sphinx reproduction
//!
//! Sphinx's whole argument is a round-trip budget: an SFC hit costs one
//! hash-entry read, a miss costs Θ(L) INHT reads, and the fallback walks
//! root-to-leaf. This crate makes that budget *observable* per operation:
//!
//! * [`Recorder`] — a per-worker span API. Callers bracket each op with
//!   `begin`/`end` and mark transitions with `phase`, passing the client's
//!   cumulative [`ClientStats`](dm_sim::ClientStats) and virtual clock at
//!   each boundary; the recorder attributes the deltas so round trips,
//!   verbs, and bytes sum up per ([`OpKind`], [`Phase`]).
//! * [`Registry`] — the mergeable aggregate: per-op-kind latency
//!   histograms (reusing [`dm_sim::LatencyHistogram`]), the per-phase
//!   attribution table, named domain counters (SFC hit/miss/eviction,
//!   INHT fingerprint collisions, retries, fault injections, lock spins,
//!   the pipelined scheduler's `pipeline.*`), and JSON export.
//! * [`Tracer`] — always-on, tail-sampled *causal* tracing. A sampled op
//!   carries an [`OpTrace`] through its lookup's awaits, recording every
//!   causal edge (admission, submit, doorbell flush with fusion
//!   membership, per-MN completion, phase transitions, retries, reclaim
//!   pin/unpin); [`critical_path`] decomposes the op's latency into
//!   queueing / fusion-wait / NIC-service / scheduler-stall / CN-compute
//!   segments that sum *exactly* to the end-to-end latency, and
//!   [`export_chrome`] renders retained traces as Perfetto-viewable
//!   Chrome trace-event JSON (schema [`TRACE_SCHEMA`]). Its tail — each
//!   worker's slowest and most-retried ops — is the record of individual
//!   slow ops.
//! * **Cluster metrics plane** — the server-side view. [`Sampler`] rings
//!   capture per-MN gauges at op-boundary intervals on the virtual clock,
//!   [`evaluate_health`] runs anomaly detectors (MN load imbalance, retry
//!   storms, SFC FP-rate regression, reclaim stalls) over a window's
//!   [`ClusterStats`](dm_sim::ClusterStats), and [`MetricsReport`] exports
//!   everything — including the client-vs-server conservation ledger — as
//!   byte-stable [`METRICS_SCHEMA`] JSON plus a sparkline text dashboard.
//!
//! ## Cost model
//!
//! The recorder holds plain counters and two pre-sized arrays; the happy
//! path allocates nothing and never touches the simulation clock or the
//! transport counters (it only *reads* snapshots the caller passes in), so
//! recording cannot perturb measured round trips, bytes, or virtual time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
pub mod json;
mod metrics;
mod recorder;
mod registry;
mod sampler;
mod span;
pub mod trace;

pub use health::{evaluate_health, HealthFinding, HealthReport};
pub use metrics::{sparkline, MetricsReport, METRICS_SCHEMA};
pub use recorder::Recorder;
pub use registry::{OpAgg, Registry, SCHEMA};
pub use sampler::Sampler;
pub use span::{OpKind, Phase, PhaseAgg, NUM_OP_KINDS, NUM_PHASES};
pub use trace::{
    critical_path, export_chrome, CriticalPath, OpEvent, OpTrace, TraceId, Tracer, DEFAULT_TAIL_K,
    TRACE_SCHEMA,
};
