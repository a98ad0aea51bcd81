//! Shared scaffolding for the CI smoke binaries.
//!
//! Every smoke check (`telemetry_smoke`, `pipeline_smoke`, `trace_smoke`,
//! `metrics_smoke`, and the raw-cluster half of `sfc_smoke`) used to carry
//! its own copy of the cluster-build / preload / `RunConfig` boilerplate,
//! and the copies drifted. This module is the single source of the two
//! canonical smoke shapes:
//!
//! * the **fig4 YCSB-C short config** ([`ycsb_c_config`]) — 10k keys,
//!   8 workers × 1 500 ops, the shape the pipeline, trace, and metrics
//!   smokes all measure against; and
//! * the **YCSB-A telemetry config** ([`ycsb_a_config`]) — a smaller
//!   write-heavy mix for exercising the exporter.
//!
//! Sampling knobs default to *off* in both; a smoke that wants tracing or
//! time-series sampling flips the fields it needs on its copy.

use crate::runner::{load_phase, RunConfig};
use crate::systems::{System, SystemHandle};
use dm_sim::{ClusterConfig, DmCluster};
use ycsb::{KeySpace, Workload};

/// Key count for the fig4 YCSB-C short config.
pub const YCSB_C_KEYS: u64 = 10_000;

/// Key count for the YCSB-A telemetry config.
pub const YCSB_A_KEYS: u64 = 3_000;

/// Builds `system` with the standard smoke memory shape (64 MiB heap,
/// 1 MiB SFC budget) and preloads `keys` U64 keys with `load_workers`
/// parallel loaders.
pub fn build_loaded(system: System, keys: u64, load_workers: usize) -> SystemHandle {
    let handle = system.build(64 << 20, Some(1 << 20));
    load_phase(&handle, KeySpace::U64, keys, load_workers);
    handle
}

/// A raw 3-MN / 3-CN cluster for smokes that drive `dm-sim` directly
/// (health-control fixtures, SFC warm-start) rather than through a
/// [`System`].
pub fn smoke_cluster() -> DmCluster {
    DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity: 1 << 30,
        ..Default::default()
    })
}

/// The fig4 YCSB-C short config at a given pipeline depth. Tracing and
/// time-series sampling are off; callers flip what they measure.
pub fn ycsb_c_config(keys: u64, depth: usize) -> RunConfig {
    RunConfig {
        keyspace: KeySpace::U64,
        num_keys: keys,
        workload: Workload::c(),
        workers: 8,
        ops_per_worker: 1_500,
        warmup_per_worker: 300,
        seed: 0x0051_400C_u64,
        pipeline_depth: depth,
        trace_head_every: 0,
        trace_tail_k: 0,
        sample_interval_ns: 0,
        sample_capacity: 0,
    }
}

/// The write-heavy YCSB-A config the telemetry smoke exports from.
pub fn ycsb_a_config(keys: u64) -> RunConfig {
    RunConfig {
        keyspace: KeySpace::U64,
        num_keys: keys,
        workload: Workload::a(),
        workers: 4,
        ops_per_worker: 500,
        warmup_per_worker: 100,
        seed: 0x51_0CE,
        pipeline_depth: 1,
        trace_head_every: 0,
        trace_tail_k: 0,
        sample_interval_ns: 0,
        sample_capacity: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_have_sampling_off() {
        let c = ycsb_c_config(YCSB_C_KEYS, 1);
        assert_eq!(c.trace_tail_k, 0);
        assert_eq!(c.sample_interval_ns, 0);
        let a = ycsb_a_config(YCSB_A_KEYS);
        assert_eq!(a.trace_tail_k, 0);
        assert_eq!(a.sample_interval_ns, 0);
    }

    #[test]
    fn smoke_cluster_shape() {
        let c = smoke_cluster();
        assert_eq!(c.config().num_mns, 3);
        assert_eq!(c.config().num_cns, 3);
    }
}
