//! Cluster metrics plane, end to end: conservation of the per-MN ledger
//! against the summed client ledger over real harness runs, byte-stable
//! `sphinx.metrics.v1` exports for same-seed runs, and the health
//! monitor's plumbing through both the runner and the lincheck driver.

use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use bench_harness::{run_scheduled, ExploreConfig, ScheduleMode};
use dm_sim::ScheduleConfig;
use ycsb::{KeySpace, Workload};

fn cfg(workers: usize, depth: usize, sample_interval_ns: u64) -> RunConfig {
    RunConfig {
        keyspace: KeySpace::U64,
        num_keys: 4_000,
        workload: Workload::b(),
        workers,
        ops_per_worker: 800,
        warmup_per_worker: 100,
        seed: 0x4D45_5452,
        pipeline_depth: depth,
        trace_head_every: 0,
        trace_tail_k: 0,
        sample_interval_ns,
        sample_capacity: 128,
    }
}

/// Multi-worker runs conserve exactly at the blocking depth and at depth
/// 8, where round trips from different in-flight ops fuse into shared
/// doorbells that fan out to multiple MNs.
#[test]
fn conservation_holds_multi_worker_at_depths_1_and_8() {
    let handle = System::Sphinx.build(64 << 20, Some(1 << 20));
    load_phase(&handle, KeySpace::U64, 4_000, 4);
    for depth in [1usize, 8] {
        let r = run_phase(&handle, &cfg(4, depth, 0));
        r.metrics
            .conservation()
            .unwrap_or_else(|e| panic!("depth {depth} must conserve: {e}"));
        assert_eq!(r.metrics.health.checks, 4, "all detectors must run");
        assert!(r.metrics.window_ns > 0);
        assert!(
            r.metrics.cluster.mns.iter().map(|m| m.verbs()).sum::<u64>() > 0,
            "measured window must charge MN-side verbs"
        );
    }
}

/// Same-seed single-worker runs (single-threaded preload included — the
/// sampler records cumulative gauges) export byte-identical documents,
/// at depth 1 and depth 8, with sampling on.
#[test]
fn same_seed_exports_are_byte_identical() {
    for depth in [1usize, 8] {
        let export = || {
            let handle = System::Sphinx.build(64 << 20, Some(1 << 20));
            load_phase(&handle, KeySpace::U64, 4_000, 1);
            let r = run_phase(&handle, &cfg(1, depth, 2_000));
            r.metrics.to_json()
        };
        let (a, b) = (export(), export());
        assert_eq!(
            a, b,
            "depth-{depth} same-seed export must be byte-identical"
        );
        // And it round-trips through the in-tree parser.
        let doc = obs::json::parse(&a).expect("metrics export must parse");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(obs::METRICS_SCHEMA)
        );
        assert_eq!(doc.get("conserved").and_then(|v| v.as_u64()), Some(1));
        // This crate always builds bench-harness with default features,
        // so the sampler is compiled in and must have produced rows.
        assert!(
            doc.get("samples").is_some(),
            "sampling on must export rows with telemetry enabled"
        );
    }
}

/// The lincheck driver closes its own conservation window (preload plus
/// every scheduled worker) and stamps the health verdict into the merged
/// registry of the run output.
#[test]
fn lincheck_runs_carry_conserved_metrics() {
    let cfg = ExploreConfig {
        workload_seed: 0x4D45_5452,
        tear_hook: false,
        ..ExploreConfig::smoke(System::Sphinx, 3, 24, 40)
    };
    let out = run_scheduled(&cfg, ScheduleMode::Record(ScheduleConfig::adversarial(7)));
    assert!(out.outcome.is_linearizable(), "baseline schedule must pass");
    out.metrics
        .conservation()
        .expect("lincheck window must conserve");
    assert_eq!(out.metrics.health.checks, 4);
    assert_eq!(
        out.telemetry.counter("health.checks"),
        4,
        "verdict must be stamped into the merged registry"
    );
    assert!(out.metrics.window_ns > 0);
}
