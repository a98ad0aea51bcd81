//! Lincheck sweep with SFC generation rebuilds forced *inside* the
//! adversarial schedules: the index is built with
//! `SfcConfig::rebuild_delta_threshold = 1`, which arms a rebuild after
//! every delta insert (a lincheck-sized key space teaches too few
//! prefixes to cross the auto threshold), so generation swaps race the
//! concurrent probes, inserts, and deletes the schedule interleaves.
//!
//! The key space is 256 u64 keys rather than the usual smoke 16: u64
//! keys are high-entropy bytes, and the filter only learns *inner-node*
//! prefixes, so the space must be big enough for first-byte collisions
//! to split leaves into inner nodes. At 16 keys the tree is flat and no
//! prefix is ever published; at 256 the birthday bound guarantees
//! dozens of splits.
//! Histories must stay linearizable and bit-for-bit reproducible at
//! pipeline depths 1 and 8 — the never-torn-generation contract of
//! `sfc::FilterCache`.

use bench_harness::{
    run_scheduled_on, ExploreConfig, RunOutput, ScheduleMode, System, SystemHandle,
};
use dm_sim::{ClusterConfig, DmCluster, ScheduleConfig};
use lincheck::CheckConfig;
use sphinx::{sfc::SfcConfig, SphinxConfig, SphinxIndex};

fn cfg(depth: usize) -> ExploreConfig {
    ExploreConfig {
        pipeline_depth: depth,
        check: CheckConfig::default(),
        ..ExploreConfig::smoke(System::Sphinx, 3, 256, 200)
    }
}

/// The lincheck driver's default system (3 CNs + 3 MNs of 64 MiB, 1 MiB of
/// filter cache) with a rebuild armed after every delta insert.
fn run_scheduled(cfg: &ExploreConfig, mode: ScheduleMode) -> RunOutput {
    let cluster = DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity: 64 << 20,
        ..Default::default()
    });
    let config = SphinxConfig {
        cache_bytes: 1 << 20,
        sfc: SfcConfig {
            rebuild_delta_threshold: 1,
            ..SfcConfig::default()
        },
        ..SphinxConfig::default()
    };
    let index = SphinxIndex::create(&cluster, config).expect("create sphinx");
    run_scheduled_on(&SystemHandle::Sphinx(index), cfg, mode)
}

#[test]
fn rebuilds_firing_mid_schedule_stay_linearizable_and_deterministic() {
    for depth in [1usize, 8] {
        for seed in [3u64, 11] {
            let mode = ScheduleMode::Record(ScheduleConfig::adversarial(seed));
            let a = run_scheduled(&cfg(depth), mode.clone());
            assert!(
                a.outcome.is_linearizable(),
                "depth {depth} seed {seed}: {:?}",
                a.outcome
            );
            let rebuilds = a.telemetry.counter("sfc.gen.rebuilds");
            assert!(
                rebuilds > 0,
                "depth {depth} seed {seed}: no rebuild fired inside the schedule — \
                 the sweep is not testing generation swaps"
            );
            // Rebuild timing is driven by op boundaries, which are
            // schedule steps: a rerun under the same trace must produce
            // the identical history even with generations swapping.
            let b = run_scheduled(&cfg(depth), mode);
            assert!(b.outcome.is_linearizable());
            assert_eq!(
                a.history.digest(),
                b.history.digest(),
                "depth {depth} seed {seed}: reruns with rebuilds must be byte-identical"
            );
            assert_eq!(a.trace, b.trace);
        }
    }
}
