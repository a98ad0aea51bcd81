//! Lincheck sweep over the pipelined op scheduler: the batched-read slice
//! of the mix runs through `multi_get_pipelined` at depths 1/4/8 under
//! adversarial lock-step schedules, and the history must stay
//! linearizable and bit-for-bit reproducible — the determinism contract
//! of the completion-queue layer (under a schedule, fused flushing
//! degrades to per-batch legacy execution precisely so that grant order
//! stays a pure function of the seed).
//!
//! Depth independence is asserted at the facade level: same system, same
//! keys, `multi_get_pipelined` at depths 1 and 8 must return the same
//! values in the same logical round trips, and depth 1 — what a blocking
//! op drives — must ring one doorbell per round trip.

use bench_harness::{run_scheduled, ExploreConfig, ScheduleMode, System};
use dm_sim::ScheduleConfig;
use lincheck::CheckConfig;
use ycsb::KeySpace;

fn cfg(system: System, depth: usize) -> ExploreConfig {
    ExploreConfig {
        pipeline_depth: depth,
        check: CheckConfig::default(),
        ..ExploreConfig::smoke(system, 3, 16, 200)
    }
}

// SMART stays out of scheduled sweeps until ROADMAP item 1(f) is fixed.
#[test]
fn pipelined_histories_stay_linearizable_and_deterministic() {
    for system in [System::Sphinx, System::Art, System::BpTree] {
        for depth in [1usize, 4, 8] {
            for seed in [7u64, 21] {
                let mode = ScheduleMode::Record(ScheduleConfig::adversarial(seed));
                let a = run_scheduled(&cfg(system, depth), mode.clone());
                assert!(
                    a.outcome.is_linearizable(),
                    "{} depth {depth} seed {seed}: {:?}",
                    system.label(),
                    a.outcome
                );
                let b = run_scheduled(&cfg(system, depth), mode);
                assert!(b.outcome.is_linearizable());
                assert_eq!(
                    a.history.digest(),
                    b.history.digest(),
                    "{} depth {depth} seed {seed}: reruns must be byte-identical",
                    system.label()
                );
                assert_eq!(a.trace, b.trace);
            }
        }
    }
}

#[test]
fn pipelined_replay_reproduces_the_recorded_history() {
    let c = cfg(System::Sphinx, 8);
    let rec = run_scheduled(&c, ScheduleMode::Record(ScheduleConfig::adversarial(5)));
    assert!(rec.outcome.is_linearizable(), "{:?}", rec.outcome);
    let rep = run_scheduled(&c, ScheduleMode::Replay(rec.trace.clone()));
    assert_eq!(rec.history.digest(), rep.history.digest());
    assert_eq!(rec.trace, rep.trace);
}

#[test]
fn depth_changes_doorbells_never_results_or_round_trips() {
    for system in [
        System::Sphinx,
        System::Smart,
        System::SmartC,
        System::Art,
        System::BpTree,
    ] {
        let handle = system.build(64 << 20, Some(1 << 20));
        let mut w = handle.worker(0);
        let n = 400u64;
        for i in 0..n {
            w.insert(&KeySpace::U64.key(i), &ycsb::value_for(i, 0));
        }
        // Mix of present and absent keys, striped so consecutive lookups
        // hit different MNs.
        let keys: Vec<Vec<u8>> = (0..n + 50)
            .map(|i| KeySpace::U64.key(i.wrapping_mul(17) % (n + 25)))
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

        // One get each first: teaches the filter cache (and fills SMART's
        // node cache), so both depths below take the same paths.
        let alone: Vec<Option<Vec<u8>>> = refs.iter().map(|k| w.get(k)).collect();
        let base = w.net_stats();
        let d1 = w.multi_get_pipelined(&refs, 1);
        let net1 = w.net_stats().since(&base);
        assert_eq!(alone, d1, "{}: depth 1 diverged", system.label());
        assert_eq!(
            net1.round_trips,
            net1.doorbells,
            "{}: depth 1 must not fuse doorbells",
            system.label()
        );

        let base = w.net_stats();
        let d8 = w.multi_get_pipelined(&refs, 8);
        let net8 = w.net_stats().since(&base);
        assert_eq!(d1, d8, "{}: depth 8 diverged", system.label());
        assert!(net8.doorbells < net1.doorbells, "{}", system.label());
        // The amortized reclamation scan is the one round trip that may
        // fall into one window and not the other.
        assert!(
            net8.round_trips.abs_diff(net1.round_trips) <= 1,
            "{}: {} round trips at depth 8, {} at depth 1",
            system.label(),
            net8.round_trips,
            net1.round_trips
        );
    }
}
