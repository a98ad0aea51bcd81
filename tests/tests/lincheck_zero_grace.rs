//! Negative control for epoch-based reclamation: with the grace period
//! switched off, retired regions are freed the moment they are unlinked,
//! so a delayed reader holding the old address can be served recycled
//! memory that decodes as a perfectly valid — but wrong — leaf. The
//! linearizability checker must catch that as a violation; if this test
//! fails, clean reclamation sweeps elsewhere prove nothing.
//!
//! This lives in its own integration-test binary on purpose: the
//! zero-grace switch ([`reclaim::set_zero_grace`]) is process-wide, and
//! sharing a process with tests that assume grace-period protection
//! would race it.

use bench_harness::{run_scheduled, shrink_failing_trace, ExploreConfig, ScheduleMode, System};
use dm_sim::ScheduleConfig;
use lincheck::CheckConfig;

#[test]
fn zero_grace_reclamation_is_caught_as_a_violation() {
    assert!(
        !reclaim::zero_grace(),
        "grace period expected on by default"
    );
    reclaim::set_zero_grace(true);

    // The explorer's CI-scale negative config: a hot 8-key space so
    // freed leaf regions are re-allocated quickly, full adversarial
    // matrix. Pinned seed — the run is deterministic, so this is a
    // stable reproduction, not a roll of the dice. (Under other seeds
    // the recycled region instead poisons a traversal and panics the
    // worker — also a caught defect, but this test pins the wrong-value
    // path the checker exists for.) Seed 28 → 194 when `Op::MultiGet`
    // moved from the lock-step `multi_get` (three batches) to one lookup
    // machine per key (three batches per key): every schedule that
    // contains a multi-get shifted, and 28 stopped serving a recycled
    // region. Found by sweeping seeds 1–900 (194 and 576 qualified).
    // Seed 194 → 576 when `remove` stopped tombstoning a leaf it observed
    // `Locked` (it backs off and looks again): every schedule in which a
    // delete meets an in-place update shifted, and on 194 no reader is
    // served a recycled region any more. Swept 1–900 again: 576 alone
    // still violates without the grace period and is clean with it.
    const SEED: u64 = 576;
    let cfg = ExploreConfig {
        check: CheckConfig::default(),
        ..ExploreConfig::smoke(System::Sphinx, 3, 8, 600)
    };
    let out = run_scheduled(
        &cfg,
        ScheduleMode::Record(ScheduleConfig::adversarial(SEED)),
    );
    assert!(
        !out.outcome.is_linearizable(),
        "checker failed to catch use-after-free serving"
    );

    // The shrinker must hand back a failing prefix no longer than the
    // original trace, and replaying it must still fail — the
    // reproduction path a real bug report would take.
    let (minimal, failing) = shrink_failing_trace(&cfg, &out.trace);
    assert!(minimal.len() <= out.trace.len());
    assert!(!failing.outcome.is_linearizable());

    // With the grace period restored, the same schedule seed is clean:
    // the violation was the missing grace period's fault, not the
    // checker crying wolf.
    reclaim::set_zero_grace(false);
    let clean = run_scheduled(
        &cfg,
        ScheduleMode::Record(ScheduleConfig::adversarial(SEED)),
    );
    assert!(clean.outcome.is_linearizable(), "{:?}", clean.outcome);

    // The pipelined op scheduler must not blunt the control: ops parked
    // in pipeline slots hold their own pins, so with the grace period
    // off a recycled region must still be served to some pipelined
    // reader and caught by the checker. A 4-key space (hotter than the
    // blocking control's 8 — pipelined multi-gets resolve in fewer
    // virtual rounds, so the reader's capture-to-read window is
    // narrower and needs faster region recycling to be hit) with a
    // pinned seed deterministically serves the wrong value at depth 8;
    // the same schedule seed is clean once the grace period is back.
    // Seed 15 → 29 with the `remove` change above (sweep 1–600: 29, 65,
    // 74, 156, 282, 468, 485, 486, 500, 582 and 589 qualify).
    const SEED8: u64 = 29;
    reclaim::set_zero_grace(true);
    let cfg8 = ExploreConfig {
        pipeline_depth: 8,
        check: CheckConfig::default(),
        ..ExploreConfig::smoke(System::Sphinx, 3, 4, 600)
    };
    let out8 = run_scheduled(
        &cfg8,
        ScheduleMode::Record(ScheduleConfig::adversarial(SEED8)),
    );
    assert!(
        !out8.outcome.is_linearizable(),
        "use-after-free left no trace with pipelining enabled"
    );
    reclaim::set_zero_grace(false);
    let clean8 = run_scheduled(
        &cfg8,
        ScheduleMode::Record(ScheduleConfig::adversarial(SEED8)),
    );
    assert!(clean8.outcome.is_linearizable(), "{:?}", clean8.outcome);
}
