//! Health/anomaly monitor: pluggable detectors over a run's metrics.
//!
//! [`evaluate_health`] inspects a window's server-side
//! [`ClusterStats`](dm_sim::ClusterStats) and the merged [`Registry`] and
//! runs every detector, producing a [`HealthReport`] of counted,
//! **non-fatal** findings plus a final verdict. Detectors use integer
//! arithmetic only, so the same inputs always produce byte-identical
//! reports. Findings are also stamped into the registry as `health.*`
//! counters ([`HealthReport::stamp`]) so they travel with the normal
//! telemetry export.
//!
//! Current detectors:
//!
//! | detector | fires when |
//! |---|---|
//! | `mn_imbalance` | hottest MN's verb count exceeds `ratio × mean` |
//! | `retry_storm` | op retries per 1000 completed ops exceed threshold |
//! | `sfc_fp_regression` | SFC false positives per 1000 lookups exceed threshold |
//! | `reclaim_stall` | blocks were retired but nothing freed and no epoch ever advanced |

use dm_sim::ClusterStats;

use crate::registry::Registry;

// Detector thresholds. Ratios are integers (per-cent x100 or per-mille)
// so evaluation is deterministic.

/// `mn_imbalance` fires when the hottest MN serves more than this × 100
/// of the mean MN's verbs (2.5×).
const IMBALANCE_RATIO_X100: u64 = 250;
/// Total verbs a window needs before imbalance is judged (tiny windows
/// are all noise).
const IMBALANCE_MIN_VERBS: u64 = 1_000;
/// `retry_storm` fires above this many retries per 1000 completed ops.
const RETRY_PER_MILLE: u64 = 200;
/// Completed ops a window needs before its retry rate is judged.
const RETRY_MIN_OPS: u64 = 100;
/// `sfc_fp_regression` fires above this many false positives per 1000
/// SFC lookups.
const SFC_FP_PER_MILLE: u64 = 50;
/// SFC lookups a window needs before its false-positive rate is judged.
const SFC_MIN_LOOKUPS: u64 = 1_000;

/// One tripped detector: what fired, the observed value, and the
/// threshold it crossed (units are detector-specific and spelled out in
/// the message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthFinding {
    /// Stable detector name (`mn_imbalance`, `retry_storm`,
    /// `sfc_fp_regression`, `reclaim_stall`).
    pub detector: &'static str,
    /// Human-readable description with the numbers inline.
    pub message: String,
    /// The observed value that crossed the threshold.
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
}

/// The health monitor's output: every detector that ran, every finding
/// that fired. Findings are diagnostics, never failures — a degraded
/// verdict is information for the operator (or the resharding policy),
/// not an abort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Number of detectors evaluated (a detector skipped for lack of
    /// data — e.g. too few ops — still counts as evaluated).
    pub checks: u64,
    /// Detectors that fired, in fixed evaluation order.
    pub findings: Vec<HealthFinding>,
}

impl HealthReport {
    /// True when no detector fired.
    pub fn healthy(&self) -> bool {
        self.findings.is_empty()
    }

    /// The final verdict string used in reports.
    pub fn verdict(&self) -> &'static str {
        if self.healthy() {
            "healthy"
        } else {
            "degraded"
        }
    }

    /// Whether a specific detector fired.
    pub fn fired(&self, detector: &str) -> bool {
        self.findings.iter().any(|f| f.detector == detector)
    }

    /// Stamps the report into a registry as counted `health.*` events:
    /// `health.checks`, `health.findings`, and one `health.<detector>`
    /// counter per firing.
    pub fn stamp(&self, reg: &mut Registry) {
        reg.add("health.checks", self.checks);
        reg.add("health.findings", self.findings.len() as u64);
        for f in &self.findings {
            // Detector names are a closed set, so the interned keys stay
            // bounded.
            reg.add(
                match f.detector {
                    "mn_imbalance" => "health.mn_imbalance",
                    "retry_storm" => "health.retry_storm",
                    "sfc_fp_regression" => "health.sfc_fp_regression",
                    "reclaim_stall" => "health.reclaim_stall",
                    _ => "health.other",
                },
                1,
            );
        }
    }
}

/// Runs every detector over a window's cluster stats and merged registry.
pub fn evaluate_health(cluster: &ClusterStats, reg: &Registry) -> HealthReport {
    let mut report = HealthReport::default();

    // MN load imbalance: hottest node vs the mean, by verb count.
    report.checks += 1;
    let total_verbs = cluster.total_verbs();
    let n = cluster.mns.len() as u64;
    if n > 1 && total_verbs >= IMBALANCE_MIN_VERBS {
        let max = cluster.mns.iter().map(|m| m.verbs()).max().unwrap_or(0);
        let mean = total_verbs / n;
        if max * 100 > mean * IMBALANCE_RATIO_X100 {
            let hot = cluster
                .mns
                .iter()
                .max_by_key(|m| m.verbs())
                .map(|m| m.mn_id)
                .unwrap_or(0);
            report.findings.push(HealthFinding {
                detector: "mn_imbalance",
                message: format!(
                    "MN {hot} served {max} verbs vs a {mean} mean \
                     (threshold {}x mean / 100)",
                    IMBALANCE_RATIO_X100
                ),
                value: max,
                threshold: mean * IMBALANCE_RATIO_X100 / 100,
            });
        }
    }

    // Retry storm: total retries across op kinds vs completed ops.
    report.checks += 1;
    let ops = reg.total_ops();
    let retries: u64 = reg.ops.iter().map(|o| o.retries).sum();
    if ops >= RETRY_MIN_OPS && retries * 1000 > ops * RETRY_PER_MILLE {
        report.findings.push(HealthFinding {
            detector: "retry_storm",
            message: format!(
                "{retries} retries over {ops} ops \
                 (threshold {}/1000)",
                RETRY_PER_MILLE
            ),
            value: retries * 1000 / ops,
            threshold: RETRY_PER_MILLE,
        });
    }

    // SFC false-positive-rate regression. The flat and `sfc.gen.*` names
    // mirror the same aggregate (see `sfc_telemetry`), so take the max
    // rather than summing — a source emitting both must not double-count.
    report.checks += 1;
    let lookups = reg.counter("sfc.lookups");
    let fps = reg
        .counter("sfc.false_positives")
        .max(reg.counter("sfc.gen.false_positives"));
    if lookups >= SFC_MIN_LOOKUPS && fps * 1000 > lookups * SFC_FP_PER_MILLE {
        report.findings.push(HealthFinding {
            detector: "sfc_fp_regression",
            message: format!(
                "{fps} SFC false positives over {lookups} lookups \
                 (threshold {}/1000)",
                SFC_FP_PER_MILLE
            ),
            value: fps * 1000 / lookups,
            threshold: SFC_FP_PER_MILLE,
        });
    }

    // Reclaim epoch stall: retirements piled up but the epoch machinery
    // never turned over and nothing was freed.
    report.checks += 1;
    let retired = reg.counter("reclaim.retired_count");
    let freed = reg.counter("reclaim.freed_count");
    let epochs = reg.counter("reclaim.epoch_advances");
    if retired > 0 && freed == 0 && epochs == 0 {
        report.findings.push(HealthFinding {
            detector: "reclaim_stall",
            message: format!("{retired} blocks retired but none freed and no epoch ever advanced"),
            value: retired,
            threshold: 0,
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{ClusterConfig, DmCluster};

    fn stats_with_load(per_mn: &[u64]) -> ClusterStats {
        let c = DmCluster::new(ClusterConfig {
            num_mns: per_mn.len() as u16,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let mut cl = c.client(0);
        for (mn, &n) in per_mn.iter().enumerate() {
            let p = cl.alloc(mn as u16, 8).unwrap();
            for _ in 0..n {
                cl.read(p, 8).unwrap();
            }
        }
        c.cluster_stats()
    }

    #[test]
    fn imbalance_positive_and_negative() {
        let hot = stats_with_load(&[3000, 10, 10]);
        let r = evaluate_health(&hot, &Registry::new());
        assert!(r.fired("mn_imbalance"));
        assert_eq!(r.verdict(), "degraded");

        let uniform = stats_with_load(&[1000, 1000, 1000]);
        let r = evaluate_health(&uniform, &Registry::new());
        assert!(!r.fired("mn_imbalance"));
        assert!(r.healthy());
        assert_eq!(r.checks, 4);
    }

    #[test]
    fn tiny_windows_are_not_judged() {
        let hot = stats_with_load(&[30, 0, 0]);
        let r = evaluate_health(&hot, &Registry::new());
        assert!(r.healthy(), "below min_verbs no imbalance verdict");
    }

    #[test]
    fn retry_storm_detector() {
        let cluster = stats_with_load(&[1]);
        let mut reg = Registry::new();
        reg.ops[crate::OpKind::Get.idx()].count = 1000;
        reg.ops[crate::OpKind::Get.idx()].retries = 500;
        let r = evaluate_health(&cluster, &reg);
        assert!(r.fired("retry_storm"));

        reg.ops[crate::OpKind::Get.idx()].retries = 10;
        let r = evaluate_health(&cluster, &reg);
        assert!(!r.fired("retry_storm"));
    }

    #[test]
    fn sfc_fp_and_reclaim_stall_detectors() {
        let cluster = stats_with_load(&[1]);
        let mut reg = Registry::new();
        reg.add("sfc.lookups", 10_000);
        reg.add("sfc.false_positives", 600);
        reg.add("sfc.gen.false_positives", 600);
        reg.add("reclaim.retired_count", 50);
        let r = evaluate_health(&cluster, &reg);
        assert!(r.fired("sfc_fp_regression"));
        assert!(r.fired("reclaim_stall"));

        // A healthy reclaimer (epochs advancing, frees landing) clears it.
        reg.add("reclaim.freed_count", 50);
        reg.add("reclaim.epoch_advances", 3);
        let r = evaluate_health(&cluster, &reg);
        assert!(!r.fired("reclaim_stall"));
    }

    #[test]
    fn stamp_emits_health_counters() {
        let hot = stats_with_load(&[3000, 10, 10]);
        let report = evaluate_health(&hot, &Registry::new());
        let mut reg = Registry::new();
        report.stamp(&mut reg);
        assert_eq!(reg.counter("health.checks"), 4);
        assert_eq!(reg.counter("health.findings"), 1);
        assert_eq!(reg.counter("health.mn_imbalance"), 1);
    }
}
