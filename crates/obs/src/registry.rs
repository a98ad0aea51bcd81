//! The metrics registry: per-op-kind latency histograms, per-phase network
//! attribution and named counters — mergeable across workers and
//! exportable as JSON.

use std::collections::BTreeMap;

use dm_sim::LatencyHistogram;

use crate::json::JsonWriter;
use crate::span::{OpKind, Phase, PhaseAgg, NUM_OP_KINDS, NUM_PHASES};

/// Schema identifier stamped into every JSON export; bump on breaking
/// changes so downstream consumers (CI smoke, plotting) fail loudly.
pub const SCHEMA: &str = "sphinx.telemetry.v2";

/// Aggregated telemetry for one operation kind.
#[derive(Debug, Clone)]
pub struct OpAgg {
    /// Completed operations.
    pub count: u64,
    /// Total failed attempts / restarts across those operations.
    pub retries: u64,
    /// End-to-end virtual latency distribution.
    pub latency: LatencyHistogram,
    /// Per-phase network attribution (indexed by [`Phase::idx`]).
    pub phases: [PhaseAgg; NUM_PHASES],
}

impl Default for OpAgg {
    fn default() -> Self {
        OpAgg {
            count: 0,
            retries: 0,
            latency: LatencyHistogram::new(),
            phases: [PhaseAgg::default(); NUM_PHASES],
        }
    }
}

impl OpAgg {
    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &OpAgg) {
        self.count += other.count;
        self.retries += other.retries;
        self.latency.merge(&other.latency);
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
    }

    /// Total round trips attributed across all phases.
    pub fn round_trips(&self) -> u64 {
        self.phases.iter().map(|p| p.round_trips).sum()
    }
}

/// A mergeable telemetry registry. One per worker (filled through a
/// [`Recorder`](crate::Recorder)); merged into one per run for export.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Per-op-kind aggregates (indexed by [`OpKind::idx`]).
    pub ops: [OpAgg; NUM_OP_KINDS],
    /// Named domain counters (SFC hit/miss, INHT collisions, retries,
    /// fault injections, lock spins, the pipelined scheduler, …). Sorted
    /// for deterministic export.
    pub counters: BTreeMap<String, u64>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregate for one op kind.
    pub fn op(&self, kind: OpKind) -> &OpAgg {
        &self.ops[kind.idx()]
    }

    /// Attribution for one (kind, phase) cell.
    pub fn phase(&self, kind: OpKind, phase: Phase) -> &PhaseAgg {
        &self.ops[kind.idx()].phases[phase.idx()]
    }

    /// Attribution for one phase summed over every op kind.
    pub fn phase_total(&self, phase: Phase) -> PhaseAgg {
        let mut total = PhaseAgg::default();
        for op in &self.ops {
            total.merge(&op.phases[phase.idx()]);
        }
        total
    }

    /// Total completed operations across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|o| o.count).sum()
    }

    /// Merges another registry (e.g. another worker's) into this one.
    pub fn merge(&mut self, other: &Registry) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            a.merge(b);
        }
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
    }

    /// Serializes the registry as a self-describing JSON document
    /// (schema [`SCHEMA`]): `ops` (per kind: count, retries, latency
    /// quantiles and the per-phase table) and `counters`. Only op kinds
    /// with completed operations and phases with recorded work are
    /// emitted.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.str_field("schema", SCHEMA);

        w.key("ops");
        w.begin_obj();
        for kind in OpKind::ALL {
            let op = self.op(kind);
            if op.count == 0 {
                continue;
            }
            w.key(kind.name());
            w.begin_obj();
            w.u64_field("count", op.count);
            w.u64_field("retries", op.retries);
            w.key("latency_ns");
            w.begin_obj();
            w.u64_field("mean", op.latency.mean_ns());
            w.u64_field("p50", op.latency.quantile_ns(0.50));
            w.u64_field("p99", op.latency.quantile_ns(0.99));
            w.u64_field("max", op.latency.max_ns());
            w.end_obj();
            w.key("phases");
            w.begin_obj();
            for phase in Phase::ALL {
                let agg = &op.phases[phase.idx()];
                if agg.is_empty() {
                    continue;
                }
                w.key(phase.name());
                w.begin_obj();
                w.u64_field("count", agg.count);
                w.u64_field("round_trips", agg.round_trips);
                w.u64_field("doorbells", agg.doorbells);
                w.u64_field("verbs", agg.verbs);
                w.u64_field("bytes", agg.bytes);
                w.u64_field("time_ns", agg.time_ns);
                w.end_obj();
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_obj();

        w.key("counters");
        w.begin_obj();
        for (name, v) in &self.counters {
            w.u64_field(name, *v);
        }
        w.end_obj();

        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_and_sorted() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add("sfc.probe_hit", 3);
        b.add("sfc.probe_hit", 2);
        b.incr("sfc.probe_miss");
        a.merge(&b);
        assert_eq!(a.counter("sfc.probe_hit"), 5);
        assert_eq!(a.counter("sfc.probe_miss"), 1);
        assert_eq!(a.counter("absent"), 0);
        let keys: Vec<_> = a.counters.keys().cloned().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn op_merge_adds_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.ops[OpKind::Get.idx()].count = 1;
        a.ops[OpKind::Get.idx()].latency.record(1000);
        b.ops[OpKind::Get.idx()].count = 2;
        b.ops[OpKind::Get.idx()].latency.record(3000);
        b.ops[OpKind::Get.idx()].latency.record(5000);
        a.merge(&b);
        assert_eq!(a.op(OpKind::Get).count, 3);
        assert_eq!(a.op(OpKind::Get).latency.count(), 3);
        assert_eq!(a.total_ops(), 3);
    }

    #[test]
    fn json_has_schema_and_skips_empty_kinds() {
        let mut r = Registry::new();
        r.ops[OpKind::Get.idx()].count = 1;
        r.ops[OpKind::Get.idx()].latency.record(500);
        r.ops[OpKind::Get.idx()].phases[Phase::SfcProbe.idx()].add_interval(
            &dm_sim::ClientStats {
                round_trips: 1,
                reads: 1,
                ..Default::default()
            },
            100,
        );
        r.incr("sfc.probe_hit");
        let json = r.to_json();
        assert!(json.contains("\"schema\":\"sphinx.telemetry.v2\""));
        assert!(json.contains("\"get\""));
        assert!(!json.contains("\"insert\""));
        assert!(json.contains("\"SfcProbe\""));
        assert!(json.contains("\"sfc.probe_hit\":1"));
        // Round-trips through our own parser.
        let parsed = crate::json::parse(&json).expect("valid json");
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let top: Vec<&String> = parsed.as_obj().expect("object").keys().collect();
        assert_eq!(top, ["counters", "ops", "schema"]);
    }
}
