//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! mirrors this file; a unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    /// Says `virtual` or `host` wherever the value is a time.
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end).
    pub bound: f64,
    /// Whether the value is a pure function of `(workload, seed, seconds)`:
    /// virtual-time figures and counts are, host times are not.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

const fn host(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the index (virtual clock) and a user
/// of the simulator (host clock) see. Every workload reports all of them.
/// Failures are not a metric here: they are the `attempted` / `failed`
/// counts of the result line, and any failure makes the run incorrect.
pub const END_TO_END: &[Def] = &[
    e2e("vt_mops", "Mops_virtual", Higher, 0.06, true),
    e2e("vt_mid_us", "us_virtual", Lower, 0.06, true),
    e2e("vt_p99_band_us", "us_virtual", Lower, 0.10, true),
    e2e("vt_p999_band_us", "us_virtual", Lower, 0.20, true),
    e2e("host_ns_per_op", "ns_host/op", Lower, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("mn_bytes_per_key", "bytes/key", Lower, 0.03, true),
];

/// Per-layer metrics (layer = crate name), from the traced run.
pub const PER_LAYER: &[Def] = &[
    host("ycsb.gen_host_ns", "ns_host/op"),
    // dm-sim
    count("dm-sim.rts_per_op", "count/op", Lower),
    count("dm-sim.doorbells_per_op", "count/op", Lower),
    count("dm-sim.verbs_per_op", "count/op", Lower),
    count("dm-sim.bytes_per_op", "bytes/op", Lower),
    count("dm-sim.cas_per_op", "count/op", Lower),
    count("dm-sim.nic_busy_frac_max", "ratio_virtual", Lower),
    count("dm-sim.nic_queue_ns_per_op", "ns_virtual/op", Lower),
    count("dm-sim.mn_verb_imbalance", "ratio", Lower),
    host("dm-sim.read128_host_ns", "ns_host"),
    host("dm-sim.cas_host_ns", "ns_host"),
    host("dm-sim.batch4_host_ns", "ns_host"),
    host("dm-sim.sched_step_host_ns", "ns_host"),
    // node-engine
    host("node-engine.leaf_read_host_ns", "ns_host"),
    host("node-engine.inner_read_host_ns", "ns_host"),
    count(
        "node-engine.leaf_checksum_retries_per_kop",
        "count/kop",
        Lower,
    ),
    count(
        "node-engine.extended_leaf_reads_per_kop",
        "count/kop",
        Lower,
    ),
    count("node-engine.pipe_flushes_per_op", "count/op", Lower),
    count("node-engine.pipe_fused_frac", "ratio", Higher),
    count("node-engine.pipe_stalls_per_kop", "count/kop", Lower),
    count("node-engine.pipe_depth_mean", "count", Higher),
    // art-core
    host("art-core.prefix_hash_host_ns", "ns_host"),
    host("art-core.leaf_decode_host_ns", "ns_host"),
    host("art-core.inner_decode_host_ns", "ns_host"),
    // race-hash
    host("race-hash.search_host_ns", "ns_host"),
    count("race-hash.search_rts", "count", Lower),
    host("race-hash.insert_host_ns", "ns_host"),
    count("race-hash.splits", "count", Lower),
    count("race-hash.stale_retries_per_kop", "count/kop", Lower),
    count("race-hash.load_factor", "ratio", Higher),
    // sfc
    host("sfc.probe_host_ns", "ns_host"),
    host("sfc.insert_host_ns", "ns_host"),
    host("sfc.rebuild_host_ms", "ms_host"),
    count("sfc.rebuilds", "count", Lower),
    count("sfc.first_hit_frac", "ratio", Higher),
    count("sfc.fp_frac", "ratio", Lower),
    count("sfc.evictions_per_kop", "count/kop", Lower),
    count("sfc.bits_per_entry", "bits", Lower),
    count("sfc.mem_bytes", "bytes", Lower),
    // reclaim
    count("reclaim.scans_per_kop", "count/kop", Lower),
    count("reclaim.retired_bytes_per_op", "bytes/op", Lower),
    count("reclaim.freed_frac", "ratio", Higher),
    count("reclaim.limbo_max", "count", Lower),
    // core: per op kind
    count("core.get.vt_p50_us", "us_virtual", Lower),
    host("core.get.host_ns", "ns_host/op"),
    count("core.update.vt_p50_us", "us_virtual", Lower),
    host("core.update.host_ns", "ns_host/op"),
    count("core.insert.vt_p50_us", "us_virtual", Lower),
    host("core.insert.host_ns", "ns_host/op"),
    count("core.scan.vt_p50_us", "us_virtual", Lower),
    host("core.scan.host_ns", "ns_host/op"),
    // core: round trips per op by phase (sum to dm-sim.rts_per_op)
    count("core.rts.sfc_probe", "count/op", Lower),
    count("core.rts.inht_lookup", "count/op", Lower),
    count("core.rts.traversal", "count/op", Lower),
    count("core.rts.leaf_read", "count/op", Lower),
    count("core.rts.leaf_write", "count/op", Lower),
    count("core.rts.lock_acquire", "count/op", Lower),
    count("core.rts.retry", "count/op", Lower),
    count("core.rts.maintenance", "count/op", Lower),
    // core: critical path of a traced get (sums exactly to its latency)
    count("core.cp.queue_ns", "ns_virtual", Lower),
    count("core.cp.fusion_ns", "ns_virtual", Lower),
    count("core.cp.service_ns", "ns_virtual", Lower),
    count("core.cp.stall_ns", "ns_virtual", Lower),
    count("core.cp.compute_ns", "ns_virtual", Lower),
    count("core.pipeline_fallbacks_per_kop", "count/kop", Lower),
    count("core.lock_contended_per_kop", "count/kop", Lower),
    count("core.retries_per_kop", "count/kop", Lower),
    host("core.host_self_ns_per_op", "ns_host/op"),
    count("core.load_vt_mops", "Mops_virtual", Higher),
    count("core.inht_overhead_frac", "ratio", Lower),
    count("core.verify_problems", "count", Lower),
    count("core.rows_per_scan", "rows/scan", Higher),
    host("obs.trace_overhead_frac", "ratio_host"),
    // baselines (ycsb_a_nicbound only; 0 elsewhere)
    count("baselines.smart.vt_mops", "Mops_virtual", Higher),
    count("baselines.smartc.vt_mops", "Mops_virtual", Higher),
    count("baselines.art.vt_mops", "Mops_virtual", Higher),
    count("baselines.sphinx_over_best", "ratio_virtual", Higher),
    // bench
    count("bench.allocs_per_op", "count/op", Lower),
    count("bench.alloc_bytes_per_op", "bytes/op", Lower),
    host("bench.peak_rss_mib", "MiB"),
    host("bench.host_ns_per_op_med", "ns_host/op"),
    host("bench.host_slice_iqr_frac", "ratio_host"),
];

/// A reported value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Samples behind a percentile (0 when not applicable).
    pub samples: u64,
}

/// Looks a definition up by name.
///
/// # Panics
///
/// Panics on a name missing from the catalogue (a bug in this crate).
pub fn def(table: &'static [Def], name: &str) -> &'static Def {
    table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalogue_obeys_the_benchmark_contract() {
        assert_eq!(PER_LAYER.len(), 82);
        assert!(END_TO_END.len() <= 16);
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "name {}", d.name);
            assert!(unit_ok(d.unit), "unit {} of {}", d.unit, d.name);
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = def(END_TO_END, "setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn host_clock_metrics_say_so() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if d.name.contains("host") {
                assert!(d.unit.contains("host"), "{} has unit {}", d.name, d.unit);
                assert!(!d.exact, "{} cannot be exact", d.name);
            }
            if d.name.contains("vt_") {
                assert!(d.unit.contains("virtual"), "{} has unit {}", d.name, d.unit);
            }
        }
    }

    /// `../BENCHMARK.json` lists exactly this catalogue and the workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("`{key}` array"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let want = |t: &[Def]| t.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        let specs: Vec<String> = crate::workloads::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(names("workloads"), specs);
        for (table, key) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            for (d, m) in table
                .iter()
                .zip(doc.get(key).and_then(|v| v.as_arr()).expect("array"))
            {
                assert_eq!(
                    m.get("unit").and_then(|u| u.as_str()),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(|u| u.as_str()),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                if d.bound > 0.0 {
                    let bound = m.get("bound");
                    assert!(
                        matches!(bound, Some(obs::json::Value::Num(b)) if (b - d.bound).abs() < 1e-12),
                        "{}: bound {bound:?}",
                        d.name
                    );
                }
            }
        }
    }
}
