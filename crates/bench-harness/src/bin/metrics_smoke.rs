//! CI gate for the cluster metrics plane (per-MN accounting, sampler,
//! health monitor, `sphinx.metrics.v1` export).
//!
//! Asserts, exiting nonzero (panicking) on any violation:
//!
//! 1. **Conservation** — over the measured window the summed client
//!    ledger equals the summed per-MN ledger exactly, at pipeline depth
//!    1 and at depth 8 (fused doorbells included).
//! 2. **Overhead** — time-series sampling costs ≤2% virtual-time
//!    throughput against the telemetry-only baseline on YCSB-C (the
//!    sampler never touches the virtual clock, so the budget is slack).
//! 3. **Health controls** — a deliberately hot memory node trips the
//!    `mn_imbalance` detector (positive control) and a uniform run does
//!    not (negative control); neither outcome is fatal.
//! 4. **Byte determinism** — two same-seed single-worker runs export
//!    byte-identical `sphinx.metrics.v1` documents, sampling included.
//!
//! ```text
//! cargo run --release -p bench-harness --bin metrics_smoke
//! ```

use bench_harness::runner::run_phase;
use bench_harness::smoke;
use bench_harness::systems::System;

/// Sampling knobs used wherever the smoke turns the sampler on.
const SAMPLE_INTERVAL_NS: u64 = 5_000;
const SAMPLE_CAPACITY: usize = 256;

/// Positive control: every verb lands on MN 0, so the imbalance detector
/// must fire. Negative control: round-robin reads stay uniform, so it
/// must not. Both run on a raw cluster to keep the fixture exact.
fn health_controls() {
    let reg = obs::Registry::new();
    let hc = obs::HealthConfig::default();

    let hot = smoke::smoke_cluster();
    let mut c = hot.client(0);
    let ptr = c.alloc(0, 256).expect("alloc on MN 0");
    for _ in 0..2_000 {
        c.read(ptr, 256).expect("read");
    }
    let h = obs::evaluate_health(&hot.cluster_stats(), &reg, &hc);
    assert!(
        h.fired("mn_imbalance"),
        "hot-MN positive control must trip mn_imbalance: {h:?}"
    );
    assert!(!h.healthy(), "a fired detector must degrade the verdict");

    let uniform = smoke::smoke_cluster();
    let mut c = uniform.client(0);
    let ptrs: Vec<_> = (0..uniform.num_mns())
        .map(|m| c.alloc(m, 256).expect("alloc"))
        .collect();
    for i in 0..2_000usize {
        c.read(ptrs[i % ptrs.len()], 256).expect("read");
    }
    let h = obs::evaluate_health(&uniform.cluster_stats(), &reg, &hc);
    assert!(
        !h.fired("mn_imbalance"),
        "uniform negative control must stay healthy: {h:?}"
    );
    assert!(h.healthy());
    println!("health controls OK: hot MN trips mn_imbalance, uniform run does not");
}

/// Two same-seed single-worker runs on fresh systems must export
/// byte-identical `sphinx.metrics.v1` documents (sampling on). The
/// preload is single-threaded too: sampled gauges are cumulative since
/// boot, so a racy parallel load would leak into the rows.
fn byte_determinism() {
    let export = || {
        let handle = smoke::build_loaded(System::Sphinx, smoke::YCSB_C_KEYS, 1);
        let mut cfg = smoke::ycsb_c_config(smoke::YCSB_C_KEYS, 8);
        cfg.workers = 1;
        cfg.ops_per_worker = 2_000;
        cfg.sample_interval_ns = SAMPLE_INTERVAL_NS;
        cfg.sample_capacity = SAMPLE_CAPACITY;
        run_phase(&handle, &cfg).metrics.to_json()
    };
    let (a, b) = (export(), export());
    assert_eq!(
        a, b,
        "same-seed single-worker runs must export byte-identical metrics"
    );
    println!(
        "byte determinism OK: {} byte export, stable across runs",
        a.len()
    );
}

fn main() {
    health_controls();
    byte_determinism();

    let handle = smoke::build_loaded(System::Sphinx, smoke::YCSB_C_KEYS, 8);

    // Depth 1 and depth 8, sampling off: the perf baseline + the
    // conservation checks (fused doorbells included at depth 8).
    let r1 = run_phase(&handle, &smoke::ycsb_c_config(smoke::YCSB_C_KEYS, 1));
    r1.metrics
        .conservation()
        .expect("depth-1 window must conserve");
    let r8 = run_phase(
        &handle,
        &smoke::ycsb_c_config(smoke::YCSB_C_KEYS, node_engine::pipeline::DEFAULT_DEPTH),
    );
    r8.metrics
        .conservation()
        .expect("depth-8 window must conserve (fused doorbells included)");
    assert_eq!(r8.metrics.health.checks, 4, "all detectors must run");

    // Sampling on: virtual-time throughput within 2% of the baseline.
    let mut cfg = smoke::ycsb_c_config(smoke::YCSB_C_KEYS, node_engine::pipeline::DEFAULT_DEPTH);
    cfg.sample_interval_ns = SAMPLE_INTERVAL_NS;
    cfg.sample_capacity = SAMPLE_CAPACITY;
    let rs = run_phase(&handle, &cfg);
    rs.metrics
        .conservation()
        .expect("sampled window must conserve");
    if cfg!(feature = "telemetry") {
        let samples = rs.metrics.samples.as_ref().expect("sampler retained");
        assert!(!samples.is_empty(), "sampler must capture rows mid-run");
    }
    let slowdown = (r8.mops - rs.mops) / r8.mops;
    assert!(
        slowdown <= 0.02,
        "sampling cost {:.2}% throughput ({:.3} -> {:.3} mops); budget is 2%",
        slowdown * 100.0,
        r8.mops,
        rs.mops
    );

    println!("{}", rs.metrics.render_text());
    println!(
        "metrics smoke OK: conserved at depth 1 and {}, sampling {:+.2}% \
         ({:.3} vs {:.3} mops)",
        node_engine::pipeline::DEFAULT_DEPTH,
        -slowdown * 100.0,
        rs.mops,
        r8.mops,
    );
}
