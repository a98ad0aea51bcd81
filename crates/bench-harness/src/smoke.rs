//! The CI smoke contracts behind `smoke [contract...]`; each panics on a
//! violation.
//!
//! * `telemetry` — the `sphinx.telemetry.v2` export parses with the pinned
//!   schema, point lookups attribute `SfcProbe` and `LeafRead`, the SFC
//!   probe counters are populated, and every exported counter is in
//!   `docs/OBSERVABILITY.md`'s catalogue.
//! * `pipeline` — at depth 8 per-op round trips stay put, doorbells fuse
//!   and YCSB-C runs ≥ 1.5× depth 1; at depth 1 doorbells equal round trips.
//! * `trace` — tail sampling retains traces whose critical paths sum
//!   exactly and witness fusion, the Chrome export is valid
//!   `sphinx.trace.v1`, sampling off retains nothing, and tail tracing
//!   leaves the virtual clock exactly where it was.
//! * `metrics` — the client ledger conserves against the per-MN ledger at
//!   depth 1, depth 8 and sampled; every health detector fires on a run
//!   built to trip it and stays quiet on its twin (a hot MN, a contended
//!   key, a foreign SFC snapshot, a reclaimer that never scans); same-seed
//!   exports are byte-identical; sampling leaves the virtual clock exactly
//!   where it was.
//! * `sfc` — a frozen generation of ≥ 50 k prefixes costs ≤ 10 bits/entry,
//!   snapshots round-trip byte-identically, and a warm-started CN skips the
//!   cold Θ(L) ramp.
//!
//! `pipeline`, `trace` and `metrics` read one [`Fixture`]: one YCSB-C tree
//! loaded once, and each distinct run of it made once. Every run is
//! bit-exact per seed (the runner steps its workers in clock order on one
//! thread); overheads are asserted with `==` on single-worker runs
//! ([`solo`]), each on a tree of its own.
//!
//! ```text
//! cargo run --release -p bench-harness --bin smoke -- [contract...]
//! ```

use std::cell::OnceCell;

use dm_sim::{NetConfig, ScheduleConfig};
use node_engine::pipeline::DEFAULT_DEPTH;
use obs::{critical_path, export_chrome, json, OpKind, Phase, SCHEMA, TRACE_SCHEMA};
use sphinx::sfc::{FilterCache, SfcConfig};
use sphinx::{SphinxConfig, SphinxIndex};
use ycsb::{KeySpace, Workload};

use crate::lincheck_driver::{run_scheduled, ExploreConfig, ScheduleMode};
use crate::report::{write_json, Args};
use crate::runner::{load_phase, run_phase, RunConfig, RunResult};
use crate::systems::{testbed, System, SystemHandle};

/// Key count of the YCSB-C fixture.
pub const YCSB_C_KEYS: u64 = 10_000;

/// Key count of the YCSB-A telemetry config.
pub const YCSB_A_KEYS: u64 = 3_000;

/// Sampling interval wherever a contract turns the metrics sampler on.
const SAMPLE_INTERVAL_NS: u64 = 5_000;

/// A smoke contract: its name and its check.
pub type Contract = (&'static str, fn(&Fixture));

/// The contracts, in the order `smoke` runs them.
pub const CONTRACTS: &[Contract] = &[
    ("telemetry", telemetry),
    ("pipeline", pipeline),
    ("trace", trace),
    ("metrics", metrics),
    ("sfc", sfc),
];

/// `smoke` usage.
pub const USAGE: &str = "usage: smoke [telemetry|pipeline|trace|metrics|sfc]... (all when none)";

/// The contracts a `smoke` command line names; an unknown one is an error.
pub fn parse_cli<I: IntoIterator<Item = String>>(argv: I) -> Result<Vec<Contract>, String> {
    let args = Args::parse(&[], argv)?;
    if args.words.is_empty() {
        return Ok(CONTRACTS.to_vec());
    }
    args.words
        .iter()
        .map(|w| {
            let named = CONTRACTS.iter().find(|(name, _)| name == w);
            named
                .copied()
                .ok_or_else(|| format!("unknown contract {w}"))
        })
        .collect()
}

/// Builds `system` with the smoke memory shape (64 MiB heap, 1 MiB SFC
/// budget) and preloads `keys` U64 keys with `load_workers` loaders.
pub fn build_loaded(system: System, keys: u64, load_workers: usize) -> SystemHandle {
    let handle = system.build(64 << 20, Some(1 << 20));
    load_phase(&handle, KeySpace::U64, keys, load_workers);
    handle
}

/// A raw testbed cluster for contracts that drive `dm-sim` directly.
fn smoke_cluster() -> dm_sim::DmCluster {
    testbed(1 << 30, NetConfig::default())
}

/// The fig4 YCSB-C short config (8 workers × 1 500 ops) at `depth`, tracing
/// and sampling off.
pub fn ycsb_c_config(keys: u64, depth: usize) -> RunConfig {
    RunConfig {
        num_keys: keys,
        workers: 8,
        ops_per_worker: 1_500,
        warmup_per_worker: 300,
        seed: 0x0051_400C_u64,
        pipeline_depth: depth,
        trace_tail_k: 0,
        ..RunConfig::quick(KeySpace::U64, Workload::c())
    }
}

/// The write-heavy YCSB-A config the telemetry contract exports from.
pub fn ycsb_a_config(keys: u64) -> RunConfig {
    RunConfig {
        num_keys: keys,
        workers: 4,
        ops_per_worker: 500,
        warmup_per_worker: 100,
        seed: 0x51_0CE,
        trace_tail_k: 0,
        ..RunConfig::quick(KeySpace::U64, Workload::a())
    }
}

fn traced(c: &mut RunConfig) {
    c.trace_tail_k = obs::DEFAULT_TAIL_K;
}

fn sampled(c: &mut RunConfig) {
    c.sample_interval_ns = SAMPLE_INTERVAL_NS;
}

/// The runs of the shared fixture: the YCSB-C short config at depth 1, at
/// depth 8, at depth 8 with tail tracing, and at depth 8 sampled.
#[derive(Debug, Clone, Copy)]
pub enum FixtureRun {
    /// Depth 1.
    Depth1,
    /// Depth 8.
    Depth8,
    /// Depth 8, tail tracing on.
    Traced,
    /// Depth 8, metrics sampling on.
    Sampled,
}

/// One Sphinx tree of [`YCSB_C_KEYS`] keys, loaded on first use, and each
/// [`FixtureRun`] of it made on first use; plus the plain [`solo`] run the
/// overhead checks compare against.
#[derive(Default)]
pub struct Fixture {
    handle: OnceCell<SystemHandle>,
    runs: [OnceCell<RunResult>; 4],
    solo: OnceCell<RunResult>,
}

impl Fixture {
    /// The fixture's `which` run.
    pub fn run(&self, which: FixtureRun) -> &RunResult {
        self.runs[which as usize].get_or_init(|| {
            let handle = self
                .handle
                .get_or_init(|| build_loaded(System::Sphinx, YCSB_C_KEYS, 8));
            let depth = match which {
                FixtureRun::Depth1 => 1,
                _ => DEFAULT_DEPTH,
            };
            let mut cfg = ycsb_c_config(YCSB_C_KEYS, depth);
            match which {
                FixtureRun::Traced => traced(&mut cfg),
                FixtureRun::Sampled => sampled(&mut cfg),
                FixtureRun::Depth1 | FixtureRun::Depth8 => {}
            }
            run_phase(handle, &cfg)
        })
    }

    /// The plain single-worker run.
    pub fn solo(&self) -> &RunResult {
        self.solo.get_or_init(|| solo(|_| {}))
    }
}

/// One worker running the depth-8 YCSB-C config for 2 000 ops on a fresh
/// tree preloaded by one loader, after `tweak`. The tree is its own because
/// sampled gauges are cumulative since boot: another run's verbs on a
/// shared tree would leak into them.
pub fn solo(tweak: fn(&mut RunConfig)) -> RunResult {
    let handle = build_loaded(System::Sphinx, YCSB_C_KEYS, 1);
    let mut cfg = ycsb_c_config(YCSB_C_KEYS, DEFAULT_DEPTH);
    cfg.workers = 1;
    cfg.ops_per_worker = 2_000;
    tweak(&mut cfg);
    run_phase(&handle, &cfg)
}

/// Asserts that `feature`, which claims never to touch the virtual clock,
/// did not: every clock-derived field equals the plain run's, exactly.
fn assert_clock_untouched(feature: &str, plain: &RunResult, with: &RunResult) {
    for (field, a, b) in [
        ("mops", plain.mops, with.mops),
        (
            "round_trips_per_op",
            plain.round_trips_per_op,
            with.round_trips_per_op,
        ),
        (
            "doorbells_per_op",
            plain.doorbells_per_op,
            with.doorbells_per_op,
        ),
        ("bytes_per_op", plain.bytes_per_op, with.bytes_per_op),
    ] {
        assert!(
            a == b,
            "{feature} moved the virtual clock: {field} is {a} without it, {b} with it"
        );
    }
}

/// The counter-catalogue patterns of `docs/OBSERVABILITY.md`, read at
/// compile time so the checked-in catalogue is the one enforced.
fn catalogue_patterns() -> Vec<&'static str> {
    const DOC: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ));
    let begin = DOC
        .find("<!-- counter-catalogue:begin -->")
        .expect("OBSERVABILITY.md must carry a counter-catalogue block");
    let end = DOC[begin..]
        .find("<!-- counter-catalogue:end -->")
        .map(|i| begin + i)
        .expect("counter-catalogue block must be closed");
    DOC[begin..end]
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("<!--") && !l.starts_with("```"))
        .collect()
}

/// `*`-wildcard glob match (counter names never contain `*`): two pointers,
/// backtracking to the last star.
fn glob_match(pattern: &str, name: &str) -> bool {
    let (p, n) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// The `telemetry` contract; writes `results/telemetry_smoke.json`.
pub fn telemetry(_: &Fixture) {
    let handle = build_loaded(System::Sphinx, YCSB_A_KEYS, 4);
    let mut cfg = ycsb_a_config(YCSB_A_KEYS);
    traced(&mut cfg);
    let r = run_phase(&handle, &cfg);
    let doc = r.telemetry.to_json();
    write_json("telemetry_smoke", &doc);

    // Checked on the parsed export, so the exporter is what's validated.
    let parsed = json::parse(&doc).expect("telemetry JSON must parse");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(SCHEMA),
        "schema drift: bump consumers together with obs::SCHEMA"
    );
    let get = parsed
        .get("ops")
        .and_then(|o| o.get("get"))
        .expect("get ops present");
    let phase = |name: &str, field: &str| {
        get.get("phases")
            .and_then(|p| p.get(name))
            .and_then(|p| p.get(field))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert!(
        phase("SfcProbe", "count") > 0,
        "gets must attribute SfcProbe intervals (CN-local probes count even with zero verbs)"
    );
    assert!(
        phase("LeafRead", "round_trips") > 0,
        "gets must attribute round trips to LeafRead"
    );
    let counters = parsed.get("counters").expect("counters present");
    let counter = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
    let probes = counter("sfc.probe_hit") + counter("sfc.probe_miss");
    assert!(probes > 0, "SFC probe counters must be populated");
    assert!(
        r.telemetry.phase(OpKind::Get, Phase::SfcProbe).count > 0,
        "in-memory registry must agree with the export"
    );

    let patterns = catalogue_patterns();
    assert!(
        patterns.len() >= 40,
        "counter catalogue suspiciously small ({} patterns) — markers moved?",
        patterns.len()
    );
    let names = counters.as_obj().expect("counters is an object");
    let unlisted: Vec<&str> = names
        .keys()
        .map(String::as_str)
        .filter(|name| !patterns.iter().any(|p| glob_match(p, name)))
        .collect();
    assert!(
        unlisted.is_empty(),
        "counters missing from the docs/OBSERVABILITY.md catalogue: {unlisted:?} — \
         extend the counter-catalogue block together with the new counter"
    );
    println!(
        "telemetry: {} ops, SfcProbe count {}, LeafRead rts {}, probes {probes}, \
         {} counters against {} catalogue patterns",
        r.telemetry.total_ops(),
        phase("SfcProbe", "count"),
        phase("LeafRead", "round_trips"),
        names.len(),
        patterns.len(),
    );
}

/// The `pipeline` contract.
pub fn pipeline(fx: &Fixture) {
    let (r1, r8) = (fx.run(FixtureRun::Depth1), fx.run(FixtureRun::Depth8));
    assert!(
        (r8.round_trips_per_op - r1.round_trips_per_op).abs() < 0.25,
        "pipelining changed per-op round trips: {:.3} -> {:.3}",
        r1.round_trips_per_op,
        r8.round_trips_per_op
    );
    assert!(
        (r1.doorbells_per_op - r1.round_trips_per_op).abs() < 1e-9,
        "depth 1 must not fuse doorbells: {:.3} doorbells vs {:.3} rts",
        r1.doorbells_per_op,
        r1.round_trips_per_op
    );
    assert!(
        r8.doorbells_per_op < r1.doorbells_per_op * 0.7,
        "depth 8 must fuse doorbells: {:.3} -> {:.3} per op",
        r1.doorbells_per_op,
        r8.doorbells_per_op
    );
    let speedup = r8.mops / r1.mops;
    assert!(
        speedup >= 1.5,
        "depth 8 must be >= 1.5x depth 1 on YCSB-C: {:.3} vs {:.3} mops ({speedup:.2}x)",
        r1.mops,
        r8.mops
    );
    let fused = r8.telemetry.counter("pipeline.fused_batches");
    assert!(
        fused > 0,
        "pipeline.fused_batches must be exported in telemetry"
    );
    println!(
        "pipeline: {:.3} -> {:.3} mops ({speedup:.2}x), rts/op {:.3} -> {:.3}, \
         doorbells/op {:.3} -> {:.3}, fused batches {fused}",
        r1.mops,
        r8.mops,
        r1.round_trips_per_op,
        r8.round_trips_per_op,
        r1.doorbells_per_op,
        r8.doorbells_per_op,
    );
}

/// The `trace` contract.
pub fn trace(fx: &Fixture) {
    for (which, r) in [
        ("depth-8", fx.run(FixtureRun::Depth8)),
        ("depth-1", fx.run(FixtureRun::Depth1)),
    ] {
        assert!(
            r.traces.is_empty(),
            "{which} run with sampling off must retain zero traces, got {}",
            r.traces.len()
        );
    }
    let traced_run = fx.run(FixtureRun::Traced);
    assert!(
        !traced_run.traces.is_empty(),
        "tail sampling at depth {DEFAULT_DEPTH} must retain traces"
    );
    let mut fused_bursts = 0usize;
    for t in &traced_run.traces {
        let cp = critical_path(t);
        assert!(
            cp.is_exact(),
            "critical path must sum exactly for trace {:#x}: \
             queue {} + fusion {} + service {} + stall {} + compute {} != total {}",
            t.id,
            cp.queue_ns,
            cp.fusion_ns,
            cp.service_ns,
            cp.stall_ns,
            cp.compute_ns,
            cp.total_ns
        );
        fused_bursts += t
            .bursts
            .iter()
            .filter(|ev| match ev {
                dm_sim::trace::TransportEvent::Burst(b) => b.tokens().len() > 1,
                dm_sim::trace::TransportEvent::Advance { .. } => false,
            })
            .count();
    }
    assert!(
        fused_bursts > 0,
        "depth-{DEFAULT_DEPTH} traces must witness doorbell fusion (a burst with >1 member ops)"
    );

    let export = export_chrome(&traced_run.traces);
    let doc = json::parse(&export).expect("trace export must parse");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(TRACE_SCHEMA),
        "export must be stamped {TRACE_SCHEMA}"
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns"),
        "export must display virtual nanoseconds"
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "export must carry events");
    for ev in events {
        for key in ["ph", "pid", "name"] {
            assert!(
                ev.get(key).is_some(),
                "every trace event needs `{key}`: {export:.120}"
            );
        }
    }

    let solo_traced = solo(traced);
    assert!(
        !solo_traced.traces.is_empty(),
        "the single-worker run must trace"
    );
    assert_clock_untouched("tail tracing", fx.solo(), &solo_traced);
    println!(
        "trace: {} traces retained, every critical path exact, {fused_bursts} fused bursts, \
         {} export events; single-worker clock identical with tail tracing on",
        traced_run.traces.len(),
        events.len(),
    );
}

/// Asserts that `detector` fired on `positive` and not on `negative`.
fn assert_control(detector: &str, positive: &obs::HealthReport, negative: &obs::HealthReport) {
    assert!(
        positive.fired(detector) && !positive.healthy(),
        "positive control must trip {detector}: {positive:?}"
    );
    assert!(
        !negative.fired(detector),
        "negative control must not trip {detector}: {negative:?}"
    );
}

/// `mn_imbalance`: every verb lands on MN 0, or reads go round-robin. On a
/// raw cluster, to keep the fixture exact.
fn mn_imbalance_control(hot: bool) -> obs::HealthReport {
    let cluster = smoke_cluster();
    let mut c = cluster.client(0);
    let mns = if hot { 1 } else { cluster.num_mns() };
    let ptrs: Vec<_> = (0..mns).map(|m| c.alloc(m, 256).expect("alloc")).collect();
    for i in 0..2_000usize {
        c.read(ptrs[i % ptrs.len()], 256).expect("read");
    }
    obs::evaluate_health(&cluster.cluster_stats(), &obs::Registry::new())
}

/// `retry_storm`: `threads` lock-step participants (seeded schedule) on
/// one key — eight of them lose CASes to each other (over 4 retries per 10
/// ops), one alone never does.
fn retry_storm_control(threads: u32) -> obs::HealthReport {
    let cfg = ExploreConfig {
        tear_hook: false,
        multi_ops: false,
        ..ExploreConfig::smoke(System::Sphinx, threads, 1, 150)
    };
    let mode = ScheduleMode::Record(ScheduleConfig::quiet(7));
    run_scheduled(&cfg, mode).metrics.health
}

/// The key `i` of the controls' key space.
fn key(i: u64) -> Vec<u8> {
    KeySpace::U64.key(i)
}

/// `sfc_fp_regression`: CN 1 reads every key of a 64-key tree 16 times,
/// its filter warm-started from `snapshot` or cold.
fn sfc_fp_control(snapshot: Option<&[u8]>) -> obs::HealthReport {
    let cluster = smoke_cluster();
    let index = SphinxIndex::create(&cluster, SphinxConfig::default()).expect("create");
    let mut writer = index.client(0).expect("cn0");
    for i in 0..64 {
        writer.insert(&key(i), b"v").expect("insert");
    }
    if let Some(snapshot) = snapshot {
        index.load_sfc_snapshot(1, snapshot).expect("snapshot load");
    }
    let mut reader = index.client(1).expect("cn1");
    for _ in 0..16 {
        for i in 0..64 {
            assert!(reader.get(&key(i)).expect("get").is_some());
        }
    }
    obs::evaluate_health(&cluster.cluster_stats(), &index.sfc_telemetry())
}

/// A frozen filter of a 4 000-key tree: it names inner prefixes that a
/// 64-key tree never grew.
fn foreign_snapshot() -> Vec<u8> {
    let cluster = smoke_cluster();
    let index = SphinxIndex::create(&cluster, SphinxConfig::default()).expect("create");
    let mut c = index.client(0).expect("cn0");
    for i in 0..4_000 {
        c.insert(&key(i), b"v").expect("insert");
    }
    for i in 0..4_000 {
        c.get(&key(i)).expect("get");
    }
    c.filter_handle().force_rebuild();
    index.sfc_snapshot(0)
}

/// `reclaim_stall`: 2 000 inserts then 2 000 removes on one client.
fn reclaim_stall_control(reclaim: reclaim::ReclaimConfig) -> obs::HealthReport {
    let cluster = smoke_cluster();
    let config = SphinxConfig {
        reclaim,
        ..SphinxConfig::default()
    };
    let index = SphinxIndex::create(&cluster, config).expect("create");
    let mut c = index.client(0).expect("cn0");
    for i in 0..2_000 {
        c.insert(&key(i), b"v").expect("insert");
    }
    for i in 0..2_000 {
        assert!(c.remove(&key(i)).expect("remove"));
    }
    obs::evaluate_health(&cluster.cluster_stats(), &c.telemetry())
}

/// Every detector's positive and negative control.
fn health_controls() {
    let (hot, uniform) = (mn_imbalance_control(true), mn_imbalance_control(false));
    assert_control("mn_imbalance", &hot, &uniform);
    assert!(uniform.healthy(), "{uniform:?}");
    let (storm, calm) = (retry_storm_control(8), retry_storm_control(1));
    assert_control("retry_storm", &storm, &calm);
    let foreign = foreign_snapshot();
    let (stale, cold) = (sfc_fp_control(Some(&foreign)), sfc_fp_control(None));
    assert_control("sfc_fp_regression", &stale, &cold);
    // A scan interval and a limbo cap beyond the run: nothing ever scans.
    let never = reclaim::ReclaimConfig {
        scan_interval: u64::MAX,
        limbo_soft_cap: usize::MAX,
        ..Default::default()
    };
    let stalled = reclaim_stall_control(never);
    let scanning = reclaim_stall_control(reclaim::ReclaimConfig::default());
    assert_control("reclaim_stall", &stalled, &scanning);
    println!(
        "metrics: every detector trips on its positive control only \
         (hot MN, 8 writers on 1 key, foreign SFC snapshot, reclaim never scanning)"
    );
}

/// The `metrics` contract.
pub fn metrics(fx: &Fixture) {
    health_controls();

    let (a, b) = (solo(sampled), solo(sampled));
    let export = a.metrics.to_json();
    assert_eq!(
        export,
        b.metrics.to_json(),
        "same-seed single-worker runs must export byte-identical metrics"
    );
    assert_clock_untouched("metrics sampling", fx.solo(), &a);

    fx.run(FixtureRun::Depth1)
        .metrics
        .conservation()
        .expect("depth-1 window must conserve");
    let r8 = fx.run(FixtureRun::Depth8);
    r8.metrics
        .conservation()
        .expect("depth-8 window must conserve (fused doorbells included)");
    assert_eq!(r8.metrics.health.checks, 4, "all detectors must run");
    let rs = fx.run(FixtureRun::Sampled);
    rs.metrics
        .conservation()
        .expect("sampled window must conserve");
    for r in [rs, &a] {
        let samples = r.metrics.samples.as_ref().expect("sampler retained");
        assert!(!samples.is_empty(), "sampler must capture rows mid-run");
    }
    println!("{}", rs.metrics.render_text());
    println!(
        "metrics: conserved at depth 1, {DEFAULT_DEPTH} and sampled; {} byte export \
         stable across runs; single-worker clock identical with sampling on",
        export.len()
    );
}

/// The `sfc` contract.
pub fn sfc(_: &Fixture) {
    // Succinctness, where the fuse's fixed slack is amortised: tiny
    // filters sit near 12 bits/entry.
    const N: u64 = 64_000;
    let f = FilterCache::new(1 << 20, SfcConfig::default(), 0xF0CC);
    for i in 0..N {
        f.insert(format!("prefix/{i:08}").as_bytes());
    }
    assert!(f.force_rebuild(), "64k-key fuse build must succeed");
    let s = f.stats();
    assert_eq!(s.frozen_len, N, "every inserted prefix must freeze");
    let bits = s.frozen_bits_per_entry();
    assert!(
        bits <= 10.0,
        "frozen generation costs {bits:.2} bits/entry at {N} keys (contract: <=10)"
    );
    for i in (0..N).step_by(97) {
        assert!(f.contains_quiet(format!("prefix/{i:08}").as_bytes()));
    }
    println!("sfc: {N} frozen prefixes at {bits:.2} bits/entry");

    // Snapshots are reproducible and round-trip byte-identically.
    let f = FilterCache::new(64 << 10, SfcConfig::default(), 0x5EED);
    for i in 0..5_000u64 {
        f.insert(format!("tenant-{:03}/{i:06}", i % 17).as_bytes());
    }
    assert!(f.force_rebuild());
    let snap = f.snapshot();
    assert_eq!(snap, f.snapshot(), "snapshot() must be reproducible");
    let twin = FilterCache::new(64 << 10, SfcConfig::default(), 0x5EED);
    twin.load_snapshot(&snap).expect("clean snapshot must load");
    assert_eq!(
        twin.snapshot(),
        snap,
        "a warm-started filter must re-export byte-identical snapshot bytes"
    );
    println!(
        "sfc: {} byte snapshot, byte-identical across a round trip",
        snap.len()
    );

    warm_start_skips_cold_ramp();
}

/// A CN that loads a peer's snapshot starts with the frozen prefix set
/// resident and does not pay the Θ(L) ramp a cold CN pays.
fn warm_start_skips_cold_ramp() {
    const KEYS: u64 = 4_000;
    let cluster = smoke_cluster();
    let index = SphinxIndex::create(&cluster, SphinxConfig::default()).expect("create");
    let mut writer = index.client(0).expect("cn0");
    for i in 0..KEYS {
        writer
            .insert(&KeySpace::Email.key(i), b"v")
            .expect("insert");
    }
    // One read pass teaches CN 0's filter the live prefix set; freeze it.
    for i in 0..KEYS {
        writer.get(&KeySpace::Email.key(i)).expect("get");
    }
    writer.filter_handle().force_rebuild();
    let snap = index.sfc_snapshot(0);

    // The cold ramp is invisible to `entry_misses`: an empty filter offers
    // no candidate, so the client walks root-to-leaf without consulting the
    // INHT. Its signatures are `filter_refreshes` (every inner prefix
    // taught on first contact) and wire round trips per get.
    let ramp = |cn: u16| {
        let mut c = index.client(cn).expect("client");
        let (base, net0) = (c.op_stats(), c.net_stats());
        for i in 0..KEYS {
            assert!(c.get(&KeySpace::Email.key(i)).expect("get").is_some());
        }
        let (s, net) = (c.op_stats(), c.net_stats().since(&net0));
        (
            s.gets - base.gets,
            s.entry_misses - base.entry_misses,
            s.filter_refreshes - base.filter_refreshes,
            net.round_trips,
        )
    };
    // CN 1 starts cold; CN 2 warm-starts from CN 0's snapshot.
    let (cold_gets, _, cold_refreshes, cold_rts) = ramp(1);
    index.load_sfc_snapshot(2, &snap).expect("snapshot load");
    let (warm_gets, warm_misses, warm_refreshes, warm_rts) = ramp(2);

    assert_eq!(cold_gets, warm_gets);
    assert!(
        cold_refreshes > 50,
        "cold CN must visibly ramp (taught only {cold_refreshes} prefixes)"
    );
    assert!(
        warm_refreshes * 10 < cold_refreshes,
        "warm-started CN still learning prefixes: {warm_refreshes} refreshes \
         vs {cold_refreshes} cold"
    );
    assert!(
        (warm_misses as f64) < warm_gets as f64 * 0.10,
        "warm-started CN missing its own frozen set: {warm_misses} entry \
         misses over {warm_gets} gets"
    );
    assert!(
        warm_rts < cold_rts,
        "warm start must save wire round trips ({warm_rts} vs {cold_rts})"
    );
    let stats = index.sfc_stats();
    assert_eq!(stats.snapshot_loads, 1);
    assert_eq!(stats.snapshot_rejects, 0);
    assert!(
        index.sfc_telemetry().counter("sfc.gen.snapshot_loads") > 0,
        "snapshot loads must surface in sphinx.telemetry.v2"
    );
    println!(
        "sfc: warm start taught {warm_refreshes} prefixes vs {cold_refreshes} cold; \
         {warm_rts} vs {cold_rts} round trips over {warm_gets} gets"
    );
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

    fn contracts(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let named = parse_cli(args.iter().map(|s| s.to_string()))?;
        Ok(named.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn no_contract_named_runs_all_five_in_order() {
        assert_eq!(
            contracts(&[]).unwrap(),
            ["telemetry", "pipeline", "trace", "metrics", "sfc"]
        );
        assert_eq!(contracts(&["sfc", "trace"]).unwrap(), ["sfc", "trace"]);
    }

    #[test]
    fn an_unknown_contract_or_any_flag_is_rejected() {
        assert!(contracts(&["metric"])
            .unwrap_err()
            .contains("unknown contract metric"));
        assert!(contracts(&["--keys", "5"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn counter_catalogue_globs() {
        assert!(glob_match("sfc.*", "sfc.probe_hit"));
        assert!(glob_match("mem.class_*.live", "mem.class_64.live"));
        assert!(!glob_match("mem.class_*.live", "mem.class_64.dead"));
        assert!(glob_match("*", ""));
        assert!(catalogue_patterns().len() >= 40);
    }
}
