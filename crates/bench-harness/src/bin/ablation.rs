//! Ablation — what each Sphinx component buys.
//!
//! Compares, under read-only YCSB-C on both datasets:
//! * **Sphinx** (INHT + Succinct Filter Cache),
//! * **Sphinx-INHT** (hash table only: parallel hash-entry reads for all
//!   prefixes, §III-A without §III-B),
//! * **ART** (neither).
//!
//! The interesting columns are round trips and bytes per operation: the
//! INHT collapses round trips; the SFC collapses the verb count and bytes
//! (Θ(L) → 1 hash-entry reads).
//!
//! ```text
//! cargo run --release -p bench-harness --bin ablation -- \
//!     [--keys 60000] [--ops 2000] [--workers 24]
//! ```

use bench_harness::report::{arg_u64, f3, write_json, Table};
use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use obs::{OpKind, Phase};
use ycsb::{KeySpace, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let keys = arg_u64(&args, "--keys", 60_000);
    let ops = arg_u64(&args, "--ops", 2_000);
    let workers = arg_u64(&args, "--workers", 24) as usize;

    println!("Ablation — YCSB-C, {keys} keys, {workers} workers\n");
    // The three *_rts columns are per-phase round-trip attribution for
    // point lookups (whole worker lifetime): the SFC collapses InhtLookup
    // from Θ(L) hash-entry reads to ~1, which is the paper's §III-B claim
    // made directly visible.
    let mut table = Table::new([
        "dataset",
        "variant",
        "mops",
        "avg_lat_us",
        "rts_per_op",
        "bytes_per_op",
        "inht_rts",
        "trav_rts",
        "leaf_rts",
    ]);

    for keyspace in [KeySpace::U64, KeySpace::Email] {
        for sys in [System::Sphinx, System::SphinxInhtOnly, System::Art] {
            let handle = sys.build_scaled(1 << 30, keys, workers + 8);
            load_phase(&handle, keyspace, keys, 8);
            let cfg = RunConfig {
                keyspace,
                num_keys: keys,
                workload: Workload::c(),
                workers,
                ops_per_worker: ops,
                warmup_per_worker: (ops / 5).max(50),
                seed: 0xAB1A_7104,
                pipeline_depth: 1,
                trace_head_every: 0,
                trace_tail_k: obs::DEFAULT_TAIL_K,
                sample_interval_ns: 0,
                sample_capacity: 0,
            };
            let r = run_phase(&handle, &cfg);
            let get = r.telemetry.op(OpKind::Get);
            let per = |p: Phase| {
                if get.count == 0 {
                    0.0
                } else {
                    get.phases[p.idx()].round_trips as f64 / get.count as f64
                }
            };
            write_json(
                &format!(
                    "ablation_telemetry_{}_{}",
                    keyspace.name(),
                    sys.label().to_lowercase().replace('+', "_plus_")
                ),
                &r.telemetry.to_json(),
            );
            table.row([
                keyspace.name().to_string(),
                sys.label().to_string(),
                f3(r.mops),
                f3(r.avg_latency_us),
                f3(r.round_trips_per_op),
                format!("{:.0}", r.bytes_per_op),
                f3(per(Phase::InhtLookup)),
                f3(per(Phase::Traversal)),
                f3(per(Phase::LeafRead)),
            ]);
        }
    }
    println!("{}", table.render());
    table.write_csv("ablation");
    println!("per-phase telemetry JSON written to results/ablation_telemetry_*.json");
}
