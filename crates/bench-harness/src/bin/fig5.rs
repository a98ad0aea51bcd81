//! Fig. 5 — scalability: throughput–latency curves under YCSB-A.
//!
//! Sweeps the worker count (6–192, evenly spread over 3 CNs, matching the
//! paper's coroutine workers) and reports the (throughput, avg latency)
//! point per system and dataset. The virtual-time NIC model produces the
//! same hockey-stick saturation the paper attributes to traversal-heavy
//! indexes exhausting the NIC message rate.
//!
//! ```text
//! cargo run --release -p bench-harness --bin fig5 -- \
//!     [--keys 60000] [--total-ops 48000]
//! ```

use bench_harness::report::{arg_u64, ascii_curve, f3, Table};

use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use ycsb::{KeySpace, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let keys = arg_u64(&args, "--keys", 60_000);
    let total_ops = arg_u64(&args, "--total-ops", 48_000);
    let dataset_filter = args
        .iter()
        .position(|a| a == "--dataset")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "both".to_string());
    let worker_counts = [6usize, 12, 24, 48, 96, 192];

    println!("Fig. 5 — YCSB-A throughput–latency scalability");
    println!("keys={keys}, total measured ops per point={total_ops}\n");

    for keyspace in [KeySpace::U64, KeySpace::Email] {
        if dataset_filter != "both" && dataset_filter != keyspace.name() {
            continue;
        }
        let mut table = Table::new([
            "system",
            "workers",
            "mops",
            "avg_lat_us",
            "p99_lat_us",
            "rts_per_op",
        ]);
        let mut curves: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
        for sys in System::paper_lineup() {
            // One load per (system, dataset); the sweep reuses the tree.
            let most_workers = worker_counts.iter().max().copied().unwrap_or(0);
            let handle = sys.build_scaled(1 << 30, keys, most_workers + 8);
            load_phase(&handle, keyspace, keys, 8);
            let mut curve = Vec::new();
            for &workers in &worker_counts {
                let ops_per_worker = (total_ops / workers as u64).max(50);
                let cfg = RunConfig {
                    keyspace,
                    num_keys: keys,
                    workload: Workload::a(),
                    workers,
                    ops_per_worker,
                    warmup_per_worker: (ops_per_worker / 5).max(20),
                    seed: 0xF160_0005,
                    pipeline_depth: 1,
                    trace_head_every: 0,
                    trace_tail_k: obs::DEFAULT_TAIL_K,
                    sample_interval_ns: 0,
                    sample_capacity: 0,
                };
                let r = run_phase(&handle, &cfg);
                curve.push((r.mops, r.avg_latency_us));
                table.row([
                    sys.label().to_string(),
                    workers.to_string(),
                    f3(r.mops),
                    f3(r.avg_latency_us),
                    f3(r.p99_latency_us),
                    f3(r.round_trips_per_op),
                ]);
            }
            curves.push((sys.label(), curve));
        }
        println!("dataset: {}", keyspace.name());
        println!("{}", table.render());
        println!("{}", ascii_curve(&curves));
        table.write_csv(&format!("fig5_{}", keyspace.name()));
    }
}
