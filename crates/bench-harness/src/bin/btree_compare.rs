//! Extension — index families head to head on their home turf.
//!
//! The paper's introduction argues that variable-length keys push DM
//! systems toward ART-family indexes; the implicit counterpoint is that a
//! B+-tree (Sherman-style) is a strong competitor for *fixed-width* keys:
//! shallow (fanout 62), internal nodes that cache beautifully, and linked
//! leaves that make scans a chain walk.
//!
//! This experiment runs Sphinx, SMART, ART and the Sherman-lite B+-tree
//! on the u64 dataset (point workloads + a scan-heavy one). The email
//! dataset has no B+-tree row — it *cannot* be represented with fixed
//! 8-byte slots, which is the paper's motivation in one table.
//!
//! ```text
//! cargo run --release -p bench-harness --bin btree_compare -- \
//!     [--keys 60000] [--ops 1500] [--workers 24]
//! ```

use bench_harness::report::{arg_u64, f3, Table};
use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use ycsb::{KeySpace, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let keys = arg_u64(&args, "--keys", 60_000);
    let ops = arg_u64(&args, "--ops", 1_500);
    let workers = arg_u64(&args, "--workers", 24) as usize;

    println!("Extension — index families on the u64 dataset");
    println!("keys={keys}, {workers} workers, {ops} ops/worker\n");
    let mut table = Table::new([
        "workload",
        "system",
        "mops",
        "avg_lat_us",
        "rts_per_op",
        "bytes_per_op",
    ]);

    let systems = [System::Sphinx, System::Smart, System::Art, System::BpTree];
    for wl_name in ["C", "A", "E"] {
        for sys in systems {
            let handle = sys.build_scaled(1 << 30, keys, workers + 8);
            load_phase(&handle, KeySpace::U64, keys, 8);
            let workload = Workload::by_name(wl_name).expect("workload");
            let ops_here = if wl_name == "E" {
                (ops / 8).max(1)
            } else {
                ops
            };
            let r = run_phase(
                &handle,
                &RunConfig {
                    keyspace: KeySpace::U64,
                    num_keys: keys,
                    workload,
                    workers,
                    ops_per_worker: ops_here,
                    warmup_per_worker: (ops_here / 5).max(50),
                    seed: 0xB7EE_0001,
                    pipeline_depth: 1,
                    trace_head_every: 0,
                    trace_tail_k: obs::DEFAULT_TAIL_K,
                    sample_interval_ns: 0,
                    sample_capacity: 0,
                },
            );
            table.row([
                format!("YCSB-{wl_name}"),
                sys.label().to_string(),
                f3(r.mops),
                f3(r.avg_latency_us),
                f3(r.round_trips_per_op),
                format!("{:.0}", r.bytes_per_op),
            ]);
        }
    }
    println!("{}", table.render());
    table.write_csv("btree_compare");
    println!(
        "email dataset: no B+Tree row — 2–32-byte keys cannot fill fixed 8-byte\n\
         slots; supporting them would mean padding every key to the maximum\n\
         (4x space, lost prefix sharing), the gap ART-family indexes fill."
    );
}
