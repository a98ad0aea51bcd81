//! A command-line YCSB driver over any of the four systems.
//!
//! ```text
//! cargo run --release -p sphinx-examples --bin ycsb_driver -- \
//!     --system sphinx --workload A --dataset email \
//!     [--keys 60000] [--ops 2000] [--workers 24] [--uniform]
//! ```
//!
//! Prints the virtual-time throughput/latency plus the network-cost
//! counters for the chosen cell of the paper's Fig. 4 grid.

use bench_harness::report::arg_u64;
use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use ycsb::{KeySpace, Workload};

fn arg_str<'a>(args: &'a [String], flag: &str, default: &'a str) -> &'a str {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map_or(default, |v| v.as_str())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let system = match arg_str(&args, "--system", "sphinx")
        .to_ascii_lowercase()
        .as_str()
    {
        "sphinx" => System::Sphinx,
        "sphinx-inht" => System::SphinxInhtOnly,
        "smart" => System::Smart,
        "smartc" | "smart+c" => System::SmartC,
        "art" => System::Art,
        "bptree" | "btree" => System::BpTree,
        other => {
            eprintln!("unknown system {other}; use sphinx|sphinx-inht|smart|smartc|art|bptree");
            std::process::exit(2);
        }
    };
    let mut workload = match Workload::by_name(arg_str(&args, "--workload", "A")) {
        Some(w) => w,
        None => {
            eprintln!("unknown workload; use A|B|C|D|E|F|LOAD");
            std::process::exit(2);
        }
    };
    if args.iter().any(|a| a == "--uniform") {
        workload = workload.with_uniform();
    }
    let keyspace = match arg_str(&args, "--dataset", "u64")
        .to_ascii_lowercase()
        .as_str()
    {
        "u64" => KeySpace::U64,
        "email" => KeySpace::Email,
        other => {
            eprintln!("unknown dataset {other}; use u64|email");
            std::process::exit(2);
        }
    };
    if system == System::BpTree && arg_str(&args, "--dataset", "u64") != "u64" {
        eprintln!("the B+tree supports fixed 8-byte keys only: use --dataset u64");
        std::process::exit(2);
    }
    let keys = arg_u64(&args, "--keys", 60_000);
    let ops = arg_u64(&args, "--ops", 2_000);
    let workers = arg_u64(&args, "--workers", 24) as usize;

    println!(
        "{} | YCSB-{} | {} | {} keys | {} workers x {} ops",
        system.label(),
        workload.name,
        keyspace.name(),
        keys,
        workers,
        ops
    );

    let handle = system.build_scaled(1 << 30, keys, workers + 8);
    let preloaded = if workload.name == "LOAD" { 1 } else { keys };
    load_phase(&handle, keyspace, preloaded, 8);
    let result = run_phase(
        &handle,
        &RunConfig {
            keyspace,
            num_keys: preloaded,
            workload,
            workers,
            ops_per_worker: ops,
            warmup_per_worker: (ops / 5).max(50),
            seed: 0xD21E_0001,
            pipeline_depth: 1,
            trace_head_every: 0,
            trace_tail_k: obs::DEFAULT_TAIL_K,
            sample_interval_ns: 0,
            sample_capacity: 0,
        },
    );

    println!(
        "\nthroughput       {:.3} Mops/s (virtual time)",
        result.mops
    );
    println!("avg latency      {:.2} us", result.avg_latency_us);
    println!("p99 latency      {:.2} us", result.p99_latency_us);
    println!("round trips/op   {:.2}", result.round_trips_per_op);
    println!("wire bytes/op    {:.0}", result.bytes_per_op);
}
