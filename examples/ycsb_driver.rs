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

use bench_harness::report::{usage_exit, Args, Flag};
use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use ycsb::{KeySpace, Workload};

const USAGE: &str = "usage: ycsb_driver [--system sphinx|sphinx-inht|smart|smartc|art|bptree] \
    [--workload A|B|C|D|E|F|LOAD] [--dataset u64|email] [--keys N] [--ops N] [--workers N] \
    [--uniform]";

const FLAGS: &[Flag] = &[
    Flag::Text("--system"),
    Flag::Text("--workload"),
    Flag::Text("--dataset"),
    Flag::Num("--keys"),
    Flag::Num("--ops"),
    Flag::Num("--workers"),
    Flag::Switch("--uniform"),
];

fn main() {
    let args =
        Args::parse(FLAGS, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(USAGE, &e));
    if let Some(word) = args.words.first() {
        usage_exit(USAGE, &format!("unexpected argument {word}"));
    }
    let system = args.text("--system", "sphinx");
    let system = System::from_name(system)
        .unwrap_or_else(|| usage_exit(USAGE, &format!("unknown system {system}")));
    let workload = args.text("--workload", "A");
    let mut workload = Workload::by_name(workload)
        .unwrap_or_else(|| usage_exit(USAGE, &format!("unknown workload {workload}")));
    if args.switch("--uniform") {
        workload = workload.with_uniform();
    }
    let keyspace = match args.text("--dataset", "u64").to_ascii_lowercase().as_str() {
        "u64" => KeySpace::U64,
        "email" => KeySpace::Email,
        other => usage_exit(USAGE, &format!("unknown dataset {other}")),
    };
    if system == System::BpTree && keyspace != KeySpace::U64 {
        usage_exit(
            USAGE,
            "the B+tree supports fixed 8-byte keys only: use --dataset u64",
        );
    }
    let keys = args.num("--keys", 60_000);
    let ops = args.num("--ops", 2_000);
    let workers = args.num("--workers", 24) as usize;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_documented_command_line_parses_and_a_typo_does_not() {
        let parse = |a: &[&str]| Args::parse(FLAGS, a.iter().map(|s| s.to_string()));
        let a = parse(&["--system", "smart+c", "--workload", "A", "--workers", "96"]).unwrap();
        assert_eq!(
            System::from_name(a.text("--system", "")),
            Some(System::SmartC)
        );
        assert_eq!(a.num("--workers", 24), 96);
        assert!(parse(&["--worker", "96"]).is_err());
        assert!(parse(&["--keys"]).is_err());
    }
}
