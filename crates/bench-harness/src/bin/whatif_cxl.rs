//! What-if: the same indexes on CXL-class interconnect.
//!
//! The paper motivates DM with both RDMA and CXL (§II-A) but evaluates on
//! RDMA. This experiment re-runs YCSB-C under a CXL-like cost model
//! (~400 ns round trips, higher link bandwidth) to ask: how much of
//! Sphinx's advantage is round-trip elimination, and does it survive when
//! round trips get 5× cheaper?
//!
//! Expected shape: the absolute gap shrinks (everyone's traversals get
//! cheap) but the ordering persists — fewer round trips and fewer bytes
//! still win, just by less.
//!
//! ```text
//! cargo run --release -p bench-harness --bin whatif_cxl -- \
//!     [--keys 60000] [--ops 1500] [--workers 24]
//! ```

use bench_harness::report::{arg_u64, f3, Table};
use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::{paper_cache_bytes, System};
use dm_sim::{ClusterConfig, DmCluster, NetConfig};
use ycsb::{KeySpace, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let keys = arg_u64(&args, "--keys", 60_000);
    let ops = arg_u64(&args, "--ops", 1_500);
    let workers = arg_u64(&args, "--workers", 24) as usize;

    println!("What-if — YCSB-C on u64 under RDMA vs CXL cost models");
    println!("keys={keys}, {workers} workers, {ops} ops/worker\n");
    let mut table = Table::new(["interconnect", "system", "mops", "avg_lat_us", "rts_per_op"]);

    for (label, net) in [("RDMA", NetConfig::rdma()), ("CXL", NetConfig::cxl())] {
        for sys in [System::Sphinx, System::Smart, System::Art] {
            let cluster = DmCluster::new(ClusterConfig {
                num_mns: 3,
                num_cns: 3,
                mn_capacity: 1 << 30,
                net: net.clone(),
                ..Default::default()
            });
            let handle = sys.build_on(&cluster, Some(paper_cache_bytes(keys)));
            load_phase(&handle, KeySpace::U64, keys, 8);
            let r = run_phase(
                &handle,
                &RunConfig {
                    keyspace: KeySpace::U64,
                    num_keys: keys,
                    workload: Workload::c(),
                    workers,
                    ops_per_worker: ops,
                    warmup_per_worker: (ops / 5).max(50),
                    seed: 0xC1_2024,
                    pipeline_depth: 1,
                    trace_head_every: 0,
                    trace_tail_k: obs::DEFAULT_TAIL_K,
                    sample_interval_ns: 0,
                    sample_capacity: 0,
                },
            );
            table.row([
                label.to_string(),
                sys.label().to_string(),
                f3(r.mops),
                f3(r.avg_latency_us),
                f3(r.round_trips_per_op),
            ]);
        }
    }
    println!("{}", table.render());
    table.write_csv("whatif_cxl");
}
