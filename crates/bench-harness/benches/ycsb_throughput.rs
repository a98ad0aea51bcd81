//! Criterion companion to Fig. 4: virtual-time makespan of a fixed YCSB
//! batch per system. Smaller is better; the `fig4` binary prints the full
//! table with throughput in Mops.
//!
//! Uses `iter_custom` to report the *simulated* (virtual) duration of the
//! measured batch rather than host wall time, which is the quantity the
//! paper's figures are about.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use ycsb::{KeySpace, Workload};

const KEYS: u64 = 10_000;

fn bench_workload(c: &mut Criterion, workload_name: &str) {
    let mut group = c.benchmark_group(format!("ycsb_{workload_name}_u64"));
    group.sample_size(10);
    for sys in System::paper_lineup() {
        let handle = sys.build_scaled(512 << 20, KEYS, 6);
        load_phase(&handle, KeySpace::U64, KEYS, 4);
        let workload = Workload::by_name(workload_name).expect("workload");
        let ops = if workload_name == "E" { 30 } else { 300 };
        group.bench_function(sys.label(), |b| {
            b.iter_custom(|iters| {
                let mut virtual_total = Duration::ZERO;
                for i in 0..iters {
                    let r = run_phase(
                        &handle,
                        &RunConfig {
                            keyspace: KeySpace::U64,
                            num_keys: KEYS,
                            workload: workload.clone(),
                            workers: 6,
                            ops_per_worker: ops,
                            warmup_per_worker: 30,
                            seed: 0xBE4C_0000 + i,
                            pipeline_depth: 1,
                            trace_head_every: 0,
                            trace_tail_k: obs::DEFAULT_TAIL_K,
                            sample_interval_ns: 0,
                            sample_capacity: 0,
                        },
                    );
                    let makespan_s = r.total_ops as f64 / (r.mops * 1e6);
                    virtual_total += Duration::from_secs_f64(makespan_s);
                }
                virtual_total
            })
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_workload(c, "A");
    bench_workload(c, "C");
    bench_workload(c, "E");
}

criterion_group! {
    name = ycsb;
    config = Criterion::default().measurement_time(Duration::from_secs(10));
    targets = benches
}
criterion_main!(ycsb);
