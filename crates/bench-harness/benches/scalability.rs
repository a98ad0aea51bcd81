//! Criterion companion to Fig. 5: virtual-time makespan of a fixed YCSB-A
//! batch as the worker count grows. A scalable system's makespan shrinks
//! with more workers; a saturated one's does not — the `fig5` binary
//! prints the full throughput–latency curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use ycsb::{KeySpace, Workload};

const KEYS: u64 = 10_000;
const TOTAL_OPS: u64 = 1_800;

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("ycsb_a_scalability_u64");
    group.sample_size(10);
    for sys in [System::Sphinx, System::Art] {
        let handle = sys.build_scaled(512 << 20, KEYS, 96);
        load_phase(&handle, KeySpace::U64, KEYS, 4);
        for workers in [6usize, 24, 96] {
            group.bench_function(BenchmarkId::new(sys.label(), workers), |b| {
                b.iter_custom(|iters| {
                    let mut virtual_total = Duration::ZERO;
                    for i in 0..iters {
                        let r = run_phase(
                            &handle,
                            &RunConfig {
                                keyspace: KeySpace::U64,
                                num_keys: KEYS,
                                workload: Workload::a(),
                                workers,
                                ops_per_worker: TOTAL_OPS / workers as u64,
                                warmup_per_worker: 20,
                                seed: 0x5CA1_E000 + i,
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
    }
    group.finish();
}

criterion_group! {
    name = scalability;
    config = Criterion::default().measurement_time(Duration::from_secs(10));
    targets = benches
}
criterion_main!(scalability);
