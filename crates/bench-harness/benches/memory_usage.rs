//! Criterion companion to Fig. 6: cost of loading a key batch into each
//! system (wall time of the build+load pipeline), with the resulting
//! MN-side memory printed once per system — the `fig6` binary emits the
//! full memory table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bench_harness::runner::load_phase;
use bench_harness::systems::System;
use ycsb::KeySpace;

const KEYS: u64 = 5_000;

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("load_5k_u64");
    group.sample_size(10);
    for sys in [System::Art, System::Sphinx, System::Smart] {
        let printed = AtomicBool::new(false);
        group.bench_function(sys.label(), |b| {
            b.iter(|| {
                let handle = sys.build_scaled(512 << 20, KEYS, 4);
                load_phase(&handle, KeySpace::U64, KEYS, 4);
                if !printed.swap(true, Ordering::Relaxed) {
                    let (art, aux) = handle.memory_breakdown();
                    eprintln!(
                        "[fig6] {}: art={} KiB aux={} KiB (see `fig6` binary for the table)",
                        sys.label(),
                        art / 1024,
                        aux / 1024
                    );
                }
                handle
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = memory;
    config = Criterion::default().measurement_time(Duration::from_secs(12));
    targets = benches
}
criterion_main!(memory);
