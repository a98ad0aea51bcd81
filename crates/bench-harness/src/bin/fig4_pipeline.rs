//! fig4/fig5 rerun with op pipelining — depth ∈ {1, 8}.
//!
//! Two sections, one CSV (`results/fig4_pipeline.csv`):
//!
//! * **fig4**: YCSB-C throughput for the paper's lineup (Sphinx, SMART,
//!   SMART+C, ART) over both datasets, plus the B+-tree on u64 keys, at
//!   pipeline depth 1 (a lookup machine driven alone) and 8, with per-op
//!   round trips, per-op *doorbells*, and per-phase rts/op columns. The
//!   per-phase columns show where the cross-op fusion lands: logical
//!   round trips per op stay put while doorbells per op collapse (total
//!   doorbells < total ops × legacy doorbells/op).
//! * **fig5**: the scalability sweep (YCSB-A worker ladder) for Sphinx at
//!   both depths — throughput = ops / max(worker virtual time), so the
//!   fused RTT overlap is visible directly in the Mops column.
//!
//! ```text
//! cargo run --release -p bench-harness --bin fig4_pipeline -- \
//!     [--keys 60000] [--ops 2000] [--workers 24]
//! ```

use bench_harness::report::{arg_u64, f3, Table};
use bench_harness::runner::{load_phase, run_phase, RunConfig, RunResult};
use bench_harness::systems::System;
use obs::{OpKind, Phase};
use ycsb::{KeySpace, Workload};

/// Per-phase read round trips per op. At depth 1 the attribution comes
/// from the blocking path's phase spans; at depth >1 from the pipeline's
/// per-tag aggregates (the spans of pipelined ops interleave and are not
/// phase-attributable from wall intervals).
fn phase_rts(r: &RunResult, depth: usize, phase: Phase) -> f64 {
    if depth > 1 {
        let ops = r.telemetry.counter("pipeline.ops");
        if ops == 0 {
            return 0.0;
        }
        let rts = r
            .telemetry
            .counter(&format!("pipeline.rts.{}", phase.name()));
        return rts as f64 / ops as f64;
    }
    let get = r.telemetry.op(OpKind::Get);
    if get.count == 0 {
        return 0.0;
    }
    get.phases[phase.idx()].round_trips as f64 / get.count as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let keys = arg_u64(&args, "--keys", 60_000);
    let ops = arg_u64(&args, "--ops", 2_000);
    let workers = arg_u64(&args, "--workers", 24) as usize;
    let depths = [1usize, node_engine::pipeline::DEFAULT_DEPTH];

    let mut table = Table::new([
        "section",
        "dataset",
        "system",
        "workers",
        "depth",
        "mops",
        "speedup",
        "rts_per_op",
        "doorbells_per_op",
        "inht_rts_op",
        "trav_rts_op",
        "leaf_rts_op",
    ]);

    println!("fig4/fig5 with op pipelining (depths {depths:?})");
    println!("keys={keys}, ops/worker={ops}\n");

    // fig4 section: YCSB-C, both datasets, every system.
    for keyspace in [KeySpace::U64, KeySpace::Email] {
        for sys in System::paper_lineup().into_iter().chain([System::BpTree]) {
            if sys == System::BpTree && keyspace == KeySpace::Email {
                continue; // fixed-width u64 keys only
            }
            let handle = sys.build_scaled(1 << 30, keys, workers + 8);
            load_phase(&handle, keyspace, keys, 8);
            let mut base_mops = 0.0;
            for depth in depths {
                let r = run_phase(
                    &handle,
                    &RunConfig {
                        num_keys: keys,
                        workers,
                        ops_per_worker: ops,
                        warmup_per_worker: (ops / 5).max(50),
                        seed: 0xF160_0004,
                        pipeline_depth: depth,
                        ..RunConfig::quick(keyspace, Workload::c())
                    },
                );
                if depth == 1 {
                    base_mops = r.mops;
                }
                let speedup = r.mops / base_mops;
                println!(
                    "fig4 {} {:<7} depth {depth}: {:.3} Mops ({speedup:.2}x), \
                     rts/op {:.3}, doorbells/op {:.3}",
                    keyspace.name(),
                    sys.label(),
                    r.mops,
                    r.round_trips_per_op,
                    r.doorbells_per_op,
                );
                table.row([
                    "fig4".to_string(),
                    keyspace.name().to_string(),
                    sys.label().to_string(),
                    workers.to_string(),
                    depth.to_string(),
                    f3(r.mops),
                    f3(speedup),
                    f3(r.round_trips_per_op),
                    f3(r.doorbells_per_op),
                    f3(phase_rts(&r, depth, Phase::InhtLookup)),
                    f3(phase_rts(&r, depth, Phase::Traversal)),
                    f3(phase_rts(&r, depth, Phase::LeafRead)),
                ]);
            }
        }
    }
    println!();

    // fig5 section: the YCSB-A scalability ladder for Sphinx, u64.
    let handle = System::Sphinx.build_scaled(1 << 30, keys, 48 + 8);
    load_phase(&handle, KeySpace::U64, keys, 8);
    for w in [6usize, 12, 24, 48] {
        let mut base_mops = 0.0;
        for depth in depths {
            let r = run_phase(
                &handle,
                &RunConfig {
                    num_keys: keys,
                    workers: w,
                    ops_per_worker: ops,
                    warmup_per_worker: (ops / 5).max(20),
                    seed: 0xF160_0005,
                    pipeline_depth: depth,
                    ..RunConfig::quick(KeySpace::U64, Workload::a())
                },
            );
            if depth == 1 {
                base_mops = r.mops;
            }
            let speedup = r.mops / base_mops;
            println!(
                "fig5 {w:>3} workers depth {depth}: {:.3} Mops ({speedup:.2}x), \
                 rts/op {:.3}, doorbells/op {:.3}",
                r.mops, r.round_trips_per_op, r.doorbells_per_op,
            );
            table.row([
                "fig5".to_string(),
                "u64".to_string(),
                "Sphinx".to_string(),
                w.to_string(),
                depth.to_string(),
                f3(r.mops),
                f3(speedup),
                f3(r.round_trips_per_op),
                f3(r.doorbells_per_op),
                f3(phase_rts(&r, depth, Phase::InhtLookup)),
                f3(phase_rts(&r, depth, Phase::Traversal)),
                f3(phase_rts(&r, depth, Phase::LeafRead)),
            ]);
        }
    }

    println!("\n{}", table.render());
    table.write_csv("fig4_pipeline");
    println!("wrote results/fig4_pipeline.csv");
}
