//! Fig. 4 — throughput under the YCSB benchmark.
//!
//! Reproduces the paper's headline figure: throughput of Sphinx, SMART
//! (scaled 20 MB cache), SMART+C (10×) and ART on YCSB A/B/C/D/E/LOAD
//! over the u64 and email datasets (zipfian 0.99, 64-byte values).
//!
//! One tree is loaded per (system, dataset) and reused across the
//! workloads (read-heavy first, LOAD last — it measures insert throughput
//! of fresh keys into the loaded tree).
//!
//! ```text
//! cargo run --release -p bench-harness --bin fig4 -- \
//!     [--keys 60000] [--ops 2000] [--workers 24]
//! ```

use bench_harness::report::{arg_u64, f3, write_json, Table};
use bench_harness::runner::{load_phase, run_phase, RunConfig};
use bench_harness::systems::System;
use obs::{OpKind, Phase};
use ycsb::{KeySpace, Workload};

/// Compact per-phase round-trip attribution for point lookups — the
/// telemetry view of the paper's cost argument (SFC hit ≈ one hash-entry
/// read; miss walks Θ(L) prefixes).
fn get_phase_summary(reg: &obs::Registry) -> String {
    let get = reg.op(OpKind::Get);
    if get.count == 0 {
        return String::from("(no gets)");
    }
    let per = |p: Phase| get.phases[p.idx()].round_trips as f64 / get.count as f64;
    let hits = reg.counter("sfc.probe_hit");
    let probes = hits + reg.counter("sfc.probe_miss");
    let mut s = format!(
        "get rts/op: InhtLookup {:.2}, Traversal {:.2}, LeafRead {:.2}",
        per(Phase::InhtLookup),
        per(Phase::Traversal),
        per(Phase::LeafRead),
    );
    if probes > 0 {
        s.push_str(&format!(
            " | sfc probe hit-rate {:.1}%",
            hits as f64 / probes as f64 * 100.0
        ));
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let keys = arg_u64(&args, "--keys", 60_000);
    let ops = arg_u64(&args, "--ops", 2_000);
    let workers = arg_u64(&args, "--workers", 96) as usize;

    // Display order matches the paper; execution order puts the read-only
    // workload first so the reused tree is pristine for it, and LOAD last
    // (it measures insert throughput *into the loaded tree*, approximating
    // the paper's steady-state load of a 60 M-key dataset).
    let display = ["LOAD", "A", "B", "C", "D", "E"];
    println!("Fig. 4 — YCSB throughput (Mops/s, virtual time)");
    println!("keys={keys} per dataset, {workers} workers, {ops} ops/worker\n");

    for keyspace in [KeySpace::U64, KeySpace::Email] {
        let mut table = Table::new(
            std::iter::once("system".to_string())
                .chain(display.iter().map(|w| format!("YCSB-{w}"))),
        );
        let mut per_system: Vec<Vec<f64>> = Vec::new();
        let mut phase_lines: Vec<String> = Vec::new();
        for sys in System::paper_lineup() {
            let mut mops = std::collections::HashMap::new();
            let mut telem = obs::Registry::new();

            // Preloaded tree for A–E.
            let handle = sys.build_scaled(1 << 30, keys, workers + 8);
            load_phase(&handle, keyspace, keys, 8);
            for wl_name in ["C", "B", "A", "D", "E"] {
                let workload = Workload::by_name(wl_name).expect("workload");
                let ops_here = if wl_name == "E" {
                    (ops / 8).max(1)
                } else {
                    ops
                };
                let r = run_phase(
                    &handle,
                    &RunConfig {
                        keyspace,
                        num_keys: keys,
                        workload,
                        workers,
                        ops_per_worker: ops_here,
                        warmup_per_worker: (ops_here / 5).max(50),
                        seed: 0xF160_0004,
                        pipeline_depth: 1,
                        trace_head_every: 0,
                        trace_tail_k: obs::DEFAULT_TAIL_K,
                        sample_interval_ns: 0,
                        sample_capacity: 0,
                    },
                );
                telem.merge(&r.telemetry);
                mops.insert(wl_name, r.mops);
            }

            // LOAD: insert throughput of brand-new keys into the loaded
            // tree (the tail of the paper's 60 M-key load phase).
            let r = run_phase(
                &handle,
                &RunConfig {
                    keyspace,
                    num_keys: keys,
                    workload: Workload::load(),
                    workers,
                    ops_per_worker: ops,
                    warmup_per_worker: (ops / 5).max(50),
                    seed: 0xF160_0004,
                    pipeline_depth: 1,
                    trace_head_every: 0,
                    trace_tail_k: obs::DEFAULT_TAIL_K,
                    sample_interval_ns: 0,
                    sample_capacity: 0,
                },
            );
            telem.merge(&r.telemetry);
            mops.insert("LOAD", r.mops);

            let slug = sys.label().to_lowercase().replace('+', "_plus_");
            write_json(
                &format!("fig4_telemetry_{}_{}", keyspace.name(), slug),
                &telem.to_json(),
            );
            phase_lines.push(format!("{:<10} {}", sys.label(), get_phase_summary(&telem)));

            let row: Vec<f64> = display.iter().map(|w| mops[w]).collect();
            table.row(std::iter::once(sys.label().to_string()).chain(row.iter().map(|m| f3(*m))));
            per_system.push(row);
        }
        println!("dataset: {}", keyspace.name());
        println!("{}", table.render());
        table.write_csv(&format!("fig4_{}", keyspace.name()));
        println!("phase attribution (full run incl. warm-up; JSON in results/):");
        for line in &phase_lines {
            println!("  {line}");
        }
        println!();

        // The paper's headline: Sphinx vs best/worst competitor per
        // workload.
        let sphinx = &per_system[0];
        let mut min_gain = f64::INFINITY;
        let mut max_gain: f64 = 0.0;
        for (w, _) in display.iter().enumerate() {
            let best_other = per_system[1..]
                .iter()
                .map(|row| row[w])
                .fold(f64::MIN, f64::max);
            let worst_other = per_system[1..]
                .iter()
                .map(|row| row[w])
                .fold(f64::MAX, f64::min);
            min_gain = min_gain.min(sphinx[w] / best_other);
            max_gain = max_gain.max(sphinx[w] / worst_other);
        }
        println!(
            "Sphinx speedup over competitors on {}: {:.1}x – {:.1}x (paper: {})\n",
            keyspace.name(),
            min_gain,
            max_gain,
            if keyspace == KeySpace::U64 {
                "1.2–3.6x"
            } else {
                "1.9–7.3x"
            },
        );
    }
}
