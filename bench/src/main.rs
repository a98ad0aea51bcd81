//! `sphinx-bench`: the repo benchmark. See `README.md` in this directory
//! for the workload and metric catalogue.
//!
//! ```text
//! sphinx-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sphinx-bench all       [--seed <n>] [--seconds <s>]
//! sphinx-bench selfcheck [--seed <n>]
//! sphinx-bench delete-churn [--seed <n>]   (repro of the excluded-delete defects)
//! ```
//!
//! The first form runs one workload and prints its metrics, by name and
//! with units, ending with one JSON object on the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of the traced run with `--trace 1`. It exits non-zero when the oracle
//! saw any failure.

mod affinity;
mod alloc;
mod catalog;
mod churn;
mod driver;
mod layers;
mod oracle;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use catalog::{def, Metric, END_TO_END};
use driver::{Loaded, Params, Pass};
use stats::{band_mean, fast_decile, median, percentile, samples_beyond};
use workloads::Spec;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `--seconds` at which the workloads have their full, documented size.
const FULL_SCALE_SECONDS: f64 = 10.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 5;

/// One finished run of one workload.
struct Output {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// What the traced part of a run hands to the per-layer report.
struct Traced {
    gauges: layers::Gauges,
    pass: Pass,
    replay_log: spans::SpanLog,
    costs: layers::UnitCosts,
    search_rts: f64,
    baselines: [f64; 4],
}

fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn end_to_end(ld: &Loaded, w: &Pass, setup_s: f64) -> Vec<Metric> {
    let n = w.vt_lat.len() as u64;
    let us = |lo: f64, hi: f64| band_mean(&w.vt_lat, lo, hi) / 1e3;
    let live_bytes = ld.cluster.total_live_bytes() as f64;
    [
        ("vt_mops", w.ops as f64 / w.vt_ns.max(1) as f64 * 1e3, w.ops),
        ("vt_mid_us", us(0.25, 0.75), n / 2),
        ("vt_p99_band_us", us(0.99, 0.999), n * 9 / 1000),
        ("vt_p999_band_us", us(0.999, 0.9999), n * 9 / 10_000),
        (
            "host_ns_per_op",
            fast_decile(&w.host_slices),
            w.host_slices.len() as u64,
        ),
        ("setup_s", setup_s, 0),
        (
            "mn_bytes_per_key",
            live_bytes / ld.live_keys() as f64,
            ld.live_keys(),
        ),
    ]
    .into_iter()
    .map(|(name, value, samples)| Metric {
        def: def(END_TO_END, name),
        value,
        samples,
    })
    .collect()
}

/// Runs one workload: set-up (several times untraced, for a steady
/// `setup_s`), warm-up, the measured window, and — traced — the traced
/// pass, layer replay and reference rows; then the full read-back.
fn run_workload(spec: &Spec, params: Params, trace: bool, setups: usize) -> Result<Output, String> {
    let fail = |e: sphinx::SphinxError| format!("{}: {e}", spec.name);
    if matches!(spec.shape, workloads::Shape::Sched { .. }) {
        // Lock-step participants never run in parallel: keep the whole
        // process on one CPU (threads inherit it), see affinity.rs.
        affinity::pin_to_first_allowed_cpu();
    }
    // Host wall seconds of each stage, for the run-time budget.
    let mut stages: Vec<(&str, f64)> = Vec::new();
    let mut clock = Instant::now();
    let mut stage = |name: &'static str| {
        stages.push((name, clock.elapsed().as_secs_f64()));
        clock = Instant::now();
    };
    let mut setup_times = Vec::new();
    let mut loaded = None;
    for _ in 0..setups.max(1) {
        drop(loaded.take()); // one 384 MiB cluster at a time
        let ld = driver::setup(spec, params).map_err(fail)?;
        setup_times.push(ld.setup_s);
        loaded = Some(ld);
    }
    let mut ld = loaded.expect("at least one set-up");
    let calls = ld.window_calls();
    stage("set-up");

    ld.run_pass(workloads::scaled(spec.calls, params.scale / 10.0), false)
        .map_err(fail)?;
    stage("warm-up");
    let window = ld.run_pass(calls, false).map_err(fail)?;
    stage("window");
    let e2e = end_to_end(&ld, &window, median(&setup_times));
    let mut notes = vec![format!(
        "{}: {} keys preloaded, {} calls ({} ops) measured, {} participant(s), scale {}",
        spec.name,
        ld.preloaded,
        window.calls,
        window.ops,
        spec.participants(),
        params.scale
    )];
    let exact = |q: f64| percentile(&window.vt_lat, q) as f64 / 1e3;
    notes.push(format!(
        "exact call-latency percentiles (nearest rank, us_virtual): p50 {} p99 {} p999 {} over {} samples, \
         {} beyond p99, {} beyond p999",
        exact(0.5),
        exact(0.99),
        exact(0.999),
        window.vt_lat.len(),
        samples_beyond(window.vt_lat.len(), 0.99),
        samples_beyond(window.vt_lat.len(), 0.999)
    ));

    let mut extra = oracle::Tally::default();
    let mut layer = Vec::new();
    let mut traced_parts = None;
    if trace {
        let gauges = layers::gauges(&ld)?;
        let traced = ld
            .run_pass(workloads::scaled(spec.calls, params.scale / 4.0), true)
            .map_err(fail)?;
        stage("traced pass");
        let mut replay_log = spans::SpanLog::with_capacity(16_384);
        let (costs, search_rts) = layers::replay(&mut ld, &mut replay_log)?;
        stage("replay");
        let baselines = if spec.name == "ycsb_a_nicbound" {
            let (rows, tally) = layers::baseline_rows(spec, params);
            extra.merge(&tally);
            let (lo, hi) = layers::EMAIL_BAND;
            notes.push(format!(
                "baselines: Sphinx is {:.2}x the best baseline; the paper's email band is {lo}-{hi}x: {}. \
                 The model is validated only against the paper's ratio bands, not against hardware.",
                rows[3],
                if (lo..=hi).contains(&rows[3]) { "inside" } else { "OUTSIDE" }
            ));
            rows
        } else {
            [0.0; 4]
        };
        stage("baselines");
        traced_parts = Some(Traced {
            gauges,
            pass: traced,
            replay_log,
            costs,
            search_rts,
            baselines,
        });
    }

    // Correctness: every live key reads back, the live count is exact and
    // the structure audit is clean.
    let read = ld.read_back();
    stage("read-back");
    let report = ld.index.verify().map_err(fail)?;
    stage("verify");
    let mut verify_problems = report.problems.len() as u64;
    for p in report.problems.iter().take(5) {
        notes.push(format!("verify: {p}"));
    }
    if report.leaves as u64 != ld.live_keys() {
        verify_problems += 1;
        notes.push(format!(
            "verify: {} live leaves, the model holds {}",
            report.leaves,
            ld.live_keys()
        ));
    }
    notes.push(format!(
        "read-back: {read} keys, verify(): {} inner nodes, {} leaves, {} problems",
        report.inner_nodes,
        report.leaves,
        report.problems.len()
    ));

    if let Some(t) = traced_parts {
        layer = layers::layer_metrics(
            &ld,
            &layers::LayerInputs {
                window: &window,
                gauges: t.gauges,
                traced: &t.pass,
                costs: &t.costs,
                search_rts: t.search_rts,
                baselines: t.baselines,
                verify_problems,
            },
        )?;
        let value = |name: &str| {
            layer
                .iter()
                .find(|m| m.def.name == name)
                .map_or(0.0, |m| m.value)
        };
        let rts_sum: f64 = layer
            .iter()
            .filter(|m| m.def.name.starts_with("core.rts."))
            .map(|m| m.value)
            .sum();
        notes.push(format!(
            "core.rts.* sum to {rts_sum:.4}, dm-sim.rts_per_op is {:.4}",
            value("dm-sim.rts_per_op")
        ));
        if spec.name == "ycsb_c_pipe" {
            notes.push(format!(
                "doorbells/op {:.3} vs 0.5 x rts/op {:.3}",
                value("dm-sim.doorbells_per_op"),
                0.5 * value("dm-sim.rts_per_op")
            ));
        }
        let mut log = t.pass.spans.expect("traced pass keeps spans");
        log.absorb(t.replay_log);
        let path = out_dir().join(format!("{}.spans.json", spec.name));
        log.write_json(&path, spec.name, params.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            log.spans.len(),
            path.display()
        ));
    }

    stage("report");
    notes.push(format!(
        "host seconds by stage: {}",
        stages
            .iter()
            .map(|(n, s)| format!("{n} {s:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut tally = ld.oracle.tally;
    tally.merge(&extra);
    let mut examples = ld.oracle.examples.clone();
    if let Some(hot) = &ld.hot {
        let hot = hot.lock().expect("oracle poisoned");
        tally.merge(&hot.tally);
        examples.extend(hot.examples.iter().cloned());
    }
    notes.extend(examples.into_iter().map(|e| format!("oracle: {e}")));
    Ok(Output {
        e2e,
        layer,
        attempted: tally.attempted,
        failed: tally.failed() + verify_problems,
        notes,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!(
            "  {:<44} {:>16.4} {}{samples}",
            m.def.name, m.value, m.def.unit
        );
    }
}

/// The result line of the benchmark contract.
fn result_json(out: &Output, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.def.name, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "all" | "selfcheck" | "delete-churn" if args.command.is_none() => {
                args.command = Some(a)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn find_spec(name: &str) -> Result<Spec, String> {
    workloads::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| {
            let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
            format!(
                "unknown workload `{name}`; choose one of {}",
                names.join(", ")
            )
        })
}

/// One workload, one process: the benchmark contract's entry point.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = find_spec(name)?;
    let params = Params {
        seed: args.seed,
        scale: args.seconds as f64 / FULL_SCALE_SECONDS,
    };
    let setups = if args.trace { 1 } else { SETUPS };
    let out = run_workload(&spec, params, args.trace, setups)?;
    println!(
        "== {} seed {} seconds {} trace {} ({})",
        spec.name, args.seed, args.seconds, args.trace as u8, spec.why
    );
    for n in &out.notes {
        println!("  {n}");
    }
    print_metrics("end-to-end (tracing off):", &out.e2e);
    if args.trace {
        print_metrics("per layer (traced run):", &out.layer);
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    let reported = if args.trace { &out.layer } else { &out.e2e };
    println!("{}", result_json(&out, reported));
    Ok(out.failed == 0)
}

/// Every workload, untraced then traced, each in its own child process
/// (fresh heap, own peak RSS).
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for spec in workloads::all() {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("spawning {}: {e}", spec.name))?;
            if !status.success() {
                eprintln!("{} --trace {trace}: {status}", spec.name);
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// Worsening of `b` against `a` as a share of `a`, positive when worse.
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    let d = match m.def.better {
        catalog::Better::Higher => a - b,
        catalog::Better::Lower => b - a,
    };
    if a == 0.0 {
        0.0
    } else {
        d / a.abs()
    }
}

/// The benchmark's own acceptance check, at 1/10 length: the same seed
/// twice must agree bit for bit on every exact metric, and a second seed
/// must stay within the end-to-end bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let params = |seed| Params { seed, scale: 0.1 };
    let mut ok = true;
    for spec in workloads::all() {
        let a = run_workload(&spec, params(args.seed), true, 1)?;
        let b = run_workload(&spec, params(args.seed), true, 1)?;
        let c = run_workload(&spec, params(args.seed + 1), true, 1)?;
        let mut exact = 0;
        for (x, y) in a
            .e2e
            .iter()
            .chain(&a.layer)
            .zip(b.e2e.iter().chain(&b.layer))
        {
            if x.def.exact {
                exact += 1;
                if x.value.to_bits() != y.value.to_bits() {
                    ok = false;
                    println!(
                        "FAIL {} {}: {} then {} on one seed",
                        spec.name, x.def.name, x.value, y.value
                    );
                }
            } else if x.def.bound > 0.0 && worse_by(x, x.value, y.value).abs() > x.def.bound {
                // Host clocks at 1/10 length are noisy: reported, not fatal.
                println!(
                    "note {} {}: {} then {} on one seed",
                    spec.name, x.def.name, x.value, y.value
                );
            }
        }
        if (a.attempted, a.failed) != (b.attempted, b.failed) || a.failed + c.failed > 0 {
            ok = false;
            println!(
                "FAIL {}: attempted/failed {}/{} then {}/{}; second seed {}/{}",
                spec.name, a.attempted, a.failed, b.attempted, b.failed, c.attempted, c.failed
            );
        }
        for (x, z) in a.e2e.iter().zip(&c.e2e) {
            let w = worse_by(x, x.value, z.value);
            // Host clocks, and tail means over fewer than 100 samples, are
            // too noisy at 1/10 length to be more than a note.
            let verdict = if w.abs() <= x.def.bound {
                "within"
            } else if x.def.exact && x.samples >= 100 {
                ok = false;
                "FAIL beyond"
            } else {
                "note beyond"
            };
            println!(
                "{:<18} {:<18} seed {} {:>14.4}  seed {} {:>14.4}  {:+.2}% {verdict} {}%",
                spec.name,
                x.def.name,
                args.seed,
                x.value,
                args.seed + 1,
                z.value,
                w * 100.0,
                x.def.bound * 100.0
            );
        }
        println!(
            "{}: {exact} exact metrics identical across two runs of seed {}",
            spec.name, args.seed
        );
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match (args.command.as_deref(), &args.workload) {
        (Some("all"), _) => run_all(&args),
        (Some("selfcheck"), _) => selfcheck(&args),
        (Some("delete-churn"), _) => churn::run(args.seed),
        (_, Some(name)) => run_one(&args, name),
        _ => Err("usage: sphinx-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | selfcheck | delete-churn".into()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sphinx-bench: {e}");
            ExitCode::from(2)
        }
    }
}
