//! Schedule explorer: sweeps seeds × fault matrices across the index
//! stack, checking every recorded history for linearizability.
//!
//! For each `(system, seed)` pair the explorer records one deterministic
//! lock-step run ([`bench_harness::run_scheduled`]), checks the history,
//! and on failure shrinks the trace to a minimal failing prefix and dumps
//! a reproduction report (trace, violating-key projection, telemetry)
//! under `--out`.
//!
//! ```text
//! cargo run --release -p bench-harness --bin lincheck_explorer -- \
//!     --systems sphinx,art,bptree --seeds 4 --threads 3 --keys 64 \
//!     --ops 1700 --fault-matrix full --verify-determinism
//! ```
//!
//! Flags:
//!
//! * `--systems a,b,..` — sphinx | sphinx-inht | smart | smartc | art |
//!   bptree (default `sphinx,art,bptree`)
//! * `--seeds N` / `--seed-base B` — sweep schedule seeds `B..B+N`
//! * `--threads N`, `--keys N`, `--ops N` — workload shape (ops is per
//!   thread; the recorded history also includes the `keys/2` preload)
//! * `--empty-start` — no preload: the schedule starts on an empty index,
//!   so the first inserts (root leaf, its split, the first `Node4`s) race
//!   under the scheduler
//! * `--shared-prefix` — keys shaped like the `inht_publish_races` storm's
//!   (`race` + sub-prefix + child byte, at most 1024 of them) instead of
//!   8-byte integers that diverge at byte 0; not for `bptree`
//! * `--pipeline-depth N` — ops in flight per worker for the batched-read
//!   slice of the mix (default 1 = blocking; see the op-pipelining
//!   scheduler in `node-engine`)
//! * `--fault-matrix quiet|delay|tear|full` — which perturbations the
//!   schedule injects (see [`dm_sim::ScheduleConfig`])
//! * `--verify-determinism` — run each seed twice and replay its trace,
//!   failing on any history-digest mismatch
//! * `--expect-violation` — invert the verdict: exit 0 only if at least
//!   one run is non-linearizable (negative tests: a deliberately broken
//!   protocol must be *caught*)
//! * `--unsafe-disable-leaf-validation` — switch off leaf checksum
//!   validation ([`node_engine::set_leaf_validation`]) so torn reads are
//!   served: the broken protocol behind the CI negative test
//! * `--unsafe-zero-grace` — free retired regions immediately instead of
//!   waiting out the reclamation grace period
//!   ([`reclaim::set_zero_grace`]): readers can be served recycled
//!   memory, the use-after-free the epoch protocol exists to prevent —
//!   the second CI negative test
//! * `--replay FILE` — skip the sweep; replay a dumped trace (one
//!   `pid:delay:tear` step per line) against `--systems`' first entry with
//!   the same workload flags, and report the outcome
//! * `--out DIR` — where failure reports go (default `results`)
//!
//! Exit status: `0` on success, `1` on any linearizability violation,
//! checker timeout, worker panic, or determinism mismatch (inverted by
//! `--expect-violation` for violations), `2` on usage errors (an unknown
//! flag or system, a missing or unparsable value).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::str::FromStr;

use bench_harness::lincheck_driver::shared_prefix_key;
use bench_harness::report::{usage_exit, Args, Flag};
use bench_harness::{
    failure_report, run_scheduled, shrink_failing_trace, ExploreConfig, RunOutput, ScheduleMode,
    System,
};
use dm_sim::{ScheduleConfig, TraceStep};
use lincheck::{CheckConfig, Outcome};

const USAGE: &str = "usage: lincheck_explorer [--systems a,b,..] [--seeds N] [--seed-base N] \
    [--threads N] [--keys N] [--ops N] [--pipeline-depth N] [--fault-matrix quiet|delay|tear|full] \
    [--verify-determinism] [--expect-violation] [--empty-start] [--shared-prefix] \
    [--unsafe-disable-leaf-validation] [--unsafe-zero-grace] [--replay FILE] [--out DIR]";

const FLAGS: &[Flag] = &[
    Flag::Text("--systems"),
    Flag::Num("--seeds"),
    Flag::Num("--seed-base"),
    Flag::Num("--threads"),
    Flag::Num("--keys"),
    Flag::Num("--ops"),
    Flag::Num("--pipeline-depth"),
    Flag::Text("--fault-matrix"),
    Flag::Switch("--verify-determinism"),
    Flag::Switch("--expect-violation"),
    Flag::Switch("--empty-start"),
    Flag::Switch("--shared-prefix"),
    Flag::Switch("--unsafe-disable-leaf-validation"),
    Flag::Switch("--unsafe-zero-grace"),
    Flag::Text("--replay"),
    Flag::Text("--out"),
];

/// Maps a fault-matrix name to the schedule perturbations it enables and
/// whether the leaf tear hook is installed.
fn fault_matrix(name: &str, seed: u64) -> Option<(ScheduleConfig, bool)> {
    Some(match name {
        "quiet" => (ScheduleConfig::quiet(seed), false),
        "delay" => (
            ScheduleConfig {
                delay_pct: 30,
                max_delay_ns: 20_000,
                cas_hold_pct: 20,
                ..ScheduleConfig::quiet(seed)
            },
            false,
        ),
        "tear" => (
            ScheduleConfig {
                tear_pct: 30,
                ..ScheduleConfig::quiet(seed)
            },
            true,
        ),
        "full" => (ScheduleConfig::adversarial(seed), true),
        _ => return None,
    })
}

struct RunVerdict {
    ok: bool,
    violation: bool,
    line: String,
}

/// One `(system, seed)` exploration: record, check, optionally verify
/// determinism, and on failure shrink + dump.
fn explore(
    cfg: &ExploreConfig,
    seed: u64,
    matrix: &str,
    verify_determinism: bool,
    out_dir: &str,
) -> RunVerdict {
    let (sc, hook) = fault_matrix(matrix, seed).expect("matrix validated in main");
    let cfg = ExploreConfig {
        tear_hook: hook,
        ..cfg.clone()
    };
    let label = cfg.system.label();

    let run = match catch_unwind(AssertUnwindSafe(|| {
        run_scheduled(&cfg, ScheduleMode::Record(sc.clone()))
    })) {
        Ok(run) => run,
        Err(_) => {
            return RunVerdict {
                ok: false,
                violation: false,
                line: format!("{label:12} seed={seed:<4} PANIC (worker died mid-run)"),
            }
        }
    };

    let mut line = format!(
        "{label:12} seed={seed:<4} ops={:<6} steps={:<6} digest={:#018x} {}",
        run.history.len(),
        run.steps,
        run.history.digest(),
        outcome_word(&run.outcome),
    );

    if !run.outcome.is_linearizable() {
        let (minimal, failing) = shrink_failing_trace(&cfg, &run.trace);
        let report = failure_report(&cfg, seed, &minimal, &failing);
        let path = format!(
            "{out_dir}/lincheck_{}_{seed}.txt",
            label.to_lowercase().replace('+', "_")
        );
        std::fs::create_dir_all(out_dir).expect("create out dir");
        std::fs::write(&path, &report).expect("write failure report");
        line.push_str(&format!(
            " -> shrunk {} -> {} steps, report at {path}",
            run.trace.len(),
            minimal.len()
        ));
        return RunVerdict {
            ok: false,
            violation: true,
            line,
        };
    }

    if verify_determinism {
        let again = run_scheduled(&cfg, ScheduleMode::Record(sc));
        let replayed = run_scheduled(&cfg, ScheduleMode::Replay(run.trace.clone()));
        let rerun_ok = again.history.digest() == run.history.digest();
        let replay_ok = replayed.history.digest() == run.history.digest();
        if !rerun_ok || !replay_ok {
            line.push_str(&format!(
                " DETERMINISM MISMATCH (rerun {}, replay {})",
                if rerun_ok { "ok" } else { "DIVERGED" },
                if replay_ok { "ok" } else { "DIVERGED" },
            ));
            return RunVerdict {
                ok: false,
                violation: false,
                line,
            };
        }
        line.push_str(" [deterministic: rerun+replay]");
    }

    RunVerdict {
        ok: true,
        violation: false,
        line,
    }
}

fn outcome_word(o: &Outcome) -> String {
    match o {
        Outcome::Linearizable { keys, .. } => format!("linearizable ({keys} keys)"),
        Outcome::Violation(v) => format!("VIOLATION on key {:02x?}", v.key),
        Outcome::ResourceExhausted { steps, .. } => format!("CHECKER EXHAUSTED ({steps} steps)"),
    }
}

fn replay_file(cfg: &ExploreConfig, path: &str) -> RunVerdict {
    let text = std::fs::read_to_string(path).expect("read trace file");
    let trace: Vec<TraceStep> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| TraceStep::from_str(l).expect("malformed trace step"))
        .collect();
    let run: RunOutput = run_scheduled(cfg, ScheduleMode::Replay(trace));
    let ok = run.outcome.is_linearizable();
    RunVerdict {
        ok,
        violation: !ok,
        line: format!(
            "{:12} replay {path}: ops={} steps={} digest={:#018x} {}",
            cfg.system.label(),
            run.history.len(),
            run.steps,
            run.history.digest(),
            outcome_word(&run.outcome),
        ),
    }
}

fn main() -> ExitCode {
    let args =
        Args::parse(FLAGS, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(USAGE, &e));
    if let Some(word) = args.words.first() {
        usage_exit(USAGE, &format!("unexpected argument {word}"));
    }
    let systems: Vec<System> = args
        .text("--systems", "sphinx,art,bptree")
        .split(',')
        .map(|name| {
            System::from_name(name).unwrap_or_else(|| {
                usage_exit(
                    USAGE,
                    &format!(
                        "unknown system {name:?} (sphinx|sphinx-inht|smart|smartc|art|bptree)"
                    ),
                )
            })
        })
        .collect();
    let seeds = args.num("--seeds", 2);
    let seed_base = args.num("--seed-base", 1);
    let threads = args.num("--threads", 3) as u32;
    let keys = args.num("--keys", 64);
    let ops = args.num("--ops", 3_400);
    let depth = (args.num("--pipeline-depth", 1) as usize).max(1);
    let matrix = args.text("--fault-matrix", "full");
    if fault_matrix(matrix, 0).is_none() {
        usage_exit(
            USAGE,
            &format!("unknown --fault-matrix {matrix} (quiet|delay|tear|full)"),
        );
    }
    let verify_determinism = args.switch("--verify-determinism");
    let expect_violation = args.switch("--expect-violation");
    let out_dir = args.text("--out", "results");
    let empty_start = args.switch("--empty-start");
    let shared_prefix = args.switch("--shared-prefix");
    if shared_prefix && (keys > 1024 || systems.contains(&System::BpTree)) {
        usage_exit(
            USAGE,
            "--shared-prefix: at most 1024 keys, and not on bptree (u64 keys only)",
        );
    }

    if args.switch("--unsafe-disable-leaf-validation") {
        node_engine::set_leaf_validation(false);
        println!("leaf checksum validation DISABLED (broken-protocol mode)");
    }
    if args.switch("--unsafe-zero-grace") {
        reclaim::set_zero_grace(true);
        println!("reclamation grace period DISABLED (use-after-free mode)");
    }

    let base_cfg = |system: System| {
        let smoke = ExploreConfig::smoke(system, threads, keys, ops);
        ExploreConfig {
            check: CheckConfig::default(),
            pipeline_depth: depth,
            preload: !empty_start,
            key_of: if shared_prefix {
                shared_prefix_key
            } else {
                smoke.key_of
            },
            ..smoke
        }
    };

    if let Some(path) = args.get("--replay") {
        let v = replay_file(&base_cfg(systems[0]), path);
        println!("{}", v.line);
        return if v.ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    println!(
        "lincheck explorer: {} system(s) × {seeds} seed(s), threads={threads} keys={keys} \
         ops/thread={ops} matrix={matrix}",
        systems.len()
    );

    let mut failures = 0u32;
    let mut violations = 0u32;
    for &system in &systems {
        let cfg = base_cfg(system);
        for seed in seed_base..seed_base + seeds {
            let v = explore(&cfg, seed, matrix, verify_determinism, out_dir);
            println!("{}", v.line);
            if !v.ok {
                failures += 1;
            }
            if v.violation {
                violations += 1;
            }
        }
    }

    if expect_violation {
        if violations > 0 {
            println!("expected violation observed ({violations} run(s)) — checker catches the broken protocol");
            ExitCode::SUCCESS
        } else {
            eprintln!("--expect-violation: every run linearizable; the checker missed the defect");
            ExitCode::from(1)
        }
    } else if failures > 0 {
        eprintln!("{failures} failing run(s)");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(FLAGS, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_ci_command_lines_parse() {
        let a = parse(&[
            "--systems",
            "sphinx",
            "--seeds",
            "2",
            "--threads",
            "3",
            "--keys",
            "8",
            "--ops",
            "600",
            "--fault-matrix",
            "full",
            "--unsafe-disable-leaf-validation",
            "--expect-violation",
        ])
        .unwrap();
        assert!(a.switch("--expect-violation") && !a.switch("--verify-determinism"));
        assert_eq!(
            (a.num("--seeds", 0), a.text("--fault-matrix", "")),
            (2, "full")
        );
    }

    #[test]
    fn a_misspelt_switch_or_a_bad_count_is_a_usage_error() {
        // Both used to run: the first without determinism checks, the
        // second with the default two seeds.
        assert!(parse(&["--verify-determinsm"]).is_err());
        assert!(parse(&["--seeds", "x"]).is_err());
        assert!(parse(&["--replay"]).is_err());
    }
}
