//! Deterministic-schedule linearizability runs over the full index stack.
//!
//! This module is the glue between three independent pieces:
//!
//! * [`dm_sim::Schedule`] — the lock-step scheduler that turns a
//!   multi-threaded run into a deterministic function of a seed (or of a
//!   recorded trace, for replay),
//! * [`lincheck::HistoryRecorder`] — invoke/response timestamping with
//!   virtual time (schedule steps while scheduled, a private atomic clock
//!   otherwise), and
//! * [`lincheck::check_history`] — the per-key Wing–Gong checker.
//!
//! [`run_scheduled`] drives one seeded (or replayed) run of a workload
//! against any [`System`] and returns the recorded history, the schedule
//! trace, the checker's verdict, and merged telemetry. A failing trace can
//! be cut down to a minimal failing prefix with [`shrink_failing_trace`]
//! and rendered for a bug report with [`failure_report`].
//!
//! Determinism contract: with the lock-step gate, at most one worker runs
//! between grants, so the recorded event order — and therefore
//! [`lincheck::History::digest`] — is a pure function of
//! `(workload_seed, schedule seed | trace)`. The regression tests and the
//! `lincheck_explorer` binary both assert this by running twice.

use std::sync::Arc;
use std::thread;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dm_sim::{FaultHook, RemotePtr, Schedule, ScheduleConfig, TraceStep};
use lincheck::{check_history, CheckConfig, History, HistoryRecorder, Op, Outcome, Ret};
use ycsb::KeySpace;

use crate::systems::{System, SystemHandle, WorkerClient};

/// A deterministic, stateless torn-read fault: any READ completion that
/// parses as a valid leaf gets up to eight bytes of its *value* region
/// XOR-ed (the key and header stay intact, so the index's key-comparison
/// checks cannot notice — only the leaf checksum can).
///
/// Statelessness matters: the schedule decides *when* a tear fires (the
/// step's [`dm_sim::StepDecision::tear`] flag, recorded in the trace), so
/// the hook itself must be a pure function of the buffer for replays to
/// reproduce the run bit-for-bit. Inner nodes and pointer words do not
/// decode as leaves and pass through untouched — exactly the hazard the
/// leaf checksum exists to catch. With checksum validation on, every tear
/// is retried and histories stay linearizable; with it off
/// ([`node_engine::set_leaf_validation`]), torn values are served to
/// clients and the checker reports the wrong-value violation.
#[derive(Debug, Default)]
pub struct TornLeafHook;

impl FaultHook for TornLeafHook {
    fn corrupt_read(&self, _ptr: RemotePtr, data: &mut [u8]) {
        let Ok(leaf) = art_core::layout::LeafNode::decode(data) else {
            return;
        };
        let start = 16 + leaf.key.len();
        let end = (start + 8).min(start + leaf.value.len());
        if start < end && end <= data.len() {
            for b in &mut data[start..end] {
                *b ^= 0xA5;
            }
        }
    }
}

/// Whether a run records a fresh schedule from a seed or replays a trace.
#[derive(Debug, Clone)]
pub enum ScheduleMode {
    /// Record: grant order, delays, and tears drawn from the seeded RNG.
    Record(ScheduleConfig),
    /// Replay a recorded trace. Past the end of the trace (or on
    /// divergence) the schedule falls back to fault-free round-robin, so
    /// a *prefix* of a failing trace is still a complete, runnable
    /// schedule — the property [`shrink_failing_trace`] exploits.
    Replay(Vec<TraceStep>),
}

/// One exploration run's shape: which system, how many workers, how much
/// work, and which faults ride along.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// System under test.
    pub system: System,
    /// Concurrent workers (schedule participants).
    pub threads: u32,
    /// Key-space size: keys are `key_of(i)` for `i` in `0..keys`; the
    /// preload inserts the first half.
    pub keys: u64,
    /// Whether the serial preload runs. Without it the schedule starts on
    /// an empty index, so the birth of the tree — the root's first leaf,
    /// its split, the first `Node4`s filling — happens under the scheduler
    /// instead of before it.
    pub preload: bool,
    /// Key shape (must be injective and prefix-free). The default,
    /// [`ycsb::KeySpace::U64`] items (8-byte big-endian), runs on every
    /// system including the B+-tree, but those keys diverge at byte 0, so
    /// the tree stays flat and the INHT nearly empty; a run that wants
    /// inner-node growth under the schedule supplies shared-prefix keys.
    pub key_of: fn(u64) -> Vec<u8>,
    /// Operations issued per worker.
    pub ops_per_thread: u64,
    /// Seed for the per-thread workload streams — independent of the
    /// schedule seed so a replay reruns the identical workload under a
    /// different (pinned) interleaving.
    pub workload_seed: u64,
    /// Install [`TornLeafHook`] on the schedule (tears still only fire on
    /// steps whose `tear` decision fired).
    pub tear_hook: bool,
    /// Include `multi_get` / `scan` / `scan_n` in the op mix.
    pub multi_ops: bool,
    /// Include `delete` in the op mix (otherwise its slice becomes
    /// inserts, for runs that want the key set only to grow).
    pub deletes: bool,
    /// Ops kept in flight per worker for the batched-read slice of the
    /// mix: [`lincheck::Op::MultiGet`] runs through the pipelined op
    /// scheduler ([`WorkerClient::multi_get_pipelined`]) at this depth.
    /// Above 1 the schedule explores interleavings *between the round
    /// trips of concurrently in-flight operations* — each parked op is a
    /// schedulable participant's pending grant, not an atomic block.
    pub pipeline_depth: usize,
    /// Checker budget.
    pub check: CheckConfig,
}

impl ExploreConfig {
    /// The CI smoke shape: small key space, three workers, enough ops that
    /// one seed's history comfortably clears 10 k operations.
    pub fn smoke(system: System, threads: u32, keys: u64, ops_per_thread: u64) -> Self {
        ExploreConfig {
            system,
            threads,
            keys,
            preload: true,
            key_of: |i| KeySpace::U64.key(i),
            ops_per_thread,
            workload_seed: 0xC0FF_EE00,
            tear_hook: true,
            multi_ops: true,
            deletes: true,
            pipeline_depth: 1,
            check: CheckConfig::default(),
        }
    }
}

/// The key shape of the `inht_publish_races` storm: every key under the
/// one prefix `race`, four sub-prefixes, then a child byte — so all
/// participants grow the same few inner nodes (6 bytes: injective for
/// `i < 1024`, prefix-free).
pub fn shared_prefix_key(i: u64) -> Vec<u8> {
    vec![b'r', b'a', b'c', b'e', (i % 4) as u8, (i / 4) as u8]
}

/// Everything one run produces.
pub struct RunOutput {
    /// The recorded history (preload included).
    pub history: History,
    /// The schedule trace — feed to [`ScheduleMode::Replay`] to reproduce.
    pub trace: Vec<TraceStep>,
    /// The checker's verdict on `history`.
    pub outcome: Outcome,
    /// Schedule steps granted.
    pub steps: u64,
    /// Index-level telemetry merged with every worker's registry.
    pub telemetry: obs::Registry,
    /// Retained causal traces from every worker (head-sampled: under the
    /// lock-step schedule every pipelined op is traced, so a violation
    /// report can attach the traces overlapping its window). Sorted by
    /// trace id, hence deterministic for a fixed seed.
    pub traces: Vec<obs::OpTrace>,
    /// Cluster metrics over the whole run (preload included): per-MN
    /// accounting conserved against the summed client ledger, plus the
    /// health monitor's verdict — attached to failure reports so a
    /// violation arrives with the cluster's load picture.
    pub metrics: obs::MetricsReport,
}

/// Client id the recorder uses for the serial preload phase (workers use
/// `0..threads`).
fn preload_client(cfg: &ExploreConfig) -> u32 {
    cfg.threads
}

fn value_bytes(client: u32, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&(client as u64).to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v
}

fn gen_key(rng: &mut SmallRng, cfg: &ExploreConfig) -> Vec<u8> {
    (cfg.key_of)(rng.gen_range(0..cfg.keys))
}

/// Draws the next operation for worker `tid` (op `seq`). Weights roughly
/// follow a write-heavy YCSB mix, with a slice of batched reads and scans
/// so the checker exercises interval-sharing events.
fn gen_op(rng: &mut SmallRng, cfg: &ExploreConfig, tid: u32, seq: u64) -> Op {
    let mut roll = rng.gen_range(0u32..100);
    if !cfg.multi_ops && roll >= 82 {
        roll = 0; // fold the batched/scan slice into point gets
    }
    if !cfg.deletes && (72..=81).contains(&roll) {
        roll = 40; // fold the delete slice into inserts
    }
    match roll {
        0..=39 => Op::Get {
            key: gen_key(rng, cfg),
        },
        40..=59 => Op::Insert {
            key: gen_key(rng, cfg),
            value: value_bytes(tid, seq),
        },
        60..=71 => Op::Update {
            key: gen_key(rng, cfg),
            value: value_bytes(tid, seq),
        },
        72..=81 => Op::Delete {
            key: gen_key(rng, cfg),
        },
        82..=89 => {
            let n = rng.gen_range(2usize..=4);
            Op::MultiGet {
                keys: (0..n).map(|_| gen_key(rng, cfg)).collect(),
            }
        }
        90..=94 => {
            let a = gen_key(rng, cfg);
            let b = gen_key(rng, cfg);
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            Op::Scan { low, high }
        }
        _ => Op::ScanN {
            low: gen_key(rng, cfg),
            limit: rng.gen_range(1usize..=4),
        },
    }
}

/// Executes `op` against a worker and shapes the result for the history —
/// the single point where [`lincheck::Op`] meets [`WorkerClient`] (also
/// used by the integration tests that record unscheduled histories).
pub fn apply_op(w: &mut WorkerClient, op: &Op) -> Ret {
    apply_op_pipelined(w, op, 1)
}

/// [`apply_op`] with an explicit pipeline depth for the batched reads, so
/// a lincheck run at depth > 1 exercises cross-op in-flight interleavings
/// under the lock-step schedule.
pub fn apply_op_pipelined(w: &mut WorkerClient, op: &Op, depth: usize) -> Ret {
    match op {
        Op::Get { key } => Ret::Got(w.get(key)),
        Op::Insert { key, value } => {
            w.insert(key, value);
            Ret::Inserted
        }
        Op::Update { key, value } => Ret::Updated(w.update(key, value)),
        Op::Delete { key } => Ret::Deleted(w.remove(key)),
        Op::MultiGet { keys } => {
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            Ret::MultiGot(w.multi_get_pipelined(&refs, depth))
        }
        Op::Scan { low, high } => Ret::Scanned(w.scan_pairs(low, high)),
        Op::ScanN { low, limit } => Ret::Scanned(w.scan_n(low, *limit)),
    }
}

/// One full run: build the system, record a serial preload, then drive
/// `cfg.threads` workers through the lock-step schedule and check the
/// recorded history.
///
/// # Panics
///
/// Panics on substrate errors and on worker panics (an index bug surfaced
/// by the schedule — the `lincheck_explorer` binary catches these and
/// reports the trace that provoked them).
pub fn run_scheduled(cfg: &ExploreConfig, mode: ScheduleMode) -> RunOutput {
    run_scheduled_on(&cfg.system.build(64 << 20, Some(1 << 20)), cfg, mode)
}

/// [`run_scheduled`] against a system the caller built (`cfg.system` is
/// not consulted): lets a test size the index its own way and inspect it
/// after the run.
///
/// # Panics
///
/// As [`run_scheduled`].
pub fn run_scheduled_on(
    handle: &SystemHandle,
    cfg: &ExploreConfig,
    mode: ScheduleMode,
) -> RunOutput {
    let num_cns = handle.cluster().config().num_cns;
    let rec = Arc::new(HistoryRecorder::new());

    // Conservation window opens here: index creation's own verbs are
    // excluded, every client minted below is covered (a client's setup
    // verbs land in its own cumulative stats).
    let cluster_base = handle.cluster().cluster_stats();
    let mut client_sum;

    // Serial preload: half the key space, recorded so the checker knows
    // the initial state. Runs before the schedule exists, stamped by the
    // recorder's own clock.
    {
        let mut loader = handle.worker(0);
        let pc = preload_client(cfg);
        let preloaded = if cfg.preload { cfg.keys / 2 } else { 0 };
        for i in 0..preloaded {
            let key = (cfg.key_of)(i);
            let value = value_bytes(pc, i);
            let op = Op::Insert {
                key: key.clone(),
                value: value.clone(),
            };
            let id = rec.invoke_now(pc, op);
            loader.insert(&key, &value);
            rec.respond_now(id, Ret::Inserted);
        }
        // Drop out of epoch gating: the loader never scans again, and a
        // stale pin slot would block every scheduled worker's frees.
        loader.reclaim_deregister();
        client_sum = loader.net_stats();
    }

    let schedule = match &mode {
        ScheduleMode::Record(sc) => Schedule::new(sc.clone()),
        ScheduleMode::Replay(trace) => Schedule::replay(trace.clone()),
    };
    // Scheduled timestamps continue where the preload clock stopped, so
    // the history's virtual time is monotonic across the phase change.
    schedule.set_base_step(rec.clock());
    if cfg.tear_hook {
        schedule.set_tear_hook(Some(Arc::new(TornLeafHook)));
    }

    // Build and register workers from the main thread in a fixed order:
    // registration order defines trace participant ids.
    let mut workers = Vec::with_capacity(cfg.threads as usize);
    for t in 0..cfg.threads {
        let mut w = handle.worker((t as u16) % num_cns);
        w.attach_schedule(schedule.register());
        // Head-sample every pipelined op: scheduled runs are small and a
        // violation report wants the full causal picture, not a tail.
        w.set_trace_sampling(1, obs::DEFAULT_TAIL_K);
        w.set_trace_worker(t);
        workers.push(w);
    }

    let (mut telemetry, mut traces, net_sum, clock_max) = thread::scope(|s| {
        let joins: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(t, mut w)| {
                let rec = Arc::clone(&rec);
                let tid = t as u32;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.workload_seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for seq in 0..cfg.ops_per_thread {
                        let op = gen_op(&mut rng, cfg, tid, seq);
                        let ts = w.schedule_tick().unwrap_or_else(|| rec.next_ts());
                        let id = rec.invoke(tid, op.clone(), ts);
                        let ret = apply_op_pipelined(&mut w, &op, cfg.pipeline_depth);
                        let ts = w.schedule_tick().unwrap_or_else(|| rec.next_ts());
                        rec.respond(id, ret, ts);
                    }
                    let reg = w.telemetry();
                    let traces = w.take_traces();
                    let net = w.net_stats();
                    let clock = w.clock_ns();
                    drop(w); // deregisters the schedule participant
                    (reg, traces, net, clock)
                })
            })
            .collect();
        let mut merged = obs::Registry::new();
        let mut traces = Vec::new();
        let mut net_sum = dm_sim::ClientStats::default();
        let mut clock_max = 0u64;
        for j in joins {
            let (reg, t, net, clock) = j.join().expect("lincheck worker panicked");
            merged.merge(&reg);
            traces.extend(t);
            net_sum.merge(&net);
            clock_max = clock_max.max(clock);
        }
        (merged, traces, net_sum, clock_max)
    });
    telemetry.merge(&handle.index_telemetry());
    traces.sort_by_key(|t| t.id);
    client_sum.merge(&net_sum);

    // Close the conservation window and run the health monitor; detector
    // findings land in the merged registry as `health.*` counters so a
    // failure report carries the verdict alongside the raw ledgers.
    let cluster_window = handle.cluster().cluster_stats().since(&cluster_base);
    let health = obs::evaluate_health(&cluster_window, &telemetry, &obs::HealthConfig::default());
    health.stamp(&mut telemetry);
    let metrics = obs::MetricsReport {
        cluster: cluster_window,
        client_sum,
        window_ns: clock_max.max(1),
        samples: None,
        health,
    };

    let trace = schedule.trace();
    let steps = schedule.steps();
    let history = Arc::try_unwrap(rec)
        .expect("recorder still shared after join")
        .finish();
    let outcome = check_history(&history, &cfg.check);
    RunOutput {
        history,
        trace,
        outcome,
        steps,
        telemetry,
        traces,
        metrics,
    }
}

/// Binary-searches the shortest failing prefix of `full` (replay past the
/// prefix falls back to fault-free round-robin, so every prefix is a
/// complete schedule). Returns the minimal prefix and its failing run.
///
/// Failure is not guaranteed monotonic in prefix length, so this is the
/// standard greedy approximation: the returned prefix fails, and no probed
/// shorter prefix did.
///
/// # Panics
///
/// Panics if the full trace does not fail when replayed.
pub fn shrink_failing_trace(
    cfg: &ExploreConfig,
    full: &[TraceStep],
) -> (Vec<TraceStep>, RunOutput) {
    let mut lo = 0usize;
    let mut hi = full.len();
    let mut failing: Option<RunOutput> = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let out = run_scheduled(cfg, ScheduleMode::Replay(full[..mid].to_vec()));
        if out.outcome.is_linearizable() {
            lo = mid + 1;
        } else {
            hi = mid;
            failing = Some(out);
        }
    }
    let out = failing.unwrap_or_else(|| {
        let out = run_scheduled(cfg, ScheduleMode::Replay(full[..hi].to_vec()));
        assert!(
            !out.outcome.is_linearizable(),
            "full trace no longer fails on replay"
        );
        out
    });
    (full[..hi].to_vec(), out)
}

/// Whether `op` reads or writes `key` (scans touch their whole range).
fn op_touches(op: &Op, key: &[u8]) -> bool {
    match op {
        Op::Get { key: k }
        | Op::Insert { key: k, .. }
        | Op::Update { key: k, .. }
        | Op::Delete { key: k } => k.as_slice() == key,
        Op::MultiGet { keys } => keys.iter().any(|k| k.as_slice() == key),
        Op::Scan { low, high } => low.as_slice() <= key && key <= high.as_slice(),
        Op::ScanN { low, .. } => key >= low.as_slice(),
    }
}

/// Renders a failing run as a self-contained text report: the config and
/// seed needed to reproduce, the minimal trace (one `pid:delay:tear` step
/// per line, the [`TraceStep`] display format), the checker's per-key
/// violation report, the causal traces of operations overlapping the
/// violating window (matched by NIC grant step), and the run's telemetry.
pub fn failure_report(
    cfg: &ExploreConfig,
    seed: u64,
    minimal: &[TraceStep],
    out: &RunOutput,
) -> String {
    use std::fmt::Write as _;
    let mut r = String::new();
    let _ = writeln!(r, "lincheck failure: {}", cfg.system.label());
    let _ = writeln!(
        r,
        "config: threads={} keys={} ops_per_thread={} workload_seed={:#x} schedule_seed={:#x}",
        cfg.threads, cfg.keys, cfg.ops_per_thread, cfg.workload_seed, seed
    );
    let _ = writeln!(
        r,
        "history: {} events, digest {:#018x}, {} schedule steps",
        out.history.len(),
        out.history.digest(),
        out.steps
    );
    match &out.outcome {
        Outcome::Violation(v) => {
            let _ = writeln!(r, "\nviolation on key {:02x?}:\n{}", v.key, v.report);
        }
        Outcome::ResourceExhausted { key, steps } => {
            let _ = writeln!(
                r,
                "\nchecker budget exhausted on key {key:02x?} after {steps} steps"
            );
        }
        Outcome::Linearizable { .. } => {
            let _ = writeln!(r, "\n(no violation — report generated for a passing run)");
        }
    }
    let _ = writeln!(r, "\nminimal failing trace ({} steps):", minimal.len());
    for step in minimal {
        let _ = writeln!(r, "  {step}");
    }
    if let Outcome::Violation(v) = &out.outcome {
        // The violating window in schedule steps: the span of every
        // recorded event touching the key. Traces attach when one of
        // their NIC bursts was granted inside it.
        let window = out
            .history
            .events
            .iter()
            .filter(|e| op_touches(&e.op, &v.key))
            .fold(None::<(u64, u64)>, |w, e| {
                let (lo, hi) = w.unwrap_or((e.invoke_ts, e.response_ts));
                Some((lo.min(e.invoke_ts), hi.max(e.response_ts)))
            });
        if let Some((lo, hi)) = window {
            let overlapping: Vec<&obs::OpTrace> = out
                .traces
                .iter()
                .filter(|t| {
                    t.bursts.iter().any(|ev| match ev {
                        dm_sim::trace::TransportEvent::Burst(b) => {
                            b.grant_step.is_some_and(|s| lo <= s && s <= hi)
                        }
                        dm_sim::trace::TransportEvent::Advance { .. } => false,
                    })
                })
                .collect();
            let _ = writeln!(
                r,
                "\ncausal traces overlapping the violation window (steps {lo}..={hi}): \
                 {} of {} retained",
                overlapping.len(),
                out.traces.len()
            );
            for t in &overlapping {
                let cp = obs::critical_path(t);
                let _ = writeln!(
                    r,
                    "  trace {:#018x} {:?} [{}..{}]ns retries={} queue={} fusion={} \
                     service={} stall={} compute={}{}",
                    t.id,
                    t.kind,
                    t.begin_ns,
                    t.end_ns,
                    t.retries,
                    cp.queue_ns,
                    cp.fusion_ns,
                    cp.service_ns,
                    cp.stall_ns,
                    cp.compute_ns,
                    if cp.is_exact() { "" } else { " (inexact)" }
                );
            }
            if !overlapping.is_empty() {
                let full: Vec<obs::OpTrace> = overlapping.into_iter().cloned().collect();
                let _ = writeln!(r, "\ntrace export: {}", obs::export_chrome(&full));
            }
        }
    }
    let _ = writeln!(r, "\ntelemetry: {}", out.telemetry.to_json());
    let _ = writeln!(r, "\n{}", out.metrics.render_text());
    let _ = writeln!(r, "metrics: {}", out.metrics.to_json());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: System) -> ExploreConfig {
        ExploreConfig {
            workload_seed: 11,
            ..ExploreConfig::smoke(system, 3, 8, 40)
        }
    }

    #[test]
    fn scheduled_run_is_deterministic_and_linearizable() {
        let cfg = tiny(System::Sphinx);
        let mode = ScheduleMode::Record(ScheduleConfig::adversarial(7));
        let a = run_scheduled(&cfg, mode.clone());
        let b = run_scheduled(&cfg, mode);
        assert!(a.outcome.is_linearizable(), "run A: {:?}", a.outcome);
        assert!(b.outcome.is_linearizable(), "run B: {:?}", b.outcome);
        assert_eq!(a.history.digest(), b.history.digest());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn replay_reproduces_the_recorded_history() {
        let cfg = tiny(System::Art);
        let rec = run_scheduled(&cfg, ScheduleMode::Record(ScheduleConfig::adversarial(3)));
        assert!(rec.outcome.is_linearizable(), "{:?}", rec.outcome);
        let rep = run_scheduled(&cfg, ScheduleMode::Replay(rec.trace.clone()));
        assert_eq!(rec.history.digest(), rep.history.digest());
        assert_eq!(rec.trace, rep.trace);
    }

    #[test]
    fn bptree_runs_under_schedule() {
        let cfg = tiny(System::BpTree);
        let out = run_scheduled(&cfg, ScheduleMode::Record(ScheduleConfig::adversarial(5)));
        assert!(out.outcome.is_linearizable(), "{:?}", out.outcome);
        assert!(out.steps > 0);
    }
}
