//! Deterministic schedule control for multi-client simulations.
//!
//! Concurrency bugs in DM protocols hide in rare interleavings, and the OS
//! scheduler samples only a vanishingly thin slice of them. A [`Schedule`]
//! turns a multi-threaded simulation into a **lock-step** execution: every
//! participating client blocks at the [`DmClient::flush_submitted`] choke
//! point until a seeded scheduler grants it the next step. Because at most one
//! participant is ever running between grants, the whole run — every verb,
//! every allocation, every cache mutation — is a deterministic function of
//! the seed, and any failing run replays byte-identically from its
//! `(seed, trace)`.
//!
//! ## Mechanics
//!
//! Each worker registers once ([`Schedule::register`]) and attaches the
//! returned [`ScheduleHandle`] to its [`DmClient`](crate::DmClient) via
//! [`attach_schedule`](crate::DmClient::attach_schedule). From then on every
//! non-empty doorbell batch performs a *gate*: the client parks until all
//! live participants are parked, the scheduler picks one (seeded RNG in
//! record mode, pinned order in replay mode), and the chosen client applies
//! its batch while the rest stay parked. The thread that completes a
//! selection unparks only the grantee, after releasing the state lock; each
//! gate records its caller's thread, so a handle may move between threads,
//! and a waiter re-checks its grant on every wake-up (an unpark that lands
//! before the `park` leaves a token). The granted step may additionally
//! carry:
//!
//! * a **virtual-time delay** — models a verb held at the NIC;
//! * a **torn read** — the step's READ completions pass through the
//!   schedule's tear hook (a [`FaultHook`]), exercising checksum/seqlock
//!   recovery at scheduler-chosen instants;
//! * a **CAS hold** — a step whose batch contains a CAS is deferred in
//!   favour of other ready clients, widening genuine CAS-failure windows
//!   (the CAS semantics themselves are never faked: a protocol may rely on
//!   the returned word having truly been the memory content).
//!
//! Every decision is appended to a [`TraceStep`] trace. Re-running with
//! [`Schedule::replay`] pins the grant order (and fault decisions) to the
//! trace, falling back to deterministic round-robin once the trace is
//! exhausted — the mechanism behind trace-prefix shrinking.
//!
//! ## Rules
//!
//! * Every registered handle must either reach a gate or be dropped;
//!   a registered-but-silent participant parks the whole schedule (the
//!   gate waits for it). Dropping the handle (or the `DmClient` holding
//!   it) deregisters, and a handle dropped while it holds a grant (a panic
//!   between `gate_begin` and `gate_end`) releases the step, so a finished
//!   or panicked worker never wedges the run.
//! * Clients must not hold locks shared with other participants across
//!   `execute` calls (none of the workspace index crates do).
//!
//! [`DmClient::flush_submitted`]: crate::DmClient::flush_submitted
//! [`FaultHook`]: crate::FaultHook

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::transport::FaultHook;

/// Tuning for a recorded (seeded) schedule: how often each perturbation
/// fires. All probabilities are percentages in `0..=100`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Seed for every scheduling and fault decision.
    pub seed: u64,
    /// Chance that a granted step charges a virtual-time delay.
    pub delay_pct: u8,
    /// Upper bound (inclusive) on an injected delay, in virtual ns.
    pub max_delay_ns: u64,
    /// Chance that a granted step's READ completions are passed through
    /// the tear hook (no-op unless [`Schedule::set_tear_hook`] installed
    /// one).
    pub tear_pct: u8,
    /// Chance that a step whose batch contains a CAS is deferred in favour
    /// of another ready participant.
    pub cas_hold_pct: u8,
}

impl ScheduleConfig {
    /// Pure interleaving exploration: seeded reordering, no injected
    /// delays, tears, or CAS holds.
    pub fn quiet(seed: u64) -> Self {
        ScheduleConfig {
            seed,
            delay_pct: 0,
            max_delay_ns: 0,
            tear_pct: 0,
            cas_hold_pct: 0,
        }
    }

    /// The full fault matrix at the rates the schedule explorer sweeps:
    /// frequent reorderings plus occasional delays, torn reads, and CAS
    /// holds.
    pub fn adversarial(seed: u64) -> Self {
        ScheduleConfig {
            seed,
            delay_pct: 20,
            max_delay_ns: 50_000,
            tear_pct: 25,
            cas_hold_pct: 30,
        }
    }
}

/// The perturbations attached to one granted step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepDecision {
    /// Virtual time charged before the batch is submitted.
    pub delay_ns: u64,
    /// Whether this step's READ completions pass through the tear hook.
    pub tear: bool,
}

/// One entry of a schedule trace: which participant was granted the step
/// and with which perturbations. The full trace replays a run exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// The granted participant (registration order, starting at 0).
    pub pid: u32,
    /// Injected virtual-time delay.
    pub delay_ns: u64,
    /// Torn-read injection flag.
    pub tear: bool,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}",
            self.pid,
            self.delay_ns,
            if self.tear { 1 } else { 0 }
        )
    }
}

impl FromStr for TraceStep {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.trim().split(':');
        let pid = it
            .next()
            .ok_or("missing pid")?
            .parse::<u32>()
            .map_err(|e| format!("bad pid: {e}"))?;
        let delay_ns = it
            .next()
            .ok_or("missing delay")?
            .parse::<u64>()
            .map_err(|e| format!("bad delay: {e}"))?;
        let tear = match it.next().ok_or("missing tear flag")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad tear flag {other:?}")),
        };
        if it.next().is_some() {
            return Err("trailing fields".into());
        }
        Ok(TraceStep {
            pid,
            delay_ns,
            tear,
        })
    }
}

/// What a granted participant takes away from the gate.
#[derive(Clone)]
pub(crate) struct GrantedStep {
    /// Global step number — a strictly monotonic virtual timestamp shared
    /// by every participant (history recorders use it).
    pub(crate) step: u64,
    pub(crate) decision: StepDecision,
    /// The tear hook, present only when `decision.tear` is set and a hook
    /// is installed.
    pub(crate) tear_hook: Option<Arc<dyn FaultHook>>,
}

enum Mode {
    Record(SmallRng),
    Replay { steps: Vec<TraceStep>, pos: usize },
}

struct Participant {
    /// `Some(has_cas)` while parked at the gate (never after deregistering).
    waiting: Option<bool>,
    /// The thread of the participant's latest gate: the one a grant wakes.
    thread: Option<Thread>,
}

struct Grant {
    pid: u32,
    step: u64,
    decision: StepDecision,
}

struct State {
    mode: Mode,
    cfg: ScheduleConfig,
    participants: Vec<Participant>,
    n_live: usize,
    n_waiting: usize,
    /// A grant waiting to be picked up by its participant.
    grant: Option<Grant>,
    /// The participant applying its granted batch; no selection until it
    /// returns through `gate_end` or its handle is dropped.
    in_flight: Option<u32>,
    step: u64,
    last_pid: u32,
    trace: Vec<TraceStep>,
    tear_hook: Option<Arc<dyn FaultHook>>,
}

/// A deterministic scheduler shared by a set of simulated clients.
///
/// Cheap to clone (an `Arc` handle). See the module docs for the model.
#[derive(Clone)]
pub struct Schedule {
    shared: Arc<Mutex<State>>,
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lock();
        f.debug_struct("Schedule")
            .field("participants", &st.participants.len())
            .field("live", &st.n_live)
            .field("step", &st.step)
            .finish()
    }
}

impl Schedule {
    /// A recording schedule: decisions drawn from the seeded RNG in
    /// `config`, trace captured for later replay.
    pub fn new(config: ScheduleConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        Schedule::with_mode(Mode::Record(rng), config)
    }

    /// A replaying schedule: grants follow `trace` step by step; once the
    /// trace is exhausted (or names a dead participant), the schedule
    /// continues with deterministic fault-free round-robin so the run can
    /// finish. Used for trace-prefix shrinking and exact reproduction.
    pub fn replay(trace: Vec<TraceStep>) -> Self {
        Schedule::with_mode(
            Mode::Replay {
                steps: trace,
                pos: 0,
            },
            ScheduleConfig::quiet(0),
        )
    }

    fn with_mode(mode: Mode, cfg: ScheduleConfig) -> Self {
        Schedule {
            shared: Arc::new(Mutex::new(State {
                mode,
                cfg,
                participants: Vec::new(),
                n_live: 0,
                n_waiting: 0,
                grant: None,
                in_flight: None,
                step: 0,
                last_pid: 0,
                trace: Vec::new(),
                tear_hook: None,
            })),
        }
    }

    /// Starts the step counter at `base` so schedule timestamps stay
    /// monotonic with events stamped before the scheduled phase (e.g. a
    /// recorded sequential preload).
    ///
    /// # Panics
    ///
    /// Panics if any step has already been granted.
    pub fn set_base_step(&self, base: u64) {
        let mut st = self.lock();
        assert!(
            st.trace.is_empty(),
            "set_base_step after scheduling started"
        );
        st.step = base;
    }

    /// Installs the hook applied to READ completions of steps whose
    /// [`StepDecision::tear`] fired. The schedule decides *when*; the hook
    /// decides *what* (e.g. tearing only buffers that parse as leaves, the
    /// hazard the leaf checksum exists for).
    pub fn set_tear_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        self.lock().tear_hook = hook;
    }

    /// Registers a participant. Registration order defines [`TraceStep`]
    /// participant ids, so register in a fixed order (e.g. from the main
    /// thread before spawning workers).
    pub fn register(&self) -> ScheduleHandle {
        let mut st = self.lock();
        let pid = st.participants.len() as u32;
        st.participants.push(Participant {
            waiting: None,
            thread: None,
        });
        st.n_live += 1;
        ScheduleHandle {
            shared: self.shared.clone(),
            pid,
        }
    }

    /// The decisions taken so far (the full trace once the run finished).
    pub fn trace(&self) -> Vec<TraceStep> {
        self.lock().trace.clone()
    }

    /// Steps granted so far.
    pub fn steps(&self) -> u64 {
        self.lock().trace.len() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.lock().expect("schedule poisoned")
    }
}

/// A participant's side of a [`Schedule`]. Attach to a
/// [`DmClient`](crate::DmClient) with
/// [`attach_schedule`](crate::DmClient::attach_schedule); dropping the
/// handle (or the client holding it) deregisters the participant.
pub struct ScheduleHandle {
    shared: Arc<Mutex<State>>,
    pid: u32,
}

impl fmt::Debug for ScheduleHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScheduleHandle(pid={})", self.pid)
    }
}

impl ScheduleHandle {
    /// This participant's id in the trace.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Parks until the scheduler grants this participant a step; returns
    /// the grant. Must be paired with [`gate_end`](Self::gate_end) once
    /// the step's effects are applied.
    pub(crate) fn gate_begin(&self, has_cas: bool) -> GrantedStep {
        let mut st = self.shared.lock().expect("schedule poisoned");
        let me = &mut st.participants[self.pid as usize];
        debug_assert!(me.waiting.is_none(), "participant {} gated twice", self.pid);
        me.waiting = Some(has_cas);
        me.thread = Some(thread::current());
        st.n_waiting += 1;
        let mut wake = try_select(&mut st);
        loop {
            if st.grant.as_ref().is_some_and(|g| g.pid == self.pid) {
                let g = st.grant.take().expect("grant present");
                st.participants[self.pid as usize].waiting = None;
                st.n_waiting -= 1;
                st.in_flight = Some(self.pid);
                return GrantedStep {
                    step: g.step,
                    decision: g.decision,
                    tear_hook: st.tear_hook.as_ref().filter(|_| g.decision.tear).cloned(),
                };
            }
            drop(st);
            if let Some(grantee) = wake.take() {
                grantee.unpark();
            }
            thread::park();
            st = self.shared.lock().expect("schedule poisoned");
        }
    }

    /// Marks the granted step's effects applied, allowing the next grant.
    pub(crate) fn gate_end(&self) {
        let mut st = self.shared.lock().expect("schedule poisoned");
        st.in_flight = None;
        let wake = try_select(&mut st);
        drop(st);
        if let Some(grantee) = wake {
            grantee.unpark();
        }
    }

    /// Consumes one scheduling step with no attached batch and returns its
    /// step number — a strictly monotonic timestamp totally ordered with
    /// every other participant's steps. History recorders use this to
    /// stamp operation invoke/response events deterministically.
    pub fn tick(&self) -> u64 {
        let g = self.gate_begin(false);
        self.gate_end();
        g.step
    }
}

impl Drop for ScheduleHandle {
    fn drop(&mut self) {
        let Ok(mut st) = self.shared.lock() else {
            return; // poisoned during panic: workers are going away anyway
        };
        if st.participants[self.pid as usize].waiting.take().is_some() {
            st.n_waiting -= 1;
        }
        st.n_live -= 1;
        // A holder that leaves without `gate_end` releases its step.
        st.in_flight = st.in_flight.filter(|&holder| holder != self.pid);
        let wake = try_select(&mut st);
        drop(st);
        if let Some(grantee) = wake {
            grantee.unpark();
        }
    }
}

/// The pids of the participants parked at the gate, in pid order.
fn waiters(participants: &[Participant]) -> impl Iterator<Item = u32> + '_ {
    (0u32..)
        .zip(participants)
        .filter(|(_, p)| p.waiting.is_some())
        .map(|(pid, _)| pid)
}

/// Grants the next step if every live participant is parked at the gate.
/// Returns the grantee's thread, for the caller to unpark once it has
/// released the state lock.
fn try_select(st: &mut State) -> Option<Thread> {
    if st.in_flight.is_some() || st.grant.is_some() || st.n_live == 0 || st.n_waiting < st.n_live {
        return None;
    }
    let n = st.n_live;
    debug_assert_eq!(waiters(&st.participants).count(), n);
    let nth = |i: usize| waiters(&st.participants).nth(i).expect("n live waiters");
    let cfg = &st.cfg;
    let (pid, decision) = match &mut st.mode {
        Mode::Record(rng) => {
            let mut idx = rng.gen_range(0..n);
            // CAS hold: defer a CAS-bearing step behind some other ready
            // participant, widening genuine CAS-failure windows.
            let chosen_has_cas = st.participants[nth(idx) as usize].waiting == Some(true);
            if n > 1
                && chosen_has_cas
                && cfg.cas_hold_pct > 0
                && rng.gen_range(0u32..100) < cfg.cas_hold_pct as u32
            {
                let skip = rng.gen_range(0..n - 1);
                idx = (idx + 1 + skip) % n;
            }
            let delay_ns = if cfg.delay_pct > 0 && rng.gen_range(0u32..100) < cfg.delay_pct as u32 {
                rng.gen_range(0..=cfg.max_delay_ns)
            } else {
                0
            };
            let tear = cfg.tear_pct > 0 && rng.gen_range(0u32..100) < cfg.tear_pct as u32;
            (nth(idx), StepDecision { delay_ns, tear })
        }
        Mode::Replay { steps, pos } => {
            let mut pinned = None;
            if *pos < steps.len() {
                let s = steps[*pos];
                let alive = st
                    .participants
                    .get(s.pid as usize)
                    .is_some_and(|p| p.waiting.is_some());
                if alive {
                    *pos += 1;
                    pinned = Some((
                        s.pid,
                        StepDecision {
                            delay_ns: s.delay_ns,
                            tear: s.tear,
                        },
                    ));
                } else {
                    // The trace has diverged (shrinking against a shorter
                    // run): abandon it and finish round-robin.
                    *pos = steps.len();
                }
            }
            pinned.unwrap_or_else(|| {
                // Fault-free cyclic fallback: first waiter after last_pid.
                let pid = waiters(&st.participants)
                    .find(|&w| w > st.last_pid)
                    .unwrap_or_else(|| nth(0));
                (pid, StepDecision::default())
            })
        }
    };
    let wake = st.participants[pid as usize].thread.clone();
    st.last_pid = pid;
    st.trace.push(TraceStep {
        pid,
        delay_ns: decision.delay_ns,
        tear: decision.tear,
    });
    let step = st.step;
    st.step += 1;
    st.grant = Some(Grant {
        pid,
        step,
        decision,
    });
    wake
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn run_counters(schedule: &Schedule, workers: usize, steps_each: usize) -> Vec<TraceStep> {
        run_gates(schedule, &vec![steps_each; workers], 0)
    }

    /// Runs one thread per entry of `gates`, participant `i` passing
    /// `gates[i]` gates and then leaving; with `cas_every = n > 0` every
    /// n-th gate of each participant carries a CAS. Returns the trace.
    fn run_gates(schedule: &Schedule, gates: &[usize], cas_every: usize) -> Vec<TraceStep> {
        let handles: Vec<ScheduleHandle> = gates.iter().map(|_| schedule.register()).collect();
        std::thread::scope(|s| {
            for (h, &n) in handles.into_iter().zip(gates) {
                s.spawn(move || {
                    for i in 1..=n {
                        let g = h.gate_begin(cas_every > 0 && i % cas_every == 0);
                        let _ = g.step;
                        h.gate_end();
                    }
                });
            }
        });
        schedule.trace()
    }

    /// Runs `f` on its own thread and fails unless it returns within
    /// `secs`: a wedged gate becomes a test failure instead of a hang.
    /// The thread is left detached, since a wedged one cannot be joined;
    /// a panic in `f` drops the sender and fails the receive.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .unwrap_or_else(|e| panic!("no result within {secs} s: {e:?}"))
    }

    /// FNV-1a over the trace's text form, one `;` after each step.
    fn digest(trace: &[TraceStep]) -> u64 {
        trace
            .iter()
            .flat_map(|s| format!("{s};").into_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let a = run_counters(&Schedule::new(ScheduleConfig::adversarial(7)), 3, 50);
        let b = run_counters(&Schedule::new(ScheduleConfig::adversarial(7)), 3, 50);
        let c = run_counters(&Schedule::new(ScheduleConfig::adversarial(8)), 3, 50);
        assert_eq!(a, b, "same seed, same trace");
        assert_ne!(a, c, "different seed, different trace");
        assert_eq!(a.len(), 150);
    }

    #[test]
    fn replay_follows_trace_exactly() {
        let trace = run_counters(&Schedule::new(ScheduleConfig::adversarial(3)), 3, 40);
        let replayed = run_counters(&Schedule::replay(trace.clone()), 3, 40);
        assert_eq!(trace, replayed);
    }

    #[test]
    fn replay_prefix_falls_back_round_robin() {
        let trace = run_counters(&Schedule::new(ScheduleConfig::adversarial(3)), 2, 30);
        let prefix: Vec<TraceStep> = trace[..10].to_vec();
        let replayed = run_counters(&Schedule::replay(prefix.clone()), 2, 30);
        assert_eq!(&replayed[..10], &prefix[..]);
        assert_eq!(replayed.len(), 60);
        // Fallback steps carry no faults.
        assert!(replayed[10..].iter().all(|s| s.delay_ns == 0 && !s.tear));
    }

    /// The grants of a seeded run with CAS holds, and of a replayed prefix
    /// finishing round-robin, pinned as digests: the selection may change
    /// how it finds the n-th waiter, never which one it picks or what it
    /// draws.
    #[test]
    fn recorded_and_replayed_decisions_are_pinned() {
        let recorded = run_gates(&Schedule::new(ScheduleConfig::adversarial(7)), &[60; 3], 3);
        assert_eq!(recorded.len(), 180);
        assert_eq!(digest(&recorded), 15_521_777_658_341_051_051);
        let replayed = run_gates(&Schedule::replay(recorded[..10].to_vec()), &[60; 3], 3);
        assert_eq!(&replayed[..10], &recorded[..10]);
        assert_eq!(digest(&replayed), 14_714_827_156_414_833_763);
    }

    #[test]
    fn ticks_are_strictly_monotonic_and_unique() {
        let schedule = Schedule::new(ScheduleConfig::quiet(1));
        let handles: Vec<ScheduleHandle> = (0..3).map(|_| schedule.register()).collect();
        let stamps = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for h in handles {
                // Move each handle in: a finished worker must drop its
                // handle or it parks the gate for everyone else.
                let stamps = &stamps;
                s.spawn(move || {
                    for _ in 0..100 {
                        let t = h.tick();
                        stamps.lock().unwrap().push(t);
                    }
                });
            }
        });
        let mut v = stamps.into_inner().unwrap();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 300, "every tick distinct");
    }

    #[test]
    fn dropped_participant_does_not_wedge_the_gate() {
        let schedule = Schedule::new(ScheduleConfig::quiet(2));
        let a = schedule.register();
        let b = schedule.register();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.tick();
                drop(a); // leaves early
            });
            s.spawn(move || {
                for _ in 0..50 {
                    b.tick();
                }
            });
        });
        assert!(schedule.steps() >= 51);
    }

    /// A worker that dies between `gate_begin` and `gate_end` (a panic
    /// unwinding through `flush_submitted` drops its handle) must release
    /// the step it holds.
    #[test]
    fn a_holder_dropped_mid_step_does_not_wedge_the_gate() {
        // The first grant is pinned to `a`, so `a` holds it when it leaves.
        let schedule = Schedule::replay(vec![TraceStep {
            pid: 0,
            delay_ns: 0,
            tear: false,
        }]);
        let (a, b) = (schedule.register(), schedule.register());
        within(5, move || {
            let holder = std::thread::spawn(move || {
                let _granted = a.gate_begin(false);
                drop(a); // no gate_end
            });
            for _ in 0..5 {
                b.tick();
            }
            holder.join().unwrap();
        });
        assert_eq!(schedule.steps(), 6);
    }

    /// Every grant wakes exactly its grantee, so a wake that goes astray
    /// hangs the run: 50 adversarial seeds of four participants, every
    /// third gate CAS-bearing (CAS holds fire), two of them leaving early
    /// at different steps.
    #[test]
    fn no_wakeup_is_lost_under_the_full_fault_matrix() {
        let gates = [2_000, 700, 2_000, 1_300];
        for seed in 0..50 {
            let trace = within(60, move || {
                run_gates(&Schedule::new(ScheduleConfig::adversarial(seed)), &gates, 3)
            });
            assert_eq!(trace.len(), gates.iter().sum::<usize>(), "seed {seed}");
        }
    }

    /// A handle may gate from one thread and then from another: the wake
    /// must follow it to the thread that is parked now.
    #[test]
    fn the_wake_follows_a_handle_to_its_next_thread() {
        let schedule = Schedule::new(ScheduleConfig::quiet(5));
        let (a, b) = (schedule.register(), schedule.register());
        within(10, move || {
            let other = std::thread::spawn(move || {
                for _ in 0..400 {
                    b.tick();
                }
            });
            let a = std::thread::spawn(move || {
                for _ in 0..200 {
                    a.tick();
                }
                a
            })
            .join()
            .unwrap();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    a.tick();
                }
            })
            .join()
            .unwrap();
            other.join().unwrap();
        });
        assert_eq!(schedule.steps(), 800);
    }

    #[test]
    fn trace_step_round_trips_through_text() {
        let s = TraceStep {
            pid: 3,
            delay_ns: 12_345,
            tear: true,
        };
        assert_eq!(s.to_string().parse::<TraceStep>().unwrap(), s);
        assert!("1:2".parse::<TraceStep>().is_err());
        assert!("1:2:7".parse::<TraceStep>().is_err());
    }

    #[test]
    fn base_step_offsets_timestamps() {
        let schedule = Schedule::new(ScheduleConfig::quiet(0));
        schedule.set_base_step(1000);
        let h = schedule.register();
        assert_eq!(h.tick(), 1000);
        assert_eq!(h.tick(), 1001);
    }
}
