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
//! its batch while the rest stay parked. The granted step may additionally
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
//!   it) deregisters, so a finished or panicked worker never wedges the
//!   run.
//! * Clients must not hold locks shared with other participants across
//!   `execute` calls (none of the workspace index crates do).
//!
//! [`DmClient::flush_submitted`]: crate::DmClient::flush_submitted
//! [`FaultHook`]: crate::FaultHook

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex};

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
    live: bool,
    /// `Some(has_cas)` while parked at the gate.
    waiting: Option<bool>,
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
    /// A granted participant is applying its batch; no selection until it
    /// returns through `gate_end`.
    in_flight: bool,
    step: u64,
    last_pid: u32,
    trace: Vec<TraceStep>,
    tear_hook: Option<Arc<dyn FaultHook>>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// A deterministic scheduler shared by a set of simulated clients.
///
/// Cheap to clone (an `Arc` handle). See the module docs for the model.
#[derive(Clone)]
pub struct Schedule {
    shared: Arc<Shared>,
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.shared.state.lock().expect("schedule poisoned");
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
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    mode,
                    cfg,
                    participants: Vec::new(),
                    n_live: 0,
                    n_waiting: 0,
                    grant: None,
                    in_flight: false,
                    step: 0,
                    last_pid: 0,
                    trace: Vec::new(),
                    tear_hook: None,
                }),
                cv: Condvar::new(),
            }),
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
            live: true,
            waiting: None,
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

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared.state.lock().expect("schedule poisoned")
    }
}

/// A participant's side of a [`Schedule`]. Attach to a
/// [`DmClient`](crate::DmClient) with
/// [`attach_schedule`](crate::DmClient::attach_schedule); dropping the
/// handle (or the client holding it) deregisters the participant.
pub struct ScheduleHandle {
    shared: Arc<Shared>,
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
        let mut st = self.shared.state.lock().expect("schedule poisoned");
        debug_assert!(
            st.participants[self.pid as usize].waiting.is_none(),
            "participant {} gated twice",
            self.pid
        );
        st.participants[self.pid as usize].waiting = Some(has_cas);
        st.n_waiting += 1;
        if try_select(&mut st) {
            self.shared.cv.notify_all();
        }
        loop {
            if st.grant.as_ref().is_some_and(|g| g.pid == self.pid) {
                let g = st.grant.take().expect("grant present");
                st.participants[self.pid as usize].waiting = None;
                st.n_waiting -= 1;
                st.in_flight = true;
                let tear_hook = if g.decision.tear {
                    st.tear_hook.clone()
                } else {
                    None
                };
                return GrantedStep {
                    step: g.step,
                    decision: g.decision,
                    tear_hook,
                };
            }
            st = self.shared.cv.wait(st).expect("schedule poisoned");
        }
    }

    /// Marks the granted step's effects applied, allowing the next grant.
    pub(crate) fn gate_end(&self) {
        let mut st = self.shared.state.lock().expect("schedule poisoned");
        st.in_flight = false;
        if try_select(&mut st) {
            self.shared.cv.notify_all();
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
        let Ok(mut st) = self.shared.state.lock() else {
            return; // poisoned during panic: workers are going away anyway
        };
        let p = &mut st.participants[self.pid as usize];
        if p.live {
            p.live = false;
            if p.waiting.take().is_some() {
                st.n_waiting -= 1;
            }
            st.n_live -= 1;
        }
        if try_select(&mut st) {
            self.shared.cv.notify_all();
        }
        drop(st);
        // A dropped grant-holder can unblock others even without a new
        // selection (e.g. the last participant leaving).
        self.shared.cv.notify_all();
    }
}

/// Grants the next step if every live participant is parked at the gate.
/// Returns whether a grant was issued (callers then notify).
fn try_select(st: &mut State) -> bool {
    if st.in_flight || st.grant.is_some() || st.n_live == 0 || st.n_waiting < st.n_live {
        return false;
    }
    let waiters: Vec<u32> = st
        .participants
        .iter()
        .enumerate()
        .filter(|(_, p)| p.live && p.waiting.is_some())
        .map(|(i, _)| i as u32)
        .collect();
    debug_assert_eq!(waiters.len(), st.n_live);
    let cfg = st.cfg.clone();
    let (pid, decision) = match &mut st.mode {
        Mode::Record(rng) => {
            let mut idx = rng.gen_range(0..waiters.len());
            // CAS hold: defer a CAS-bearing step behind some other ready
            // participant, widening genuine CAS-failure windows.
            let chosen_has_cas = st.participants[waiters[idx] as usize].waiting == Some(true);
            if waiters.len() > 1
                && chosen_has_cas
                && cfg.cas_hold_pct > 0
                && rng.gen_range(0u32..100) < cfg.cas_hold_pct as u32
            {
                let skip = rng.gen_range(0..waiters.len() - 1);
                idx = (idx + 1 + skip) % waiters.len();
            }
            let delay_ns = if cfg.delay_pct > 0 && rng.gen_range(0u32..100) < cfg.delay_pct as u32 {
                rng.gen_range(0..=cfg.max_delay_ns)
            } else {
                0
            };
            let tear = cfg.tear_pct > 0 && rng.gen_range(0u32..100) < cfg.tear_pct as u32;
            (waiters[idx], StepDecision { delay_ns, tear })
        }
        Mode::Replay { steps, pos } => {
            let mut pinned = None;
            if *pos < steps.len() {
                let s = steps[*pos];
                let alive = st
                    .participants
                    .get(s.pid as usize)
                    .is_some_and(|p| p.live && p.waiting.is_some());
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
                let pid = *waiters
                    .iter()
                    .find(|&&w| w > st.last_pid)
                    .unwrap_or(&waiters[0]);
                (pid, StepDecision::default())
            })
        }
    };
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
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_counters(schedule: &Schedule, workers: usize, steps_each: usize) -> Vec<TraceStep> {
        let handles: Vec<ScheduleHandle> = (0..workers).map(|_| schedule.register()).collect();
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || {
                    for _ in 0..steps_each {
                        let g = h.gate_begin(false);
                        let _ = g.step;
                        h.gate_end();
                    }
                });
            }
        });
        schedule.trace()
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
