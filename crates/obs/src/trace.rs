//! Causal per-op event tracing with critical-path analysis.
//!
//! The metrics layer ([`Recorder`](crate::Recorder)) answers "where do
//! round trips go *on average*"; this module answers "where did *this op's*
//! latency go". Each traced op carries an [`OpTrace`] through its state
//! machine, recording a timestamped [`OpEvent`] at every causal edge —
//! pipeline admission, submission (token issued), phase transitions,
//! retries, reclaim pin/unpin. At completion the trace
//! is joined with the transport-event window the `dm-sim` client recorded
//! over the op's lifetime ([`dm_sim::trace::TransportEvent`]), which tiles
//! the op's virtual timeline exactly: the clock only moves at doorbell
//! bursts and explicit advances.
//!
//! On top of the raw traces:
//!
//! * [`critical_path`] decomposes an op's end-to-end latency into five
//!   exact segments — queueing, fusion-wait, NIC service, scheduler stall,
//!   CN compute — that sum to the op's latency (asserted in tests).
//! * [`Tracer`] is the per-worker sampler: always-on tail retention of the
//!   slowest / most-retried K ops plus a uniform 1-in-N head sample, with
//!   a box pool so steady-state tracing allocates nothing and an untraced
//!   op never allocates at all.
//! * [`export_chrome`] renders retained traces as Chrome trace-event JSON
//!   (the `sphinx.trace.v1` schema), viewable in Perfetto: one track per
//!   worker, one per memory node. Output is deterministic — byte-identical
//!   across runs with the same seed under a seeded `Schedule`.

use dm_sim::trace::TransportEvent;

use crate::json::JsonWriter;
use crate::span::{OpKind, Phase};

/// Schema identifier stamped on every trace export.
pub const TRACE_SCHEMA: &str = "sphinx.trace.v1";

/// A trace's identity: `(worker << 32) | per-worker-sequence`. Stable and
/// deterministic under a seeded schedule.
pub type TraceId = u64;

/// One causal edge on a traced op's timeline (all timestamps are the
/// worker's virtual clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpEvent {
    /// The pipeline driver admitted the op into a slot (blocking ops skip
    /// this).
    Admitted {
        /// Virtual time of admission.
        at_ns: u64,
    },
    /// A batch was placed on the submission queue and a completion-queue
    /// token issued — including resubmissions after retries.
    Submitted {
        /// Virtual time of submission.
        at_ns: u64,
        /// Raw [`SqeToken`](dm_sim::SqeToken) — matches burst membership
        /// lists in [`dm_sim::trace::BurstEvent::tokens`].
        token: u64,
    },
    /// The op entered a new attribution phase.
    Phase {
        /// Virtual time of the transition.
        at_ns: u64,
        /// The phase entered.
        phase: Phase,
    },
    /// A failed attempt/restart (torn read, lost CAS, invalid node).
    Retry {
        /// Virtual time of the retry.
        at_ns: u64,
    },
    /// The op pinned its reclamation epoch.
    Pinned {
        /// Virtual time of the pin.
        at_ns: u64,
    },
    /// The op released its reclamation pin.
    Unpinned {
        /// Virtual time of the unpin.
        at_ns: u64,
    },
}

impl OpEvent {
    /// The event's timestamp.
    pub fn at_ns(&self) -> u64 {
        match *self {
            OpEvent::Admitted { at_ns }
            | OpEvent::Submitted { at_ns, .. }
            | OpEvent::Phase { at_ns, .. }
            | OpEvent::Retry { at_ns }
            | OpEvent::Pinned { at_ns }
            | OpEvent::Unpinned { at_ns } => at_ns,
        }
    }

    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            OpEvent::Admitted { .. } => "admit",
            OpEvent::Submitted { .. } => "submit",
            OpEvent::Phase { .. } => "phase",
            OpEvent::Retry { .. } => "retry",
            OpEvent::Pinned { .. } => "pin",
            OpEvent::Unpinned { .. } => "unpin",
        }
    }
}

/// The full causal record of one operation: its op-level events plus the
/// window of transport events (bursts, advances) that moved the worker's
/// clock between its begin and end timestamps.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// `(worker << 32) | seq` — see [`TraceId`].
    pub id: TraceId,
    /// Operation kind.
    pub kind: OpKind,
    /// Virtual time the op began (lease or pipeline admission).
    pub begin_ns: u64,
    /// Virtual time the op completed.
    pub end_ns: u64,
    /// Failed attempts / restarts recorded via [`OpTrace::retry`].
    pub retries: u32,
    /// Whether this trace was picked by the uniform head sample at lease
    /// time (tail retention applies regardless).
    pub head_sampled: bool,
    /// False when part of the transport window was evicted from the
    /// client's bounded ring — segment sums may then fall short.
    pub complete: bool,
    /// Op-level causal events, in record order (timestamps non-decreasing).
    pub events: Vec<OpEvent>,
    /// Raw tokens of every batch this op submitted. Empty for blocking
    /// ops, which are alone on the wire during their window.
    pub tokens: Vec<u64>,
    /// Transport events within `[begin_ns, end_ns]` — an exact tiling of
    /// the op's clock movement.
    pub bursts: Vec<TransportEvent>,
}

impl OpTrace {
    /// An empty placeholder (pool storage); [`Tracer::lease`] resets it.
    pub fn empty() -> Self {
        OpTrace {
            id: 0,
            kind: OpKind::Get,
            begin_ns: 0,
            end_ns: 0,
            retries: 0,
            head_sampled: false,
            complete: true,
            events: Vec::new(),
            tokens: Vec::new(),
            bursts: Vec::new(),
        }
    }

    fn reset(&mut self, id: TraceId, kind: OpKind, now_ns: u64) {
        self.id = id;
        self.kind = kind;
        self.begin_ns = now_ns;
        self.end_ns = now_ns;
        self.retries = 0;
        self.head_sampled = false;
        self.complete = true;
        self.events.clear();
        self.tokens.clear();
        self.bursts.clear();
    }

    /// The worker this trace belongs to (high half of the id).
    pub fn worker(&self) -> u32 {
        (self.id >> 32) as u32
    }

    /// End-to-end virtual latency.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }

    /// Records pipeline admission and re-bases the op's begin time (the
    /// driver may admit later than the lease).
    pub fn admit(&mut self, now_ns: u64) {
        self.begin_ns = now_ns;
        self.events.push(OpEvent::Admitted { at_ns: now_ns });
    }

    /// Records a submission and remembers its token for burst-membership
    /// resolution.
    pub fn submitted(&mut self, token: u64, now_ns: u64) {
        self.tokens.push(token);
        self.events.push(OpEvent::Submitted {
            at_ns: now_ns,
            token,
        });
    }

    /// Records a phase transition (consecutive duplicates are dropped).
    pub fn phase(&mut self, phase: Phase, now_ns: u64) {
        if let Some(OpEvent::Phase { phase: last, .. }) = self
            .events
            .iter()
            .rev()
            .find(|e| matches!(e, OpEvent::Phase { .. }))
        {
            if *last == phase {
                return;
            }
        }
        self.events.push(OpEvent::Phase {
            at_ns: now_ns,
            phase,
        });
    }

    /// Records a retry/restart.
    pub fn retry(&mut self, now_ns: u64) {
        self.retries += 1;
        self.events.push(OpEvent::Retry { at_ns: now_ns });
    }

    /// Records a reclamation pin.
    pub fn pin(&mut self, now_ns: u64) {
        self.events.push(OpEvent::Pinned { at_ns: now_ns });
    }

    /// Records a reclamation unpin.
    pub fn unpin(&mut self, now_ns: u64) {
        self.events.push(OpEvent::Unpinned { at_ns: now_ns });
    }
}

/// An op's latency decomposed into five exact segments.
///
/// For a trace whose transport window is complete, the segments sum
/// *exactly* to [`total_ns`](CriticalPath::total_ns): every transport
/// event's duration is split without remainder, and the worker clock never
/// moves outside transport events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Clock advances outside any burst: retry backoff, and (for pipelined
    /// ops) bursts-free stretches while other slots' steps ran.
    pub queue_ns: u64,
    /// Time inside bursts the op did not cause: whole bursts it was not a
    /// member of (its submission waited, fused, for a later flush or was
    /// already complete) plus co-members' CN-compute share in shared
    /// bursts.
    pub fusion_ns: u64,
    /// NIC service (CN + slowest-MN queueing/serialization) including the
    /// trailing RTT, for bursts the op was a member of.
    pub service_ns: u64,
    /// Deterministic-scheduler grant delays on member bursts.
    pub stall_ns: u64,
    /// The op's own CN-side per-verb compute share of member bursts.
    pub compute_ns: u64,
    /// End-to-end latency ([`OpTrace::latency_ns`]).
    pub total_ns: u64,
}

impl CriticalPath {
    /// Sum of the five segments.
    pub fn segments_sum(&self) -> u64 {
        self.queue_ns + self.fusion_ns + self.service_ns + self.stall_ns + self.compute_ns
    }

    /// Whether the decomposition is exact (always true for traces with a
    /// complete transport window).
    pub fn is_exact(&self) -> bool {
        self.segments_sum() == self.total_ns
    }
}

/// Decomposes `t`'s latency into [`CriticalPath`] segments.
///
/// Membership: a burst belongs to the op when one of the op's submission
/// tokens appears in the burst's member list. Blocking ops record no
/// tokens and are alone on the wire during their window, so every burst is
/// theirs. A truncated member list (more fused ops than the burst records)
/// conservatively counts as membership with the full compute share.
pub fn critical_path(t: &OpTrace) -> CriticalPath {
    let mut cp = CriticalPath {
        total_ns: t.latency_ns(),
        ..CriticalPath::default()
    };
    for ev in &t.bursts {
        match *ev {
            TransportEvent::Advance { from_ns, to_ns } => cp.queue_ns += to_ns - from_ns,
            TransportEvent::Burst(ref b) => {
                let dur = b.to_ns - b.from_ns;
                let own_verbs: u64 = if t.tokens.is_empty() || b.tokens_truncated {
                    b.verbs as u64
                } else {
                    b.tokens()
                        .iter()
                        .filter(|bt| t.tokens.contains(&bt.token))
                        .map(|bt| bt.verbs as u64)
                        .sum()
                };
                if own_verbs == 0 {
                    cp.fusion_ns += dur;
                    continue;
                }
                // Exact integer split: cpu_ns is client_op_ns × verbs, so
                // the per-verb share divides without remainder.
                let own_cpu = if b.verbs == 0 {
                    b.cpu_ns
                } else {
                    b.cpu_ns * own_verbs / b.verbs as u64
                };
                cp.stall_ns += b.delay_ns;
                cp.service_ns += b.service_ns;
                cp.compute_ns += own_cpu;
                cp.fusion_ns += dur - b.delay_ns - b.service_ns - own_cpu;
            }
        }
    }
    cp
}

/// Default tail-retention K: full traces kept for the K slowest and the K
/// most-retried ops per worker.
pub const DEFAULT_TAIL_K: usize = 8;

/// Most head-sampled traces retained per worker.
const HEAD_CAP: usize = 256;

/// Recycled trace boxes kept around (covers the pipeline depth plus
/// finish-lease churn).
const POOL_CAP: usize = 32;

fn rank_by_latency(t: &OpTrace) -> (u64, u64) {
    (t.latency_ns(), t.retries as u64)
}

fn rank_by_retries(t: &OpTrace) -> (u64, u64) {
    (t.retries as u64, t.latency_ns())
}

/// The per-worker trace sampler: leases [`OpTrace`] contexts to ops,
/// windows completed traces against the transport-event ring, and retains
/// the tail (slowest / most-retried K) plus a uniform head sample.
///
/// Defaults to always-on tail sampling ([`DEFAULT_TAIL_K`]) with the head
/// sample off.
// Boxes are deliberate despite living in Vecs: leases hand the *same*
// allocation back and forth between the pool and the op, so the steady
// state allocates nothing and retention shuffles 8-byte pointers.
#[allow(clippy::vec_box)]
#[derive(Debug)]
pub struct Tracer {
    worker: u32,
    head_every: u64,
    tail_k: usize,
    seq: u64,
    pool: Vec<Box<OpTrace>>,
    head: Vec<Box<OpTrace>>,
    slowest: Vec<Box<OpTrace>>,
    most_retried: Vec<Box<OpTrace>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            worker: 0,
            head_every: 0,
            tail_k: DEFAULT_TAIL_K,
            seq: 0,
            pool: Vec::new(),
            head: Vec::new(),
            slowest: Vec::new(),
            most_retried: Vec::new(),
        }
    }
}

impl Tracer {
    /// Creates a tracer with default sampling (tail K = 8, head off).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Sets the worker id stamped into the high half of every trace id.
    pub fn set_worker(&mut self, worker: u32) {
        self.worker = worker;
    }

    /// Configures sampling: keep full traces for the `tail_k`
    /// slowest/most-retried ops, plus every `head_every`-th op (0 = head
    /// sample off). `(0, 0)` disables tracing — no lease, no allocation.
    pub fn configure(&mut self, head_every: u64, tail_k: usize) {
        self.head_every = head_every;
        self.tail_k = tail_k;
    }

    /// Whether any sampling is active.
    pub fn is_active(&self) -> bool {
        self.head_every > 0 || self.tail_k > 0
    }

    /// Leases a trace context for an op beginning now. Returns `None` when
    /// sampling is off; otherwise recycles a pooled box — steady state
    /// allocates nothing.
    pub fn lease(&mut self, kind: OpKind, now_ns: u64) -> Option<Box<OpTrace>> {
        if !self.is_active() {
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        let mut t = self
            .pool
            .pop()
            .unwrap_or_else(|| Box::new(OpTrace::empty()));
        t.reset(
            ((self.worker as u64) << 32) | (seq & 0xffff_ffff),
            kind,
            now_ns,
        );
        t.head_sampled = self.head_every > 0 && seq.is_multiple_of(self.head_every);
        Some(t)
    }

    /// Completes a leased trace: stamps its end time, windows `events`
    /// (the transport events collected since the op's mark) to
    /// `[begin_ns, end_ns]`, and applies the retention policy. Returns the
    /// trace id iff the trace was retained (head sample, or current
    /// slowest/most-retried tail).
    pub fn finish(
        &mut self,
        mut trace: Box<OpTrace>,
        end_ns: u64,
        events: &[TransportEvent],
    ) -> Option<TraceId> {
        trace.end_ns = end_ns;
        trace.bursts.clear();
        for ev in events {
            if ev.from_ns() >= trace.begin_ns && ev.to_ns() <= trace.end_ns {
                trace.bursts.push(*ev);
            }
        }
        let id = trace.id;
        if trace.head_sampled && self.head.len() < HEAD_CAP {
            self.head.push(trace);
            return Some(id);
        }
        if self.tail_k == 0 {
            Self::pool(&mut self.pool, trace);
            return None;
        }
        // Slowest list first; whatever spills (the new trace when it
        // doesn't qualify, or an older trace it displaced) gets a
        // second chance on the most-retried list before pooling.
        let spill = match Self::insert_topk(&mut self.slowest, trace, self.tail_k, rank_by_latency)
        {
            None => return Some(id),
            Some(t) => t,
        };
        let spill = if spill.retries > 0 {
            match Self::insert_topk(&mut self.most_retried, spill, self.tail_k, rank_by_retries) {
                None => return Some(id),
                Some(t) => t,
            }
        } else {
            spill
        };
        let dropped_self = spill.id == id;
        Self::pool(&mut self.pool, spill);
        (!dropped_self).then_some(id)
    }

    /// Inserts `t` into the descending-sorted top-`k` list. Returns the
    /// box that fell out — `t` itself when it doesn't qualify, or the
    /// displaced tail entry.
    #[allow(clippy::vec_box)]
    fn insert_topk(
        list: &mut Vec<Box<OpTrace>>,
        t: Box<OpTrace>,
        k: usize,
        rank: fn(&OpTrace) -> (u64, u64),
    ) -> Option<Box<OpTrace>> {
        let r = rank(&t);
        let pos = list.partition_point(|e| rank(e) >= r);
        if pos >= k {
            return Some(t);
        }
        list.insert(pos, t);
        if list.len() > k {
            list.pop()
        } else {
            None
        }
    }

    #[allow(clippy::vec_box)]
    fn pool(pool: &mut Vec<Box<OpTrace>>, t: Box<OpTrace>) {
        if pool.len() < POOL_CAP {
            pool.push(t);
        }
    }

    /// Drains every retained trace (head sample + tails), sorted by id.
    /// The pool is kept, so a following run still recycles.
    pub fn take_traces(&mut self) -> Vec<OpTrace> {
        let mut out: Vec<OpTrace> = self
            .head
            .drain(..)
            .chain(self.slowest.drain(..))
            .chain(self.most_retried.drain(..))
            .map(|b| *b)
            .collect();
        out.sort_by_key(|t| t.id);
        out.dedup_by_key(|t| t.id);
        out
    }
}

/// Renders traces as a Chrome trace-event JSON document (the
/// `sphinx.trace.v1` schema) viewable in Perfetto / `chrome://tracing`.
///
/// Layout: process 1 holds one track per CN worker (op slices with their
/// critical-path segments as args, phase sub-slices, instant events for
/// submits/retries/pins); process 2 holds one track per memory node
/// (service slices derived from burst completions, deduplicated across
/// traces). Timestamps are virtual-time nanoseconds emitted 1:1 into the
/// `ts`/`dur` fields (one trace-viewer microsecond per virtual
/// nanosecond), keeping the output integer-exact and byte-deterministic.
pub fn export_chrome(traces: &[OpTrace]) -> String {
    let mut order: Vec<&OpTrace> = traces.iter().collect();
    order.sort_by_key(|t| t.id);

    let mut workers: Vec<u32> = order.iter().map(|t| t.worker()).collect();
    workers.sort_unstable();
    workers.dedup();
    // MN service slices, deduplicated across traces that share a burst:
    // (mn, start, fin) -> (doorbells, verbs).
    let mut mn_slices: std::collections::BTreeMap<(u16, u64, u64), (u32, u32)> =
        std::collections::BTreeMap::new();
    for t in &order {
        for ev in &t.bursts {
            if let TransportEvent::Burst(b) = ev {
                let start = b.from_ns + b.delay_ns;
                for &(mn, fin) in b.mn_fins() {
                    mn_slices
                        .entry((mn, start, fin))
                        .or_insert((b.doorbells, b.verbs));
                }
            }
        }
    }

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.str_field("schema", TRACE_SCHEMA);
    w.str_field("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_arr();

    let meta = |w: &mut JsonWriter, pid: u64, tid: Option<u64>, name: &str, value: &str| {
        w.begin_obj();
        w.str_field("ph", "M");
        w.u64_field("pid", pid);
        if let Some(tid) = tid {
            w.u64_field("tid", tid);
        }
        w.str_field("name", name);
        w.key("args");
        w.begin_obj();
        w.str_field("name", value);
        w.end_obj();
        w.end_obj();
    };
    meta(&mut w, 1, None, "process_name", "cn-workers");
    for &worker in &workers {
        meta(
            &mut w,
            1,
            Some(worker as u64),
            "thread_name",
            &format!("worker-{worker}"),
        );
    }
    if !mn_slices.is_empty() {
        meta(&mut w, 2, None, "process_name", "memory-nodes");
        let mut mns: Vec<u16> = mn_slices.keys().map(|&(mn, _, _)| mn).collect();
        mns.sort_unstable();
        mns.dedup();
        for mn in mns {
            meta(
                &mut w,
                2,
                Some(mn as u64),
                "thread_name",
                &format!("mn-{mn}"),
            );
        }
    }

    for t in &order {
        let tid = t.worker() as u64;
        let cp = critical_path(t);
        // The op slice with its critical-path decomposition.
        w.begin_obj();
        w.str_field("ph", "X");
        w.u64_field("pid", 1);
        w.u64_field("tid", tid);
        w.u64_field("ts", t.begin_ns);
        w.u64_field("dur", t.latency_ns());
        w.str_field("name", t.kind.name());
        w.str_field("cat", "op");
        w.key("args");
        w.begin_obj();
        w.u64_field("trace_id", t.id);
        w.u64_field("retries", t.retries as u64);
        w.u64_field("queue_ns", cp.queue_ns);
        w.u64_field("fusion_ns", cp.fusion_ns);
        w.u64_field("service_ns", cp.service_ns);
        w.u64_field("stall_ns", cp.stall_ns);
        w.u64_field("compute_ns", cp.compute_ns);
        w.str_field("exact", if cp.is_exact() { "true" } else { "false" });
        w.end_obj();
        w.end_obj();
        // Phase sub-slices: each phase runs to the next transition or the
        // op's end.
        let phases: Vec<(u64, Phase)> = t
            .events
            .iter()
            .filter_map(|e| match *e {
                OpEvent::Phase { at_ns, phase } => Some((at_ns, phase)),
                _ => None,
            })
            .collect();
        for (i, &(at, phase)) in phases.iter().enumerate() {
            let until = phases.get(i + 1).map_or(t.end_ns, |&(next, _)| next);
            w.begin_obj();
            w.str_field("ph", "X");
            w.u64_field("pid", 1);
            w.u64_field("tid", tid);
            w.u64_field("ts", at);
            w.u64_field("dur", until.saturating_sub(at));
            w.str_field("name", phase.name());
            w.str_field("cat", "phase");
            w.end_obj();
        }
        // Instant events for the remaining causal edges.
        for e in &t.events {
            if matches!(e, OpEvent::Phase { .. }) {
                continue;
            }
            w.begin_obj();
            w.str_field("ph", "i");
            w.u64_field("pid", 1);
            w.u64_field("tid", tid);
            w.u64_field("ts", e.at_ns());
            w.str_field("name", e.name());
            w.str_field("s", "t");
            if let OpEvent::Submitted { token, .. } = e {
                w.key("args");
                w.begin_obj();
                w.u64_field("token", *token);
                w.end_obj();
            }
            w.end_obj();
        }
    }

    for (&(mn, start, fin), &(doorbells, verbs)) in &mn_slices {
        w.begin_obj();
        w.str_field("ph", "X");
        w.u64_field("pid", 2);
        w.u64_field("tid", mn as u64);
        w.u64_field("ts", start);
        w.u64_field("dur", fin.saturating_sub(start));
        w.str_field("name", "burst");
        w.str_field("cat", "mn");
        w.key("args");
        w.begin_obj();
        w.u64_field("doorbells", doorbells as u64);
        w.u64_field("verbs", verbs as u64);
        w.end_obj();
        w.end_obj();
    }

    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::trace::BurstEvent;

    /// A burst shared by three fused ops: `delay` of scheduler stall, one
    /// CN-compute charge of 10 ns per verb (one verb per op), 100 ns of
    /// NIC service.
    fn shared_burst() -> BurstEvent {
        let mut b = BurstEvent::new(0, 140, 10, 30);
        b.doorbells = 1;
        b.verbs = 3;
        b.push_token(101, 1);
        b.push_token(102, 1);
        b.push_token(103, 1);
        b.push_mn_fin(0, 120);
        b
    }

    fn traced(tokens: &[u64], begin_ns: u64, end_ns: u64, bursts: Vec<TransportEvent>) -> OpTrace {
        let mut t = OpTrace::empty();
        t.begin_ns = begin_ns;
        t.end_ns = end_ns;
        t.tokens = tokens.to_vec();
        t.bursts = bursts;
        t
    }

    #[test]
    fn fused_doorbell_shared_by_three_ops_sums_exactly() {
        let b = shared_burst();
        assert_eq!(b.service_ns, 100);
        for token in [101u64, 102, 103] {
            let t = traced(&[token], 0, 140, vec![TransportEvent::Burst(b)]);
            let cp = critical_path(&t);
            assert_eq!(cp.stall_ns, 10);
            assert_eq!(cp.service_ns, 100);
            assert_eq!(cp.compute_ns, 10, "own 1-of-3 verb share of 30 ns cpu");
            assert_eq!(cp.fusion_ns, 20, "the two co-members' compute");
            assert_eq!(cp.segments_sum(), 140);
            assert!(cp.is_exact());
        }
    }

    #[test]
    fn non_member_burst_is_pure_fusion_wait() {
        let b = shared_burst();
        // This op submitted token 999, which is not in the burst: the
        // whole burst is time it spent waiting on peers.
        let t = traced(&[999], 0, 140, vec![TransportEvent::Burst(b)]);
        let cp = critical_path(&t);
        assert_eq!(cp.fusion_ns, 140);
        assert_eq!(cp.queue_ns + cp.service_ns + cp.stall_ns + cp.compute_ns, 0);
        assert!(cp.is_exact());
    }

    #[test]
    fn resubmit_after_torn_read_sums_exactly() {
        // Attempt 1: solo burst [0, 50) with 20 ns cpu, no stall.
        let mut b1 = BurstEvent::new(0, 50, 0, 20);
        b1.verbs = 2;
        b1.push_token(7, 2);
        // Torn read detected → backoff advance [50, 80), then resubmit.
        let adv = TransportEvent::Advance {
            from_ns: 50,
            to_ns: 80,
        };
        // Attempt 2: burst [80, 180) with 10 ns stall, 20 ns cpu.
        let mut b2 = BurstEvent::new(80, 180, 10, 20);
        b2.verbs = 2;
        b2.push_token(8, 2);
        let mut t = traced(
            &[7, 8],
            0,
            180,
            vec![TransportEvent::Burst(b1), adv, TransportEvent::Burst(b2)],
        );
        t.submitted(7, 0);
        t.retry(50);
        t.submitted(8, 80);
        let cp = critical_path(&t);
        assert_eq!(cp.queue_ns, 30, "backoff advance");
        assert_eq!(cp.stall_ns, 10);
        assert_eq!(cp.compute_ns, 40);
        assert_eq!(cp.service_ns, (50 - 20) + (180 - 80 - 10 - 20));
        assert_eq!(cp.fusion_ns, 0);
        assert_eq!(cp.segments_sum(), 180);
        assert!(cp.is_exact());
        assert_eq!(t.retries, 1);
    }

    #[test]
    fn zero_work_sfc_probe_is_exact_with_empty_segments() {
        // A CN-local SFC probe moves no virtual time and issues no verbs.
        let mut t = traced(&[], 500, 500, Vec::new());
        t.phase(Phase::SfcProbe, 500);
        let cp = critical_path(&t);
        assert_eq!(cp, CriticalPath::default());
        assert!(cp.is_exact());
    }

    #[test]
    fn blocking_op_without_tokens_owns_every_burst() {
        let mut b = BurstEvent::new(100, 160, 0, 10);
        b.verbs = 1;
        // Blocking path: no tokens recorded; the op is alone on the wire.
        let t = traced(&[], 100, 160, vec![TransportEvent::Burst(b)]);
        let cp = critical_path(&t);
        assert_eq!(cp.compute_ns, 10);
        assert_eq!(cp.service_ns, 50);
        assert!(cp.is_exact());
    }

    #[test]
    fn truncated_member_list_counts_as_full_membership() {
        let mut b = BurstEvent::new(0, 100, 0, 30);
        b.verbs = 3;
        b.tokens_truncated = true;
        let t = traced(&[42], 0, 100, vec![TransportEvent::Burst(b)]);
        let cp = critical_path(&t);
        assert_eq!(cp.compute_ns, 30, "conservative full compute share");
        assert!(cp.is_exact());
    }

    #[test]
    fn phase_dedup_drops_consecutive_duplicates() {
        let mut t = OpTrace::empty();
        t.phase(Phase::SfcProbe, 0);
        t.phase(Phase::SfcProbe, 10);
        t.phase(Phase::LeafRead, 20);
        t.phase(Phase::SfcProbe, 30);
        let phases: Vec<_> = t
            .events
            .iter()
            .filter(|e| matches!(e, OpEvent::Phase { .. }))
            .collect();
        assert_eq!(phases.len(), 3);
    }

    #[test]
    fn tracer_disabled_sampling_never_leases() {
        let mut tr = Tracer::new();
        tr.configure(0, 0);
        assert!(!tr.is_active());
        assert!(tr.lease(OpKind::Get, 0).is_none());
    }

    #[test]
    fn tail_retention_keeps_slowest_and_most_retried() {
        let mut tr = Tracer::new();
        tr.set_worker(3);
        tr.configure(0, 2);
        // Latencies 100, 400, 200, 300 → slowest two are 400 and 300.
        // The 200 op carries retries → second chance on the retried list.
        let specs = [(100u64, 0u32), (400, 0), (200, 2), (300, 0)];
        let mut retained = Vec::new();
        for &(lat, retries) in &specs {
            let mut t = tr.lease(OpKind::Get, 0).expect("sampling active");
            for _ in 0..retries {
                t.retry(lat / 2);
            }
            retained.push(tr.finish(t, lat, &[]));
        }
        // 100: retained until displaced; 400/300 survive; 200 lands on the
        // retried list.
        assert!(retained[1].is_some() && retained[2].is_some() && retained[3].is_some());
        let traces = tr.take_traces();
        let lats: Vec<u64> = traces.iter().map(|t| t.latency_ns()).collect();
        assert!(lats.contains(&400) && lats.contains(&300) && lats.contains(&200));
        assert!(!lats.contains(&100));
        for t in &traces {
            assert_eq!(t.worker(), 3);
        }
        // Ids are unique and sorted.
        let ids: Vec<u64> = traces.iter().map(|t| t.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn head_sample_takes_every_nth_and_pool_recycles() {
        let mut tr = Tracer::new();
        tr.configure(2, 1);
        let t0 = tr.lease(OpKind::Get, 0).unwrap();
        assert!(t0.head_sampled, "seq 0 is a head sample at every=2");
        let t1 = tr.lease(OpKind::Get, 0).unwrap();
        assert!(!t1.head_sampled);
        assert!(tr.finish(t0, 10, &[]).is_some());
        assert!(tr.finish(t1, 5, &[]).is_some(), "tail k=1 keeps it");
        let t2 = tr.lease(OpKind::Get, 0).unwrap();
        assert!(t2.head_sampled, "seq 2 is a head sample again");
        assert!(tr.finish(t2, 1, &[]).is_some());
        // A fourth, faster op displaces nothing and is pooled; the next
        // lease reuses its box.
        let t3 = tr.lease(OpKind::Get, 0).unwrap();
        assert!(!t3.head_sampled);
        assert!(tr.finish(t3, 1, &[]).is_none());
        let before = tr.pool.len();
        assert!(before > 0);
        let _t3 = tr.lease(OpKind::Get, 0).unwrap();
        assert_eq!(tr.pool.len(), before - 1, "lease recycled a box");
    }

    #[test]
    fn finish_windows_transport_events_to_op_lifetime() {
        let mut tr = Tracer::new();
        tr.configure(1, 0);
        let mut b_in = BurstEvent::new(100, 150, 0, 10);
        b_in.verbs = 1;
        let b_out = BurstEvent::new(10, 60, 0, 10);
        let events = [
            TransportEvent::Burst(b_out),
            TransportEvent::Burst(b_in),
            TransportEvent::Advance {
                from_ns: 150,
                to_ns: 170,
            },
            TransportEvent::Advance {
                from_ns: 210,
                to_ns: 230,
            },
        ];
        let mut t = tr.lease(OpKind::Get, 100).unwrap();
        t.admit(100);
        tr.finish(t, 170, &events);
        let traces = tr.take_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].bursts.len(), 2, "pre-begin and post-end dropped");
        let cp = critical_path(&traces[0]);
        assert_eq!(cp.queue_ns, 20);
        assert_eq!(cp.compute_ns, 10);
        assert_eq!(cp.service_ns, 40);
        assert!(cp.is_exact());
    }

    #[test]
    fn export_is_deterministic_and_schema_stamped() {
        let b = shared_burst();
        let mut t1 = traced(&[101], 0, 140, vec![TransportEvent::Burst(b)]);
        t1.id = (1 << 32) | 7;
        t1.kind = OpKind::Get;
        t1.admit(0);
        t1.submitted(101, 0);
        t1.phase(Phase::LeafRead, 0);
        let mut t2 = traced(&[102], 0, 140, vec![TransportEvent::Burst(b)]);
        t2.id = 2 << 32;
        let json = export_chrome(&[t2.clone(), t1.clone()]);
        assert_eq!(
            json,
            export_chrome(&[t1.clone(), t2.clone()]),
            "order-independent"
        );
        let doc = crate::json::parse(&json).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(TRACE_SCHEMA)
        );
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        // Two op slices, shared MN slice deduplicated to one.
        let count = |cat: &str| {
            events
                .iter()
                .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some(cat))
                .count()
        };
        assert_eq!(count("op"), 2);
        assert_eq!(count("mn"), 1, "shared burst deduplicates");
    }
}
