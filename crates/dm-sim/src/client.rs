//! Compute-side clients: one-sided verbs, doorbell batching, virtual clock.

use std::hash::Hasher;
use std::sync::Arc;

use crate::addr::RemotePtr;
use crate::cluster::ClusterInner;
use crate::error::DmError;
use crate::inline::FirstInline;
use crate::schedule::{GrantedStep, ScheduleHandle};
use crate::stats::ClientStats;
use crate::trace::{BurstEvent, TransportEvent, TransportTrace};
use crate::transport::{Completion, FaultHook, SqeToken};

/// A single one-sided RDMA operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// Read `len` bytes at `ptr`.
    Read {
        /// Source address.
        ptr: RemotePtr,
        /// Bytes to read.
        len: usize,
    },
    /// Write `data` at `ptr`.
    Write {
        /// Destination address.
        ptr: RemotePtr,
        /// Payload.
        data: Vec<u8>,
    },
    /// Compare-and-swap the 8-byte word at `ptr`.
    Cas {
        /// Word address (8-byte aligned).
        ptr: RemotePtr,
        /// Expected value.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Fetch-and-add on the 8-byte word at `ptr`.
    Faa {
        /// Word address (8-byte aligned).
        ptr: RemotePtr,
        /// Addend (wrapping).
        delta: u64,
    },
    /// Release the allocation at `ptr` through the reclamation path.
    ///
    /// Unlike [`DmClient::free`] (the allocation fast path, charged no
    /// network time), a `Free` verb travels like any other one-sided
    /// message — the epoch reclaimer doorbell-batches many of them into
    /// one round trip — and the returned bytes are attributed to
    /// [`AllocStats::reclaimed_bytes`](crate::AllocStats::reclaimed_bytes).
    Free {
        /// Allocation to release.
        ptr: RemotePtr,
    },
}

impl Verb {
    /// The memory node this verb targets (from its pointer's placement).
    pub fn mn_id(&self) -> u16 {
        match self {
            Verb::Read { ptr, .. }
            | Verb::Write { ptr, .. }
            | Verb::Cas { ptr, .. }
            | Verb::Faa { ptr, .. }
            | Verb::Free { ptr } => ptr.mn_id(),
        }
    }

    /// Payload bytes this verb moves over the wire (request + response).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Verb::Read { len, .. } => *len as u64,
            Verb::Write { data, .. } => data.len() as u64,
            Verb::Cas { .. } => 16, // expected+swap out, old value back
            Verb::Faa { .. } => 16,
            Verb::Free { .. } => 8, // pointer out, ack back
        }
    }
}

/// The outcome of one [`Verb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerbResult {
    /// Bytes returned by a read.
    Read(Vec<u8>),
    /// A write completed.
    Write,
    /// Previous word value observed by a CAS (success ⇔ it equals the
    /// expected value the caller supplied).
    Cas(u64),
    /// Previous word value returned by an FAA.
    Faa(u64),
    /// A free completed.
    Free,
}

impl VerbResult {
    /// Extracts read data, panicking on other variants.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Read`.
    pub fn into_read(self) -> Vec<u8> {
        match self {
            VerbResult::Read(v) => v,
            other => panic!("expected Read result, got {other:?}"),
        }
    }

    /// Extracts the previous value of a CAS, panicking on other variants.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Cas`.
    pub fn into_cas(self) -> u64 {
        match self {
            VerbResult::Cas(v) => v,
            other => panic!("expected Cas result, got {other:?}"),
        }
    }
}

/// A doorbell batch: multiple verbs posted to the NIC together.
///
/// All verbs destined for the same MN share **one network round trip**; a
/// batch spanning `k` MNs performs `k` round trips *in parallel* (the
/// client's clock advances by the slowest one). This is the mechanism
/// Sphinx uses both for parallel hash-entry reads and for piggybacking lock
/// acquisition onto node writes (§IV).
///
/// # Examples
///
/// ```
/// use dm_sim::{DmCluster, ClusterConfig, DoorbellBatch, Verb};
///
/// # fn main() -> Result<(), dm_sim::DmError> {
/// let cluster = DmCluster::new(ClusterConfig::default());
/// let mut client = cluster.client(0);
/// let a = client.alloc(0, 8)?;
/// let b = client.alloc(0, 8)?;
/// let mut batch = DoorbellBatch::new();
/// batch.push(Verb::Write { ptr: a, data: vec![1; 8] });
/// batch.push(Verb::Write { ptr: b, data: vec![2; 8] });
/// let before = client.stats().round_trips;
/// client.execute(batch)?;
/// assert_eq!(client.stats().round_trips - before, 1); // same MN: one RT
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DoorbellBatch {
    verbs: FirstInline<Verb>,
    /// Whether the READs complete as one result (see
    /// [`DoorbellBatch::packed_reads`]).
    packed: bool,
}

impl DoorbellBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        DoorbellBatch::default()
    }

    /// Creates an empty batch with capacity for `n` verbs (a batch of one
    /// verb allocates nothing).
    pub fn with_capacity(n: usize) -> Self {
        DoorbellBatch {
            verbs: FirstInline::with_capacity(n),
            packed: false,
        }
    }

    /// A batch of `(ptr, len)` reads that completes with **one**
    /// [`VerbResult::Read`] — the reads' bytes back to back, in verb order —
    /// in place of one buffer per read. Verbs, charges and fault hooks are
    /// those of the unpacked batch. (A verb of another kind pushed
    /// afterwards keeps its own result, ahead of the packed one.)
    pub fn packed_reads(reads: &[(RemotePtr, usize)]) -> Self {
        DoorbellBatch {
            verbs: reads
                .iter()
                .map(|&(ptr, len)| Verb::Read { ptr, len })
                .collect(),
            packed: true,
        }
    }

    /// Appends a verb to the batch.
    pub fn push(&mut self, verb: Verb) {
        self.verbs.push(verb);
    }

    /// Number of verbs queued.
    pub fn len(&self) -> usize {
        self.verbs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.verbs.is_empty()
    }

    /// The queued verbs, in submission order.
    pub fn verbs(&self) -> &[Verb] {
        &self.verbs
    }

    /// Number of distinct MNs this batch targets — its logical round-trip
    /// count, and the physical doorbell count when executed unfused.
    pub fn mn_groups(&self) -> usize {
        let mns = || self.verbs.iter().map(Verb::mn_id);
        let first_seen = |&(i, mn): &(usize, u16)| !mns().take(i).any(|m| m == mn);
        mns().enumerate().filter(first_seen).count()
    }

    /// Total wire bytes the batch moves (requests + responses).
    pub fn wire_bytes(&self) -> u64 {
        self.verbs.iter().map(Verb::wire_bytes).sum()
    }
}

impl Extend<Verb> for DoorbellBatch {
    fn extend<T: IntoIterator<Item = Verb>>(&mut self, iter: T) {
        iter.into_iter().for_each(|verb| self.verbs.push(verb));
    }
}

impl FromIterator<Verb> for DoorbellBatch {
    fn from_iter<T: IntoIterator<Item = Verb>>(iter: T) -> Self {
        DoorbellBatch {
            verbs: FirstInline::from_iter(iter),
            packed: false,
        }
    }
}

/// A 64-bit digest of `bytes`, taken before and after the fault hooks run
/// to learn whether they changed anything.
fn digest(bytes: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// A compute-side client: issues one-sided verbs against the cluster and
/// tracks its own virtual time and statistics. It is the one verb API every
/// index crate uses; every round trip flows through its
/// [`flush_submitted`](DmClient::flush_submitted), where the per-client
/// [`ClientStats`], the memory nodes' ledgers and the cluster's
/// [`FaultHook`] live.
///
/// Verbs follow the io_uring idiom: [`submit`](DmClient::submit) enqueues
/// a batch without touching the network and returns an [`SqeToken`];
/// [`flush_submitted`](DmClient::flush_submitted) rings the doorbell for
/// everything pending, fusing same-MN verbs from *different* submissions
/// into one physical message burst; [`poll`](DmClient::poll) /
/// [`wait`](DmClient::wait) reap per-token completions. The blocking
/// [`execute`](DmClient::execute) and every verb and batch combinator are
/// submit+wait shims over this queue, so straight-line callers and
/// pipelined ones (see `node-engine`'s op driver) share one charge path.
///
/// Not `Sync`: create one per worker thread (the intended usage, matching
/// per-coroutine contexts in the paper's systems).
#[derive(Debug)]
pub struct DmClient {
    inner: Arc<ClusterInner>,
    cn_id: u16,
    clock_ns: u64,
    stats: ClientStats,
    schedule: Option<ScheduleHandle>,
    /// The token the next submission gets.
    next_token: u64,
    /// Submitted batches not yet flushed, in submission order.
    sq: Vec<(SqeToken, DoorbellBatch)>,
    /// Completions posted and not yet reaped.
    cq: Vec<(SqeToken, Result<Completion, DmError>)>,
    scratch: FlushScratch,
    trace: TransportTrace,
}

/// One MN's share of the burst being charged.
#[derive(Debug, Clone, Copy, Default)]
struct MnTally {
    msgs: u64,
    bytes: u64,
    /// The last submission of the flush that addressed this MN (1-based).
    stamp: u32,
    /// When this MN's NIC finished serving its share (traced bursts).
    fin_ns: u64,
}

/// What a flush needs besides the buffers it returns, kept from one flush
/// to the next so that a round trip allocates nothing for its bookkeeping.
#[derive(Debug, Default)]
struct FlushScratch {
    /// The drained submission queue.
    pending: Vec<(SqeToken, DoorbellBatch)>,
    /// The burst's messages and bytes per MN, indexed by MN id.
    tally: Vec<MnTally>,
    /// Per submission of a burst: its logical round trips, or the unknown
    /// MN it addressed.
    groups: Vec<Result<u64, u16>>,
}

impl DmClient {
    pub(crate) fn new(inner: Arc<ClusterInner>, cn_id: u16) -> Self {
        let scratch = FlushScratch {
            tally: vec![MnTally::default(); inner.mns.len()],
            ..FlushScratch::default()
        };
        DmClient {
            inner,
            cn_id,
            clock_ns: 0,
            stats: ClientStats::default(),
            schedule: None,
            next_token: 0,
            sq: Vec::new(),
            cq: Vec::new(),
            scratch,
            trace: TransportTrace::default(),
        }
    }

    /// Attaches a deterministic-schedule participant handle: from now on
    /// every non-empty batch this client executes is one scheduler-granted
    /// step (see [`Schedule`](crate::Schedule)). Dropping the client
    /// deregisters the participant.
    pub fn attach_schedule(&mut self, handle: ScheduleHandle) {
        self.schedule = Some(handle);
    }

    /// Whether a schedule handle is attached.
    pub fn is_scheduled(&self) -> bool {
        self.schedule.is_some()
    }

    /// Consumes one scheduling step with no attached batch and returns its
    /// step number — a virtual timestamp totally ordered against every
    /// other participant's steps (history recorders stamp operation
    /// invoke/response events with it). Returns `None` when no schedule is
    /// attached.
    pub fn schedule_tick(&mut self) -> Option<u64> {
        self.schedule.as_ref().map(|h| h.tick())
    }

    /// The compute node this client runs on.
    pub fn cn_id(&self) -> u16 {
        self.cn_id
    }

    /// Current virtual time in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the virtual clock by `ns` (models CN-side compute).
    pub fn advance_clock(&mut self, ns: u64) {
        if ns > 0 && self.trace.enabled() {
            self.trace.push(TransportEvent::Advance {
                from_ns: self.clock_ns,
                to_ns: self.clock_ns + ns,
            });
        }
        self.clock_ns += ns;
    }

    /// Sets the virtual clock (e.g. to re-synchronize workers at a barrier).
    /// Any retained trace events are dropped — windows that straddle a
    /// clock reset are meaningless.
    pub fn set_clock_ns(&mut self, ns: u64) {
        self.clock_ns = ns;
        self.trace.clear();
    }

    /// Turns transport-event tracing on or off for this client (off until
    /// turned on).
    pub fn trace_set_enabled(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// The trace sequence number the next transport event will get. Take a
    /// mark before an op begins and pass it to
    /// [`trace_collect_since`](DmClient::trace_collect_since) at the end.
    pub fn trace_mark(&self) -> u64 {
        self.trace.next_seq()
    }

    /// Appends every retained transport event with sequence ≥ `mark` to
    /// `out`; returns `false` if part of the window was evicted by the
    /// ring's capacity.
    pub fn trace_collect_since(&self, mark: u64, out: &mut Vec<TransportEvent>) -> bool {
        self.trace.collect_since(mark, out)
    }

    /// Cumulative network statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Consistent-hash placement (same as [`DmCluster::place`](crate::DmCluster::place)).
    pub fn place(&self, hash: u64) -> u16 {
        self.inner.ring.place(hash)
    }

    /// Number of memory nodes in the cluster.
    pub fn num_mns(&self) -> u16 {
        self.inner.config.num_mns
    }

    /// Executes a doorbell batch, advancing the virtual clock by the
    /// slowest of the per-MN round trips. Results are returned in verb
    /// order.
    ///
    /// A submit+wait shim over the completion queue: anything already on
    /// the submission queue is flushed (and possibly fused) along with
    /// this batch.
    ///
    /// # Errors
    ///
    /// Returns the first addressing/alignment error encountered; memory
    /// effects of verbs preceding the failed one are retained (as on real
    /// hardware, where a QP flushes after a failed work request).
    pub fn execute(&mut self, batch: DoorbellBatch) -> Result<Completion, DmError> {
        if batch.is_empty() {
            return Ok(Completion::default());
        }
        let token = self.submit(batch);
        self.wait(token)
    }

    /// Enqueues a doorbell batch without blocking: the network is not
    /// touched (and the clock does not advance) until the next
    /// [`flush_submitted`](DmClient::flush_submitted) or a
    /// [`wait`](DmClient::wait) that triggers one.
    pub fn submit(&mut self, batch: DoorbellBatch) -> SqeToken {
        let token = SqeToken(self.next_token);
        self.next_token += 1;
        self.sq.push((token, batch));
        token
    }

    /// Reaps the completion for `token` if its batch has been flushed;
    /// `None` while the batch still sits on the submission queue.
    pub fn poll(&mut self, token: SqeToken) -> Option<Result<Completion, DmError>> {
        let idx = self.cq.iter().position(|(t, _)| *t == token)?;
        Some(self.cq.swap_remove(idx).1)
    }

    /// Blocks (in virtual time) until `token`'s completion is available:
    /// reaps it if posted, otherwise flushes the submission queue first.
    ///
    /// # Errors
    ///
    /// Returns the error the batch completed with.
    ///
    /// # Panics
    ///
    /// Panics if `token` was never submitted on this client or was
    /// already reaped.
    pub fn wait(&mut self, token: SqeToken) -> Result<Completion, DmError> {
        if let Some(done) = self.poll(token) {
            return done;
        }
        self.flush_submitted();
        self.poll(token)
            .expect("waited on an SqeToken that was never submitted (or already reaped)")
    }

    /// Rings the doorbell for every submitted batch and posts the
    /// completions, charging them all through one routine:
    ///
    /// * **Unscheduled**, the whole queue is one burst: same-MN verbs from
    ///   different batches share a single round trip (one per-message cost
    ///   each, summed per-byte costs, one RTT), and the clock advances once
    ///   by the slowest MN. Each batch still accounts its own logical
    ///   [`ClientStats::round_trips`]; only [`ClientStats::doorbells`]
    ///   records the smaller physical message-burst count.
    /// * **Scheduled** (a [`ScheduleHandle`] is attached), each non-empty
    ///   batch is its own burst and its own granted step — cost model and
    ///   memory effects — so every in-flight operation stays an
    ///   independently schedulable participant and no cross-op fusion
    ///   happens. An empty batch takes no grant.
    pub fn flush_submitted(&mut self) {
        // The drain buffer and the queue swap places, so neither is ever
        // reallocated; it is lent out of `self` while the batches run.
        let mut pending = std::mem::take(&mut self.scratch.pending);
        std::mem::swap(&mut self.sq, &mut pending);
        // `take` sidesteps the self-borrow; the handle is always restored.
        match self.schedule.take() {
            None => self.flush_burst(&mut pending, None),
            Some(handle) => {
                for one in pending.chunks_mut(1) {
                    let verbs = one[0].1.verbs();
                    let has_cas = verbs.iter().any(|v| matches!(v, Verb::Cas { .. }));
                    let grant = (!verbs.is_empty()).then(|| handle.gate_begin(has_cas));
                    self.flush_burst(one, grant.as_ref());
                    if grant.is_some() {
                        handle.gate_end();
                    }
                }
                self.schedule = Some(handle);
            }
        }
        pending.clear();
        self.scratch.pending = pending;
    }

    /// Adds submission `stamp`'s verbs to the burst's per-MN tally and
    /// returns how many distinct MNs they address (the submission's logical
    /// round trips) — or, touching nothing, the first MN among them that
    /// does not exist.
    fn tally(&mut self, verbs: &[Verb], stamp: u32) -> Result<u64, u16> {
        let tally = &mut self.scratch.tally;
        if let Some(unknown) = verbs.iter().find(|v| v.mn_id() as usize >= tally.len()) {
            return Err(unknown.mn_id());
        }
        let mut groups = 0;
        for verb in verbs {
            let mn = &mut tally[verb.mn_id() as usize];
            if mn.stamp != stamp {
                mn.stamp = stamp;
                groups += 1;
            }
            mn.msgs += 1;
            mn.bytes += verb.wire_bytes();
        }
        Ok(groups)
    }

    /// Charges the tallied burst at `now`: the CN NIC once for the whole
    /// of it, each addressed MN NIC for its share (per-message costs add,
    /// the round trip is shared). Returns the slowest completion and the
    /// number of doorbells rung.
    fn charge_burst(&mut self, now: u64) -> (u64, u64) {
        let tally = &mut self.scratch.tally;
        let total_msgs: u64 = tally.iter().map(|t| t.msgs).sum();
        let total_bytes: u64 = tally.iter().map(|t| t.bytes).sum();
        let cn_nic = &self.inner.cn_nics[self.cn_id as usize];
        let mut completion = cn_nic.submit(now, total_msgs, total_bytes);
        let mut doorbells = 0;
        for (mn, t) in self.inner.mns.iter().zip(tally).filter(|(_, t)| t.msgs > 0) {
            let charge = mn.nic().submit_charged(now, t.msgs, t.bytes);
            mn.accounting()
                .record_doorbell(charge.wait_ns, charge.service_ns);
            t.fin_ns = charge.fin_ns;
            completion = completion.max(charge.fin_ns);
            doorbells += 1;
        }
        (completion, doorbells)
    }

    /// Bumps the per-verb-kind counters for a verb sequence — on this
    /// client *and*, mirrored verb for verb, on the owning memory node's
    /// server-side accounting (a verb addressed to a nonexistent MN lands
    /// in the cluster's dropped counter instead). This single choke point
    /// is what makes `ClusterStats::check_conservation` exact: both sides
    /// of the ledger are written in the same breath.
    fn count_verbs(&mut self, verbs: &[Verb]) {
        for verb in verbs {
            match verb {
                Verb::Read { .. } => self.stats.reads += 1,
                Verb::Write { .. } => self.stats.writes += 1,
                Verb::Cas { .. } => self.stats.cas += 1,
                Verb::Faa { .. } => self.stats.faa += 1,
                Verb::Free { .. } => self.stats.frees += 1,
            }
            match self.inner.mns.get(verb.mn_id() as usize) {
                Some(mn) => mn.accounting().record_verb(verb),
                None => self.inner.note_dropped_verb(),
            }
        }
    }

    /// Charges `burst` — drained submissions that go out together — and
    /// posts each one's completion: one physical doorbell per distinct MN
    /// across the union of their verbs, one RTT, one clock advance, while
    /// each submission keeps its own logical round trips and its own result.
    /// Under a schedule the burst is one submission and `grant` its step: the
    /// grant's delay holds the burst at the NIC before the verbs go out, and
    /// its tear hook sees the READ completions.
    fn flush_burst(
        &mut self,
        burst: &mut [(SqeToken, DoorbellBatch)],
        grant: Option<&GrantedStep>,
    ) {
        let from_ns = self.clock_ns;
        let delay_ns = grant.map_or(0, |g| g.decision.delay_ns);
        // Resolve every target before charging any NIC: a submission
        // addressing an unknown MN is rejected whole (no charge, no effects),
        // so it cannot poison its neighbours' charge and no doorbell rings
        // without a matching client-side doorbell count (conservation).
        self.scratch.tally.fill(MnTally::default());
        let mut groups = std::mem::take(&mut self.scratch.groups);
        let mut total_verbs: u64 = 0;
        for (i, (_, batch)) in burst.iter().enumerate() {
            self.count_verbs(&batch.verbs);
            let submission = self.tally(&batch.verbs, i as u32 + 1);
            if submission.is_ok() {
                total_verbs += batch.verbs.len() as u64;
            }
            groups.push(submission);
        }

        // An empty or all-invalid burst charges nothing.
        if total_verbs > 0 {
            let (completion, doorbells) = self.charge_burst(from_ns + delay_ns);
            let rtt = self.inner.config.net.rtt_ns;
            let cpu = self.inner.config.net.client_op_ns * total_verbs;
            self.clock_ns = completion + rtt + cpu;
            self.stats.doorbells += doorbells;

            if self.trace.enabled() {
                let mut ev = BurstEvent::new(from_ns, self.clock_ns, delay_ns, cpu);
                ev.doorbells = doorbells as u32;
                ev.verbs = total_verbs as u32;
                ev.grant_step = grant.map(|g| g.step);
                for ((token, batch), submission) in burst.iter().zip(&groups) {
                    if submission.is_ok() {
                        ev.push_token(token.raw(), batch.verbs.len() as u32);
                    }
                }
                let served = self.scratch.tally.iter().enumerate();
                for (mn_id, t) in served.filter(|(_, t)| t.msgs > 0) {
                    ev.push_mn_fin(mn_id as u16, t.fin_ns);
                }
                self.trace.push(TransportEvent::Burst(ev));
            }
        }

        // Start every READ's misses before the first copy waits on one
        // (`MemoryNode::touch`: loads only, no effect on any result).
        for verb in burst.iter().flat_map(|(_, batch)| batch.verbs()) {
            if let Verb::Read { ptr, len } = verb {
                if let Some(mn) = self.inner.mns.get(ptr.mn_id() as usize) {
                    mn.touch(ptr.offset(), *len);
                }
            }
        }

        // Apply memory effects in submission order, verb order within a
        // batch; each submission completes with its own results or error.
        let fault_hook = self.inner.fault_hook.get();
        let tear_hook = grant.and_then(|g| g.tear_hook.clone());
        for ((token, batch), submission) in burst.iter_mut().zip(groups.drain(..)) {
            let result = match submission {
                Err(mn_id) => Err(DmError::UnknownMemoryNode { mn_id }),
                Ok(round_trips) => {
                    self.stats.round_trips += round_trips;
                    self.apply_effects(std::mem::take(batch), &fault_hook, &tear_hook)
                }
            };
            self.cq.push((*token, result));
        }
        self.scratch.groups = groups;
    }

    /// Applies a batch's memory effects in verb order and collects the
    /// results. READ completions pass through the cluster-wide fault hook
    /// and (on scheduled steps whose decision fired) the schedule's tear
    /// hook.
    fn apply_effects(
        &mut self,
        batch: DoorbellBatch,
        fault_hook: &Option<Arc<dyn FaultHook>>,
        tear_hook: &Option<Arc<dyn FaultHook>>,
    ) -> Result<Completion, DmError> {
        // A packed batch's READs share one buffer, handed over as the last
        // result; otherwise each READ returns its own.
        let (mut results, mut packed) = if batch.packed {
            let bytes = batch.wire_bytes() as usize;
            (Completion::default(), Some(Vec::with_capacity(bytes)))
        } else {
            (Completion::with_capacity(batch.verbs.len()), None)
        };
        for verb in batch.verbs {
            let mn =
                self.inner
                    .mns
                    .get(verb.mn_id() as usize)
                    .ok_or(DmError::UnknownMemoryNode {
                        mn_id: verb.mn_id(),
                    })?;
            let res = match verb {
                Verb::Read { ptr, len } => {
                    let mut own = vec![0u8; if packed.is_some() { 0 } else { len }];
                    let buf = match &mut packed {
                        Some(all) => {
                            let at = all.len();
                            all.resize(at + len, 0);
                            &mut all[at..]
                        }
                        None => &mut own[..],
                    };
                    mn.read_bytes(ptr.offset(), buf)?;
                    if fault_hook.is_some() || tear_hook.is_some() {
                        // Injection accounting: only hooks that actually
                        // altered the bytes count, judged by a digest so
                        // that counting costs no copy.
                        let pristine = digest(buf);
                        if let Some(hook) = fault_hook {
                            hook.corrupt_read(ptr, buf);
                        }
                        if let Some(hook) = tear_hook {
                            hook.corrupt_read(ptr, buf);
                        }
                        if digest(buf) != pristine {
                            self.inner.note_fault_injection();
                        }
                    }
                    self.stats.bytes_read += len as u64;
                    mn.accounting().record_read_effect(ptr.offset(), len as u64);
                    if packed.is_some() {
                        continue;
                    }
                    VerbResult::Read(own)
                }
                Verb::Write { ptr, data } => {
                    mn.write_bytes(ptr.offset(), &data)?;
                    self.stats.bytes_written += data.len() as u64;
                    mn.accounting()
                        .record_write_effect(ptr.offset(), data.len() as u64);
                    VerbResult::Write
                }
                Verb::Cas { ptr, expected, new } => {
                    let prev = mn.cas_u64(ptr.offset(), expected, new)?;
                    self.stats.bytes_written += 8;
                    mn.accounting().record_write_effect(ptr.offset(), 8);
                    VerbResult::Cas(prev)
                }
                Verb::Faa { ptr, delta } => {
                    let prev = mn.faa_u64(ptr.offset(), delta)?;
                    self.stats.bytes_written += 8;
                    mn.accounting().record_write_effect(ptr.offset(), 8);
                    VerbResult::Faa(prev)
                }
                Verb::Free { ptr } => {
                    mn.free_reclaimed(ptr)?;
                    // A free moves no accounted payload but still touches
                    // the heat sketch (reclamation pressure is load too).
                    mn.accounting().record_write_effect(ptr.offset(), 0);
                    VerbResult::Free
                }
            };
            results.push(res);
        }
        if let Some(all) = packed {
            results.push(VerbResult::Read(all));
        }
        Ok(results)
    }

    /// Submits a single verb through the submit+wait shim and returns its
    /// result — the one execution entry point behind every convenience
    /// method below.
    fn run_one(&mut self, verb: Verb) -> Result<VerbResult, DmError> {
        let token = self.submit(DoorbellBatch::from_iter([verb]));
        let mut res = self.wait(token)?;
        Ok(res.pop().expect("one verb, one result"))
    }

    /// Reads `len` bytes at `ptr` in one round trip.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn read(&mut self, ptr: RemotePtr, len: usize) -> Result<Vec<u8>, DmError> {
        Ok(self.run_one(Verb::Read { ptr, len })?.into_read())
    }

    /// Writes `data` at `ptr` in one round trip.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn write(&mut self, ptr: RemotePtr, data: &[u8]) -> Result<(), DmError> {
        self.run_one(Verb::Write {
            ptr,
            data: data.to_vec(),
        })?;
        Ok(())
    }

    /// Reads the 8-byte word at `ptr` (one round trip).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn read_u64(&mut self, ptr: RemotePtr) -> Result<u64, DmError> {
        let bytes = self.read(ptr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Writes the 8-byte word at `ptr` (one round trip).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidAddress`] for out-of-pool access.
    pub fn write_u64(&mut self, ptr: RemotePtr, value: u64) -> Result<(), DmError> {
        self.write(ptr, &value.to_le_bytes())
    }

    /// RDMA CAS on the word at `ptr`; returns the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn cas(&mut self, ptr: RemotePtr, expected: u64, new: u64) -> Result<u64, DmError> {
        Ok(self.run_one(Verb::Cas { ptr, expected, new })?.into_cas())
    }

    /// RDMA FAA on the word at `ptr`; returns the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::MisalignedAtomic`] or [`DmError::InvalidAddress`].
    pub fn faa(&mut self, ptr: RemotePtr, delta: u64) -> Result<u64, DmError> {
        match self.run_one(Verb::Faa { ptr, delta })? {
            VerbResult::Faa(v) => Ok(v),
            other => panic!("expected Faa result, got {other:?}"),
        }
    }

    /// Allocates `size` bytes on memory node `mn_id`.
    ///
    /// Allocation is charged no network time: real DM systems amortize it
    /// through per-CN memory leases/slabs (e.g. FaRM, Sherman), so it is off
    /// the critical path.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::OutOfMemory`] or [`DmError::UnknownMemoryNode`].
    pub fn alloc(&mut self, mn_id: u16, size: usize) -> Result<RemotePtr, DmError> {
        self.inner
            .mns
            .get(mn_id as usize)
            .ok_or(DmError::UnknownMemoryNode { mn_id })?
            .alloc(size)
    }

    /// Allocates on the MN chosen by consistent hashing of `hash`.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::OutOfMemory`].
    pub fn alloc_placed(&mut self, hash: u64, size: usize) -> Result<RemotePtr, DmError> {
        let mn = self.place(hash);
        self.alloc(mn, size)
    }

    /// Frees a previously allocated region.
    ///
    /// # Errors
    ///
    /// Returns [`DmError::InvalidFree`] or [`DmError::UnknownMemoryNode`].
    pub fn free(&mut self, ptr: RemotePtr) -> Result<(), DmError> {
        self.inner
            .mns
            .get(ptr.mn_id() as usize)
            .ok_or(DmError::UnknownMemoryNode { mn_id: ptr.mn_id() })?
            .free(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DmCluster};
    use crate::net::NetConfig;

    fn small_cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 2,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        })
    }

    #[test]
    fn single_read_write() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let p = cl.alloc(0, 64).unwrap();
        cl.write(p, b"sphinx").unwrap();
        assert_eq!(cl.read(p, 6).unwrap(), b"sphinx");
        assert_eq!(cl.stats().round_trips, 2);
        assert_eq!(cl.stats().verbs(), 2);
    }

    #[test]
    fn batch_to_one_mn_is_one_round_trip() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let b = cl.alloc(0, 8).unwrap();
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Write {
            ptr: a,
            data: vec![1; 8],
        });
        batch.push(Verb::Write {
            ptr: b,
            data: vec![2; 8],
        });
        batch.push(Verb::Read { ptr: a, len: 8 });
        cl.execute(batch).unwrap();
        assert_eq!(cl.stats().round_trips, 1);
        assert_eq!(cl.stats().verbs(), 3);
    }

    #[test]
    fn batch_to_two_mns_is_two_parallel_round_trips() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let b = cl.alloc(1, 8).unwrap();
        let t0 = cl.clock_ns();
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Read { ptr: a, len: 8 });
        batch.push(Verb::Read { ptr: b, len: 8 });
        cl.execute(batch).unwrap();
        let parallel_elapsed = cl.clock_ns() - t0;
        assert_eq!(cl.stats().round_trips, 2);

        // Sequential execution of the same two reads takes ~2x the time.
        let mut cl2 = c.client(0);
        cl2.read(a, 8).unwrap();
        cl2.read(b, 8).unwrap();
        let seq_elapsed = cl2.clock_ns();
        assert!(
            seq_elapsed > parallel_elapsed + NetConfig::default().rtt_ns / 2,
            "sequential {seq_elapsed} should exceed parallel {parallel_elapsed}"
        );
    }

    #[test]
    fn clock_advances_by_at_least_rtt() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let p = cl.alloc(0, 8).unwrap();
        let t0 = cl.clock_ns();
        cl.read(p, 8).unwrap();
        assert!(cl.clock_ns() >= t0 + NetConfig::default().rtt_ns);
    }

    #[test]
    fn cas_through_client() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let p = cl.alloc(0, 8).unwrap();
        cl.write_u64(p, 5).unwrap();
        assert_eq!(cl.cas(p, 5, 6).unwrap(), 5); // success
        assert_eq!(cl.cas(p, 5, 7).unwrap(), 6); // failure returns current
        assert_eq!(cl.read_u64(p).unwrap(), 6);
    }

    #[test]
    fn faa_through_client() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let p = cl.alloc(0, 8).unwrap();
        assert_eq!(cl.faa(p, 10).unwrap(), 0);
        assert_eq!(cl.read_u64(p).unwrap(), 10);
    }

    #[test]
    fn results_in_verb_order() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let p = cl.alloc(0, 16).unwrap();
        let q = p.checked_add(8).unwrap();
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Write {
            ptr: p,
            data: 1u64.to_le_bytes().to_vec(),
        });
        batch.push(Verb::Write {
            ptr: q,
            data: 2u64.to_le_bytes().to_vec(),
        });
        batch.push(Verb::Read { ptr: p, len: 8 });
        batch.push(Verb::Read { ptr: q, len: 8 });
        let res = cl.execute(batch).unwrap();
        assert_eq!(res[2], VerbResult::Read(1u64.to_le_bytes().to_vec()));
        assert_eq!(res[3], VerbResult::Read(2u64.to_le_bytes().to_vec()));
    }

    #[test]
    fn empty_batch_is_free() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let t0 = cl.clock_ns();
        let res = cl.execute(DoorbellBatch::new()).unwrap();
        assert!(res.is_empty());
        assert_eq!(cl.clock_ns(), t0);
        assert_eq!(cl.stats().round_trips, 0);
    }

    #[test]
    fn contention_inflates_latency() {
        // Two clients hammering the same MN should see higher per-op
        // latency than one client alone (NIC queueing). The per-message
        // service time is set high enough that two clients exceed the NIC's
        // capacity: solo rate = 1/(s+rtt) < capacity 1/s, duo rate = 2/(s+rtt) > 1/s.
        let config = ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            net: NetConfig {
                rtt_ns: 2000,
                msg_ns: 5000,
                byte_ns_x1000: 80,
                client_op_ns: 0,
            },
            ..Default::default()
        };
        let c = DmCluster::new(config);
        let p = c.mn(0).unwrap().alloc(8).unwrap();

        let mut solo = c.client(0);
        for _ in 0..100 {
            solo.read(p, 8).unwrap();
        }
        let solo_time = solo.clock_ns();

        c.reset_network();
        let mut a = c.client(0);
        let mut b = c.client(0);
        for _ in 0..100 {
            a.read(p, 8).unwrap();
            b.read(p, 8).unwrap();
        }
        assert!(
            a.clock_ns() > solo_time && b.clock_ns() > solo_time,
            "contended clients ({}, {}) should be slower than solo ({})",
            a.clock_ns(),
            b.clock_ns(),
            solo_time
        );
    }

    #[test]
    fn client_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DmClient>();
    }

    #[test]
    fn submit_is_free_until_flush() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let p = cl.alloc(0, 8).unwrap();
        cl.write_u64(p, 7).unwrap();
        let t0 = cl.clock_ns();
        let s0 = cl.stats();
        let tok = cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: p, len: 8 }]));
        assert_eq!(cl.clock_ns(), t0, "submit must not advance the clock");
        assert_eq!(cl.stats(), s0, "submit must not touch counters");
        assert!(cl.poll(tok).is_none(), "nothing flushed yet");
        let res = cl.wait(tok).unwrap();
        assert_eq!(res[0], VerbResult::Read(7u64.to_le_bytes().to_vec()));
        assert!(cl.clock_ns() > t0);
        assert!(cl.poll(tok).is_none(), "token reaped exactly once");
    }

    #[test]
    fn fused_flush_is_one_doorbell_two_logical_round_trips() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let b = cl.alloc(0, 8).unwrap();
        cl.write_u64(a, 1).unwrap();
        cl.write_u64(b, 2).unwrap();
        let s0 = cl.stats();
        let t0 = cl.clock_ns();
        let ta = cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: a, len: 8 }]));
        let tb = cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: b, len: 8 }]));
        cl.flush_submitted();
        let fused_elapsed = cl.clock_ns() - t0;
        assert_eq!(
            cl.poll(ta).unwrap().unwrap()[0],
            VerbResult::Read(1u64.to_le_bytes().to_vec())
        );
        assert_eq!(
            cl.poll(tb).unwrap().unwrap()[0],
            VerbResult::Read(2u64.to_le_bytes().to_vec())
        );
        let d = cl.stats().since(&s0);
        assert_eq!(d.round_trips, 2, "each op keeps its logical round trip");
        assert_eq!(d.doorbells, 1, "one fused physical doorbell");
        assert_eq!(d.reads, 2);
        // The fused flush shares one RTT: cheaper than two sequential reads.
        assert!(
            fused_elapsed < 2 * NetConfig::default().rtt_ns,
            "fused flush paid more than one RTT: {fused_elapsed}"
        );
    }

    #[test]
    fn fused_flush_across_two_mns_counts_two_doorbells() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let b = cl.alloc(1, 8).unwrap();
        let s0 = cl.stats();
        cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: a, len: 8 }]));
        cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: b, len: 8 }]));
        cl.flush_submitted();
        let d = cl.stats().since(&s0);
        assert_eq!(d.round_trips, 2);
        assert_eq!(d.doorbells, 2, "distinct MNs cannot share a doorbell");
    }

    #[test]
    fn single_batch_flush_matches_legacy_execute_exactly() {
        // Depth-1 pipelining must be byte-identical to the blocking path:
        // same clock, same stats, same NIC state evolution.
        let c = small_cluster();
        let p = c.mn(0).unwrap().alloc(16).unwrap();
        let mut legacy = c.client(0);
        legacy.write(p, &[9u8; 16]).unwrap();
        legacy.read(p, 16).unwrap();
        c.reset_network();
        let mut cq = c.client(0);
        let t1 = cq.submit(DoorbellBatch::from_iter([Verb::Write {
            ptr: p,
            data: vec![9u8; 16],
        }]));
        cq.wait(t1).unwrap();
        let t2 = cq.submit(DoorbellBatch::from_iter([Verb::Read { ptr: p, len: 16 }]));
        cq.wait(t2).unwrap();
        assert_eq!(cq.clock_ns(), legacy.clock_ns());
        assert_eq!(cq.stats(), legacy.stats());
        assert_eq!(cq.stats().doorbells, cq.stats().round_trips);
    }

    #[test]
    fn failed_batch_poisons_only_its_token() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        cl.write_u64(a, 5).unwrap();
        let dead = cl.alloc(0, 8).unwrap();
        cl.free(dead).unwrap();
        let ok = cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: a, len: 8 }]));
        let bad = cl.submit(DoorbellBatch::from_iter([Verb::Free { ptr: dead }]));
        cl.flush_submitted();
        assert_eq!(
            cl.wait(ok).unwrap()[0],
            VerbResult::Read(5u64.to_le_bytes().to_vec()),
            "a neighbour's failure must not poison this batch"
        );
        assert!(matches!(cl.wait(bad), Err(DmError::InvalidFree { .. })));
    }

    /// The READs of one burst are touched before any is copied; that pass
    /// neither panics on a READ outside the pool or to a nonexistent MN
    /// nor changes what any submission completes with.
    #[test]
    fn burst_reads_complete_with_their_bytes_or_their_own_error() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let cap = c.mn(0).unwrap().capacity() as u64;
        let near = cl.alloc(0, 64).unwrap();
        let far = cl.alloc(1, 2_072).unwrap();
        let near_bytes: Vec<u8> = (0..64).collect();
        let far_bytes: Vec<u8> = (0..2_072u32).map(|i| (i * 7) as u8).collect();
        cl.write(near, &near_bytes).unwrap();
        cl.write(far, &far_bytes).unwrap();
        let whole = cl.submit(DoorbellBatch::from_iter([
            Verb::Read { ptr: near, len: 64 },
            Verb::Read {
                ptr: far.checked_add(3).unwrap(),
                len: 2_000,
            },
        ]));
        let outside = cl.submit(DoorbellBatch::from_iter([Verb::Read {
            ptr: RemotePtr::new(0, cap - 16),
            len: 64,
        }]));
        let nowhere = cl.submit(DoorbellBatch::from_iter([Verb::Read {
            ptr: RemotePtr::new(9, 0),
            len: 128,
        }]));
        let after = cl.submit(DoorbellBatch::from_iter([Verb::Read {
            ptr: near.checked_add(5).unwrap(),
            len: 11,
        }]));
        cl.flush_submitted();
        let got = cl.wait(whole).unwrap();
        assert_eq!(got[0], VerbResult::Read(near_bytes.clone()));
        assert_eq!(got[1], VerbResult::Read(far_bytes[3..2_003].to_vec()));
        assert!(matches!(
            cl.wait(outside),
            Err(DmError::InvalidAddress { mn_id: 0, .. })
        ));
        assert!(matches!(
            cl.wait(nowhere),
            Err(DmError::UnknownMemoryNode { mn_id: 9 })
        ));
        assert_eq!(
            cl.wait(after).unwrap()[0],
            VerbResult::Read(near_bytes[5..16].to_vec())
        );
    }

    #[test]
    fn wait_on_last_token_completes_all_pending() {
        let c = small_cluster();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let b = cl.alloc(0, 8).unwrap();
        cl.write_u64(a, 1).unwrap();
        cl.write_u64(b, 2).unwrap();
        let ta = cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: a, len: 8 }]));
        let tb = cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: b, len: 8 }]));
        // Waiting on the later token flushes the whole queue; the earlier
        // completion is then poll-able without further network activity.
        cl.wait(tb).unwrap();
        assert!(cl.poll(ta).is_some());
    }
}
