//! The per-worker client: telemetry and reclamation plumbing, point `get`,
//! and how the shared tree walks read this client's nodes (the lookup
//! itself is `pipeline.rs`).

use std::sync::Arc;

use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{ClientStats, DmClient, RemotePtr, RetryPolicy};
use node_engine::{read_inner_consistent, read_validated_leaf, EngineError, LeafReadStats};
use obs::{OpKind, Phase, Recorder};
use race_hash::RaceTable;

use crate::config::{CacheMode, SphinxConfig};
use crate::error::SphinxError;
use crate::stats::OpStats;

/// An install whose CAS landed while the target node was mid-type-switch
/// ([`node_engine::Install::Ambiguous`]): the installed word may or may
/// not survive in the type-switched copy, so the regions it references can
/// be neither used nor freed until a **deferred ownership re-probe** — a
/// fresh lookup at a later operation boundary — decides whether the tree
/// adopted the word.
#[derive(Debug)]
pub(crate) struct AmbiguousProbe {
    /// The key whose lookup path decides adoption.
    pub key: Vec<u8>,
    /// Failed resolution attempts so far (abandoned past a bound).
    pub attempts: u32,
    /// Which install produced the ambiguity.
    pub kind: node_engine::Pending,
}

/// Where a lookup ended — defined once, by the descent every ART system
/// hosts.
pub(crate) use node_engine::{Descent, Outcome};

/// A per-worker Sphinx client.
///
/// Owns a [`DmClient`] (and therefore a virtual clock and network
/// statistics) plus per-MN hash-table handles, and shares its compute
/// node's Succinct Filter Cache. Created via
/// [`SphinxIndex::client`](crate::SphinxIndex::client).
#[derive(Debug)]
pub struct SphinxClient {
    pub(crate) dm: DmClient,
    pub(crate) tables: Vec<RaceTable>,
    pub(crate) filter: Arc<sfc::FilterCache>,
    pub(crate) config: SphinxConfig,
    pub(crate) stats: OpStats,
    pub(crate) obs: Recorder,
    /// Epoch-based reclamation handle (limbo list + slot in the index's
    /// shared [`reclaim::ReclaimDomain`]).
    pub(crate) reclaim: reclaim::ReclaimHandle,
    /// Ambiguous installs awaiting their deferred ownership re-probe.
    pub(crate) ambiguous: Vec<AmbiguousProbe>,
    // The shared bounded-retry budget (see node_engine::RetryPolicy for
    // the rationale behind the defaults). Generous op_retries: retries
    // wait out concurrent structural changes (type switches, splits), and
    // on a host with fewer cores than workers a lock holder may need many
    // scheduling rounds while waiters spin through cheap yield-retries.
    pub(crate) retry: RetryPolicy,
    /// Cumulative pipelined-execution counters (see
    /// [`SphinxClient::get_many_pipelined`]).
    pub(crate) pipeline: node_engine::PipelineStats,
    /// Causal-trace sampler (see [`obs::Tracer`]).
    pub(crate) tracer: obs::Tracer,
    /// Trace context of the blocking op currently in flight.
    pub(crate) trace_cur: Option<Box<obs::OpTrace>>,
    /// Reusable buffer for transport-event windows (no per-op allocation).
    pub(crate) trace_scratch: Vec<dm_sim::trace::TransportEvent>,
    /// Transport-ring mark taken at the current op's begin.
    pub(crate) trace_mark: u64,
}

impl SphinxClient {
    pub(crate) fn new(
        dm: DmClient,
        tables: Vec<RaceTable>,
        filter: Arc<sfc::FilterCache>,
        config: SphinxConfig,
        reclaim: reclaim::ReclaimHandle,
    ) -> Self {
        let mut client = SphinxClient {
            dm,
            tables,
            filter,
            config,
            stats: OpStats::default(),
            obs: Recorder::new(),
            reclaim,
            ambiguous: Vec::new(),
            retry: RetryPolicy::default(),
            pipeline: node_engine::PipelineStats::default(),
            tracer: obs::Tracer::new(),
            trace_cur: None,
            trace_scratch: Vec::new(),
            trace_mark: 0,
        };
        client.dm.trace_set_enabled(client.tracer.is_active());
        client
    }

    /// Index-level statistics for this worker.
    pub fn op_stats(&self) -> OpStats {
        self.stats
    }

    /// Network-level statistics for this worker.
    pub fn net_stats(&self) -> ClientStats {
        self.dm.stats()
    }

    /// This worker's virtual clock, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.dm.clock_ns()
    }

    /// Resets the virtual clock (e.g. at a benchmark phase barrier).
    pub fn set_clock_ns(&mut self, ns: u64) {
        self.dm.set_clock_ns(ns);
    }

    /// Attaches a deterministic-schedule participant handle to this
    /// worker's transport (see [`dm_sim::Schedule`]).
    pub fn attach_schedule(&mut self, handle: dm_sim::ScheduleHandle) {
        self.dm.attach_schedule(handle);
    }

    /// Consumes one scheduling step and returns its number (a virtual
    /// timestamp); `None` when no schedule is attached.
    pub fn schedule_tick(&mut self) -> Option<u64> {
        self.dm.schedule_tick()
    }

    /// The shared per-CN Succinct Filter Cache.
    pub fn filter_handle(&self) -> &Arc<sfc::FilterCache> {
        &self.filter
    }

    /// Cheap SFC gauges for time-series samplers:
    /// `[lookups, hits, frozen_len, delta_len]`. Reads the shared filter's
    /// atomic counters — no verbs, no allocation — so a harness can poll
    /// it at op boundaries without perturbing the run.
    pub fn sfc_gauges(&self) -> [u64; 4] {
        let s = self.filter.stats();
        [s.lookups, s.hits, s.frozen_len, s.delta_len]
    }

    /// A snapshot of this worker's telemetry: per-op phase attribution,
    /// latency histograms, and the Sphinx/INHT domain counters folded in
    /// as named counters.
    ///
    /// The per-CN filter (SFC) statistics are shared across workers and
    /// deliberately *not* included — collect them once per compute node via
    /// [`SphinxIndex::sfc_telemetry`](crate::SphinxIndex::sfc_telemetry) to
    /// avoid double counting.
    pub fn telemetry(&self) -> obs::Registry {
        let mut reg = self.obs.registry();
        let s = &self.stats;
        reg.add("sphinx.fp_retries", s.false_positive_retries);
        reg.add("sphinx.invalid_node_retries", s.invalid_node_retries);
        reg.add("sphinx.checksum_retries", s.checksum_retries);
        reg.add("sphinx.extended_leaf_reads", s.extended_leaf_reads);
        reg.add("sphinx.filter_first_hits", s.filter_first_hits);
        reg.add("sphinx.entry_misses", s.entry_misses);
        reg.add("sphinx.filter_refreshes", s.filter_refreshes);
        let r = self.reclaim.stats();
        reg.add("reclaim.retired_count", r.retired_count);
        reg.add("reclaim.retired_bytes", r.retired_bytes);
        reg.add("reclaim.freed_count", r.freed_count);
        reg.add("reclaim.freed_bytes", r.freed_bytes);
        reg.add("reclaim.limbo_depth", self.reclaim.limbo_len() as u64);
        reg.add("reclaim.limbo_bytes", self.reclaim.limbo_bytes());
        reg.add("reclaim.scans", r.scans);
        reg.add("reclaim.epoch_advances", r.epoch_advances);
        reg.add("reclaim.errors", r.errors);
        reg.add("reclaim.epoch_lag_le_1", r.lag_le_1);
        reg.add("reclaim.epoch_lag_le_2", r.lag_le_2);
        reg.add("reclaim.epoch_lag_le_4", r.lag_le_4);
        reg.add("reclaim.epoch_lag_gt_4", r.lag_gt_4);
        for t in &self.tables {
            let c = t.counters();
            reg.add("inht.searches", c.searches);
            reg.add("inht.stale_retries", c.stale_retries);
            reg.add("inht.cas_races", c.cas_races);
            reg.add("inht.splits", c.splits);
            reg.add("inht.refreshes", c.refreshes);
            reg.add("inht.split_migrated", c.split_migrated);
            reg.add("inht.split_extra_rounds", c.split_extra_rounds);
        }
        self.pipeline.export(&mut reg);
        reg
    }

    // ------------------------------------------------------------------
    // Causal tracing (see `obs::trace`).
    // ------------------------------------------------------------------

    /// Configures causal-trace sampling for this worker: keep full traces
    /// for the `tail_k` slowest / most-retried ops plus every
    /// `head_every`-th op (0 = head sample off). `(0, 0)` disables tracing
    /// entirely — no lease, no transport-event recording.
    pub fn set_trace_sampling(&mut self, head_every: u64, tail_k: usize) {
        self.tracer.configure(head_every, tail_k);
        self.dm.trace_set_enabled(self.tracer.is_active());
    }

    /// Sets the worker id stamped into the high half of this worker's
    /// trace ids (see [`obs::trace::TraceId`]).
    pub fn set_trace_worker(&mut self, worker: u32) {
        self.tracer.set_worker(worker);
    }

    /// Drains the traces retained by this worker's sampler (sorted by
    /// id).
    pub fn take_traces(&mut self) -> Vec<obs::OpTrace> {
        self.tracer.take_traces()
    }

    // ------------------------------------------------------------------
    // Reclamation plumbing.
    // ------------------------------------------------------------------

    /// This worker's reclamation counters.
    pub fn reclaim_stats(&self) -> reclaim::ReclaimStats {
        self.reclaim.stats()
    }

    /// Entries waiting out their grace period on this worker.
    pub fn reclaim_limbo_len(&self) -> usize {
        self.reclaim.limbo_len()
    }

    /// Runs one reclamation scan (slot refresh + epoch advance + grace
    /// check), off the operation path.
    pub fn reclaim_scan(&mut self) {
        let SphinxClient { dm, reclaim, .. } = self;
        reclaim.scan(dm);
    }

    /// Scans until this worker's limbo list drains or `max_rounds` scans
    /// elapse; returns whether it drained. With other registered workers
    /// their slots must advance too — quiesce all workers round-robin.
    pub fn reclaim_quiesce(&mut self, max_rounds: usize) -> bool {
        let SphinxClient { dm, reclaim, .. } = self;
        reclaim.quiesce(dm, max_rounds)
    }

    /// Withdraws this worker from the reclamation domain so its (now
    /// permanently stale) epoch pin stops gating other workers' frees.
    pub fn reclaim_deregister(&mut self) {
        let SphinxClient { dm, reclaim, .. } = self;
        reclaim.deregister(dm);
    }

    /// The operation-exit maintenance step: resolve pending ambiguous
    /// probes, run the amortized reclamation scan when due, fold the
    /// filter cache's pending delta into a fresh frozen generation when
    /// its rebuild threshold is armed (all attributed to
    /// [`Phase::Maintenance`]), and close the telemetry span.
    pub(crate) fn op_exit(&mut self) {
        if !self.ambiguous.is_empty() {
            self.obs_phase(Phase::Maintenance);
            self.probe_ambiguous();
        }
        if self.reclaim.scan_due() {
            self.obs_phase(Phase::Maintenance);
        }
        if self.config.mode == CacheMode::FilterCache && self.filter.rebuild_due() {
            // Generation rebuild rides the same amortized maintenance
            // slot as the reclamation scan: CN-local CPU off the lookup
            // critical path, never a remote round trip.
            self.obs_phase(Phase::Maintenance);
            self.filter.maintain();
        }
        {
            let SphinxClient { dm, reclaim, .. } = self;
            reclaim.unpin(dm);
        }
        self.obs_end();
    }

    // ------------------------------------------------------------------
    // Telemetry plumbing. The recorder never touches the clock or the
    // transport counters — it only snapshots them at phase boundaries.
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn obs_begin(&mut self, kind: OpKind) {
        self.reclaim.pin();
        let now = self.dm.clock_ns();
        self.obs.begin(kind, self.dm.stats(), now);
        if let Some(mut t) = self.tracer.lease(kind, now) {
            t.pin(now);
            self.trace_mark = self.dm.trace_mark();
            self.trace_cur = Some(t);
        }
    }

    #[inline]
    pub(crate) fn obs_phase(&mut self, phase: Phase) {
        self.obs.phase(phase, self.dm.stats(), self.dm.clock_ns());
        if let Some(t) = self.trace_cur.as_mut() {
            t.phase(phase, self.dm.clock_ns());
        }
    }

    /// Marks one failed attempt on both the metrics span and the causal
    /// trace.
    #[inline]
    pub(crate) fn obs_retry(&mut self) {
        self.obs.retry();
        if let Some(t) = self.trace_cur.as_mut() {
            t.retry(self.dm.clock_ns());
        }
    }

    #[inline]
    pub(crate) fn obs_end(&mut self) {
        let now = self.dm.clock_ns();
        if let Some(mut t) = self.trace_cur.take() {
            t.unpin(now);
            self.trace_scratch.clear();
            t.complete = self
                .dm
                .trace_collect_since(self.trace_mark, &mut self.trace_scratch);
            self.tracer.finish(t, now, &self.trace_scratch);
        }
        self.obs.end(self.dm.stats(), now);
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Returns [`SphinxError::KeyTooLong`] for oversized keys and
    /// substrate errors otherwise.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, SphinxError> {
        self.stats.gets += 1;
        self.obs_begin(OpKind::Get);
        let r = self.locate(key);
        self.op_exit();
        Ok(r?.into_value(key))
    }

    /// Whether `key` is present.
    ///
    /// # Errors
    ///
    /// Same as [`SphinxClient::get`].
    pub fn contains_key(&mut self, key: &[u8]) -> Result<bool, SphinxError> {
        Ok(self.get(key)?.is_some())
    }
}

/// How the walks of [`node_engine::walk`] read this client's tree.
impl node_engine::ArtReader for SphinxClient {
    fn transport(&mut self) -> &mut DmClient {
        &mut self.dm
    }

    fn leaf_hint(&self) -> usize {
        self.config.leaf_read_hint
    }

    fn read_inner(&mut self, ptr: RemotePtr, kind: NodeKind) -> Result<InnerNode, EngineError> {
        read_inner_consistent(&mut self.dm, ptr, kind)
    }

    /// Attributes the round trips to [`Phase::LeafRead`] (restoring the
    /// caller's phase afterwards) and folds the engine's I/O counters into
    /// [`OpStats`].
    fn read_leaf(&mut self, ptr: RemotePtr) -> Result<LeafNode, EngineError> {
        let prev = self.obs.current_phase();
        self.obs_phase(Phase::LeafRead);
        let mut io = LeafReadStats::default();
        let hint = self.config.leaf_read_hint;
        let res = read_validated_leaf(&mut self.dm, ptr, hint, &self.retry, &mut io);
        self.note_leaf_io(io);
        if let Some(p) = prev {
            self.obs_phase(p);
        }
        res
    }

    fn note_leaf_io(&mut self, io: LeafReadStats) {
        self.stats.checksum_retries += io.checksum_retries;
        self.stats.extended_leaf_reads += io.extended_reads;
    }

    /// A node observed mid type-switch during a scan: back off and follow
    /// the slot again, up to eight times, each attempt a counted retry
    /// attributed to [`Phase::Retry`] (restoring the caller's phase
    /// afterwards). Gives up quietly — the replacement node is reachable
    /// through its parent on the next scan.
    fn reread_inner(&mut self, slot: &Slot) -> Result<Option<InnerNode>, EngineError> {
        let prev = self.obs.current_phase();
        self.obs_phase(Phase::Retry);
        let settled = 'attempts: {
            for _ in 0..8 {
                self.obs_retry();
                self.dm.backoff(&self.retry);
                match read_inner_consistent(&mut self.dm, slot.addr, slot.child_kind) {
                    Ok(node)
                        if node.header.status == NodeStatus::Idle
                            && node.header.kind == slot.child_kind =>
                    {
                        break 'attempts Ok(Some(node));
                    }
                    Ok(_) | Err(EngineError::Layout(_)) => {}
                    Err(e) => break 'attempts Err(e),
                }
            }
            Ok(None)
        };
        if let Some(p) = prev {
            self.obs_phase(p);
        }
        settled
    }
}
