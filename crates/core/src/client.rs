//! The per-worker client: what it adds to its [`Worker`], point `get`, and
//! how the shared tree walks read its nodes (the lookup is `pipeline.rs`).

use std::sync::Arc;

use dm_sim::ClientStats;
use node_engine::{LeafReadStats, Worker};
use obs::{OpKind, Phase};
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

/// A per-worker Sphinx client: a [`Worker`] (a virtual clock, network
/// statistics, span recorder, tracer and reclamation handle) plus per-MN
/// hash-table handles, sharing its compute node's Succinct Filter Cache.
/// Created via [`SphinxIndex::client`](crate::SphinxIndex::client).
#[derive(Debug)]
pub struct SphinxClient {
    pub(crate) worker: Worker,
    pub(crate) tables: Vec<RaceTable>,
    pub(crate) filter: Arc<sfc::FilterCache>,
    pub(crate) config: SphinxConfig,
    pub(crate) stats: OpStats,
    /// Ambiguous installs awaiting their deferred ownership re-probe.
    pub(crate) ambiguous: Vec<AmbiguousProbe>,
}

impl SphinxClient {
    /// Index-level statistics for this worker.
    pub fn op_stats(&self) -> OpStats {
        self.stats
    }

    /// Network-level statistics for this worker.
    pub fn net_stats(&self) -> ClientStats {
        self.worker.dm.stats()
    }

    /// This worker's virtual clock, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.worker.dm.clock_ns()
    }

    /// Resets the virtual clock (e.g. at a benchmark phase barrier).
    pub fn set_clock_ns(&mut self, ns: u64) {
        self.worker.dm.set_clock_ns(ns);
    }

    /// Attaches a deterministic-schedule participant handle to this
    /// worker's transport (see [`dm_sim::Schedule`]).
    pub fn attach_schedule(&mut self, handle: dm_sim::ScheduleHandle) {
        self.worker.dm.attach_schedule(handle);
    }

    /// Consumes one scheduling step and returns its number (a virtual
    /// timestamp); `None` when no schedule is attached.
    pub fn schedule_tick(&mut self) -> Option<u64> {
        self.worker.dm.schedule_tick()
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
        let mut reg = self.worker.registry();
        let s = &self.stats;
        reg.add("sphinx.fp_retries", s.false_positive_retries);
        reg.add("sphinx.invalid_node_retries", s.invalid_node_retries);
        reg.add("sphinx.checksum_retries", s.checksum_retries);
        reg.add("sphinx.extended_leaf_reads", s.extended_leaf_reads);
        reg.add("sphinx.filter_first_hits", s.filter_first_hits);
        reg.add("sphinx.entry_misses", s.entry_misses);
        reg.add("sphinx.filter_refreshes", s.filter_refreshes);
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
        reg
    }

    /// Configures causal-trace sampling ([`Worker::set_trace_sampling`]).
    pub fn set_trace_sampling(&mut self, head_every: u64, tail_k: usize) {
        self.worker.set_trace_sampling(head_every, tail_k);
    }

    /// Sets the worker id stamped into this worker's trace ids.
    pub fn set_trace_worker(&mut self, worker: u32) {
        self.worker.set_trace_worker(worker);
    }

    /// Drains this worker's retained traces (sorted by id).
    pub fn take_traces(&mut self) -> Vec<obs::OpTrace> {
        self.worker.take_traces()
    }

    /// Entries waiting out their grace period on this worker.
    pub fn reclaim_limbo_len(&self) -> usize {
        self.worker.reclaim.limbo_len()
    }

    /// Runs one reclamation scan, off the operation path.
    pub fn reclaim_scan(&mut self) {
        let w = &mut self.worker;
        w.reclaim.scan(&mut w.dm);
    }

    /// Withdraws this worker from the reclamation domain.
    pub fn reclaim_deregister(&mut self) {
        let w = &mut self.worker;
        w.reclaim.deregister(&mut w.dm);
    }

    /// The operation exit: resolve pending ambiguous probes, then the
    /// worker's tail, which folds the filter cache's pending delta into a
    /// fresh frozen generation when its rebuild is due (all attributed to
    /// [`Phase::Maintenance`]).
    pub(crate) fn op_exit(&mut self) {
        if !self.ambiguous.is_empty() {
            self.worker.phase(Phase::Maintenance);
            self.probe_ambiguous();
        }
        let SphinxClient {
            worker,
            filter,
            config,
            ..
        } = self;
        worker.exit(|w| {
            if config.mode == CacheMode::FilterCache && filter.rebuild_due() {
                // Generation rebuild rides the same amortized maintenance
                // slot as the reclamation scan: CN-local CPU off the
                // lookup critical path, never a remote round trip.
                w.phase(Phase::Maintenance);
                filter.maintain();
            }
        });
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Returns [`SphinxError::KeyTooLong`] for oversized keys and
    /// substrate errors otherwise.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, SphinxError> {
        self.stats.gets += 1;
        self.worker.begin(OpKind::Get);
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
    fn worker(&mut self) -> &mut Worker {
        &mut self.worker
    }

    /// Folds the engine's I/O counters into [`OpStats`].
    fn note_leaf_io(&mut self, io: LeafReadStats) {
        self.stats.checksum_retries += io.checksum_retries;
        self.stats.extended_leaf_reads += io.extended_reads;
    }
}
