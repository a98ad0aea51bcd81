//! Index bootstrap and client construction for the baselines.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use art_core::layout::{InnerNode, Slot};
use art_core::NodeKind;
use dm_sim::{ClientStats, DmClient, DmCluster, RemotePtr, RetryPolicy};

use crate::cache::NodeCache;
use crate::error::BaselineError;

/// Configuration selecting which baseline to run.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Allocate every inner node at Node-256 size (SMART's preallocation;
    /// avoids node relocation at 2.1–3.0× memory cost).
    pub prealloc256: bool,
    /// CN-side node-cache budget in bytes (0 disables caching — the plain
    /// ART baseline).
    pub cache_bytes: usize,
    /// Bytes fetched for a leaf in the first read.
    pub leaf_read_hint: usize,
    /// Whether scans doorbell-batch their node reads. SMART does; the
    /// plain ART port does not — the cause of its 2.3–3.1× YCSB-E gap in
    /// the paper's Fig. 4.
    pub batched_scan: bool,
    /// Epoch-based reclamation of unlinked nodes and leaves (shared with
    /// Sphinx via the `reclaim` crate, so memory comparisons measure the
    /// index designs, not who leaks more).
    pub reclaim: reclaim::ReclaimConfig,
}

impl BaselineConfig {
    /// The paper's "ART" baseline: no cache, adaptive node sizes, one
    /// round trip per tree level.
    pub fn art() -> Self {
        BaselineConfig {
            prealloc256: false,
            cache_bytes: 0,
            leaf_read_hint: 128,
            batched_scan: false,
            reclaim: reclaim::ReclaimConfig::default(),
        }
    }

    /// The paper's "SMART" baseline with the given CN-side cache budget
    /// (20 MB in Fig. 4; 200 MB for "SMART+C").
    pub fn smart(cache_bytes: usize) -> Self {
        BaselineConfig {
            prealloc256: true,
            cache_bytes,
            leaf_read_hint: 128,
            batched_scan: true,
            reclaim: reclaim::ReclaimConfig::default(),
        }
    }

    pub(crate) fn fresh_node_kind(&self) -> NodeKind {
        if self.prealloc256 {
            NodeKind::Node256
        } else {
            NodeKind::Node4
        }
    }
}

#[derive(Debug)]
pub(crate) struct BaselineMeta {
    pub(crate) root_word: RemotePtr,
    pub(crate) config: BaselineConfig,
    pub(crate) caches: Mutex<HashMap<u16, Arc<Mutex<NodeCache>>>>,
    /// The index-wide epoch-reclamation domain every worker registers
    /// with (the MN-resident epoch word and pin-slot array).
    pub(crate) reclaim_domain: reclaim::ReclaimDomain,
}

/// A baseline range index (plain ART on DM, or SMART) on a [`DmCluster`].
#[derive(Debug, Clone)]
pub struct BaselineIndex {
    cluster: DmCluster,
    meta: Arc<BaselineMeta>,
}

impl BaselineIndex {
    /// Builds the MN-side tree: an empty root node plus the root pointer
    /// word every client bootstraps from.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn create(cluster: &DmCluster, config: BaselineConfig) -> Result<Self, BaselineError> {
        let mut boot = cluster.client(0);
        let kind = config.fresh_node_kind();
        let root = InnerNode::new(kind, &[]);
        let root_ptr = boot.alloc(cluster.place(0), InnerNode::byte_size(kind))?;
        boot.write(root_ptr, &root.encode())?;
        let root_word = boot.alloc(0, 8)?;
        boot.write_u64(root_word, Slot::inner(0, kind, root_ptr).encode())?;
        let reclaim_domain = reclaim::ReclaimDomain::create(&mut boot, 0, config.reclaim)?;
        Ok(BaselineIndex {
            cluster: cluster.clone(),
            meta: Arc::new(BaselineMeta {
                root_word,
                config,
                caches: Mutex::new(HashMap::new()),
                reclaim_domain,
            }),
        })
    }

    /// Creates a worker client on compute node `cn_id`; workers of one CN
    /// share that CN's node cache (if the configuration has one).
    ///
    /// # Errors
    ///
    /// Currently infallible beyond substrate panics; returns `Result` for
    /// symmetry with the Sphinx API.
    ///
    /// # Panics
    ///
    /// Panics if `cn_id` is out of range for the cluster.
    pub fn client(&self, cn_id: u16) -> Result<BaselineClient, BaselineError> {
        let mut dm = self.cluster.client(cn_id);
        let cache = if self.meta.config.cache_bytes > 0 {
            let mut caches = self.meta.caches.lock();
            Some(
                caches
                    .entry(cn_id)
                    .or_insert_with(|| {
                        Arc::new(Mutex::new(NodeCache::new(self.meta.config.cache_bytes)))
                    })
                    .clone(),
            )
        } else {
            None
        };
        let reclaim = self.meta.reclaim_domain.register(&mut dm)?;
        Ok(BaselineClient {
            dm,
            meta: self.meta.clone(),
            cache,
            root_slot: None,
            stats: BaselineStats::default(),
            retry: RetryPolicy::default(),
            obs: obs::Recorder::new(),
            reclaim,
            pipeline: node_engine::PipelineStats::default(),
        })
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &DmCluster {
        &self.cluster
    }

    /// Total MN-side bytes the index occupies (all allocations on the
    /// cluster belong to it).
    pub fn memory_bytes(&self) -> u64 {
        self.cluster.total_live_bytes()
    }

    pub(crate) fn meta(&self) -> &BaselineMeta {
        &self.meta
    }
}

/// Operation counters for a baseline worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Point lookups served.
    pub gets: u64,
    /// Inserts served.
    pub inserts: u64,
    /// Updates served.
    pub updates: u64,
    /// Deletes served.
    pub deletes: u64,
    /// Scans served.
    pub scans: u64,
    /// Traversals restarted after seeing stale/invalid state.
    pub retries: u64,
    /// Leaf reads re-issued after a torn (checksum-failing) snapshot.
    pub checksum_retries: u64,
}

/// A per-worker baseline client (owns a virtual clock and its network
/// statistics, like [`sphinx`-clients](https://docs.rs/sphinx)).
#[derive(Debug)]
pub struct BaselineClient {
    pub(crate) dm: DmClient,
    pub(crate) meta: Arc<BaselineMeta>,
    pub(crate) cache: Option<Arc<Mutex<NodeCache>>>,
    pub(crate) root_slot: Option<Slot>,
    pub(crate) stats: BaselineStats,
    /// Shared bounded-retry budget (see [`dm_sim::RetryPolicy`]).
    pub(crate) retry: RetryPolicy,
    /// Per-worker telemetry recorder (spans + phase attribution).
    pub(crate) obs: obs::Recorder,
    /// This worker's epoch-reclamation handle (pin slot + limbo list).
    pub(crate) reclaim: reclaim::ReclaimHandle,
    /// Cumulative pipelined-execution counters (see
    /// [`BaselineClient::get_many_pipelined`]).
    pub(crate) pipeline: node_engine::PipelineStats,
}

impl BaselineClient {
    /// Operation counters.
    pub fn op_stats(&self) -> BaselineStats {
        self.stats
    }

    /// This worker's telemetry: phase-attributed spans plus the baseline
    /// domain counters (`baseline.*`, `cache.*`, `lock.*`).
    pub fn telemetry(&self) -> obs::Registry {
        let mut reg = self.obs.registry();
        reg.add("baseline.retries", self.stats.retries);
        reg.add("baseline.checksum_retries", self.stats.checksum_retries);
        let rs = self.reclaim.stats();
        reg.add("reclaim.retired_count", rs.retired_count);
        reg.add("reclaim.retired_bytes", rs.retired_bytes);
        reg.add("reclaim.freed_count", rs.freed_count);
        reg.add("reclaim.freed_bytes", rs.freed_bytes);
        reg.add("reclaim.limbo_depth", self.reclaim.limbo_len() as u64);
        reg.add("reclaim.limbo_bytes", self.reclaim.limbo_bytes());
        reg.add("reclaim.scans", rs.scans);
        reg.add("reclaim.epoch_advances", rs.epoch_advances);
        reg.add("reclaim.errors", rs.errors);
        reg.add("reclaim.epoch_lag_le_1", rs.lag_le_1);
        reg.add("reclaim.epoch_lag_le_2", rs.lag_le_2);
        reg.add("reclaim.epoch_lag_le_4", rs.lag_le_4);
        reg.add("reclaim.epoch_lag_gt_4", rs.lag_gt_4);
        self.pipeline.export(&mut reg);
        reg
    }

    /// Reclamation statistics of this worker's epoch handle.
    pub fn reclaim_stats(&self) -> reclaim::ReclaimStats {
        self.reclaim.stats()
    }

    /// Entries waiting in this worker's limbo list.
    pub fn reclaim_limbo_len(&self) -> usize {
        self.reclaim.limbo_len()
    }

    /// Forces one epoch scan (advance + free whatever is past grace).
    pub fn reclaim_scan(&mut self) {
        let BaselineClient { dm, reclaim, .. } = self;
        reclaim.scan(dm);
    }

    /// Scans until this worker's limbo list is empty or `max_rounds`
    /// scans have run; returns whether the list drained.
    pub fn reclaim_quiesce(&mut self, max_rounds: usize) -> bool {
        let BaselineClient { dm, reclaim, .. } = self;
        reclaim.quiesce(dm, max_rounds)
    }

    /// Removes this worker from epoch gating (call before dropping an
    /// idle client so it cannot stall everyone else's reclamation).
    pub fn reclaim_deregister(&mut self) {
        let BaselineClient { dm, reclaim, .. } = self;
        reclaim.deregister(dm);
    }

    #[inline]
    pub(crate) fn obs_begin(&mut self, kind: obs::OpKind) {
        self.reclaim.pin();
        self.obs.begin(kind, self.dm.stats(), self.dm.clock_ns());
    }

    #[inline]
    pub(crate) fn obs_phase(&mut self, phase: obs::Phase) {
        self.obs.phase(phase, self.dm.stats(), self.dm.clock_ns());
    }

    #[inline]
    pub(crate) fn obs_end(&mut self) {
        self.obs.end(self.dm.stats(), self.dm.clock_ns());
    }

    /// Operation epilogue: unpin from the epoch (running the amortized
    /// reclamation scan when due, attributed to the maintenance phase)
    /// and close the telemetry span.
    pub(crate) fn op_exit(&mut self) {
        if self.reclaim.scan_due() {
            self.obs_phase(obs::Phase::Maintenance);
        }
        {
            let BaselineClient { dm, reclaim, .. } = self;
            reclaim.unpin(dm);
        }
        self.obs_end();
    }

    /// Network-level statistics.
    pub fn net_stats(&self) -> ClientStats {
        self.dm.stats()
    }

    /// This worker's virtual clock in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.dm.clock_ns()
    }

    /// Resets the virtual clock (benchmark phase barrier).
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
}
