//! Cluster assembly: memory nodes, compute-node NICs, placement ring.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::client::DmClient;
use crate::error::DmError;
use crate::heap::MemoryNode;
use crate::mn_stats::{ClusterStats, MnStats};
use crate::net::{NetConfig, Nic};
use crate::ring::HashRing;
use crate::transport::FaultHook;

/// Topology and cost parameters for a simulated DM cluster.
///
/// The defaults mirror the paper's testbed: 3 machines, each hosting one CN
/// and one MN, interconnected at 100 Gbps with ~2 µs RTT.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of memory nodes.
    pub num_mns: u16,
    /// Number of compute nodes (each has its own NIC shared by its workers).
    pub num_cns: u16,
    /// Byte capacity of each memory node's pool.
    pub mn_capacity: usize,
    /// Network cost model.
    pub net: NetConfig,
    /// Virtual nodes per MN on the consistent-hashing ring.
    pub vnodes: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_mns: 3,
            num_cns: 3,
            mn_capacity: 256 << 20, // 256 MiB per MN
            net: NetConfig::default(),
            vnodes: 64,
        }
    }
}

/// Cluster-wide [`FaultHook`] slot: installed once, observed by every
/// client at the READ choke point in `DmClient::flush_submitted`.
#[derive(Default)]
pub(crate) struct FaultSlot(Mutex<Option<Arc<dyn FaultHook>>>);

impl FaultSlot {
    pub(crate) fn get(&self) -> Option<Arc<dyn FaultHook>> {
        self.0.lock().clone()
    }

    fn set(&self, hook: Option<Arc<dyn FaultHook>>) {
        *self.0.lock() = hook;
    }
}

impl fmt::Debug for FaultSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.lock().is_some() {
            "installed"
        } else {
            "empty"
        };
        write!(f, "FaultSlot({state})")
    }
}

#[derive(Debug)]
pub(crate) struct ClusterInner {
    pub(crate) mns: Vec<MemoryNode>,
    pub(crate) cn_nics: Vec<Nic>,
    pub(crate) ring: HashRing,
    pub(crate) config: ClusterConfig,
    pub(crate) fault_hook: FaultSlot,
    pub(crate) fault_injections: AtomicU64,
    pub(crate) dropped_verbs: AtomicU64,
}

impl ClusterInner {
    /// Records one READ whose bytes were actually altered by the installed
    /// [`FaultHook`] (called from the `DmClient::flush_submitted` choke point).
    pub(crate) fn note_fault_injection(&self) {
        self.fault_injections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one verb addressed to a nonexistent MN: no node can absorb
    /// it, so it lands in the cluster-wide dropped counter and the
    /// conservation identity stays balanced.
    pub(crate) fn note_dropped_verb(&self) {
        self.dropped_verbs.fetch_add(1, Ordering::Relaxed);
    }
}

/// A simulated disaggregated-memory cluster.
///
/// Cheap to clone (it is an `Arc` handle); clone it into worker threads and
/// create one [`DmClient`] per worker.
///
/// # Examples
///
/// ```
/// use dm_sim::{DmCluster, ClusterConfig};
///
/// let cluster = DmCluster::new(ClusterConfig { num_mns: 2, ..Default::default() });
/// assert_eq!(cluster.num_mns(), 2);
/// let mn = cluster.place(42);
/// assert!(mn < 2);
/// ```
#[derive(Debug, Clone)]
pub struct DmCluster {
    inner: Arc<ClusterInner>,
}

impl DmCluster {
    /// Builds a cluster from the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_mns` or `num_cns` is zero.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.num_mns > 0, "cluster needs at least one memory node");
        assert!(
            config.num_cns > 0,
            "cluster needs at least one compute node"
        );
        let mns = (0..config.num_mns)
            .map(|id| MemoryNode::new(id, config.mn_capacity, &config.net))
            .collect();
        let cn_nics = (0..config.num_cns)
            .map(|_| Nic::new(config.net.clone()))
            .collect();
        let ring = HashRing::new(config.num_mns, config.vnodes);
        DmCluster {
            inner: Arc::new(ClusterInner {
                mns,
                cn_nics,
                ring,
                config,
                fault_hook: FaultSlot::default(),
                fault_injections: AtomicU64::new(0),
                dropped_verbs: AtomicU64::new(0),
            }),
        }
    }

    /// Creates a client attached to compute node `cn_id`'s NIC.
    ///
    /// # Panics
    ///
    /// Panics if `cn_id` is out of range.
    pub fn client(&self, cn_id: u16) -> DmClient {
        assert!(
            (cn_id as usize) < self.inner.cn_nics.len(),
            "cn_id {cn_id} out of range (cluster has {} CNs)",
            self.inner.cn_nics.len()
        );
        DmClient::new(self.inner.clone(), cn_id)
    }

    /// Number of memory nodes.
    pub fn num_mns(&self) -> u16 {
        self.inner.config.num_mns
    }

    /// Number of compute nodes.
    pub fn num_cns(&self) -> u16 {
        self.inner.config.num_cns
    }

    /// Consistent-hash placement: which MN owns an object with this hash.
    pub fn place(&self, hash: u64) -> u16 {
        self.inner.ring.place(hash)
    }

    /// Direct access to a memory node (for server-side setup and
    /// memory-usage accounting, not for data-path access).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::UnknownMemoryNode`] for an out-of-range id.
    pub fn mn(&self, mn_id: u16) -> Result<&MemoryNode, DmError> {
        self.inner
            .mns
            .get(mn_id as usize)
            .ok_or(DmError::UnknownMemoryNode { mn_id })
    }

    /// Total live bytes across all MN pools (Fig. 6 accounting).
    pub fn total_live_bytes(&self) -> u64 {
        self.inner
            .mns
            .iter()
            .map(|m| m.alloc_stats().live_bytes)
            .sum()
    }

    /// Snapshot of the whole cluster's server-side load accounting: one
    /// [`MnStats`] per node plus the dropped-verb counter. Monotone for
    /// the cluster's lifetime (deliberately *not* cleared by
    /// [`DmCluster::reset_network`]); window with [`ClusterStats::since`]
    /// and verify against the summed client view with
    /// [`ClusterStats::check_conservation`].
    pub fn cluster_stats(&self) -> ClusterStats {
        ClusterStats {
            mns: self.inner.mns.iter().map(MemoryNode::mn_stats).collect(),
            dropped_verbs: self.inner.dropped_verbs.load(Ordering::Relaxed),
        }
    }

    /// One node's server-side accounting snapshot, allocation-free (for
    /// time-series samplers on the hot path).
    ///
    /// # Errors
    ///
    /// Returns [`DmError::UnknownMemoryNode`] for an out-of-range id.
    pub fn mn_stats(&self, mn_id: u16) -> Result<MnStats, DmError> {
        self.mn(mn_id).map(MemoryNode::mn_stats)
    }

    /// Resets every NIC's queue state and counters (between benchmark
    /// phases, so the load phase does not pollute run-phase clocks).
    pub fn reset_network(&self) {
        for mn in &self.inner.mns {
            mn.nic().reset();
        }
        for nic in &self.inner.cn_nics {
            nic.reset();
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Installs (or, with `None`, removes) the cluster-wide fault-injection
    /// hook. Every subsequent READ issued by any client — existing or newly
    /// created — passes its result bytes through the hook at the
    /// [`DmClient::flush_submitted`](crate::DmClient::flush_submitted)
    /// choke point. Remote memory is never altered, so injected faults are
    /// transient.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        self.inner.fault_hook.set(hook);
    }

    /// Number of READs whose result bytes were actually corrupted by the
    /// installed [`FaultHook`] since the cluster was created. Hook
    /// invocations that leave the buffer unchanged are not counted, so a
    /// test can assert "N corruptions injected, N recoveries observed".
    pub fn fault_injections(&self) -> u64 {
        self.inner.fault_injections.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_shape() {
        let c = DmCluster::new(ClusterConfig::default());
        assert_eq!(c.num_mns(), 3);
        assert_eq!(c.num_cns(), 3);
        assert!(c.mn(0).is_ok());
        assert!(c.mn(9).is_err());
    }

    #[test]
    fn placement_covers_all_mns() {
        let c = DmCluster::new(ClusterConfig {
            num_mns: 4,
            ..Default::default()
        });
        let mut seen = [false; 4];
        for i in 0..1000u64 {
            seen[c.place(i) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn client_for_unknown_cn_panics() {
        let c = DmCluster::new(ClusterConfig::default());
        let _ = c.client(99);
    }

    #[test]
    fn fault_injections_count_only_actual_corruptions() {
        use crate::addr::RemotePtr;

        struct FlipEveryOther(AtomicU64);
        impl FaultHook for FlipEveryOther {
            fn corrupt_read(&self, _ptr: RemotePtr, data: &mut [u8]) {
                if self.0.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                    if let Some(b) = data.first_mut() {
                        *b ^= 0xFF;
                    }
                }
            }
        }

        let c = DmCluster::new(ClusterConfig::default());
        let mut cl = c.client(0);
        let p = cl.alloc(0, 8).unwrap();
        cl.write(p, &[7u8; 8]).unwrap();
        assert_eq!(c.fault_injections(), 0);
        c.set_fault_hook(Some(Arc::new(FlipEveryOther(AtomicU64::new(0)))));
        for _ in 0..10 {
            let _ = cl.read(p, 8).unwrap();
        }
        // The hook ran 10 times but only altered bytes on 5 of them.
        assert_eq!(c.fault_injections(), 5);
        c.set_fault_hook(None);
        let _ = cl.read(p, 8).unwrap();
        assert_eq!(c.fault_injections(), 5);
    }

    #[test]
    fn mn_accounting_conserves_simple_ops() {
        use crate::client::{DoorbellBatch, Verb};

        let c = DmCluster::new(ClusterConfig {
            num_mns: 2,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let base = c.cluster_stats();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 64).unwrap();
        let b = cl.alloc(1, 64).unwrap();
        cl.write(a, &[7u8; 32]).unwrap();
        cl.write_u64(b, 5).unwrap();
        cl.cas(b, 5, 6).unwrap();
        cl.faa(b, 1).unwrap();
        cl.read(a, 32).unwrap();
        let dead = cl.alloc(0, 64).unwrap();
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Free { ptr: dead });
        batch.push(Verb::Read { ptr: a, len: 8 });
        cl.execute(batch).unwrap();

        let delta = c.cluster_stats().since(&base);
        delta.check_conservation(&cl.stats()).unwrap();
        assert_eq!(delta.dropped_verbs, 0);
        // The per-MN split is also exact: MN 0 saw the writes/reads to
        // `a`, MN 1 the atomics on `b`.
        assert_eq!(delta.mns[0].writes, 1);
        assert_eq!(delta.mns[0].reads, 2);
        assert_eq!(delta.mns[0].frees, 1);
        assert_eq!((delta.mns[1].cas, delta.mns[1].faa), (1, 1));
        assert!(delta.mns[0].service_ns > 0);
    }

    #[test]
    fn mn_accounting_conserves_fused_flush_and_doorbells() {
        use crate::client::{DoorbellBatch, Verb};

        let c = DmCluster::new(ClusterConfig {
            num_mns: 2,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let base = c.cluster_stats();
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let b = cl.alloc(0, 8).unwrap();
        let d = cl.alloc(1, 8).unwrap();
        cl.write_u64(a, 1).unwrap();
        cl.write_u64(b, 2).unwrap();
        cl.write_u64(d, 3).unwrap();
        // Three independent single-verb batches fused into one flush:
        // logically three round trips, physically two doorbells (MN 0
        // shared), and the server side must agree doorbell for doorbell.
        let s0 = cl.stats();
        let mid = c.cluster_stats();
        cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: a, len: 8 }]));
        cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: b, len: 8 }]));
        cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: d, len: 8 }]));
        cl.flush_submitted();
        let fused = c.cluster_stats().since(&mid);
        let fused_client = cl.stats().since(&s0);
        assert_eq!(fused_client.doorbells, 2);
        assert_eq!(fused.total_doorbells(), 2);
        assert_eq!(fused.mns[0].doorbells, 1, "MN 0 shared one doorbell");
        fused.check_conservation(&fused_client).unwrap();
        c.cluster_stats()
            .since(&base)
            .check_conservation(&cl.stats())
            .unwrap();
    }

    #[test]
    fn dropped_verbs_keep_totals_balanced() {
        use crate::addr::RemotePtr;
        use crate::client::{DoorbellBatch, Verb};

        let c = DmCluster::new(ClusterConfig {
            num_mns: 2,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        cl.write_u64(a, 9).unwrap();
        let ghost = RemotePtr::new(7, 0);

        // Blocking path: the whole batch is rejected before any NIC is
        // charged; the valid verb still counted on both sides, the ghost
        // one dropped.
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Read { ptr: a, len: 8 });
        batch.push(Verb::Read { ptr: ghost, len: 8 });
        assert!(matches!(
            cl.execute(batch),
            Err(DmError::UnknownMemoryNode { mn_id: 7 })
        ));
        let snap = c.cluster_stats();
        assert_eq!(snap.dropped_verbs, 1);
        assert_eq!(snap.total_doorbells(), cl.stats().doorbells);
        snap.check_conservation(&cl.stats()).unwrap();

        // Fused path: the invalid batch is rejected, its fused neighbour
        // completes, and the ledger still balances.
        cl.submit(DoorbellBatch::from_iter([Verb::Read { ptr: a, len: 8 }]));
        let bad = cl.submit(DoorbellBatch::from_iter([Verb::Read {
            ptr: ghost,
            len: 8,
        }]));
        cl.flush_submitted();
        assert!(matches!(
            cl.poll(bad).unwrap(),
            Err(DmError::UnknownMemoryNode { mn_id: 7 })
        ));
        let snap = c.cluster_stats();
        assert_eq!(snap.dropped_verbs, 2);
        snap.check_conservation(&cl.stats()).unwrap();
    }

    #[test]
    fn mid_batch_error_conserves_bytes() {
        use crate::client::{DoorbellBatch, Verb};

        let c = DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let mut cl = c.client(0);
        let a = cl.alloc(0, 8).unwrap();
        let dead = cl.alloc(0, 8).unwrap();
        cl.free(dead).unwrap();
        // Write applies, the double free fails, the trailing read is never
        // applied — bytes must match on both sides of the ledger anyway.
        let mut batch = DoorbellBatch::new();
        batch.push(Verb::Write {
            ptr: a,
            data: vec![1u8; 8],
        });
        batch.push(Verb::Free { ptr: dead });
        batch.push(Verb::Read { ptr: a, len: 8 });
        assert!(cl.execute(batch).is_err());
        let snap = c.cluster_stats();
        assert_eq!(snap.mns[0].bytes_written, 8);
        assert_eq!(snap.mns[0].bytes_read, 0);
        snap.check_conservation(&cl.stats()).unwrap();
    }

    #[test]
    fn heat_sketch_localizes_touches() {
        let c = DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let mut cl = c.client(0);
        // All traffic lands at the very bottom of the pool: every touch
        // must fall in region 0.
        let p = cl.alloc(0, 64).unwrap();
        for _ in 0..10 {
            cl.read(p, 64).unwrap();
        }
        cl.write(p, &[3u8; 64]).unwrap();
        let mn = c.cluster_stats().mns[0];
        assert_eq!(mn.heat_reads[0], 10);
        assert_eq!(mn.heat_writes[0], 1);
        assert_eq!(mn.heat_reads.iter().sum::<u64>(), 10);
        assert_eq!(mn.heat_writes.iter().sum::<u64>(), 1);
    }

    #[test]
    fn mn_accounting_survives_network_reset() {
        let c = DmCluster::new(ClusterConfig {
            num_mns: 1,
            num_cns: 1,
            mn_capacity: 1 << 20,
            ..Default::default()
        });
        let mut cl = c.client(0);
        let p = cl.alloc(0, 8).unwrap();
        cl.read(p, 8).unwrap();
        let before = c.cluster_stats();
        c.reset_network();
        assert_eq!(
            c.cluster_stats(),
            before,
            "reset_network must not clear server-side accounting"
        );
    }

    #[test]
    fn live_bytes_aggregate() {
        let c = DmCluster::new(ClusterConfig::default());
        c.mn(0).unwrap().alloc(100).unwrap();
        c.mn(1).unwrap().alloc(100).unwrap();
        assert_eq!(c.total_live_bytes(), 256); // two 128-byte classes
    }
}
