//! Index bootstrap: server-side structures and client construction.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use art_core::hash::{fp12, prefix_hash64};
use art_core::layout::{HashEntry, InnerNode};
use art_core::NodeKind;
use dm_sim::{DmCluster, RemotePtr};
use race_hash::RaceTable;

use crate::client::SphinxClient;
use crate::config::SphinxConfig;
use crate::error::SphinxError;
use crate::stats::OpStats;

/// Shared bootstrap information: where each MN's Inner Node Hash Table
/// lives. In a real deployment this is exchanged when a CN mounts the
/// index.
#[derive(Debug)]
pub(crate) struct SphinxMeta {
    pub(crate) inht_metas: Vec<RemotePtr>,
    pub(crate) config: SphinxConfig,
    /// One Succinct Filter Cache per compute node, shared by its workers.
    pub(crate) filters: Mutex<HashMap<u16, Arc<sfc::FilterCache>>>,
    /// The index-wide epoch-reclamation domain every worker registers
    /// with (the MN-resident epoch word and pin-slot array).
    pub(crate) reclaim_domain: reclaim::ReclaimDomain,
}

/// MN-side space usage of the index, split by component — the quantities
/// behind the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceBreakdown {
    /// Bytes consumed by ART nodes (inner + leaf).
    pub art_bytes: u64,
    /// Bytes consumed by the Inner Node Hash Tables (directories +
    /// segments).
    pub inht_bytes: u64,
}

impl SpaceBreakdown {
    /// Total MN-side bytes.
    pub fn total(&self) -> u64 {
        self.art_bytes + self.inht_bytes
    }

    /// INHT overhead relative to the ART itself (the paper reports
    /// 3.3–4.9%).
    pub fn inht_overhead(&self) -> f64 {
        self.inht_bytes as f64 / self.art_bytes as f64
    }
}

/// A Sphinx index living on a [`DmCluster`].
///
/// Create once with [`SphinxIndex::create`], then hand out per-worker
/// [`SphinxClient`]s via [`SphinxIndex::client`]. The handle is cheap to
/// clone.
#[derive(Debug, Clone)]
pub struct SphinxIndex {
    cluster: DmCluster,
    meta: Arc<SphinxMeta>,
}

impl SphinxIndex {
    /// Builds the MN-side structures: one Inner Node Hash Table per memory
    /// node and an empty root inner node (full prefix ε), registered in
    /// the INHT under the empty prefix.
    ///
    /// # Errors
    ///
    /// Propagates substrate and hash-table errors.
    pub fn create(cluster: &DmCluster, config: SphinxConfig) -> Result<Self, SphinxError> {
        let mut boot = cluster.client(0);
        let mut inht_metas = Vec::with_capacity(cluster.num_mns() as usize);
        for mn in 0..cluster.num_mns() {
            inht_metas.push(RaceTable::create(&mut boot, mn, &config.inht)?);
        }

        // Root node: empty Node4 with prefix ε, placed by consistent
        // hashing like every other node, reachable through the INHT.
        let root_prefix: &[u8] = &[];
        let h = prefix_hash64(root_prefix);
        let mn = cluster.place(h);
        let root = InnerNode::new(NodeKind::Node4, root_prefix);
        let root_ptr = boot.alloc(mn, InnerNode::byte_size(NodeKind::Node4))?;
        boot.write(root_ptr, &root.encode())?;
        let mut table = RaceTable::open(&mut boot, inht_metas[mn as usize])?;
        let entry = HashEntry {
            fp: fp12(root_prefix),
            kind: NodeKind::Node4,
            addr: root_ptr,
        };
        table.insert(&mut boot, h, entry.encode(), |_c, ws| Ok(vec![h; ws.len()]))?;

        let reclaim_domain = reclaim::ReclaimDomain::create(&mut boot, 0, config.reclaim)?;

        Ok(SphinxIndex {
            cluster: cluster.clone(),
            meta: Arc::new(SphinxMeta {
                inht_metas,
                config,
                filters: Mutex::new(HashMap::new()),
                reclaim_domain,
            }),
        })
    }

    /// Creates a worker client attached to compute node `cn_id`.
    ///
    /// All workers of one CN share that CN's Succinct Filter Cache (sized
    /// by [`SphinxConfig::cache_bytes`]), mirroring the paper's per-CN
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors from opening the hash tables.
    ///
    /// # Panics
    ///
    /// Panics if `cn_id` is out of range for the cluster.
    pub fn client(&self, cn_id: u16) -> Result<SphinxClient, SphinxError> {
        let mut dm = self.cluster.client(cn_id);
        let tables = self
            .meta
            .inht_metas
            .iter()
            .map(|&m| RaceTable::open(&mut dm, m))
            .collect::<Result<Vec<_>, _>>()?;
        let filter = self.filter_for(cn_id);
        let reclaim = self.meta.reclaim_domain.register(&mut dm)?;
        Ok(SphinxClient {
            worker: node_engine::Worker::new(dm, reclaim),
            tables,
            filter,
            config: self.meta.config.clone(),
            stats: OpStats::default(),
            ambiguous: Vec::new(),
        })
    }

    /// Returns compute node `cn_id`'s shared filter cache, creating it
    /// (cold) on first touch. Creation is deterministic: each CN's
    /// filter derives its seed from the index seed and the CN id, so
    /// rebuild and snapshot bytes are reproducible across runs.
    fn filter_for(&self, cn_id: u16) -> Arc<sfc::FilterCache> {
        let mut filters = self.meta.filters.lock();
        filters
            .entry(cn_id)
            .or_insert_with(|| {
                Arc::new(sfc::FilterCache::new(
                    self.meta.config.cache_bytes.max(64),
                    self.meta.config.sfc,
                    self.meta.config.seed.wrapping_add(cn_id as u64),
                ))
            })
            .clone()
    }

    /// Serializes compute node `cn_id`'s filter cache as a CRC-framed
    /// snapshot (magic + version + payload + CRC32). A restarting or
    /// newly joining CN can [`load`](SphinxIndex::load_sfc_snapshot) it
    /// to warm-start instead of paying the Θ(L)-probe cold-miss ramp.
    pub fn sfc_snapshot(&self, cn_id: u16) -> Vec<u8> {
        self.filter_for(cn_id).snapshot()
    }

    /// Installs a snapshot into compute node `cn_id`'s filter cache
    /// (created cold first if no worker has attached yet).
    ///
    /// # Errors
    ///
    /// Returns the rejection reason — corrupt framing, wrong version,
    /// stale generation, or mode mismatch. Rejections are counted in
    /// `sfc.gen.snapshot_rejects` and leave the cache in its previous
    /// (at worst cold) state: a bad snapshot degrades warm-start, it
    /// never poisons the cache or panics.
    pub fn load_sfc_snapshot(&self, cn_id: u16, bytes: &[u8]) -> Result<(), sfc::SnapshotError> {
        self.filter_for(cn_id).load_snapshot(bytes)
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &DmCluster {
        &self.cluster
    }

    /// The index configuration.
    pub fn config(&self) -> &SphinxConfig {
        &self.meta.config
    }

    /// Meta pointers of the per-MN Inner Node Hash Tables (diagnostics
    /// and fault-injection tests; normal clients never need these).
    pub fn inht_metas(&self) -> &[RemotePtr] {
        &self.meta.inht_metas
    }

    /// Merged Succinct Filter Cache statistics across every per-CN filter.
    ///
    /// The filters are shared by all workers of a CN, so these counters
    /// must be collected **once per index** (not per worker) — merging
    /// them into each worker's [`SphinxClient::telemetry`] would count
    /// every filter once per worker.
    pub fn sfc_stats(&self) -> sfc::SfcStats {
        let mut total = sfc::SfcStats::default();
        for filter in self.meta.filters.lock().values() {
            total.merge(&filter.stats());
        }
        total
    }

    /// The SFC statistics as a telemetry registry fragment, ready to
    /// merge into a run-level registry alongside the per-worker ones.
    ///
    /// The flat `sfc.*` names predate the generational subsystem and
    /// keep their meaning (aggregated over all layers); the `sfc.gen.*`
    /// family exposes the generational internals — frozen generation
    /// level and size, pending delta, rebuild and snapshot activity.
    pub fn sfc_telemetry(&self) -> obs::Registry {
        let s = self.sfc_stats();
        let mut reg = obs::Registry::new();
        reg.add("sfc.inserts", s.inserts);
        reg.add("sfc.evictions", s.evictions);
        reg.add("sfc.second_chance", s.second_chance);
        reg.add("sfc.relocations", s.relocations);
        reg.add("sfc.lookups", s.lookups);
        reg.add("sfc.hits", s.hits);
        reg.add("sfc.false_positives", s.false_positives);
        reg.add("sfc.gen.generation", s.generation);
        reg.add("sfc.gen.frozen_size", s.frozen_len);
        reg.add("sfc.gen.delta_size", s.delta_len);
        reg.add("sfc.gen.tombstones", s.tombstones);
        reg.add("sfc.gen.frozen_hits", s.frozen_hits);
        reg.add("sfc.gen.delta_hits", s.delta_hits);
        reg.add("sfc.gen.rebuilds", s.rebuilds);
        reg.add("sfc.gen.fuse_build_retries", s.fuse_build_retries);
        reg.add("sfc.gen.snapshot_loads", s.snapshot_loads);
        reg.add("sfc.gen.snapshot_rejects", s.snapshot_rejects);
        reg.add("sfc.gen.false_positives", s.false_positives);
        reg
    }

    /// Measures MN-side space: total live bytes minus INHT bytes gives the
    /// ART's share (nodes and leaves are the only other allocations).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn space_breakdown(&self) -> Result<SpaceBreakdown, SphinxError> {
        let mut client = self.cluster.client(0);
        let mut inht_bytes = 0;
        for &meta in &self.meta.inht_metas {
            let mut table = RaceTable::open(&mut client, meta)?;
            inht_bytes += table.memory_bytes(&mut client)?;
        }
        let total = self.cluster.total_live_bytes();
        Ok(SpaceBreakdown {
            art_bytes: total.saturating_sub(inht_bytes),
            inht_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::ClusterConfig;

    #[test]
    fn create_builds_root_and_tables() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let space = index.space_breakdown().unwrap();
        assert!(space.inht_bytes > 0);
        assert!(space.art_bytes > 0, "root node should be allocated");
    }

    #[test]
    fn workers_on_same_cn_share_a_filter() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let index = SphinxIndex::create(&cluster, SphinxConfig::small()).unwrap();
        let a = index.client(0).unwrap();
        let b = index.client(0).unwrap();
        let c = index.client(1).unwrap();
        assert!(Arc::ptr_eq(a.filter_handle(), b.filter_handle()));
        assert!(!Arc::ptr_eq(a.filter_handle(), c.filter_handle()));
    }
}
