//! The four evaluated systems behind one worker-client interface.

use baselines::{BaselineConfig, BaselineIndex};
use dm_sim::{ClientStats, ClusterConfig, DmCluster};
use sphinx::{CacheMode, SphinxConfig, SphinxIndex};

/// The paper's CN-side cache budget (20 MB against a 60 M-key dataset —
/// 4.2% of the u64 keys, 1.8% of the email keys), scaled to the number of
/// keys the experiment actually loads. SMART+C uses ten times this.
pub fn paper_cache_bytes(num_keys: u64) -> usize {
    ((num_keys as usize) / 3).max(4 << 10)
}

/// Which system a run drives (the four bars of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Sphinx with the paper's default 20 MB Succinct Filter Cache.
    Sphinx,
    /// Sphinx without the filter cache (INHT-only ablation; not in the
    /// paper's figures but used by the `ablation` binary).
    SphinxInhtOnly,
    /// SMART with a 20 MB CN-side node cache.
    Smart,
    /// SMART with a 200 MB CN-side node cache ("SMART+C").
    SmartC,
    /// The original ART ported to DM (no cache).
    Art,
    /// A Sherman-lite B+-tree (extension; fixed 8-byte keys — it cannot
    /// run the email dataset, which is the point of the comparison).
    BpTree,
}

impl System {
    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            System::Sphinx => "Sphinx",
            System::SphinxInhtOnly => "Sphinx-INHT",
            System::Smart => "SMART",
            System::SmartC => "SMART+C",
            System::Art => "ART",
            System::BpTree => "B+Tree",
        }
    }

    /// The systems compared in Fig. 4 / Fig. 5.
    pub fn paper_lineup() -> [System; 4] {
        [System::Sphinx, System::Smart, System::SmartC, System::Art]
    }

    /// Builds the system on a fresh cluster mirroring the paper's testbed
    /// (3 machines, each one CN + one MN). `cache_bytes` overrides the
    /// CN-side cache budget where the system has one.
    pub fn build(&self, mn_capacity: usize, cache_bytes: Option<usize>) -> SystemHandle {
        self.build_on(&testbed(mn_capacity), cache_bytes)
    }

    /// Builds the system with the paper's cache proportions for a run
    /// over `num_keys` keys (Sphinx/SMART get the scaled 20 MB budget,
    /// SMART+C ten times that, ART none) that keeps up to `clients` worker
    /// clients alive at once: the reclamation pin-slot array is sized for
    /// them when the default does not cover them.
    pub fn build_scaled(&self, mn_capacity: usize, num_keys: u64, clients: usize) -> SystemHandle {
        let cache = paper_cache_bytes(num_keys);
        let budget = match self {
            System::SmartC => 10 * cache,
            _ => cache,
        };
        self.build_sized(&testbed(mn_capacity), Some(budget), clients)
    }

    /// Builds the system on an existing cluster.
    ///
    /// # Panics
    ///
    /// Panics if index creation fails (out of MN memory — raise
    /// `mn_capacity`).
    pub fn build_on(&self, cluster: &DmCluster, cache_bytes: Option<usize>) -> SystemHandle {
        self.build_sized(cluster, cache_bytes, 0)
    }

    fn build_sized(
        &self,
        cluster: &DmCluster,
        cache_bytes: Option<usize>,
        clients: usize,
    ) -> SystemHandle {
        // Never below the default: a reclaim scan reads the whole slot
        // array, so its size is part of every recorded virtual-time number.
        let default = reclaim::ReclaimConfig::default();
        let reclaim = reclaim::ReclaimConfig {
            max_clients: default.max_clients.max(clients),
            ..default
        };
        let smart = |bytes| BaselineConfig {
            reclaim,
            ..BaselineConfig::smart(bytes)
        };
        match self {
            System::Sphinx | System::SphinxInhtOnly => {
                let config = SphinxConfig {
                    cache_bytes: cache_bytes.unwrap_or(20 << 20),
                    mode: if *self == System::SphinxInhtOnly {
                        CacheMode::InhtOnly
                    } else {
                        CacheMode::FilterCache
                    },
                    reclaim,
                    ..SphinxConfig::default()
                };
                SystemHandle::Sphinx(SphinxIndex::create(cluster, config).expect("create sphinx"))
            }
            System::Smart => SystemHandle::Baseline(
                BaselineIndex::create(cluster, smart(cache_bytes.unwrap_or(20 << 20)))
                    .expect("create smart"),
            ),
            System::SmartC => SystemHandle::Baseline(
                BaselineIndex::create(cluster, smart(cache_bytes.unwrap_or(200 << 20)))
                    .expect("create smart+c"),
            ),
            System::Art => SystemHandle::Baseline(
                BaselineIndex::create(
                    cluster,
                    BaselineConfig {
                        reclaim,
                        ..BaselineConfig::art()
                    },
                )
                .expect("create art"),
            ),
            System::BpTree => SystemHandle::BpTree(
                bptree::BpTreeIndex::create(cluster, cache_bytes.unwrap_or(20 << 20))
                    .expect("create b+tree"),
            ),
        }
    }
}

/// A fresh cluster mirroring the paper's testbed: 3 machines, each one CN
/// and one MN of `mn_capacity` bytes.
fn testbed(mn_capacity: usize) -> DmCluster {
    DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity,
        ..Default::default()
    })
}

/// A built index, able to mint per-worker clients.
#[derive(Clone)]
pub enum SystemHandle {
    /// A Sphinx index.
    Sphinx(SphinxIndex),
    /// An ART or SMART baseline index.
    Baseline(BaselineIndex),
    /// A B+-tree index (extension experiments).
    BpTree(bptree::BpTreeIndex),
}

impl SystemHandle {
    /// Creates a worker client bound to compute node `cn_id`.
    ///
    /// # Panics
    ///
    /// Panics on substrate errors (bench context) — among them
    /// `OutOfMemory` registering a reclamation pin slot, when more clients
    /// are alive than the index was built for (`build_scaled`'s `clients`,
    /// [`reclaim::ReclaimConfig::max_clients`]).
    pub fn worker(&self, cn_id: u16) -> WorkerClient {
        match self {
            SystemHandle::Sphinx(idx) => {
                WorkerClient::Sphinx(Box::new(idx.client(cn_id).expect("sphinx client")))
            }
            SystemHandle::Baseline(idx) => {
                WorkerClient::Baseline(Box::new(idx.client(cn_id).expect("baseline client")))
            }
            SystemHandle::BpTree(idx) => {
                WorkerClient::BpTree(Box::new(idx.client(cn_id).expect("b+tree client")))
            }
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &DmCluster {
        match self {
            SystemHandle::Sphinx(idx) => idx.cluster(),
            SystemHandle::Baseline(idx) => idx.cluster(),
            SystemHandle::BpTree(idx) => idx.cluster(),
        }
    }

    /// Index-level telemetry: counters owned by the index rather than any
    /// worker (Sphinx's per-CN filter statistics, collected once here to
    /// avoid counting the shared filters once per worker), plus the
    /// cluster's fault-injection count. Empty for uninstrumented systems.
    pub fn index_telemetry(&self) -> obs::Registry {
        let mut reg = match self {
            SystemHandle::Sphinx(idx) => idx.sfc_telemetry(),
            SystemHandle::Baseline(_) | SystemHandle::BpTree(_) => obs::Registry::new(),
        };
        reg.add("faults.injected", self.cluster().fault_injections());
        // MN-pool accounting, summed over memory nodes: total live bytes,
        // bytes recovered through the epoch reclaimer, and live block
        // counts per allocation size class (Fig. 6 attribution).
        let cluster = self.cluster();
        let mut live_bytes = 0u64;
        let mut reclaimed = 0u64;
        let mut by_class: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for mn_id in 0..cluster.num_mns() {
            let mn = cluster.mn(mn_id).expect("mn in range");
            let stats = mn.alloc_stats();
            live_bytes += stats.live_bytes;
            reclaimed += stats.reclaimed_bytes;
            for (class, blocks) in mn.live_by_class() {
                *by_class.entry(class).or_default() += blocks;
            }
        }
        reg.add("mem.live_bytes", live_bytes);
        reg.add("mem.reclaimed_bytes", reclaimed);
        for (class, blocks) in by_class {
            reg.add(&format!("mem.class_{class}.live"), blocks);
        }
        reg
    }

    /// MN-side memory: `(index bytes, auxiliary bytes)` where auxiliary is
    /// Sphinx's Inner Node Hash Table (0 for the baselines). Fig. 6.
    pub fn memory_breakdown(&self) -> (u64, u64) {
        match self {
            SystemHandle::Sphinx(idx) => {
                let s = idx.space_breakdown().expect("space breakdown");
                (s.art_bytes, s.inht_bytes)
            }
            SystemHandle::Baseline(idx) => (idx.memory_bytes(), 0),
            SystemHandle::BpTree(idx) => (idx.memory_bytes(), 0),
        }
    }
}

/// One benchmark worker: a thin uniform facade over the two client types.
///
/// Methods panic on substrate errors — benchmark context, where an error
/// is a bug, not a condition to handle.
pub enum WorkerClient {
    /// Sphinx worker.
    Sphinx(Box<sphinx::SphinxClient>),
    /// Baseline worker.
    Baseline(Box<baselines::BaselineClient>),
    /// B+-tree worker: keys must be 8-byte big-endian integers (the u64
    /// dataset); anything else panics — fixed-width keys are the point of
    /// the comparison.
    BpTree(Box<bptree::BpTreeClient>),
}

fn bp_key(key: &[u8]) -> u64 {
    u64::from_be_bytes(
        key.try_into()
            .expect("B+tree supports fixed 8-byte keys only (u64 dataset)"),
    )
}

/// The B+-tree stores values in fixed 64-byte zero-padded slots
/// ([`bptree`'s Sherman-style leaf entry]), so a raw `get` returns padding
/// the caller never wrote. The facade keeps reads faithful to writes by
/// spending two slot bytes on a length prefix; payloads are capped at 62
/// bytes (ample for the harness's 16-byte tagged values).
fn bp_value_encode(value: &[u8]) -> Vec<u8> {
    let n = value.len().min(62);
    let mut v = Vec::with_capacity(2 + n);
    v.extend_from_slice(&(n as u16).to_le_bytes());
    v.extend_from_slice(&value[..n]);
    v
}

fn bp_value_decode(mut slot: Vec<u8>) -> Vec<u8> {
    let n = (u16::from_le_bytes([slot[0], slot[1]]) as usize).min(slot.len() - 2);
    slot.drain(..2);
    slot.truncate(n);
    slot
}

impl WorkerClient {
    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        match self {
            WorkerClient::Sphinx(c) => c.get(key).expect("get"),
            WorkerClient::Baseline(c) => c.get(key).expect("get"),
            WorkerClient::BpTree(c) => c.get(bp_key(key)).expect("get").map(bp_value_decode),
        }
    }

    /// Insert / upsert.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) {
        match self {
            WorkerClient::Sphinx(c) => c.insert(key, value).expect("insert"),
            WorkerClient::Baseline(c) => c.insert(key, value).expect("insert"),
            WorkerClient::BpTree(c) => c
                .insert(bp_key(key), &bp_value_encode(value))
                .expect("insert"),
        }
    }

    /// Update an existing key.
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> bool {
        match self {
            WorkerClient::Sphinx(c) => c.update(key, value).expect("update"),
            WorkerClient::Baseline(c) => c.update(key, value).expect("update"),
            WorkerClient::BpTree(c) => c
                .update(bp_key(key), &bp_value_encode(value))
                .expect("update"),
        }
    }

    /// Delete a key; returns whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        match self {
            WorkerClient::Sphinx(c) => c.remove(key).expect("remove"),
            WorkerClient::Baseline(c) => c.remove(key).expect("remove"),
            WorkerClient::BpTree(c) => c.remove(bp_key(key)).expect("remove"),
        }
    }

    /// Batched point lookups with up to `depth` operations in flight per
    /// worker (the op-pipelining path, see
    /// [`sphinx::SphinxClient::get_many_pipelined`]): every system drives
    /// one resumable lookup machine per key, and their round trips fuse
    /// across operations. Results are positionally aligned with `keys`.
    pub fn multi_get_pipelined(&mut self, keys: &[&[u8]], depth: usize) -> Vec<Option<Vec<u8>>> {
        match self {
            WorkerClient::Sphinx(c) => c
                .get_many_pipelined(keys, depth)
                .expect("multi_get_pipelined"),
            WorkerClient::Baseline(c) => c
                .get_many_pipelined(keys, depth)
                .expect("multi_get_pipelined"),
            WorkerClient::BpTree(c) => {
                let bp_keys: Vec<u64> = keys.iter().map(|k| bp_key(k)).collect();
                c.get_many_pipelined(&bp_keys, depth)
                    .expect("multi_get_pipelined")
                    .into_iter()
                    .map(|v| v.map(bp_value_decode))
                    .collect()
            }
        }
    }

    /// Range scan; returns the number of entries found.
    pub fn scan(&mut self, low: &[u8], high: &[u8]) -> usize {
        self.scan_pairs(low, high).len()
    }

    /// Inclusive range scan returning the pairs (`low <= key <= high`).
    pub fn scan_pairs(&mut self, low: &[u8], high: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self {
            WorkerClient::Sphinx(c) => c.scan(low, high).expect("scan"),
            WorkerClient::Baseline(c) => c.scan(low, high).expect("scan"),
            WorkerClient::BpTree(c) => c
                .scan(bp_key(low), bp_key(high))
                .expect("scan")
                .into_iter()
                .map(|(k, v)| (k.to_be_bytes().to_vec(), bp_value_decode(v)))
                .collect(),
        }
    }

    /// The first `limit` entries with `key >= low`. Sphinx has a native
    /// bounded scan; the baselines emulate it with a full-range scan
    /// truncated to `limit`.
    pub fn scan_n(&mut self, low: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self {
            WorkerClient::Sphinx(c) => c.scan_n(low, limit).expect("scan_n"),
            WorkerClient::Baseline(c) => {
                // An upper bound above any legal key (keys are capped at
                // 4096 bytes, all-0xFF at that length sorts last).
                let high = vec![0xFFu8; 4096];
                let mut pairs = c.scan(low, &high).expect("scan_n");
                pairs.truncate(limit);
                pairs
            }
            WorkerClient::BpTree(c) => {
                let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = c
                    .scan(bp_key(low), u64::MAX)
                    .expect("scan_n")
                    .into_iter()
                    .map(|(k, v)| (k.to_be_bytes().to_vec(), bp_value_decode(v)))
                    .collect();
                pairs.truncate(limit);
                pairs
            }
        }
    }

    /// Forces one epoch-reclamation scan on this worker (advance the
    /// cluster epoch, free limbo entries past grace). No-op for the
    /// B+-tree, which never unlinks nodes.
    pub fn reclaim_scan(&mut self) {
        match self {
            WorkerClient::Sphinx(c) => c.reclaim_scan(),
            WorkerClient::Baseline(c) => c.reclaim_scan(),
            WorkerClient::BpTree(_) => {}
        }
    }

    /// Scans until this worker's limbo list drains (or `max_rounds` scans
    /// pass); returns whether it drained. Quiescing a multi-worker run
    /// needs round-robin calls across the workers, since each one's frees
    /// are gated on the *others* having refreshed their epoch slots.
    pub fn reclaim_quiesce(&mut self, max_rounds: usize) -> bool {
        match self {
            WorkerClient::Sphinx(c) => c.reclaim_quiesce(max_rounds),
            WorkerClient::Baseline(c) => c.reclaim_quiesce(max_rounds),
            WorkerClient::BpTree(_) => true,
        }
    }

    /// Removes this worker from epoch gating (before dropping it idle).
    pub fn reclaim_deregister(&mut self) {
        match self {
            WorkerClient::Sphinx(c) => c.reclaim_deregister(),
            WorkerClient::Baseline(c) => c.reclaim_deregister(),
            WorkerClient::BpTree(_) => {}
        }
    }

    /// Attaches a deterministic-schedule participant handle to this
    /// worker's transport (see [`dm_sim::Schedule`]).
    pub fn attach_schedule(&mut self, handle: dm_sim::ScheduleHandle) {
        match self {
            WorkerClient::Sphinx(c) => c.attach_schedule(handle),
            WorkerClient::Baseline(c) => c.attach_schedule(handle),
            WorkerClient::BpTree(c) => c.attach_schedule(handle),
        }
    }

    /// Consumes one scheduling step and returns its number (a virtual
    /// timestamp); `None` when no schedule is attached.
    pub fn schedule_tick(&mut self) -> Option<u64> {
        match self {
            WorkerClient::Sphinx(c) => c.schedule_tick(),
            WorkerClient::Baseline(c) => c.schedule_tick(),
            WorkerClient::BpTree(c) => c.schedule_tick(),
        }
    }

    /// Virtual clock (ns).
    pub fn clock_ns(&self) -> u64 {
        match self {
            WorkerClient::Sphinx(c) => c.clock_ns(),
            WorkerClient::Baseline(c) => c.clock_ns(),
            WorkerClient::BpTree(c) => c.clock_ns(),
        }
    }

    /// Reset the virtual clock (phase barrier).
    pub fn set_clock_ns(&mut self, ns: u64) {
        match self {
            WorkerClient::Sphinx(c) => c.set_clock_ns(ns),
            WorkerClient::Baseline(c) => c.set_clock_ns(ns),
            WorkerClient::BpTree(c) => c.set_clock_ns(ns),
        }
    }

    /// Cheap SFC gauges for the metrics sampler —
    /// `[lookups, hits, frozen_len, delta_len]`, all zeros for systems
    /// without a filter cache. Reads shared atomics only: no verbs, no
    /// allocation, safe to poll at every op boundary.
    pub fn sfc_gauges(&self) -> [u64; 4] {
        match self {
            WorkerClient::Sphinx(c) => c.sfc_gauges(),
            WorkerClient::Baseline(_) | WorkerClient::BpTree(_) => [0; 4],
        }
    }

    /// Network counters.
    pub fn net_stats(&self) -> ClientStats {
        match self {
            WorkerClient::Sphinx(c) => c.net_stats(),
            WorkerClient::Baseline(c) => c.net_stats(),
            WorkerClient::BpTree(c) => c.net_stats(),
        }
    }

    /// This worker's telemetry registry (phase-attributed spans plus
    /// domain counters). The B+-tree extension has no span recorder: its
    /// registry holds its pipelined-execution counters only.
    pub fn telemetry(&self) -> obs::Registry {
        match self {
            WorkerClient::Sphinx(c) => c.telemetry(),
            WorkerClient::Baseline(c) => c.telemetry(),
            WorkerClient::BpTree(c) => {
                let mut reg = obs::Registry::new();
                c.pipeline_stats().export(&mut reg);
                reg
            }
        }
    }

    /// Configures causal-trace sampling (`head_every` = uniform 1-in-N
    /// head sample, 0 = off; `tail_k` = slowest/most-retried retention
    /// depth). The baselines have no tracer; the call is a no-op for
    /// them.
    pub fn set_trace_sampling(&mut self, head_every: u64, tail_k: usize) {
        match self {
            WorkerClient::Sphinx(c) => c.set_trace_sampling(head_every, tail_k),
            WorkerClient::Baseline(_) => {}
            WorkerClient::BpTree(c) => c.set_trace_sampling(head_every, tail_k),
        }
    }

    /// Sets the worker id baked into this client's trace ids, keeping
    /// ids unique (and exports deterministic) across a run's workers.
    pub fn set_trace_worker(&mut self, worker: u32) {
        match self {
            WorkerClient::Sphinx(c) => c.set_trace_worker(worker),
            WorkerClient::Baseline(_) => {}
            WorkerClient::BpTree(c) => c.set_trace_worker(worker),
        }
    }

    /// Drains this worker's retained causal traces (empty for the
    /// baselines).
    pub fn take_traces(&mut self) -> Vec<obs::OpTrace> {
        match self {
            WorkerClient::Sphinx(c) => c.take_traces(),
            WorkerClient::Baseline(_) => Vec::new(),
            WorkerClient::BpTree(c) => c.take_traces(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_build_and_serve() {
        for sys in [
            System::Sphinx,
            System::SphinxInhtOnly,
            System::Smart,
            System::SmartC,
            System::Art,
            System::BpTree,
        ] {
            let handle = sys.build(64 << 20, Some(1 << 20));
            let mut w = handle.worker(0);
            // The B+tree takes fixed 8-byte keys; use one everywhere.
            let key = 42u64.to_be_bytes();
            let (lo, hi) = (0u64.to_be_bytes(), u64::MAX.to_be_bytes());
            w.insert(&key, b"value");
            let got = w.get(&key).expect("present");
            assert_eq!(&got[..5], b"value", "{}", sys.label());
            assert!(w.update(&key, b"value2"), "{}", sys.label());
            assert_eq!(w.scan(&lo, &hi), 1, "{}", sys.label());
        }
    }
}
