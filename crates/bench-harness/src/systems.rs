//! The evaluated systems behind one worker-client interface: each client
//! owns a `node_engine::Worker`, through which the facade reaches every
//! system's clock, schedule, reclamation and tracing the same way.

use baselines::{BaselineConfig, BaselineIndex};
use dm_sim::{ClientStats, ClusterConfig, DmCluster, NetConfig};
use node_engine::{ArtReader, Worker};
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

    /// The system a command-line name denotes, in any case: `sphinx`,
    /// `sphinx-inht`, `smart`, `smartc` or `smart+c`, `art`, `bptree` or
    /// `btree`.
    pub fn from_name(name: &str) -> Option<System> {
        Some(match name.to_ascii_lowercase().as_str() {
            "sphinx" => System::Sphinx,
            "sphinx-inht" => System::SphinxInhtOnly,
            "smart" => System::Smart,
            "smartc" | "smart+c" => System::SmartC,
            "art" => System::Art,
            "bptree" | "btree" => System::BpTree,
            _ => return None,
        })
    }

    /// Builds the system on a fresh cluster mirroring the paper's testbed
    /// (3 machines, each one CN + one MN). `cache_bytes` overrides the
    /// CN-side cache budget where the system has one.
    pub fn build(&self, mn_capacity: usize, cache_bytes: Option<usize>) -> SystemHandle {
        self.build_on(&testbed(mn_capacity, NetConfig::default()), cache_bytes)
    }

    /// Builds the system with the paper's cache proportions for a run
    /// over `num_keys` keys (Sphinx/SMART get the scaled 20 MB budget,
    /// SMART+C ten times that, ART none) that keeps up to `clients` worker
    /// clients alive at once: the reclamation pin-slot array is sized for
    /// them when the default does not cover them.
    pub fn build_scaled(&self, mn_capacity: usize, num_keys: u64, clients: usize) -> SystemHandle {
        self.build_scaled_on(
            &testbed(mn_capacity, NetConfig::default()),
            num_keys,
            clients,
        )
    }

    /// [`build_scaled`](Self::build_scaled) on an existing cluster.
    pub fn build_scaled_on(
        &self,
        cluster: &DmCluster,
        num_keys: u64,
        clients: usize,
    ) -> SystemHandle {
        let cache = paper_cache_bytes(num_keys);
        let budget = match self {
            System::SmartC => 10 * cache,
            _ => cache,
        };
        self.build_sized(cluster, Some(budget), clients)
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
/// and one MN of `mn_capacity` bytes, priced by the `net` cost model.
pub fn testbed(mn_capacity: usize, net: NetConfig) -> DmCluster {
    DmCluster::new(ClusterConfig {
        num_mns: 3,
        num_cns: 3,
        mn_capacity,
        net,
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

/// One benchmark worker: a thin uniform facade over the three client types.
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
    /// [`sphinx::SphinxClient::get_many_pipelined`]): every system runs
    /// one `async fn` lookup per key, and their round trips fuse
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

    /// The first `limit` entries with `key >= low`. Every ART system walks
    /// them natively; the B+-tree scans its leaf chain to the end and
    /// truncates.
    pub fn scan_n(&mut self, low: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self {
            WorkerClient::Sphinx(c) => c.scan_n(low, limit).expect("scan_n"),
            WorkerClient::Baseline(c) => c.scan_n(low, limit).expect("scan_n"),
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

    /// The system's worker: its transport, reclamation handle and tracer.
    fn worker(&mut self) -> &mut Worker {
        match self {
            WorkerClient::Sphinx(c) => c.worker(),
            WorkerClient::Baseline(c) => c.worker(),
            WorkerClient::BpTree(c) => c.worker(),
        }
    }

    /// Forces one epoch-reclamation scan on this worker (advance the
    /// cluster epoch, free limbo entries past grace). No-op for the
    /// B+-tree, which never unlinks nodes.
    pub fn reclaim_scan(&mut self) {
        let w = self.worker();
        w.reclaim.scan(&mut w.dm);
    }

    /// Scans until this worker's limbo list drains (or `max_rounds` scans
    /// pass); returns whether it drained. Quiescing a multi-worker run
    /// needs round-robin calls across the workers, since each one's frees
    /// are gated on the *others* having refreshed their epoch slots.
    pub fn reclaim_quiesce(&mut self, max_rounds: usize) -> bool {
        let w = self.worker();
        w.reclaim.quiesce(&mut w.dm, max_rounds)
    }

    /// Removes this worker from epoch gating (before dropping it idle).
    pub fn reclaim_deregister(&mut self) {
        let w = self.worker();
        w.reclaim.deregister(&mut w.dm);
    }

    /// Attaches a deterministic-schedule participant handle to this
    /// worker's transport (see [`dm_sim::Schedule`]).
    pub fn attach_schedule(&mut self, handle: dm_sim::ScheduleHandle) {
        self.worker().dm.attach_schedule(handle);
    }

    /// Consumes one scheduling step and returns its number (a virtual
    /// timestamp); `None` when no schedule is attached.
    pub fn schedule_tick(&mut self) -> Option<u64> {
        self.worker().dm.schedule_tick()
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
        self.worker().dm.set_clock_ns(ns);
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
    /// domain counters). The B+-tree extension opens no span: its
    /// registry holds its pipelined-execution counters only.
    pub fn telemetry(&self) -> obs::Registry {
        match self {
            WorkerClient::Sphinx(c) => c.telemetry(),
            WorkerClient::Baseline(c) => c.telemetry(),
            WorkerClient::BpTree(c) => c.telemetry(),
        }
    }

    /// Configures causal-trace sampling (`head_every` = uniform 1-in-N
    /// head sample, 0 = off; `tail_k` = slowest/most-retried retention
    /// depth).
    pub fn set_trace_sampling(&mut self, head_every: u64, tail_k: usize) {
        self.worker().set_trace_sampling(head_every, tail_k);
    }

    /// Sets the worker id baked into this client's trace ids, keeping
    /// ids unique (and exports deterministic) across a run's workers.
    pub fn set_trace_worker(&mut self, worker: u32) {
        self.worker().set_trace_worker(worker);
    }

    /// Drains this worker's retained causal traces.
    pub fn take_traces(&mut self) -> Vec<obs::OpTrace> {
        self.worker().take_traces()
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

    /// The baselines' `scan_n` is a walk that stops at `limit` rows, not a
    /// scan of the whole tail truncated afterwards.
    #[test]
    fn art_scan_n_cost_tracks_result_size_not_tree_size() {
        let handle = System::Art.build(64 << 20, None);
        let mut w = handle.worker(0);
        for i in 0..2_000u64 {
            w.insert(&i.to_be_bytes(), b"v");
        }
        let before = w.net_stats().round_trips;
        let rows = w.scan_n(&1_000u64.to_be_bytes(), 10);
        let rts = w.net_stats().round_trips - before;
        let want: Vec<Vec<u8>> = (1_000..1_010u64)
            .map(|i| i.to_be_bytes().to_vec())
            .collect();
        assert_eq!(rows.into_iter().map(|(k, _)| k).collect::<Vec<_>>(), want);
        assert!(
            rts < 25,
            "10-row scan over 2000 keys took {rts} round trips"
        );
    }

    /// The baselines are traced like Sphinx: a SMART and an ART worker
    /// keep a trace of every blocking op kind, each one's critical path is
    /// exact, and tracing moves no virtual clock.
    #[test]
    fn baseline_workers_trace_every_blocking_op() {
        use obs::OpKind;
        for sys in [System::Smart, System::Art] {
            let run = |(head_every, tail_k)| {
                let handle = sys.build(64 << 20, Some(1 << 20));
                let mut w = handle.worker(0);
                w.set_trace_sampling(head_every, tail_k);
                for i in 0..64u64 {
                    w.insert(&i.to_be_bytes(), b"v");
                }
                assert!(w.get(&7u64.to_be_bytes()).is_some());
                assert!(w.update(&8u64.to_be_bytes(), b"w"));
                assert!(w.remove(&9u64.to_be_bytes()));
                assert_eq!(w.scan(&0u64.to_be_bytes(), &u64::MAX.to_be_bytes()), 63);
                (w.clock_ns(), w.take_traces())
            };
            let (clock, traces) = run((1, obs::DEFAULT_TAIL_K));
            let (untraced_clock, none) = run((0, 0));
            assert_eq!(untraced_clock, clock, "{}", sys.label());
            assert!(none.is_empty(), "{}", sys.label());
            for kind in [
                OpKind::Get,
                OpKind::Insert,
                OpKind::Update,
                OpKind::Delete,
                OpKind::Scan,
            ] {
                let of_kind = traces.iter().filter(|t| t.kind == kind);
                assert!(of_kind.count() > 0, "{} {kind:?}", sys.label());
            }
            for t in &traces {
                assert!(t.complete, "{} {:?}", sys.label(), t.kind);
                let cp = obs::critical_path(t);
                assert!(cp.is_exact(), "{} {:?}: {cp:?}", sys.label(), t.kind);
            }
        }
    }

    #[test]
    fn system_names_are_the_union_of_both_parent_spellings_in_any_case() {
        for (name, sys) in [
            ("sphinx", System::Sphinx),
            ("Sphinx-INHT", System::SphinxInhtOnly),
            ("SMART", System::Smart),
            ("smartc", System::SmartC),
            ("smart+c", System::SmartC),
            ("art", System::Art),
            ("bptree", System::BpTree),
            ("BTree", System::BpTree),
        ] {
            assert_eq!(System::from_name(name), Some(sys), "{name}");
        }
        assert_eq!(System::from_name("b+tree"), None);
        assert_eq!(System::from_name(""), None);
    }
}
