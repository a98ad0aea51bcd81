//! Index handle, client, and the B-link operation protocols.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use dm_sim::{DmCluster, DmError, RemotePtr};
use node_engine::{block_on, run_pipelined, EngineError, Io, Lend, TraceCell, Worker};
use obs::{OpKind, Phase};

use crate::layout::{BpNode, NodeHeader, NODE_BYTES, TAIL_OFFSET};

/// Errors from B+-tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BpTreeError {
    /// Substrate error.
    Dm(DmError),
    /// Retry budget exhausted.
    RetriesExhausted {
        /// Operation that gave up.
        op: &'static str,
    },
}

impl fmt::Display for BpTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BpTreeError::Dm(e) => write!(f, "substrate error: {e}"),
            BpTreeError::RetriesExhausted { op } => write!(f, "{op} exhausted its retry budget"),
        }
    }
}

impl Error for BpTreeError {}

impl From<DmError> for BpTreeError {
    fn from(e: DmError) -> Self {
        BpTreeError::Dm(e)
    }
}

impl From<EngineError> for BpTreeError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Dm(e) => BpTreeError::Dm(e),
            EngineError::RetriesExhausted { op } => BpTreeError::RetriesExhausted { op },
            _ => BpTreeError::RetriesExhausted {
                op: "pipelined get",
            },
        }
    }
}

/// Byte-budgeted cache of internal nodes (Sherman's index cache). Safe
/// without validation: a stale internal node can only misdirect rightward
/// misses, which the B-link right-chase repairs.
#[derive(Debug)]
struct InternalCache {
    budget: usize,
    nodes: HashMap<u64, (BpNode, u64)>, // raw ptr -> (node, generation)
    gen: u64,
}

impl InternalCache {
    fn new(budget: usize) -> Self {
        InternalCache {
            budget,
            nodes: HashMap::new(),
            gen: 0,
        }
    }

    fn get(&mut self, ptr: RemotePtr) -> Option<BpNode> {
        self.gen += 1;
        let gen = self.gen;
        self.nodes.get_mut(&ptr.to_raw()).map(|(n, g)| {
            *g = gen;
            n.clone()
        })
    }

    fn put(&mut self, ptr: RemotePtr, node: BpNode) {
        if node.is_leaf() {
            return;
        }
        self.gen += 1;
        self.nodes.insert(ptr.to_raw(), (node, self.gen));
        while self.nodes.len() * NODE_BYTES > self.budget && !self.nodes.is_empty() {
            let victim = *self
                .nodes
                .iter()
                .min_by_key(|(_, (_, g))| *g)
                .map(|(k, _)| k)
                .expect("non-empty");
            self.nodes.remove(&victim);
        }
    }

    fn invalidate(&mut self, ptr: RemotePtr) {
        self.nodes.remove(&ptr.to_raw());
    }

    fn clear(&mut self) {
        self.nodes.clear();
    }
}

/// A Sherman-lite B-link tree on a [`DmCluster`]. Fixed-width `u64` keys,
/// 64-byte values.
#[derive(Clone)]
pub struct BpTreeIndex {
    cluster: DmCluster,
    meta: RemotePtr,
    caches: Arc<Mutex<HashMap<u16, Arc<Mutex<InternalCache>>>>>,
    cache_bytes: usize,
}

impl fmt::Debug for BpTreeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BpTreeIndex")
            .field("meta", &self.meta)
            .finish_non_exhaustive()
    }
}

impl BpTreeIndex {
    /// Builds the tree: a meta block (SMO lock, root pointer, height) and
    /// one empty root leaf. `cache_bytes` is the per-CN internal-node
    /// cache budget.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn create(cluster: &DmCluster, cache_bytes: usize) -> Result<Self, BpTreeError> {
        let mut boot = cluster.client(0);
        let meta = boot.alloc(0, 24)?;
        let root = BpNode::new_leaf(u64::MAX);
        let root_ptr = boot.alloc(cluster.place(1), NODE_BYTES)?;
        boot.write(root_ptr, &root.encode())?;
        boot.write_u64(meta.checked_add(8)?, root_ptr.to_raw())?;
        boot.write_u64(meta.checked_add(16)?, 1)?; // height
        Ok(BpTreeIndex {
            cluster: cluster.clone(),
            meta,
            caches: Arc::new(Mutex::new(HashMap::new())),
            cache_bytes,
        })
    }

    /// Creates a worker client on compute node `cn_id` (workers of one CN
    /// share its internal-node cache).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    ///
    /// # Panics
    ///
    /// Panics if `cn_id` is out of range for the cluster.
    pub fn client(&self, cn_id: u16) -> Result<BpTreeClient, BpTreeError> {
        let cache = self
            .caches
            .lock()
            .entry(cn_id)
            .or_insert_with(|| Arc::new(Mutex::new(InternalCache::new(self.cache_bytes))))
            .clone();
        Ok(BpTreeClient {
            worker: Worker::detached(self.cluster.client(cn_id)),
            meta: self.meta,
            cache,
            root_hint: None,
        })
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &DmCluster {
        &self.cluster
    }

    /// Total MN-side bytes (all allocations belong to the tree).
    pub fn memory_bytes(&self) -> u64 {
        self.cluster.total_live_bytes()
    }

    /// Structural statistics via a full leaf-chain walk (diagnostics).
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn stats(&self) -> Result<BpTreeStats, BpTreeError> {
        let mut client = self.client(0)?;
        let height = client.worker.dm.read_u64(self.meta.checked_add(16)?)?;
        // Walk to the leftmost leaf, then along the chain.
        let (_, mut leaf) = client.find_leaf(0)?;
        let mut leaves = 1usize;
        let mut entries = leaf.entries.len();
        while !leaf.right.is_null() {
            leaf = client.read_node(leaf.right)?;
            leaves += 1;
            entries += leaf.entries.len();
        }
        Ok(BpTreeStats {
            height: height as usize,
            leaves,
            entries,
            leaf_occupancy: entries as f64 / (leaves * crate::layout::LEAF_CAP) as f64,
        })
    }
}

/// Structural statistics from [`BpTreeIndex::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpTreeStats {
    /// Tree height in levels (1 = a single leaf).
    pub height: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Live entries.
    pub entries: usize,
    /// Entries / leaf capacity.
    pub leaf_occupancy: f64,
}

/// A per-worker B+-tree client.
#[derive(Debug)]
pub struct BpTreeClient {
    /// Transport, budgets and instruments; its reclamation handle is
    /// detached (the tree never unlinks a node) and no span is opened.
    worker: Worker,
    meta: RemotePtr,
    cache: Arc<Mutex<InternalCache>>,
    /// Cached root pointer; stale roots are safe (B-link right-chase).
    root_hint: Option<RemotePtr>,
}

impl BpTreeClient {
    /// The worker: clock, schedule and tracing controls.
    pub fn worker(&mut self) -> &mut Worker {
        &mut self.worker
    }

    /// Network statistics.
    pub fn net_stats(&self) -> dm_sim::ClientStats {
        self.worker.dm.stats()
    }

    /// Virtual clock, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.worker.dm.clock_ns()
    }

    fn backoff(&mut self) {
        self.worker.dm.backoff(&self.worker.retry);
    }

    fn root(&mut self, refresh: bool) -> Result<RemotePtr, BpTreeError> {
        if refresh || self.root_hint.is_none() {
            let raw = self.worker.dm.read_u64(self.meta.checked_add(8)?)?;
            self.root_hint = Some(RemotePtr::from_raw(raw));
        }
        Ok(self.root_hint.expect("just set"))
    }

    /// Consistent (seqlock-validated) read of one node.
    fn read_node(&mut self, ptr: RemotePtr) -> Result<BpNode, BpTreeError> {
        for _ in 0..self.worker.retry.op_retries {
            let bytes = self.worker.dm.read(ptr, NODE_BYTES)?;
            if let Some(node) = BpNode::decode(&bytes) {
                return Ok(node);
            }
            self.backoff();
        }
        Err(BpTreeError::RetriesExhausted { op: "node read" })
    }

    /// Publishes `node` at `ptr`, releasing its write lock: tail version
    /// first, body second, header last — all one doorbell batch — so
    /// seqlock readers can never accept a torn image.
    fn write_node(&mut self, ptr: RemotePtr, node: &BpNode) -> Result<(), BpTreeError> {
        let image = node.encode();
        self.worker.dm.write_many(vec![
            (
                ptr.checked_add(TAIL_OFFSET as u64)?,
                image[TAIL_OFFSET..].to_vec(),
            ),
            (ptr.checked_add(8)?, image[8..TAIL_OFFSET].to_vec()),
            (ptr, image[0..8].to_vec()),
        ])?;
        self.cache.lock().invalidate(ptr);
        Ok(())
    }

    /// Heavy chasing means our hints are badly stale: start clean next
    /// time.
    fn note_chases(&mut self, chases: usize) {
        if chases > 8 {
            self.root_hint = None;
            self.cache.lock().clear();
        }
    }

    /// The leaf owning `key` and its address: one [`to_leaf`] run alone.
    fn find_leaf(&mut self, key: u64) -> Result<(RemotePtr, BpNode), BpTreeError> {
        let root = self.root(false)?;
        let lend = Lend::new(&mut self.worker, |w| w);
        let mut io = lend.lookup(None);
        let leaf = block_on(&lend, to_leaf(&mut io, &self.cache, key, root))?;
        self.note_chases(leaf.chases);
        Ok((leaf.ptr, leaf.node))
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// [`BpTreeError::RetriesExhausted`] under pathological contention.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, BpTreeError> {
        Ok(value_in(&self.find_leaf(key)?.1, key))
    }

    /// Looks up many keys keeping up to `depth` lookups in flight: each
    /// key runs the [`to_leaf`] body [`BpTreeClient::get`] runs alone
    /// (cache-aware descent plus B-link right-chase), and every scheduling
    /// round the whole window's node reads go out in one fused doorbell.
    /// Results align with `keys`.
    ///
    /// # Errors
    ///
    /// Same classes as [`BpTreeClient::get`].
    pub fn get_many_pipelined(
        &mut self,
        keys: &[u64],
        depth: usize,
    ) -> Result<Vec<Option<Vec<u8>>>, BpTreeError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let traces: Vec<TraceCell> = keys
            .iter()
            .map(|_| TraceCell::new(self.worker.lease(OpKind::Get)))
            .collect();
        let mark = self.worker.dm.trace_mark();
        let root = self.root(false)?;
        let lend = Lend::new(&mut self.worker, |w| w);
        let cache = &self.cache;
        let lookups = keys.iter().zip(&traces).map(|(&key, trace)| {
            let mut io = lend.lookup(Some(trace));
            async move { to_leaf(&mut io, cache, key, root).await }
        });
        let leaves = run_pipelined(&lend, lookups, depth)?;
        let traces = traces.into_iter().filter_map(TraceCell::into_inner);
        self.worker.finish_traces_since(mark, traces);
        // Once per batch, where a lone descent does it once per key.
        self.note_chases(leaves.iter().map(|leaf| leaf.chases).max().unwrap_or(0));
        Ok(leaves
            .iter()
            .zip(keys)
            .map(|(leaf, &key)| value_in(&leaf.node, key))
            .collect())
    }

    /// This worker's telemetry: its pipelined-execution counters (the tree
    /// opens no span).
    pub fn telemetry(&self) -> obs::Registry {
        self.worker.registry()
    }

    /// Inserts or overwrites `key` (upsert). Values longer than
    /// [`crate::VALUE_LEN`] are truncated; shorter ones zero-padded.
    ///
    /// # Errors
    ///
    /// [`BpTreeError::RetriesExhausted`] under pathological contention.
    pub fn insert(&mut self, key: u64, value: &[u8]) -> Result<(), BpTreeError> {
        let value = BpNode::value_from(value);
        for _ in 0..self.worker.retry.op_retries {
            let (ptr, leaf) = self.find_leaf(key)?;
            let exists = leaf.entries.binary_search_by_key(&key, |(k, _)| *k).is_ok();
            if !exists && leaf.is_full() {
                self.split_leaf(key)?;
                continue;
            }
            if !self.try_lock(ptr, &leaf)? {
                self.backoff();
                continue;
            }
            let mut fresh = leaf;
            match fresh.entries.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => fresh.entries[i].1 = value,
                Err(i) => fresh.entries.insert(i, (key, value)),
            }
            if fresh.entries.len() > crate::layout::LEAF_CAP {
                // Filled up between our read and lock: unlock and split.
                self.unlock(ptr, &fresh.header)?;
                self.split_leaf(key)?;
                continue;
            }
            fresh.header.version = fresh.header.version.wrapping_add(1);
            fresh.header.locked = false;
            self.write_node(ptr, &fresh)?;
            return Ok(());
        }
        Err(BpTreeError::RetriesExhausted { op: "insert" })
    }

    /// Updates an existing key; returns `false` when absent.
    ///
    /// # Errors
    ///
    /// [`BpTreeError::RetriesExhausted`] under pathological contention.
    pub fn update(&mut self, key: u64, value: &[u8]) -> Result<bool, BpTreeError> {
        let value = BpNode::value_from(value);
        for _ in 0..self.worker.retry.op_retries {
            let (ptr, leaf) = self.find_leaf(key)?;
            let Ok(i) = leaf.entries.binary_search_by_key(&key, |(k, _)| *k) else {
                return Ok(false);
            };
            if !self.try_lock(ptr, &leaf)? {
                self.backoff();
                continue;
            }
            let mut fresh = leaf;
            fresh.entries[i].1 = value;
            fresh.header.version = fresh.header.version.wrapping_add(1);
            fresh.header.locked = false;
            self.write_node(ptr, &fresh)?;
            return Ok(true);
        }
        Err(BpTreeError::RetriesExhausted { op: "update" })
    }

    /// Removes a key; returns whether it was present. Leaves are never
    /// merged (like the ART family here; deletes are rare in the
    /// workloads).
    ///
    /// # Errors
    ///
    /// [`BpTreeError::RetriesExhausted`] under pathological contention.
    pub fn remove(&mut self, key: u64) -> Result<bool, BpTreeError> {
        for _ in 0..self.worker.retry.op_retries {
            let (ptr, leaf) = self.find_leaf(key)?;
            let Ok(i) = leaf.entries.binary_search_by_key(&key, |(k, _)| *k) else {
                return Ok(false);
            };
            if !self.try_lock(ptr, &leaf)? {
                self.backoff();
                continue;
            }
            let mut fresh = leaf;
            fresh.entries.remove(i);
            fresh.header.version = fresh.header.version.wrapping_add(1);
            fresh.header.locked = false;
            self.write_node(ptr, &fresh)?;
            return Ok(true);
        }
        Err(BpTreeError::RetriesExhausted { op: "remove" })
    }

    /// All `(key, value)` with `low <= key <= high`, ascending — a linked
    /// leaf-chain walk, the B+-tree's signature scan.
    ///
    /// # Errors
    ///
    /// [`BpTreeError::RetriesExhausted`] under pathological contention.
    pub fn scan(&mut self, low: u64, high: u64) -> Result<Vec<(u64, Vec<u8>)>, BpTreeError> {
        let mut out = Vec::new();
        if low > high {
            return Ok(out);
        }
        let (_, mut leaf) = self.find_leaf(low)?;
        loop {
            for (k, v) in &leaf.entries {
                if *k >= low && *k <= high {
                    out.push((*k, v.to_vec()));
                }
            }
            if leaf.high_key > high || leaf.right.is_null() {
                return Ok(out);
            }
            leaf = self.read_node(leaf.right)?;
        }
    }

    /// CAS the node's header from its known unlocked form to locked.
    fn try_lock(&mut self, ptr: RemotePtr, node: &BpNode) -> Result<bool, BpTreeError> {
        let mut h = node.header;
        h.count = if node.is_leaf() {
            node.entries.len()
        } else {
            node.seps.len()
        } as u16;
        let expected = h.encode();
        let locked = NodeHeader { locked: true, ..h }.encode();
        Ok(self.worker.dm.cas(ptr, expected, locked)? == expected)
    }

    fn unlock(&mut self, ptr: RemotePtr, header: &NodeHeader) -> Result<(), BpTreeError> {
        let locked = NodeHeader {
            locked: true,
            ..*header
        }
        .encode();
        let idle = NodeHeader {
            locked: false,
            ..*header
        }
        .encode();
        let _ = self.worker.dm.cas(ptr, locked, idle)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structure modifications (serialized by the tree-wide SMO lock).
    // ------------------------------------------------------------------

    fn smo_lock(&mut self) -> Result<(), BpTreeError> {
        for _ in 0..self.worker.retry.op_retries {
            if self.worker.dm.cas(self.meta, 0, 1)? == 0 {
                return Ok(());
            }
            self.backoff();
        }
        Err(BpTreeError::RetriesExhausted { op: "smo lock" })
    }

    fn smo_unlock(&mut self) -> Result<(), BpTreeError> {
        self.worker.dm.write_u64(self.meta, 0)?;
        Ok(())
    }

    /// Splits the (full) leaf responsible for `key`, updating ancestors as
    /// needed. Holds the SMO lock throughout; holds each modified node's
    /// write lock while rewriting it.
    fn split_leaf(&mut self, key: u64) -> Result<(), BpTreeError> {
        self.smo_lock()?;
        let result = self.split_locked(key);
        self.smo_unlock()?;
        result
    }

    fn split_locked(&mut self, key: u64) -> Result<(), BpTreeError> {
        // Fresh descent recording the path (internal structure only
        // changes under the SMO lock we hold, so the path is stable).
        let root_ptr = self.root(true)?;
        let mut path: Vec<(RemotePtr, BpNode)> = Vec::new();
        let mut ptr = root_ptr;
        let mut node = self.read_node(ptr)?;
        loop {
            while key >= node.high_key && !node.right.is_null() {
                ptr = node.right;
                node = self.read_node(ptr)?;
            }
            if node.is_leaf() {
                break;
            }
            let child = node.child_for(key);
            path.push((ptr, node));
            ptr = child;
            node = self.read_node(ptr)?;
        }
        if !node.is_full() {
            return Ok(()); // someone else already split it
        }

        // Lock the leaf for the duration of its rewrite.
        let mut locked = false;
        for _ in 0..self.worker.retry.op_retries {
            if self.try_lock(ptr, &node)? {
                locked = true;
                break;
            }
            self.backoff();
            node = self.read_node(ptr)?;
            if !node.is_full() {
                return Ok(());
            }
        }
        if !locked {
            return Err(BpTreeError::RetriesExhausted {
                op: "split leaf lock",
            });
        }

        // Split the leaf: upper half moves right (keys never move left,
        // the invariant B-link correctness rests on).
        let mid = node.entries.len() / 2;
        let sep = node.entries[mid].0;
        let mut rightn = BpNode::new_leaf(node.high_key);
        rightn.entries = node.entries.split_off(mid);
        rightn.right = node.right;
        let right_ptr = self
            .worker
            .dm
            .alloc(self.worker.dm.place(sep), NODE_BYTES)?;
        self.worker.dm.write(right_ptr, &rightn.encode())?; // invisible until linked
        node.high_key = sep;
        node.right = right_ptr;
        node.header.version = node.header.version.wrapping_add(1);
        node.header.locked = false;
        self.write_node(ptr, &node)?;

        // Insert (sep → right) into ancestors, splitting upward as needed.
        let mut insert_key = sep;
        let mut insert_child = right_ptr;
        let mut level = 1u8;
        loop {
            match path.pop() {
                Some((pptr, mut parent)) => {
                    let at = parent
                        .seps
                        .binary_search_by_key(&insert_key, |(s, _)| *s)
                        .unwrap_or_else(|i| i);
                    parent.seps.insert(at, (insert_key, insert_child));
                    if parent.seps.len() <= crate::layout::INTERNAL_CAP {
                        parent.header.version = parent.header.version.wrapping_add(1);
                        self.write_node(pptr, &parent)?;
                        return Ok(());
                    }
                    // Split the internal node too.
                    let midp = parent.seps.len() / 2;
                    let psep = parent.seps[midp].0;
                    let mut pright = BpNode::new_internal(parent.header.level, parent.high_key);
                    pright.seps = parent.seps.split_off(midp);
                    pright.right = parent.right;
                    let pright_ptr = self
                        .worker
                        .dm
                        .alloc(self.worker.dm.place(psep), NODE_BYTES)?;
                    self.worker.dm.write(pright_ptr, &pright.encode())?;
                    parent.high_key = psep;
                    parent.right = pright_ptr;
                    parent.header.version = parent.header.version.wrapping_add(1);
                    self.write_node(pptr, &parent)?;
                    insert_key = psep;
                    insert_child = pright_ptr;
                    level = parent.header.level + 1;
                }
                None => {
                    // Split reached the root: grow the tree by one level.
                    let old_root = self.root(true)?;
                    let mut new_root = BpNode::new_internal(level, u64::MAX);
                    new_root.seps.push((0, old_root));
                    new_root.seps.push((insert_key, insert_child));
                    let new_root_ptr = self
                        .worker
                        .dm
                        .alloc(self.worker.dm.place(insert_key), NODE_BYTES)?;
                    self.worker.dm.write(new_root_ptr, &new_root.encode())?;
                    self.worker
                        .dm
                        .write_u64(self.meta.checked_add(8)?, new_root_ptr.to_raw())?;
                    let _ = self.worker.dm.faa(self.meta.checked_add(16)?, 1)?;
                    self.root_hint = Some(new_root_ptr);
                    return Ok(());
                }
            }
        }
    }
}

/// The value `leaf` holds for `key`.
fn value_in(leaf: &BpNode, key: u64) -> Option<Vec<u8>> {
    let at = leaf.entries.binary_search_by_key(&key, |(k, _)| *k).ok()?;
    Some(leaf.entries[at].1.to_vec())
}

/// The leaf owning a key, and the chase count for cache hygiene.
struct BpLeaf {
    ptr: RemotePtr,
    node: BpNode,
    chases: usize,
}

/// The descent to the leaf owning `key` from `root` — the only one the
/// tree has: every remote node read is an awaited round trip, cache hits
/// advance CPU-side, B-link right pointers are chased past concurrent
/// splits and stale caches (right links are finite and only move keys
/// rightward, so the chase terminates).
async fn to_leaf(
    io: &mut Io<'_, '_, Worker>,
    cache: &Mutex<InternalCache>,
    key: u64,
    root: RemotePtr,
) -> Result<BpLeaf, EngineError> {
    let retry = io.with(|w| w.retry);
    // Nodes visited (bounded by `op_retries`), right-chases performed.
    let (mut hops, mut chases) = (0, 0);
    let (mut ptr, mut use_cache) = (root, true);
    loop {
        let cached = if use_cache {
            cache.lock().get(ptr)
        } else {
            None
        };
        let node = match cached {
            Some(node) => node,
            None => {
                io.phase(Phase::Traversal);
                let mut attempts = 0;
                loop {
                    let bytes = io.read(ptr, NODE_BYTES, Phase::Traversal as u32).await?;
                    if let Some(node) = BpNode::decode(&bytes) {
                        cache.lock().put(ptr, node.clone());
                        break node;
                    }
                    // Torn seqlock read: back off and re-read.
                    let now = io.now();
                    io.retry_at(now);
                    attempts += 1;
                    if attempts >= retry.op_retries {
                        return Err(EngineError::RetriesExhausted { op: "node read" });
                    }
                    io.with(|w| w.dm.backoff(&retry));
                }
            }
        };
        hops += 1;
        if hops >= retry.op_retries {
            return Err(EngineError::RetriesExhausted { op: "descend" });
        }
        if key >= node.high_key && !node.right.is_null() {
            chases += 1;
            (ptr, use_cache) = (node.right, false); // fresh: fences moved
            continue;
        }
        if node.is_leaf() {
            io.end();
            return Ok(BpLeaf { ptr, node, chases });
        }
        (ptr, use_cache) = (node.child_for(key), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::ClusterConfig;

    fn index() -> BpTreeIndex {
        let cluster = DmCluster::new(ClusterConfig {
            mn_capacity: 256 << 20,
            ..ClusterConfig::default()
        });
        BpTreeIndex::create(&cluster, 256 << 10).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        c.insert(42, b"answer").unwrap();
        assert_eq!(&c.get(42).unwrap().unwrap()[..6], b"answer");
        assert_eq!(c.get(43).unwrap(), None);
    }

    #[test]
    fn upsert_and_update() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        c.insert(7, b"one").unwrap();
        c.insert(7, b"two").unwrap();
        assert_eq!(&c.get(7).unwrap().unwrap()[..3], b"two");
        assert!(c.update(7, b"three").unwrap());
        assert!(!c.update(8, b"x").unwrap());
        assert_eq!(&c.get(7).unwrap().unwrap()[..5], b"three");
    }

    #[test]
    fn grows_through_many_splits() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        let n = 5_000u64;
        for i in 0..n {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            c.insert(key, &i.to_le_bytes()).unwrap();
        }
        for i in 0..n {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let v = c.get(key).unwrap().unwrap_or_else(|| panic!("lost {i}"));
            assert_eq!(&v[..8], &i.to_le_bytes());
        }
    }

    #[test]
    fn remove_semantics() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        for i in 0..100u64 {
            c.insert(i, &i.to_le_bytes()).unwrap();
        }
        assert!(c.remove(50).unwrap());
        assert!(!c.remove(50).unwrap());
        assert_eq!(c.get(50).unwrap(), None);
        assert!(c.get(49).unwrap().is_some());
    }

    #[test]
    fn scan_linked_leaves() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        for i in 0..500u64 {
            c.insert(i * 3, &i.to_le_bytes()).unwrap();
        }
        let hits = c.scan(30, 90).unwrap();
        let keys: Vec<u64> = hits.iter().map(|(k, _)| *k).collect();
        let want: Vec<u64> = (0..500)
            .map(|i| i * 3)
            .filter(|k| (30..=90).contains(k))
            .collect();
        assert_eq!(keys, want);
        assert!(c.scan(90, 30).unwrap().is_empty());
    }

    #[test]
    fn scan_cost_is_leaf_chain() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        for i in 0..2_000u64 {
            c.insert(i, b"v").unwrap();
        }
        let before = c.net_stats().round_trips;
        let hits = c.scan(1000, 1129).unwrap();
        let rts = c.net_stats().round_trips - before;
        assert_eq!(hits.len(), 130);
        // Sequential load half-fills leaves (mid-point splits), so 130
        // entries span ~19 leaves, plus a short descent.
        assert!(rts < 32, "scan took {rts} round trips");
    }

    #[test]
    fn concurrent_inserts_disjoint_and_shared() {
        let idx = index();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = idx.clone();
                s.spawn(move || {
                    let mut c = idx.client((t % 3) as u16).unwrap();
                    for i in 0..800u64 {
                        let key = t * 1_000_000 + i * 7;
                        c.insert(key, &key.to_le_bytes()).unwrap();
                    }
                });
            }
        });
        let mut c = idx.client(0).unwrap();
        for t in 0..4u64 {
            for i in (0..800u64).step_by(13) {
                let key = t * 1_000_000 + i * 7;
                let v = c.get(key).unwrap().unwrap_or_else(|| panic!("lost {key}"));
                assert_eq!(&v[..8], &key.to_le_bytes());
            }
        }
    }

    #[test]
    fn concurrent_updates_same_keys_stay_intact() {
        let idx = index();
        {
            let mut c = idx.client(0).unwrap();
            for i in 0..50u64 {
                c.insert(i, &[0u8; 32]).unwrap();
            }
        }
        std::thread::scope(|s| {
            for t in 0..3u8 {
                let idx = idx.clone();
                s.spawn(move || {
                    let mut c = idx.client(t as u16).unwrap();
                    for r in 0..200u64 {
                        let key = (r * 7 + t as u64) % 50;
                        c.update(key, &[t + 1; 32]).unwrap();
                        if let Some(v) = c.get(key).unwrap() {
                            let tag = v[0];
                            assert!(v[..32].iter().all(|&b| b == tag), "torn value {v:?}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn stats_reflect_structure() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        for i in 0..1_000u64 {
            c.insert(i, &i.to_le_bytes()).unwrap();
        }
        let stats = idx.stats().unwrap();
        assert_eq!(stats.entries, 1_000);
        assert!(stats.height >= 2, "1000 entries cannot fit one leaf");
        assert!(stats.leaves >= 77, "13-entry leaves: {}", stats.leaves);
        assert!(stats.leaf_occupancy > 0.3 && stats.leaf_occupancy <= 1.0);
    }

    #[test]
    fn pipelined_get_matches_blocking_and_fuses() {
        let idx = index();
        let mut c = idx.client(0).unwrap();
        let n = 3_000u64;
        for i in 0..n {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            c.insert(key, &i.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = (0..600u64)
            .map(|i| (i * 5).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let expected: Vec<_> = keys.iter().map(|&k| c.get(k).unwrap()).collect();

        let s0 = c.net_stats();
        let got1 = c.get_many_pipelined(&keys, 1).unwrap();
        let d1 = c.net_stats().since(&s0);
        assert_eq!(got1, expected);
        assert_eq!(d1.doorbells, d1.round_trips, "depth 1 never fuses");

        let s0 = c.net_stats();
        let got8 = c.get_many_pipelined(&keys, 8).unwrap();
        let d8 = c.net_stats().since(&s0);
        assert_eq!(got8, expected);
        assert_eq!(
            d8.round_trips, d1.round_trips,
            "logical round trips are depth-independent"
        );
        assert!(
            d8.doorbells < d1.doorbells,
            "depth 8 must fuse: {} vs {}",
            d8.doorbells,
            d1.doorbells
        );
        assert!(c.worker.pipeline.fused_batches > 0);
    }

    #[test]
    fn stale_root_hint_is_healed_by_blink_chase() {
        let idx = index();
        let mut old = idx.client(0).unwrap();
        old.insert(1, b"seed").unwrap(); // fixes old.root_hint at height 1
        let mut writer = idx.client(1).unwrap();
        for i in 0..3_000u64 {
            writer.insert(i * 11, &i.to_le_bytes()).unwrap(); // grows height
        }
        // The stale client must still find keys anywhere in the range.
        for i in (0..3_000u64).step_by(97) {
            assert!(old.get(i * 11).unwrap().is_some(), "stale-root miss at {i}");
        }
    }
}
