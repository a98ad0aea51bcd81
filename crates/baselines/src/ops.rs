//! Baseline index operations: root-to-leaf traversal (with optional node
//! cache) as one `async fn` lookup, scans, and what the baselines add to
//! the write protocol of [`node_engine::write`] — inserts with splits and
//! type switches, updates, deletes.
//!
//! The traversal is [`node_engine::follow`], the descent every ART system
//! awaits; [`locate`] wraps it with what a baseline adds — the root fetch
//! through the cached root word, the root-word retry, and SMART's CN node
//! cache as the descent's consult / fill / invalidate hooks. Every point
//! operation runs one lookup alone under [`node_engine::block_on`];
//! [`BaselineClient::get_many_pipelined`] runs one per key at depth N
//! under [`node_engine::run_pipelined`]. The root-word retry and the leaf
//! sample need the whole client: they are drained steps, served after
//! every peer of the run has stopped, in key order.

use art_core::key::MAX_KEY_LEN;
use art_core::layout::{InnerNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{DmError, RemotePtr};
use node_engine::walk::{self, Rows, Tracked};
use node_engine::write;
use node_engine::{
    block_on, follow, install_word, run_pipelined, write_new_inner, write_new_leaf, ArtReader,
    DescendHost, Descent, EngineError, Install, Io, LeafReadStats, Lend, Outcome, TraceCell, Via,
    Worker, WriteHost,
};
use obs::{OpKind, Phase};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::cache::NodeCache;
use crate::error::BaselineError;
use crate::index::BaselineClient;

/// Submission tag of the root read: the phase its round trip is
/// attributed to (by the span for a lookup driven alone, by
/// [`node_engine::PipelineStats::by_tag`] in a pipelined run).
const TAG_TRAVERSAL: u32 = Phase::Traversal as u32;

type BaselineIo<'l, 'c> = Io<'l, 'c, BaselineClient>;

/// SMART's CN node cache as one lookup sees it — the descent's consult /
/// fill / invalidate hooks, and the one place on the read side that touches
/// the cache — with what came of it.
#[derive(Default)]
struct CacheView {
    /// `None`: the plain ART.
    cache: Option<Arc<Mutex<NodeCache>>>,
    /// Whether this pass may be served from the cache at all.
    allowed: bool,
    /// Whether a node on the path came from the cache: a miss is then only
    /// as fresh as that copy.
    used: bool,
    /// Whether the node last consulted was a hit.
    last_hit: bool,
    hits: u64,
    misses: u64,
}

impl DescendHost<BaselineClient> for CacheView {
    fn cached(
        &mut self,
        _: &mut BaselineClient,
        ptr: RemotePtr,
        kind: NodeKind,
    ) -> Option<InnerNode> {
        self.last_hit = false;
        let cache = self.cache.as_ref().filter(|_| self.allowed)?;
        let hit = cache.lock().get(ptr);
        if let Some(node) = hit {
            if node.header.kind == kind {
                self.hits += 1;
                self.last_hit = true;
                return Some(node);
            }
            cache.lock().invalidate(ptr);
        }
        self.misses += 1;
        None
    }

    fn fetched(
        &mut self,
        _: &mut BaselineClient,
        ptr: RemotePtr,
        kind: NodeKind,
        node: &InnerNode,
    ) {
        if let Some(cache) = &self.cache {
            if node.header.status == NodeStatus::Idle && node.header.kind == kind {
                cache.lock().put(ptr, node.clone());
            }
        }
    }

    fn unusable(&mut self, _: &mut BaselineClient, ptr: RemotePtr) {
        if let Some(cache) = &self.cache {
            cache.lock().invalidate(ptr);
        }
    }

    fn child_matched(&mut self, _: &mut BaselineClient, _prefix: &[u8]) {
        self.used |= self.last_hit;
    }
}

/// Root-to-leaf traversal of `key` from the cached root word — one
/// network round trip per uncached level, the cost profile that motivates
/// Sphinx — served from the node cache if `use_cache`. Returns the descent
/// and whether a node on its path came from the cache.
async fn locate(
    io: &mut BaselineIo<'_, '_>,
    key: &[u8],
    use_cache: bool,
) -> Result<(Descent, bool), BaselineError> {
    let mut view = io.with(|c| CacheView {
        cache: c.cache.clone(),
        allowed: use_cache,
        ..CacheView::default()
    });
    // Traversals retaken so far (bounded by `op_retries`).
    let mut attempts = 0;
    if io.alone() {
        io.phase(Phase::Traversal);
    }
    io.resume_in(Phase::Traversal);
    let descent = loop {
        let (root, root_word) =
            io.with(|c| Ok::<_, BaselineError>((c.root_slot(false)?, c.meta.root_word)))?;
        let (addr, kind) = (root.addr, root.child_kind);
        let cached = io.with(|c| view.cached(c, addr, kind));
        view.used = cached.is_some();
        let node = match cached {
            Some(node) => node,
            None => {
                let bytes = io
                    .read(addr, InnerNode::byte_size(kind), TAG_TRAVERSAL)
                    .await?;
                let node = InnerNode::decode(&bytes).map_err(EngineError::from)?;
                io.with(|c| view.fetched(c, addr, kind, &node));
                node
            }
        };
        let via = Via {
            parent: None,
            word_ptr: root_word,
            expected: root.encode(),
        };
        if let Some(descent) = follow(io, &mut view, key, node, addr, Some(via)).await? {
            break descent;
        }
        // A node on the path was retired or mid type-switch: count the
        // retry, refresh the root word, back off, retake the traversal.
        io.drained(|io| {
            if !io.alone() {
                let now = io.now();
                io.retry_at(now);
            }
            io.with(|c| {
                c.stats.retries += 1;
                c.worker.retried();
                c.worker.phase(Phase::Retry);
                c.root_slot(true)?;
                if attempts > 2 {
                    c.worker.dm.backoff(&c.worker.retry);
                }
                attempts += 1;
                if attempts >= c.worker.retry.op_retries {
                    return Err(BaselineError::RetriesExhausted { op: "locate" });
                }
                Ok(())
            })
        })
        .await?;
    };
    io.end();
    io.with(|c| c.note_cache_use(&view));
    Ok((descent, view.used))
}

/// Whether a traversal missed `key` after stepping through a cached node:
/// a stale copy can hide recent inserts, so such a miss is confirmed by a
/// remote traversal (our stand-in for SMART's reverse check).
fn missed_through_cache((descent, used): &(Descent, bool), key: &[u8]) -> bool {
    let found = matches!(&descent.outcome, Outcome::Leaf { leaf, .. } if leaf.key == key);
    *used && !found
}

/// A point lookup: [`locate`] through the cache, confirmed remotely when
/// it missed through a cached node.
async fn get(io: &mut BaselineIo<'_, '_>, key: &[u8]) -> Result<Option<Vec<u8>>, BaselineError> {
    let mut found = locate(io, key, true).await?;
    if missed_through_cache(&found, key) {
        found = locate(io, key, false).await?;
    }
    Ok(found.0.into_value(key))
}

fn check_len(key: &[u8]) -> Result<(), BaselineError> {
    if key.len() > MAX_KEY_LEN {
        return Err(BaselineError::KeyTooLong { len: key.len() });
    }
    Ok(())
}

impl BaselineClient {
    /// The root slot word, cached client-side (refreshed when stale).
    fn root_slot(&mut self, refresh: bool) -> Result<Slot, BaselineError> {
        if refresh || self.root_slot.is_none() {
            let word = self.worker.dm.read_u64(self.meta.root_word)?;
            self.root_slot =
                Some(Slot::decode(word).ok_or(BaselineError::Corrupt { what: "null root" })?);
        }
        Ok(self.root_slot.expect("just set"))
    }

    /// Reads an inner node outside a lookup (a scan's root, the walks'
    /// nodes): from the CN node cache when `use_cache`, else remotely,
    /// filling the cache.
    fn read_inner_mc(
        &mut self,
        ptr: RemotePtr,
        kind: NodeKind,
        use_cache: bool,
    ) -> Result<InnerNode, EngineError> {
        let mut view = CacheView {
            cache: self.cache.clone(),
            allowed: use_cache,
            ..CacheView::default()
        };
        let node = match view.cached(self, ptr, kind) {
            Some(node) => node,
            None => {
                let node =
                    InnerNode::decode(&self.transport().read(ptr, InnerNode::byte_size(kind))?)?;
                view.fetched(self, ptr, kind, &node);
                node
            }
        };
        self.note_cache_use(&view);
        Ok(node)
    }

    fn note_cache_use(&mut self, view: &CacheView) {
        self.worker.obs.add("cache.hit", view.hits);
        self.worker.obs.add("cache.miss", view.misses);
    }

    // ------------------------------------------------------------------
    // Public operations.
    // ------------------------------------------------------------------

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// [`BaselineError::KeyTooLong`] or substrate errors.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, BaselineError> {
        check_len(key)?;
        self.stats.gets += 1;
        self.worker.begin(OpKind::Get);
        let lend = Lend::new(self, BaselineClient::worker);
        let mut io = lend.alone();
        let r = block_on(&lend, get(&mut io, key));
        self.worker.exit(|_| {});
        r
    }

    /// Looks up many keys keeping up to `depth` lookups in flight: one
    /// lookup per key — the one [`BaselineClient::get`] runs alone — whose
    /// reads share a fused doorbell every scheduling round
    /// ([`dm_sim::DmClient::flush_submitted`]). Lookups in one window see
    /// the node cache as they find it: a node evicted or invalidated under
    /// a lookup in flight is simply fetched. The misses that stepped
    /// through a cached node are confirmed by a second run. Results are
    /// positionally aligned with `keys`; depth 1 issues the network charges
    /// of a loop of `get`s.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::get`].
    pub fn get_many_pipelined(
        &mut self,
        keys: &[&[u8]],
        depth: usize,
    ) -> Result<Vec<Option<Vec<u8>>>, BaselineError> {
        keys.iter().try_for_each(|key| check_len(key))?;
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        self.worker.begin(OpKind::MultiGet);
        let traces: Vec<TraceCell> = keys
            .iter()
            .map(|_| TraceCell::new(self.worker.lease(OpKind::Get)))
            .collect();
        let run = self.get_runs(keys, &traces, depth);
        if run.is_ok() {
            let traces = traces.into_iter().filter_map(TraceCell::into_inner);
            self.worker.finish_traces(traces);
        }
        self.stats.gets += keys.len() as u64;
        self.worker.unpin_keys(keys.len());
        self.worker.exit(|_| {});
        run
    }

    /// The runs of [`BaselineClient::get_many_pipelined`]: every key
    /// through the cache, then the misses through a cached node remotely.
    fn get_runs(
        &mut self,
        keys: &[&[u8]],
        traces: &[TraceCell],
        depth: usize,
    ) -> Result<Vec<Option<Vec<u8>>>, BaselineError> {
        // The root word is read before the first lookup is admitted.
        self.root_slot(false)?;
        let lend = Lend::new(self, BaselineClient::worker);
        let all = keys.iter().zip(traces);
        let through_cache = all.clone().map(|(key, trace)| {
            let mut io = lend.lookup(Some(trace));
            async move { locate(&mut io, key, true).await }
        });
        let found = run_pipelined(&lend, through_cache, depth)?;
        let missed = all
            .zip(&found)
            .filter(|((key, _), f)| missed_through_cache(f, key));
        let remote = missed.map(|((key, trace), _)| {
            let mut io = lend.lookup(Some(trace));
            async move { locate(&mut io, key, false).await }
        });
        let mut confirmed = run_pipelined(&lend, remote, depth)?.into_iter();
        Ok(found
            .into_iter()
            .zip(keys)
            .map(|(mut f, key)| {
                if missed_through_cache(&f, key) {
                    f = confirmed.next().expect("one confirmation per miss");
                }
                f.0.into_value(key)
            })
            .collect())
    }

    /// Inserts or overwrites `key` with `value`.
    ///
    /// # Errors
    ///
    /// [`BaselineError::RetriesExhausted`] under pathological contention,
    /// or substrate errors.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), BaselineError> {
        self.stats.inserts += 1;
        self.worker.begin(OpKind::Insert);
        let r = write::insert(self, key, value);
        self.worker.exit(|_| {});
        r
    }

    /// Updates an existing key. Returns `false` if absent.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::insert`].
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool, BaselineError> {
        self.stats.updates += 1;
        self.worker.begin(OpKind::Update);
        let r = write::update(self, key, value);
        self.worker.exit(|_| {});
        r
    }

    /// Deletes a key. Returns whether this client performed the deletion.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::insert`].
    pub fn remove(&mut self, key: &[u8]) -> Result<bool, BaselineError> {
        self.stats.deletes += 1;
        self.worker.begin(OpKind::Delete);
        let r = write::remove(self, key);
        self.worker.exit(|_| {});
        r
    }

    /// Range scan: every `(key, value)` with `low <= key <= high`, sorted.
    ///
    /// SMART reads each tree level in one doorbell batch; the plain ART
    /// port issues one read per node — the YCSB-E gap of Fig. 4.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn scan(&mut self, low: &[u8], high: &[u8]) -> Result<Rows, BaselineError> {
        self.walk_from_root(low, Some(high), None)
    }

    /// Up to `limit` entries with key ≥ `low`, ascending: the scan's walk
    /// bounded by rows, whose cost tracks the rows it returns.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn scan_n(&mut self, low: &[u8], limit: usize) -> Result<Rows, BaselineError> {
        self.walk_from_root(low, None, Some(limit))
    }

    /// One scan op: [`walk::scan`] from the root node.
    fn walk_from_root(
        &mut self,
        low: &[u8],
        high: Option<&[u8]>,
        limit: Option<usize>,
    ) -> Result<Rows, BaselineError> {
        self.stats.scans += 1;
        self.worker.begin(OpKind::Scan);
        self.worker.phase(Phase::Traversal);
        let mut below_root = || {
            if high.is_some_and(|high| low > high) {
                return Ok(Rows::new());
            }
            let root = self.root_slot(false)?;
            let root = Tracked::root(self.read_inner_mc(root.addr, root.child_kind, true)?);
            Ok(walk::scan(self, &root, low, high, limit)?)
        };
        let r = below_root();
        self.worker.exit(|_| {});
        r
    }
}

/// How the walks of [`node_engine::walk`] read a baseline tree.
impl ArtReader for BaselineClient {
    fn worker(&mut self) -> &mut Worker {
        &mut self.worker
    }

    /// Remote, but filling the CN node cache (SMART).
    fn read_inner(
        &mut self,
        ptr: RemotePtr,
        kind: art_core::NodeKind,
    ) -> Result<InnerNode, EngineError> {
        self.read_inner_mc(ptr, kind, false)
    }

    fn note_leaf_io(&mut self, io: LeafReadStats) {
        self.stats.checksum_retries += io.checksum_retries;
        let obs = &mut self.worker.obs;
        obs.add("leaf.extended_reads", io.extended_reads);
    }

    /// SMART reads each tree level in one doorbell batch. The plain ART
    /// port reads in small groups (≈ one parent node's children at a time:
    /// the natural non-optimized implementation reads a node's children
    /// together but does not overlap across nodes) — the source of the
    /// paper's 2.3–3.1× YCSB-E gap.
    fn read_level(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<u8>, EngineError> {
        let group = if self.meta.config.batched_scan {
            reads.len().max(1)
        } else {
            8
        };
        let mut groups = reads.chunks(group);
        let Some(first) = groups.next() else {
            return Ok(Vec::new());
        };
        let t = self.transport();
        let mut level = t.read_packed(first)?;
        for group in groups {
            level.extend(t.read_packed(group)?);
        }
        Ok(level)
    }
}

/// What the baselines add to the remote-ART write protocol: SMART's node
/// cache and fresh `Node256`s, the parent swing through the descent's word
/// or the root word, and two verb shapes of their own.
impl WriteHost for BaselineClient {
    type Error = BaselineError;

    /// Root-to-leaf traversal — one network round trip per uncached level,
    /// the cost profile that motivates Sphinx — run alone as part of the
    /// blocking op in flight.
    fn locate(&mut self, key: &[u8], use_cache: bool) -> Result<(Descent, bool), BaselineError> {
        check_len(key)?;
        let lend = Lend::new(self, BaselineClient::worker);
        let mut io = lend.alone();
        block_on(&lend, locate(&mut io, key, use_cache))
    }

    /// No hash table to consult — but also no way to shortcut the walk,
    /// which is the point of the baseline: the word the descent came
    /// through, a parent's child slot or the root word (which has no
    /// type-switch ambiguity). The cached root word is stale after a swing
    /// of it, or after a swing that failed.
    fn swing_parent(
        &mut self,
        d: &Descent,
        _key: &[u8],
        kind: NodeKind,
        ptr: RemotePtr,
    ) -> Result<Install, BaselineError> {
        let corrupt = |what| BaselineError::Corrupt { what };
        let via = d.via.ok_or(corrupt("descent without a parent word"))?;
        let old_slot = Slot::decode(via.expected).ok_or(corrupt("parent slot empty"))?;
        let new_word = Slot::inner(old_slot.key_byte, kind, ptr).encode();
        let swung = match via.parent {
            None if self.worker.dm.cas(via.word_ptr, via.expected, new_word)? == via.expected => {
                Install::Done
            }
            None => Install::Raced,
            Some(pp) => {
                let offset = via.word_ptr.offset() - pp.offset();
                let r = install_word(&mut self.worker.dm, pp, offset, via.expected, new_word)?;
                self.touched(pp);
                r
            }
        };
        if swung != Install::Done || via.parent.is_none() {
            self.root_slot = None;
        }
        Ok(swung)
    }

    fn fresh_kind(&self) -> NodeKind {
        self.meta.config.fresh_node_kind()
    }

    fn touched(&mut self, ptr: RemotePtr) {
        if let Some(cache) = &self.cache {
            cache.lock().invalidate(ptr);
        }
    }

    /// Two doorbells: the leaf, then the node.
    fn write_leaf_and_node(
        &mut self,
        key: &[u8],
        value: &[u8],
        node: &mut InnerNode,
    ) -> Result<(RemotePtr, RemotePtr), EngineError> {
        let t = self.transport();
        let leaf_ptr = write_new_leaf(t, key, value)?;
        write::hang_leaf(node, key, leaf_ptr);
        let prefix = &key[..node.header.prefix_len as usize];
        Ok((leaf_ptr, write_new_inner(t, node, prefix)?))
    }

    /// The CAS, then — only when it won — the read, a round trip each.
    fn lock_and_read(
        &mut self,
        ptr: RemotePtr,
        idle: u64,
        locked: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, DmError> {
        if self.worker.dm.cas(ptr, idle, locked)? != idle {
            return Ok(None);
        }
        Ok(Some(self.worker.dm.read(ptr, len)?))
    }
}

#[cfg(test)]
mod tests {
    use crate::{BaselineConfig, BaselineIndex};
    use dm_sim::{ClusterConfig, DmCluster};

    fn cluster() -> DmCluster {
        DmCluster::new(ClusterConfig {
            num_mns: 3,
            num_cns: 3,
            mn_capacity: 128 << 20,
            ..Default::default()
        })
    }

    fn configs() -> Vec<(&'static str, BaselineConfig)> {
        vec![
            ("art", BaselineConfig::art()),
            ("smart", BaselineConfig::smart(1 << 20)),
        ]
    }

    /// A fresh-child CAS that loses frees the leaf nobody ever saw: the
    /// engine, driven on ART with a descent gone stale, leaves the MNs'
    /// live bytes where they were.
    #[test]
    fn a_lost_fresh_child_install_frees_its_leaf() {
        use node_engine::{write, Outcome, WriteHost};
        let c = cluster();
        let idx = BaselineIndex::create(&c, BaselineConfig::art()).unwrap();
        let mut cl = idx.client(0).unwrap();
        cl.insert(b"a1", b"v").unwrap();
        let (stale, _) = cl.locate(b"b1", false).unwrap();
        assert!(matches!(stale.outcome, Outcome::Empty { byte: b'b' }));
        // Another key takes the free root slot the stale descent names.
        cl.insert(b"c1", b"v").unwrap();
        let live = idx.memory_bytes();
        assert!(!write::insert_at(&mut cl, &stale, b"b1", b"v").unwrap());
        assert_eq!(idx.memory_bytes(), live, "the unpublished leaf leaked");
        cl.insert(b"b1", b"v").unwrap();
        assert_eq!(cl.get(b"b1").unwrap().as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn insert_get_roundtrip_both_baselines() {
        for (name, cfg) in configs() {
            let c = cluster();
            let idx = BaselineIndex::create(&c, cfg).unwrap();
            let mut cl = idx.client(0).unwrap();
            cl.insert(b"lyrics", b"v1").unwrap();
            cl.insert(b"lyre", b"v2").unwrap();
            assert_eq!(
                cl.get(b"lyrics").unwrap().as_deref(),
                Some(&b"v1"[..]),
                "{name}"
            );
            assert_eq!(
                cl.get(b"lyre").unwrap().as_deref(),
                Some(&b"v2"[..]),
                "{name}"
            );
            assert_eq!(cl.get(b"lyr").unwrap(), None, "{name}");
        }
    }

    #[test]
    fn update_delete_scan_both_baselines() {
        for (name, cfg) in configs() {
            let c = cluster();
            let idx = BaselineIndex::create(&c, cfg).unwrap();
            let mut cl = idx.client(0).unwrap();
            for w in ["apple", "banana", "cherry", "date"] {
                cl.insert(w.as_bytes(), b"x").unwrap();
            }
            assert!(cl.update(b"banana", b"yellow").unwrap(), "{name}");
            assert!(cl.remove(b"cherry").unwrap(), "{name}");
            let hits = cl.scan(b"a", b"z").unwrap();
            let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_slice()).collect();
            assert_eq!(
                keys,
                vec![b"apple".as_slice(), b"banana", b"date"],
                "{name}"
            );
            assert_eq!(
                cl.get(b"banana").unwrap().as_deref(),
                Some(&b"yellow"[..]),
                "{name}"
            );
        }
    }

    #[test]
    fn many_keys_with_type_switches_art() {
        let c = cluster();
        let idx = BaselineIndex::create(&c, BaselineConfig::art()).unwrap();
        let mut cl = idx.client(0).unwrap();
        for i in 0..500u32 {
            cl.insert(&i.wrapping_mul(2654435761).to_be_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in 0..500u32 {
            assert_eq!(
                cl.get(&i.wrapping_mul(2654435761).to_be_bytes())
                    .unwrap()
                    .as_deref(),
                Some(&i.to_le_bytes()[..]),
                "key {i}"
            );
        }
    }

    #[test]
    fn smart_prealloc_uses_more_memory_than_art() {
        let keys: Vec<[u8; 8]> = (0..3000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_be_bytes())
            .collect();
        let mut sizes = Vec::new();
        for (_, cfg) in configs() {
            let c = cluster();
            let idx = BaselineIndex::create(&c, cfg).unwrap();
            let mut cl = idx.client(0).unwrap();
            for (i, k) in keys.iter().enumerate() {
                cl.insert(k, &(i as u64).to_le_bytes()).unwrap();
            }
            sizes.push(idx.memory_bytes());
        }
        let (art, smart) = (sizes[0], sizes[1]);
        assert!(
            smart as f64 > art as f64 * 1.5,
            "SMART prealloc should cost much more memory: art={art} smart={smart}"
        );
    }

    #[test]
    fn smart_cache_cuts_round_trips() {
        let c = cluster();
        let idx = BaselineIndex::create(&c, BaselineConfig::smart(4 << 20)).unwrap();
        let mut cl = idx.client(0).unwrap();
        for i in 0..200u32 {
            cl.insert(format!("cachekey{i:04}").as_bytes(), b"v")
                .unwrap();
        }
        // Warm pass.
        for i in 0..200u32 {
            cl.get(format!("cachekey{i:04}").as_bytes()).unwrap();
        }
        let warm_before = cl.net_stats().round_trips;
        for i in 0..200u32 {
            cl.get(format!("cachekey{i:04}").as_bytes()).unwrap();
        }
        let warm = cl.net_stats().round_trips - warm_before;
        // ART pays full traversal every time.
        let c2 = cluster();
        let idx2 = BaselineIndex::create(&c2, BaselineConfig::art()).unwrap();
        let mut cl2 = idx2.client(0).unwrap();
        for i in 0..200u32 {
            cl2.insert(format!("cachekey{i:04}").as_bytes(), b"v")
                .unwrap();
        }
        let before = cl2.net_stats().round_trips;
        for i in 0..200u32 {
            cl2.get(format!("cachekey{i:04}").as_bytes()).unwrap();
        }
        let art_rts = cl2.net_stats().round_trips - before;
        assert!(
            warm < art_rts,
            "cached SMART ({warm} RTs) should beat uncached ART ({art_rts} RTs)"
        );
    }

    #[test]
    fn cross_client_visibility_despite_cache() {
        let c = cluster();
        let idx = BaselineIndex::create(&c, BaselineConfig::smart(1 << 20)).unwrap();
        let mut w = idx.client(0).unwrap();
        let mut r = idx.client(1).unwrap();
        w.insert(b"seen", b"1").unwrap();
        assert_eq!(r.get(b"seen").unwrap().as_deref(), Some(&b"1"[..]));
        // Reader has now cached the path; writer adds a sibling.
        w.insert(b"seen2", b"2").unwrap();
        assert_eq!(
            r.get(b"seen2").unwrap().as_deref(),
            Some(&b"2"[..]),
            "stale cache must not hide new keys"
        );
    }

    /// Four groups of four keys, each group behind one inner node below
    /// the root, ordered so that neighbours in a window are in different
    /// groups.
    fn grouped_keys() -> Vec<Vec<u8>> {
        let key = |i: u8, group: u8| vec![b'a' + group, b'-', b'0', b'0' + i];
        (0..4)
            .flat_map(|i| (0..4).map(move |group| key(i, group)))
            .collect()
    }

    /// Lookups in flight together see the node cache as they find it: a
    /// node another lookup's fill evicted is fetched again, and a miss
    /// through a copy gone stale under the window is confirmed remotely.
    #[test]
    fn a_window_refetches_what_the_cache_lost_or_never_knew() {
        let keys = grouped_keys();
        let window: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let reads_at_depth_8 = |cache_bytes: usize| {
            let c = cluster();
            let idx = BaselineIndex::create(&c, BaselineConfig::smart(cache_bytes)).unwrap();
            let mut cl = idx.client(0).unwrap();
            for k in &keys {
                cl.insert(k, k).unwrap();
            }
            cl.get_many_pipelined(&window, 1).unwrap(); // warm
            let before = cl.net_stats();
            let got = cl.get_many_pipelined(&window, 8).unwrap();
            for (k, g) in window.iter().zip(got) {
                assert_eq!(g.as_deref(), Some(*k));
            }
            let net = cl.net_stats().since(&before);
            assert!(net.doorbells < net.round_trips, "depth 8 fuses");
            assert_eq!(cl.worker.pipeline.ops, 32);
            net.reads
        };
        assert_eq!(
            reads_at_depth_8(1 << 20),
            16,
            "every inner node cached: one leaf read per key"
        );
        // Room for two Node256 images, five on the paths: the window's own
        // fills evict each other.
        assert!(reads_at_depth_8(2 * 2072) >= 16 + 8);

        // A copy gone stale: the writer fills a free slot of a node the
        // reader has cached.
        let c = cluster();
        let idx = BaselineIndex::create(&c, BaselineConfig::smart(1 << 20)).unwrap();
        let (mut w, mut r) = (idx.client(0).unwrap(), idx.client(1).unwrap());
        for k in &keys {
            w.insert(k, k).unwrap();
        }
        r.get_many_pipelined(&window, 8).unwrap();
        w.insert(b"a-09", b"new").unwrap();
        let got = r
            .get_many_pipelined(&[b"a-09".as_slice(), b"a-00", b"a-0", b"b-01"], 8)
            .unwrap();
        assert_eq!(got[0].as_deref(), Some(&b"new"[..]), "confirmed remotely");
        assert_eq!(got[1].as_deref(), Some(&b"a-00"[..]));
        assert_eq!(got[2], None);
        assert_eq!(got[3].as_deref(), Some(&b"b-01"[..]));
        assert_eq!(r.get(b"a-09").unwrap().as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn concurrent_inserts_both_baselines() {
        for (name, cfg) in configs() {
            let c = cluster();
            let idx = BaselineIndex::create(&c, cfg).unwrap();
            std::thread::scope(|s| {
                for t in 0..3u32 {
                    let idx = idx.clone();
                    s.spawn(move || {
                        let mut cl = idx.client(t as u16 % 3).unwrap();
                        for i in 0..150u32 {
                            cl.insert(format!("c{t}-{i:04}").as_bytes(), &i.to_le_bytes())
                                .unwrap();
                        }
                    });
                }
            });
            let mut cl = idx.client(0).unwrap();
            for t in 0..3u32 {
                for i in 0..150u32 {
                    assert_eq!(
                        cl.get(format!("c{t}-{i:04}").as_bytes())
                            .unwrap()
                            .as_deref(),
                        Some(&i.to_le_bytes()[..]),
                        "{name}: lost c{t}-{i}"
                    );
                }
            }
        }
    }
}
