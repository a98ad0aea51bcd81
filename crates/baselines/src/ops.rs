//! Baseline index operations: root-to-leaf traversal (with optional node
//! cache) as one resumable lookup machine, scans, and what the baselines
//! add to the write protocol of [`node_engine::write`] — inserts with
//! splits and type switches, updates, deletes.
//!
//! The traversal is [`node_engine::descend`], the descent every ART system
//! hosts; [`LocateOp`] wraps it with what a baseline adds — the root fetch
//! through the cached root word, and SMART's CN node cache as the
//! descent's consult / fill / invalidate hooks. Every point operation
//! drives one machine alone; [`BaselineClient::get_many_pipelined`] drives
//! one per key at depth N through the same [`node_engine::run_pipelined`].

use art_core::key::MAX_KEY_LEN;
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{Completion, DmClient, DmError, DoorbellBatch, RemotePtr, RetryPolicy, Verb};
use node_engine::walk::{self, any_leaf, Tracked};
use node_engine::write;
use node_engine::{
    install_word, run_pipelined, write_new_inner, write_new_leaf, ArtReader, Descend, DescendHost,
    Descent, EngineError, Install, LeafReadStats, OpState, Outcome, PipelineStats, StepOutcome,
    Via, WriteHost, Yield,
};
use obs::{OpKind, Phase, Recorder};
use parking_lot::Mutex;
use reclaim::ReclaimHandle;
use std::sync::Arc;

use crate::cache::NodeCache;
use crate::error::BaselineError;
use crate::index::BaselineClient;

/// Submission tags: the phase each round trip is attributed to (by the
/// span recorder for a lookup driven alone, by
/// [`PipelineStats::by_tag`] for a pipelined run).
const TAG_TRAVERSAL: u32 = Phase::Traversal as u32;
const TAG_LEAF: u32 = Phase::LeafRead as u32;

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

impl DescendHost for CacheView {
    fn cached(&mut self, ptr: RemotePtr, kind: NodeKind) -> Option<InnerNode> {
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

    fn fetched(&mut self, ptr: RemotePtr, kind: NodeKind, node: &InnerNode) {
        if let Some(cache) = &self.cache {
            if node.header.status == NodeStatus::Idle && node.header.kind == kind {
                cache.lock().put(ptr, node.clone());
            }
        }
    }

    fn unusable(&mut self, ptr: RemotePtr) {
        if let Some(cache) = &self.cache {
            cache.lock().invalidate(ptr);
        }
    }

    fn child_matched(&mut self, _prefix: &[u8]) {
        self.used |= self.last_hit;
    }
}

/// Why a lookup machine stopped. `Found` ends the traversal; the driver
/// serves the other two and re-admits the machine.
#[allow(clippy::large_enum_variant)] // moved once per lookup
enum Stop {
    /// The deepest inner node whose prefix prefixes the key, and what lies
    /// below it.
    Found(Descent),
    /// A node on the path was retired or mid type-switch: count the retry,
    /// refresh the root word, back off, retake the traversal.
    Retry,
    /// A child's compressed path leaves the key: sample a leaf below
    /// [`Descend::diverged_child`] and hand it to [`Descend::sampled`].
    Sample,
}

/// Where the machine is between round trips.
enum St {
    /// At the root word, nothing read yet.
    Start,
    /// Waiting for the root node.
    Root,
    /// Below the root: [`LocateOp::descend`] is waiting for the read it
    /// yielded for, or for the driver's sample.
    Descending,
}

/// One lookup's state. Owns nothing of the client but a handle on the
/// node cache; [`Run`] lends it the root word for one [`run_pipelined`]
/// call.
struct LocateOp<'k> {
    descend: Descend<'k>,
    cache: CacheView,
    /// Traversals retaken so far (bounded by `op_retries`).
    attempts: usize,
    state: St,
    result: Option<Descent>,
}

impl LocateOp<'_> {
    /// Whether the traversal missed `key` after stepping through a cached
    /// node.
    fn missed_through_cache(&self) -> bool {
        let found = matches!(
            self.result.as_ref().map(|d| &d.outcome),
            Some(Outcome::Leaf { leaf, .. }) if leaf.key == self.descend.key
        );
        self.cache.used && !found
    }
}

/// A [`LocateOp`] admitted to one pipeline run.
struct Run<'a, 'k> {
    op: &'a mut LocateOp<'k>,
    /// The root slot word and where it lives.
    root: Slot,
    root_word: RemotePtr,
    /// The client's span recorder when the lookup is driven alone; `None`
    /// in a pipelined run, whose phases interleave across ops.
    span: Option<&'a mut Recorder>,
}

type Step = Result<StepOutcome<Stop>, EngineError>;

impl Run<'_, '_> {
    fn phase(&mut self, t: &DmClient, phase: Phase) {
        if let Some(span) = self.span.as_deref_mut() {
            span.phase(phase, t.stats(), t.clock_ns());
        }
    }

    /// Enters the descent at the root node.
    fn enter(&mut self, t: &mut DmClient, root_node: InnerNode, from_cache: bool) -> Step {
        let via = Via {
            parent: None,
            word_ptr: self.root_word,
            expected: self.root.encode(),
        };
        let LocateOp { descend, cache, .. } = &mut *self.op;
        cache.used = from_cache;
        let y = descend.enter(cache, root_node, self.root.addr, Some(via))?;
        self.on_yield(t, y)
    }

    fn on_yield(&mut self, t: &mut DmClient, y: Yield) -> Step {
        let (ptr, len, tag) = match y {
            Yield::Inner(ptr, len) => (ptr, len, TAG_TRAVERSAL),
            Yield::Leaf(ptr, len, again) => {
                if !again {
                    self.phase(t, Phase::LeafRead);
                }
                (ptr, len, TAG_LEAF)
            }
            Yield::Sample => return Ok(StepOutcome::Done(Stop::Sample)),
            Yield::Restart => return Ok(StepOutcome::Done(Stop::Retry)),
            Yield::Done(descent) => {
                if matches!(descent.outcome, Outcome::Leaf { .. }) {
                    self.phase(t, Phase::Traversal); // the leaf read is over
                }
                return Ok(StepOutcome::Done(Stop::Found(descent)));
            }
        };
        Ok(StepOutcome::Submit {
            batch: DoorbellBatch::from_iter([Verb::Read { ptr, len }]),
            tag,
        })
    }
}

impl OpState for Run<'_, '_> {
    type Output = Stop;

    fn step(&mut self, t: &mut DmClient, completion: Option<Completion>) -> Step {
        let bytes = completion.map(|mut results| {
            let read = results.pop().expect("a lookup submits one read at a time");
            read.into_read()
        });
        let root = self.root;
        match (std::mem::replace(&mut self.op.state, St::Descending), bytes) {
            (St::Start, None) => match self.op.cache.cached(root.addr, root.child_kind) {
                Some(node) => self.enter(t, node, true),
                None => {
                    self.op.state = St::Root;
                    let len = InnerNode::byte_size(root.child_kind);
                    self.on_yield(t, Yield::Inner(root.addr, len))
                }
            },
            (St::Root, Some(bytes)) => {
                let node = InnerNode::decode(&bytes)?;
                self.op.cache.fetched(root.addr, root.child_kind, &node);
                self.enter(t, node, false)
            }
            (St::Descending, bytes) => {
                let LocateOp { descend, cache, .. } = &mut *self.op;
                let y = descend.resume(t, cache, bytes)?;
                self.on_yield(t, y)
            }
            _ => unreachable!("a lookup was resumed out of step with its submission"),
        }
    }
}

impl BaselineClient {
    /// The root slot word, cached client-side (refreshed when stale).
    fn root_slot(&mut self, refresh: bool) -> Result<Slot, BaselineError> {
        if refresh || self.root_slot.is_none() {
            let word = self.dm.read_u64(self.meta.root_word)?;
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
        let node = match view.cached(ptr, kind) {
            Some(node) => node,
            None => {
                let node = InnerNode::decode(&self.dm.read(ptr, InnerNode::byte_size(kind))?)?;
                view.fetched(ptr, kind, &node);
                node
            }
        };
        self.note_cache_use(&view);
        Ok(node)
    }

    fn note_cache_use(&mut self, view: &CacheView) {
        self.obs.add("cache.hit", view.hits);
        self.obs.add("cache.miss", view.misses);
    }

    /// A lookup machine for `key`, served from the node cache if
    /// `use_cache`.
    fn lookup<'k>(&self, key: &'k [u8], use_cache: bool) -> Result<LocateOp<'k>, BaselineError> {
        if key.len() > MAX_KEY_LEN {
            return Err(BaselineError::KeyTooLong { len: key.len() });
        }
        Ok(LocateOp {
            descend: Descend::new(key, self.meta.config.leaf_read_hint, self.retry),
            cache: CacheView {
                cache: self.cache.clone(),
                allowed: use_cache,
                ..CacheView::default()
            },
            attempts: 0,
            state: St::Start,
            result: None,
        })
    }

    /// Runs `ops` through [`run_pipelined`], `depth` at a time, from the
    /// cached root word, until each has its [`Descent`], serving
    /// [`Stop::Retry`] and [`Stop::Sample`] between runs. `alone` drives a
    /// single op on behalf of the blocking op in flight: its phases go to
    /// the open span and the run is not a pipeline run.
    fn drive(
        &mut self,
        ops: &mut [LocateOp<'_>],
        depth: usize,
        alone: bool,
    ) -> Result<(), BaselineError> {
        while ops.iter().any(|op| op.result.is_none()) {
            if alone {
                self.obs_phase(Phase::Traversal);
            }
            let root = self.root_slot(false)?;
            let stops = {
                let BaselineClient {
                    dm,
                    meta,
                    obs,
                    pipeline,
                    ..
                } = self;
                let mut span = alone.then_some(obs);
                let runs = ops
                    .iter_mut()
                    .filter(|op| op.result.is_none())
                    .map(|op| Run {
                        op,
                        root,
                        root_word: meta.root_word,
                        span: span.take(),
                    });
                run_pipelined(dm, runs, depth, (!alone).then_some(pipeline))
            };
            let pending = ops.iter_mut().filter(|op| op.result.is_none());
            for (op, stop) in pending.zip(stops?) {
                match stop {
                    Stop::Found(descent) => {
                        op.result = Some(descent);
                        continue;
                    }
                    Stop::Sample => {
                        let sample = any_leaf(self, op.descend.diverged_child())?;
                        op.descend.sampled(sample);
                    }
                    Stop::Retry => {
                        self.stats.retries += 1;
                        self.obs.retry();
                        self.obs_phase(Phase::Retry);
                        self.root_slot(true)?;
                        if op.attempts > 2 {
                            self.dm.backoff(&self.retry);
                        }
                        op.attempts += 1;
                        if op.attempts >= self.retry.op_retries {
                            return Err(BaselineError::RetriesExhausted { op: "locate" });
                        }
                        op.state = St::Start;
                    }
                }
                // A served stop is not a completed op.
                if !alone {
                    self.pipeline.ops -= 1;
                }
            }
        }
        Ok(())
    }

    /// [`BaselineClient::drive`] for point lookups: a stale cached node can
    /// hide recent inserts, so a miss that stepped through one is confirmed
    /// by a remote traversal (our stand-in for SMART's reverse check).
    fn drive_gets(
        &mut self,
        ops: &mut [LocateOp<'_>],
        depth: usize,
        alone: bool,
    ) -> Result<(), BaselineError> {
        self.drive(ops, depth, alone)?;
        for op in ops.iter_mut().filter(|op| op.missed_through_cache()) {
            op.cache.allowed = false;
            op.attempts = 0;
            op.state = St::Start;
            op.result = None;
        }
        self.drive(ops, depth, alone)
    }

    fn fold(&mut self, op: &LocateOp<'_>) {
        self.note_leaf_io(op.descend.io);
        self.note_cache_use(&op.cache);
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
        let mut op = self.lookup(key, true)?;
        self.stats.gets += 1;
        self.obs_begin(OpKind::Get);
        let run = self.drive_gets(std::slice::from_mut(&mut op), 1, true);
        self.fold(&op);
        self.op_exit();
        run?;
        Ok(op.result.and_then(|d| d.into_value(key)))
    }

    /// Looks up many keys keeping up to `depth` lookups in flight: one
    /// machine per key — the one [`BaselineClient::get`] drives alone —
    /// whose reads share a fused doorbell every scheduling round
    /// ([`dm_sim::DmClient::flush_submitted`]). Lookups in one window see
    /// the node cache as they find it: a node evicted or invalidated under
    /// a lookup in flight is simply fetched. Results are positionally
    /// aligned with `keys`; depth 1 issues the network charges of a loop
    /// of `get`s.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::get`].
    pub fn get_many_pipelined(
        &mut self,
        keys: &[&[u8]],
        depth: usize,
    ) -> Result<Vec<Option<Vec<u8>>>, BaselineError> {
        let mut ops = keys
            .iter()
            .map(|key| self.lookup(key, true))
            .collect::<Result<Vec<_>, _>>()?;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        self.obs_begin(OpKind::MultiGet);
        let run = self.drive_gets(&mut ops, depth, false);
        for op in &ops {
            self.stats.gets += 1;
            self.fold(op);
        }
        // Reclamation cadence parity with a loop of gets: one unpin per
        // key (the final one comes from `op_exit`).
        for _ in 1..ops.len() {
            if self.reclaim.scan_due() {
                self.obs_phase(Phase::Maintenance);
            }
            let BaselineClient { dm, reclaim, .. } = self;
            reclaim.unpin(dm);
        }
        self.op_exit();
        run?;
        Ok(ops
            .into_iter()
            .map(|op| op.result.and_then(|d| d.into_value(op.descend.key)))
            .collect())
    }

    /// Cumulative pipelined-execution counters for this worker (flush
    /// rounds, fusion, stalls, depth histogram, per-phase attribution).
    pub fn pipeline_stats(&self) -> &PipelineStats {
        &self.pipeline
    }

    /// Inserts or overwrites `key` with `value`.
    ///
    /// # Errors
    ///
    /// [`BaselineError::RetriesExhausted`] under pathological contention,
    /// or substrate errors.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), BaselineError> {
        self.stats.inserts += 1;
        self.obs_begin(OpKind::Insert);
        let r = write::insert(self, key, value);
        self.op_exit();
        r
    }

    /// Updates an existing key. Returns `false` if absent.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::insert`].
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool, BaselineError> {
        self.stats.updates += 1;
        self.obs_begin(OpKind::Update);
        let r = write::update(self, key, value);
        self.op_exit();
        r
    }

    /// Deletes a key. Returns whether this client performed the deletion.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::insert`].
    pub fn remove(&mut self, key: &[u8]) -> Result<bool, BaselineError> {
        self.stats.deletes += 1;
        self.obs_begin(OpKind::Delete);
        let r = write::remove(self, key);
        self.op_exit();
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
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        low: &[u8],
        high: &[u8],
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, BaselineError> {
        self.stats.scans += 1;
        self.obs_begin(OpKind::Scan);
        self.obs_phase(Phase::Traversal);
        let mut below_root = || {
            if low > high {
                return Ok(Vec::new());
            }
            let root = self.root_slot(false)?;
            let root_node = self.read_inner_mc(root.addr, root.child_kind, true)?;
            Ok(walk::scan(self, &Tracked::root(root_node), low, high)?)
        };
        let r = below_root();
        self.op_exit();
        r
    }
}

/// How the walks of [`node_engine::walk`] read a baseline tree.
impl ArtReader for BaselineClient {
    fn transport(&mut self) -> &mut dm_sim::DmClient {
        &mut self.dm
    }

    fn leaf_hint(&self) -> usize {
        self.meta.config.leaf_read_hint
    }

    /// Remote, but filling the CN node cache (SMART).
    fn read_inner(
        &mut self,
        ptr: RemotePtr,
        kind: art_core::NodeKind,
    ) -> Result<InnerNode, EngineError> {
        self.read_inner_mc(ptr, kind, false)
    }

    /// Through the shared validated reader, attributed to
    /// [`Phase::LeafRead`] (restoring the caller's phase afterwards).
    fn read_leaf(&mut self, ptr: RemotePtr) -> Result<LeafNode, EngineError> {
        let hint = self.leaf_hint();
        let prev = self.obs.current_phase();
        self.obs_phase(Phase::LeafRead);
        let mut io = LeafReadStats::default();
        let res = node_engine::read_validated_leaf(&mut self.dm, ptr, hint, &self.retry, &mut io);
        self.note_leaf_io(io);
        if let Some(p) = prev {
            self.obs_phase(p);
        }
        res
    }

    fn note_leaf_io(&mut self, io: LeafReadStats) {
        self.stats.checksum_retries += io.checksum_retries;
        self.obs.add("leaf.extended_reads", io.extended_reads);
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
        let mut level = self.dm.read_packed(first)?;
        for group in groups {
            level.extend(self.dm.read_packed(group)?);
        }
        Ok(level)
    }
}

/// What the baselines add to the remote-ART write protocol: SMART's node
/// cache and fresh `Node256`s, the parent swing through the descent's word
/// or the root word, and two verb shapes of their own.
impl WriteHost for BaselineClient {
    type Error = BaselineError;

    fn policy(&self) -> RetryPolicy {
        self.retry
    }

    fn parts(&mut self) -> (&mut DmClient, &mut ReclaimHandle) {
        (&mut self.dm, &mut self.reclaim)
    }

    fn phase(&mut self, phase: Phase) {
        self.obs_phase(phase);
    }

    fn retried(&mut self) {
        self.obs.retry();
    }

    fn count(&mut self, counter: &'static str) {
        self.obs.incr(counter);
    }

    /// Root-to-leaf traversal — one network round trip per uncached level,
    /// the cost profile that motivates Sphinx — driving one machine alone
    /// as part of the blocking op in flight.
    fn locate(&mut self, key: &[u8], use_cache: bool) -> Result<(Descent, bool), BaselineError> {
        let mut op = self.lookup(key, use_cache)?;
        let run = self.drive(std::slice::from_mut(&mut op), 1, true);
        self.fold(&op);
        run?;
        let used_cache = op.cache.used;
        Ok((op.result.expect("drive ends every lookup"), used_cache))
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
            None if self.dm.cas(via.word_ptr, via.expected, new_word)? == via.expected => {
                Install::Done
            }
            None => Install::Raced,
            Some(pp) => {
                let offset = via.word_ptr.offset() - pp.offset();
                let r = install_word(&mut self.dm, pp, offset, via.expected, new_word)?;
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
        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
        write::hang_leaf(node, key, leaf_ptr);
        let prefix = &key[..node.header.prefix_len as usize];
        Ok((leaf_ptr, write_new_inner(&mut self.dm, node, prefix)?))
    }

    /// The CAS, then — only when it won — the read, a round trip each.
    fn lock_and_read(
        &mut self,
        ptr: RemotePtr,
        idle: u64,
        locked: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, DmError> {
        if self.dm.cas(ptr, idle, locked)? != idle {
            return Ok(None);
        }
        Ok(Some(self.dm.read(ptr, len)?))
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
            assert_eq!(cl.pipeline_stats().ops, 32);
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
