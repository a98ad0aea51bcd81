//! Baseline index operations: root-to-leaf traversal (with optional node
//! cache) as one resumable lookup machine, inserts with splits and type
//! switches, updates, deletes, scans.
//!
//! The traversal is [`node_engine::descend`], the descent every ART system
//! hosts; [`LocateOp`] wraps it with what a baseline adds — the root fetch
//! through the cached root word, and SMART's CN node cache as the
//! descent's consult / fill / invalidate hooks. Every point operation
//! drives one machine alone; [`BaselineClient::get_many_pipelined`] drives
//! one per key at depth N through the same [`node_engine::run_pipelined`].

use art_core::key::{common_prefix_len, MAX_KEY_LEN};
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot, VALUE_SLOT_OFFSET};
use art_core::NodeKind;
use dm_sim::{Completion, DoorbellBatch, RemotePtr, Transport, Verb};
use node_engine::walk::{self, any_leaf, Tracked};
use node_engine::{
    cas_locked_write, retire_inner, retire_leaf, run_pipelined, unlink_empty_inner,
    write_new_inner, write_new_leaf, ArtReader, Descend, DescendHost, Descent, EngineError,
    Install, LeafReadStats, OpState, Outcome, PipelineStats, StepOutcome, Unlink, Via, Yield,
};
use obs::{OpKind, Phase, Recorder};
use parking_lot::Mutex;
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
    fn phase<T: Transport>(&mut self, t: &T, phase: Phase) {
        if let Some(span) = self.span.as_deref_mut() {
            span.phase(phase, t.stats(), t.clock_ns());
        }
    }

    /// Enters the descent at the root node.
    fn enter<T: Transport>(&mut self, t: &mut T, root_node: InnerNode, from_cache: bool) -> Step {
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

    fn on_yield<T: Transport>(&mut self, t: &mut T, y: Yield) -> Step {
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

    fn step<T: Transport>(&mut self, t: &mut T, completion: Option<Completion>) -> Step {
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
    fn backoff(&mut self) {
        self.dm.backoff(&self.retry);
    }

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

    fn invalidate_cached(&mut self, ptr: RemotePtr) {
        if let Some(cache) = &self.cache {
            cache.lock().invalidate(ptr);
        }
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

    /// Root-to-leaf traversal — one network round trip per uncached level,
    /// the cost profile that motivates Sphinx — driving one machine alone
    /// as part of the blocking op in flight. Also tells whether a cached
    /// node was on the path.
    fn locate(&mut self, key: &[u8], use_cache: bool) -> Result<(Descent, bool), BaselineError> {
        let mut op = self.lookup(key, use_cache)?;
        let run = self.drive(std::slice::from_mut(&mut op), 1, true);
        self.fold(&op);
        run?;
        let used_cache = op.cache.used;
        Ok((op.result.expect("drive ends every lookup"), used_cache))
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
                            self.backoff();
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
    /// ([`dm_sim::Transport::flush_submitted`]). Lookups in one window see
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
        let r = self.insert_inner(key, value);
        self.op_exit();
        r
    }

    fn insert_inner(&mut self, key: &[u8], value: &[u8]) -> Result<(), BaselineError> {
        for attempt in 0..self.retry.op_retries {
            let use_cache = attempt == 0;
            let (loc, _) = self.locate(key, use_cache)?;
            let done = match loc.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        self.swap_leaf(loc.node_ptr, slot_ref.offset(), slot, key, value)?
                    } else {
                        self.write_leaf_value(
                            loc.node_ptr,
                            slot_ref.offset(),
                            slot,
                            leaf,
                            key,
                            value,
                        )?
                    }
                }
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } => self.split_leaf(loc.node_ptr, slot_ref.offset(), slot, leaf, key, value)?,
                Outcome::NoValueSlot => {
                    let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
                    let new_slot = Slot::leaf(0, leaf_ptr);
                    self.install_word(loc.node_ptr, VALUE_SLOT_OFFSET, 0, new_slot.encode())?
                        == Install::Done
                }
                Outcome::Empty { byte } => match loc.node.free_slot(byte) {
                    Some(idx) => {
                        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
                        let new_slot = Slot::leaf(byte, leaf_ptr);
                        self.install_fresh_child(&loc.node, loc.node_ptr, idx, byte, new_slot, key)?
                    }
                    None => self.type_switch_insert(&loc, key, value)?,
                },
                Outcome::Divergent {
                    slot_idx,
                    ref slot,
                    ref child,
                    ref sample,
                } => self.split_path(loc.node_ptr, slot_idx, slot, child, sample, key, value)?,
                // Garbage a delete left where this key's path forks: unlink
                // it, then retry into the freed slot.
                Outcome::EmptyChild {
                    slot_idx,
                    ref slot,
                    ref child,
                } => {
                    self.prune_empty_inner(loc.node_ptr, &loc.node, slot_idx, slot, child)?;
                    false
                }
            };
            if done {
                return Ok(());
            }
            self.obs.retry();
            self.obs_phase(Phase::Retry);
            self.backoff();
        }
        Err(BaselineError::RetriesExhausted { op: "insert" })
    }

    /// Updates an existing key. Returns `false` if absent.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::insert`].
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool, BaselineError> {
        self.stats.updates += 1;
        self.obs_begin(OpKind::Update);
        let r = self.update_inner(key, value);
        self.op_exit();
        r
    }

    fn update_inner(&mut self, key: &[u8], value: &[u8]) -> Result<bool, BaselineError> {
        for attempt in 0..self.retry.op_retries {
            let use_cache = attempt == 0;
            let (loc, used_cache) = self.locate(key, use_cache)?;
            match loc.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        return Ok(false);
                    }
                    if self.write_leaf_value(
                        loc.node_ptr,
                        slot_ref.offset(),
                        slot,
                        leaf,
                        key,
                        value,
                    )? {
                        return Ok(true);
                    }
                }
                _ if used_cache => {} // confirm the miss uncached
                _ => return Ok(false),
            }
            self.obs.retry();
            self.obs_phase(Phase::Retry);
            self.backoff();
        }
        Err(BaselineError::RetriesExhausted { op: "update" })
    }

    /// Deletes a key. Returns whether this client performed the deletion.
    ///
    /// # Errors
    ///
    /// Same classes as [`BaselineClient::insert`].
    pub fn remove(&mut self, key: &[u8]) -> Result<bool, BaselineError> {
        self.stats.deletes += 1;
        self.obs_begin(OpKind::Delete);
        let r = self.remove_inner(key);
        self.op_exit();
        r
    }

    fn remove_inner(&mut self, key: &[u8]) -> Result<bool, BaselineError> {
        for attempt in 0..self.retry.op_retries {
            let use_cache = attempt == 0;
            let (loc, used_cache) = self.locate(key, use_cache)?;
            match loc.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        return Ok(false);
                    }
                    // A delete never CASes a status it did not observe as
                    // `Idle`: tombstoning a `Locked` leaf would steal the
                    // lock of an in-place update between its round trips.
                    self.obs_phase(Phase::LeafWrite);
                    let (idle, inv) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Invalid);
                    if leaf.status == NodeStatus::Locked
                        || self.dm.cas(slot.addr, idle, inv)? != idle
                    {
                        self.obs.retry();
                        self.backoff();
                        continue;
                    }
                    if self.install_word(loc.node_ptr, slot_ref.offset(), slot.encode(), 0)?
                        == Install::Done
                    {
                        // Our CAS unlinked the tombstoned leaf: its region
                        // is ours to reclaim once a grace period passes.
                        let BaselineClient { dm, reclaim, .. } = self;
                        retire_leaf(dm, reclaim, slot.addr, leaf);
                    }
                    // Raced/Ambiguous: whoever replaced (or copied) the
                    // slot owns the region's retirement now.
                    return Ok(true);
                }
                _ if used_cache => {}
                _ => return Ok(false),
            }
            self.obs.retry();
            self.obs_phase(Phase::Retry);
            self.backoff();
        }
        Err(BaselineError::RetriesExhausted { op: "remove" })
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

    // ------------------------------------------------------------------
    // Mutation building blocks (mirrors of the Sphinx write path, minus
    // the hash table / filter publication).
    // ------------------------------------------------------------------

    /// Unlinks the emptied `child` from slot `idx` of `parent` and retires
    /// it ([`unlink_empty_inner`]; there is no hash table to tell), emptied
    /// nodes below it first (an abandoned unlink can leave a chain of them).
    fn prune_empty_inner(
        &mut self,
        parent_ptr: RemotePtr,
        parent: &InnerNode,
        idx: usize,
        slot: &Slot,
        child: &InnerNode,
    ) -> Result<(), BaselineError> {
        self.obs_phase(Phase::Maintenance);
        for (i, below) in child.slots.iter().enumerate() {
            if let Some(below) = below.filter(|s| !s.is_leaf) {
                let node = self.read_inner(below.addr, below.child_kind)?;
                self.prune_empty_inner(slot.addr, child, i, &below, &node)?;
            }
        }
        let unlink = unlink_empty_inner(&mut self.dm, parent_ptr, parent, idx, slot, child)?;
        self.invalidate_cached(parent_ptr);
        self.invalidate_cached(slot.addr);
        match unlink {
            Unlink::Done(dead) => {
                let BaselineClient { dm, reclaim, .. } = self;
                retire_inner(dm, reclaim, slot.addr, &dead)?;
                self.obs.incr("prune.nodes");
            }
            Unlink::Kept => {}
            Unlink::Abandoned => self.obs.incr("prune.abandoned"),
        }
        Ok(())
    }

    /// [`node_engine::install_word`] plus the CN cache invalidation the
    /// baselines owe their node cache.
    fn install_word(
        &mut self,
        node_ptr: RemotePtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<Install, BaselineError> {
        let r = node_engine::install_word(&mut self.dm, node_ptr, offset, expected, new)?;
        self.invalidate_cached(node_ptr);
        Ok(r)
    }

    /// Same duplicate-byte-safe fresh install as Sphinx's (see
    /// `sphinx::write_ops` for the full race analysis, including why a
    /// mid-switch landing must be resolved by waiting for the node to
    /// settle rather than by a blind undo).
    fn install_fresh_child(
        &mut self,
        node: &InnerNode,
        node_ptr: RemotePtr,
        idx: usize,
        byte: u8,
        new_slot: Slot,
        key: &[u8],
    ) -> Result<bool, BaselineError> {
        let offset = InnerNode::slot_offset(idx);
        let node_len = InnerNode::byte_size(node.header.kind);
        let (prev, bytes) = self.dm.cas_and_read(
            node_ptr.checked_add(offset)?,
            0,
            new_slot.encode(),
            node_ptr,
            node_len,
        )?;
        self.invalidate_cached(node_ptr);
        if prev != 0 {
            return Ok(false);
        }
        let now = match InnerNode::decode(&bytes) {
            Ok(n) => n,
            Err(_) => return self.resolve_settled_install(node, node_ptr, idx, byte, key),
        };
        if now.header.status != NodeStatus::Idle || now.header.kind != node.header.kind {
            return self.resolve_settled_install(node, node_ptr, idx, byte, key);
        }
        let duplicated = now
            .slots
            .iter()
            .enumerate()
            .any(|(i, s)| i != idx && s.is_some_and(|s| s.key_byte == byte));
        if duplicated {
            let _ = self
                .dm
                .cas(node_ptr.checked_add(offset)?, new_slot.encode(), 0)?;
            return Ok(false);
        }
        Ok(true)
    }

    /// See `sphinx::write_ops::resolve_settled_install`.
    fn resolve_settled_install(
        &mut self,
        node: &InnerNode,
        node_ptr: RemotePtr,
        idx: usize,
        byte: u8,
        key: &[u8],
    ) -> Result<bool, BaselineError> {
        let offset = InnerNode::slot_offset(idx);
        for _ in 0..self.retry.op_retries {
            let control = self.dm.read_u64(node_ptr)?;
            match (control & 0xFF) as u8 {
                x if x == NodeStatus::Idle as u8 => {
                    let bytes = self
                        .dm
                        .read(node_ptr, InnerNode::byte_size(node.header.kind))?;
                    let Ok(now) = InnerNode::decode(&bytes) else {
                        continue;
                    };
                    if now.header.kind != node.header.kind {
                        continue;
                    }
                    let mine = now.slots.get(idx).copied().flatten();
                    if mine.map(|s| s.key_byte) != Some(byte) {
                        return Ok(false);
                    }
                    let duplicated = now
                        .slots
                        .iter()
                        .enumerate()
                        .any(|(i, s)| i != idx && s.is_some_and(|s| s.key_byte == byte));
                    if duplicated {
                        let word = mine.expect("checked above").encode();
                        let _ = self.dm.cas(node_ptr.checked_add(offset)?, word, 0)?;
                        return Ok(false);
                    }
                    return Ok(true);
                }
                x if x == NodeStatus::Invalid as u8 => {
                    let (loc, _) = self.locate(key, false)?;
                    return Ok(matches!(
                        loc.outcome,
                        Outcome::Leaf { ref leaf, .. }
                            if leaf.key == key && leaf.status != NodeStatus::Invalid
                    ));
                }
                _ => {
                    self.obs.incr("lock.spin");
                    self.backoff();
                }
            }
        }
        Err(BaselineError::RetriesExhausted {
            op: "install resolve",
        })
    }

    fn write_leaf_value(
        &mut self,
        node_ptr: RemotePtr,
        offset: u64,
        slot: &Slot,
        leaf: &LeafNode,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, BaselineError> {
        if leaf.fits_in_place(value.len()) {
            // Lock CAS and payload write travel in one engine call:
            // attribute the pair to LeafWrite wholesale.
            self.obs_phase(Phase::LeafWrite);
            let (idle, locked) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);
            let mut new_leaf = LeafNode::new(key.to_vec(), value.to_vec());
            new_leaf.version = leaf.version.wrapping_add(1);
            new_leaf.set_len_units(leaf.len_units());
            Ok(cas_locked_write(
                &mut self.dm,
                slot.addr,
                idle,
                locked,
                vec![(slot.addr, new_leaf.encode())],
            )?)
        } else {
            self.swap_leaf(node_ptr, offset, slot, key, value)
        }
    }

    fn swap_leaf(
        &mut self,
        node_ptr: RemotePtr,
        offset: u64,
        slot: &Slot,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, BaselineError> {
        self.obs_phase(Phase::LeafWrite);
        let new_ptr = write_new_leaf(&mut self.dm, key, value)?;
        let new_slot = Slot::leaf(slot.key_byte, new_ptr);
        match self.install_word(node_ptr, offset, slot.encode(), new_slot.encode())? {
            Install::Done => {
                // Tombstone the replaced leaf, then retire it: readers
                // still holding its address must see `Invalid` (or the
                // old value) until the grace period expires.
                let bytes = match self.read_leaf(slot.addr) {
                    Ok(old) => {
                        let (cur, inv) = old.status_cas_words(old.status, NodeStatus::Invalid);
                        let _ = self.dm.cas(slot.addr, cur, inv)?;
                        old.len_units().max(1) as u64 * 64
                    }
                    Err(_) => 64,
                };
                let BaselineClient { dm, reclaim, .. } = self;
                reclaim.retire(dm, slot.addr, bytes);
                Ok(true)
            }
            Install::Raced => {
                let _ = self.dm.free(new_ptr);
                Ok(false)
            }
            Install::Ambiguous => {
                // Possibly live in a mid-switch copy, and the baselines
                // have no hash table to re-probe ownership through:
                // abandon the region (counted, bounded leak).
                self.obs.incr("reclaim.ambiguous_abandoned");
                Ok(false)
            }
        }
    }

    fn split_leaf(
        &mut self,
        node_ptr: RemotePtr,
        offset: u64,
        slot: &Slot,
        leaf: &LeafNode,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, BaselineError> {
        if offset == VALUE_SLOT_OFFSET {
            // A value-slot leaf key equals the node prefix equals the
            // search key; a mismatch means the tree changed — retry.
            return Ok(false);
        }
        self.obs_phase(Phase::LeafWrite);
        let cpl = common_prefix_len(key, &leaf.key);
        let prefix = &key[..cpl];
        let kind = self.meta.config.fresh_node_kind();
        let mut n = InnerNode::new(kind, prefix);
        if leaf.key.len() == cpl {
            n.value_slot = Some(Slot::leaf(0, slot.addr));
        } else {
            n.set_child(Slot::leaf(leaf.key[cpl], slot.addr));
        }
        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
        if key.len() == cpl {
            n.value_slot = Some(Slot::leaf(0, leaf_ptr));
        } else {
            n.set_child(Slot::leaf(key[cpl], leaf_ptr));
        }
        let n_ptr = write_new_inner(&mut self.dm, &n, prefix)?;
        let new_slot = Slot::inner(slot.key_byte, kind, n_ptr);
        match self.install_word(node_ptr, offset, slot.encode(), new_slot.encode())? {
            Install::Done => Ok(true),
            Install::Raced => {
                let _ = self.dm.free(n_ptr);
                let _ = self.dm.free(leaf_ptr);
                Ok(false)
            }
            Install::Ambiguous => {
                self.obs.incr("reclaim.ambiguous_abandoned");
                Ok(false)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn split_path(
        &mut self,
        node_ptr: RemotePtr,
        slot_idx: usize,
        slot: &Slot,
        child: &InnerNode,
        sample: &LeafNode,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, BaselineError> {
        let cpl = common_prefix_len(key, &sample.key);
        let clen = child.header.prefix_len as usize;
        if cpl >= clen || cpl >= sample.key.len() {
            return Ok(false);
        }
        self.obs_phase(Phase::LeafWrite);
        let prefix = &key[..cpl];
        let kind = self.meta.config.fresh_node_kind();
        let mut n = InnerNode::new(kind, prefix);
        n.set_child(Slot::inner(sample.key[cpl], child.header.kind, slot.addr));
        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
        if key.len() == cpl {
            n.value_slot = Some(Slot::leaf(0, leaf_ptr));
        } else {
            n.set_child(Slot::leaf(key[cpl], leaf_ptr));
        }
        let n_ptr = write_new_inner(&mut self.dm, &n, prefix)?;
        let new_slot = Slot::inner(slot.key_byte, kind, n_ptr);
        match self.install_word(
            node_ptr,
            InnerNode::slot_offset(slot_idx),
            slot.encode(),
            new_slot.encode(),
        )? {
            Install::Done => Ok(true),
            Install::Raced => {
                let _ = self.dm.free(n_ptr);
                let _ = self.dm.free(leaf_ptr);
                Ok(false)
            }
            Install::Ambiguous => {
                self.obs.incr("reclaim.ambiguous_abandoned");
                Ok(false)
            }
        }
    }

    /// The adaptive node-type switch, with the parent slot known directly
    /// from the traversal (no hash table to consult — but also no way to
    /// shortcut it, which is the point of the baseline).
    fn type_switch_insert(
        &mut self,
        loc: &Descent,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, BaselineError> {
        let node = &loc.node;
        let plen = node.header.prefix_len as usize;
        let byte = key[plen];
        if node.grown_kind().is_none() {
            return Ok(false); // stale snapshot of a full Node256
        }
        let idle = node.header.control_with_status(NodeStatus::Idle);
        let locked = node.header.control_with_status(NodeStatus::Locked);
        self.obs_phase(Phase::LockAcquire);
        if self.dm.cas(loc.node_ptr, idle, locked)? != idle {
            self.obs.incr("lock.contended");
            return Ok(false);
        }
        let bytes = self
            .dm
            .read(loc.node_ptr, InnerNode::byte_size(node.header.kind))?;
        let fresh = InnerNode::decode(&bytes)?;
        let unlock = fresh.header.control_with_status(NodeStatus::Idle);
        if fresh.find_child(byte).is_some() {
            self.dm.write_u64(loc.node_ptr, unlock)?;
            return Ok(false);
        }
        if let Some(idx) = fresh.free_slot(byte) {
            self.obs_phase(Phase::LeafWrite);
            let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
            self.dm.write_many(vec![
                (
                    loc.node_ptr.checked_add(InnerNode::slot_offset(idx))?,
                    Slot::leaf(byte, leaf_ptr).encode().to_le_bytes().to_vec(),
                ),
                (loc.node_ptr, unlock.to_le_bytes().to_vec()),
            ])?;
            self.invalidate_cached(loc.node_ptr);
            return Ok(true);
        }
        self.obs_phase(Phase::LeafWrite);
        let mut grown = fresh.grow();
        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
        grown.set_child(Slot::leaf(byte, leaf_ptr));
        let grown_ptr = write_new_inner(&mut self.dm, &grown, &key[..plen])?;

        // Swing the pointer to this node: either the parent's child slot
        // or the root word.
        let via = loc.via.ok_or(BaselineError::Corrupt {
            what: "descent without a parent word",
        })?;
        let old_slot = Slot::decode(via.expected).ok_or(BaselineError::Corrupt {
            what: "parent slot empty",
        })?;
        let new_word = Slot::inner(old_slot.key_byte, grown.header.kind, grown_ptr).encode();
        let swung = match via.parent {
            None => {
                if self.dm.cas(self.meta.root_word, via.expected, new_word)? == via.expected {
                    Install::Done
                } else {
                    Install::Raced // the meta word has no switch ambiguity
                }
            }
            Some(pp) => {
                let offset = via.word_ptr.offset() - pp.offset();
                self.install_word(pp, offset, via.expected, new_word)?
            }
        };
        match swung {
            Install::Done => {}
            Install::Raced => {
                // Provably never linked: reclaim and retry.
                self.dm.write_u64(loc.node_ptr, unlock)?;
                let _ = self.dm.free(grown_ptr);
                let _ = self.dm.free(leaf_ptr);
                self.root_slot = None;
                return Ok(false);
            }
            Install::Ambiguous => {
                // The grown node may be linked through a copy, and the
                // baselines have no hash table to re-probe ownership
                // through: unlock the original, abandon the grown node
                // and leaf (counted, bounded leak), and let the retry
                // converge on whichever structure won.
                self.dm.write_u64(loc.node_ptr, unlock)?;
                self.obs.incr("reclaim.ambiguous_abandoned");
                self.root_slot = None;
                return Ok(false);
            }
        }
        // Invalidate and retire the original: concurrent traversals may
        // still hold its address, so the region waits out a grace period.
        {
            let BaselineClient { dm, reclaim, .. } = self;
            retire_inner(dm, reclaim, loc.node_ptr, &fresh)?;
        }
        self.invalidate_cached(loc.node_ptr);
        if via.parent.is_none() {
            self.root_slot = None; // our cached root pointer is stale now
        }
        Ok(true)
    }
}

/// How the walks of [`node_engine::walk`] read a baseline tree.
impl ArtReader for BaselineClient {
    type T = dm_sim::DmClient;

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
