//! Baseline index operations: root-to-leaf traversal (with optional node
//! cache), inserts with splits and type switches, updates, deletes, scans.

use art_core::hash::prefix_hash42;
use art_core::key::{common_prefix_len, MAX_KEY_LEN};
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot, VALUE_SLOT_OFFSET};
use dm_sim::{RemotePtr, Transport};
use node_engine::walk::{self, any_leaf, Tracked};
use node_engine::{
    cas_locked_write, retire_inner, retire_leaf, unlink_empty_inner, write_new_inner,
    write_new_leaf, ArtReader, EngineError, Install, LeafReadStats, Sampled, Unlink,
};
use obs::{OpKind, Phase};

use crate::error::BaselineError;
use crate::index::BaselineClient;

/// Where the traversal ended.
#[derive(Debug)]
enum BOutcome {
    Leaf {
        offset: u64,
        slot: Slot,
        leaf: LeafNode,
    },
    NoValueSlot,
    Empty {
        byte: u8,
    },
    Divergent {
        slot_idx: usize,
        slot: Slot,
        child: InnerNode,
        sample: LeafNode,
    },
    /// The divergent child's subtree holds no leaf (see
    /// `sphinx::Outcome::EmptyChild`).
    EmptyChild {
        slot_idx: usize,
        slot: Slot,
        child: InnerNode,
    },
}

/// A completed traversal: the deepest inner node whose prefix prefixes the
/// key, with the location of the slot pointing *to* that node (needed for
/// type switches — `None` parent means the node is the root, pointed to by
/// the meta word).
#[derive(Debug)]
struct Located {
    parent_node_ptr: Option<RemotePtr>,
    parent_word_ptr: RemotePtr,
    parent_expected: u64,
    node: InnerNode,
    node_ptr: RemotePtr,
    used_cache: bool,
    outcome: BOutcome,
}

#[allow(clippy::large_enum_variant)] // Retry is transient; Done is immediately unpacked
enum LocateResult {
    Done(Located),
    Retry,
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

    /// Reads an inner node, consulting the CN node cache when allowed.
    /// Returns the node and whether it came from the cache.
    fn read_inner_mc(
        &mut self,
        ptr: RemotePtr,
        kind: art_core::NodeKind,
        use_cache: bool,
    ) -> Result<(InnerNode, bool), EngineError> {
        if use_cache {
            if let Some(cache) = &self.cache {
                if let Some(node) = cache.lock().get(ptr) {
                    if node.header.kind == kind {
                        self.obs.incr("cache.hit");
                        return Ok((node, true));
                    }
                    cache.lock().invalidate(ptr);
                }
            }
        }
        if use_cache && self.cache.is_some() {
            self.obs.incr("cache.miss");
        }
        let bytes = self.dm.read(ptr, InnerNode::byte_size(kind))?;
        let node = InnerNode::decode(&bytes)?;
        if let Some(cache) = &self.cache {
            if node.header.status == NodeStatus::Idle && node.header.kind == kind {
                cache.lock().put(ptr, node.clone());
            }
        }
        Ok((node, false))
    }

    fn invalidate_cached(&mut self, ptr: RemotePtr) {
        if let Some(cache) = &self.cache {
            cache.lock().invalidate(ptr);
        }
    }

    /// Root-to-leaf traversal. One network round trip per uncached level —
    /// the cost profile that motivates Sphinx.
    fn locate(&mut self, key: &[u8], use_cache: bool) -> Result<Located, BaselineError> {
        if key.len() > MAX_KEY_LEN {
            return Err(BaselineError::KeyTooLong { len: key.len() });
        }
        for attempt in 0..self.retry.op_retries {
            match self.locate_once(key, use_cache)? {
                LocateResult::Done(loc) => return Ok(loc),
                LocateResult::Retry => {
                    self.stats.retries += 1;
                    self.obs.retry();
                    self.obs_phase(Phase::Retry);
                    self.root_slot(true)?;
                    if attempt > 2 {
                        self.backoff();
                    }
                }
            }
        }
        Err(BaselineError::RetriesExhausted { op: "locate" })
    }

    fn locate_once(&mut self, key: &[u8], use_cache: bool) -> Result<LocateResult, BaselineError> {
        self.obs_phase(Phase::Traversal);
        let root = self.root_slot(false)?;
        let mut parent_node_ptr: Option<RemotePtr> = None;
        let mut parent_word_ptr = self.meta.root_word;
        let mut parent_expected = root.encode();
        let mut node_ptr = root.addr;
        let (mut node, mut used_cache) =
            self.read_inner_mc(root.addr, root.child_kind, use_cache)?;
        loop {
            if node.header.status == NodeStatus::Invalid {
                self.invalidate_cached(node_ptr);
                return Ok(LocateResult::Retry);
            }
            let plen = node.header.prefix_len as usize;
            let done = |outcome| {
                Ok(LocateResult::Done(Located {
                    parent_node_ptr,
                    parent_word_ptr,
                    parent_expected,
                    node: node.clone(),
                    node_ptr,
                    used_cache,
                    outcome,
                }))
            };
            if key.len() == plen {
                return match node.value_slot {
                    Some(slot) => {
                        let leaf = self.read_leaf(slot.addr)?;
                        done(BOutcome::Leaf {
                            offset: VALUE_SLOT_OFFSET,
                            slot,
                            leaf,
                        })
                    }
                    None => done(BOutcome::NoValueSlot),
                };
            }
            let byte = key[plen];
            match node.find_child(byte) {
                None => return done(BOutcome::Empty { byte }),
                Some((idx, slot)) if slot.is_leaf => {
                    let leaf = self.read_leaf(slot.addr)?;
                    return done(BOutcome::Leaf {
                        offset: InnerNode::slot_offset(idx),
                        slot,
                        leaf,
                    });
                }
                Some((idx, slot)) => {
                    let (child, hit) = self.read_inner_mc(slot.addr, slot.child_kind, use_cache)?;
                    if child.header.status == NodeStatus::Invalid
                        || child.header.kind != slot.child_kind
                    {
                        self.invalidate_cached(slot.addr);
                        self.invalidate_cached(node_ptr);
                        return Ok(LocateResult::Retry);
                    }
                    let clen = child.header.prefix_len as usize;
                    if clen <= plen {
                        self.invalidate_cached(slot.addr);
                        return Ok(LocateResult::Retry);
                    }
                    if key.len() >= clen
                        && child.header.prefix_hash42 == prefix_hash42(&key[..clen])
                    {
                        parent_node_ptr = Some(node_ptr);
                        parent_word_ptr = node_ptr.checked_add(InnerNode::slot_offset(idx))?;
                        parent_expected = slot.encode();
                        node_ptr = slot.addr;
                        node = child;
                        used_cache |= hit;
                        continue;
                    }
                    return match any_leaf(self, &child)? {
                        Sampled::Busy => Ok(LocateResult::Retry),
                        Sampled::Empty => done(BOutcome::EmptyChild {
                            slot_idx: idx,
                            slot,
                            child,
                        }),
                        Sampled::Leaf(sample) => done(BOutcome::Divergent {
                            slot_idx: idx,
                            slot,
                            child,
                            sample,
                        }),
                    };
                }
            }
        }
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
        self.stats.gets += 1;
        self.obs_begin(OpKind::Get);
        let r = self.get_inner(key);
        self.op_exit();
        r
    }

    fn get_inner(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, BaselineError> {
        for pass in 0..2 {
            let use_cache = pass == 0;
            let loc = self.locate(key, use_cache)?;
            match loc.outcome {
                BOutcome::Leaf { leaf, .. } if leaf.key == key => {
                    return Ok((leaf.status != NodeStatus::Invalid).then_some(leaf.value));
                }
                _ if loc.used_cache => {
                    // A stale cached node can hide recent inserts: confirm
                    // the miss with a remote traversal (our stand-in for
                    // SMART's reverse check).
                }
                _ => return Ok(None),
            }
        }
        Ok(None)
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
            let loc = self.locate(key, use_cache)?;
            let done = match loc.outcome {
                BOutcome::Leaf {
                    offset,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        self.swap_leaf(loc.node_ptr, offset, slot, key, value)?
                    } else {
                        self.write_leaf_value(loc.node_ptr, offset, slot, leaf, key, value)?
                    }
                }
                BOutcome::Leaf {
                    offset,
                    ref slot,
                    ref leaf,
                } => self.split_leaf(loc.node_ptr, offset, slot, leaf, key, value)?,
                BOutcome::NoValueSlot => {
                    let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
                    let new_slot = Slot::leaf(0, leaf_ptr);
                    self.install_word(loc.node_ptr, VALUE_SLOT_OFFSET, 0, new_slot.encode())?
                        == Install::Done
                }
                BOutcome::Empty { byte } => match loc.node.free_slot(byte) {
                    Some(idx) => {
                        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
                        let new_slot = Slot::leaf(byte, leaf_ptr);
                        self.install_fresh_child(&loc.node, loc.node_ptr, idx, byte, new_slot, key)?
                    }
                    None => self.type_switch_insert(&loc, key, value)?,
                },
                BOutcome::Divergent {
                    slot_idx,
                    ref slot,
                    ref child,
                    ref sample,
                } => self.split_path(loc.node_ptr, slot_idx, slot, child, sample, key, value)?,
                // Garbage a delete left where this key's path forks: unlink
                // it, then retry into the freed slot.
                BOutcome::EmptyChild {
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
            let loc = self.locate(key, use_cache)?;
            match loc.outcome {
                BOutcome::Leaf {
                    offset,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        return Ok(false);
                    }
                    if self.write_leaf_value(loc.node_ptr, offset, slot, leaf, key, value)? {
                        return Ok(true);
                    }
                }
                _ if loc.used_cache => {} // confirm the miss uncached
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
            let loc = self.locate(key, use_cache)?;
            match loc.outcome {
                BOutcome::Leaf {
                    offset,
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
                    if self.install_word(loc.node_ptr, offset, slot.encode(), 0)? == Install::Done {
                        // Our CAS unlinked the tombstoned leaf: its region
                        // is ours to reclaim once a grace period passes.
                        let BaselineClient { dm, reclaim, .. } = self;
                        retire_leaf(dm, reclaim, slot.addr, leaf);
                    }
                    // Raced/Ambiguous: whoever replaced (or copied) the
                    // slot owns the region's retirement now.
                    return Ok(true);
                }
                _ if loc.used_cache => {}
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
            let (root_node, _) = self.read_inner_mc(root.addr, root.child_kind, true)?;
            Ok(walk::scan(self, Tracked::root(root_node), low, high)?)
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
                    let loc = self.locate(key, false)?;
                    return Ok(matches!(
                        loc.outcome,
                        BOutcome::Leaf { ref leaf, .. }
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
        loc: &Located,
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
        let old_slot = Slot::decode(loc.parent_expected).ok_or(BaselineError::Corrupt {
            what: "parent slot empty",
        })?;
        let new_word = Slot::inner(old_slot.key_byte, grown.header.kind, grown_ptr).encode();
        let swung = match loc.parent_node_ptr {
            None => {
                if self
                    .dm
                    .cas(self.meta.root_word, loc.parent_expected, new_word)?
                    == loc.parent_expected
                {
                    Install::Done
                } else {
                    Install::Raced // the meta word has no switch ambiguity
                }
            }
            Some(pp) => {
                let offset = loc.parent_word_ptr.offset() - pp.offset();
                self.install_word(pp, offset, loc.parent_expected, new_word)?
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
        if loc.parent_node_ptr.is_none() {
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
        Ok(self.read_inner_mc(ptr, kind, false)?.0)
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
    fn read_level(&mut self, reads: &[(RemotePtr, usize)]) -> Result<Vec<Vec<u8>>, EngineError> {
        let group = if self.meta.config.batched_scan {
            reads.len().max(1)
        } else {
            8
        };
        let mut fetched = Vec::with_capacity(reads.len());
        for group in reads.chunks(group) {
            fetched.extend(self.dm.read_many(group)?);
        }
        Ok(fetched)
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
