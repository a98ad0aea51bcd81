//! Write operations: insert (with node splits and type switches), update
//! (in-place and out-of-place), delete. Implements §IV of the paper.

use art_core::hash::{fp12, prefix_hash64};
use art_core::key::common_prefix_len;
use art_core::layout::{HashEntry, InnerNode, LeafNode, NodeStatus, Slot, VALUE_SLOT_OFFSET};
use art_core::NodeKind;
use dm_sim::{DmClient, RemotePtr, Transport};
use node_engine::{
    cas_locked_write, install_word, read_inner_consistent, read_validated_leaf, retire_inner,
    retire_leaf, unlink_empty_inner, write_new_leaf, Install, LeafReadStats, Unlink,
};
use obs::{OpKind, Phase};
use race_hash::RaceError;

use crate::client::{AmbiguousProbe, Descent, Outcome, ProbeKind, SlotRef, SphinxClient};
use crate::config::CacheMode;
use crate::error::SphinxError;

/// The split oracle the Inner Node Hash Table needs: recover each entry's
/// key hash from the entry word by reading the referenced node's 42-bit
/// full-prefix hash (word 1), which equals the low 42 bits of the
/// placement hash. One doorbell batch for the whole round of words.
fn inht_split_oracle(client: &mut DmClient, words: Vec<u64>) -> Result<Vec<u64>, RaceError> {
    let mut reads = Vec::with_capacity(words.len());
    for word in words {
        let entry = HashEntry::decode(word).ok_or(RaceError::Corrupt {
            what: "undecodable hash entry",
        })?;
        reads.push((entry.addr.checked_add(8)?, 8));
    }
    Ok(client
        .read_many(&reads)?
        .into_iter()
        .map(|w1| u64::from_le_bytes(w1.try_into().expect("8 bytes")) & ((1 << 42) - 1))
        .collect())
}

impl SphinxClient {
    /// Inserts or overwrites `key` with `value` (upsert, matching YCSB
    /// insert semantics).
    ///
    /// # Errors
    ///
    /// [`SphinxError::KeyTooLong`], [`SphinxError::RetriesExhausted`]
    /// under pathological contention, or substrate errors.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), SphinxError> {
        self.stats.inserts += 1;
        self.obs_begin(OpKind::Insert);
        let r = self.insert_inner(key, value);
        self.op_exit();
        r
    }

    fn insert_inner(&mut self, key: &[u8], value: &[u8]) -> Result<(), SphinxError> {
        for _ in 0..self.retry.op_retries {
            let d = self.locate(key)?;
            // An ambiguous install from a previous iteration usually
            // settles on this very lookup: apply it as evidence for free.
            self.resolve_probes_with(key, &d);
            let done = match d.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        // Deleted leaf still linked: replace it outright.
                        self.swap_leaf(d.node_ptr, slot_ref, slot, key, value)?
                    } else {
                        self.write_leaf_value(d.node_ptr, slot_ref, slot, leaf, key, value)?
                    }
                }
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } => self.split_leaf(d.node_ptr, slot_ref, slot, leaf, key, value)?,
                Outcome::NoValueSlot => {
                    let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
                    let new_slot = Slot::leaf(0, leaf_ptr);
                    install_word(
                        &mut self.dm,
                        d.node_ptr,
                        VALUE_SLOT_OFFSET,
                        0,
                        new_slot.encode(),
                    )? == Install::Done
                }
                Outcome::Empty { byte } => match d.node.free_slot(byte) {
                    Some(idx) => {
                        let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
                        let new_slot = Slot::leaf(byte, leaf_ptr);
                        self.install_fresh_child(&d.node, d.node_ptr, idx, byte, new_slot, key)?
                    }
                    None => self.type_switch_insert(&d.node, d.node_ptr, key, value)?,
                },
                Outcome::Divergent {
                    slot_idx,
                    ref slot,
                    ref child,
                    ref sample,
                } => self.split_path(d.node_ptr, slot_idx, slot, child, sample, key, value)?,
                // Garbage a delete failed to unlink sits where this key's
                // path forks: unlink it, then retry into the freed slot.
                Outcome::EmptyChild {
                    slot_idx,
                    ref slot,
                    ref child,
                } => {
                    self.prune_empty_inner(d.node_ptr, &d.node, slot_idx, slot, child)?;
                    false
                }
            };
            if done {
                return Ok(());
            }
            self.obs_retry();
            self.obs_phase(Phase::Retry);
            self.dm.backoff(&self.retry);
        }
        Err(SphinxError::RetriesExhausted { op: "insert" })
    }

    /// Updates an existing key. Returns `false` if the key is absent.
    ///
    /// Fits-in-place updates use the checksum scheme of §III-C: one CAS to
    /// lock, one write that simultaneously stores the value, refreshes the
    /// checksum and releases the lock.
    ///
    /// # Errors
    ///
    /// Same classes as [`SphinxClient::insert`].
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Result<bool, SphinxError> {
        self.stats.updates += 1;
        self.obs_begin(OpKind::Update);
        let r = self.update_inner(key, value);
        self.op_exit();
        r
    }

    fn update_inner(&mut self, key: &[u8], value: &[u8]) -> Result<bool, SphinxError> {
        for _ in 0..self.retry.op_retries {
            let d = self.locate(key)?;
            match d.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        return Ok(false);
                    }
                    if self.write_leaf_value(d.node_ptr, slot_ref, slot, leaf, key, value)? {
                        return Ok(true);
                    }
                }
                _ => return Ok(false),
            }
            self.obs_retry();
            self.obs_phase(Phase::Retry);
            self.dm.backoff(&self.retry);
        }
        Err(SphinxError::RetriesExhausted { op: "update" })
    }

    /// Deletes a key. Returns whether this client performed the deletion.
    ///
    /// # Errors
    ///
    /// Same classes as [`SphinxClient::insert`].
    pub fn remove(&mut self, key: &[u8]) -> Result<bool, SphinxError> {
        self.stats.deletes += 1;
        self.obs_begin(OpKind::Delete);
        let r = self.remove_inner(key);
        self.op_exit();
        r
    }

    fn remove_inner(&mut self, key: &[u8]) -> Result<bool, SphinxError> {
        for _ in 0..self.retry.op_retries {
            let d = self.locate(key)?;
            match d.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key => {
                    if leaf.status == NodeStatus::Invalid {
                        // Another client deleted it (and owns the slot
                        // cleanup).
                        return Ok(false);
                    }
                    // 1. Invalidate the leaf. A delete never CASes a status
                    //    it did not observe as `Idle`: a `Locked` leaf is an
                    //    in-place update between its two round trips, and
                    //    tombstoning it would steal that lock (the update's
                    //    publishing write would then resurrect the leaf).
                    //    Wait it out; a lost CAS means the leaf changed.
                    self.obs_phase(Phase::LeafWrite);
                    let (idle, inv) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Invalid);
                    if leaf.status == NodeStatus::Locked
                        || self.dm.cas(slot.addr, idle, inv)? != idle
                    {
                        self.obs_retry();
                        self.dm.backoff(&self.retry);
                        continue;
                    }
                    // 2. Unlink from the parent. A racing type switch can
                    //    make this fail; re-locate until the slot is gone.
                    let offset = match slot_ref {
                        SlotRef::Child(i) => InnerNode::slot_offset(i),
                        SlotRef::Value => VALUE_SLOT_OFFSET,
                    };
                    if install_word(&mut self.dm, d.node_ptr, offset, slot.encode(), 0)?
                        == Install::Done
                    {
                        // 3. This client won the unlink: the tombstoned
                        //    leaf enters the limbo list and is freed once
                        //    its grace period elapses.
                        let SphinxClient { dm, reclaim, .. } = self;
                        retire_leaf(dm, reclaim, slot.addr, leaf);
                        // 4. That was the node's last occupant: unlink the
                        //    node too, or lookups that leave its compressed
                        //    path would sample a leaf that does not exist.
                        let n = &d.node;
                        if n.value_slot.is_some() as usize + n.child_count() == 1 {
                            self.prune_emptied(key, n, d.node_ptr)?;
                        }
                    } else {
                        self.unlink_invalid_leaf(key)?;
                    }
                    return Ok(true);
                }
                _ => return Ok(false),
            }
        }
        Err(SphinxError::RetriesExhausted { op: "remove" })
    }

    /// After this client invalidated a leaf but lost the unlink race (e.g.
    /// to a concurrent type switch that copied the slot), chase the moved
    /// slot until it is cleared.
    fn unlink_invalid_leaf(&mut self, key: &[u8]) -> Result<(), SphinxError> {
        for _ in 0..self.retry.op_retries {
            let d = self.locate(key)?;
            match d.outcome {
                Outcome::Leaf {
                    slot_ref,
                    ref slot,
                    ref leaf,
                } if leaf.key == key && leaf.status == NodeStatus::Invalid => {
                    let offset = match slot_ref {
                        SlotRef::Child(i) => InnerNode::slot_offset(i),
                        SlotRef::Value => VALUE_SLOT_OFFSET,
                    };
                    if install_word(&mut self.dm, d.node_ptr, offset, slot.encode(), 0)?
                        == Install::Done
                    {
                        // Won the (moved) unlink: retire the tombstoned
                        // leaf exactly as on the fast path.
                        let SphinxClient { dm, reclaim, .. } = self;
                        retire_leaf(dm, reclaim, slot.addr, leaf);
                        return Ok(());
                    }
                    self.dm.backoff(&self.retry);
                }
                // Slot already gone: whoever cleared (or replaced) it won
                // the unlink and owns the region's retirement.
                _ => return Ok(()),
            }
        }
        Err(SphinxError::RetriesExhausted { op: "unlink" })
    }

    /// Unlinks the inner node with full prefix `key[..plen]` after `remove`
    /// emptied it, then its ancestors for as long as each unlink leaves the
    /// next one empty. The root stays.
    fn prune_emptied(
        &mut self,
        key: &[u8],
        node: &InnerNode,
        node_ptr: RemotePtr,
    ) -> Result<(), SphinxError> {
        let (mut node, mut node_ptr) = (node.clone(), node_ptr);
        loop {
            let plen = node.header.prefix_len as usize;
            if plen == 0 {
                return Ok(());
            }
            let Some((parent_ptr, mut parent, idx, slot)) =
                self.find_parent_slot(key, plen, node_ptr)?
            else {
                return Ok(());
            };
            if !self.prune_empty_inner(parent_ptr, &parent, idx, &slot, &node)? {
                return Ok(());
            }
            parent.slots[idx] = None;
            if parent.value_slot.is_some() || parent.child_count() > 0 {
                return Ok(());
            }
            (node, node_ptr) = (parent, parent_ptr);
        }
    }

    /// [`unlink_empty_inner`] plus what Sphinx owes the unlinked node: its
    /// hash-table entry dropped, then retirement. The entry is found from
    /// the node alone (an insert healing a leftover does not know the
    /// prefix bytes): the INHT addresses with hash bits below 42, so
    /// `prefix_hash42` finds the bucket pair on whichever MN holds it, and
    /// the address picks the entry. Emptied nodes below `child` go first
    /// (an abandoned unlink can leave a chain of them). Returns whether the
    /// node is gone.
    fn prune_empty_inner(
        &mut self,
        parent_ptr: RemotePtr,
        parent: &InnerNode,
        idx: usize,
        slot: &Slot,
        child: &InnerNode,
    ) -> Result<bool, SphinxError> {
        self.obs_phase(Phase::Maintenance);
        for (i, below) in child.slots.iter().enumerate() {
            if let Some(below) = below.filter(|s| !s.is_leaf) {
                let node = read_inner_consistent(&mut self.dm, below.addr, below.child_kind)?;
                self.prune_empty_inner(slot.addr, child, i, &below, &node)?;
            }
        }
        let dead = match unlink_empty_inner(&mut self.dm, parent_ptr, parent, idx, slot, child)? {
            Unlink::Done(dead) => dead,
            Unlink::Kept => return Ok(false),
            Unlink::Abandoned => {
                self.obs.incr("prune.abandoned");
                return Ok(false);
            }
        };
        let h42 = dead.header.prefix_hash42;
        let SphinxClient {
            tables,
            dm,
            reclaim,
            ..
        } = self;
        for table in tables.iter_mut() {
            let named = table
                .search(dm, h42)?
                .into_iter()
                .find(|e| HashEntry::decode(e.word).is_some_and(|he| he.addr == slot.addr));
            if let Some(entry) = named {
                table.remove(dm, h42, entry.word)?;
                break;
            }
        }
        retire_inner(dm, reclaim, slot.addr, &dead)?;
        self.obs.incr("prune.nodes");
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Building blocks.
    // ------------------------------------------------------------------

    /// Installs a slot for a dispatch byte that had **no** child — the one
    /// case where two racing clients can occupy *different* free slots for
    /// the *same* byte (each CAS succeeds against 0). The batch re-reads
    /// the whole node after the CAS; if *any other* occupied slot carries
    /// the same byte, this client undoes its install and retries. Because
    /// at least one of two racers always observes the other (their
    /// CAS→read windows overlap), at most one install survives.
    fn install_fresh_child(
        &mut self,
        node: &InnerNode,
        node_ptr: RemotePtr,
        idx: usize,
        byte: u8,
        new_slot: Slot,
        key: &[u8],
    ) -> Result<bool, SphinxError> {
        let offset = InnerNode::slot_offset(idx);
        let node_len = InnerNode::byte_size(node.header.kind);
        let (prev, bytes) = self.dm.cas_and_read(
            node_ptr.checked_add(offset)?,
            0,
            new_slot.encode(),
            node_ptr,
            node_len,
        )?;
        if prev != 0 {
            // Clean CAS loss: the fresh leaf was never published anywhere,
            // so it can bypass the grace period.
            let _ = self.dm.free(new_slot.addr);
            return Ok(false);
        }
        let mut now = match InnerNode::decode(&bytes) {
            Ok(n) => n,
            Err(_) => return self.resolve_settled_install(node, node_ptr, idx, byte, key),
        };
        if now.header.status != NodeStatus::Idle || now.header.kind != node.header.kind {
            // The node is mid type-switch: our word may or may not be in
            // the replacement's copy, and leaving a duplicate byte behind
            // would shadow a sibling key. Wait for the switch to settle
            // and resolve deterministically.
            return self.resolve_settled_install(node, node_ptr, idx, byte, key);
        }
        // Duplicate check: any *other* occupant of this byte forces an
        // undo (symmetric rule — a one-sided tie-break can double-keep
        // when one racer's read predates the other's CAS).
        let duplicated = now
            .slots
            .iter()
            .enumerate()
            .any(|(i, s)| i != idx && s.is_some_and(|s| s.key_byte == byte));
        let _ = &mut now;
        if duplicated {
            let prev = self
                .dm
                .cas(node_ptr.checked_add(offset)?, new_slot.encode(), 0)?;
            if prev == new_slot.encode() {
                // We unlinked our own briefly-visible leaf; a racing reader
                // may hold its address, so it takes the grace period. (The
                // true leaf size is not in scope here — 64 bytes is the
                // minimum unit and only skews telemetry, not the free.)
                let SphinxClient { dm, reclaim, .. } = self;
                reclaim.retire(dm, new_slot.addr, 64);
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// After a fresh-child CAS landed on a node observed mid type-switch,
    /// waits for the node to settle and resolves the install outcome
    /// deterministically:
    ///
    /// * node back to `Idle` (the switch bailed): rerun the duplicate
    ///   check; undo is safe again because no copy is in flight;
    /// * node `Invalid` (the switch completed): the word survives iff the
    ///   switcher's copy caught it — observable by looking the key up
    ///   through the fresh structure.
    fn resolve_settled_install(
        &mut self,
        node: &InnerNode,
        node_ptr: RemotePtr,
        idx: usize,
        byte: u8,
        key: &[u8],
    ) -> Result<bool, SphinxError> {
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
                        return Ok(false); // someone cleared it; retry
                    }
                    let duplicated = now
                        .slots
                        .iter()
                        .enumerate()
                        .any(|(i, s)| i != idx && s.is_some_and(|s| s.key_byte == byte));
                    if duplicated {
                        let slot = mine.expect("checked above");
                        let prev = self
                            .dm
                            .cas(node_ptr.checked_add(offset)?, slot.encode(), 0)?;
                        if prev == slot.encode() {
                            // Same undo as in `install_fresh_child`: we won
                            // the unlink of our own word, so the leaf takes
                            // the grace period.
                            let SphinxClient { dm, reclaim, .. } = self;
                            reclaim.retire(dm, slot.addr, 64);
                        }
                        return Ok(false);
                    }
                    return Ok(true);
                }
                x if x == NodeStatus::Invalid as u8 => {
                    // Switch completed: success iff the key is reachable in
                    // the replacement structure.
                    return self.key_is_live(key);
                }
                _ => {
                    // Still locked: let the switcher run.
                    self.obs.incr("lock.spin");
                    self.dm.backoff(&self.retry);
                }
            }
        }
        Err(SphinxError::RetriesExhausted {
            op: "install resolve",
        })
    }

    /// Whether `key` currently resolves to a live leaf holding it.
    fn key_is_live(&mut self, key: &[u8]) -> Result<bool, SphinxError> {
        let d = self.locate(key)?;
        Ok(matches!(
            d.outcome,
            Outcome::Leaf { ref leaf, .. }
                if leaf.key == key && leaf.status != NodeStatus::Invalid
        ))
    }

    /// Writes a new value into an existing leaf: in place when it fits
    /// (§III-C), else out of place via slot replacement.
    fn write_leaf_value(
        &mut self,
        node_ptr: RemotePtr,
        slot_ref: SlotRef,
        slot: &Slot,
        leaf: &LeafNode,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, SphinxError> {
        if leaf.fits_in_place(value.len()) {
            // One CAS (lock) + one write (value + checksum + unlock) in a
            // single engine call: attributed wholesale to LeafWrite.
            self.obs_phase(Phase::LeafWrite);
            let (idle, locked) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);
            let mut new_leaf = LeafNode::new(key.to_vec(), value.to_vec());
            new_leaf.version = leaf.version.wrapping_add(1);
            new_leaf.set_len_units(leaf.len_units());
            // The publishing write stores the value, refreshes the checksum
            // and — because the written status byte is Idle — releases the
            // lock. A lost lock CAS means the leaf changed; retry.
            Ok(cas_locked_write(
                &mut self.dm,
                slot.addr,
                idle,
                locked,
                vec![(slot.addr, new_leaf.encode())],
            )?)
        } else {
            self.swap_leaf(node_ptr, slot_ref, slot, key, value)
        }
    }

    /// Out-of-place leaf replacement: write a fresh leaf, swing the parent
    /// slot, invalidate the old leaf.
    fn swap_leaf(
        &mut self,
        node_ptr: RemotePtr,
        slot_ref: SlotRef,
        slot: &Slot,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, SphinxError> {
        self.obs_phase(Phase::LeafWrite);
        let new_ptr = write_new_leaf(&mut self.dm, key, value)?;
        let new_slot = Slot::leaf(slot.key_byte, new_ptr);
        let offset = match slot_ref {
            SlotRef::Child(i) => InnerNode::slot_offset(i),
            SlotRef::Value => VALUE_SLOT_OFFSET,
        };
        match install_word(
            &mut self.dm,
            node_ptr,
            offset,
            slot.encode(),
            new_slot.encode(),
        )? {
            Install::Done => {
                // Tombstone the unlinked leaf so laggard readers holding
                // its address see an invalid node, then hand the region to
                // the epoch reclaimer (docs/RECLAMATION.md): it is freed
                // once every other client has pinned a later epoch.
                self.tombstone_and_retire(slot.addr);
                Ok(true)
            }
            Install::Raced => {
                let _ = self.dm.free(new_ptr);
                Ok(false)
            }
            Install::Ambiguous => {
                // The new leaf may live on in a type-switched copy of the
                // node: defer the ownership decision to a re-probe at an
                // operation boundary.
                self.ambiguous.push(AmbiguousProbe {
                    key: key.to_vec(),
                    attempts: 0,
                    kind: ProbeKind::SwapLeaf {
                        old: slot.addr,
                        fresh: new_ptr,
                        fresh_bytes: LeafNode::encoded_size(key.len(), value.len()) as u64,
                    },
                });
                Ok(false)
            }
        }
    }

    /// Best-effort tombstone of an unlinked leaf (so laggard readers see
    /// an invalid node) followed by its retirement into the limbo list.
    /// Only the client that won the unlinking CAS may call this.
    fn tombstone_and_retire(&mut self, ptr: RemotePtr) {
        let mut io = LeafReadStats::default();
        let bytes = match read_validated_leaf(&mut self.dm, ptr, 64, &self.retry, &mut io) {
            Ok(old) => {
                if old.status != NodeStatus::Invalid {
                    let (cur, inv) = old.status_cas_words(old.status, NodeStatus::Invalid);
                    let _ = self.dm.cas(ptr, cur, inv);
                }
                old.len_units().max(1) as u64 * 64
            }
            Err(_) => 64,
        };
        let SphinxClient { dm, reclaim, .. } = self;
        reclaim.retire(dm, ptr, bytes);
    }

    /// Case: dispatch slot holds a leaf with a *different* key — create a
    /// Node4 over their common prefix (an ART node split).
    fn split_leaf(
        &mut self,
        node_ptr: RemotePtr,
        slot_ref: SlotRef,
        slot: &Slot,
        leaf: &LeafNode,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, SphinxError> {
        let SlotRef::Child(slot_idx) = slot_ref else {
            // A value-slot leaf's key equals the node prefix, which equals
            // the search key when the descent ends there — a mismatch here
            // means the tree changed under us; retry.
            return Ok(false);
        };
        let cpl = common_prefix_len(key, &leaf.key);
        let prefix = &key[..cpl];
        self.obs_phase(Phase::LeafWrite);
        // The new leaf's address is needed inside the new inner node, so
        // allocate it first; both writes then share one doorbell batch.
        let leaf_ptr = self.dm.alloc_placed(
            prefix_hash64(key),
            art_core::layout::LeafNode::encoded_size(key.len(), value.len()),
        )?;
        let mut n = InnerNode::new(NodeKind::Node4, prefix);
        // Re-hang the existing leaf (reusing its storage).
        if leaf.key.len() == cpl {
            n.value_slot = Some(Slot::leaf(0, slot.addr));
        } else {
            n.set_child(Slot::leaf(leaf.key[cpl], slot.addr));
        }
        if key.len() == cpl {
            n.value_slot = Some(Slot::leaf(0, leaf_ptr));
        } else {
            n.set_child(Slot::leaf(key[cpl], leaf_ptr));
        }
        let node_bytes = n.encode();
        let n_ptr = self
            .dm
            .alloc_placed(prefix_hash64(prefix), node_bytes.len())?;
        self.dm.write_many(vec![
            (
                leaf_ptr,
                art_core::layout::LeafNode::new(key.to_vec(), value.to_vec()).encode(),
            ),
            (n_ptr, node_bytes),
        ])?;
        let new_slot = Slot::inner(slot.key_byte, NodeKind::Node4, n_ptr);
        match install_word(
            &mut self.dm,
            node_ptr,
            InnerNode::slot_offset(slot_idx),
            slot.encode(),
            new_slot.encode(),
        )? {
            Install::Done => {
                self.publish_new_inner(prefix, NodeKind::Node4, n_ptr)?;
                Ok(true)
            }
            Install::Raced => {
                let _ = self.dm.free(n_ptr);
                let _ = self.dm.free(leaf_ptr);
                Ok(false)
            }
            Install::Ambiguous => {
                // The new node (and the leaf inside it) may be live in a
                // type-switched copy: defer ownership to a re-probe.
                self.ambiguous.push(AmbiguousProbe {
                    key: key.to_vec(),
                    attempts: 0,
                    kind: ProbeKind::NewInner {
                        node: n_ptr,
                        node_bytes: InnerNode::byte_size(NodeKind::Node4) as u64,
                        leaf: leaf_ptr,
                        leaf_bytes: LeafNode::encoded_size(key.len(), value.len()) as u64,
                        old: slot.addr,
                        plen: cpl,
                    },
                });
                Ok(false)
            }
        }
    }

    /// Case: dispatch slot holds an inner node whose compressed path
    /// diverges from the key — split the path with a Node4 over the common
    /// prefix (learned from `sample`, a leaf of the child's subtree).
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
    ) -> Result<bool, SphinxError> {
        let cpl = common_prefix_len(key, &sample.key);
        let clen = child.header.prefix_len as usize;
        if cpl >= clen || cpl >= sample.key.len() {
            // The structure changed since we sampled; retry.
            return Ok(false);
        }
        let prefix = &key[..cpl];
        self.obs_phase(Phase::LeafWrite);
        let leaf_ptr = self.dm.alloc_placed(
            prefix_hash64(key),
            art_core::layout::LeafNode::encoded_size(key.len(), value.len()),
        )?;
        let mut n = InnerNode::new(NodeKind::Node4, prefix);
        n.set_child(Slot::inner(sample.key[cpl], child.header.kind, slot.addr));
        if key.len() == cpl {
            n.value_slot = Some(Slot::leaf(0, leaf_ptr));
        } else {
            n.set_child(Slot::leaf(key[cpl], leaf_ptr));
        }
        let node_bytes = n.encode();
        let n_ptr = self
            .dm
            .alloc_placed(prefix_hash64(prefix), node_bytes.len())?;
        self.dm.write_many(vec![
            (
                leaf_ptr,
                art_core::layout::LeafNode::new(key.to_vec(), value.to_vec()).encode(),
            ),
            (n_ptr, node_bytes),
        ])?;
        let new_slot = Slot::inner(slot.key_byte, NodeKind::Node4, n_ptr);
        match install_word(
            &mut self.dm,
            node_ptr,
            InnerNode::slot_offset(slot_idx),
            slot.encode(),
            new_slot.encode(),
        )? {
            Install::Done => {
                self.publish_new_inner(prefix, NodeKind::Node4, n_ptr)?;
                Ok(true)
            }
            Install::Raced => {
                let _ = self.dm.free(n_ptr);
                let _ = self.dm.free(leaf_ptr);
                Ok(false)
            }
            Install::Ambiguous => {
                // Same as in `split_leaf`: adoption is decided by a
                // deferred re-probe, not guessed here.
                self.ambiguous.push(AmbiguousProbe {
                    key: key.to_vec(),
                    attempts: 0,
                    kind: ProbeKind::NewInner {
                        node: n_ptr,
                        node_bytes: InnerNode::byte_size(NodeKind::Node4) as u64,
                        leaf: leaf_ptr,
                        leaf_bytes: LeafNode::encoded_size(key.len(), value.len()) as u64,
                        old: slot.addr,
                        plen: cpl,
                    },
                });
                Ok(false)
            }
        }
    }

    /// The node-type switch of §III-C: lock, copy into a grown node (with
    /// the new leaf folded in), swing the parent pointer, update the hash
    /// table, invalidate the original.
    fn type_switch_insert(
        &mut self,
        node: &InnerNode,
        node_ptr: RemotePtr,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, SphinxError> {
        let plen = node.header.prefix_len as usize;
        let prefix = &key[..plen];
        let byte = key[plen];
        if node.grown_kind().is_none() {
            // A full Node256 has a child for every byte; `Empty` cannot
            // have been observed unless the snapshot was stale.
            return Ok(false);
        }
        // 1+2. Node-grained lock, with the authoritative re-read
        // piggybacked in the same doorbell batch (the read executes after
        // the CAS, so on success it observes the locked node).
        self.obs_phase(Phase::LockAcquire);
        let idle = node.header.control_with_status(NodeStatus::Idle);
        let locked = node.header.control_with_status(NodeStatus::Locked);
        let (prev, bytes) = self.dm.cas_and_read(
            node_ptr,
            idle,
            locked,
            node_ptr,
            InnerNode::byte_size(node.header.kind),
        )?;
        if prev != idle {
            self.obs.incr("lock.contended");
            return Ok(false);
        }
        let fresh = InnerNode::decode(&bytes)?;
        let unlock = fresh.header.control_with_status(NodeStatus::Idle);

        if fresh.find_child(byte).is_some() {
            // Someone installed our dispatch byte concurrently before we
            // locked; bail and re-descend.
            self.dm.write_u64(node_ptr, unlock)?;
            return Ok(false);
        }
        if let Some(idx) = fresh.free_slot(byte) {
            // A concurrent delete freed a slot: plain install under the
            // lock, no switch needed.
            let leaf_ptr = write_new_leaf(&mut self.dm, key, value)?;
            self.dm.write_many(vec![
                (
                    node_ptr.checked_add(InnerNode::slot_offset(idx))?,
                    Slot::leaf(byte, leaf_ptr).encode().to_le_bytes().to_vec(),
                ),
                (node_ptr, unlock.to_le_bytes().to_vec()),
            ])?;
            return Ok(true);
        }

        // 3. Build the grown replacement with the new leaf folded in; both
        // fresh nodes are written in one doorbell batch.
        self.obs_phase(Phase::LeafWrite);
        let mut grown = fresh.grow();
        let (leaf_ptr, grown_ptr) = {
            let leaf_ptr = self.dm.alloc_placed(
                prefix_hash64(key),
                art_core::layout::LeafNode::encoded_size(key.len(), value.len()),
            )?;
            grown.set_child(Slot::leaf(byte, leaf_ptr));
            let grown_bytes = grown.encode();
            let grown_ptr = self
                .dm
                .alloc_placed(prefix_hash64(prefix), grown_bytes.len())?;
            self.dm.write_many(vec![
                (
                    leaf_ptr,
                    art_core::layout::LeafNode::new(key.to_vec(), value.to_vec()).encode(),
                ),
                (grown_ptr, grown_bytes),
            ])?;
            (leaf_ptr, grown_ptr)
        };

        // 4. Swing the parent's child slot (the root has no parent).
        let is_root = prefix.is_empty();
        if !is_root {
            match self.swing_parent_slot(key, plen, node_ptr, grown.header.kind, grown_ptr)? {
                Install::Done => {}
                Install::Raced => {
                    // Provably never linked: safe to reclaim and retry.
                    self.dm.write_u64(node_ptr, unlock)?;
                    let _ = self.dm.free(grown_ptr);
                    let _ = self.dm.free(leaf_ptr);
                    return Ok(false);
                }
                Install::Ambiguous => {
                    // The grown node may be linked through a copy we cannot
                    // see yet: release the lock and retry — the fresh
                    // locate converges on whichever structure won, and a
                    // deferred re-probe settles who owns the regions.
                    self.dm.write_u64(node_ptr, unlock)?;
                    self.ambiguous.push(AmbiguousProbe {
                        key: key.to_vec(),
                        attempts: 0,
                        kind: ProbeKind::TypeSwitch {
                            grown: grown_ptr,
                            leaf: leaf_ptr,
                            original: node_ptr,
                            orig_kind: fresh.header.kind,
                            plen,
                        },
                    });
                    return Ok(false);
                }
            }
        }

        // 5. Update the Inner Node Hash Table (single 8-byte CAS, §IV).
        self.obs_phase(Phase::Maintenance);
        let h = prefix_hash64(prefix);
        let mn = self.dm.place(h) as usize;
        let fp = fp12(prefix);
        let old_entry = HashEntry {
            fp,
            kind: fresh.header.kind,
            addr: node_ptr,
        };
        let new_entry = HashEntry {
            fp,
            kind: grown.header.kind,
            addr: grown_ptr,
        };
        let SphinxClient { tables, dm, .. } = self;
        let replaced = tables[mn].replace(dm, h, old_entry.encode(), new_entry.encode())?;

        // 6. Retire the original so readers holding stale hash entries or
        //    pointers retry (§III-C); its region enters the limbo list and
        //    is reused only after the epoch grace period.
        {
            let SphinxClient { dm, reclaim, .. } = self;
            retire_inner(dm, reclaim, node_ptr, &fresh)?;
        }
        if !replaced {
            // Lost publish race: another writer grew this same logical node
            // between our parent swing (step 4) and this CAS, so the entry
            // no longer names `fresh` and the table may be left naming a
            // retired node in this prefix's chain. Heal it from the tree.
            self.reconcile_inht_entry(key, plen)?;
        }
        Ok(true)
    }

    /// Finds the tree parent of the node with full prefix `key[..plen]`
    /// and CASes its child slot from `old_ptr` to the grown node,
    /// verifying adoption through the live tree when the CAS outcome is
    /// ambiguous (the parent itself may be mid-type-switch).
    fn swing_parent_slot(
        &mut self,
        key: &[u8],
        plen: usize,
        old_ptr: RemotePtr,
        new_kind: NodeKind,
        new_ptr: RemotePtr,
    ) -> Result<Install, SphinxError> {
        let mut ambiguous_seen = false;
        for _ in 0..64 {
            match self.find_parent_slot(key, plen, old_ptr)? {
                Some((parent_ptr, _, idx, slot)) => {
                    let new_slot = Slot::inner(slot.key_byte, new_kind, new_ptr);
                    match install_word(
                        &mut self.dm,
                        parent_ptr,
                        InnerNode::slot_offset(idx),
                        slot.encode(),
                        new_slot.encode(),
                    )? {
                        Install::Done => return Ok(Install::Done),
                        Install::Ambiguous => ambiguous_seen = true,
                        Install::Raced => {}
                    }
                }
                None => {
                    // The old node is no longer linked under this key: if
                    // the live tree now points at OUR replacement, an
                    // ambiguous CAS was in fact adopted.
                    if self.find_parent_slot(key, plen, new_ptr)?.is_some() {
                        return Ok(Install::Done);
                    }
                    // Neither old nor new is linked: the tree moved on
                    // (e.g. a parent copy adopted a different structure)
                    // while the hash table may still name the dead node.
                    // Heal it from the tree — the source of truth — so the
                    // retry does not loop through the stale entry forever.
                    self.repair_inht_entry(key, plen, old_ptr)?;
                    return Ok(if ambiguous_seen {
                        Install::Ambiguous
                    } else {
                        Install::Raced
                    });
                }
            }
            self.dm.backoff(&self.retry);
        }
        Ok(if ambiguous_seen {
            Install::Ambiguous
        } else {
            Install::Raced
        })
    }

    /// Re-points the Inner Node Hash Table entry for `key[..plen]` at the
    /// node the live tree actually holds at that position (found by a pure
    /// tree walk, bypassing the possibly-stale hash table).
    fn repair_inht_entry(
        &mut self,
        key: &[u8],
        plen: usize,
        stale_ptr: RemotePtr,
    ) -> Result<(), SphinxError> {
        // Pure tree walk from the root to the node with prefix_len == plen.
        let (_, mut node, _) = self.locate_entry(key, 0)?;
        let mut node_ptr = None;
        for _ in 0..64 {
            let nplen = node.header.prefix_len as usize;
            if nplen == plen {
                break;
            }
            if nplen > plen || key.len() <= nplen {
                return Ok(()); // position no longer exists; nothing to heal
            }
            let Some((_, slot)) = node.find_child(key[nplen]) else {
                return Ok(());
            };
            if slot.is_leaf {
                return Ok(());
            }
            node = read_inner_consistent(&mut self.dm, slot.addr, slot.child_kind)?;
            node_ptr = Some(slot.addr);
        }
        let Some(live_ptr) = node_ptr else {
            return Ok(());
        };
        if live_ptr == stale_ptr
            || node.header.prefix_len as usize != plen
            || node.header.status == NodeStatus::Invalid
        {
            return Ok(());
        }
        let prefix = &key[..plen];
        if node.header.prefix_hash42 != art_core::hash::prefix_hash42(prefix) {
            return Ok(()); // different subtree; not ours to touch
        }
        let h = prefix_hash64(prefix);
        let mn = self.dm.place(h) as usize;
        let fp = fp12(prefix);
        // Replace whatever entry currently names the stale node.
        let SphinxClient { tables, dm, .. } = self;
        let found = tables[mn].search(dm, h)?;
        for e in found {
            if let Some(he) = HashEntry::decode(e.word) {
                if he.fp == fp && he.addr == stale_ptr {
                    let fresh = HashEntry {
                        fp,
                        kind: node.header.kind,
                        addr: live_ptr,
                    };
                    let _ = tables[mn].replace(dm, h, e.word, fresh.encode())?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Walks from an ancestor entry node to the node whose child slot
    /// holds `child_ptr`: its address and image, the slot's index, the slot.
    fn find_parent_slot(
        &mut self,
        key: &[u8],
        child_plen: usize,
        child_ptr: RemotePtr,
    ) -> Result<Option<(RemotePtr, InnerNode, usize, Slot)>, SphinxError> {
        'outer: for _ in 0..64 {
            let (mut ptr, mut node, _len) = self.locate_entry(key, child_plen - 1)?;
            loop {
                if node.header.status == NodeStatus::Invalid {
                    self.dm.backoff(&self.retry);
                    continue 'outer;
                }
                let plen = node.header.prefix_len as usize;
                if plen >= child_plen {
                    continue 'outer;
                }
                let byte = key[plen];
                let Some((idx, slot)) = node.find_child(byte) else {
                    return Ok(None);
                };
                if slot.addr == child_ptr {
                    return Ok(Some((ptr, node, idx, slot)));
                }
                if slot.is_leaf {
                    return Ok(None);
                }
                let child = read_inner_consistent(&mut self.dm, slot.addr, slot.child_kind)?;
                if child.header.kind != slot.child_kind {
                    continue 'outer;
                }
                ptr = slot.addr;
                node = child;
            }
        }
        Ok(None)
    }

    /// Registers a freshly published inner node in the INHT and the local
    /// Succinct Filter Cache (§IV Insert: "after a node split, where a new
    /// inner node with a new prefix is added").
    fn publish_new_inner(
        &mut self,
        prefix: &[u8],
        kind: NodeKind,
        ptr: RemotePtr,
    ) -> Result<(), SphinxError> {
        self.obs_phase(Phase::Maintenance);
        let h = prefix_hash64(prefix);
        let mn = self.dm.place(h) as usize;
        let entry = HashEntry {
            fp: fp12(prefix),
            kind,
            addr: ptr,
        };
        let SphinxClient { tables, dm, .. } = self;
        tables[mn].insert(dm, h, entry.encode(), inht_split_oracle)?;
        if self.config.mode == CacheMode::FilterCache {
            self.filter.insert(prefix);
        }
        // The node was linked before this publish, so a concurrent type
        // switch may already have grown and retired it — in which case the
        // grower's own publish CAS found no entry to replace and the entry
        // just inserted names a dead node. One status re-read closes the
        // window: if the node was retired, heal the entry from the tree.
        let control = self.dm.read_u64(ptr)?;
        if control & 0xFF == NodeStatus::Invalid as u64 {
            self.reconcile_inht_entry(prefix, prefix.len())?;
        }
        Ok(())
    }

    /// Re-derives the live node at `key[..plen]` from the tree — the
    /// source of truth — and swings the INHT entry for that prefix onto
    /// it. Called after a lost publish race (a `replace` CAS that found
    /// its expected entry gone, or an `insert` that landed after the node
    /// it names was retired); without it the table can permanently name a
    /// retired node while the live replacement has no entry at all.
    ///
    /// Bounded: after 16 lost CAS rounds the entry is left for the read
    /// path to heal lazily like any other stale entry.
    fn reconcile_inht_entry(&mut self, key: &[u8], plen: usize) -> Result<(), SphinxError> {
        let prefix = &key[..plen];
        let prefix_h42 = art_core::hash::prefix_hash42(prefix);
        for _ in 0..16 {
            // Walk from the root to the live node with this prefix.
            let (_, mut node, _) = self.locate_entry(key, 0)?;
            let mut node_ptr = None;
            for _ in 0..64 {
                let nplen = node.header.prefix_len as usize;
                if nplen == plen {
                    break;
                }
                if nplen > plen || key.len() <= nplen {
                    return Ok(()); // position no longer exists
                }
                let Some((_, slot)) = node.find_child(key[nplen]) else {
                    return Ok(());
                };
                if slot.is_leaf {
                    return Ok(());
                }
                node = read_inner_consistent(&mut self.dm, slot.addr, slot.child_kind)?;
                node_ptr = Some(slot.addr);
            }
            let Some(live_ptr) = node_ptr else {
                return Ok(());
            };
            if node.header.prefix_len as usize != plen
                || node.header.status == NodeStatus::Invalid
                || node.header.prefix_hash42 != prefix_h42
            {
                // The structure is mid-churn; whoever retires this node
                // publishes (and reconciles) its replacement.
                return Ok(());
            }
            let h = prefix_hash64(prefix);
            let mn = self.dm.place(h) as usize;
            let fp = fp12(prefix);
            let desired = HashEntry {
                fp,
                kind: node.header.kind,
                addr: live_ptr,
            };
            let SphinxClient { tables, dm, .. } = self;
            let found = tables[mn].search(dm, h)?;
            if found.iter().any(|e| {
                HashEntry::decode(e.word).is_some_and(|he| he.fp == fp && he.addr == live_ptr)
            }) {
                return Ok(()); // already consistent
            }
            // Swing the entry naming a (possibly retired) member of this
            // prefix's node chain. The 42-bit prefix hash — preserved by
            // invalidation, which rewrites only the control word — keeps a
            // colliding prefix's entry out of reach.
            let mut lost_cas = false;
            for e in found {
                let Some(he) = HashEntry::decode(e.word) else {
                    continue;
                };
                if he.fp != fp || he.addr == live_ptr {
                    continue;
                }
                let Ok(stale) = read_inner_consistent(&mut self.dm, he.addr, he.kind) else {
                    continue;
                };
                if stale.header.prefix_hash42 != prefix_h42 {
                    continue;
                }
                let SphinxClient { tables, dm, .. } = self;
                if tables[mn].replace(dm, h, e.word, desired.encode())? {
                    return Ok(());
                }
                lost_cas = true;
                break;
            }
            if !lost_cas {
                // No entry for this prefix at all: the publisher's insert
                // is still in flight. Its post-insert status check (above)
                // finds the retired node and reconciles — nothing to do
                // here, and inserting now would create a duplicate.
                return Ok(());
            }
            self.dm.backoff(&self.retry);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deferred ownership re-probes for ambiguous installs.
    //
    // An `Install::Ambiguous` word may or may not survive in the
    // type-switched copy of its node, so the regions it references can be
    // neither used nor freed at the install site. Each ambiguous install
    // records an `AmbiguousProbe`; a later lookup of the same key decides
    // ownership from what the tree actually serves:
    //
    // * our region answers the key        → the tree adopted the word; the
    //                                        region it *replaced* is ours
    //                                        to retire;
    // * the replaced word is still linked → the CAS provably never landed
    //                                        (an unlinked word can never
    //                                        be re-linked), so our region
    //                                        was never visible;
    // * anything else                     → a third party has since won a
    //                                        CAS over whichever word
    //                                        survived, and ownership moved
    //                                        with it: abandon the entry
    //                                        (counted, bounded leak)
    //                                        rather than risk a double
    //                                        free.
    // ------------------------------------------------------------------

    /// Resolves up to two pending probes with a fresh lookup each. Runs at
    /// operation exits, attributed to the maintenance phase; never fails
    /// the caller's operation.
    pub(crate) fn probe_ambiguous(&mut self) {
        const MAX_PROBES_PER_OP: usize = 2;
        for _ in 0..MAX_PROBES_PER_OP {
            let Some(probe) = self.ambiguous.pop() else {
                return;
            };
            let verdict = match self.locate(&probe.key) {
                Ok(d) => Self::probe_evidence(&probe, &d),
                Err(_) => ProbeVerdict::Unknown,
            };
            if !self.settle_probe(probe, verdict) {
                // Re-queued: stop so one stuck entry is not probed twice
                // in the same operation.
                return;
            }
        }
    }

    /// Applies a descent for `key` as evidence to any pending probe for
    /// the same key — the common resolution path, since the insert retry
    /// following an ambiguous install looks the key up anyway.
    pub(crate) fn resolve_probes_with(&mut self, key: &[u8], d: &Descent) {
        if self.ambiguous.is_empty() {
            return;
        }
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.ambiguous)
            .into_iter()
            .partition(|p| p.key == key);
        self.ambiguous = rest;
        for probe in mine {
            let verdict = Self::probe_evidence(&probe, d);
            self.settle_probe(probe, verdict);
        }
    }

    /// What a fresh descent for the probe's key says about adoption.
    fn probe_evidence(probe: &AmbiguousProbe, d: &Descent) -> ProbeVerdict {
        match probe.kind {
            ProbeKind::SwapLeaf { old, fresh, .. } => match &d.outcome {
                Outcome::Leaf { slot, leaf, .. } if slot.addr == fresh && leaf.key == probe.key => {
                    ProbeVerdict::Adopted
                }
                Outcome::Leaf { slot, .. } if slot.addr == old => ProbeVerdict::NotAdopted,
                _ => ProbeVerdict::ThirdParty,
            },
            ProbeKind::NewInner {
                node, leaf, old, ..
            } => {
                if d.node_ptr == node {
                    return ProbeVerdict::Adopted;
                }
                match &d.outcome {
                    Outcome::Leaf { slot, leaf: l, .. }
                        if slot.addr == leaf && l.key == probe.key =>
                    {
                        ProbeVerdict::Adopted
                    }
                    Outcome::Leaf { slot, .. } if slot.addr == old => ProbeVerdict::NotAdopted,
                    Outcome::Divergent { slot, .. } | Outcome::EmptyChild { slot, .. }
                        if slot.addr == old =>
                    {
                        ProbeVerdict::NotAdopted
                    }
                    _ => ProbeVerdict::ThirdParty,
                }
            }
            ProbeKind::TypeSwitch { grown, leaf, .. } => {
                if d.node_ptr == grown {
                    return ProbeVerdict::Adopted;
                }
                match &d.outcome {
                    Outcome::Leaf { slot, leaf: l, .. }
                        if slot.addr == leaf && l.key == probe.key =>
                    {
                        ProbeVerdict::Adopted
                    }
                    Outcome::Leaf { leaf: l, .. } if l.key == probe.key => {
                        // Our key is served by some other region entirely.
                        ProbeVerdict::ThirdParty
                    }
                    // A descent that does not reach the grown node is NOT
                    // proof of non-adoption: a stale hash entry can still
                    // route it into the unlinked original. Keep probing.
                    _ => ProbeVerdict::Unknown,
                }
            }
        }
    }

    /// Acts on a probe verdict. Returns `false` when the probe was
    /// re-queued for another attempt, `true` when it was consumed.
    fn settle_probe(&mut self, mut probe: AmbiguousProbe, verdict: ProbeVerdict) -> bool {
        const MAX_ATTEMPTS: u32 = 8;
        let settled = match verdict {
            ProbeVerdict::Adopted => {
                if self.probe_adopted(&probe) {
                    self.obs.incr("reclaim.ambiguous_adopted");
                    true
                } else {
                    false
                }
            }
            ProbeVerdict::NotAdopted => {
                // Our regions were never visible; they still take the
                // grace period (costs nothing, guards the conclusion).
                let SphinxClient { dm, reclaim, .. } = self;
                match probe.kind {
                    ProbeKind::SwapLeaf {
                        fresh, fresh_bytes, ..
                    } => reclaim.retire(dm, fresh, fresh_bytes),
                    ProbeKind::NewInner {
                        node,
                        node_bytes,
                        leaf,
                        leaf_bytes,
                        ..
                    } => {
                        reclaim.retire(dm, node, node_bytes);
                        reclaim.retire(dm, leaf, leaf_bytes);
                    }
                    ProbeKind::TypeSwitch { .. } => unreachable!("never concluded for a switch"),
                }
                self.obs.incr("reclaim.ambiguous_unpublished");
                true
            }
            ProbeVerdict::ThirdParty => {
                self.obs.incr("reclaim.ambiguous_abandoned");
                true
            }
            ProbeVerdict::Unknown => false,
        };
        if settled {
            return true;
        }
        probe.attempts += 1;
        if probe.attempts >= MAX_ATTEMPTS {
            self.obs.incr("reclaim.ambiguous_abandoned");
            true
        } else {
            self.ambiguous.push(probe);
            false
        }
    }

    /// The adopted-verdict action. Returns `false` if it must be retried
    /// later (e.g. the original node of a type switch is locked).
    fn probe_adopted(&mut self, probe: &AmbiguousProbe) -> bool {
        match probe.kind {
            ProbeKind::SwapLeaf { old, .. } => {
                // Our CAS replaced the word pointing at `old`: the old
                // leaf is ours to tombstone and retire, exactly as on the
                // unambiguous path.
                self.tombstone_and_retire(old);
                true
            }
            // Adoption re-hung the old occupant inside the new node:
            // everything is live, nothing to reclaim — but the node is in
            // the tree without the hash entry its install site publishes
            // only on `Install::Done`.
            ProbeKind::NewInner { node, plen, .. } => self
                .publish_new_inner(&probe.key[..plen], NodeKind::Node4, node)
                .is_ok(),
            ProbeKind::TypeSwitch {
                original,
                orig_kind,
                plen,
                ..
            } => {
                if !self.retire_switched_original(original, orig_kind) {
                    return false;
                }
                // Heal the hash entry still naming the original (the
                // unambiguous path replaces it in step 5).
                let key = probe.key.clone();
                let _ = self.reconcile_inht_entry(&key, plen);
                true
            }
        }
    }

    /// Invalidates and retires the unlinked original of an
    /// ambiguous-but-adopted type switch. The invalidation must CAS (not
    /// store) the control word: nobody holds the node's lock anymore, and
    /// a racing writer routed in by a stale hash entry may be switching
    /// it again — whoever wins the control word owns the retirement.
    fn retire_switched_original(&mut self, original: RemotePtr, orig_kind: NodeKind) -> bool {
        let Ok(node) = read_inner_consistent(&mut self.dm, original, orig_kind) else {
            return false;
        };
        match node.header.status {
            // Someone else already invalidated (and thus retired) it.
            NodeStatus::Invalid => true,
            NodeStatus::Idle => {
                let idle = node.header.control_with_status(NodeStatus::Idle);
                let inv = node.header.control_with_status(NodeStatus::Invalid);
                match self.dm.cas(original, idle, inv) {
                    Ok(prev) if prev == idle => {
                        let SphinxClient { dm, reclaim, .. } = self;
                        reclaim.retire(dm, original, InnerNode::byte_size(orig_kind) as u64);
                        true
                    }
                    // Lost the control word: its new owner (a racing
                    // switch) invalidates and retires it on completion.
                    Ok(_) => true,
                    Err(_) => false,
                }
            }
            // Locked mid-switch: if the switch completes it retires the
            // node itself; if it bails the node returns to Idle. Re-probe.
            _ => false,
        }
    }
}

/// What a deferred re-probe concluded (see the module comment above
/// [`SphinxClient::probe_ambiguous`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeVerdict {
    /// The tree serves our region: the install survived the type switch.
    Adopted,
    /// The replaced word is still linked: the install never landed.
    NotAdopted,
    /// A third party has since taken ownership of whichever word won.
    ThirdParty,
    /// The evidence is inconclusive; probe again later.
    Unknown,
}
