//! # write — the write protocol of a remote ART, once
//!
//! Insert, update and delete of §III-C and §IV over the [`Outcome`] a
//! descent ends in: the five structural cases of an insert, the guarded
//! installs, the out-of-place leaf swap and the node-type switch. Each step
//! is written once, as a blocking function generic over the [`WriteHost`]
//! an index implements — Sphinx, and the SMART / ART baselines.
//!
//! The hooks of [`WriteHost`] are only what the systems really differ in:
//! Sphinx's hash-table and filter publication, its parent swing and its
//! deferred re-probes of ambiguous installs; SMART's node-cache
//! invalidation and fresh `Node256`s; the baselines' swing through
//! [`Descent::via`] or their root word, and their counted abandon. Two
//! more methods — [`WriteHost::write_leaf_and_node`] and
//! [`WriteHost::lock_and_read`] — keep the baselines' verbs where they
//! differ from Sphinx's by accident; each defaults to Sphinx's shape.

use art_core::hash::prefix_hash64;
use art_core::key::common_prefix_len;
use art_core::layout::{InnerNode, LayoutError, LeafNode, NodeStatus, Slot, VALUE_SLOT_OFFSET};
use art_core::NodeKind;
use dm_sim::{DmClient, DmError, RemotePtr, RetryPolicy};
use obs::Phase;
use reclaim::ReclaimHandle;

use crate::{
    cas_locked_write, install_word, read_validated_leaf, retire_inner, retire_leaf,
    unlink_empty_inner, write_new_leaf, ArtReader, Descent, EngineError, Install, LeafReadStats,
    Outcome, SlotRef, Unlink,
};

/// An install whose CAS landed on a node caught mid type-switch
/// ([`Install::Ambiguous`]): the regions it names may live on in the
/// switched copy, so they can be neither used nor freed until the tree says
/// whether it adopted the word.
#[derive(Debug, Clone, Copy)]
pub enum Pending {
    /// Out-of-place leaf swap: `fresh` may have replaced the slot word
    /// pointing at `old`.
    SwapLeaf {
        /// The leaf the replaced slot pointed at.
        old: RemotePtr,
        /// The replacement leaf.
        fresh: RemotePtr,
        /// `fresh`'s encoded size.
        fresh_bytes: u64,
    },
    /// Leaf or path split: a new inner node at `node` (holding the fresh
    /// leaf at `leaf` and the re-hung old occupant) may have replaced the
    /// slot word pointing at `old`.
    NewInner {
        /// The new inner node.
        node: RemotePtr,
        /// `node`'s encoded size.
        node_bytes: u64,
        /// The fresh leaf linked inside it.
        leaf: RemotePtr,
        /// `leaf`'s encoded size.
        leaf_bytes: u64,
        /// What the replaced slot pointed at (leaf or inner child).
        old: RemotePtr,
        /// `node`'s full-prefix length.
        plen: usize,
    },
    /// Type switch whose parent swing was ambiguous: `grown` (holding
    /// `leaf`) may have replaced `original` in the parent.
    TypeSwitch {
        /// The grown replacement node.
        grown: RemotePtr,
        /// The fresh leaf folded into the grown node.
        leaf: RemotePtr,
        /// The node that was being switched (left unlocked and live).
        original: RemotePtr,
        /// `original`'s kind.
        orig_kind: NodeKind,
        /// `original`'s full-prefix length.
        plen: usize,
    },
}

/// What differs between the writers of a remote ART. Every step below
/// reads through the host's [`ArtReader`] half and fails with the host's
/// error, whatever a hook, the transport or a decode returned.
pub trait WriteHost: ArtReader {
    /// The host's error type.
    type Error: From<EngineError> + From<DmError> + From<LayoutError>;

    /// The host's retry budget.
    fn policy(&self) -> RetryPolicy;

    /// The transport and the epoch-reclamation handle, together.
    fn parts(&mut self) -> (&mut DmClient, &mut ReclaimHandle);

    /// The op in flight enters `phase`.
    fn phase(&mut self, phase: Phase);

    /// One failed attempt of the op in flight.
    fn retried(&mut self);

    /// Bumps a named telemetry counter.
    fn count(&mut self, counter: &'static str);

    /// Locates `key`: the descent, and whether a CN-cached node was on the
    /// path (a miss is then only as fresh as that copy). `use_cache` is off
    /// after an op's first attempt.
    fn locate(&mut self, key: &[u8], use_cache: bool) -> Result<(Descent, bool), Self::Error>;

    /// Swings the word naming `d.node` to the grown node `ptr` of `kind`.
    fn swing_parent(
        &mut self,
        d: &Descent,
        key: &[u8],
        kind: NodeKind,
        ptr: RemotePtr,
    ) -> Result<Install, Self::Error>;

    /// An install came out [`Install::Ambiguous`]. The default abandons its
    /// regions (a counted, bounded leak) rather than risk a double free.
    fn ambiguous(&mut self, _key: &[u8], _pending: Pending) {
        self.count("reclaim.ambiguous_abandoned");
    }

    /// An insert located `key` at `d` (Sphinx: the evidence a pending
    /// re-probe of the key waits for).
    fn located(&mut self, _key: &[u8], _d: &Descent) {}

    /// The kind of a node a split creates.
    fn fresh_kind(&self) -> NodeKind {
        NodeKind::Node4
    }

    /// A word of the node at `ptr` was written, or may have been (SMART:
    /// drop its cached copy).
    fn touched(&mut self, _ptr: RemotePtr) {}

    /// A split linked the new inner node `ptr` of `kind` for `prefix`.
    fn published(
        &mut self,
        _prefix: &[u8],
        _kind: NodeKind,
        _ptr: RemotePtr,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// A type switch linked the grown node `new` in place of `old` (kinds
    /// and addresses) for `prefix`. `false`: a racing switch got there
    /// first, [`WriteHost::reconcile`] follows the original's retirement.
    fn republish(
        &mut self,
        _prefix: &[u8],
        _old: (NodeKind, RemotePtr),
        _new: (NodeKind, RemotePtr),
    ) -> Result<bool, Self::Error> {
        Ok(true)
    }

    /// Heals what names the node at `key[..plen]` after a lost republish.
    fn reconcile(&mut self, _key: &[u8], _plen: usize) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The emptied node `dead` at `ptr` was unlinked; it is retired next.
    fn unpublish(&mut self, _ptr: RemotePtr, _dead: &InnerNode) -> Result<(), Self::Error> {
        Ok(())
    }

    /// A delete tombstoned the leaf of `key` at `d`, and `won` says whether
    /// its CAS also unlinked it (the leaf is then retired already).
    fn unlinked(&mut self, _key: &[u8], _d: &Descent, _won: bool) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Writes a fresh leaf for `key` and the fresh inner node `node` with
    /// that leaf hung in it ([`hang_leaf`]); returns both addresses. The
    /// leaf is allocated first. Sphinx writes both in one doorbell batch.
    fn write_leaf_and_node(
        &mut self,
        key: &[u8],
        value: &[u8],
        node: &mut InnerNode,
    ) -> Result<(RemotePtr, RemotePtr), EngineError> {
        let t = self.transport();
        let leaf_len = LeafNode::encoded_size(key.len(), value.len());
        let leaf_ptr = t.alloc_placed(prefix_hash64(key), leaf_len)?;
        hang_leaf(node, key, leaf_ptr);
        let node_bytes = node.encode();
        let prefix = &key[..node.header.prefix_len as usize];
        let node_ptr = t.alloc_placed(prefix_hash64(prefix), node_bytes.len())?;
        t.write_many(vec![
            (leaf_ptr, LeafNode::encode_new(key, value)),
            (node_ptr, node_bytes),
        ])?;
        Ok((leaf_ptr, node_ptr))
    }

    /// The type switch's node lock: CAS the control word `idle → locked`
    /// and read the `len`-byte node; the image when the lock was won.
    /// Sphinx batches the read behind the CAS in one doorbell, so on
    /// success it observes the locked node.
    fn lock_and_read(
        &mut self,
        ptr: RemotePtr,
        idle: u64,
        locked: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, DmError> {
        let (prev, bytes) = self.transport().cas_and_read(ptr, idle, locked, ptr, len)?;
        Ok((prev == idle).then_some(bytes))
    }
}

/// Hangs the leaf of `key` at `ptr` in `node`: in the value slot when the
/// key ends at the node's prefix, else under its next byte.
pub fn hang_leaf(node: &mut InnerNode, key: &[u8], ptr: RemotePtr) {
    match key.get(node.header.prefix_len as usize) {
        None => node.value_slot = Some(Slot::leaf(0, ptr)),
        Some(&byte) => node.set_child(Slot::leaf(byte, ptr)),
    }
}

fn backoff<H: WriteHost>(host: &mut H) {
    let policy = host.policy();
    host.transport().backoff(&policy);
}

/// The tail of a failed attempt: counted, attributed to
/// [`Phase::Retry`], backed off.
fn retry<H: WriteHost>(host: &mut H) {
    host.retried();
    host.phase(Phase::Retry);
    backoff(host);
}

/// Hands `ptr` to the epoch reclaimer as `bytes` of garbage.
fn retire<H: WriteHost>(host: &mut H, ptr: RemotePtr, bytes: u64) {
    let (t, reclaim) = host.parts();
    reclaim.retire(t, ptr, bytes);
}

/// [`install_word`], then [`WriteHost::touched`].
fn install<H: WriteHost>(
    host: &mut H,
    node_ptr: RemotePtr,
    offset: u64,
    expected: u64,
    new: u64,
) -> Result<Install, H::Error> {
    let r = install_word(host.transport(), node_ptr, offset, expected, new)?;
    host.touched(node_ptr);
    Ok(r)
}

/// Inserts or overwrites `key` with `value` (an upsert, YCSB's insert).
///
/// # Errors
///
/// [`EngineError::RetriesExhausted`] under pathological contention, or the
/// host's errors.
pub fn insert<H: WriteHost>(host: &mut H, key: &[u8], value: &[u8]) -> Result<(), H::Error> {
    for attempt in 0..host.policy().op_retries {
        let (d, _) = host.locate(key, attempt == 0)?;
        host.located(key, &d);
        if insert_at(host, &d, key, value)? {
            return Ok(());
        }
        retry(host);
    }
    Err(EngineError::RetriesExhausted { op: "insert" }.into())
}

/// One insert attempt at what the descent `d` for `key` found; `false`:
/// the tree moved, locate again.
pub fn insert_at<H: WriteHost>(
    host: &mut H,
    d: &Descent,
    key: &[u8],
    value: &[u8],
) -> Result<bool, H::Error> {
    match &d.outcome {
        Outcome::Leaf {
            slot_ref,
            slot,
            leaf,
        } if leaf.key == key => {
            let offset = slot_ref.offset();
            if leaf.status == NodeStatus::Invalid {
                // Deleted leaf still linked: replace it outright.
                swap_leaf(host, d.node_ptr, offset, slot, key, value)
            } else {
                write_leaf_value(host, d.node_ptr, offset, slot, leaf, key, value)
            }
        }
        // Another key's leaf: a new node over the two keys' common prefix.
        Outcome::Leaf {
            slot_ref: SlotRef::Child(idx),
            slot,
            leaf,
        } => {
            let cpl = common_prefix_len(key, &leaf.key);
            let mut n = InnerNode::new(host.fresh_kind(), &key[..cpl]);
            hang_leaf(&mut n, &leaf.key, slot.addr);
            split(host, d.node_ptr, *idx, slot, n, key, value)
        }
        // A value-slot leaf's key is the node prefix, which is the search
        // key where the descent ends there: the tree changed under us.
        Outcome::Leaf { .. } => Ok(false),
        Outcome::NoValueSlot => {
            let leaf_ptr = write_new_leaf(host.transport(), key, value)?;
            let word = Slot::leaf(0, leaf_ptr).encode();
            Ok(install(host, d.node_ptr, VALUE_SLOT_OFFSET, 0, word)? == Install::Done)
        }
        Outcome::Empty { byte } => match d.node.free_slot(*byte) {
            Some(idx) => {
                let leaf_ptr = write_new_leaf(host.transport(), key, value)?;
                let new_slot = Slot::leaf(*byte, leaf_ptr);
                install_fresh_child(host, &d.node, d.node_ptr, idx, *byte, new_slot, key)
            }
            None => type_switch_insert(host, d, key, value),
        },
        // A compressed path leaving the key: a new node over the common
        // prefix, learned from `sample`, a leaf below the child.
        Outcome::Divergent {
            slot_idx,
            slot,
            child,
            sample,
        } => {
            let cpl = common_prefix_len(key, &sample.key);
            if cpl >= child.header.prefix_len as usize || cpl >= sample.key.len() {
                return Ok(false); // the structure changed since the sample
            }
            let mut n = InnerNode::new(host.fresh_kind(), &key[..cpl]);
            n.set_child(Slot::inner(sample.key[cpl], child.header.kind, slot.addr));
            split(host, d.node_ptr, *slot_idx, slot, n, key, value)
        }
        // Garbage a delete failed to unlink sits where this key's path
        // forks: unlink it, then retry into the freed slot.
        Outcome::EmptyChild {
            slot_idx,
            slot,
            child,
        } => {
            prune_empty_inner(host, d.node_ptr, &d.node, *slot_idx, slot, child)?;
            Ok(false)
        }
    }
}

/// Updates an existing key; `false` if it is absent.
pub fn update<H: WriteHost>(host: &mut H, key: &[u8], value: &[u8]) -> Result<bool, H::Error> {
    for attempt in 0..host.policy().op_retries {
        let (d, used_cache) = host.locate(key, attempt == 0)?;
        match &d.outcome {
            Outcome::Leaf {
                slot_ref,
                slot,
                leaf,
            } if leaf.key == key => {
                if leaf.status == NodeStatus::Invalid {
                    return Ok(false);
                }
                let offset = slot_ref.offset();
                if write_leaf_value(host, d.node_ptr, offset, slot, leaf, key, value)? {
                    return Ok(true);
                }
            }
            _ if used_cache => {} // confirm the miss uncached
            _ => return Ok(false),
        }
        retry(host);
    }
    Err(EngineError::RetriesExhausted { op: "update" }.into())
}

/// Deletes `key`: tombstone the leaf, unlink it, retire it. Returns
/// whether this call performed the deletion.
pub fn remove<H: WriteHost>(host: &mut H, key: &[u8]) -> Result<bool, H::Error> {
    for attempt in 0..host.policy().op_retries {
        let (d, used_cache) = host.locate(key, attempt == 0)?;
        match &d.outcome {
            Outcome::Leaf {
                slot_ref,
                slot,
                leaf,
            } if leaf.key == key => {
                if leaf.status == NodeStatus::Invalid {
                    // Another client deleted it (and owns the cleanup).
                    return Ok(false);
                }
                // A delete never CASes a status it did not observe as
                // `Idle`: a `Locked` leaf is an in-place update between its
                // two round trips, and tombstoning it would steal that lock
                // (the update's publishing write would resurrect the leaf).
                host.phase(Phase::LeafWrite);
                let (idle, inv) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Invalid);
                if leaf.status == NodeStatus::Locked
                    || host.transport().cas(slot.addr, idle, inv)? != idle
                {
                    host.retried();
                    backoff(host);
                    continue;
                }
                let (expected, offset) = (slot.encode(), slot_ref.offset());
                let won = install(host, d.node_ptr, offset, expected, 0)? == Install::Done;
                if won {
                    // The tombstoned leaf is ours: freed after a grace period.
                    let (t, reclaim) = host.parts();
                    retire_leaf(t, reclaim, slot.addr, leaf);
                }
                host.unlinked(key, &d, won)?;
                return Ok(true);
            }
            _ if used_cache => {}
            _ => return Ok(false),
        }
        retry(host);
    }
    Err(EngineError::RetriesExhausted { op: "remove" }.into())
}

/// Unlinks the emptied `child` from slot `idx` of `parent`
/// ([`unlink_empty_inner`]) and retires it, emptied nodes below it first
/// (an abandoned unlink can leave a chain of them). Returns whether the
/// node is gone.
pub fn prune_empty_inner<H: WriteHost>(
    host: &mut H,
    parent_ptr: RemotePtr,
    parent: &InnerNode,
    idx: usize,
    slot: &Slot,
    child: &InnerNode,
) -> Result<bool, H::Error> {
    host.phase(Phase::Maintenance);
    for (i, below) in child.slots.iter().enumerate() {
        if let Some(below) = below.filter(|s| !s.is_leaf) {
            let node = host.read_inner(below.addr, below.child_kind)?;
            prune_empty_inner(host, slot.addr, child, i, &below, &node)?;
        }
    }
    let unlink = unlink_empty_inner(host.transport(), parent_ptr, parent, idx, slot, child)?;
    host.touched(parent_ptr);
    host.touched(slot.addr);
    match unlink {
        Unlink::Done(dead) => {
            host.unpublish(slot.addr, &dead)?;
            let (t, reclaim) = host.parts();
            retire_inner(t, reclaim, slot.addr, &dead)?;
            host.count("prune.nodes");
            Ok(true)
        }
        Unlink::Kept => Ok(false),
        Unlink::Abandoned => {
            host.count("prune.abandoned");
            Ok(false)
        }
    }
}

/// Whether `node` has an occupant of `byte` other than slot `idx`.
fn duplicated(node: &InnerNode, idx: usize, byte: u8) -> bool {
    let other = |(i, s): (usize, &Option<Slot>)| i != idx && s.is_some_and(|s| s.key_byte == byte);
    node.slots.iter().enumerate().any(other)
}

/// Takes back our own `slot` from `word_ptr`; the leaf it names was
/// briefly visible, so winning the CAS hands it to the grace period (64
/// bytes: the true size is not in scope, and it only skews telemetry).
fn undo<H: WriteHost>(host: &mut H, word_ptr: RemotePtr, slot: Slot) -> Result<(), H::Error> {
    if host.transport().cas(word_ptr, slot.encode(), 0)? == slot.encode() {
        retire(host, slot.addr, 64);
    }
    Ok(())
}

/// Installs a slot for a dispatch byte that had **no** child — the one
/// case where two racing clients can occupy *different* free slots for the
/// *same* byte (each CAS succeeds against 0). The CAS is batched with a
/// re-read of the whole node; if any other slot carries the same byte,
/// this client undoes its install and retries. At least one of two racers
/// observes the other (their CAS→read windows overlap), so at most one
/// install survives — the symmetric rule: a one-sided tie-break can keep
/// both when one racer's read predates the other's CAS.
fn install_fresh_child<H: WriteHost>(
    host: &mut H,
    node: &InnerNode,
    node_ptr: RemotePtr,
    idx: usize,
    byte: u8,
    new_slot: Slot,
    key: &[u8],
) -> Result<bool, H::Error> {
    let word_ptr = node_ptr.checked_add(InnerNode::slot_offset(idx))?;
    let node_len = InnerNode::byte_size(node.header.kind);
    let t = host.transport();
    let (prev, bytes) = t.cas_and_read(word_ptr, 0, new_slot.encode(), node_ptr, node_len)?;
    host.touched(node_ptr);
    if prev != 0 {
        // Clean CAS loss: the fresh leaf was never published anywhere, so
        // it can bypass the grace period.
        let _ = host.transport().free(new_slot.addr);
        return Ok(false);
    }
    match InnerNode::decode(&bytes) {
        Ok(now) if now.header.status == NodeStatus::Idle && now.header.kind == node.header.kind => {
            if duplicated(&now, idx, byte) {
                undo(host, word_ptr, new_slot)?;
                return Ok(false);
            }
            Ok(true)
        }
        // The node is mid type-switch: our word may or may not be in the
        // replacement's copy, and a duplicate byte left behind would
        // shadow a sibling key. Wait for the switch to settle.
        _ => resolve_settled_install(host, node, node_ptr, idx, byte, key),
    }
}

/// After a fresh-child CAS landed on a node caught mid type-switch, waits
/// for the node to settle and resolves the install deterministically:
///
/// * back to `Idle` (the switch bailed): rerun the duplicate check — an
///   undo is safe again, no copy is in flight;
/// * `Invalid` (the switch completed): the word survived iff the
///   switcher's copy caught it, which a lookup of the key through the
///   fresh structure observes.
///
/// # Errors
///
/// [`EngineError::RetriesExhausted`] if the node stays locked, or the
/// host's errors.
fn resolve_settled_install<H: WriteHost>(
    host: &mut H,
    node: &InnerNode,
    node_ptr: RemotePtr,
    idx: usize,
    byte: u8,
    key: &[u8],
) -> Result<bool, H::Error> {
    for _ in 0..host.policy().op_retries {
        let control = host.transport().read_u64(node_ptr)?;
        match (control & 0xFF) as u8 {
            x if x == NodeStatus::Idle as u8 => {
                let len = InnerNode::byte_size(node.header.kind);
                let bytes = host.transport().read(node_ptr, len)?;
                let Ok(now) = InnerNode::decode(&bytes) else {
                    continue;
                };
                if now.header.kind != node.header.kind {
                    continue;
                }
                let mine = now.slots.get(idx).copied().flatten();
                let Some(mine) = mine.filter(|s| s.key_byte == byte) else {
                    return Ok(false); // someone cleared it; retry
                };
                if duplicated(&now, idx, byte) {
                    let word_ptr = node_ptr.checked_add(InnerNode::slot_offset(idx))?;
                    undo(host, word_ptr, mine)?;
                    return Ok(false);
                }
                return Ok(true);
            }
            x if x == NodeStatus::Invalid as u8 => {
                let (d, _) = host.locate(key, false)?;
                return Ok(matches!(
                    d.outcome,
                    Outcome::Leaf { ref leaf, .. }
                        if leaf.key == key && leaf.status != NodeStatus::Invalid
                ));
            }
            _ => {
                // Still locked: let the switcher run.
                host.count("lock.spin");
                backoff(host);
            }
        }
    }
    Err(EngineError::RetriesExhausted {
        op: "install resolve",
    }
    .into())
}

/// Writes a new value into an existing leaf: in place when it fits
/// (§III-C: one CAS to lock, one write that stores the value, refreshes the
/// checksum and — its status byte being `Idle` — releases the lock), else
/// out of place through [`swap_leaf`]. A lost lock CAS means the leaf
/// changed: `false`, retry.
fn write_leaf_value<H: WriteHost>(
    host: &mut H,
    node_ptr: RemotePtr,
    offset: u64,
    slot: &Slot,
    leaf: &LeafNode,
    key: &[u8],
    value: &[u8],
) -> Result<bool, H::Error> {
    if !leaf.fits_in_place(value.len()) {
        return swap_leaf(host, node_ptr, offset, slot, key, value);
    }
    // The lock CAS and the publishing write travel in one engine call:
    // attributed to LeafWrite wholesale.
    host.phase(Phase::LeafWrite);
    let (idle, locked) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);
    let mut new_leaf = LeafNode::new(key.to_vec(), value.to_vec());
    new_leaf.version = leaf.version.wrapping_add(1);
    new_leaf.set_len_units(leaf.len_units());
    let (t, writes) = (host.transport(), vec![(slot.addr, new_leaf.encode())]);
    Ok(cas_locked_write(t, slot.addr, idle, locked, writes)?)
}

/// Out-of-place leaf replacement: write a fresh leaf, swing the parent
/// slot at `offset`, tombstone and retire the old leaf.
fn swap_leaf<H: WriteHost>(
    host: &mut H,
    node_ptr: RemotePtr,
    offset: u64,
    slot: &Slot,
    key: &[u8],
    value: &[u8],
) -> Result<bool, H::Error> {
    host.phase(Phase::LeafWrite);
    let fresh = write_new_leaf(host.transport(), key, value)?;
    let word = Slot::leaf(slot.key_byte, fresh).encode();
    match install(host, node_ptr, offset, slot.encode(), word)? {
        Install::Done => {
            retire_replaced_leaf(host, slot.addr);
            Ok(true)
        }
        Install::Raced => {
            let _ = host.transport().free(fresh);
            Ok(false)
        }
        Install::Ambiguous => {
            let pending = Pending::SwapLeaf {
                old: slot.addr,
                fresh,
                fresh_bytes: LeafNode::encoded_size(key.len(), value.len()) as u64,
            };
            host.ambiguous(key, pending);
            Ok(false)
        }
    }
}

/// Tombstones the leaf at `ptr` an install of ours unlinked and hands it to
/// the epoch reclaimer: laggard readers holding its address see an invalid
/// node until the grace period ends (docs/RECLAMATION.md). A silent 64-byte
/// read, then a CAS of a leaf not yet invalid whose loss or failure is
/// ignored.
pub fn retire_replaced_leaf<H: WriteHost>(host: &mut H, ptr: RemotePtr) {
    let policy = host.policy();
    let t = host.transport();
    let mut io = LeafReadStats::default();
    let bytes = match read_validated_leaf(t, ptr, 64, &policy, &mut io) {
        Ok(old) => {
            if old.status != NodeStatus::Invalid {
                let (cur, inv) = old.status_cas_words(old.status, NodeStatus::Invalid);
                let _ = t.cas(ptr, cur, inv);
            }
            old.len_units().max(1) as u64 * 64
        }
        Err(_) => 64,
    };
    retire(host, ptr, bytes);
}

/// A split: the fresh node `n` (the slot's old occupant already hung in
/// it) gets the new leaf and replaces the occupant in child slot
/// `slot_idx` of the node at `node_ptr`.
fn split<H: WriteHost>(
    host: &mut H,
    node_ptr: RemotePtr,
    slot_idx: usize,
    slot: &Slot,
    mut n: InnerNode,
    key: &[u8],
    value: &[u8],
) -> Result<bool, H::Error> {
    host.phase(Phase::LeafWrite);
    let (leaf, node) = host.write_leaf_and_node(key, value, &mut n)?;
    let (kind, plen) = (n.header.kind, n.header.prefix_len as usize);
    let word = Slot::inner(slot.key_byte, kind, node).encode();
    let offset = InnerNode::slot_offset(slot_idx);
    match install(host, node_ptr, offset, slot.encode(), word)? {
        Install::Done => {
            host.published(&key[..plen], kind, node)?;
            Ok(true)
        }
        Install::Raced => {
            let t = host.transport();
            let _ = t.free(node);
            let _ = t.free(leaf);
            Ok(false)
        }
        Install::Ambiguous => {
            // The new node, and the leaf inside it, may be live in a
            // type-switched copy: ownership is decided later.
            let pending = Pending::NewInner {
                node,
                node_bytes: InnerNode::byte_size(kind) as u64,
                leaf,
                leaf_bytes: LeafNode::encoded_size(key.len(), value.len()) as u64,
                old: slot.addr,
                plen,
            };
            host.ambiguous(key, pending);
            Ok(false)
        }
    }
}

/// The node-type switch of §III-C for a full node at `d`: lock it, copy it
/// into a grown node with the new leaf folded in, swing its parent's word,
/// republish, invalidate and retire the original.
fn type_switch_insert<H: WriteHost>(
    host: &mut H,
    d: &Descent,
    key: &[u8],
    value: &[u8],
) -> Result<bool, H::Error> {
    let (node, node_ptr) = (&d.node, d.node_ptr);
    let plen = node.header.prefix_len as usize;
    let byte = key[plen];
    if node.grown_kind().is_none() {
        // A full Node256 has a child for every byte: the snapshot was stale.
        return Ok(false);
    }
    // 1+2. Node-grained lock and the authoritative re-read.
    host.phase(Phase::LockAcquire);
    let idle = node.header.control_with_status(NodeStatus::Idle);
    let locked = node.header.control_with_status(NodeStatus::Locked);
    let len = InnerNode::byte_size(node.header.kind);
    let Some(bytes) = host.lock_and_read(node_ptr, idle, locked, len)? else {
        host.count("lock.contended");
        return Ok(false);
    };
    let fresh = InnerNode::decode(&bytes)?;
    let unlock = fresh.header.control_with_status(NodeStatus::Idle);
    let t = host.transport();
    if fresh.find_child(byte).is_some() {
        // Our dispatch byte was installed before we locked: re-descend.
        t.write_u64(node_ptr, unlock)?;
        return Ok(false);
    }
    if let Some(idx) = fresh.free_slot(byte) {
        // A concurrent delete freed a slot: a plain install under the lock.
        let leaf_ptr = write_new_leaf(t, key, value)?;
        let word_ptr = node_ptr.checked_add(InnerNode::slot_offset(idx))?;
        let word = Slot::leaf(byte, leaf_ptr).encode().to_le_bytes().to_vec();
        t.write_many(vec![
            (word_ptr, word),
            (node_ptr, unlock.to_le_bytes().to_vec()),
        ])?;
        host.touched(node_ptr);
        return Ok(true);
    }

    // 3. The grown replacement, with the new leaf folded in.
    host.phase(Phase::LeafWrite);
    let mut grown = fresh.grow();
    let (leaf, grown_ptr) = host.write_leaf_and_node(key, value, &mut grown)?;
    let grown_kind = grown.header.kind;

    // 4. Swing the word naming the node.
    match host.swing_parent(d, key, grown_kind, grown_ptr)? {
        Install::Done => {}
        Install::Raced => {
            // Provably never linked: reclaim and retry.
            let t = host.transport();
            t.write_u64(node_ptr, unlock)?;
            let _ = t.free(grown_ptr);
            let _ = t.free(leaf);
            return Ok(false);
        }
        Install::Ambiguous => {
            // The grown node may be linked through a copy we cannot see
            // yet: release the lock, retry — the fresh locate converges on
            // whichever structure won — and settle the regions later.
            host.transport().write_u64(node_ptr, unlock)?;
            let pending = Pending::TypeSwitch {
                grown: grown_ptr,
                leaf,
                original: node_ptr,
                orig_kind: fresh.header.kind,
                plen,
            };
            host.ambiguous(key, pending);
            return Ok(false);
        }
    }

    // 5. Republish (Sphinx: one INHT CAS, §IV).
    let old = (fresh.header.kind, node_ptr);
    let replaced = host.republish(&key[..plen], old, (grown_kind, grown_ptr))?;

    // 6. Retire the original, so readers holding stale entries or pointers
    //    retry (§III-C); its region is reused after the grace period.
    let (t, reclaim) = host.parts();
    retire_inner(t, reclaim, node_ptr, &fresh)?;
    host.touched(node_ptr);
    if !replaced {
        host.reconcile(key, plen)?;
    }
    Ok(true)
}
