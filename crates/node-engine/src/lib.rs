//! # node-engine — validated remote node I/O
//!
//! The layer between the index structures and the substrate's one verb
//! API, [`DmClient`]: every protocol building block that reads or publishes
//! `art-core::layout` nodes over the network lives here.
//!
//! ```text
//!   sphinx / baselines / bptree / race-hash     (index logic)
//!                  │
//!             node-engine                        (validated reads,
//!                  │                              guarded installs,
//!                  │                              shared RetryPolicy,
//!                  │                              op pipeline driver,
//!                  │                              key-following descent,
//!                  │                              read-side ART walker,
//!                  │                              write protocol)
//!          dm_sim::DmClient                      (verbs + combinators,
//!                                                 submit/poll/wait queue,
//!                                                 one flush: doorbell
//!                                                 batching + cross-op
//!                                                 fusion, counters,
//!                                                 fault hook)
//! ```
//!
//! The [`pipeline`] module adds the other half of the seam: operations
//! restructured as resumable state machines ([`OpState`]) driven by
//! [`run_pipelined`], which keeps N ops in flight per worker over the
//! client's completion queue. The [`descend`] module is the descent that
//! follows one search key from an inner node to what lies below it, as a
//! resumable body the lookup machines of `sphinx` and `baselines` host; the
//! [`walk`] module is the rest of the read side of a remote ART — leaf
//! sampling, prefix resolution, the level-batched range scan and the
//! structural audit — written once against the [`ArtReader`] trait they
//! implement; the [`mod@write`] module is the write side — insert, update,
//! delete, splits and the type switch — written once against the
//! [`WriteHost`] trait they implement on top.
//!
//! Before this crate existed, `sphinx`, `baselines`, `bptree` and
//! `race-hash` each carried a private copy of this scaffolding (torn-read
//! retry loops, CAS+read doorbell batches, ad-hoc retry constants). The
//! single shared [`RetryPolicy`] and the primitives below replace all of
//! them, so the per-op round-trip/byte accounting of every system flows
//! through the same [`DmClient::flush_submitted`] choke point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

use art_core::hash::prefix_hash64;
use art_core::layout::{InnerNode, LayoutError, LeafNode, NodeStatus, Slot};
use art_core::NodeKind;
use dm_sim::{DmClient, DmError, RemotePtr, Verb};

pub use dm_sim::RetryPolicy;

pub mod descend;
pub mod pipeline;
pub mod walk;
pub mod write;

pub use descend::{Descend, DescendHost, Descent, Outcome, SlotRef, Via, Yield};
pub use dm_sim::FirstInline;
pub use pipeline::{run_pipelined, OpState, PipelineStats, StepOutcome, TagAgg, DEFAULT_DEPTH};
pub use walk::{ArtReader, Sampled};
pub use write::{Pending, WriteHost};

/// Process-wide switch for leaf checksum validation (default on).
///
/// Exists **only** as a deliberately-broken-protocol mode for the
/// linearizability harness: with validation off,
/// [`read_validated_leaf`] serves torn leaves as-is instead of retrying,
/// and the checker must flag the resulting anomalies. Production code
/// paths never touch this.
static LEAF_VALIDATION: AtomicBool = AtomicBool::new(true);

/// Enables or disables leaf checksum validation process-wide. Returns the
/// previous setting. Tests that disable it must restore it (and must not
/// share a process with tests that assume it is on).
pub fn set_leaf_validation(enabled: bool) -> bool {
    LEAF_VALIDATION.swap(enabled, Ordering::SeqCst)
}

/// Whether leaf checksum validation is currently enabled.
pub fn leaf_validation() -> bool {
    LEAF_VALIDATION.load(Ordering::SeqCst)
}

/// Errors surfaced by the engine primitives. Index crates wrap this into
/// their own error types (`From` impls on their side).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Substrate (network/memory) error.
    Dm(DmError),
    /// Node bytes failed structural validation.
    Layout(LayoutError),
    /// A bounded retry loop hit its [`RetryPolicy`] limit.
    RetriesExhausted {
        /// Which protocol step gave up.
        op: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Dm(e) => write!(f, "substrate error: {e}"),
            EngineError::Layout(e) => write!(f, "layout error: {e}"),
            EngineError::RetriesExhausted { op } => {
                write!(f, "retries exhausted during {op}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DmError> for EngineError {
    fn from(e: DmError) -> Self {
        EngineError::Dm(e)
    }
}

impl From<LayoutError> for EngineError {
    fn from(e: LayoutError) -> Self {
        EngineError::Layout(e)
    }
}

/// Outcome of a guarded single-word install into an inner node.
///
/// The distinction matters for memory safety: buffers referenced by the
/// installed word may be freed immediately only on [`Install::Raced`] (the
/// CAS never landed). After [`Install::Done`], a region the installed word
/// *replaced* must go through [`retire_leaf`]/[`retire_inner`] — lagging
/// readers can still hold its address until an epoch grace period elapses.
/// After [`Install::Ambiguous`] the word may live on in a type-switched
/// copy of the node, so even retiring must wait for a deferred ownership
/// re-probe (a fresh lookup deciding whether the tree adopted the word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Install {
    /// The word is installed in a live (Idle) node.
    Done,
    /// The CAS lost: nothing was installed; referenced buffers are safe to
    /// free.
    Raced,
    /// The CAS landed while the node was mid-type-switch: the install may
    /// or may not survive in the replacement. Retry via a fresh lookup and
    /// do not free; re-probe ownership before retiring.
    Ambiguous,
}

/// Reads and decodes an inner node of known kind (one round trip).
///
/// If the node's kind no longer matches (a type switch raced with the read
/// of a stale pointer), the decoded node is still returned: the caller sees
/// its `Invalid`/mismatched header and retries through the hash table.
///
/// # Errors
///
/// [`EngineError::Dm`] on substrate failure, [`EngineError::Layout`] if the
/// bytes do not decode as an inner node at all.
pub fn read_inner_consistent(
    t: &mut DmClient,
    ptr: RemotePtr,
    kind: NodeKind,
) -> Result<InnerNode, EngineError> {
    let bytes = t.read(ptr, InnerNode::byte_size(kind))?;
    Ok(InnerNode::decode(&bytes)?)
}

/// Counters describing the I/O behaviour of validated leaf reads: how often
/// reads tore under concurrent writers and how often the size hint was too
/// small (each extension costs one extra round trip). Plain `u64`s so a
/// caller can keep one per client and feed both into its telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafReadStats {
    /// Torn reads detected by checksum/truncation and retried.
    pub checksum_retries: u64,
    /// Re-reads issued because the leaf was larger than the hint.
    pub extended_reads: u64,
}

impl LeafReadStats {
    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: &LeafReadStats) {
        self.checksum_retries += other.checksum_retries;
        self.extended_reads += other.extended_reads;
    }
}

/// What one attempt of a validated leaf read decided.
#[derive(Debug)]
pub enum LeafAttempt {
    /// The bytes are the leaf.
    Settled(LeafNode),
    /// Read again, this many bytes.
    Again(usize),
}

/// The per-attempt rule of a validated leaf read, given the `read_len`
/// bytes just fetched: a first word naming a larger leaf bumps
/// [`LeafReadStats::extended_reads`] and asks for the true size; a torn
/// image (checksum or length fields) bumps
/// [`LeafReadStats::checksum_retries`], charges one [`DmClient::backoff`]
/// and asks for the same bytes again. [`read_validated_leaf`] loops over it;
/// [`descend::Descend`] takes one attempt per resume.
///
/// # Errors
///
/// [`EngineError::Layout`] for structural (non-checksum) decode failures.
pub fn leaf_attempt(
    t: &mut DmClient,
    bytes: &[u8],
    read_len: usize,
    policy: &RetryPolicy,
    io: &mut LeafReadStats,
) -> Result<LeafAttempt, EngineError> {
    // The first word tells us the true size; extend if needed.
    let true_len = LeafNode::stored_len(bytes).ok_or(LayoutError::TruncatedNode {
        need: 8,
        have: bytes.len(),
    })?;
    if true_len > read_len {
        io.extended_reads += 1;
        return Ok(LeafAttempt::Again(true_len));
    }
    match LeafNode::decode(bytes) {
        Ok(leaf) => Ok(LeafAttempt::Settled(leaf)),
        // Broken-protocol mode for the lincheck harness: serve the torn
        // leaf instead of recovering.
        Err(LayoutError::ChecksumMismatch { .. }) if !leaf_validation() => {
            Ok(LeafAttempt::Settled(LeafNode::decode_unverified(bytes)?))
        }
        // Torn read under a concurrent writer (torn length fields can claim
        // more payload than the buffer holds): back off and re-read.
        Err(LayoutError::ChecksumMismatch { .. } | LayoutError::TruncatedNode { .. }) => {
            io.checksum_retries += 1;
            t.backoff(policy);
            Ok(LeafAttempt::Again(read_len))
        }
        Err(e) => Err(e.into()),
    }
}

/// Reads and decodes a leaf, retrying torn reads (checksum mismatches from
/// concurrent in-place updates) and extending the read if the leaf is
/// larger than `hint` bytes — [`leaf_attempt`] per read. After
/// [`RetryPolicy::io_retries`] attempts the read gives up.
///
/// # Errors
///
/// [`EngineError::RetriesExhausted`] when a writer livelocks the leaf past
/// the policy bound, [`EngineError::Layout`] for structural (non-checksum)
/// decode failures, [`EngineError::Dm`] on substrate failure.
pub fn read_validated_leaf(
    t: &mut DmClient,
    ptr: RemotePtr,
    hint: usize,
    policy: &RetryPolicy,
    io: &mut LeafReadStats,
) -> Result<LeafNode, EngineError> {
    let mut read_len = hint.max(64);
    for _ in 0..policy.io_retries {
        let bytes = t.read(ptr, read_len)?;
        match leaf_attempt(t, &bytes, read_len, policy, io)? {
            LeafAttempt::Settled(leaf) => return Ok(leaf),
            LeafAttempt::Again(len) => read_len = len,
        }
    }
    Err(EngineError::RetriesExhausted { op: "leaf read" })
}

/// Allocates and writes a fresh leaf on the MN chosen by consistent
/// hashing of the key; returns its address.
///
/// # Errors
///
/// [`EngineError::Dm`] on allocation or write failure.
pub fn write_new_leaf(
    t: &mut DmClient,
    key: &[u8],
    value: &[u8],
) -> Result<RemotePtr, EngineError> {
    let data = LeafNode::encode_new(key, value);
    let ptr = t.alloc_placed(prefix_hash64(key), data.len())?;
    t.execute([Verb::Write { ptr, data }].into_iter().collect())?;
    Ok(ptr)
}

/// Allocates and writes a fresh inner node on the MN chosen by consistent
/// hashing of its full prefix; returns its address.
///
/// Hot insert paths batch this write with a companion leaf write via
/// [`DmClient::write_many`] instead; kept for cold paths and tests.
///
/// # Errors
///
/// [`EngineError::Dm`] on allocation or write failure.
pub fn write_new_inner(
    t: &mut DmClient,
    node: &InnerNode,
    prefix: &[u8],
) -> Result<RemotePtr, EngineError> {
    let bytes = node.encode();
    let ptr = t.alloc_placed(prefix_hash64(prefix), bytes.len())?;
    t.write(ptr, &bytes)?;
    Ok(ptr)
}

/// Marks a retired node `Invalid` given its last known header control word
/// (caller holds the node lock, so a plain store is safe).
///
/// # Errors
///
/// [`EngineError::Dm`] on substrate failure.
pub fn invalidate_inner(
    t: &mut DmClient,
    ptr: RemotePtr,
    node: &InnerNode,
) -> Result<(), EngineError> {
    let word = node.header.control_with_status(NodeStatus::Invalid);
    t.write_u64(ptr, word)?;
    Ok(())
}

/// Hands an unlinked leaf to the epoch reclaimer: the region enters the
/// client's limbo list sized by the leaf's true length and is freed once
/// the grace period elapses. The caller must have won the unlink (the CAS
/// that removed or replaced the leaf's slot, or the tombstone CAS) —
/// never call `DmClient::free` directly on a leaf other clients could
/// still reach.
pub fn retire_leaf(
    t: &mut DmClient,
    reclaim: &mut reclaim::ReclaimHandle,
    ptr: RemotePtr,
    leaf: &LeafNode,
) {
    reclaim.retire(t, ptr, leaf.len_units().max(1) as u64 * 64);
}

/// The retire companion to [`invalidate_inner`]: marks the replaced inner
/// node `Invalid` (so racing installs report [`Install::Ambiguous`]) and
/// hands its region to the epoch reclaimer. The caller holds the node
/// lock, exactly as for [`invalidate_inner`].
///
/// # Errors
///
/// [`EngineError::Dm`] if the invalidating store fails (the region is
/// then *not* retired — readers may still be routed into it).
pub fn retire_inner(
    t: &mut DmClient,
    reclaim: &mut reclaim::ReclaimHandle,
    ptr: RemotePtr,
    node: &InnerNode,
) -> Result<(), EngineError> {
    invalidate_inner(t, ptr, node)?;
    reclaim.retire(t, ptr, InnerNode::byte_size(node.header.kind) as u64);
    Ok(())
}

/// Outcome of [`unlink_empty_inner`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)] // returned once per unlink
pub enum Unlink {
    /// The node is unlinked and still `Locked`: its locked image, for the
    /// caller to drop whatever else names the node (Sphinx: its hash-table
    /// entry) and hand it to [`retire_inner`].
    Done(InnerNode),
    /// Not this caller's to unlink — someone holds the node's lock, or it
    /// has an occupant again. Nothing changed.
    Kept,
    /// The node was empty and locked, but the parent's lock or slot was
    /// contended: unlocked again and left linked, for the insert that next
    /// diverges at it to heal.
    Abandoned,
}

/// Unlinks the emptied inner node `child` from child slot `idx` of
/// `parent` — the step deletes owe the tree once a node's last occupant is
/// gone — with the type-switch discipline: lock the node (`Idle→Locked`
/// CAS batched with the authoritative re-read) and confirm the fresh image
/// has no value slot and no child; lock the parent the same way, so no
/// type-switch copy of it is in flight and the slot CAS cannot be
/// ambiguous; CAS the slot to 0 and release the parent in one doorbell.
/// Every lock is a try-lock: a loser backs out and reports it.
///
/// # Errors
///
/// [`EngineError::Dm`] on substrate failure, [`EngineError::Layout`] if a
/// locked node does not decode.
pub fn unlink_empty_inner(
    t: &mut DmClient,
    parent_ptr: RemotePtr,
    parent: &InnerNode,
    idx: usize,
    slot: &Slot,
    child: &InnerNode,
) -> Result<Unlink, EngineError> {
    fn try_lock(
        t: &mut DmClient,
        ptr: RemotePtr,
        node: &InnerNode,
    ) -> Result<Option<InnerNode>, EngineError> {
        let idle = node.header.control_with_status(NodeStatus::Idle);
        let locked = node.header.control_with_status(NodeStatus::Locked);
        let len = InnerNode::byte_size(node.header.kind);
        let (prev, bytes) = t.cas_and_read(ptr, idle, locked, ptr, len)?;
        Ok(if prev == idle {
            Some(InnerNode::decode(&bytes)?)
        } else {
            None
        })
    }
    let word_ptr = parent_ptr.checked_add(InnerNode::slot_offset(idx))?;
    let Some(dead) = try_lock(t, slot.addr, child)? else {
        return Ok(Unlink::Kept);
    };
    let unlock_child = dead.header.control_with_status(NodeStatus::Idle);
    if dead.value_slot.is_some() || dead.child_count() > 0 {
        t.write_u64(slot.addr, unlock_child)?;
        return Ok(Unlink::Kept);
    }
    let unlinked = match try_lock(t, parent_ptr, parent)? {
        None => false,
        Some(held) => {
            let unlock = held.header.control_with_status(NodeStatus::Idle);
            let batch = [
                Verb::Cas {
                    ptr: word_ptr,
                    expected: slot.encode(),
                    new: 0,
                },
                Verb::Write {
                    ptr: parent_ptr,
                    data: unlock.to_le_bytes().to_vec(),
                },
            ];
            let results = t.execute(batch.into_iter().collect())?;
            matches!(results[0], dm_sim::VerbResult::Cas(prev) if prev == slot.encode())
        }
    };
    if !unlinked {
        t.write_u64(slot.addr, unlock_child)?;
        return Ok(Unlink::Abandoned);
    }
    Ok(Unlink::Done(dead))
}

/// CASes one word of an inner node and — in the same doorbell batch —
/// re-reads the node's control word to detect a concurrent type switch
/// (the guarded install of §IV; one round trip).
///
/// # Errors
///
/// [`EngineError::Dm`] on substrate failure (including a misaligned word
/// address).
pub fn install_word(
    t: &mut DmClient,
    node_ptr: RemotePtr,
    offset: u64,
    expected: u64,
    new: u64,
) -> Result<Install, EngineError> {
    let word_ptr = node_ptr.checked_add(offset)?;
    let (prev, control_bytes) = t.cas_and_read(word_ptr, expected, new, node_ptr, 8)?;
    let control = u64::from_le_bytes(control_bytes.as_slice().try_into().expect("8 bytes"));
    if prev != expected {
        return Ok(Install::Raced);
    }
    if control & 0xFF == NodeStatus::Idle as u64 {
        return Ok(Install::Done);
    }
    // The node is Locked (mid type-switch) or Invalid. Our word landed and
    // *may already have been copied into the replacement node*, so it must
    // be treated as live: the caller retries from a fresh lookup (which
    // converges either way) and MUST NOT free anything the word references.
    Ok(Install::Ambiguous)
}

/// Lock-then-publish: CAS the lock word from `unlocked` to `locked`; on a
/// lost CAS returns `Ok(false)` without touching anything else. On success
/// applies `writes` in one doorbell batch — by convention the final write
/// stores a payload whose status byte releases the lock, so the whole
/// update costs two round trips (the §III-C in-place update).
///
/// # Errors
///
/// [`EngineError::Dm`] on substrate failure.
pub fn cas_locked_write(
    t: &mut DmClient,
    lock_ptr: RemotePtr,
    unlocked: u64,
    locked: u64,
    writes: Vec<(RemotePtr, Vec<u8>)>,
) -> Result<bool, EngineError> {
    if t.cas(lock_ptr, unlocked, locked)? != unlocked {
        return Ok(false);
    }
    t.write_many(writes)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{ClusterConfig, DmClient, DmCluster};

    fn client() -> (DmCluster, DmClient) {
        let c = DmCluster::new(ClusterConfig::default());
        let cl = c.client(0);
        (c, cl)
    }

    #[test]
    fn leaf_roundtrip() {
        let (_c, mut cl) = client();
        let policy = RetryPolicy::default();
        let ptr = write_new_leaf(&mut cl, b"key", b"value").unwrap();
        let mut io = LeafReadStats::default();
        let leaf = read_validated_leaf(&mut cl, ptr, 128, &policy, &mut io).unwrap();
        assert_eq!(leaf.key, b"key");
        assert_eq!(leaf.value, b"value");
        assert_eq!(io, LeafReadStats::default());
    }

    #[test]
    fn big_leaf_needs_second_read() {
        let (_c, mut cl) = client();
        let policy = RetryPolicy::default();
        let value = vec![7u8; 500];
        let ptr = write_new_leaf(&mut cl, b"key", &value).unwrap();
        let before = cl.stats().round_trips;
        let mut io = LeafReadStats::default();
        let leaf = read_validated_leaf(&mut cl, ptr, 128, &policy, &mut io).unwrap();
        assert_eq!(leaf.value, value);
        assert_eq!(cl.stats().round_trips - before, 2, "hint read + full read");
        assert_eq!(io.extended_reads, 1);
        assert_eq!(io.checksum_retries, 0);
    }

    #[test]
    fn inner_roundtrip() {
        let (_c, mut cl) = client();
        let node = InnerNode::new(NodeKind::Node16, b"pre");
        let ptr = write_new_inner(&mut cl, &node, b"pre").unwrap();
        let back = read_inner_consistent(&mut cl, ptr, NodeKind::Node16).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn invalidate_marks_status() {
        let (_c, mut cl) = client();
        let node = InnerNode::new(NodeKind::Node4, b"x");
        let ptr = write_new_inner(&mut cl, &node, b"x").unwrap();
        invalidate_inner(&mut cl, ptr, &node).unwrap();
        let back = read_inner_consistent(&mut cl, ptr, NodeKind::Node4).unwrap();
        assert_eq!(back.header.status, NodeStatus::Invalid);
    }

    #[test]
    fn install_word_detects_idle_raced_and_locked() {
        use art_core::layout::SLOTS_OFFSET;
        let (_c, mut cl) = client();
        let node = InnerNode::new(NodeKind::Node4, b"p");
        let ptr = write_new_inner(&mut cl, &node, b"p").unwrap();

        // Fresh slot installs cleanly in one round trip.
        let before = cl.stats().round_trips;
        assert_eq!(
            install_word(&mut cl, ptr, SLOTS_OFFSET, 0, 0x1234).unwrap(),
            Install::Done
        );
        assert_eq!(cl.stats().round_trips - before, 1);

        // Losing the CAS reports Raced.
        assert_eq!(
            install_word(&mut cl, ptr, SLOTS_OFFSET, 0, 0x5678).unwrap(),
            Install::Raced
        );

        // A locked node makes a *winning* CAS ambiguous.
        cl.write_u64(ptr, node.header.control_with_status(NodeStatus::Locked))
            .unwrap();
        assert_eq!(
            install_word(&mut cl, ptr, SLOTS_OFFSET, 0x1234, 0x9abc).unwrap(),
            Install::Ambiguous
        );
    }

    #[test]
    fn unlink_empty_inner_backs_out_of_every_contended_step() {
        use art_core::layout::Slot;
        let (_c, mut cl) = client();
        let status = |cl: &mut DmClient, ptr| cl.read_u64(ptr).unwrap() & 0xFF;
        let mut child = InnerNode::new(NodeKind::Node4, b"ab");
        let child_ptr = write_new_inner(&mut cl, &child, b"ab").unwrap();
        let slot = Slot::inner(b'b', NodeKind::Node4, child_ptr);
        let mut parent = InnerNode::new(NodeKind::Node4, b"a");
        parent.set_child(slot);
        let parent_ptr = write_new_inner(&mut cl, &parent, b"a").unwrap();
        let word_ptr = parent_ptr.checked_add(InnerNode::slot_offset(0)).unwrap();
        let unlink = |cl: &mut DmClient, slot: &Slot, child: &InnerNode| {
            unlink_empty_inner(cl, parent_ptr, &parent, 0, slot, child).unwrap()
        };

        // An occupant appeared since the caller looked: kept, unlocked.
        let leaf = Slot::leaf(b'c', write_new_leaf(&mut cl, b"abc", b"v").unwrap());
        let occupant = child_ptr.checked_add(InnerNode::slot_offset(0)).unwrap();
        cl.write_u64(occupant, leaf.encode()).unwrap();
        assert_eq!(unlink(&mut cl, &slot, &child), Unlink::Kept);
        assert_eq!(status(&mut cl, child_ptr), NodeStatus::Idle as u64);
        cl.write_u64(occupant, 0).unwrap();

        // Someone holds the node's lock: kept, lock untouched.
        let locked = child.header.control_with_status(NodeStatus::Locked);
        cl.write_u64(child_ptr, locked).unwrap();
        assert_eq!(unlink(&mut cl, &slot, &child), Unlink::Kept);
        assert_eq!(status(&mut cl, child_ptr), NodeStatus::Locked as u64);
        cl.write_u64(child_ptr, child.header.encode_control())
            .unwrap();

        // The parent is mid type-switch: abandoned, still linked, unlocked.
        let parent_locked = parent.header.control_with_status(NodeStatus::Locked);
        cl.write_u64(parent_ptr, parent_locked).unwrap();
        assert_eq!(unlink(&mut cl, &slot, &child), Unlink::Abandoned);
        assert_eq!(status(&mut cl, child_ptr), NodeStatus::Idle as u64);
        assert_eq!(cl.read_u64(word_ptr).unwrap(), slot.encode());
        cl.write_u64(parent_ptr, parent.header.encode_control())
            .unwrap();

        // The slot no longer holds the word the caller saw: abandoned, and
        // the parent's lock is released all the same.
        let stale = Slot::inner(b'x', NodeKind::Node4, child_ptr);
        assert_eq!(unlink(&mut cl, &stale, &child), Unlink::Abandoned);
        assert_eq!(status(&mut cl, parent_ptr), NodeStatus::Idle as u64);
        assert_eq!(status(&mut cl, child_ptr), NodeStatus::Idle as u64);

        // Uncontended: three round trips, slot cleared, parent released, the
        // node handed back locked for its retirement.
        let before = cl.stats().round_trips;
        child.header.status = NodeStatus::Locked;
        assert_eq!(unlink(&mut cl, &slot, &child), Unlink::Done(child));
        assert_eq!(cl.stats().round_trips - before, 3);
        assert_eq!(cl.read_u64(word_ptr).unwrap(), 0);
        assert_eq!(status(&mut cl, parent_ptr), NodeStatus::Idle as u64);
        assert_eq!(status(&mut cl, child_ptr), NodeStatus::Locked as u64);
    }

    #[test]
    fn retire_helpers_feed_the_reclaimer() {
        let (c, mut cl) = client();
        let domain =
            reclaim::ReclaimDomain::create(&mut cl, 0, reclaim::ReclaimConfig::default()).unwrap();
        let mut handle = domain.register(&mut cl).unwrap();
        let policy = RetryPolicy::default();

        let leaf_ptr = write_new_leaf(&mut cl, b"key", b"value").unwrap();
        let mut io = LeafReadStats::default();
        let leaf = read_validated_leaf(&mut cl, leaf_ptr, 128, &policy, &mut io).unwrap();
        retire_leaf(&mut cl, &mut handle, leaf_ptr, &leaf);
        assert_eq!(handle.limbo_len(), 1);
        assert_eq!(handle.stats().retired_bytes, 64);

        let node = InnerNode::new(NodeKind::Node4, b"p");
        let inner_ptr = write_new_inner(&mut cl, &node, b"p").unwrap();
        retire_inner(&mut cl, &mut handle, inner_ptr, &node).unwrap();
        assert_eq!(handle.limbo_len(), 2);
        let back = read_inner_consistent(&mut cl, inner_ptr, NodeKind::Node4).unwrap();
        assert_eq!(back.header.status, NodeStatus::Invalid);

        // Sole registered client: one scan drains both regions.
        let live = c.mn(0).unwrap().alloc_stats().live_bytes
            + c.mn(1).unwrap().alloc_stats().live_bytes
            + c.mn(2).unwrap().alloc_stats().live_bytes;
        handle.scan(&mut cl);
        assert_eq!(handle.limbo_len(), 0);
        let after: u64 = (0..3)
            .map(|i| c.mn(i).unwrap().alloc_stats().live_bytes)
            .sum();
        assert!(after < live, "scan must return bytes to the pools");
        assert_eq!(handle.stats().errors, 0);
    }

    #[test]
    fn cas_locked_write_round_trips_and_loses() {
        let (_c, mut cl) = client();
        let policy = RetryPolicy::default();
        let ptr = write_new_leaf(&mut cl, b"k", b"v1").unwrap();
        let mut io = LeafReadStats::default();
        let leaf = read_validated_leaf(&mut cl, ptr, 64, &policy, &mut io).unwrap();
        let (idle, locked) = leaf.status_cas_words(NodeStatus::Idle, NodeStatus::Locked);

        let mut new_leaf = LeafNode::new(b"k".to_vec(), b"v2".to_vec());
        new_leaf.version = leaf.version.wrapping_add(1);
        new_leaf.set_len_units(leaf.len_units());
        let before = cl.stats().round_trips;
        assert!(
            cas_locked_write(&mut cl, ptr, idle, locked, vec![(ptr, new_leaf.encode())]).unwrap()
        );
        assert_eq!(
            cl.stats().round_trips - before,
            2,
            "lock CAS + publishing write"
        );

        let back = read_validated_leaf(&mut cl, ptr, 64, &policy, &mut io).unwrap();
        assert_eq!(back.value, b"v2");
        assert_eq!(
            back.status,
            NodeStatus::Idle,
            "publishing write released the lock"
        );

        // Stale lock word: the CAS loses and nothing is written.
        assert!(!cas_locked_write(&mut cl, ptr, idle, locked, vec![(ptr, leaf.encode())]).unwrap());
        let back = read_validated_leaf(&mut cl, ptr, 64, &policy, &mut io).unwrap();
        assert_eq!(back.value, b"v2");
    }
}
