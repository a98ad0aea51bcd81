//! # descend — the key-following descent of a remote ART, once
//!
//! From a validated inner node whose full prefix prefixes the search key:
//! inner node → dispatch byte → child, leaf, or a compressed path that
//! leaves the key — ending in one of the five [`Outcome`]s every point
//! operation of Sphinx, SMART and ART dispatches on. [`follow`] is that
//! walk as one `async fn`: it awaits each read over its lookup's
//! [`Io`], so the lookup hosting it runs under either driver of
//! [`crate::pipeline`] — alone for a blocking op ([`crate::block_on`]) or
//! as one of N in flight ([`crate::run_pipelined`]).
//!
//! What the hosts do differently is closed at the four [`DescendHost`]
//! hooks (a CN-side node cache: consult, fill, invalidate; a matching
//! child: Sphinx teaches its filter). The leaf sample below a divergent
//! child ([`crate::walk::any_leaf`]) needs the whole client: it is a
//! drained step, served after every peer of the run has stopped (the
//! drained-serve rule of [`crate::pipeline`]). A node caught mid
//! type-switch ends the descent with `None`: the host retakes its entry
//! search.
//!
//! Nothing here issues a write verb.

use art_core::hash::prefix_hash42;
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot, VALUE_SLOT_OFFSET};
use art_core::NodeKind;
use dm_sim::RemotePtr;
#[cfg(doc)]
use dm_sim::RetryPolicy;
use obs::Phase;

use crate::pipeline::Io;
use crate::walk::{any_leaf, ArtReader, Sampled};
use crate::{leaf_attempt, EngineError, LeafAttempt, LeafReadStats};

/// Submission tags: the phase each round trip is attributed to, by the
/// span for a lookup driven alone and by
/// [`crate::PipelineStats::by_tag`] in a pipelined run.
const TAG_TRAVERSAL: u32 = Phase::Traversal as u32;
const TAG_LEAF: u32 = Phase::LeafRead as u32;

/// Where a located leaf hangs off its parent inner node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRef {
    /// Child slot at this index.
    Child(usize),
    /// The node's value slot (key == node prefix).
    Value,
}

impl SlotRef {
    /// Byte offset of the slot word within its encoded node.
    pub fn offset(self) -> u64 {
        match self {
            SlotRef::Child(i) => InnerNode::slot_offset(i),
            SlotRef::Value => VALUE_SLOT_OFFSET,
        }
    }
}

/// What the descent ended at.
#[derive(Debug)]
pub enum Outcome {
    /// Reached a leaf (whose key may or may not equal the search key).
    Leaf {
        /// Which slot of `Descent::node` points at the leaf.
        slot_ref: SlotRef,
        /// The pointing slot.
        slot: Slot,
        /// The decoded leaf.
        leaf: LeafNode,
    },
    /// The key terminates exactly at the node, which has no value slot.
    NoValueSlot,
    /// The node has no child for the dispatch byte.
    Empty {
        /// The dispatch byte with no child.
        byte: u8,
    },
    /// The child inner node's prefix diverges from the key inside its
    /// compressed path; `sample` is a leaf from its subtree used to learn
    /// the actual prefix bytes.
    Divergent {
        /// Slot index of the divergent child in `Descent::node`.
        slot_idx: usize,
        /// The child slot.
        slot: Slot,
        /// The decoded divergent child (boxed: this outcome is rare, and
        /// every `Descent` would carry the room for it).
        child: Box<InnerNode>,
        /// Any leaf under the child (shares the child's full prefix).
        sample: LeafNode,
    },
    /// The child inner node's prefix diverges from the key and its subtree
    /// holds no leaf: the key is absent, and the child is garbage a delete
    /// failed to unlink (an insert unlinks it and retries).
    EmptyChild {
        /// Slot index of the emptied child in `Descent::node`.
        slot_idx: usize,
        /// The child slot.
        slot: Slot,
        /// The decoded emptied child.
        child: Box<InnerNode>,
    },
}

/// The word that names `Descent::node`, as the descent read it — what a
/// type switch of that node has to swing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Via {
    /// The inner node holding the word; `None` for a word outside any node
    /// (a host's root word), which has no type-switch ambiguity.
    pub parent: Option<RemotePtr>,
    /// Address of the word.
    pub word_ptr: RemotePtr,
    /// The slot word it held.
    pub expected: u64,
}

/// A completed location attempt: the deepest inner node whose full prefix
/// prefixes the key, and what lies below it.
#[derive(Debug)]
pub struct Descent {
    /// The deepest matching inner node.
    pub node: InnerNode,
    /// Its address.
    pub node_ptr: RemotePtr,
    /// What points at it: the parent slot the descent came through, or
    /// what the host said names the node it entered at (`None`: nothing —
    /// Sphinx enters through a hash-table entry).
    pub via: Option<Via>,
    /// What the final dispatch found.
    pub outcome: Outcome,
}

impl Descent {
    /// The value a point lookup of `key` returns from this descent.
    pub fn into_value(self, key: &[u8]) -> Option<Vec<u8>> {
        match self.outcome {
            Outcome::Leaf { leaf, .. } if leaf.key == key && leaf.status != NodeStatus::Invalid => {
                Some(leaf.value)
            }
            _ => None,
        }
    }
}

/// What differs between the hosts of a descent. Every hook is handed the
/// lent client and defaults to nothing: the plain ART has no cache and no
/// filter.
pub trait DescendHost<C> {
    /// A CN-side copy of the inner node a slot of kind `kind` points at,
    /// sparing the read (SMART's node cache).
    fn cached(&mut self, _c: &mut C, _ptr: RemotePtr, _kind: NodeKind) -> Option<InnerNode> {
        None
    }

    /// `node` arrived from the network for a slot of kind `kind`.
    fn fetched(&mut self, _c: &mut C, _ptr: RemotePtr, _kind: NodeKind, _node: &InnerNode) {}

    /// The node at `ptr` turned out retired, type-switched or not below its
    /// parent: drop any copy of it.
    fn unusable(&mut self, _c: &mut C, _ptr: RemotePtr) {}

    /// The child whose full prefix is `prefix` matches the key and the
    /// descent continues into it (Sphinx: the filter "freshness" update of
    /// §IV Search).
    fn child_matched(&mut self, _c: &mut C, _prefix: &[u8]) {}
}

/// The validated inner node a descent stands at.
struct At {
    node: InnerNode,
    node_ptr: RemotePtr,
    via: Option<Via>,
}

impl At {
    fn end(self, outcome: Outcome) -> Option<Descent> {
        Some(Descent {
            node: self.node,
            node_ptr: self.node_ptr,
            via: self.via,
            outcome,
        })
    }
}

/// Follows `key` down from `node` — an inner node at `node_ptr` whose full
/// prefix prefixes the key; `via` is what the host knows to point at it —
/// to what lies below it, one awaited read per node the host does not have
/// at hand. A leaf is fetched [`crate::LEAF_READ_HINT`] bytes on first
/// contact ([`Phase::LeafRead`]) and validated by [`leaf_attempt`], one
/// attempt per read, its I/O booked with [`ArtReader::note_leaf_io`]; a
/// torn one is a retry on the lookup's trace. The leaf sample below a
/// divergent child is a drained step ([`Io::drained`]).
///
/// `None`: a node was caught retired or mid type-switch (or the sample
/// was blocked by one) — transient, retake the lookup from the host's entry
/// search.
///
/// # Errors
///
/// [`EngineError::Layout`] for bytes that are no node,
/// [`EngineError::RetriesExhausted`] for a leaf torn
/// [`RetryPolicy::io_retries`] times over, and what the reads and the
/// sample return.
pub async fn follow<C: ArtReader>(
    io: &mut Io<'_, '_, C>,
    host: &mut impl DescendHost<C>,
    key: &[u8],
    node: InnerNode,
    node_ptr: RemotePtr,
    via: Option<Via>,
) -> Result<Option<Descent>, EngineError> {
    let mut at = At {
        node,
        node_ptr,
        via,
    };
    let (slot_ref, slot) = loop {
        if at.node.header.status == NodeStatus::Invalid {
            io.with(|c| host.unusable(c, at.node_ptr));
            return Ok(None);
        }
        let plen = at.node.header.prefix_len as usize;
        if key.len() == plen {
            // Key terminates exactly at this node.
            match at.node.value_slot {
                Some(slot) => break (SlotRef::Value, slot),
                None => return Ok(at.end(Outcome::NoValueSlot)),
            }
        }
        let byte = key[plen];
        let (slot_idx, slot) = match at.node.find_child(byte) {
            None => return Ok(at.end(Outcome::Empty { byte })),
            Some((idx, slot)) if slot.is_leaf => break (SlotRef::Child(idx), slot),
            Some(found) => found,
        };
        let (addr, kind) = (slot.addr, slot.child_kind);
        let child = match io.with(|c| host.cached(c, addr, kind)) {
            Some(child) => child,
            None => {
                let bytes = io
                    .read(addr, InnerNode::byte_size(kind), TAG_TRAVERSAL)
                    .await?;
                let child = InnerNode::decode(&bytes)?;
                io.with(|c| host.fetched(c, addr, kind, &child));
                child
            }
        };
        let clen = child.header.prefix_len as usize;
        if child.header.status == NodeStatus::Invalid || child.header.kind != kind {
            io.with(|c| {
                host.unusable(c, addr);
                host.unusable(c, at.node_ptr);
            });
            return Ok(None);
        }
        if clen <= plen {
            io.with(|c| host.unusable(c, addr));
            return Ok(None);
        }
        if key.len() < clen || child.header.prefix_hash42 != prefix_hash42(&key[..clen]) {
            // Divergence inside the child's compressed path: the actual
            // prefix bytes come from any leaf below it.
            let child = Box::new(child);
            let sample = io.drained(|io| io.with(|c| any_leaf(c, &child))).await?;
            return Ok(match sample {
                Sampled::Busy => None,
                Sampled::Empty => at.end(Outcome::EmptyChild {
                    slot_idx,
                    slot,
                    child,
                }),
                Sampled::Leaf(sample) => at.end(Outcome::Divergent {
                    slot_idx,
                    slot,
                    child,
                    sample,
                }),
            });
        }
        io.with(|c| host.child_matched(c, &key[..clen]));
        let via = Via {
            parent: Some(at.node_ptr),
            word_ptr: at.node_ptr.checked_add(InnerNode::slot_offset(slot_idx))?,
            expected: slot.encode(),
        };
        at = At {
            node: child,
            node_ptr: addr,
            via: Some(via),
        };
    };

    io.phase(Phase::LeafRead);
    let policy = io.with(|c| c.worker().retry);
    let mut read_len = crate::LEAF_READ_HINT;
    for attempt in 1.. {
        let bytes = io.read(slot.addr, read_len, TAG_LEAF).await?;
        let mut booked = LeafReadStats::default();
        let (attempted, now) = io.with(|c| {
            let dm = &mut c.worker().dm;
            let now = dm.clock_ns();
            let r = leaf_attempt(dm, &bytes, read_len, &policy, &mut booked);
            c.note_leaf_io(booked);
            (r, now)
        });
        match attempted? {
            LeafAttempt::Settled(leaf) => {
                io.phase(Phase::Traversal); // the leaf read is over
                return Ok(at.end(Outcome::Leaf {
                    slot_ref,
                    slot,
                    leaf,
                }));
            }
            LeafAttempt::Again(_) if attempt >= policy.io_retries => break,
            LeafAttempt::Again(len) => {
                if booked.checksum_retries > 0 {
                    // A torn leaf was backed off from and is read again.
                    io.retry_at(now);
                }
                read_len = len;
            }
        }
    }
    Err(EngineError::RetriesExhausted { op: "leaf read" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::tests::{host, host_on, inner, leaf, node_of, Host};
    use crate::{block_on, invalidate_inner, write_new_inner, write_new_leaf, Lend};
    use dm_sim::{ClusterConfig, DmCluster, FaultHook, RetryPolicy};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Records every hook call; serves `cached` from `copies`.
    #[derive(Default)]
    struct Hooks {
        copies: HashMap<u64, InnerNode>,
        fetched: Vec<RemotePtr>,
        unusable: Vec<RemotePtr>,
        matched: Vec<Vec<u8>>,
    }

    impl DescendHost<Host> for Hooks {
        fn cached(&mut self, _: &mut Host, ptr: RemotePtr, _: NodeKind) -> Option<InnerNode> {
            self.copies.get(&ptr.to_raw()).cloned()
        }
        fn fetched(&mut self, _: &mut Host, ptr: RemotePtr, _: NodeKind, _: &InnerNode) {
            self.fetched.push(ptr);
        }
        fn unusable(&mut self, _: &mut Host, ptr: RemotePtr) {
            self.unusable.push(ptr);
        }
        fn child_matched(&mut self, _: &mut Host, prefix: &[u8]) {
            self.matched.push(prefix.to_vec());
        }
    }

    /// Follows `key` down from `node` at `ptr` on the blocking driver.
    fn follow_from(
        h: &mut Host,
        hooks: &mut Hooks,
        node: InnerNode,
        ptr: RemotePtr,
        key: &[u8],
    ) -> Result<Option<Descent>, EngineError> {
        let lend = Lend::new(h, |h| &mut h.0);
        let mut io = lend.alone();
        block_on(&lend, follow(&mut io, hooks, key, node, ptr, None))
    }

    /// Follows `key` from the root node (read first, one round trip).
    fn walk_down(h: &mut Host, hooks: &mut Hooks, root: Slot, key: &[u8]) -> Option<Descent> {
        let node = node_of(h, root);
        follow_from(h, hooks, node, root.addr, key).unwrap()
    }

    fn rekey(key_byte: u8, slot: Slot) -> Slot {
        Slot { key_byte, ..slot }
    }

    /// root "" → "ab" (value slot "ab"; children: leaf "abc", inner "abde"
    /// behind a compressed path with leaves "abdex"/"abdey", emptied inner
    /// "abz0"). Returns the root slot and the slots of "ab" and "abde".
    fn tree(h: &mut Host) -> (Slot, Slot, Slot) {
        let (x, y) = (leaf(h, b"abdex"), leaf(h, b"abdey"));
        let deep = inner(h, NodeKind::Node4, b"abde", &[x, y]);
        let emptied = inner(h, NodeKind::Node4, b"abz0", &[]);
        let mut ab = InnerNode::new(NodeKind::Node16, b"ab");
        ab.value_slot = Some(Slot::leaf(0, leaf(h, b"ab").addr));
        ab.set_child(leaf(h, b"abc"));
        ab.set_child(rekey(b'd', deep));
        ab.set_child(rekey(b'z', emptied));
        let ab_ptr = write_new_inner(&mut h.0.dm, &ab, b"ab").unwrap();
        let ab = Slot::inner(b'a', NodeKind::Node16, ab_ptr);
        (inner(h, NodeKind::Node4, b"", &[ab]), ab, deep)
    }

    #[test]
    fn each_of_the_five_outcomes() {
        let mut h = host();
        let (root, ab, deep) = tree(&mut h);
        let end = |h: &mut Host, key: &[u8]| {
            walk_down(h, &mut Hooks::default(), root, key).expect("an end, not a restart")
        };

        let d = end(&mut h, b"abc");
        assert_eq!(d.node_ptr, ab.addr);
        assert!(matches!(
            &d.outcome,
            Outcome::Leaf { slot_ref: SlotRef::Child(_), leaf, .. } if leaf.key == b"abc"
        ));
        // The word the descent came through: child slot 0 of the root.
        let via = d.via.expect("one hop below the entry node");
        assert_eq!(via.parent, Some(root.addr));
        let word = root.addr.checked_add(SlotRef::Child(0).offset()).unwrap();
        assert_eq!((via.word_ptr, via.expected), (word, ab.encode()));
        assert_eq!(d.into_value(b"abc").as_deref(), Some(&b"v"[..]));

        let d = end(&mut h, b"ab");
        assert!(matches!(
            &d.outcome,
            Outcome::Leaf { slot_ref: SlotRef::Value, leaf, .. } if leaf.key == b"ab"
        ));
        assert_eq!(SlotRef::Value.offset(), VALUE_SLOT_OFFSET);

        // A leaf with another key is an outcome, not a value.
        let d = end(&mut h, b"abcd");
        assert!(matches!(&d.outcome, Outcome::Leaf { leaf, .. } if leaf.key == b"abc"));
        assert_eq!(d.into_value(b"abcd"), None);

        let d = end(&mut h, b"abq");
        assert!(matches!(d.outcome, Outcome::Empty { byte: b'q' }));
        assert_eq!(d.node_ptr, ab.addr);

        let d = end(&mut h, b"abde");
        assert!(matches!(d.outcome, Outcome::NoValueSlot));
        assert_eq!(d.node_ptr, deep.addr);

        let d = end(&mut h, b"abdfx");
        assert!(matches!(
            &d.outcome,
            Outcome::Divergent { slot, child, sample, .. }
                if slot.addr == deep.addr && child.header.prefix_len == 4 && sample.key == b"abdex"
        ));
        assert_eq!(d.node_ptr, ab.addr, "the node above the divergent child");

        let d = end(&mut h, b"abzz");
        assert!(
            matches!(&d.outcome, Outcome::EmptyChild { child, .. } if child.child_count() == 0)
        );

        // Entered at the node itself: nothing is known to point at it.
        let node = node_of(&mut h, ab);
        let d = follow_from(&mut h, &mut Hooks::default(), node, ab.addr, b"abq").unwrap();
        assert_eq!(d.expect("an end").via, None);
    }

    #[test]
    fn hooks_see_every_node_and_a_cached_copy_spares_the_read() {
        let mut h = host();
        let (root, ab, deep) = tree(&mut h);
        let mut hooks = Hooks::default();
        let before = h.0.dm.stats().round_trips;
        assert!(walk_down(&mut h, &mut hooks, root, b"abdey").is_some());
        assert_eq!(
            h.0.dm.stats().round_trips - before,
            1 + 3,
            "root, then ab, abde, leaf"
        );
        assert_eq!(hooks.fetched, [ab.addr, deep.addr]);
        assert_eq!(hooks.matched, [b"ab".to_vec(), b"abde".to_vec()]);
        assert!(hooks.unusable.is_empty());

        for slot in [ab, deep] {
            let copy = node_of(&mut h, slot);
            hooks.copies.insert(slot.addr.to_raw(), copy);
        }
        let root_node = node_of(&mut h, root);
        let before = h.0.dm.stats().round_trips;
        let d = follow_from(&mut h, &mut hooks, root_node, root.addr, b"abdey").unwrap();
        assert!(d.is_some());
        assert_eq!(
            h.0.dm.stats().round_trips - before,
            1,
            "both inner nodes served CPU-side: only the leaf is read"
        );
        assert_eq!(hooks.fetched.len(), 2, "nothing arrived from the network");
        assert_eq!(hooks.matched.len(), 4);
    }

    #[test]
    fn a_child_that_is_not_the_one_the_slot_meant_restarts() {
        let mut h = host();
        // Retired under the reader.
        let (root, ab, _) = tree(&mut h);
        let image = node_of(&mut h, ab);
        invalidate_inner(&mut h.0.dm, ab.addr, &image).unwrap();
        let mut hooks = Hooks::default();
        assert!(walk_down(&mut h, &mut hooks, root, b"abc").is_none());
        assert_eq!(
            hooks.unusable,
            [ab.addr, root.addr],
            "the child, then its parent"
        );

        // Type-switched: the slot names another kind than the node has.
        let (_, ab, _) = tree(&mut h);
        let stale = Slot::inner(b'a', NodeKind::Node48, ab.addr);
        let root = inner(&mut h, NodeKind::Node4, b"", &[stale]);
        let mut hooks = Hooks::default();
        assert!(walk_down(&mut h, &mut hooks, root, b"abc").is_none());
        assert_eq!(hooks.unusable, [ab.addr, root.addr]);

        // A prefix no longer than its parent's: the region was recycled.
        let short = inner(&mut h, NodeKind::Node4, b"a", &[]);
        let parent = inner(&mut h, NodeKind::Node4, b"ab", &[rekey(b'c', short)]);
        let root = inner(&mut h, NodeKind::Node4, b"", &[rekey(b'a', parent)]);
        let mut hooks = Hooks::default();
        assert!(walk_down(&mut h, &mut hooks, root, b"abc").is_none());
        assert_eq!(hooks.unusable, [short.addr]);

        // The entry node itself retired.
        let mut node = node_of(&mut h, parent);
        node.header.status = NodeStatus::Invalid;
        let mut hooks = Hooks::default();
        let d = follow_from(&mut h, &mut hooks, node, parent.addr, b"abc").unwrap();
        assert!(d.is_none());
        assert_eq!(hooks.unusable, [parent.addr]);
    }

    #[test]
    fn a_busy_sample_restarts() {
        let mut h = host();
        let gone = inner(&mut h, NodeKind::Node4, b"abdez", &[]);
        let image = node_of(&mut h, gone);
        invalidate_inner(&mut h.0.dm, gone.addr, &image).unwrap();
        let deep = inner(&mut h, NodeKind::Node4, b"abde", &[gone]);
        let root = inner(&mut h, NodeKind::Node4, b"", &[rekey(b'a', deep)]);
        let y = walk_down(&mut h, &mut Hooks::default(), root, b"abxx");
        assert!(y.is_none(), "{y:?}");
    }

    #[test]
    fn a_leaf_above_the_hint_costs_exactly_one_more_read() {
        let mut h = host();
        let small = leaf(&mut h, b"s");
        let big = write_new_leaf(&mut h.0.dm, b"b", &[7; 500]).unwrap();
        let root = inner(
            &mut h,
            NodeKind::Node4,
            b"",
            &[small, Slot::leaf(b'b', big)],
        );
        let root_node = node_of(&mut h, root);
        let mut reads = |key: &[u8]| {
            let (reads, io) = (h.0.dm.stats().reads, h.1);
            let d = follow_from(
                &mut h,
                &mut Hooks::default(),
                root_node.clone(),
                root.addr,
                key,
            );
            assert!(d.unwrap().is_some());
            let booked = LeafReadStats {
                checksum_retries: h.1.checksum_retries - io.checksum_retries,
                extended_reads: h.1.extended_reads - io.extended_reads,
            };
            (h.0.dm.stats().reads - reads, booked)
        };
        assert_eq!(reads(b"s"), (1, LeafReadStats::default()));
        let (n, io) = reads(b"b");
        assert_eq!((n, io.extended_reads, io.checksum_retries), (2, 1, 0));
    }

    /// Tears the next `left` reads of at least a leaf's size (remote memory
    /// is intact).
    struct TearLeaves(AtomicU64);

    impl FaultHook for TearLeaves {
        fn corrupt_read(&self, _ptr: RemotePtr, data: &mut [u8]) {
            let due = |n: u64| n.checked_sub(1);
            let leaf = data.len() >= 64 && LeafNode::decode(data).is_ok();
            if leaf
                && self
                    .0
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, due)
                    .is_ok()
            {
                data[16] ^= 0xA5;
            }
        }
    }

    #[test]
    fn a_torn_leaf_is_re_read_after_one_counted_backoff_and_not_forever() {
        let cluster = DmCluster::new(ClusterConfig::default());
        let mut h = host_on(&cluster);
        let l = leaf(&mut h, b"b");
        let root = inner(&mut h, NodeKind::Node4, b"", &[l]);
        let policy = RetryPolicy {
            io_retries: 3,
            ..RetryPolicy::default()
        };

        cluster.set_fault_hook(Some(Arc::new(TearLeaves(1.into()))));
        h.0.retry = policy;
        let (reads, clock) = (h.0.dm.stats().reads, h.0.dm.clock_ns());
        let y = walk_down(&mut h, &mut Hooks::default(), root, b"b");
        assert!(y.is_some(), "{y:?}");
        assert_eq!((h.1.checksum_retries, h.1.extended_reads), (1, 0));
        assert_eq!(h.0.dm.stats().reads - reads, 1 + 2, "root, torn leaf, leaf");
        assert!(h.0.dm.clock_ns() - clock >= policy.backoff_ns);

        cluster.set_fault_hook(Some(Arc::new(TearLeaves(u64::MAX.into()))));
        let reads = h.0.dm.stats().reads;
        let node = node_of(&mut h, root);
        assert_eq!(
            follow_from(&mut h, &mut Hooks::default(), node, root.addr, b"b").unwrap_err(),
            EngineError::RetriesExhausted { op: "leaf read" }
        );
        assert_eq!(
            h.0.dm.stats().reads - reads,
            1 + 3,
            "root, then io_retries attempts"
        );
        assert_eq!(h.1.checksum_retries, 1 + 3);
    }
}
