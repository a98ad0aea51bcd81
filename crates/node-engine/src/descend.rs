//! # descend — the key-following descent of a remote ART, once
//!
//! From a validated inner node whose full prefix prefixes the search key:
//! inner node → dispatch byte → child, leaf, or a compressed path that
//! leaves the key — ending in one of the five [`Outcome`]s every point
//! operation of Sphinx, SMART and ART dispatches on. [`Descend`] is that
//! walk as a resumable body: it never touches the network, it *yields* the
//! read it is waiting for ([`Yield::Inner`], [`Yield::Leaf`]) and is resumed
//! with the bytes, so the [`crate::OpState`] machine hosting it can run
//! alone (a blocking op) or as one of N in flight under
//! [`crate::run_pipelined`].
//!
//! What the hosts do differently is closed at the four [`DescendHost`]
//! hooks (a CN-side node cache: consult, fill, invalidate; a matching
//! child: Sphinx teaches its filter) and at two yields the host serves
//! with its whole client: [`Yield::Sample`] (the leaf sample below a
//! divergent child, [`crate::walk::any_leaf`]) and [`Yield::Restart`] (a
//! node caught mid type-switch: retake the host's entry search).
//!
//! Nothing here issues a write verb.

use art_core::hash::prefix_hash42;
use art_core::layout::{InnerNode, LeafNode, NodeStatus, Slot, VALUE_SLOT_OFFSET};
use art_core::NodeKind;
use dm_sim::{DmClient, RemotePtr, RetryPolicy};

use crate::walk::Sampled;
use crate::{leaf_attempt, EngineError, LeafAttempt, LeafReadStats};

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

/// What differs between the hosts of a descent. Every hook defaults to
/// nothing: the plain ART has no cache and no filter.
pub trait DescendHost {
    /// A CN-side copy of the inner node a slot of kind `kind` points at,
    /// sparing the read (SMART's node cache).
    fn cached(&mut self, _ptr: RemotePtr, _kind: NodeKind) -> Option<InnerNode> {
        None
    }

    /// `node` arrived from the network for a slot of kind `kind`.
    fn fetched(&mut self, _ptr: RemotePtr, _kind: NodeKind, _node: &InnerNode) {}

    /// The node at `ptr` turned out retired, type-switched or not below its
    /// parent: drop any copy of it.
    fn unusable(&mut self, _ptr: RemotePtr) {}

    /// The child whose full prefix is `prefix` matches the key and the
    /// descent continues into it (Sphinx: the filter "freshness" update of
    /// §IV Search).
    fn child_matched(&mut self, _prefix: &[u8]) {}
}

/// What a [`Descend`] needs next.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // moved once per step
pub enum Yield {
    /// Read `len` bytes of the inner node at the address and resume.
    Inner(RemotePtr, usize),
    /// Read `len` bytes of the leaf at the address and resume; the flag
    /// tells a re-read (longer than the hint, or torn) from first contact.
    Leaf(RemotePtr, usize, bool),
    /// A child's compressed path leaves the key: sample a leaf below
    /// [`Descend::diverged_child`], hand it to [`Descend::sampled`], resume
    /// without bytes.
    Sample,
    /// A node was caught retired or mid type-switch: transient — retake
    /// the lookup from the host's entry search.
    Restart,
    /// The descent ended.
    Done(Descent),
}

/// The validated inner node a descent stands at.
struct At {
    node: InnerNode,
    node_ptr: RemotePtr,
    via: Option<Via>,
}

impl At {
    fn done(self, outcome: Outcome) -> Yield {
        Yield::Done(Descent {
            node: self.node,
            node_ptr: self.node_ptr,
            via: self.via,
            outcome,
        })
    }
}

enum St {
    /// Not entered, or ended.
    Idle,
    /// Waiting for the inner child behind child slot `slot_idx`.
    Child { at: At, slot_idx: usize, slot: Slot },
    /// Waiting for the leaf behind `slot_ref`, `attempts` reads so far.
    Leaf {
        at: At,
        slot_ref: SlotRef,
        slot: Slot,
        read_len: usize,
        attempts: usize,
    },
    /// Yielded [`Yield::Sample`] for `child`.
    Diverged {
        at: At,
        slot_idx: usize,
        slot: Slot,
        child: Box<InnerNode>,
    },
    /// The host's sample arrived and decided this.
    Sampled(Yield),
}

/// The descent for one key, between round trips.
pub struct Descend<'k> {
    /// The search key.
    pub key: &'k [u8],
    policy: RetryPolicy,
    state: St,
    /// Leaf I/O of this descent so far (every entry included), for the
    /// host to fold into its counters.
    pub io: LeafReadStats,
}

impl<'k> Descend<'k> {
    /// A descent for `key` that fetches [`crate::LEAF_READ_HINT`] bytes of
    /// a leaf on first contact and re-reads a torn one under `policy`.
    pub fn new(key: &'k [u8], policy: RetryPolicy) -> Self {
        Descend {
            key,
            policy,
            state: St::Idle,
            io: LeafReadStats::default(),
        }
    }

    /// Starts (or, after [`Yield::Restart`], restarts) the descent at
    /// `node`, an inner node whose full prefix prefixes the key; `via` is
    /// what the host knows to point at it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Dm`] if a slot address overflows.
    pub fn enter<H: DescendHost>(
        &mut self,
        host: &mut H,
        node: InnerNode,
        node_ptr: RemotePtr,
        via: Option<Via>,
    ) -> Result<Yield, EngineError> {
        let at = At {
            node,
            node_ptr,
            via,
        };
        self.advance(host, at, None)
    }

    /// Walks down from `at` — first judging `arrived`, the child just read
    /// through one of its slots — for as long as the host has the next
    /// node at hand.
    fn advance<H: DescendHost>(
        &mut self,
        host: &mut H,
        mut at: At,
        mut arrived: Option<(usize, Slot, InnerNode)>,
    ) -> Result<Yield, EngineError> {
        let key = self.key;
        loop {
            let plen = at.node.header.prefix_len as usize;
            if let Some((slot_idx, slot, child)) = arrived.take() {
                let clen = child.header.prefix_len as usize;
                if child.header.status == NodeStatus::Invalid
                    || child.header.kind != slot.child_kind
                {
                    host.unusable(slot.addr);
                    host.unusable(at.node_ptr);
                    return Ok(Yield::Restart);
                }
                if clen <= plen {
                    host.unusable(slot.addr);
                    return Ok(Yield::Restart);
                }
                if key.len() < clen || child.header.prefix_hash42 != prefix_hash42(&key[..clen]) {
                    // Divergence inside the child's compressed path: the
                    // actual prefix bytes come from any leaf below it.
                    self.state = St::Diverged {
                        at,
                        slot_idx,
                        slot,
                        child: Box::new(child),
                    };
                    return Ok(Yield::Sample);
                }
                host.child_matched(&key[..clen]);
                let via = Via {
                    parent: Some(at.node_ptr),
                    word_ptr: at.node_ptr.checked_add(InnerNode::slot_offset(slot_idx))?,
                    expected: slot.encode(),
                };
                at = At {
                    node: child,
                    node_ptr: slot.addr,
                    via: Some(via),
                };
                continue;
            }
            if at.node.header.status == NodeStatus::Invalid {
                host.unusable(at.node_ptr);
                return Ok(Yield::Restart);
            }
            let (slot_ref, slot) = if key.len() == plen {
                // Key terminates exactly at this node.
                match at.node.value_slot {
                    Some(slot) => (SlotRef::Value, slot),
                    None => return Ok(at.done(Outcome::NoValueSlot)),
                }
            } else {
                let byte = key[plen];
                match at.node.find_child(byte) {
                    None => return Ok(at.done(Outcome::Empty { byte })),
                    Some((idx, slot)) if slot.is_leaf => (SlotRef::Child(idx), slot),
                    Some((slot_idx, slot)) => {
                        arrived = host
                            .cached(slot.addr, slot.child_kind)
                            .map(|child| (slot_idx, slot, child));
                        if arrived.is_some() {
                            continue;
                        }
                        self.state = St::Child { at, slot_idx, slot };
                        let len = InnerNode::byte_size(slot.child_kind);
                        return Ok(Yield::Inner(slot.addr, len));
                    }
                }
            };
            let read_len = crate::LEAF_READ_HINT;
            self.state = St::Leaf {
                at,
                slot_ref,
                slot,
                read_len,
                attempts: 0,
            };
            return Ok(Yield::Leaf(slot.addr, read_len, false));
        }
    }

    /// Resumes with the bytes of the read last yielded for (`None` after
    /// [`Descend::sampled`]). A leaf takes the validated read of
    /// [`crate::read_validated_leaf`] one attempt per resume.
    ///
    /// # Errors
    ///
    /// [`EngineError::Layout`] for bytes that are no node,
    /// [`EngineError::RetriesExhausted`] for a leaf torn
    /// [`RetryPolicy::io_retries`] times over.
    ///
    /// # Panics
    ///
    /// If resumed out of step with what it yielded.
    pub fn resume<H: DescendHost>(
        &mut self,
        t: &mut DmClient,
        host: &mut H,
        bytes: Option<Vec<u8>>,
    ) -> Result<Yield, EngineError> {
        match (std::mem::replace(&mut self.state, St::Idle), bytes) {
            (St::Child { at, slot_idx, slot }, Some(bytes)) => {
                let child = InnerNode::decode(&bytes)?;
                host.fetched(slot.addr, slot.child_kind, &child);
                self.advance(host, at, Some((slot_idx, slot, child)))
            }
            (
                St::Leaf {
                    at,
                    slot_ref,
                    slot,
                    read_len,
                    attempts,
                },
                Some(bytes),
            ) => match leaf_attempt(t, &bytes, read_len, &self.policy, &mut self.io)? {
                LeafAttempt::Settled(leaf) => Ok(at.done(Outcome::Leaf {
                    slot_ref,
                    slot,
                    leaf,
                })),
                LeafAttempt::Again(_) if attempts + 1 >= self.policy.io_retries => {
                    Err(EngineError::RetriesExhausted { op: "leaf read" })
                }
                LeafAttempt::Again(read_len) => {
                    self.state = St::Leaf {
                        at,
                        slot_ref,
                        slot,
                        read_len,
                        attempts: attempts + 1,
                    };
                    Ok(Yield::Leaf(slot.addr, read_len, true))
                }
            },
            (St::Sampled(end), None) => Ok(end),
            _ => unreachable!("a descent was resumed out of step with what it yielded"),
        }
    }

    /// The divergent child of a descent that yielded [`Yield::Sample`].
    ///
    /// # Panics
    ///
    /// In any other state.
    pub fn diverged_child(&self) -> &InnerNode {
        match &self.state {
            St::Diverged { child, .. } => child,
            _ => unreachable!("only a descent that yielded Sample has a divergent child"),
        }
    }

    /// Hands over what was sampled below [`Descend::diverged_child`].
    ///
    /// # Panics
    ///
    /// If the descent did not yield [`Yield::Sample`].
    pub fn sampled(&mut self, sample: Sampled) {
        let St::Diverged {
            at,
            slot_idx,
            slot,
            child,
        } = std::mem::replace(&mut self.state, St::Idle)
        else {
            unreachable!("only a descent that yielded Sample takes a sample")
        };
        self.state = St::Sampled(match sample {
            Sampled::Busy => Yield::Restart,
            Sampled::Empty => at.done(Outcome::EmptyChild {
                slot_idx,
                slot,
                child,
            }),
            Sampled::Leaf(sample) => at.done(Outcome::Divergent {
                slot_idx,
                slot,
                child,
                sample,
            }),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::any_leaf;
    use crate::walk::tests::{host, host_on, inner, leaf, node_of, Host};
    use crate::{invalidate_inner, write_new_inner, write_new_leaf};
    use dm_sim::{ClusterConfig, DmCluster, FaultHook};
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

    impl DescendHost for Hooks {
        fn cached(&mut self, ptr: RemotePtr, _kind: NodeKind) -> Option<InnerNode> {
            self.copies.get(&ptr.to_raw()).cloned()
        }
        fn fetched(&mut self, ptr: RemotePtr, _kind: NodeKind, _node: &InnerNode) {
            self.fetched.push(ptr);
        }
        fn unusable(&mut self, ptr: RemotePtr) {
            self.unusable.push(ptr);
        }
        fn child_matched(&mut self, prefix: &[u8]) {
            self.matched.push(prefix.to_vec());
        }
    }

    /// Drives `d` from `root` to where it ends (or asks for a restart) on
    /// the blocking transport, serving each yield as a host's driver does.
    fn drive(
        h: &mut Host,
        hooks: &mut Hooks,
        d: &mut Descend<'_>,
        root: Slot,
    ) -> Result<Yield, EngineError> {
        let node = node_of(h, root);
        let mut y = d.enter(hooks, node, root.addr, None)?;
        loop {
            y = match y {
                Yield::Inner(ptr, len) | Yield::Leaf(ptr, len, _) => {
                    let bytes = h.0.dm.read(ptr, len)?;
                    d.resume(&mut h.0.dm, hooks, Some(bytes))?
                }
                Yield::Sample => {
                    let sample = any_leaf(h, d.diverged_child())?;
                    d.sampled(sample);
                    d.resume(&mut h.0.dm, hooks, None)?
                }
                end => return Ok(end),
            };
        }
    }

    fn walk_down(h: &mut Host, hooks: &mut Hooks, root: Slot, key: &[u8]) -> Yield {
        let mut d = Descend::new(key, RetryPolicy::default());
        drive(h, hooks, &mut d, root).unwrap()
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
        let end = |h: &mut Host, key: &[u8]| match walk_down(h, &mut Hooks::default(), root, key) {
            Yield::Done(d) => d,
            other => panic!("{other:?}"),
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
        let mut d = Descend::new(b"abq", RetryPolicy::default());
        match d.enter(&mut Hooks::default(), node, ab.addr, None).unwrap() {
            Yield::Done(d) => assert_eq!(d.via, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hooks_see_every_node_and_a_cached_copy_spares_the_read() {
        let mut h = host();
        let (root, ab, deep) = tree(&mut h);
        let mut hooks = Hooks::default();
        let before = h.0.dm.stats().round_trips;
        assert!(matches!(
            walk_down(&mut h, &mut hooks, root, b"abdey"),
            Yield::Done(_)
        ));
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
        let mut d = Descend::new(b"abdey", RetryPolicy::default());
        let first = d.enter(&mut hooks, root_node, root.addr, None).unwrap();
        assert!(
            matches!(first, Yield::Leaf(..)),
            "both inner nodes served CPU-side: {first:?}"
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
        assert!(matches!(
            walk_down(&mut h, &mut hooks, root, b"abc"),
            Yield::Restart
        ));
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
        assert!(matches!(
            walk_down(&mut h, &mut hooks, root, b"abc"),
            Yield::Restart
        ));
        assert_eq!(hooks.unusable, [ab.addr, root.addr]);

        // A prefix no longer than its parent's: the region was recycled.
        let short = inner(&mut h, NodeKind::Node4, b"a", &[]);
        let parent = inner(&mut h, NodeKind::Node4, b"ab", &[rekey(b'c', short)]);
        let root = inner(&mut h, NodeKind::Node4, b"", &[rekey(b'a', parent)]);
        let mut hooks = Hooks::default();
        assert!(matches!(
            walk_down(&mut h, &mut hooks, root, b"abc"),
            Yield::Restart
        ));
        assert_eq!(hooks.unusable, [short.addr]);

        // The entry node itself retired.
        let mut node = node_of(&mut h, parent);
        node.header.status = NodeStatus::Invalid;
        let mut d = Descend::new(b"abc", RetryPolicy::default());
        let mut hooks = Hooks::default();
        assert!(matches!(
            d.enter(&mut hooks, node, parent.addr, None).unwrap(),
            Yield::Restart
        ));
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
        assert!(matches!(y, Yield::Restart), "{y:?}");
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
            let mut d = Descend::new(key, RetryPolicy::default());
            let mut y = d.enter(&mut Hooks::default(), root_node.clone(), root.addr, None);
            let mut reads = 0;
            while let Ok(Yield::Leaf(ptr, len, again)) = y {
                assert_eq!(again, reads > 0);
                reads += 1;
                let bytes = h.0.dm.read(ptr, len).unwrap();
                y = d.resume(&mut h.0.dm, &mut Hooks::default(), Some(bytes));
            }
            assert!(matches!(y, Ok(Yield::Done(_))), "{y:?}");
            (reads, d.io)
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
        let mut d = Descend::new(b"b", policy);
        let (reads, clock) = (h.0.dm.stats().reads, h.0.dm.clock_ns());
        let y = drive(&mut h, &mut Hooks::default(), &mut d, root).unwrap();
        assert!(matches!(y, Yield::Done(_)), "{y:?}");
        assert_eq!((d.io.checksum_retries, d.io.extended_reads), (1, 0));
        assert_eq!(h.0.dm.stats().reads - reads, 1 + 2, "root, torn leaf, leaf");
        assert!(h.0.dm.clock_ns() - clock >= policy.backoff_ns);

        cluster.set_fault_hook(Some(Arc::new(TearLeaves(u64::MAX.into()))));
        let mut d = Descend::new(b"b", policy);
        let reads = h.0.dm.stats().reads;
        assert_eq!(
            drive(&mut h, &mut Hooks::default(), &mut d, root).unwrap_err(),
            EngineError::RetriesExhausted { op: "leaf read" }
        );
        assert_eq!(
            h.0.dm.stats().reads - reads,
            1 + 3,
            "root, then io_retries attempts"
        );
        assert_eq!(d.io.checksum_retries, 3);
    }
}
