//! Whole-inner-node encoding and views.

use crate::layout::header::{InnerHeader, NodeStatus};
use crate::layout::{LayoutError, NodeKind, Slot};

/// Byte offset of the value slot within an encoded inner node.
pub const VALUE_SLOT_OFFSET: u64 = 16;
/// Byte offset of the first child slot within an encoded inner node.
pub const SLOTS_OFFSET: u64 = 24;

/// The child slots of a decoded inner node: a slice of `Option<Slot>` to
/// every caller, stored inline for `Node4` and `Node16` (nine in ten of
/// the nodes a lookup decodes) and on the heap for the two large kinds.
pub type Slots = dm_sim::InlineVec<Option<Slot>, 16>;

/// A decoded inner node: header, optional value slot, child slots.
///
/// The `slots` sequence always has exactly `header.kind.capacity()` entries;
/// unoccupied positions are `None`. For `Node256` the slot at index `i`
/// holds the child dispatched on key byte `i`; smaller node types store
/// children in arbitrary positions and are searched linearly (the client
/// has the whole node in hand after one read, so this costs no extra
/// round trips).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InnerNode {
    /// The two header words.
    pub header: InnerHeader,
    /// Leaf for the key equal to this node's full prefix, if any.
    pub value_slot: Option<Slot>,
    /// Child slots (`capacity()` entries).
    pub slots: Slots,
}

impl InnerNode {
    /// Creates an empty `Idle` node of `kind` for full prefix `prefix`.
    pub fn new(kind: NodeKind, prefix: &[u8]) -> Self {
        InnerNode {
            header: InnerHeader::new(kind, prefix),
            value_slot: None,
            slots: Slots::filled(kind.capacity()),
        }
    }

    /// Encoded size in bytes of a node of `kind`.
    ///
    /// Node4 = 56 B, Node16 = 152 B, Node48 = 408 B, Node256 = 2072 B —
    /// matching the paper's "40–2056 bytes" inner-node range.
    pub fn byte_size(kind: NodeKind) -> usize {
        SLOTS_OFFSET as usize + 8 * kind.capacity()
    }

    /// Byte offset of child slot `index` (for remote CAS installs).
    pub fn slot_offset(index: usize) -> u64 {
        SLOTS_OFFSET + 8 * index as u64
    }

    /// Number of occupied child slots.
    pub fn child_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether all child slots are occupied (insert would need a type
    /// switch).
    pub fn is_full(&self) -> bool {
        self.child_count() == self.header.kind.capacity()
    }

    /// Finds the child dispatched on `byte`, with its slot index.
    pub fn find_child(&self, byte: u8) -> Option<(usize, Slot)> {
        match self.header.kind {
            NodeKind::Node256 => self.slots[byte as usize].map(|s| (byte as usize, s)),
            _ => self
                .slots
                .iter()
                .enumerate()
                .find_map(|(i, s)| s.filter(|s| s.key_byte == byte).map(|s| (i, s))),
        }
    }

    /// Finds a free slot index for inserting a child on `byte`.
    ///
    /// Returns `None` when the node is full (the caller must switch node
    /// types). For `Node256` the index is the key byte itself.
    pub fn free_slot(&self, byte: u8) -> Option<usize> {
        match self.header.kind {
            NodeKind::Node256 => self.slots[byte as usize].is_none().then_some(byte as usize),
            _ => self.slots.iter().position(Option::is_none),
        }
    }

    /// Installs a child slot locally (used when building nodes before
    /// writing them out; remote installs CAS the slot word instead).
    ///
    /// # Panics
    ///
    /// Panics if the node is full.
    pub fn set_child(&mut self, slot: Slot) {
        let idx = self.free_slot(slot.key_byte).expect("node has a free slot");
        self.slots[idx] = Some(slot);
    }

    /// Occupied child slots whose dispatch byte lies in `lo..=hi`, in
    /// ascending byte order (for scans), without a sorted copy: a `Node256`
    /// is in byte order already, and the smaller kinds are indexed once by
    /// dispatch byte (a bit per occupied byte, and the first slot holding
    /// it), so each step is a scan of at most four bitmap words.
    pub fn children_between(&self, lo: u8, hi: u8) -> impl Iterator<Item = Slot> + '_ {
        let indexed = self.header.kind == NodeKind::Node256;
        let (mut present, mut first) = ([0u64; 4], [0u8; 256]);
        if !indexed {
            // In reverse, so a byte held twice (a torn node) yields its
            // first slot only.
            for (i, slot) in self.slots.iter().enumerate().rev() {
                if let Some(slot) = slot {
                    let byte = usize::from(slot.key_byte);
                    present[byte / 64] |= 1 << (byte % 64);
                    first[byte] = i as u8;
                }
            }
        }
        // The next dispatch byte still to yield; past `hi` ends the walk.
        let (mut floor, hi) = (usize::from(lo), usize::from(hi));
        std::iter::from_fn(move || {
            if floor > hi {
                return None;
            }
            let (byte, at) = if indexed {
                let at = floor + self.slots[floor..=hi].iter().position(Option::is_some)?;
                (at, at)
            } else {
                let mut word = floor / 64;
                let mut bits = present[word] & (u64::MAX << (floor % 64));
                while bits == 0 {
                    word += 1;
                    bits = *present.get(word)?;
                }
                let byte = word * 64 + bits.trailing_zeros() as usize;
                (byte, usize::from(first[byte]))
            };
            if byte > hi {
                return None;
            }
            floor = byte + 1;
            self.slots[at]
        })
    }

    /// Next node kind for a type switch (Node4→16→48→256).
    ///
    /// Returns `None` for `Node256`, which never overflows.
    pub fn grown_kind(&self) -> Option<NodeKind> {
        match self.header.kind {
            NodeKind::Node4 => Some(NodeKind::Node16),
            NodeKind::Node16 => Some(NodeKind::Node48),
            NodeKind::Node48 => Some(NodeKind::Node256),
            NodeKind::Node256 => None,
        }
    }

    /// Serializes the node to its on-MN byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; Self::byte_size(self.header.kind)];
        out[0..8].copy_from_slice(&self.header.encode_control().to_le_bytes());
        out[8..16].copy_from_slice(&self.header.encode_hash().to_le_bytes());
        let vs = self.value_slot.map_or(0, |s| s.encode());
        out[16..24].copy_from_slice(&vs.to_le_bytes());
        for (i, slot) in self.slots.iter().enumerate() {
            let w = slot.map_or(0, |s| s.encode());
            let off = SLOTS_OFFSET as usize + 8 * i;
            out[off..off + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decodes a node from `bytes` (which may be longer than the node).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::TruncatedNode`] when `bytes` is too short for
    /// the node type named in the header, and propagates header tag errors.
    pub fn decode(bytes: &[u8]) -> Result<Self, LayoutError> {
        if bytes.len() < SLOTS_OFFSET as usize {
            return Err(LayoutError::TruncatedNode {
                need: SLOTS_OFFSET as usize,
                have: bytes.len(),
            });
        }
        let word = |i: usize| -> u64 {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
        };
        let header = InnerHeader::decode(word(0), word(1))?;
        let need = Self::byte_size(header.kind);
        if bytes.len() < need {
            return Err(LayoutError::TruncatedNode {
                need,
                have: bytes.len(),
            });
        }
        let value_slot = Slot::decode(word(2));
        let mut slots = Slots::filled(header.kind.capacity());
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Slot::decode(word(3 + i));
        }
        Ok(InnerNode {
            header,
            value_slot,
            slots,
        })
    }

    /// Copies header (with `kind` upgraded and version bumped), value slot
    /// and children into a fresh node of the next type — the node-type
    /// switch of §III-C.
    ///
    /// # Panics
    ///
    /// Panics if called on a `Node256`.
    pub fn grow(&self) -> InnerNode {
        let kind = self.grown_kind().expect("Node256 cannot grow");
        let mut node = InnerNode {
            header: InnerHeader {
                status: NodeStatus::Idle,
                kind,
                prefix_len: self.header.prefix_len,
                version: self.header.version.wrapping_add(1),
                prefix_hash42: self.header.prefix_hash42,
            },
            value_slot: self.value_slot,
            slots: Slots::filled(kind.capacity()),
        };
        for slot in self.slots.iter().flatten() {
            node.set_child(*slot);
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::RemotePtr;

    fn slot(b: u8, leaf: bool) -> Slot {
        let addr = RemotePtr::new(1, 64 * (b as u64 + 1));
        if leaf {
            Slot::leaf(b, addr)
        } else {
            Slot::inner(b, NodeKind::Node16, addr)
        }
    }

    #[test]
    fn sizes_match_paper_range() {
        assert_eq!(InnerNode::byte_size(NodeKind::Node4), 56);
        assert_eq!(InnerNode::byte_size(NodeKind::Node16), 152);
        assert_eq!(InnerNode::byte_size(NodeKind::Node48), 408);
        assert_eq!(InnerNode::byte_size(NodeKind::Node256), 2072);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut n = InnerNode::new(NodeKind::Node16, b"lyr");
        n.set_child(slot(b'i', false));
        n.set_child(slot(b'e', true));
        n.value_slot = Some(slot(0, true));
        let bytes = n.encode();
        assert_eq!(bytes.len(), 152);
        let d = InnerNode::decode(&bytes).unwrap();
        assert_eq!(d, n);
    }

    #[test]
    fn decode_tolerates_trailing_bytes() {
        let n = InnerNode::new(NodeKind::Node4, b"x");
        let mut bytes = n.encode();
        bytes.extend_from_slice(&[0xAA; 100]);
        assert_eq!(InnerNode::decode(&bytes).unwrap(), n);
    }

    #[test]
    fn truncated_rejected() {
        let n = InnerNode::new(NodeKind::Node256, b"x");
        let bytes = n.encode();
        assert!(matches!(
            InnerNode::decode(&bytes[..100]),
            Err(LayoutError::TruncatedNode { .. })
        ));
    }

    #[test]
    fn find_child_linear_and_indexed() {
        let mut n4 = InnerNode::new(NodeKind::Node4, b"");
        n4.set_child(slot(7, true));
        assert_eq!(n4.find_child(7).unwrap().1.key_byte, 7);
        assert!(n4.find_child(8).is_none());

        let mut n256 = InnerNode::new(NodeKind::Node256, b"");
        n256.set_child(slot(200, false));
        let (idx, s) = n256.find_child(200).unwrap();
        assert_eq!(idx, 200);
        assert_eq!(s.key_byte, 200);
    }

    #[test]
    fn grow_preserves_children_and_bumps_version() {
        let mut n = InnerNode::new(NodeKind::Node4, b"ab");
        for b in 0..4 {
            n.set_child(slot(b, true));
        }
        assert!(n.is_full());
        let g = n.grow();
        assert_eq!(g.header.kind, NodeKind::Node16);
        assert_eq!(g.header.version, 1);
        assert_eq!(g.child_count(), 4);
        for b in 0..4 {
            assert!(g.find_child(b).is_some());
        }
    }

    #[test]
    fn children_sorted_orders_by_key_byte() {
        let mut n = InnerNode::new(NodeKind::Node16, b"");
        for b in [9u8, 3, 200, 40] {
            n.set_child(slot(b, true));
        }
        let order: Vec<u8> = n.children_between(0, 255).map(|s| s.key_byte).collect();
        assert_eq!(order, vec![3, 9, 40, 200]);
        let mut n256 = InnerNode::new(NodeKind::Node256, b"");
        for b in [255u8, 0, 200, 40] {
            n256.set_child(slot(b, true));
        }
        let order =
            |lo, hi| -> Vec<u8> { n256.children_between(lo, hi).map(|s| s.key_byte).collect() };
        assert_eq!(order(0, 255), vec![0, 40, 200, 255]);
        assert_eq!(order(40, 200), vec![40, 200], "both bounds inclusive");
        assert_eq!(order(41, 199), Vec::<u8>::new());
        let window: Vec<u8> = n.children_between(4, 40).map(|s| s.key_byte).collect();
        assert_eq!(window, vec![9, 40]);
        let empty = InnerNode::new(NodeKind::Node48, b"");
        assert_eq!(empty.children_between(0, 255).count(), 0);
    }

    /// The smaller kinds' byte index against a sort of the slots: every
    /// window over a full `Node48` whose bytes straddle the bitmap words,
    /// and a byte held by two slots yields the first of them once.
    #[test]
    fn children_between_matches_a_sorted_reference() {
        let mut n = InnerNode::new(NodeKind::Node48, b"");
        for i in 0..47u32 {
            n.set_child(slot((i * 151 % 256) as u8, i % 2 == 0));
        }
        let held = n.slots[3].unwrap();
        n.slots[47] = Some(slot(held.key_byte, !held.is_leaf));
        let reference = |lo: u8, hi: u8| -> Vec<Slot> {
            let mut all: Vec<Slot> = n.slots.iter().flatten().copied().collect();
            all.sort_by_key(|s| s.key_byte);
            all.dedup_by_key(|s| s.key_byte);
            all.retain(|s| (lo..=hi).contains(&s.key_byte));
            all
        };
        for (lo, hi) in [
            (0, 255),
            (0, 63),
            (63, 64),
            (64, 127),
            (100, 200),
            (128, 255),
            (255, 255),
            (7, 6),
        ] {
            let got: Vec<Slot> = n.children_between(lo, hi).collect();
            assert_eq!(got, reference(lo, hi), "window {lo}..={hi}");
        }
    }

    #[test]
    fn node256_free_slot_is_key_byte() {
        let n = InnerNode::new(NodeKind::Node256, b"");
        assert_eq!(n.free_slot(123), Some(123));
    }

    #[test]
    fn slot_offset_matches_encoding() {
        let mut n = InnerNode::new(NodeKind::Node4, b"");
        n.set_child(slot(5, true));
        let idx = n.find_child(5).unwrap().0;
        let bytes = n.encode();
        let off = InnerNode::slot_offset(idx) as usize;
        let w = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        assert_eq!(Slot::decode(w), Some(slot(5, true)));
    }
}
